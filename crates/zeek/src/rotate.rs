//! Monthly log rotation.
//!
//! Real Zeek deployments rotate logs; a 23-month collection is hundreds of
//! files, not two. This module writes a corpus as per-month files
//! (`ssl.2022-05.log`, `x509.2022-05.log`, …) and reads a log directory
//! back: a month at a time ([`month_keys`] + [`read_month_obs`], the walk
//! the `mtls-core` loader runs) or whole ([`read_dir_obs`], which the
//! loader uses for the flat pair). It is also the one place that decides a
//! directory's layout: `ssl.log` present means the flat, unrotated
//! `ssl.log` / `x509.log` pair, anything else the rotated shards.

use crate::diag::{IngestMode, IngestStats, ShardDiag};
use crate::records::{SslRecord, X509Record};
use crate::tsv::{read_ssl_log_with, read_x509_log_with, write_ssl_log, write_x509_log, TsvError};
use mtls_intern::FxHashMap;
use mtls_obs::{Obs, SpanId};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `YYYY-MM` for a Unix-seconds timestamp (proleptic Gregorian).
fn month_key(ts: f64) -> String {
    // Days since epoch → civil date, reusing the zeek-local arithmetic to
    // avoid a dependency on mtls-asn1 here. Floor before the integer cast:
    // `ts as i64` truncates toward zero, which would bucket a fractional
    // pre-epoch timestamp like -0.5 into 1970-01 instead of 1969-12.
    let days = (ts.floor() as i64).div_euclid(86_400);
    let (y, m) = civil_year_month(days);
    format!("{y:04}-{m:02}")
}

/// (year, month) from days-since-epoch (Howard Hinnant's algorithm).
fn civil_year_month(z: i64) -> (i64, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (y + i64::from(m <= 2), m)
}

/// Group records into per-month buckets of references (no record clones;
/// bucket order is resolved by sorting the handful of month keys after
/// the single fast-hash grouping pass).
fn group_by_month<T>(records: &[T], ts_of: impl Fn(&T) -> f64) -> Vec<(String, Vec<&T>)> {
    let mut by_month: FxHashMap<String, Vec<&T>> = FxHashMap::default();
    for rec in records {
        by_month.entry(month_key(ts_of(rec))).or_default().push(rec);
    }
    let mut buckets: Vec<(String, Vec<&T>)> = by_month.into_iter().collect();
    buckets.sort_by(|a, b| a.0.cmp(&b.0));
    buckets
}

/// Write per-month `ssl.YYYY-MM.log` / `x509.YYYY-MM.log` files.
pub fn write_monthly(dir: &Path, ssl: &[SslRecord], x509: &[X509Record]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (month, records) in group_by_month(ssl, |r| r.ts) {
        let mut f =
            std::io::BufWriter::new(std::fs::File::create(dir.join(format!("ssl.{month}.log")))?);
        write_ssl_log(&mut f, records)?;
    }
    for (month, records) in group_by_month(x509, |r| r.ts) {
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("x509.{month}.log")),
        )?);
        write_x509_log(&mut f, records)?;
    }
    Ok(())
}

/// The log files of a directory as `(path, is_ssl)` read tasks, ssl before
/// x509 — the order the records concatenate in. This is the one place the
/// layout is decided: a directory holding `ssl.log` is the flat, unrotated
/// layout, read as the `ssl.log` / `x509.log` pair (any rotated shards
/// beside it are ignored). Otherwise it is the rotated layout: the
/// `ssl.*.log` / `x509.*.log` shards in filename (chronological) order,
/// with unrelated files ignored.
fn shard_files(dir: &Path) -> Result<Vec<(PathBuf, bool)>, TsvError> {
    let flat = dir.join("ssl.log");
    if flat.exists() {
        return Ok(vec![(flat, true), (dir.join("x509.log"), false)]);
    }
    let mut ssl_files: Vec<PathBuf> = Vec::new();
    let mut x509_files: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(TsvError::Io)? {
        let path = entry.map_err(TsvError::Io)?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("ssl.") && name.ends_with(".log") && name != "ssl.log" {
            ssl_files.push(path);
        } else if name.starts_with("x509.") && name.ends_with(".log") && name != "x509.log" {
            x509_files.push(path);
        }
    }
    ssl_files.sort();
    x509_files.sort();
    Ok(ssl_files
        .into_iter()
        .map(|p| (p, true))
        .chain(x509_files.into_iter().map(|p| (p, false)))
        .collect())
}

/// One parsed shard, tagged by kind so one file loop reads both log
/// streams.
enum ParsedShard {
    Ssl(Vec<SslRecord>),
    X509(Vec<X509Record>),
}

fn shard_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// Records and accounting of a directory (or month) read.
type ReadResult = Result<(Vec<SslRecord>, Vec<X509Record>, IngestStats), TsvError>;

/// Open and parse one shard, timing it and accounting rows/bytes into its
/// [`ShardDiag`]. Shard-level failures (open, header) come back as `Err`;
/// the caller either propagates them (strict) or quarantines (lenient).
///
/// Each shard records one span (named after the shard file) under
/// `parent`. Metrics are batched — one counter
/// add and one histogram observation per shard, never per row — keeping
/// the instrumented hot path within the overhead budget.
fn read_shard(
    path: &Path,
    is_ssl: bool,
    mode: IngestMode,
    obs: &Obs,
    parent: Option<SpanId>,
) -> (ShardDiag, Result<ParsedShard, TsvError>) {
    let mut diag = ShardDiag::new(shard_name(path));
    let span = obs.span(parent, &diag.shard);
    let parsed = std::fs::File::open(path)
        .map_err(TsvError::Io)
        .and_then(|f| {
            if is_ssl {
                read_ssl_log_with(BufReader::new(f), mode, &mut diag).map(ParsedShard::Ssl)
            } else {
                read_x509_log_with(BufReader::new(f), mode, &mut diag).map(ParsedShard::X509)
            }
        });
    diag.wall_micros = span.finish().as_micros() as u64;
    if obs.enabled() {
        obs.counter("ingest.rows_parsed").add(diag.rows_parsed);
        obs.counter("ingest.rows_skipped").add(diag.rows_skipped());
        obs.counter("ingest.bytes_read").add(diag.bytes_read);
        obs.histogram_record("ingest.shard_parse_micros", diag.wall_micros);
        obs.gauge_max("ingest.peak_shard_rows", diag.rows_parsed as i64);
    }
    (diag, parsed)
}

/// The file loop: read `tasks` one at a time, in order. Strict mode stops
/// at the first shard error; lenient mode quarantines failed shards and
/// keeps going.
fn read_files(
    tasks: &[(PathBuf, bool)],
    mode: IngestMode,
    obs: &Obs,
    parent: Option<SpanId>,
) -> ReadResult {
    let t0 = Instant::now();
    let mut stats = IngestStats {
        mode,
        ..IngestStats::default()
    };
    let mut ssl = Vec::new();
    let mut x509 = Vec::new();
    for (path, is_ssl) in tasks {
        let (mut diag, parsed) = read_shard(path, *is_ssl, mode, obs, parent);
        match parsed {
            Ok(ParsedShard::Ssl(records)) => ssl.extend(records),
            Ok(ParsedShard::X509(records)) => x509.extend(records),
            Err(err) if mode == IngestMode::Lenient => diag.quarantine(&err),
            Err(err) => return Err(err),
        }
        stats.absorb(diag);
    }
    stats.wall_micros = t0.elapsed().as_micros() as u64;
    Ok((ssl, x509, stats))
}

/// Read a whole log directory (either layout, see the module docs): every
/// ssl file, then every x509 file, each stream in filename (chronological)
/// order, with one span per file under `parent`.
pub fn read_dir_obs(dir: &Path, mode: IngestMode, obs: &Obs, parent: Option<SpanId>) -> ReadResult {
    read_files(&shard_files(dir)?, mode, obs, parent)
}

/// [`read_dir_obs`] unobserved. Kept for the benchmark (`mtlsbench`),
/// which calls it by this name; the next change to the benchmark removes it.
pub fn read_monthly_with(dir: &Path, mode: IngestMode) -> ReadResult {
    read_dir_obs(dir, mode, &Obs::noop(), None)
}

/// The month key embedded in a rotated shard filename
/// (`ssl.2022-05.log` → `2022-05`), or `None` for non-shard files.
fn shard_month(name: &str) -> Option<&str> {
    let stem = name.strip_suffix(".log")?;
    let key = stem
        .strip_prefix("ssl.")
        .or_else(|| stem.strip_prefix("x509."))?;
    (!key.is_empty()).then_some(key)
}

/// The distinct month keys present in a rotated directory, sorted into
/// chronological (`YYYY-MM` lexicographic) order. This is the epoch
/// schedule of a directory load: each key names one
/// [`read_month_obs`] unit. Empty for the flat layout, which has no
/// per-month files.
pub fn month_keys(dir: &Path) -> Result<Vec<String>, TsvError> {
    let mut keys: Vec<String> = shard_files(dir)?
        .iter()
        .filter_map(|(p, _)| p.file_name()?.to_str())
        .filter_map(shard_month)
        .map(str::to_string)
        .collect();
    keys.sort();
    keys.dedup();
    Ok(keys)
}

/// Read only the shards of one month (`ssl.<key>.log` / `x509.<key>.log`
/// where present) — the unit of work the loader pushes as one epoch.
/// Observability mirrors [`read_dir_obs`]: one span per shard file under
/// `parent`, batched row/byte counters, so a month-by-month walk of a
/// directory produces the same span rows and counter totals as one whole
/// read. Strict mode surfaces the month's first shard error (ssl before
/// x509); lenient quarantines it.
pub fn read_month_obs(
    dir: &Path,
    key: &str,
    mode: IngestMode,
    obs: &Obs,
    parent: Option<SpanId>,
) -> ReadResult {
    let tasks: Vec<(PathBuf, bool)> = [("ssl", true), ("x509", false)]
        .into_iter()
        .map(|(stream, is_ssl)| (dir.join(format!("{stream}.{key}.log")), is_ssl))
        .filter(|(path, _)| path.exists())
        .collect();
    read_files(&tasks, mode, obs, parent)
}

/// Partition in-memory records into per-month epochs, chronologically
/// sorted — the in-memory twin of a rotated directory walk, used when a
/// simulated corpus is streamed without touching disk. Record order
/// within each month is preserved, so concatenating the partitions
/// reproduces [`write_monthly`]-then-read byte order exactly.
pub fn partition_monthly(
    ssl: Vec<SslRecord>,
    x509: Vec<X509Record>,
) -> Vec<(String, Vec<SslRecord>, Vec<X509Record>)> {
    let mut months: std::collections::BTreeMap<String, (Vec<SslRecord>, Vec<X509Record>)> =
        std::collections::BTreeMap::new();
    for rec in ssl {
        months.entry(month_key(rec.ts)).or_default().0.push(rec);
    }
    for rec in x509 {
        months.entry(month_key(rec.ts)).or_default().1.push(rec);
    }
    months
        .into_iter()
        .map(|(key, (ssl, x509))| (key, ssl, x509))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Ipv4;
    use crate::records::TlsVersion;

    fn ssl_at(ts: f64, uid: &str) -> SslRecord {
        SslRecord {
            ts,
            uid: uid.to_string(),
            orig_h: Ipv4::new(10, 0, 0, 1),
            orig_p: 1,
            resp_h: Ipv4::new(10, 0, 0, 2),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: None,
            established: true,
            cert_chain_fps: vec![],
            client_cert_chain_fps: vec![],
        }
    }

    fn x509_at(ts: f64, fp: &str) -> X509Record {
        X509Record {
            ts,
            fingerprint: fp.to_string(),
            version: 3,
            serial: "01".into(),
            subject: String::new(),
            issuer: String::new(),
            issuer_org: None,
            subject_cn: None,
            not_valid_before: 0,
            not_valid_after: 1,
            key_alg: "rsa".into(),
            key_length: 2048,
            sig_alg: String::new(),
            san_dns: vec![],
            san_email: vec![],
            san_uri: vec![],
            san_ip: vec![],
            basic_constraints_ca: false,
        }
    }

    /// A whole-directory read, unobserved.
    fn read_dir(dir: &Path, mode: IngestMode) -> ReadResult {
        read_dir_obs(dir, mode, &Obs::noop(), None)
    }

    /// A strict whole-directory read's records, without the accounting.
    fn strict_records(dir: &Path) -> (Vec<SslRecord>, Vec<X509Record>) {
        let (ssl, x509, _) = read_dir(dir, IngestMode::Strict).unwrap();
        (ssl, x509)
    }

    const MAY_2022: f64 = 1_651_363_200.0;
    const JUN_2022: f64 = 1_654_041_600.0;

    #[test]
    fn month_keys() {
        assert_eq!(month_key(MAY_2022), "2022-05");
        assert_eq!(month_key(MAY_2022 + 86_400.0 * 30.0), "2022-05");
        assert_eq!(month_key(JUN_2022), "2022-06");
        assert_eq!(month_key(0.0), "1970-01");
    }

    #[test]
    fn month_keys_floor_pre_epoch_fractions() {
        // Truncation (`ts as i64`) would bucket -0.5 into 1970-01; a
        // fractional second before the epoch belongs to 1969-12.
        assert_eq!(month_key(-0.5), "1969-12");
        assert_eq!(month_key(-1.0), "1969-12");
        assert_eq!(month_key(0.5), "1970-01");
        // Whole pre-epoch days were already correct via div_euclid.
        assert_eq!(month_key(-86_400.0), "1969-12");
        assert_eq!(month_key(-86_400.0 * 31.0), "1969-12");
        assert_eq!(month_key(-86_400.0 * 31.0 - 0.25), "1969-11");
        // A deep pre-epoch timestamp (1756-12-28T23:59:59.5Z) lands in the
        // right month.
        assert_eq!(month_key(-6_721_833_600.0 - 0.5), "1756-12");
    }

    #[test]
    fn lenient_quarantines_bad_shards_and_counts_rows() {
        use crate::diag::ErrorKind;
        let ssl = vec![ssl_at(MAY_2022, "a"), ssl_at(JUN_2022, "b")];
        let x509 = vec![x509_at(MAY_2022, "f1"), x509_at(JUN_2022, "f2")];
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate4-{}", std::process::id()));
        write_monthly(&dir, &ssl, &x509).unwrap();
        // Corrupt the x509 May shard's #fields header.
        let victim = dir.join("x509.2022-05.log");
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, text.replace("#fields\tts", "#fields\tbogus")).unwrap();

        // Strict fails with BadHeader.
        assert!(matches!(
            read_dir(&dir, IngestMode::Strict),
            Err(TsvError::BadHeader)
        ));
        // Lenient: the shard is quarantined, everything else survives.
        let (ssl_rt, x509_rt, stats) = read_dir(&dir, IngestMode::Lenient).unwrap();
        assert_eq!(ssl_rt, ssl);
        assert_eq!(x509_rt, vec![x509_at(JUN_2022, "f2")]);
        assert_eq!(stats.shards_quarantined, 1);
        assert_eq!(stats.rows_parsed, 3);
        assert_eq!(stats.rows_skipped, 0);
        let bad = stats
            .shards
            .iter()
            .find(|d| d.quarantined.is_some())
            .expect("quarantined shard diag");
        assert_eq!(bad.shard, "x509.2022-05.log");
        assert_eq!(bad.quarantined.as_ref().unwrap().kind, ErrorKind::BadHeader);
        // The corpus-wide totals agree with the per-shard sums.
        let summed: u64 = stats.shards.iter().map(|d| d.rows_parsed).sum();
        assert_eq!(stats.rows_parsed, summed);
        assert!(stats.error_rate() > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_round_trips_in_order() {
        let ssl = vec![
            ssl_at(MAY_2022, "a"),
            ssl_at(MAY_2022 + 60.0, "b"),
            ssl_at(JUN_2022, "c"),
        ];
        let x509 = vec![x509_at(MAY_2022, "f1"), x509_at(JUN_2022, "f2")];
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate-{}", std::process::id()));
        write_monthly(&dir, &ssl, &x509).unwrap();

        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.contains(&"ssl.2022-05.log".to_string()));
        assert!(names.contains(&"ssl.2022-06.log".to_string()));
        assert!(names.contains(&"x509.2022-05.log".to_string()));

        let (ssl_rt, x509_rt) = strict_records(&dir);
        assert_eq!(ssl_rt, ssl, "chronological concatenation");
        assert_eq!(x509_rt, x509);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn month_by_month_walk_matches_batch_read() {
        let ssl = vec![
            ssl_at(MAY_2022, "a"),
            ssl_at(MAY_2022 + 60.0, "b"),
            ssl_at(JUN_2022, "c"),
        ];
        // June has ssl traffic but no x509 shard — the walk must cope
        // with a month missing one of the two files.
        let x509 = vec![x509_at(MAY_2022, "f1")];
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate5-{}", std::process::id()));
        write_monthly(&dir, &ssl, &x509).unwrap();

        let keys = crate::rotate::month_keys(&dir).unwrap();
        assert_eq!(keys, vec!["2022-05".to_string(), "2022-06".to_string()]);

        let mut walked_ssl = Vec::new();
        let mut walked_x509 = Vec::new();
        let mut rows = 0;
        for key in &keys {
            let (s, x, stats) =
                read_month_obs(&dir, key, IngestMode::Strict, &Obs::noop(), None).unwrap();
            rows += stats.rows_parsed;
            walked_ssl.extend(s);
            walked_x509.extend(x);
        }
        let (batch_ssl, batch_x509) = strict_records(&dir);
        assert_eq!(walked_ssl, batch_ssl);
        assert_eq!(walked_x509, batch_x509);
        assert_eq!(rows, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partition_matches_rotated_layout() {
        let ssl = vec![
            ssl_at(JUN_2022, "c"),
            ssl_at(MAY_2022, "a"),
            ssl_at(MAY_2022 + 60.0, "b"),
        ];
        let x509 = vec![x509_at(MAY_2022, "f1"), x509_at(JUN_2022, "f2")];
        let parts = partition_monthly(ssl.clone(), x509.clone());
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, "2022-05");
        assert_eq!(
            parts[0].1,
            vec![ssl_at(MAY_2022, "a"), ssl_at(MAY_2022 + 60.0, "b")]
        );
        assert_eq!(parts[0].2, vec![x509_at(MAY_2022, "f1")]);
        assert_eq!(parts[1].0, "2022-06");
        assert_eq!(parts[1].1, vec![ssl_at(JUN_2022, "c")]);

        // Same epochs a rotated directory would yield.
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate6-{}", std::process::id()));
        write_monthly(&dir, &ssl, &x509).unwrap();
        for (key, part_ssl, part_x509) in &parts {
            let (s, x, _) =
                read_month_obs(&dir, key, IngestMode::Strict, &Obs::noop(), None).unwrap();
            assert_eq!(&s, part_ssl);
            assert_eq!(&x, part_x509);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ignores_unrelated_files() {
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), "hi").unwrap();
        let (ssl, x509) = strict_records(&dir);
        assert!(ssl.is_empty());
        assert!(x509.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flat_pair_wins_over_rotated_shards() {
        // A directory holding both layouts reads the flat `ssl.log` /
        // `x509.log` pair and ignores the rotated shards beside it.
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate7-{}", std::process::id()));
        write_monthly(&dir, &[ssl_at(MAY_2022, "rotated")], &[]).unwrap();
        let flat_ssl = vec![ssl_at(JUN_2022, "flat")];
        let flat_x509 = vec![x509_at(JUN_2022, "f1")];
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &flat_ssl).unwrap();
        std::fs::write(dir.join("ssl.log"), &buf).unwrap();
        buf.clear();
        write_x509_log(&mut buf, &flat_x509).unwrap();
        std::fs::write(dir.join("x509.log"), &buf).unwrap();

        let (ssl, x509, stats) = read_dir(&dir, IngestMode::Strict).unwrap();
        assert_eq!(ssl, flat_ssl);
        assert_eq!(x509, flat_x509);
        let names: Vec<&str> = stats.shards.iter().map(|d| d.shard.as_str()).collect();
        assert_eq!(names, ["ssl.log", "x509.log"]);
        // The flat layout has no per-month files, so no epoch schedule.
        assert!(crate::rotate::month_keys(&dir).unwrap().is_empty());

        // Without `ssl.log` the same directory is rotated again, and a
        // stray `x509.log` is not one of its shards.
        std::fs::remove_file(dir.join("ssl.log")).unwrap();
        let (ssl, x509) = strict_records(&dir);
        assert_eq!(ssl, vec![ssl_at(MAY_2022, "rotated")]);
        assert!(x509.is_empty());
        assert_eq!(crate::rotate::month_keys(&dir).unwrap(), ["2022-05"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
