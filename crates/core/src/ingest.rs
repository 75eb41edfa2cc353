//! File-based ingestion: load a log directory written by the simulator (or
//! by any producer of the same layout) into [`AnalysisInputs`].
//!
//! Layout accepted (which of the first two a directory holds is decided in
//! one place, [`mtls_zeek::rotate`]; the loader reads either):
//! * `ssl.log` / `x509.log` — the flat, unrotated pair, or
//! * `ssl.YYYY-MM.log` / `x509.YYYY-MM.log` — Zeek-style monthly rotation;
//! * `ct.log` — tab-separated (domain, issuer, fingerprint) triples;
//! * `ct_gossip.log` — optional STH/proof gossip evidence (see
//!   [`mtls_pki::GossipBundle`]); absent on pre-gossip corpora and real
//!   captures, in which case the legacy interception filter runs;
//! * `meta.tsv` — the out-of-band knowledge (`key<TAB>value` lines).
//!
//! There is one loader, [`load_dir`]. It walks a rotated directory month by
//! month into a [`CorpusBuilder`] (a flat pair is read whole and
//! partitioned into months in memory). With no window that walk is the
//! batch load; with `Some(n)` it keeps a rolling window of the newest `n`
//! months. Shards are read in month order, so strict mode reports the
//! first error in that order and the diagnostics list shards in it.
//!
//! The loader runs in one of two [`IngestMode`]s. [`IngestMode::Strict`]
//! (the default, and the historical behavior) aborts on the first malformed
//! row, shard, `ct.log` line or meta entry. [`IngestMode::Lenient`] skips
//! malformed data rows and `ct.log` lines, quarantines whole shards that
//! fail to open or carry a bad header, and skips malformed `cloud_nets`
//! meta entries — recording everything in
//! an [`IngestDiagnostics`] so corruption is visible, bounded (see
//! [`IngestDiagnostics::check_error_rate`]), and never silent. Structural
//! problems (a missing required meta key, an unreadable `meta.tsv`) stay
//! hard errors in both modes: there is no sensible partial recovery from
//! losing the out-of-band knowledge.

use crate::corpus::MetaKnowledge;
use crate::pipeline::AnalysisInputs;
use crate::report::{count, fmt_micros, Table};
use crate::stream::{CorpusBuilder, StreamParts, StreamSummary};
use mtls_obs::{Obs, SpanId};
use mtls_pki::ctlog::{CtEntry, CtLog};
use mtls_pki::GossipBundle;
use mtls_zeek::{Fp, IngestMode, IngestStats, Ipv4, ShardDiag, ERROR_KINDS};
use std::path::Path;

/// Errors from loading a log directory.
#[derive(Debug)]
pub enum IngestError {
    Io(std::io::Error),
    Tsv(mtls_zeek::TsvError),
    /// `meta.tsv` is missing a required key or has a malformed value.
    BadMeta(String),
    /// `ct.log` line (1-based) without three tab-separated fields.
    BadCt {
        line: usize,
    },
    /// The lenient loader skipped more than `--max-error-rate` allows.
    ErrorRate {
        rate: f64,
        max: f64,
    },
}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> IngestError {
        IngestError::Io(e)
    }
}

impl From<mtls_zeek::TsvError> for IngestError {
    fn from(e: mtls_zeek::TsvError) -> IngestError {
        IngestError::Tsv(e)
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "io error: {e}"),
            IngestError::Tsv(e) => write!(f, "log parse error: {e}"),
            IngestError::BadMeta(k) => write!(f, "meta.tsv: bad or missing key {k:?}"),
            IngestError::BadCt { line } => write!(
                f,
                "ct.log:{line}: expected domain, issuer and a 64-hex-digit fingerprint separated by tabs"
            ),
            IngestError::ErrorRate { rate, max } => write!(
                f,
                "ingest error rate {rate:.6} exceeds the configured maximum {max}"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// Accounting for the `meta.tsv` parse (today only malformed `cloud_nets`
/// entries are recoverable, so that is all this tracks).
#[derive(Debug, Clone, Default)]
struct MetaDiag {
    entries_skipped: u64,
    samples: Vec<String>,
    wall_micros: u64,
}

/// Structured diagnostics for one directory load: the Zeek-log shard
/// accounting from [`IngestStats`], the meta-entry and `ct.log` line skips,
/// the corpus builder's summary of the walk, and per-stage wall times.
/// Returned by [`load_dir`].
#[derive(Debug, Clone, Default)]
pub struct IngestDiagnostics {
    pub mode: IngestMode,
    /// Per-shard and corpus-wide Zeek-log accounting.
    pub stats: IngestStats,
    /// Malformed `cloud_nets` entries skipped (lenient mode only).
    pub meta_entries_skipped: u64,
    /// First few skipped `cloud_nets` entries, verbatim.
    pub meta_samples: Vec<String>,
    /// Malformed `ct.log` lines skipped (lenient mode only).
    pub ct_lines_skipped: u64,
    /// The month walk: epochs pushed and retired, retained-heap footprints.
    pub stream: StreamSummary,
    /// Wall time parsing `meta.tsv`.
    pub meta_micros: u64,
    /// Wall time parsing `ct.log`.
    pub ct_micros: u64,
    /// Wall time reading the Zeek logs (singletons or rotated shards).
    pub logs_micros: u64,
    /// Wall time for the whole load, end to end.
    pub total_micros: u64,
}

impl IngestDiagnostics {
    /// Skipped fraction of everything attempted: skipped rows, quarantined
    /// shards (one bad unit each), skipped meta entries and skipped
    /// `ct.log` lines, over those plus the rows that parsed. 0.0 for an
    /// empty load.
    pub fn error_rate(&self) -> f64 {
        let bad = self.stats.rows_skipped
            + self.stats.shards_quarantined
            + self.meta_entries_skipped
            + self.ct_lines_skipped;
        let attempted = self.stats.rows_parsed + bad;
        if attempted == 0 {
            0.0
        } else {
            bad as f64 / attempted as f64
        }
    }

    /// Enforce `--max-error-rate`: error if the observed rate *exceeds*
    /// `max` (so `max = 0.0` tolerates a clean corpus and nothing else).
    pub fn check_error_rate(&self, max: f64) -> Result<(), IngestError> {
        let rate = self.error_rate();
        if rate > max {
            Err(IngestError::ErrorRate { rate, max })
        } else {
            Ok(())
        }
    }

    /// Whether anything at all was skipped or quarantined.
    pub fn has_problems(&self) -> bool {
        self.stats.rows_skipped > 0
            || self.stats.shards_quarantined > 0
            || self.meta_entries_skipped > 0
            || self.ct_lines_skipped > 0
    }

    /// Plain-text rendering: a summary table always, plus a per-shard
    /// problem table and the sampled offending lines when anything was
    /// skipped. Clean shards are omitted from the problem table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = Table::new(
            &format!("Ingest diagnostics ({} mode)", self.mode.label()),
            &["metric", "value"],
        );
        t.row(vec!["shards read".into(), count(self.stats.shards.len())]);
        t.row(vec![
            "rows parsed".into(),
            count(self.stats.rows_parsed as usize),
        ]);
        t.row(vec![
            "rows skipped".into(),
            count(self.stats.rows_skipped as usize),
        ]);
        t.row(vec![
            "shards quarantined".into(),
            count(self.stats.shards_quarantined as usize),
        ]);
        t.row(vec![
            "meta entries skipped".into(),
            count(self.meta_entries_skipped as usize),
        ]);
        t.row(vec![
            "ct.log lines skipped".into(),
            count(self.ct_lines_skipped as usize),
        ]);
        t.row(vec![
            "bytes read".into(),
            count(self.stats.bytes_read as usize),
        ]);
        t.row(vec![
            "error rate".into(),
            format!("{:.6}", self.error_rate()),
        ]);
        t.row(vec![
            "wall (meta / ct / logs / total)".into(),
            format!(
                "{} / {} / {} / {}",
                fmt_micros(self.meta_micros),
                fmt_micros(self.ct_micros),
                fmt_micros(self.logs_micros),
                fmt_micros(self.total_micros)
            ),
        ]);
        out.push_str(&t.render());

        let problems: Vec<&ShardDiag> = self
            .stats
            .shards
            .iter()
            .filter(|d| d.rows_skipped() > 0 || d.quarantined.is_some())
            .collect();
        if !problems.is_empty() {
            let mut header: Vec<&str> = vec!["shard", "rows"];
            header.extend(ERROR_KINDS.iter().map(|k| k.label()));
            header.push("quarantined");
            let mut pt = Table::new("Ingest problems by shard", &header);
            for d in &problems {
                let mut row = vec![d.shard.clone(), count(d.rows_parsed as usize)];
                row.extend(d.skipped.iter().map(|n| count(*n as usize)));
                row.push(
                    d.quarantined
                        .as_ref()
                        .map(|q| q.kind.label().to_string())
                        .unwrap_or_else(|| "-".into()),
                );
                pt.row(row);
            }
            out.push('\n');
            out.push_str(&pt.render());
            for d in &problems {
                if let Some(q) = &d.quarantined {
                    out.push_str(&format!("  {}: quarantined: {}\n", d.shard, q.detail));
                }
                for s in &d.samples {
                    out.push_str(&format!(
                        "  {}:{} (byte {}): {}: {:?}\n",
                        d.shard, s.line, s.byte_offset, s.detail, s.snippet
                    ));
                }
            }
        }
        for entry in &self.meta_samples {
            out.push_str(&format!(
                "  meta.tsv: skipped malformed cloud_nets entry {entry:?}\n"
            ));
        }
        out
    }

    /// Just the per-stage wall-time block, for runs that want timings
    /// without the full diagnostics (strict mode with `--metrics`: the
    /// skip/quarantine tables are irrelevant — a strict load that finished
    /// is clean by construction — but the stage timings still matter).
    pub fn render_stage_times(&self) -> String {
        let mut t = Table::new("Ingest stage wall time", &["stage", "wall"]);
        t.row(vec!["meta.tsv".into(), fmt_micros(self.meta_micros)]);
        t.row(vec!["ct.log".into(), fmt_micros(self.ct_micros)]);
        t.row(vec![
            format!("zeek logs ({} shards)", self.stats.shards.len()),
            fmt_micros(self.logs_micros),
        ]);
        t.row(vec!["total".into(), fmt_micros(self.total_micros)]);
        t.render()
    }
}

/// Parse `addr/prefix` with a decimal prefix no wider than 32 bits. A
/// prefix above 32 used to slip through here and panic much later, deep in
/// the subnet mask arithmetic.
fn parse_net(entry: &str) -> Option<(Ipv4, u8)> {
    let (addr, prefix) = entry.split_once('/')?;
    let prefix: u8 = prefix.parse().ok().filter(|p| *p <= 32)?;
    Some((Ipv4::parse(addr)?, prefix))
}

fn parse_meta(
    path: &Path,
    mode: IngestMode,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Result<(MetaKnowledge, MetaDiag), IngestError> {
    let span = obs.span(parent, "meta");
    let text = std::fs::read_to_string(path)?;
    // One pass over the file into a key → value map (first occurrence
    // wins, matching the old first-match scan).
    let mut kv: mtls_intern::FxHashMap<&str, &str> = mtls_intern::FxHashMap::default();
    for line in text.lines() {
        if let Some((key, value)) = line.split_once('\t') {
            kv.entry(key).or_insert(value);
        }
    }
    let get = |key: &str| -> Result<String, IngestError> {
        kv.get(key)
            .map(|v| (*v).to_owned())
            .ok_or_else(|| IngestError::BadMeta(key.to_string()))
    };
    // Lists are '|'-separated: organization names legitimately contain
    // commas ("GoDaddy.com, Inc").
    let list = |v: String| -> Vec<String> {
        if v.is_empty() {
            Vec::new()
        } else {
            v.split('|').map(str::to_owned).collect()
        }
    };
    let net = get("university_net")?;
    let university_net =
        parse_net(&net).ok_or_else(|| IngestError::BadMeta("university_net".into()))?;
    // A malformed cloud_nets entry is a hard error in strict mode (it used
    // to be dropped silently, shifting classifications without a trace)
    // and a counted, sampled skip in lenient mode.
    let mut diag = MetaDiag::default();
    let mut cloud_nets = Vec::new();
    for entry in list(get("cloud_nets").unwrap_or_default()) {
        match parse_net(&entry) {
            Some(net) => cloud_nets.push(net),
            None if mode == IngestMode::Lenient => {
                diag.entries_skipped += 1;
                if diag.samples.len() < mtls_zeek::diag::MAX_SAMPLES {
                    diag.samples.push(entry);
                }
            }
            None => {
                return Err(IngestError::BadMeta(format!("cloud_nets entry {entry:?}")));
            }
        }
    }
    let meta = MetaKnowledge {
        university_net,
        cloud_nets,
        campus_issuer_orgs: list(get("campus_issuer_orgs")?),
        public_ca_orgs: list(get("public_ca_orgs")?),
        health_slds: list(get("health_slds")?),
        university_slds: list(get("university_slds")?),
        vpn_slds: list(get("vpn_slds")?),
        localorg_slds: list(get("localorg_slds")?),
        globus_slds: list(get("globus_slds")?),
        // The weight scales the non-mTLS counts in the weighted shares: a
        // non-finite or non-positive one turns them into NaN or negatives.
        non_mtls_weight: get("non_mtls_weight")?
            .parse()
            .ok()
            .filter(|w: &f64| w.is_finite() && *w > 0.0)
            .ok_or_else(|| IngestError::BadMeta("non_mtls_weight".into()))?,
        // Optional: only simulated corpora with a planted CT fork carry it.
        ct_forked_logs: list(get("ct_forked_logs").unwrap_or_default()),
    };
    diag.wall_micros = span.finish().as_micros() as u64;
    if obs.enabled() {
        obs.counter("ingest.meta_entries_skipped")
            .add(diag.entries_skipped);
        obs.gauge_set("ingest.cloud_nets", meta.cloud_nets.len() as i64);
    }
    Ok((meta, diag))
}

/// Parse `ct.log`: one (domain, issuer, fingerprint) triple per line,
/// tab-separated, the fingerprint exactly 64 lowercase hex digits. A line
/// without three such fields (a blank line included) is a hard error in
/// strict mode and a counted skip in lenient mode — a dropped CT entry
/// shifts the interception filter, so it is never silent.
fn parse_ct(path: &Path, mode: IngestMode) -> Result<(CtLog, u64), IngestError> {
    if !path.exists() {
        return Ok((CtLog::new(), 0)); // CT data is optional
    }
    let text = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    let mut skipped = 0;
    for (i, line) in text.lines().enumerate() {
        let mut cols = line.splitn(3, '\t');
        let (Some(domain), Some(issuer), Some(fingerprint)) =
            (cols.next(), cols.next(), cols.next().and_then(Fp::parse))
        else {
            if mode == IngestMode::Lenient {
                skipped += 1;
                continue;
            }
            return Err(IngestError::BadCt { line: i + 1 });
        };
        entries.push(CtEntry {
            domain: domain.to_string(),
            issuer_display: issuer.to_string(),
            fingerprint,
        });
    }
    Ok((CtLog::from_entries(entries), skipped))
}

/// Parse the optional `ct_gossip.log` (STHs, consistency and inclusion
/// proofs, log keys — see [`GossipBundle::to_tsv`]). Absent file → empty
/// bundle → the pipeline runs its legacy bare-issuer filter.
fn parse_gossip(path: &Path) -> Result<GossipBundle, IngestError> {
    if !path.exists() {
        return Ok(GossipBundle::default());
    }
    let text = std::fs::read_to_string(path)?;
    Ok(GossipBundle::from_tsv(&text))
}

/// Fold the finished load into run-level throughput metrics: rows/sec and
/// bytes/sec gauges derived from the logs stage wall time. (Gauges, not
/// counters — they are rates of this run, and two loads of the same corpus
/// legitimately differ here.)
fn record_throughput(obs: &Obs, diag: &IngestDiagnostics) {
    if !obs.enabled() || diag.logs_micros == 0 {
        return;
    }
    let per_sec = |n: u64| (n as f64 * 1_000_000.0 / diag.logs_micros as f64) as i64;
    obs.gauge_set("ingest.rows_per_sec", per_sec(diag.stats.rows_parsed));
    obs.gauge_set("ingest.bytes_per_sec", per_sec(diag.stats.bytes_read));
}

/// Walk `dir` into `builder`: a rotated directory one month at a time
/// ([`mtls_zeek::month_keys`] + [`mtls_zeek::read_month_obs`]), the flat
/// pair read whole and pushed as its months. With a `window`, months about
/// to fall out of it are retired *before* the next month is read, so the
/// peak live set is `window` months, never `window + 1`. The returned
/// stats are cumulative over every month, so the `--max-error-rate` guard
/// sees the whole walk, never a single month.
fn walk(
    dir: &Path,
    mode: IngestMode,
    window: Option<usize>,
    builder: &mut CorpusBuilder,
    obs: &Obs,
    logs_id: Option<SpanId>,
) -> Result<IngestStats, IngestError> {
    let keys = mtls_zeek::month_keys(dir)?;
    if keys.is_empty() {
        let (ssl, x509, stats) = mtls_zeek::read_dir_obs(dir, mode, obs, logs_id)?;
        builder.push_records(ssl, x509, window);
        return Ok(stats);
    }
    let mut stats = IngestStats {
        mode,
        ..IngestStats::default()
    };
    for key in keys {
        if let Some(window) = window {
            builder.retire_for_incoming(window);
        }
        let (ssl, x509, month_stats) = mtls_zeek::read_month_obs(dir, &key, mode, obs, logs_id)?;
        stats.absorb_stats(month_stats);
        builder.push_epoch(&key, ssl, x509);
    }
    Ok(stats)
}

/// Load a directory (either layout) into pipeline inputs plus
/// [`IngestDiagnostics`]. `window_months: None` loads every month; `Some(n)`
/// keeps only the newest `n`, so peak memory is bounded by the window, not
/// the corpus.
///
/// Observability: an `ingest` span under `parent` with `meta` / `ct` /
/// `logs` children, one `logs/<shard>` grandchild per log file and the
/// builder's `epoch_merge` child; batched row/byte counters, a shard
/// parse-latency histogram, the builder's `stream.*` gauges and derived
/// throughput gauges. Errors surface in the order meta → ct → logs. The
/// span durations fill the wall-time fields of the diagnostics, so they
/// keep their shape whether or not `obs` is enabled.
pub fn load_dir(
    dir: &Path,
    mode: IngestMode,
    window_months: Option<usize>,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Result<(AnalysisInputs, IngestDiagnostics), IngestError> {
    let ingest_span = obs.span(parent, "ingest");
    let ingest_id = ingest_span.id();
    let result = (|| {
        let (meta, meta_diag) = parse_meta(&dir.join("meta.tsv"), mode, obs, ingest_id)?;

        let span = obs.span(ingest_id, "ct");
        let (ct, ct_lines_skipped) = parse_ct(&dir.join("ct.log"), mode)?;
        let gossip = parse_gossip(&dir.join("ct_gossip.log"))?;
        let ct_micros = span.finish().as_micros() as u64;

        let span = obs.span(ingest_id, "logs");
        let mut builder = CorpusBuilder::new(meta).with_obs(obs, ingest_id);
        let mut stats = walk(dir, mode, window_months, &mut builder, obs, span.id())?;
        let logs_micros = span.finish().as_micros() as u64;
        stats.wall_micros = logs_micros;

        let parts = builder.finish();
        let summary = parts.summary.clone();
        let inputs = parts.into_inputs(ct, gossip);
        let diagnostics = IngestDiagnostics {
            mode,
            stats,
            meta_entries_skipped: meta_diag.entries_skipped,
            meta_samples: meta_diag.samples,
            ct_lines_skipped,
            stream: summary,
            meta_micros: meta_diag.wall_micros,
            ct_micros,
            logs_micros,
            total_micros: 0, // stamped below, once the ingest span closes
        };
        Ok((inputs, diagnostics))
    })();
    let total_micros = ingest_span.finish().as_micros() as u64;
    result.map(|(inputs, mut diag)| {
        diag.total_micros = total_micros;
        record_throughput(obs, &diag);
        (inputs, diag)
    })
}

/// [`load_dir`] with no window. Kept for the benchmark (`mtlsbench`),
/// which calls it by this name; the next change to the benchmark removes it.
pub fn load_dir_obs(
    dir: &Path,
    mode: IngestMode,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Result<(AnalysisInputs, IngestDiagnostics), IngestError> {
    load_dir(dir, mode, None, obs, parent)
}

/// [`load_dir`] with no window, unobserved. Kept for the benchmark
/// (`mtlsbench`), which calls it by this name; the next change to the
/// benchmark removes it.
pub fn load_dir_serial_with(
    dir: &Path,
    mode: IngestMode,
) -> Result<(AnalysisInputs, IngestDiagnostics), IngestError> {
    load_dir(dir, mode, None, &Obs::noop(), None)
}

/// The window argument of [`load_dir_streaming_obs`]. Kept for the
/// benchmark (`mtlsbench`); the next change to the benchmark removes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamOptions {
    pub window_months: Option<usize>,
}

/// [`load_dir`] with its result split the way the benchmark (`mtlsbench`)
/// reads it. Kept for the benchmark; the next change to the benchmark
/// removes it.
pub fn load_dir_streaming_obs(
    dir: &Path,
    mode: IngestMode,
    opts: StreamOptions,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Result<(StreamParts, CtLog, GossipBundle, IngestDiagnostics), IngestError> {
    let (inputs, diag) = load_dir(dir, mode, opts.window_months, obs, parent)?;
    let parts = StreamParts {
        ssl: inputs.ssl,
        x509: inputs.x509,
        meta: inputs.meta,
        summary: diag.stream.clone(),
    };
    Ok((parts, inputs.ct, inputs.gossip, diag))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE_META: &str = "university_net\t172.29.0.0/16\ncampus_issuer_orgs\tX\n\
                             public_ca_orgs\t\nhealth_slds\t\nuniversity_slds\t\nvpn_slds\t\n\
                             localorg_slds\t\nglobus_slds\t\nnon_mtls_weight\t10\n";

    /// The loader with no window, unobserved.
    fn load_dir_with(
        dir: &Path,
        mode: IngestMode,
    ) -> Result<(AnalysisInputs, IngestDiagnostics), IngestError> {
        load_dir(dir, mode, None, &Obs::noop(), None)
    }

    /// A strict load's inputs.
    fn load_strict(dir: &Path) -> Result<AnalysisInputs, IngestError> {
        load_dir_with(dir, IngestMode::Strict).map(|(inputs, _)| inputs)
    }

    fn write_empty_logs(dir: &Path) {
        let mut ssl = Vec::new();
        mtls_zeek::write_ssl_log(&mut ssl, &[]).unwrap();
        std::fs::write(dir.join("ssl.log"), ssl).unwrap();
        let mut x509 = Vec::new();
        mtls_zeek::write_x509_log(&mut x509, &[]).unwrap();
        std::fs::write(dir.join("x509.log"), x509).unwrap();
    }

    #[test]
    fn missing_meta_is_reported() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.tsv"), "university_net\t10.0.0.0/8\n").unwrap();
        let err = match load_strict(&dir) {
            Err(e) => e,
            Ok(_) => panic!("incomplete meta must be rejected"),
        };
        assert!(matches!(err, IngestError::BadMeta(_)), "{err}");

        // A non_mtls_weight that is not a finite positive number would turn
        // the weighted shares into NaN or negatives: rejected in both modes.
        write_empty_logs(&dir);
        for weight in ["NaN", "inf", "-inf", "0", "-0", "-3", "ten"] {
            let meta =
                BASE_META.replace("non_mtls_weight\t10", &format!("non_mtls_weight\t{weight}"));
            std::fs::write(dir.join("meta.tsv"), meta).unwrap();
            for mode in [IngestMode::Strict, IngestMode::Lenient] {
                match load_dir_with(&dir, mode) {
                    Err(IngestError::BadMeta(k)) => assert_eq!(k, "non_mtls_weight"),
                    Err(e) => panic!("weight {weight:?}: {e}"),
                    Ok(_) => panic!("weight {weight:?} must be rejected in {mode:?} mode"),
                }
            }
        }
        std::fs::write(dir.join("meta.tsv"), BASE_META.replace("\t10\n", "\t0.5\n")).unwrap();
        assert_eq!(load_strict(&dir).unwrap().meta.non_mtls_weight, 0.5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_logs_error_instead_of_panicking() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.tsv"), BASE_META).unwrap();
        // Garbage where a Zeek header should be, and raw bytes that are not
        // UTF-8 at all.
        std::fs::write(
            dir.join("ssl.log"),
            "#separator \\x09\nnot\ta\tvalid\trow\n",
        )
        .unwrap();
        std::fs::write(dir.join("x509.log"), [0xFFu8, 0xFE, 0x00, 0x80]).unwrap();
        assert!(load_strict(&dir).is_err());

        // A malformed university_net is a BadMeta, not a panic.
        std::fs::write(
            dir.join("meta.tsv"),
            BASE_META.replace("/16", "/notaprefix"),
        )
        .unwrap();
        assert!(matches!(load_strict(&dir), Err(IngestError::BadMeta(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ct_log_is_optional() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let meta = "university_net\t172.29.0.0/16\ncampus_issuer_orgs\tX\n\
                    public_ca_orgs\tGoDaddy.com, Inc|Entrust, Inc.\n\
                    health_slds\t\nuniversity_slds\t\nvpn_slds\t\nlocalorg_slds\t\nglobus_slds\t\n\
                    non_mtls_weight\t10\n";
        std::fs::write(dir.join("meta.tsv"), meta).unwrap();
        write_empty_logs(&dir);

        let inputs = load_strict(&dir).unwrap();
        assert!(inputs.ct.is_empty());
        assert!(inputs.ssl.is_empty());
        assert_eq!(inputs.meta.non_mtls_weight, 10.0);
        // Comma-bearing org names survive the list separator.
        assert_eq!(
            inputs.meta.public_ca_orgs,
            vec!["GoDaddy.com, Inc".to_string(), "Entrust, Inc.".to_string()]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_rejects_malformed_cloud_nets_lenient_counts_them() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Three malformed entries among two good ones: no prefix, a prefix
        // wider than 32 bits (used to parse, then panic in the subnet mask
        // shift), and a non-address. All were silently dropped before.
        let meta = format!(
            "{BASE_META}cloud_nets\t18.204.0.0/16|10.9.8.0|52.0.0.0/40|nonsense/8|35.80.0.0/12\n"
        );
        std::fs::write(dir.join("meta.tsv"), &meta).unwrap();
        write_empty_logs(&dir);

        let err = match load_dir_with(&dir, IngestMode::Strict) {
            Err(e) => e,
            Ok(_) => panic!("strict mode must reject malformed cloud_nets"),
        };
        assert!(
            matches!(&err, IngestError::BadMeta(k) if k.contains("cloud_nets")),
            "{err}"
        );

        let (inputs, diag) = load_dir_with(&dir, IngestMode::Lenient).unwrap();
        assert_eq!(
            inputs.meta.cloud_nets,
            vec![
                (Ipv4::new(18, 204, 0, 0), 16),
                (Ipv4::new(35, 80, 0, 0), 12)
            ]
        );
        assert_eq!(diag.meta_entries_skipped, 3);
        assert_eq!(
            diag.meta_samples,
            vec!["10.9.8.0", "52.0.0.0/40", "nonsense/8"]
        );
        assert!(diag.error_rate() > 0.0);
        assert!(diag.check_error_rate(0.0).is_err());
        assert!(diag.check_error_rate(1.0).is_ok());
        assert!(diag.render().contains("cloud_nets"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_rejects_malformed_ct_lines_lenient_counts_them() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest6-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.tsv"), BASE_META).unwrap();
        write_empty_logs(&dir);
        // Two good triples around a two-field line and a blank line (both
        // used to be dropped without a trace), then an uppercase
        // fingerprint.
        let (fp1, fp3) = (Fp::of(b"fp1"), Fp::of(b"fp3"));
        let upper = fp1.as_str().to_ascii_uppercase();
        std::fs::write(
            dir.join("ct.log"),
            format!(
                "a.example\tCA\t{fp1}\nb.example\tCA\n\nc.example\tCA\t{fp3}\nd.example\tCA\t{upper}\n"
            ),
        )
        .unwrap();

        let err = match load_dir_with(&dir, IngestMode::Strict) {
            Err(e) => e,
            Ok(_) => panic!("strict mode must reject a malformed ct.log line"),
        };
        assert!(matches!(err, IngestError::BadCt { line: 2 }), "{err}");
        assert!(err.to_string().contains("ct.log:2"), "{err}");

        let (inputs, diag) = load_dir_with(&dir, IngestMode::Lenient).unwrap();
        assert_eq!(inputs.ct.len(), 2);
        assert_eq!(diag.ct_lines_skipped, 3);
        assert!(diag.has_problems());
        // Three skipped units, nothing parsed: the whole load is bad.
        assert_eq!(diag.error_rate(), 1.0);
        assert!(diag.check_error_rate(0.5).is_err());
        assert!(diag.render().contains("ct.log lines skipped"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_rate_is_zero_when_empty() {
        // Empty diagnostics: 0.0, not NaN (0/0).
        let total = IngestDiagnostics::default();
        assert_eq!(total.error_rate(), 0.0);
        assert!(total.check_error_rate(0.0).is_ok());
    }

    #[test]
    fn streaming_load_guards_over_the_whole_stream_not_per_month() {
        use mtls_zeek::{SslRecord, TlsVersion};
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest7-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.tsv"), BASE_META).unwrap();
        let ssl_at = |ts: f64, uid: &str| SslRecord {
            ts,
            uid: uid.to_string(),
            orig_h: Ipv4::new(172, 29, 0, 1),
            orig_p: 1,
            resp_h: Ipv4::new(10, 0, 0, 2),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: None,
            established: true,
            cert_chain_fps: vec![],
            client_cert_chain_fps: vec![],
        };
        const MAY: f64 = 1_651_363_200.0;
        const JUN: f64 = 1_654_041_600.0;
        mtls_zeek::write_monthly(&dir, &[ssl_at(MAY, "a"), ssl_at(JUN, "b")], &[]).unwrap();
        // Corrupt only the *late* month: three malformed rows appended.
        let victim = dir.join("ssl.2022-06.log");
        let mut text = std::fs::read_to_string(&victim).unwrap();
        text.push_str("garbage\nmore\tgarbage\nworse\n");
        std::fs::write(&victim, text).unwrap();

        let (_inputs, diag) = load_dir_with(&dir, IngestMode::Lenient).unwrap();
        assert_eq!(diag.stream.epochs_pushed, 2);
        assert_eq!(diag.stats.rows_parsed, 2);
        assert_eq!(diag.stats.rows_skipped, 3);
        // Cumulative: 3 bad of 5 attempted across BOTH epochs — a
        // per-month guard would have seen 0.0 for May and waved the
        // stream through until the very last epoch.
        assert!((diag.error_rate() - 0.6).abs() < 1e-9);
        assert!(diag.check_error_rate(0.5).is_err());
        assert!(diag.check_error_rate(0.6).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_quarantines_unreadable_singletons() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.tsv"), BASE_META).unwrap();
        let mut ssl = Vec::new();
        mtls_zeek::write_ssl_log(&mut ssl, &[]).unwrap();
        std::fs::write(dir.join("ssl.log"), ssl).unwrap();
        // x509.log has a header that belongs to no known schema.
        std::fs::write(dir.join("x509.log"), "#fields\tnope\nnope\n").unwrap();

        assert!(matches!(
            load_dir_with(&dir, IngestMode::Strict),
            Err(IngestError::Tsv(mtls_zeek::TsvError::BadHeader))
        ));
        let (inputs, diag) = load_dir_with(&dir, IngestMode::Lenient).unwrap();
        assert!(inputs.x509.is_empty());
        assert_eq!(diag.stats.shards_quarantined, 1);
        let bad = diag
            .stats
            .shards
            .iter()
            .find(|d| d.quarantined.is_some())
            .unwrap();
        assert_eq!(bad.shard, "x509.log");
        assert!(diag.render().contains("quarantined"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
