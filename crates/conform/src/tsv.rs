//! TSV-shard mutation campaign: the Zeek-log readers through the same
//! discipline as the DER parsers.
//!
//! The SWAR rewrite of `mtls_zeek::tsv` made the log scanners the fastest
//! — and therefore the least-read — code in the ingest path, so this
//! module drives them with mutated shard bytes and six oracles:
//!
//! 1. **No-panic**: `read_ssl_log` / `read_x509_log` must return `Ok` or
//!    `Err` on arbitrary mutants, never panic, in both ingest modes.
//! 2. **Determinism**: parsing the same mutant twice yields the same
//!    result.
//! 3. **Strict⊆lenient**: if strict mode accepts a shard, lenient mode
//!    must accept it with the identical records (lenient only ever skips
//!    rows strict would reject).
//! 4. **SWAR≡scalar**: the u64-at-a-time delimiter scanners agree with
//!    their byte-at-a-time twins on the mutant bytes — the exact buffers
//!    the readers just scanned.
//! 5. **Classifier no-panic**: every string field of every `x509.log` row
//!    strict mode accepts goes through `mtls_classify::classify`,
//!    `extract_domain` and `is_domain_name` without a panic, so the
//!    byte-offset domain scan sees arbitrary UTF-8 from the mutator. It
//!    also checks `is_domain_name == extract_domain(..).is_some()`, which
//!    holds by construction while both are built on `domain::split`; the
//!    differential test of that scan is the label-vector twin inside
//!    `mtls-classify`, not this oracle.
//! 6. **Reused row≡fresh records**: on every mutant, parsing through
//!    [`X509Rows`] into one record refilled row after row (the served
//!    shard verdict's path) gives the records `read_x509_log` builds, or
//!    the same first error — a field that kept bytes, list entries or a
//!    `Some` from the row before would show here.
//!
//! The golden shards are also checked with each of four malformed
//! fingerprints spliced into one row: a non-hex digit, 63 digits,
//! uppercase, and unset (`-`). Strict mode must reject the shard with a
//! `BadField` naming the fingerprint column, and lenient mode must skip
//! exactly that row and count it under `bad_field`.

use crate::mutate::Rng64;
use mtls_classify::domain::is_domain_name;
use mtls_classify::{classify, extract_domain, ClassifyContext};
use mtls_zeek::swar;
use mtls_zeek::{
    read_ssl_log_with, read_x509_log_with, write_ssl_log, write_x509_log, ErrorKind, Fp,
    IngestMode, Ipv4, ShardDiag, SslRecord, TlsVersion, TsvError, X509Record, X509Rows,
};

/// Outcome counts of one TSV campaign.
#[derive(Debug, Clone, Default)]
pub struct TsvSummary {
    pub seed: u64,
    pub mutants: u64,
    /// (reader, mode) evaluations run.
    pub evaluations: u64,
    /// Mutants at least one reader accepted.
    pub accepted: u64,
    /// Panics caught (bug).
    pub panics: u64,
    /// Divergences per comparing oracle (bug).
    pub divergences: TsvDivergences,
}

/// Divergence counts of oracles 2–6, plus golden shards misjudged (a
/// clean one rejected, or one with a malformed fingerprint not rejected
/// as the field error it is).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsvDivergences {
    pub determinism: u64,
    pub strict_lenient: u64,
    pub swar_scalar: u64,
    pub classifier: u64,
    pub reused_row: u64,
    pub golden: u64,
}

impl TsvDivergences {
    /// Each count under its report name.
    pub fn rows(&self) -> [(&'static str, u64); 6] {
        [
            ("determinism", self.determinism),
            ("strict_lenient", self.strict_lenient),
            ("swar_scalar", self.swar_scalar),
            ("classifier", self.classifier),
            ("reused_row", self.reused_row),
            ("golden", self.golden),
        ]
    }

    /// All divergences.
    pub fn total(&self) -> u64 {
        self.rows().iter().map(|(_, n)| n).sum()
    }
}

impl TsvSummary {
    /// Whether the campaign found a parser bug.
    pub fn has_bugs(&self) -> bool {
        self.panics > 0 || self.divergences.total() > 0
    }

    /// The campaign's rows for the conformance report: `tsv.`-prefixed
    /// `key<TAB>value` lines, one per count and one per oracle's
    /// divergences (any nonzero one fails the `conform` binary).
    pub fn to_tsv(&self) -> String {
        let mut out = format!(
            "tsv.mutants\t{}\ntsv.evaluations\t{}\ntsv.accepted\t{}\ntsv.panics\t{}\n",
            self.mutants, self.evaluations, self.accepted, self.panics
        );
        for (oracle, n) in self.divergences.rows() {
            out.push_str(&format!("tsv.divergences.{oracle}\t{n}\n"));
        }
        out
    }
}

/// Seed shards: a small valid ssl.log and x509.log, written by the real
/// writers so headers, escapes, and vector fields are authentic.
fn golden_shards() -> Vec<Vec<u8>> {
    let ssl = [
        SslRecord {
            ts: 1_651_363_200.5,
            uid: "Cconform1".into(),
            orig_h: Ipv4::new(172, 29, 1, 10),
            orig_p: 40_000,
            resp_h: Ipv4::new(98, 100, 7, 7),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: Some("api.with\ttab.example".into()),
            established: true,
            cert_chain_fps: vec![Fp::of(b"aa11"), Fp::of(b"bb22")],
            client_cert_chain_fps: vec![Fp::of(b"cc33")],
        },
        SslRecord {
            ts: 1_651_363_201.0,
            uid: "Cconform2".into(),
            orig_h: Ipv4::new(172, 29, 1, 11),
            orig_p: 40_001,
            resp_h: Ipv4::new(98, 100, 7, 8),
            resp_p: 8443,
            version: TlsVersion::Tls13,
            server_name: None,
            established: false,
            cert_chain_fps: vec![],
            client_cert_chain_fps: vec![],
        },
    ];
    // Rows of different shapes back to back — SAN lists shrinking and
    // growing, optional fields toggling — so the reused-row oracle sees a
    // record refilled across shapes, not only a row parsed once.
    let first = X509Record {
        ts: 1_651_363_200.5,
        fingerprint: Fp::of(b"aa11"),
        version: 3,
        serial: "03E8".into(),
        subject: "CN=backslash\\and,comma".into(),
        issuer: "O=Conform CA".into(),
        issuer_org: Some("Conform CA".into()),
        subject_cn: Some("backslash\\and,comma".into()),
        not_valid_before: 1_600_000_000,
        not_valid_after: 1_700_000_000,
        key_alg: "rsa".into(),
        key_length: 2048,
        sig_alg: "sha256WithRSAEncryption".into(),
        san_dns: vec!["a.example".into(), "b.example".into()],
        san_email: vec![],
        san_uri: vec![],
        san_ip: vec![],
        basic_constraints_ca: false,
    };
    let bare = X509Record {
        fingerprint: Fp::of(b"dd44"),
        subject: "CN=x".into(),
        issuer_org: None,
        subject_cn: None,
        san_dns: vec![],
        ..first.clone()
    };
    let wide = X509Record {
        fingerprint: Fp::of(b"ee55"),
        subject: "CN=wide, O=Escaped\tOrg".into(),
        issuer_org: Some("Wide, Inc.".into()),
        subject_cn: Some("wide.example".into()),
        san_dns: vec!["c.example".into(), "d,e.example".into(), "f.example".into()],
        san_email: vec!["ops@example.org".into()],
        basic_constraints_ca: true,
        ..first.clone()
    };
    let x509 = [first, bare, wide];
    let mut ssl_buf = Vec::new();
    write_ssl_log(&mut ssl_buf, ssl.iter()).expect("write to vec");
    let mut x509_buf = Vec::new();
    write_x509_log(&mut x509_buf, x509.iter()).expect("write to vec");
    vec![ssl_buf, x509_buf]
}

/// The four malformed fingerprints: a non-hex digit, 63 digits,
/// uppercase, and unset.
fn bad_fingerprints() -> [String; 4] {
    let good = Fp::of(b"aa11").to_string();
    [
        format!("{}g", &good[1..]),
        good[1..].to_string(),
        good.to_ascii_uppercase(),
        "-".to_string(),
    ]
}

/// The golden shard with `bad` spliced into the fingerprint column of its
/// first data row, and that column's name. In `ssl.log` the bad value is
/// the second entry of the server chain, since a whole chain column of
/// `-` is an unset vector (no certificates), not a bad fingerprint.
fn with_bad_fingerprint(shard: &[u8], x509: bool, bad: &str) -> (Vec<u8>, &'static str) {
    let (column, field) = if x509 {
        (1, "fingerprint")
    } else {
        (9, "cert_chain_fps")
    };
    let text = std::str::from_utf8(shard).expect("golden shards are UTF-8");
    let mut done = false;
    let mut out = String::with_capacity(text.len() + 64);
    for line in text.lines() {
        if !done && !line.starts_with('#') {
            let mut cols: Vec<String> = line.split('\t').map(str::to_string).collect();
            cols[column] = if x509 {
                bad.to_string()
            } else {
                format!("{},{bad}", cols[column])
            };
            out.push_str(&cols.join("\t"));
            done = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    (out.into_bytes(), field)
}

/// Whether `bytes` (a golden shard with one malformed fingerprint in
/// `field`) fails strict mode with a `BadField` naming `field`, and reads
/// in lenient mode as the golden rows minus one, skipped as `bad_field`.
fn bad_fingerprint_judged(golden: &[u8], bytes: &[u8], x509: bool, field: &str) -> bool {
    let strict_names_field =
        |e: TsvError| matches!(e, TsvError::BadField { field: f, .. } if f == field);
    let mut diag = ShardDiag::default();
    let (strict, rows, golden_rows) = if x509 {
        let strict = read_x509_log_with(bytes, IngestMode::Strict, &mut ShardDiag::default());
        let lenient = read_x509_log_with(bytes, IngestMode::Lenient, &mut diag);
        let golden = x509_parse(golden, IngestMode::Strict);
        (
            strict.err(),
            lenient.map(|r| r.len()),
            golden.map(|g| g.map(|r| r.len())),
        )
    } else {
        let strict = read_ssl_log_with(bytes, IngestMode::Strict, &mut ShardDiag::default());
        let lenient = read_ssl_log_with(bytes, IngestMode::Lenient, &mut diag);
        let golden = ssl_parse(golden, IngestMode::Strict);
        (
            strict.err(),
            lenient.map(|r| r.len()),
            golden.map(|g| g.map(|r| r.len())),
        )
    };
    strict.is_some_and(strict_names_field)
        && matches!((rows, golden_rows), (Ok(n), Ok(Ok(g))) if n + 1 == g)
        && diag.rows_skipped() == 1
        && diag.skipped_of(ErrorKind::BadField) == 1
}

/// One byte-level shard mutation (the DER mutator is structure-aware; TSV
/// corruption is byte soup: flips, truncation, tab/newline splices, line
/// duplication).
fn mutate_shard(input: &[u8], rng: &mut Rng64) -> Vec<u8> {
    let mut out = input.to_vec();
    match rng.below(6) {
        // Bit flip.
        0 if !out.is_empty() => {
            let i = rng.below(out.len());
            out[i] ^= 1 << rng.below(8);
        }
        // Truncate.
        1 if !out.is_empty() => out.truncate(rng.below(out.len())),
        // Insert a delimiter or escape byte.
        2 => {
            let b = [b'\t', b'\n', b'\r', b',', b'\\', b'x', 0x00, 0xFF][rng.below(8)];
            let at = rng.below(out.len() + 1);
            out.insert(at, b);
        }
        // Duplicate a line.
        3 => {
            let lines: Vec<&[u8]> = out.split(|&b| b == b'\n').collect();
            if !lines.is_empty() {
                let dup = lines[rng.below(lines.len())].to_vec();
                out.extend_from_slice(&dup);
                out.push(b'\n');
            }
        }
        // Delete a span.
        4 if out.len() > 2 => {
            let start = rng.below(out.len() - 1);
            let end = (start + 1 + rng.below(16)).min(out.len());
            out.drain(start..end);
        }
        // Overwrite a span with random bytes.
        _ => {
            for _ in 0..rng.below(8) + 1 {
                if out.is_empty() {
                    break;
                }
                let i = rng.below(out.len());
                out[i] = rng.next_u64() as u8;
            }
        }
    }
    out
}

type ParseResult<T> = Result<Result<Vec<T>, String>, ()>;

/// Run one reader, catching panics; errors collapse to their display
/// string so determinism can compare them.
fn catch<T, F>(f: F) -> ParseResult<T>
where
    F: FnOnce() -> Result<Vec<T>, mtls_zeek::TsvError> + std::panic::UnwindSafe,
{
    std::panic::catch_unwind(f)
        .map(|r| r.map_err(|e| e.to_string()))
        .map_err(|_| ())
}

fn ssl_parse(bytes: &[u8], mode: IngestMode) -> ParseResult<SslRecord> {
    catch(move || read_ssl_log_with(bytes, mode, &mut ShardDiag::default()))
}

fn x509_parse(bytes: &[u8], mode: IngestMode) -> ParseResult<X509Record> {
    catch(move || read_x509_log_with(bytes, mode, &mut ShardDiag::default()))
}

/// SWAR≡scalar oracle over the raw mutant bytes.
fn swar_agrees(bytes: &[u8]) -> bool {
    let needles = [b'\t', b'\n', b'\r', b',', b'\\'];
    if swar::count_byte(bytes, b'\n') != swar::scalar::count_byte(bytes, b'\n')
        || swar::contains_any5(bytes, needles) != swar::scalar::contains_any5(bytes, needles)
        || swar::contains_seq2(bytes, b'\\', b'x')
            != swar::scalar::contains_seq2(bytes, b'\\', b'x')
    {
        return false;
    }
    let ours: Vec<&[u8]> = swar::split_byte(bytes, b'\t').collect();
    let std: Vec<&[u8]> = bytes.split(|&b| b == b'\t').collect();
    ours == std
}

/// Classifier oracle over the rows strict mode accepted: no panic on any
/// string field (and the domain predicate still agrees with the
/// extractor, their shared contract).
fn classifier_agrees(records: &[X509Record]) -> bool {
    std::panic::catch_unwind(|| {
        records.iter().all(|rec| {
            let fields: [&str; 6] = [
                rec.fingerprint.as_str(),
                &rec.serial,
                &rec.subject,
                &rec.issuer,
                &rec.key_alg,
                &rec.sig_alg,
            ];
            let ctx = ClassifyContext {
                issuer_org: rec.issuer_org.as_deref(),
                issuer_is_campus: true,
            };
            let lists = [&rec.san_dns, &rec.san_email, &rec.san_uri, &rec.san_ip];
            fields
                .into_iter()
                .chain(rec.issuer_org.as_deref())
                .chain(rec.subject_cn.as_deref())
                .chain(lists.into_iter().flatten().map(String::as_str))
                .all(|s| {
                    let _ = classify(s, ctx);
                    is_domain_name(s) == extract_domain(s).is_some()
                })
        })
    })
    .unwrap_or(false)
}

/// Evaluate one shard (possibly mutated) against the reader oracles;
/// returns the records strict mode accepted, if it did.
fn run_shard<T: PartialEq>(
    bytes: &[u8],
    parse: impl Fn(&[u8], IngestMode) -> ParseResult<T>,
    summary: &mut TsvSummary,
) -> Option<Vec<T>> {
    let mut any_ok = false;
    let mut results = Vec::new();
    for mode in [IngestMode::Strict, IngestMode::Lenient] {
        summary.evaluations += 1;
        let first = parse(bytes, mode);
        match &first {
            Err(()) => summary.panics += 1,
            Ok(Ok(_)) => any_ok = true,
            Ok(Err(_)) => {}
        }
        // Determinism: same bytes, same mode, same answer.
        if parse(bytes, mode) != first {
            summary.divergences.determinism += 1;
        }
        results.push(first);
    }
    // Strict⊆lenient: whatever strict accepts, lenient must accept
    // identically.
    if let (Ok(Ok(strict)), Ok(lenient)) = (&results[0], &results[1]) {
        match lenient {
            Ok(recs) if recs == strict => {}
            _ => summary.divergences.strict_lenient += 1,
        }
    }
    if !swar_agrees(bytes) {
        summary.divergences.swar_scalar += 1;
    }
    if any_ok {
        summary.accepted += 1;
    }
    results.swap_remove(0).ok()?.ok()
}

/// [`run_shard`] for an `x509.log` shard, plus the classifier oracle on
/// what strict mode accepted.
fn run_x509_shard(bytes: &[u8], summary: &mut TsvSummary) {
    if let Some(records) = run_shard(bytes, x509_parse, summary) {
        if !classifier_agrees(&records) {
            summary.divergences.classifier += 1;
        }
    }
}

/// Reused-row oracle: the bytes parsed as an `x509.log` through one
/// record refilled by [`X509Rows::next_into`] give what strict
/// `read_x509_log` gives — the same records, or the same first error.
fn reused_row_agrees(bytes: &[u8]) -> bool {
    let reused = catch(move || {
        let mut rows = X509Rows::new(bytes)?;
        let mut row = X509Record::default();
        let mut records = Vec::with_capacity(rows.len());
        while let Some(parsed) = rows.next_into(&mut row) {
            parsed?;
            records.push(row.clone());
        }
        Ok(records)
    });
    reused == x509_parse(bytes, IngestMode::Strict)
}

/// Run one shard through the oracles of its kind, then the reused-row
/// oracle.
fn run_any_shard(bytes: &[u8], x509: bool, summary: &mut TsvSummary) {
    if x509 {
        run_x509_shard(bytes, summary);
    } else {
        run_shard(bytes, ssl_parse, summary);
    }
    if !reused_row_agrees(bytes) {
        summary.divergences.reused_row += 1;
    }
}

/// Run the TSV campaign: golden shards first (must be accepted), then
/// `mutants` mutated shards round-robin. Deterministic for a given
/// `(seed, mutants)`.
pub fn run_tsv_campaign(seed: u64, mutants: u64) -> TsvSummary {
    let shards = golden_shards();
    let mut summary = TsvSummary {
        seed,
        mutants,
        ..TsvSummary::default()
    };
    let mut rng = Rng64::new(seed);
    // Golden shards must parse cleanly in both modes, and be rejected as
    // a field error with any malformed fingerprint in them.
    for (i, shard) in shards.iter().enumerate() {
        let before = summary.divergences.total();
        run_any_shard(shard, i == 1, &mut summary);
        if summary.accepted != i as u64 + 1 || summary.divergences.total() != before {
            summary.divergences.golden += 1;
        }
        for bad in bad_fingerprints() {
            let (bytes, field) = with_bad_fingerprint(shard, i == 1, &bad);
            if !bad_fingerprint_judged(shard, &bytes, i == 1, field) {
                summary.divergences.golden += 1;
            }
        }
    }
    summary.accepted = 0; // golden acceptance checked above; count mutants only
    for n in 0..mutants {
        let which = (n % shards.len() as u64) as usize;
        let mutant = mutate_shard(&shards[which], &mut rng);
        run_any_shard(&mutant, which == 1, &mut summary);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_shards_parse_in_both_modes() {
        let s = run_tsv_campaign(7, 0);
        assert_eq!(s.evaluations, 4); // 2 shards x 2 modes
        assert!(!s.has_bugs(), "{s:?}");
    }

    #[test]
    fn malformed_fingerprints_are_judged_in_both_logs() {
        let golden = golden_shards();
        for (i, shard) in golden.iter().enumerate() {
            for bad in bad_fingerprints() {
                let (bytes, field) = with_bad_fingerprint(shard, i == 1, &bad);
                assert!(
                    bad_fingerprint_judged(shard, &bytes, i == 1, field),
                    "{bad:?} in {field}"
                );
                // The oracle itself is not vacuous: the clean shard fails it.
                assert!(!bad_fingerprint_judged(shard, shard, i == 1, field));
            }
        }
    }

    #[test]
    fn campaign_is_deterministic_and_clean() {
        let a = run_tsv_campaign(42, 300);
        let b = run_tsv_campaign(42, 300);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.accepted, b.accepted);
        assert!(!a.has_bugs(), "{a:?}");
        assert!(a.evaluations >= 600);
    }

    #[test]
    fn classifier_oracle_accepts_the_golden_rows() {
        let x509 = &golden_shards()[1];
        let records = x509_parse(x509, IngestMode::Strict).unwrap().unwrap();
        assert!(!records.is_empty());
        assert!(classifier_agrees(&records));
    }

    #[test]
    fn reused_row_oracle_runs_on_every_shard() {
        let golden = golden_shards();
        assert!(reused_row_agrees(&golden[1]));
        // On the ssl.log shard both sides reject the header alike.
        assert!(reused_row_agrees(&golden[0]));
        let mut rng = Rng64::new(3);
        for _ in 0..200 {
            assert!(reused_row_agrees(&mutate_shard(&golden[1], &mut rng)));
        }
        let s = run_tsv_campaign(5, 40);
        let rows = s.to_tsv();
        for (oracle, _) in s.divergences.rows() {
            assert!(
                rows.contains(&format!("tsv.divergences.{oracle}\t0\n")),
                "{rows}"
            );
        }
        assert!(rows.starts_with("tsv.mutants\t40\n"), "{rows}");
    }

    #[test]
    fn mutants_exercise_the_accept_path_sometimes() {
        // Byte soup should still leave some shards parseable (lenient mode
        // skips bad rows), otherwise the campaign only tests rejection.
        let s = run_tsv_campaign(1, 500);
        assert!(s.accepted > 0, "{s:?}");
    }
}
