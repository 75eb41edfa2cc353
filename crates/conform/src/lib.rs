//! ParsEval-style DER/X.509 conformance harness.
//!
//! Real mutual-TLS traffic is full of certificates that no conforming
//! encoder would produce — the paper's corpus is measured *because* the
//! monitor must survive them. This crate turns that requirement into a
//! testable property:
//!
//! * [`mutate`](mod@mutate) — a deterministic, structure-aware DER mutation engine
//!   (seeded xorshift; truncation, length corruption, tag swaps, TLV
//!   duplication/deletion, high-tag-number and indefinite-length
//!   injection, string-encoding swaps, time-string edits).
//! * [`oracle`] — every public parse entry point in `mtls-asn1`,
//!   `mtls-x509`, and `mtls-pki` behind three differential oracles:
//!   no-panic, round-trip (byte-identical or value-equal canonical), and
//!   determinism (parse-twice plus strict-vs-lenient agreement).
//! * [`corpus`] — golden seeds minted through the simulator's own
//!   `certgen`/`pki` paths.
//! * [`run_campaign`] — the bounded-time campaign the `conform` binary
//!   exposes to CI (its exit status is the gate).
//!
//! The repository policy this enforces: **parse paths never panic** on
//! attacker-controlled bytes; they reject. Every bug the harness has
//! surfaced is pinned by a regression fixture in `tests/regressions.rs`.

pub mod corpus;
pub mod mutate;
pub mod oracle;
pub mod report;
pub mod tsv;

pub use mutate::{mutate, scan_tlvs, Rng64, TlvNode, MUTATION_KINDS};
pub use oracle::{run_case, EntryPoint, Outcome, ENTRY_POINTS};
pub use report::{EntryTally, Finding, Report};
pub use tsv::{run_tsv_campaign, TsvDivergences, TsvSummary};

/// Run a full campaign: every golden seed through every oracle once, then
/// `mutants` seeded mutants (round-robin over the corpus) through every
/// oracle. Deterministic for a given `(seed, mutants)`.
pub fn run_campaign(seed: u64, mutants: u64) -> Report {
    let seeds = corpus::golden_seeds();
    let mut rng = Rng64::new(seed);
    let mut report = Report::new(seed, mutants);
    for (name, bytes) in &seeds {
        for (entry, outcome) in oracle::run_case(bytes) {
            report.record(entry, "golden", name, bytes, &outcome);
        }
    }
    for _ in 0..mutants {
        let (name, bytes) = &seeds[rng.below(seeds.len())];
        let (mutant, kind) = mutate::mutate(bytes, &mut rng);
        for (entry, outcome) in oracle::run_case(&mutant) {
            report.record(entry, kind, name, &mutant, &outcome);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(3, 40);
        let b = run_campaign(3, 40);
        assert_eq!(a.to_tsv(), b.to_tsv());
    }

    #[test]
    fn small_campaign_finds_no_bugs() {
        let report = run_campaign(1, 150);
        assert_eq!(report.panics(), 0, "{}", report.to_tsv());
        assert_eq!(report.divergences(), 0, "{}", report.to_tsv());
        // Mutants must actually reach the parsers: most are rejected, but
        // some survive (truncating trailing bytes of a SAN, flipping a
        // boolean...) and the goldens themselves are all accepted.
        assert!(report.accepted() > 0);
        assert!(report.rejected() > 0);
    }
}
