//! Campaign accounting and the TSV divergence report CI archives.

use std::collections::BTreeMap;

use crate::oracle::Outcome;

/// Per-entry-point outcome tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryTally {
    pub rejected: u64,
    pub identical: u64,
    pub canonicalized: u64,
    pub panics: u64,
    pub divergences: u64,
}

impl EntryTally {
    fn bump(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Rejected => self.rejected += 1,
            Outcome::Identical => self.identical += 1,
            Outcome::Canonicalized => self.canonicalized += 1,
            Outcome::Panic(_) => self.panics += 1,
            Outcome::Divergence(_) => self.divergences += 1,
        }
    }
}

/// One recorded bug: which entry point, under which mutation, on a mutant
/// of which golden seed, with the offending input (hex, truncated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub entry: &'static str,
    pub mutation: &'static str,
    pub seed_name: String,
    pub detail: String,
    pub input_hex: String,
}

/// Everything a campaign run produces.
#[derive(Debug, Clone)]
pub struct Report {
    pub seed: u64,
    pub mutants: u64,
    pub per_entry: BTreeMap<&'static str, EntryTally>,
    pub findings: Vec<Finding>,
}

/// Cap on recorded findings; tallies keep counting past it.
const MAX_FINDINGS: usize = 32;
/// Cap on the hex dump of a finding's input.
const MAX_HEX_BYTES: usize = 256;

impl Report {
    pub fn new(seed: u64, mutants: u64) -> Report {
        Report {
            seed,
            mutants,
            per_entry: BTreeMap::new(),
            findings: Vec::new(),
        }
    }

    /// Record one `(entry, input, outcome)` evaluation.
    pub fn record(
        &mut self,
        entry: &'static str,
        mutation: &'static str,
        seed_name: &str,
        input: &[u8],
        outcome: &Outcome,
    ) {
        self.per_entry.entry(entry).or_default().bump(outcome);
        let detail = match outcome {
            Outcome::Panic(msg) => format!("panic: {msg}"),
            Outcome::Divergence(msg) => format!("divergence: {msg}"),
            _ => return,
        };
        if self.findings.len() < MAX_FINDINGS {
            let head = &input[..input.len().min(MAX_HEX_BYTES)];
            self.findings.push(Finding {
                entry,
                mutation,
                seed_name: seed_name.to_string(),
                detail,
                input_hex: mtls_crypto::hex::encode(head),
            });
        }
    }

    pub fn evaluations(&self) -> u64 {
        self.per_entry
            .values()
            .map(|t| t.rejected + t.identical + t.canonicalized + t.panics + t.divergences)
            .sum()
    }

    pub fn identical(&self) -> u64 {
        self.per_entry.values().map(|t| t.identical).sum()
    }

    pub fn canonicalized(&self) -> u64 {
        self.per_entry.values().map(|t| t.canonicalized).sum()
    }

    pub fn accepted(&self) -> u64 {
        self.identical() + self.canonicalized()
    }

    pub fn rejected(&self) -> u64 {
        self.per_entry.values().map(|t| t.rejected).sum()
    }

    pub fn panics(&self) -> u64 {
        self.per_entry.values().map(|t| t.panics).sum()
    }

    pub fn divergences(&self) -> u64 {
        self.per_entry.values().map(|t| t.divergences).sum()
    }

    /// Any panic or divergence anywhere.
    pub fn has_bugs(&self) -> bool {
        self.panics() + self.divergences() > 0
    }

    /// The machine-readable report the `conform` binary writes.
    /// Line-oriented TSV: a `schema` line, `key<TAB>value` summary rows,
    /// one `entry` row per entry point, one `finding` row per recorded bug.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str("schema\tmtls-conform-1\n");
        out.push_str(&format!("seed\t{}\n", self.seed));
        out.push_str(&format!("mutants\t{}\n", self.mutants));
        out.push_str(&format!("entry_points\t{}\n", self.per_entry.len()));
        out.push_str(&format!("evaluations\t{}\n", self.evaluations()));
        out.push_str(&format!("accepted\t{}\n", self.accepted()));
        out.push_str(&format!("identical\t{}\n", self.identical()));
        out.push_str(&format!("canonicalized\t{}\n", self.canonicalized()));
        out.push_str(&format!("rejected\t{}\n", self.rejected()));
        out.push_str(&format!("panics\t{}\n", self.panics()));
        out.push_str(&format!("divergences\t{}\n", self.divergences()));
        for (name, t) in &self.per_entry {
            out.push_str(&format!(
                "entry\t{name}\t{}\t{}\t{}\t{}\t{}\n",
                t.rejected, t.identical, t.canonicalized, t.panics, t.divergences
            ));
        }
        for f in &self.findings {
            out.push_str(&format!(
                "finding\t{}\t{}\t{}\t{}\t{}\n",
                f.entry,
                f.mutation,
                f.seed_name,
                f.detail.replace(['\t', '\n'], " "),
                f.input_hex
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_and_tsv_track_outcomes() {
        let mut r = Report::new(7, 100);
        r.record(
            "asn1/boolean",
            "golden",
            "prim_boolean",
            &[1, 2],
            &Outcome::Identical,
        );
        r.record(
            "asn1/boolean",
            "truncate",
            "prim_boolean",
            &[1],
            &Outcome::Rejected,
        );
        r.record(
            "x509/certificate",
            "tag_swap",
            "cert_v1",
            &[0x30, 0x00],
            &Outcome::Panic("boom".to_string()),
        );
        assert_eq!(r.evaluations(), 3);
        assert_eq!(r.accepted(), 1);
        assert_eq!(r.panics(), 1);
        assert!(r.has_bugs());
        assert_eq!(r.findings.len(), 1);
        let tsv = r.to_tsv();
        assert!(tsv.starts_with("schema\tmtls-conform-1\n"));
        assert!(tsv.contains("panics\t1\n"));
        assert!(tsv.contains("entry\tasn1/boolean\t1\t1\t0\t0\t0\n"));
        assert!(tsv.contains("finding\tx509/certificate\ttag_swap\tcert_v1\tpanic: boom\t3000\n"));
    }

    #[test]
    fn findings_are_capped_but_counts_continue() {
        let mut r = Report::new(1, 1);
        for _ in 0..100 {
            r.record(
                "asn1/null",
                "bit_flip",
                "prim_null",
                &[5, 0],
                &Outcome::Divergence("x".to_string()),
            );
        }
        assert_eq!(r.findings.len(), 32);
        assert_eq!(r.divergences(), 100);
    }
}
