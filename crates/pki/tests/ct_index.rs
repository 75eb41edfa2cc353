//! Differential test of the CT lookup index against a brute-force scan.
//!
//! Random entry lists mix case, exact names, single-label wildcards
//! (`*.x.y`), effective-TLD wildcards (`*.com`) and partial-label
//! wildcards (`w*.x.y`), and resubmit `(domain, fingerprint)` pairs under
//! other casings. The log must keep exactly the first submission of each
//! `(lowercased domain, fingerprint)` pair, and every [`CtIndex`] answer —
//! over the whole log and over a randomly trusted subset of it — must
//! equal what a linear scan of the same entries says.

use mtls_crypto::Fp;
use mtls_pki::ctlog::CtEntry;
use mtls_pki::{CtIndex, CtLog};
use proptest::prelude::*;
use std::collections::BTreeSet;

const LABELS: &[&str] = &["a", "b", "www", "x", "*", "w*", ""];
const SUFFIXES: &[&str] = &["x.y", "com", "y", "b.x.y"];
const ISSUERS: &[&str] = &["O=A", "O=B", "O=C"];
/// Fingerprint names; each entry's fingerprint is the SHA-256 of one.
const FPS: &[&str] = &["00", "01", "02", "03", "04", "05"];

/// A name built from a few labels over a small alphabet (so entries and
/// queries collide often), with each character's case chosen at random.
fn arb_name() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(0..LABELS.len(), 0..3),
        0..SUFFIXES.len(),
        any::<u64>(),
    )
        .prop_map(|(labels, suffix, case_bits)| {
            let mut name: Vec<&str> = labels.into_iter().map(|i| LABELS[i]).collect();
            name.push(SUFFIXES[suffix]);
            name.join(".")
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if case_bits >> (i % 64) & 1 == 1 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect()
        })
}

fn arb_entry() -> impl Strategy<Value = CtEntry> {
    (arb_name(), 0..ISSUERS.len(), 0..FPS.len()).prop_map(|(domain, issuer, fp)| CtEntry {
        domain,
        issuer_display: ISSUERS[issuer].into(),
        fingerprint: Fp::of(FPS[fp].as_bytes()),
    })
}

/// The reference rule: a logged name covers a query when it is the same
/// name, or when it is `*.{rest}` and the query is one more non-empty,
/// non-wildcard label in front of a `rest` of at least two labels.
fn covers(logged: &str, query: &str) -> bool {
    if logged == query {
        return true;
    }
    let Some(rest) = logged.strip_prefix("*.") else {
        return false;
    };
    let Some(label) = query
        .strip_suffix(rest)
        .and_then(|head| head.strip_suffix('.'))
    else {
        return false;
    };
    !label.is_empty() && !label.contains(['.', '*']) && rest.contains('.')
}

/// Check every lookup of `index` against a scan of `entries`.
fn agrees(index: &CtIndex, entries: &[CtEntry], queries: &[String]) {
    let lower: Vec<(String, &CtEntry)> = entries
        .iter()
        .map(|e| (e.domain.to_ascii_lowercase(), e))
        .collect();
    for query in queries {
        let q = query.to_ascii_lowercase();
        let covering = || lower.iter().filter(|(d, _)| covers(d, &q)).map(|(_, e)| e);
        let exact = || lower.iter().filter(|(d, _)| *d == q).map(|(_, e)| e);
        prop_assert_eq!(
            index.contains_domain(query),
            covering().next().is_some(),
            "contains_domain({})",
            query
        );
        for issuer in ISSUERS.iter().chain(&["O=Z"]) {
            prop_assert_eq!(
                index.domain_has_issuer(query, issuer),
                covering().any(|e| e.issuer_display == *issuer),
                "domain_has_issuer({}, {})",
                query,
                issuer
            );
            prop_assert_eq!(
                index.exact_domain_has_issuer(query, issuer),
                exact().any(|e| e.issuer_display == *issuer),
                "exact_domain_has_issuer({}, {})",
                query,
                issuer
            );
        }
        for name in FPS.iter().chain(&["zz"]) {
            let fp = Fp::of(name.as_bytes());
            prop_assert_eq!(
                index.exact_domain_has_fingerprint(query, &fp),
                exact().any(|e| e.fingerprint == fp),
                "exact_domain_has_fingerprint({}, {})",
                query,
                fp
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn index_matches_a_linear_scan(
        submitted in proptest::collection::vec(arb_entry(), 0..40),
        extra_queries in proptest::collection::vec(arb_name(), 0..16),
        mask in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let log = CtLog::from_entries(submitted.clone());
        // The reference dedup: the first submission of each (lowercased
        // domain, fingerprint) pair, in submission order.
        let mut seen = BTreeSet::new();
        let logged: Vec<CtEntry> = submitted
            .iter()
            .map(|e| CtEntry {
                domain: e.domain.to_ascii_lowercase(),
                ..e.clone()
            })
            .filter(|e| seen.insert((e.domain.clone(), e.fingerprint)))
            .collect();
        prop_assert_eq!(log.len(), seen.len());
        prop_assert_eq!(log.entries(), &logged[..]);

        let queries: Vec<String> = submitted
            .iter()
            .map(|e| e.domain.clone())
            .chain(extra_queries)
            .collect();
        agrees(log.index(), &logged, &queries);
        // A narrowed index answers for exactly the trusted entries.
        let trusted: Vec<CtEntry> = logged
            .into_iter()
            .zip(&mask)
            .filter(|(_, t)| **t)
            .map(|(e, _)| e)
            .collect();
        agrees(&CtIndex::from_entries(&trusted), &trusted, &queries);
    }
}
