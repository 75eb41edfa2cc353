//! Experiment `ext1` — the validation audit.
//!
//! The paper's headline: its findings "prompt a critical re-evaluation of
//! client-side authentication validation procedures in over 13 million
//! connections" (§1) — i.e., that many *established* mutual-TLS connections
//! carried a client certificate a careful validator would have rejected.
//! This analyzer replays the corpus against the rule set of
//! [`mtls_pki::ValidationPolicy`], applied at the log-record level (the
//! wire-level evaluator itself is exercised by the adversarial test-suite
//! in `tests/adversarial.rs`), and reports how many connections each
//! violation class would have refused.

use crate::corpus::{Cert, Corpus, IssuerFacts};
use crate::report::{count, pct, Table};
use mtls_intern::{FxHashMap, FxHashSet};
use mtls_pki::policy::Violation;
use mtls_pki::ValidationPolicy;

/// The audit result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Established mTLS connections in scope.
    pub total_mtls_conns: usize,
    /// Connections whose *client* certificate violates ≥ 1 enterprise rule.
    pub flagged_conns: usize,
    /// Per-violation connection counts (a connection may appear in several).
    pub by_violation: Vec<(Violation, usize)>,
    /// Unique client certificates with ≥ 1 violation.
    pub flagged_certs: usize,
}

/// The violations one record raises: a fixed-size set, `Copy` and
/// heap-free, that iterates in the order [`evaluate_fields`] checks its
/// rules ([`Violations::ORDER`]), which is the order the verdict's audit
/// line lists them in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Violations(u16);

impl Violations {
    /// The rule order of [`evaluate_fields`].
    pub const ORDER: [Violation; 11] = [
        Violation::IncorrectDates,
        Violation::Expired,
        Violation::NotYetValid,
        Violation::MissingIssuer,
        Violation::DummyIssuer,
        Violation::UntrustedIssuer,
        Violation::WeakKey,
        Violation::ObsoleteVersion,
        Violation::ExcessiveValidity,
        Violation::SharedWithPeer,
        Violation::DeprecatedSignatureAlgorithm,
    ];

    fn bit(v: Violation) -> u16 {
        1 << v as u16
    }

    fn insert(&mut self, v: Violation) {
        self.0 |= Self::bit(v);
    }

    /// Whether the record raised `v`.
    pub fn contains(self, v: Violation) -> bool {
        self.0 & Self::bit(v) != 0
    }

    /// Whether the record is clean.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The raised violations, in [`Violations::ORDER`].
    pub fn iter(self) -> impl Iterator<Item = Violation> {
        Self::ORDER.into_iter().filter(move |&v| self.contains(v))
    }
}

/// Apply the policy's rule set to a logged certificate record. Mirrors
/// `ValidationPolicy::evaluate` on the fields the logs preserve (trust-store
/// membership and the dummy test come from the corpus's issuer facts).
pub fn evaluate_record(
    policy: &ValidationPolicy,
    cert: Cert<'_>,
    at: f64,
    peer_same_cert: bool,
) -> Violations {
    evaluate_fields(policy, cert.rec, &cert.issuer, at, peer_same_cert)
}

/// The record-level rule set on bare `x509.log` fields — shared between
/// the corpus audit above and the per-request verdict path in
/// [`crate::verdict`], so a served verdict can never drift from the
/// offline analysis. `issuer` is [`crate::corpus::issuer_facts`] of `rec`.
pub fn evaluate_fields(
    policy: &ValidationPolicy,
    rec: &mtls_zeek::X509Record,
    issuer: &IssuerFacts,
    at: f64,
    peer_same_cert: bool,
) -> Violations {
    let mut v = Violations::default();
    let inverted = rec.has_incorrect_dates();
    if policy.check_date_sanity && inverted {
        v.insert(Violation::IncorrectDates);
    }
    if policy.check_validity_window && !inverted {
        if at > rec.not_valid_after as f64 {
            v.insert(Violation::Expired);
        } else if at < rec.not_valid_before as f64 {
            v.insert(Violation::NotYetValid);
        }
    }
    let org = rec
        .issuer_org
        .as_deref()
        .map(str::trim)
        .filter(|s| !s.is_empty());
    if policy.require_issuer && org.is_none() {
        v.insert(Violation::MissingIssuer);
    }
    if policy.reject_dummy_issuers && issuer.dummy {
        v.insert(Violation::DummyIssuer);
    }
    if policy.require_trusted_issuer && !issuer.public {
        v.insert(Violation::UntrustedIssuer);
    }
    if policy.min_rsa_bits > 0 && rec.key_alg == "rsa" && rec.key_length < policy.min_rsa_bits {
        v.insert(Violation::WeakKey);
    }
    if policy.reject_v1 && rec.version == 1 {
        v.insert(Violation::ObsoleteVersion);
    }
    if policy.max_validity_days > 0 && !inverted && rec.validity_days() > policy.max_validity_days {
        v.insert(Violation::ExcessiveValidity);
    }
    if policy.reject_shared_with_peer && peer_same_cert {
        v.insert(Violation::SharedWithPeer);
    }
    if policy.reject_deprecated_signatures
        && (rec.sig_alg.contains("sha1") || rec.sig_alg.contains("md5"))
    {
        v.insert(Violation::DeprecatedSignatureAlgorithm);
    }
    v
}

/// Run the audit with the enterprise policy (private anchors allowed; the
/// §5 pathologies rejected).
pub fn run(corpus: &Corpus) -> Report {
    run_with(corpus, &ValidationPolicy::enterprise())
}

/// Run the audit with an explicit policy.
pub fn run_with(corpus: &Corpus, policy: &ValidationPolicy) -> Report {
    let mut total = 0usize;
    let mut flagged = 0usize;
    let mut by_violation: FxHashMap<Violation, usize> = FxHashMap::default();
    let mut flagged_cert_ids: FxHashSet<usize> = FxHashSet::default();

    for conn in corpus.mtls_conns() {
        if !conn.rec.established {
            continue;
        }
        let Some(cid) = conn.client_leaf else {
            continue;
        };
        total += 1;
        let violations = evaluate_record(
            policy,
            corpus.cert(cid),
            conn.rec.ts,
            conn.same_cert_both_ends,
        );
        if violations.is_empty() {
            continue;
        }
        flagged += 1;
        flagged_cert_ids.insert(cid);
        for v in violations.iter() {
            *by_violation.entry(v).or_insert(0) += 1;
        }
    }

    let mut by_violation: Vec<(Violation, usize)> = by_violation.into_iter().collect();
    by_violation.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Report {
        total_mtls_conns: total,
        flagged_conns: flagged,
        by_violation,
        flagged_certs: flagged_cert_ids.len(),
    }
}

impl Report {
    /// Share of established mTLS connections a strict validator refuses.
    pub fn flagged_share(&self) -> f64 {
        self.flagged_conns as f64 / self.total_mtls_conns.max(1) as f64
    }

    /// Render the audit.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Validation audit (ext1): established mTLS connections a careful validator would refuse",
            &["violation", "connections", "% of flagged"],
        );
        for (v, n) in &self.by_violation {
            t.row(vec![
                v.label().to_string(),
                count(*n),
                pct(*n, self.flagged_conns),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "flagged: {} of {} established mTLS connections ({}%), {} unique client certs\n\
             (paper headline: \"over 13 million connections\" of 1.2 B)\n",
            count(self.flagged_conns),
            count(self.total_mtls_conns),
            pct(self.flagged_conns, self.total_mtls_conns),
            count(self.flagged_certs)
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, DAY, T0};

    #[test]
    fn violation_set_iterates_in_rule_order() {
        // ORDER names every violation once, and each fits a bit.
        let mut sorted = Violations::ORDER;
        sorted.sort();
        assert_eq!(sorted, Violation::ALL);
        assert!(Violation::ALL.iter().all(|&v| (v as u16) < 16));
        let mut all = Violations::default();
        assert!(all.is_empty());
        // Inserted in reverse, listed in rule order.
        for v in Violations::ORDER.into_iter().rev() {
            all.insert(v);
        }
        assert!(all.iter().eq(Violations::ORDER));
        let mut two = Violations::default();
        two.insert(Violation::UntrustedIssuer);
        two.insert(Violation::IncorrectDates);
        assert!(two
            .iter()
            .eq([Violation::IncorrectDates, Violation::UntrustedIssuer]));
        assert!(two.contains(Violation::UntrustedIssuer) && !two.contains(Violation::Expired));
    }

    #[test]
    fn flags_every_pathology_class() {
        let mut b = CorpusBuilder::new();
        b.cert("srv", CertOpts::default());
        b.cert(
            "ok",
            CertOpts {
                cn: Some("fine"),
                issuer_org: Some("Good Corp Inc"),
                ..Default::default()
            },
        );
        b.cert(
            "expired",
            CertOpts {
                cn: Some("old"),
                not_before: T0 - 900.0 * DAY,
                not_after: T0 - 100.0 * DAY,
                ..Default::default()
            },
        );
        b.cert(
            "missing",
            CertOpts {
                cn: Some("anon"),
                issuer_org: None,
                ..Default::default()
            },
        );
        b.cert(
            "dummy",
            CertOpts {
                cn: Some("d"),
                issuer_org: Some("Internet Widgits Pty Ltd"),
                ..Default::default()
            },
        );
        b.cert(
            "weak",
            CertOpts {
                cn: Some("w"),
                key_length: 1024,
                ..Default::default()
            },
        );
        b.cert(
            "v1",
            CertOpts {
                cn: Some("v"),
                version: 1,
                ..Default::default()
            },
        );
        b.cert(
            "forever",
            CertOpts {
                cn: Some("f"),
                not_before: T0 - DAY,
                not_after: T0 + 40_000.0 * DAY,
                ..Default::default()
            },
        );
        b.cert(
            "sharer",
            CertOpts {
                cn: Some("s"),
                ..Default::default()
            },
        );

        b.inbound(T0, 1, None, "srv", "ok");
        b.inbound(T0, 2, None, "srv", "expired");
        b.inbound(T0, 3, None, "srv", "missing");
        b.inbound(T0, 4, None, "srv", "dummy");
        b.inbound(T0, 5, None, "srv", "weak");
        b.inbound(T0, 6, None, "srv", "v1");
        b.inbound(T0, 7, None, "srv", "forever");
        b.inbound(T0, 8, None, "sharer", "sharer");
        let r = run(&b.build());

        assert_eq!(r.total_mtls_conns, 8);
        assert_eq!(r.flagged_conns, 7, "only 'ok' passes");
        let has = |v: Violation| r.by_violation.iter().any(|(x, n)| *x == v && *n > 0);
        assert!(has(Violation::Expired));
        assert!(has(Violation::MissingIssuer));
        assert!(has(Violation::DummyIssuer));
        assert!(has(Violation::WeakKey));
        assert!(has(Violation::ObsoleteVersion));
        assert!(has(Violation::ExcessiveValidity));
        assert!(has(Violation::SharedWithPeer));
        assert!((r.flagged_share() - 7.0 / 8.0).abs() < 1e-12);
        assert!(r.render().contains("13 million"));
    }

    #[test]
    fn lax_policy_flags_nothing() {
        let mut b = CorpusBuilder::new();
        b.cert("srv", CertOpts::default());
        b.cert(
            "dummy",
            CertOpts {
                cn: Some("d"),
                issuer_org: Some("Unspecified"),
                version: 1,
                key_length: 512,
                ..Default::default()
            },
        );
        b.inbound(T0, 1, None, "srv", "dummy");
        let r = run_with(&b.build(), &ValidationPolicy::lax());
        assert_eq!(r.flagged_conns, 0);
    }

    #[test]
    fn strict_policy_rejects_private_anchors_too() {
        let mut b = CorpusBuilder::new();
        b.cert("srv", CertOpts::default());
        b.cert(
            "priv",
            CertOpts {
                cn: Some("p"),
                issuer_org: Some("Good Corp Inc"),
                ..Default::default()
            },
        );
        b.inbound(T0, 1, None, "srv", "priv");
        let r = run_with(&b.build(), &ValidationPolicy::strict());
        assert_eq!(r.flagged_conns, 1);
        assert!(r
            .by_violation
            .iter()
            .any(|(v, _)| *v == Violation::UntrustedIssuer));
    }
}
