//! Aggregation-based CT gossip and split-view detection.
//!
//! Modeled on Dahlberg et al., "Aggregation-Based Certificate Transparency
//! Gossip": vantage points don't talk to each other directly — an
//! aggregator collects the signed tree heads each vantage observed,
//! together with the consistency proofs the log served, and an auditor
//! replays the evidence. Two vantage points exist in the simulation:
//!
//! * [`Vantage::CampusBorder`] — the border router the paper's dataset is
//!   captured at, seeing whatever view of the log the campus is served;
//! * [`Vantage::ExternalMonitor`] — an off-campus monitor seeing the view
//!   the log shows the world.
//!
//! A log is *consistent* when every pair of observed STHs is linked by a
//! verifying consistency proof (equal sizes must simply share a root). A
//! log that cannot prove consistency between two observed STHs is flagged
//! as a **split view** by [`SplitViewDetector::audit`] — the equivocation
//! CT's gossip is designed to make detectable, not preventable.
//!
//! [`CtAudit::trusted_index`] then narrows a [`CtLog`]'s [`CtIndex`] to
//! the entries the gossip evidence actually supports: everything below the
//! agreed tree head when the log is consistent, and only entries with a
//! verifying inclusion proof against the external reference head when it
//! equivocates.

use crate::ctlog::{CtIndex, CtLog};
use crate::sth::{ConsistencyProof, InclusionProof, SignedTreeHead};
use mtls_crypto::{hex, KeyId, KeyRegistry, Keypair};
use mtls_intern::FxHashMap;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Where an STH was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vantage {
    CampusBorder,
    ExternalMonitor,
}

impl Vantage {
    pub fn label(self) -> &'static str {
        match self {
            Vantage::CampusBorder => "campus_border",
            Vantage::ExternalMonitor => "external_monitor",
        }
    }

    pub fn from_label(label: &str) -> Option<Vantage> {
        match label {
            "campus_border" => Some(Vantage::CampusBorder),
            "external_monitor" => Some(Vantage::ExternalMonitor),
            _ => None,
        }
    }
}

/// One gossiped tree head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtObservation {
    pub vantage: Vantage,
    pub sth: SignedTreeHead,
}

/// Everything the border aggregator hands the auditor: observed STHs, the
/// consistency proofs the log served, per-entry inclusion proofs keyed by
/// leaf hash (fetched only when a split view is suspected), and the log
/// verification keys (simsig's stand-in for out-of-band key distribution).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GossipBundle {
    pub observations: Vec<CtObservation>,
    pub consistency_proofs: Vec<ConsistencyProof>,
    /// `(leaf hash, proof)` — the aggregator's proof cache, keyed the way
    /// a real log is queried (`get-proof-by-hash`).
    pub entry_proofs: Vec<([u8; 32], InclusionProof)>,
    pub log_keys: Vec<Keypair>,
}

impl GossipBundle {
    /// A bundle with no observations disables the proof-based filter path
    /// (the pipeline falls back to the legacy bare-issuer comparison).
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Registry of the bundled log keys.
    pub fn registry(&self) -> KeyRegistry {
        let mut registry = KeyRegistry::new();
        for key in &self.log_keys {
            registry.register(key.clone());
        }
        registry
    }

    /// Serialize as the `ct_gossip.log` TSV: one record per line, hex
    /// payloads, deterministic order.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for key in &self.log_keys {
            out.push_str("log_key\t");
            out.push_str(&hex::encode(&key.secret_bytes()));
            out.push('\n');
        }
        for obs in &self.observations {
            out.push_str("sth\t");
            out.push_str(obs.vantage.label());
            out.push('\t');
            out.push_str(&hex::encode(&obs.sth.to_bytes()));
            out.push('\n');
        }
        for proof in &self.consistency_proofs {
            out.push_str("consistency\t");
            out.push_str(&hex::encode(&proof.to_bytes()));
            out.push('\n');
        }
        for (leaf, proof) in &self.entry_proofs {
            out.push_str("entry_proof\t");
            out.push_str(&hex::encode(leaf));
            out.push('\t');
            out.push_str(&hex::encode(&proof.to_bytes()));
            out.push('\n');
        }
        out
    }

    /// Parse the `ct_gossip.log` TSV. Lenient like the other log parsers:
    /// lines that don't decode are skipped, not fatal.
    pub fn from_tsv(text: &str) -> GossipBundle {
        let mut bundle = GossipBundle::default();
        for line in text.lines() {
            let mut cells = line.splitn(3, '\t');
            match (cells.next(), cells.next(), cells.next()) {
                (Some("log_key"), Some(secret), None) => {
                    if let Some(bytes) = hex::decode(secret) {
                        if let Ok(secret) = <[u8; 32]>::try_from(bytes.as_slice()) {
                            bundle.log_keys.push(Keypair::from_secret_bytes(secret));
                        }
                    }
                }
                (Some("sth"), Some(vantage), Some(payload)) => {
                    if let (Some(vantage), Some(bytes)) =
                        (Vantage::from_label(vantage), hex::decode(payload))
                    {
                        if let Some(sth) = SignedTreeHead::from_bytes(&bytes) {
                            bundle.observations.push(CtObservation { vantage, sth });
                        }
                    }
                }
                (Some("consistency"), Some(payload), None) => {
                    if let Some(bytes) = hex::decode(payload) {
                        if let Some(proof) = ConsistencyProof::from_bytes(&bytes) {
                            bundle.consistency_proofs.push(proof);
                        }
                    }
                }
                (Some("entry_proof"), Some(leaf), Some(payload)) => {
                    if let (Some(leaf), Some(bytes)) = (hex::decode(leaf), hex::decode(payload)) {
                        if let (Ok(leaf), Some(proof)) = (
                            <[u8; 32]>::try_from(leaf.as_slice()),
                            InclusionProof::from_bytes(&bytes),
                        ) {
                            bundle.entry_proofs.push((leaf, proof));
                        }
                    }
                }
                _ => {}
            }
        }
        bundle
    }
}

/// Audit verdict for one log id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogAudit {
    pub log_id: KeyId,
    /// Observed STHs attributed to this log.
    pub sths: usize,
    /// STHs whose signature did not verify (excluded from the chain).
    pub signature_failures: usize,
    pub consistency_verified: usize,
    pub consistency_failed: usize,
    /// True when any pair of observed heads could not be linked.
    pub split_view: bool,
    /// The head entries are audited against: the largest consistent head,
    /// or on a split the largest head the *external* monitor vouches for.
    pub reference: Option<SignedTreeHead>,
}

/// The full audit across every observed log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CtAudit {
    /// Per-log verdicts, ordered by log id.
    pub logs: Vec<LogAudit>,
}

impl CtAudit {
    pub fn split_views(&self) -> usize {
        self.logs.iter().filter(|l| l.split_view).count()
    }

    /// Hex ids of logs caught equivocating, in id order.
    pub fn split_view_log_ids(&self) -> Vec<String> {
        self.logs
            .iter()
            .filter(|l| l.split_view)
            .map(|l| l.log_id.to_hex())
            .collect()
    }

    pub fn for_log(&self, log_id: KeyId) -> Option<&LogAudit> {
        self.logs.iter().find(|l| l.log_id == log_id)
    }

    /// The index over the entries of `log` this audit trusts.
    ///
    /// * Consistent log: every entry below the reference head is trusted —
    ///   one consistency proof vouches for the whole prefix.
    /// * Split view: an entry is trusted only if the bundle carries an
    ///   inclusion proof for its leaf that verifies against the reference
    ///   (external) head. Entries fabricated for the campus view have no
    ///   such proof and fall out.
    /// * Log absent from the audit: nothing is trusted — the gossip layer
    ///   never saw it.
    ///
    /// With no entry rejected this is the log's own index, borrowed;
    /// otherwise one narrowed copy built from the trusted entries.
    pub fn trusted_index<'a>(
        &self,
        log: &'a CtLog,
        bundle: &GossipBundle,
    ) -> (Cow<'a, CtIndex>, VerifyStats) {
        let mut stats = VerifyStats::default();
        let verdict = self.for_log(log.log_id());
        let trusted: Vec<bool> = match verdict.and_then(|v| v.reference.as_ref().map(|r| (v, r))) {
            None => vec![false; log.len()],
            Some((verdict, reference)) if !verdict.split_view => {
                let head = reference.tree_size;
                (0..log.len() as u64).map(|i| i < head).collect()
            }
            Some((_, reference)) => {
                let proofs: FxHashMap<&[u8; 32], &InclusionProof> = bundle
                    .entry_proofs
                    .iter()
                    .filter(|(_, p)| {
                        p.log_id == reference.log_id && p.tree_size == reference.tree_size
                    })
                    .map(|(leaf, p)| (leaf, p))
                    .collect();
                log.entries()
                    .iter()
                    .map(|entry| {
                        let leaf = CtLog::leaf_hash(entry);
                        match proofs.get(&leaf) {
                            Some(proof) if proof.verify(&leaf, reference) => {
                                stats.inclusion_proofs_verified += 1;
                                true
                            }
                            Some(_) => {
                                stats.inclusion_proofs_failed += 1;
                                false
                            }
                            None => false,
                        }
                    })
                    .collect()
            }
        };
        stats.entries_verified = trusted.iter().filter(|t| **t).count();
        stats.entries_rejected = log.len() - stats.entries_verified;
        let index = if stats.entries_rejected == 0 {
            Cow::Borrowed(log.index())
        } else {
            let entries = log.entries().iter().zip(&trusted);
            Cow::Owned(CtIndex::from_entries(
                entries.filter(|(_, t)| **t).map(|(e, _)| e),
            ))
        };
        (index, stats)
    }
}

/// Replays gossip evidence and flags logs that cannot prove consistency
/// between observed tree heads.
pub struct SplitViewDetector;

impl SplitViewDetector {
    pub fn audit(bundle: &GossipBundle) -> CtAudit {
        let registry = bundle.registry();
        // Group observations by log id; BTreeMap keeps the verdicts in a
        // deterministic order.
        let mut by_log: BTreeMap<KeyId, Vec<&CtObservation>> = BTreeMap::new();
        for obs in &bundle.observations {
            by_log.entry(obs.sth.log_id).or_default().push(obs);
        }
        let mut logs = Vec::with_capacity(by_log.len());
        for (log_id, observations) in by_log {
            let sths = observations.len();
            let mut valid: Vec<&CtObservation> = observations
                .into_iter()
                .filter(|o| o.sth.verify(&registry))
                .collect();
            let signature_failures = sths - valid.len();
            valid.sort_by(|a, b| {
                (a.sth.tree_size, &a.sth.root, a.sth.timestamp).cmp(&(
                    b.sth.tree_size,
                    &b.sth.root,
                    b.sth.timestamp,
                ))
            });
            let mut consistency_verified = 0;
            let mut consistency_failed = 0;
            for pair in valid.windows(2) {
                let (old, new) = (&pair[0].sth, &pair[1].sth);
                let linked = if old.tree_size == new.tree_size {
                    old.root == new.root
                } else {
                    bundle
                        .consistency_proofs
                        .iter()
                        .filter(|p| {
                            p.log_id == log_id
                                && p.old_size == old.tree_size
                                && p.new_size == new.tree_size
                        })
                        .any(|p| p.verify(old, new))
                };
                if linked {
                    consistency_verified += 1;
                } else {
                    consistency_failed += 1;
                }
            }
            let split_view = consistency_failed > 0;
            let reference = if split_view {
                // Entries must be audited against the view the world sees:
                // the largest externally observed head (fall back to the
                // largest overall if no external vantage reported).
                valid
                    .iter()
                    .rfind(|o| o.vantage == Vantage::ExternalMonitor)
                    .or(valid.last())
                    .map(|o| o.sth.clone())
            } else {
                valid.last().map(|o| o.sth.clone())
            };
            logs.push(LogAudit {
                log_id,
                sths,
                signature_failures,
                consistency_verified,
                consistency_failed,
                split_view,
                reference,
            });
        }
        CtAudit { logs }
    }
}

/// Per-entry verification tallies from [`CtAudit::trusted_index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    pub entries_verified: usize,
    pub entries_rejected: usize,
    pub inclusion_proofs_verified: usize,
    pub inclusion_proofs_failed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctlog::CtEntry;

    /// An entry whose fingerprint is the SHA-256 of the name `fp`.
    fn entry(domain: &str, issuer: &str, fp: &str) -> CtEntry {
        CtEntry {
            domain: domain.into(),
            issuer_display: issuer.into(),
            fingerprint: mtls_crypto::Fp::of(fp.as_bytes()),
        }
    }

    fn honest_log(n: usize) -> CtLog {
        let mut log = CtLog::new();
        for i in 0..n {
            log.submit_entry(entry(
                &format!("site-{i}.example.org"),
                "O=DigiCert Inc",
                &format!("{i:04x}"),
            ));
        }
        log
    }

    /// Honest two-vantage bundle: both see (prefixes of) the same log.
    fn honest_bundle(log: &CtLog, campus_at: u64) -> GossipBundle {
        let n = log.len() as u64;
        GossipBundle {
            observations: vec![
                CtObservation {
                    vantage: Vantage::CampusBorder,
                    sth: log.sth_at(campus_at, 10).unwrap(),
                },
                CtObservation {
                    vantage: Vantage::ExternalMonitor,
                    sth: log.sth(20),
                },
            ],
            consistency_proofs: vec![log.prove_consistency(campus_at, n).unwrap()],
            entry_proofs: Vec::new(),
            log_keys: vec![log.keypair().clone()],
        }
    }

    /// Equivocating log: the campus view has `fork` fabricated entries
    /// spliced in at the midpoint, signed with the same log key.
    fn forked_views(n: usize, fork: usize) -> (CtLog, CtLog) {
        let honest = honest_log(n);
        let mut campus = CtLog::new();
        let at = n / 2;
        for e in &honest.entries()[..at] {
            campus.submit_entry(e.clone());
        }
        for i in 0..fork {
            campus.submit_entry(entry(
                &format!("victim-{i}.example.org"),
                "O=Evil Proxy",
                &format!("ff{i:02x}"),
            ));
        }
        for e in &honest.entries()[at..] {
            campus.submit_entry(e.clone());
        }
        (honest, campus)
    }

    #[test]
    fn honest_views_audit_consistent() {
        let log = honest_log(12);
        let bundle = honest_bundle(&log, 7);
        let audit = SplitViewDetector::audit(&bundle);
        assert_eq!(audit.logs.len(), 1);
        assert_eq!(audit.split_views(), 0);
        let verdict = &audit.logs[0];
        assert_eq!(verdict.consistency_verified, 1);
        assert_eq!(verdict.consistency_failed, 0);
        assert_eq!(verdict.reference.as_ref().unwrap().tree_size, 12);

        let (view, stats) = audit.trusted_index(&log, &bundle);
        assert_eq!(stats.entries_verified, 12);
        assert_eq!(stats.entries_rejected, 0);
        assert!(
            matches!(view, Cow::Borrowed(_)),
            "nothing rejected, no copy"
        );
        assert!(view.contains_domain("site-3.example.org"));
        assert!(view.domain_has_issuer("site-3.example.org", "O=DigiCert Inc"));
        let fp = mtls_crypto::Fp::of(b"0003");
        assert!(view.exact_domain_has_fingerprint("site-3.example.org", &fp));
    }

    #[test]
    fn equivocating_log_is_detected_and_fabricated_entries_rejected() {
        let (honest, campus) = forked_views(10, 2);
        assert_eq!(honest.log_id(), campus.log_id(), "one log, two views");
        let n = honest.len() as u64;
        let c = campus.len() as u64;
        let bundle = GossipBundle {
            observations: vec![
                CtObservation {
                    vantage: Vantage::CampusBorder,
                    sth: campus.sth(10),
                },
                CtObservation {
                    vantage: Vantage::ExternalMonitor,
                    sth: honest.sth(20),
                },
            ],
            // The misbehaving log serves a proof from its campus tree; it
            // cannot link the honest head, so the proof fails.
            consistency_proofs: vec![campus.prove_consistency(n, c).unwrap()],
            entry_proofs: (0..n)
                .map(|i| {
                    (
                        CtLog::leaf_hash(&honest.entries()[i as usize]),
                        honest.prove_inclusion(i, n).unwrap(),
                    )
                })
                .collect(),
            log_keys: vec![honest.keypair().clone()],
        };
        let audit = SplitViewDetector::audit(&bundle);
        assert_eq!(audit.split_views(), 1);
        assert_eq!(audit.split_view_log_ids(), vec![honest.log_id().to_hex()]);
        // Reference falls back to the external (honest) head.
        let verdict = &audit.logs[0];
        assert_eq!(verdict.reference.as_ref().unwrap().tree_size, n);

        let (view, stats) = audit.trusted_index(&campus, &bundle);
        assert_eq!(stats.entries_verified, 10, "honest entries keep proofs");
        assert_eq!(stats.entries_rejected, 2, "fabricated entries fall out");
        assert_eq!(stats.inclusion_proofs_verified, 10);
        assert!(matches!(view, Cow::Owned(_)), "narrowed copy");
        assert!(!view.contains_domain("victim-0.example.org"));
        assert!(!view.domain_has_issuer("victim-0.example.org", "O=Evil Proxy"));
        assert!(view.contains_domain("site-9.example.org"));
        // The campus log's own index still holds the fabricated entries.
        assert!(campus.index().contains_domain("victim-0.example.org"));
    }

    #[test]
    fn unverifiable_sths_are_signature_failures() {
        let log = honest_log(4);
        let mut bundle = honest_bundle(&log, 4);
        bundle.log_keys.clear();
        let audit = SplitViewDetector::audit(&bundle);
        let verdict = &audit.logs[0];
        assert_eq!(verdict.signature_failures, 2);
        assert!(!verdict.split_view, "no surviving pair to contradict");
        assert!(verdict.reference.is_none());
        let (view, stats) = audit.trusted_index(&log, &bundle);
        assert_eq!(stats.entries_verified, 0);
        assert_eq!(stats.entries_rejected, 4);
        assert!(!view.contains_domain("site-0.example.org"));
    }

    #[test]
    fn missing_consistency_proof_is_a_split_view() {
        let log = honest_log(9);
        let mut bundle = honest_bundle(&log, 5);
        bundle.consistency_proofs.clear();
        let audit = SplitViewDetector::audit(&bundle);
        assert_eq!(audit.split_views(), 1);
    }

    #[test]
    fn bundle_tsv_round_trips() {
        let (honest, campus) = forked_views(6, 1);
        let n = honest.len() as u64;
        let bundle = GossipBundle {
            observations: vec![
                CtObservation {
                    vantage: Vantage::CampusBorder,
                    sth: campus.sth(1),
                },
                CtObservation {
                    vantage: Vantage::ExternalMonitor,
                    sth: honest.sth(2),
                },
            ],
            consistency_proofs: vec![honest.prove_consistency(3, n).unwrap()],
            entry_proofs: vec![(
                CtLog::leaf_hash(&honest.entries()[0]),
                honest.prove_inclusion(0, n).unwrap(),
            )],
            log_keys: vec![honest.keypair().clone()],
        };
        let tsv = bundle.to_tsv();
        let back = GossipBundle::from_tsv(&tsv);
        assert_eq!(back, bundle);
        assert_eq!(back.to_tsv(), tsv);
        // Garbage lines are skipped, not fatal.
        let noisy = format!("junk\nsth\tnowhere\tzz\n{tsv}entry_proof\tshort\n");
        assert_eq!(GossipBundle::from_tsv(&noisy), bundle);
        assert!(GossipBundle::from_tsv("").is_empty());
    }
}
