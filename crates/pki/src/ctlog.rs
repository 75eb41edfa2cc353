//! A simulated Certificate Transparency log with a verifiable Merkle tree.
//!
//! The paper uses crt.sh to find "the original issuer of the corresponding
//! domain" when filtering TLS-interception certificates (§3.2.1): if the
//! observed leaf's issuer differs from the CT-logged issuer for that domain,
//! the connection is flagged as intercepted. This module reproduces the data
//! the filter needs — public CAs append (domain → issuer organization)
//! entries at issuance time; interception middleboxes do not — and, since
//! the gossip rework, the *machinery* that makes the data checkable:
//!
//! * every entry is a leaf of an RFC 6962 Merkle tree ([`crate::merkle`]),
//!   with the leaf encoded exactly as its `ct.log` line
//!   (`domain\tissuer\tfingerprint`), streamed into the leaf hash
//!   ([`CtLog::leaf_hash`]);
//! * the log signs tree heads ([`CtLog::sth_at`]) with a simsig keypair
//!   derived from a fixed seed, so a log rebuilt from its exported entries
//!   has the same [`CtLog::log_id`] and produces the same roots;
//! * inclusion and consistency proofs ([`CtLog::prove_inclusion`],
//!   [`CtLog::prove_consistency`]) let vantage points that only hold tree
//!   heads audit it (see [`crate::gossip`]).
//!
//! Lookup semantics, all answered by one index of the logged names
//! ([`CtIndex`]):
//!
//! * DNS names are ASCII-lowercased at submit *and* lookup time, so
//!   `Example.COM` and `example.com` meet;
//! * entries are deduplicated by `(domain, fingerprint)` — re-submitting a
//!   certificate is a no-op, and [`CtLog::from_entries`] round-trips;
//! * a logged wildcard `*.example.com` satisfies lookups for exactly one
//!   extra label (`www.example.com` matches; `a.b.example.com`, the bare
//!   apex `example.com`, and partial labels do not), mirroring RFC 6125;
//! * every lookup hashes the name at most twice — the exact name, then
//!   its single-label wildcard — and then makes one pair-set probe per
//!   name found (after one issuer lookup, for the issuer questions),
//!   however many entries a domain holds; it allocates nothing for any
//!   name up to 253 bytes (a mixed-case name is lowered into a stack
//!   buffer).

use crate::merkle::{leaf_hash_of, MerkleTree};
use crate::sth::{ConsistencyProof, InclusionProof, SignedTreeHead};
use mtls_crypto::{Fp, KeyId, Keypair};
use mtls_intern::{FxHashMap, FxHashSet};
use mtls_x509::Certificate;
use std::sync::OnceLock;

/// Seed for the default (honest) log identity. Fixed so a log rebuilt from
/// exported entries signs with the same key as the one that produced them.
const DEFAULT_LOG_SEED: &[u8] = b"mtlscope-ct-log-1";

/// One log entry. The `domain` is stored lowercased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtEntry {
    pub domain: String,
    pub issuer_display: String,
    pub fingerprint: Fp,
}

/// Append-only CT log: the entries, the [`CtIndex`] over them, and the
/// Merkle tree the entries are leaves of.
#[derive(Debug, Clone)]
pub struct CtLog {
    entries: Vec<CtEntry>,
    index: CtIndex,
    /// Built on the first tree head or proof a log loaded by
    /// [`CtLog::from_entries`] is asked for (ingest asks for none), and
    /// from the start for a log that grows by submission; once built, every
    /// submission extends it.
    tree: OnceLock<MerkleTree>,
    keypair: Keypair,
}

impl Default for CtLog {
    fn default() -> CtLog {
        CtLog::new()
    }
}

/// The longest DNS name (RFC 1035) a lookup lowercases on the stack.
const STACK_NAME: usize = 253;

/// Run `f` on `domain` ASCII-lowercased without a heap copy: borrowed
/// when it already is lowercase, lowered into a stack buffer up to
/// [`STACK_NAME`] bytes, and into a `String` only past that.
fn with_lowercase<R>(domain: &str, f: impl FnOnce(&str) -> R) -> R {
    if !domain.bytes().any(|b| b.is_ascii_uppercase()) {
        return f(domain);
    }
    if domain.len() > STACK_NAME {
        return f(&domain.to_ascii_lowercase());
    }
    let mut buf = [0u8; STACK_NAME];
    let lower = &mut buf[..domain.len()];
    lower.copy_from_slice(domain.as_bytes());
    lower.make_ascii_lowercase();
    f(std::str::from_utf8(lower).expect("ASCII lowercasing keeps UTF-8 valid"))
}

/// The suffix whose logged wildcard `*.{suffix}` a lookup for `domain`
/// may also match: everything after the first label, but only when that
/// leaves a registrable suffix (at least two labels), the first label is
/// a real single label, and the name isn't itself a wildcard or
/// partial-wildcard pattern.
fn wildcard_suffix(domain: &str) -> Option<&str> {
    let (first, rest) = domain.split_once('.')?;
    if first.is_empty() || first.contains('*') || !rest.contains('.') {
        return None;
    }
    Some(rest)
}

/// The index every CT lookup runs against: each logged name and each
/// issuer gets a number, and two sets of pairs record which issuers and
/// which fingerprints are logged under which name. A [`CtLog`] keeps one
/// over all its entries ([`CtLog::index`]); the gossip audit narrows it
/// to the trusted entries ([`crate::gossip::CtAudit::trusted_index`]).
/// Per new name it stores one copy of the name and one entry in each pair
/// set, and an issuer's text once however many names it is logged under.
#[derive(Debug, Clone, Default)]
pub struct CtIndex {
    /// Logged names without a leading `*.`, numbered.
    names: FxHashMap<Box<str>, u32>,
    /// Logged wildcards `*.{suffix}`, keyed by `suffix` (so a lookup finds
    /// its single-label wildcard without building the `*.` key) and
    /// numbered from the same counter as `names`.
    wildcards: FxHashMap<Box<str>, u32>,
    /// Every logged issuer, numbered.
    issuer_ids: FxHashMap<Box<str>, u32>,
    /// (name, issuer) for every issuer logged under a name.
    issuers: FxHashSet<(u32, u32)>,
    /// (name, fingerprint digest) for every logged pair: the log's dedup
    /// key. The digest is half the size of the fingerprint's text, and this
    /// is the index's largest table.
    fingerprints: FxHashSet<(u32, [u8; 32])>,
}

impl CtIndex {
    /// Index `entries` (domains are lowercased, duplicates skipped).
    pub fn from_entries<'e>(entries: impl IntoIterator<Item = &'e CtEntry>) -> CtIndex {
        let mut index = CtIndex::default();
        for entry in entries {
            index.insert(entry);
        }
        index
    }

    /// Room for about `n` more entries, each under a name of its own.
    fn reserve(&mut self, n: usize) {
        self.names.reserve(n);
        self.issuers.reserve(n);
        self.fingerprints.reserve(n);
    }

    /// Record one entry. Returns whether its `(domain, fingerprint)` pair
    /// was new — the log's deduplication rule.
    fn insert(&mut self, entry: &CtEntry) -> bool {
        let next = (self.names.len() + self.wildcards.len()) as u32;
        let name = with_lowercase(&entry.domain, |domain| {
            let (map, key) = match domain.strip_prefix("*.") {
                Some(suffix) => (&mut self.wildcards, suffix),
                None => (&mut self.names, domain),
            };
            match map.get(key) {
                Some(&id) => id,
                None => {
                    map.insert(key.into(), next);
                    next
                }
            }
        });
        if !self.fingerprints.insert((name, entry.fingerprint.digest())) {
            return false;
        }
        let issuer = match self.issuer_ids.get(entry.issuer_display.as_str()) {
            Some(&id) => id,
            None => {
                let id = self.issuer_ids.len() as u32;
                self.issuer_ids
                    .insert(entry.issuer_display.as_str().into(), id);
                id
            }
        };
        self.issuers.insert((name, issuer));
        true
    }

    /// The number of exactly this (lowercased) name.
    fn exact(&self, domain: &str) -> Option<u32> {
        match domain.strip_prefix("*.") {
            Some(suffix) => self.wildcards.get(suffix),
            None => self.names.get(domain),
        }
        .copied()
    }

    /// The exact name's number, then its single-label wildcard's.
    fn matching(&self, domain: &str) -> [Option<u32>; 2] {
        with_lowercase(domain, |d| {
            let wild = wildcard_suffix(d).and_then(|suffix| self.wildcards.get(suffix));
            [self.exact(d), wild.copied()]
        })
    }

    /// Whether `issuer_display` is logged under any of `names`.
    fn has_issuer(&self, names: &[Option<u32>], issuer_display: &str) -> bool {
        if names.iter().all(Option::is_none) {
            return false;
        }
        self.issuer_ids.get(issuer_display).is_some_and(|&issuer| {
            names
                .iter()
                .flatten()
                .any(|&name| self.issuers.contains(&(name, issuer)))
        })
    }

    /// Whether the domain appears in the index at all (directly or through
    /// a single-label wildcard entry).
    pub fn contains_domain(&self, domain: &str) -> bool {
        self.matching(domain).iter().any(Option::is_some)
    }

    /// Whether a certificate for `domain` is logged with the given issuer —
    /// the interception filter's comparison.
    pub fn domain_has_issuer(&self, domain: &str, issuer_display: &str) -> bool {
        self.has_issuer(&self.matching(domain), issuer_display)
    }

    /// Whether this *exact* domain (no wildcard expansion) is logged under
    /// the given issuer — the SCT-strip check's premise: "CT vouches for
    /// this very FQDN under this very issuer". Wildcard matches would drag
    /// in unrelated renewals sharing a registered domain.
    pub fn exact_domain_has_issuer(&self, domain: &str, issuer_display: &str) -> bool {
        let name = with_lowercase(domain, |d| self.exact(d));
        self.has_issuer(&[name], issuer_display)
    }

    /// Whether this precise certificate is logged for this *exact* domain —
    /// what an SCT would attest.
    pub fn exact_domain_has_fingerprint(&self, domain: &str, fingerprint: &Fp) -> bool {
        with_lowercase(domain, |d| self.exact(d))
            .is_some_and(|name| self.fingerprints.contains(&(name, fingerprint.digest())))
    }
}

impl CtLog {
    /// Empty log with the default (shared, honest) log identity.
    pub fn new() -> CtLog {
        CtLog::with_key_seed(DEFAULT_LOG_SEED)
    }

    /// Empty log whose signing key derives from `seed`. Same seed, same
    /// [`CtLog::log_id`] — an equivocating log's forked view is built with
    /// the *same* seed as the honest view.
    pub fn with_key_seed(seed: &[u8]) -> CtLog {
        CtLog {
            entries: Vec::new(),
            index: CtIndex::default(),
            tree: OnceLock::from(MerkleTree::new()),
            keypair: Keypair::from_seed(seed),
        }
    }

    /// Append a certificate for every DNS name it covers (SAN dNSName plus
    /// CN as crt.sh effectively indexes both). Names are lowercased;
    /// already-logged `(domain, fingerprint)` pairs are skipped.
    pub fn submit(&mut self, cert: &Certificate) {
        let issuer_display = cert.issuer().to_display_string();
        let fingerprint = cert.fingerprint().to_fp();
        let mut domains = cert.san_dns();
        if let Some(cn) = cert.subject().common_name() {
            if !domains.iter().any(|d| d == cn) {
                domains.push(cn.to_string());
            }
        }
        for domain in domains {
            self.submit_entry(CtEntry {
                domain,
                issuer_display: issuer_display.clone(),
                fingerprint,
            });
        }
    }

    /// Append one entry (normalizing and deduplicating). Returns whether
    /// the entry was new.
    pub fn submit_entry(&mut self, mut entry: CtEntry) -> bool {
        entry.domain.make_ascii_lowercase();
        if !self.index.insert(&entry) {
            return false;
        }
        if let Some(tree) = self.tree.get_mut() {
            tree.push(Self::leaf_hash(&entry));
        }
        self.entries.push(entry);
        true
    }

    /// The Merkle tree over every entry, hashed now if it was not yet.
    fn tree(&self) -> &MerkleTree {
        self.tree.get_or_init(|| {
            let mut tree = MerkleTree::new();
            for entry in &self.entries {
                tree.push(Self::leaf_hash(entry));
            }
            tree
        })
    }

    /// The Merkle leaf hash of an entry. The leaf is the entry's `ct.log`
    /// line, `domain\tissuer\tfingerprint`, so a vantage point holding the
    /// exported log can recompute every leaf hash; its parts are streamed
    /// into the hash without building the line.
    pub fn leaf_hash(entry: &CtEntry) -> [u8; 32] {
        leaf_hash_of(&[
            entry.domain.as_bytes(),
            b"\t",
            entry.issuer_display.as_bytes(),
            b"\t",
            entry.fingerprint.as_bytes(),
        ])
    }

    /// The per-domain summary of every entry, for lookups.
    pub fn index(&self) -> &CtIndex {
        &self.index
    }

    /// All entries, in submission order.
    pub fn entries(&self) -> &[CtEntry] {
        &self.entries
    }

    /// Rebuild a log from stored entries (the file-based pipeline's path).
    /// Entries are normalized and deduplicated on the way in, so feeding a
    /// log its own [`CtLog::entries`] reproduces it exactly — same entries,
    /// same tree, same log identity. The tree is hashed on first use.
    pub fn from_entries(entries: Vec<CtEntry>) -> CtLog {
        let mut log = CtLog::new();
        log.tree = OnceLock::new();
        log.entries.reserve(entries.len());
        log.index.reserve(entries.len());
        for entry in entries {
            log.submit_entry(entry);
        }
        log
    }

    /// Total entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The log's identity (its signing key id).
    pub fn log_id(&self) -> KeyId {
        self.keypair.key_id()
    }

    /// The signing keypair (for registering with a [`mtls_crypto::KeyRegistry`]).
    pub fn keypair(&self) -> &Keypair {
        &self.keypair
    }

    /// Signed tree head over the first `tree_size` entries at a logical
    /// timestamp. `None` when `tree_size` exceeds the log.
    pub fn sth_at(&self, tree_size: u64, timestamp: u64) -> Option<SignedTreeHead> {
        let root = self.tree().root_at(tree_size)?;
        let msg = SignedTreeHead::signed_bytes(&self.keypair.key_id(), tree_size, timestamp, &root);
        Some(SignedTreeHead {
            log_id: self.keypair.key_id(),
            tree_size,
            timestamp,
            root,
            signature: self.keypair.sign(&msg),
        })
    }

    /// Signed tree head over the whole log.
    pub fn sth(&self, timestamp: u64) -> SignedTreeHead {
        self.sth_at(self.len() as u64, timestamp)
            .expect("own size is in range")
    }

    /// Audit path for entry `index` within the prefix of `tree_size`
    /// entries.
    pub fn prove_inclusion(&self, index: u64, tree_size: u64) -> Option<InclusionProof> {
        Some(InclusionProof {
            log_id: self.log_id(),
            tree_size,
            leaf_index: index,
            path: self.tree().inclusion_proof(index, tree_size)?,
        })
    }

    /// Audit paths for every entry of the prefix of `tree_size` entries,
    /// in one `O(n log n)` pass (see [`MerkleTree::inclusion_proofs`]).
    pub fn prove_all_inclusions(&self, tree_size: u64) -> Option<Vec<InclusionProof>> {
        let paths = self.tree().inclusion_proofs(tree_size)?;
        Some(
            paths
                .into_iter()
                .enumerate()
                .map(|(i, path)| InclusionProof {
                    log_id: self.log_id(),
                    tree_size,
                    leaf_index: i as u64,
                    path,
                })
                .collect(),
        )
    }

    /// Consistency path between the prefixes of `old` and `new` entries.
    pub fn prove_consistency(&self, old: u64, new: u64) -> Option<ConsistencyProof> {
        Some(ConsistencyProof {
            log_id: self.log_id(),
            old_size: old,
            new_size: new,
            path: self.tree().consistency_proof(old, new)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use mtls_asn1::Asn1Time;
    use mtls_crypto::Keypair;
    use mtls_x509::{CertificateBuilder, DistinguishedName, GeneralName};

    #[test]
    fn mixed_case_lookups_on_both_sides_of_the_stack_buffer() {
        // Names of 253 bytes lower on the stack; longer ones on the heap.
        for len in [20, STACK_NAME - 1, STACK_NAME, STACK_NAME + 1, 600] {
            let name = format!("{}.example.org", "h".repeat(len - ".example.org".len()));
            let mut log = CtLog::new();
            let fingerprint = Fp::of(b"00");
            log.submit_entry(CtEntry {
                domain: name.clone(),
                issuer_display: "O=A".into(),
                fingerprint,
            });
            let upper = name.to_ascii_uppercase();
            let index = log.index();
            assert!(index.contains_domain(&upper), "{len}");
            assert!(index.domain_has_issuer(&upper, "O=A"), "{len}");
            assert!(index.exact_domain_has_issuer(&upper, "O=A"), "{len}");
            assert!(
                index.exact_domain_has_fingerprint(&upper, &fingerprint),
                "{len}"
            );
            assert!(!index.domain_has_issuer(&upper, "O=B"), "{len}");
        }
    }

    fn cert_for(domain: &str, org: &str) -> Certificate {
        let ca = CertificateAuthority::new_root(
            org.as_bytes(),
            DistinguishedName::builder().organization(org).build(),
            Asn1Time::from_ymd(2022, 5, 1),
        );
        let k = Keypair::from_seed(domain.as_bytes());
        ca.issue(
            CertificateBuilder::new()
                .subject(DistinguishedName::builder().common_name(domain).build())
                .san(vec![GeneralName::Dns(domain.into())])
                .validity(
                    Asn1Time::from_ymd(2022, 5, 1),
                    Asn1Time::from_ymd(2022, 8, 1),
                )
                .subject_key(k.key_id()),
        )
    }

    /// An entry whose fingerprint is the SHA-256 of the name `fp`.
    fn entry(domain: &str, issuer: &str, fp: &str) -> CtEntry {
        CtEntry {
            domain: domain.into(),
            issuer_display: issuer.into(),
            fingerprint: Fp::of(fp.as_bytes()),
        }
    }

    #[test]
    fn submit_and_lookup() {
        let mut log = CtLog::new();
        let cert = cert_for("www.example.org", "Let's Encrypt");
        log.submit(&cert);
        let index = log.index();
        assert!(index.contains_domain("www.example.org"));
        assert!(index.domain_has_issuer("www.example.org", "O=Let's Encrypt"));
        assert!(!index.domain_has_issuer("www.example.org", "O=Proxy Corp"));
        assert!(!index.contains_domain("other.example.org"));
    }

    #[test]
    fn multiple_issuers_per_domain() {
        let mut log = CtLog::new();
        log.submit(&cert_for("dual.example.org", "DigiCert Inc"));
        log.submit(&cert_for("dual.example.org", "Sectigo Limited"));
        assert_eq!(log.len(), 2);
        let index = log.index();
        assert!(index.domain_has_issuer("dual.example.org", "O=DigiCert Inc"));
        assert!(index.domain_has_issuer("dual.example.org", "O=Sectigo Limited"));
        assert!(index.exact_domain_has_issuer("dual.example.org", "O=Sectigo Limited"));
    }

    #[test]
    fn cn_is_indexed_once_when_equal_to_san() {
        let mut log = CtLog::new();
        log.submit(&cert_for("one.example.org", "CA"));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn empty_log() {
        let log = CtLog::new();
        assert!(log.is_empty());
        assert!(!log.index().contains_domain("nope"));
        assert!(!log.index().domain_has_issuer("nope", "O=CA"));
    }

    #[test]
    fn lookup_is_case_insensitive_both_ways() {
        let mut log = CtLog::new();
        log.submit(&cert_for("Example.COM", "DigiCert Inc"));
        // Stored lowercased; any case matches at lookup time.
        assert_eq!(log.entries()[0].domain, "example.com");
        let index = log.index();
        assert!(index.contains_domain("example.com"));
        assert!(index.contains_domain("EXAMPLE.com"));
        assert!(index.domain_has_issuer("eXaMpLe.CoM", "O=DigiCert Inc"));
        assert!(index.exact_domain_has_issuer("EXAMPLE.COM", "O=DigiCert Inc"));
        let fp = &log.entries()[0].fingerprint;
        assert!(index.exact_domain_has_fingerprint("Example.Com", fp));
    }

    #[test]
    fn resubmission_is_deduplicated() {
        let mut log = CtLog::new();
        let cert = cert_for("dup.example.org", "DigiCert Inc");
        log.submit(&cert);
        log.submit(&cert);
        assert_eq!(log.len(), 1);
        // A different certificate for the same domain still appends.
        log.submit(&cert_for("dup.example.org", "Sectigo Limited"));
        assert_eq!(log.len(), 2);
        // Deduplication is by lowercased domain: a case variant of a
        // logged (domain, fingerprint) pair is a no-op too.
        assert!(!log.submit_entry(CtEntry {
            domain: "DUP.example.org".into(),
            issuer_display: "O=CA".into(),
            fingerprint: cert.fingerprint().to_fp(),
        }));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn from_entries_round_trips() {
        let mut log = CtLog::new();
        log.submit(&cert_for("a.example.org", "DigiCert Inc"));
        log.submit(&cert_for("B.example.org", "Sectigo Limited"));
        log.submit(&cert_for("a.example.org", "Let's Encrypt"));
        let rebuilt = CtLog::from_entries(log.entries().to_vec());
        assert_eq!(rebuilt.entries(), log.entries());
        assert_eq!(rebuilt.log_id(), log.log_id());
        assert_eq!(rebuilt.sth(7), log.sth(7));
    }

    /// A loaded log hashes its tree only when asked; its heads and proofs
    /// equal an eagerly built log's whether the tree was hashed before or
    /// after further submissions.
    #[test]
    fn a_loaded_log_proves_what_an_eager_log_proves() {
        let mut eager = CtLog::new();
        for i in 0..5 {
            eager.submit_entry(entry(&format!("h{i}.example.org"), "O=CA", &format!("{i}")));
        }
        let mut asked_first = CtLog::from_entries(eager.entries().to_vec());
        let mut asked_after = CtLog::from_entries(eager.entries().to_vec());
        assert_eq!(asked_first.sth(1), eager.sth(1));
        for i in 5..11 {
            let more = entry(&format!("h{i}.example.org"), "O=CA", &format!("{i}"));
            eager.submit_entry(more.clone());
            asked_first.submit_entry(more.clone());
            asked_after.submit_entry(more);
        }
        for log in [&asked_first, &asked_after] {
            assert_eq!(log.entries(), eager.entries());
            assert_eq!(log.sth(9), eager.sth(9));
            assert_eq!(log.sth_at(7, 3), eager.sth_at(7, 3));
            for i in 0..11 {
                assert_eq!(log.prove_inclusion(i, 11), eager.prove_inclusion(i, 11));
            }
            assert_eq!(log.prove_consistency(5, 11), eager.prove_consistency(5, 11));
            assert_eq!(log.prove_consistency(3, 8), eager.prove_consistency(3, 8));
            assert_eq!(log.prove_all_inclusions(11), eager.prove_all_inclusions(11));
        }
    }

    #[test]
    fn wildcard_matches_exactly_one_label() {
        let mut log = CtLog::new();
        log.submit_entry(entry("*.example.com", "O=DigiCert Inc", "aa"));
        let index = log.index();
        assert!(index.contains_domain("www.example.com"));
        assert!(index.domain_has_issuer("www.example.com", "O=DigiCert Inc"));
        assert!(index.domain_has_issuer("WWW.Example.Com", "O=DigiCert Inc"));
        // No partial-label, multi-label, or bare-apex matches.
        assert!(!index.contains_domain("example.com"));
        assert!(!index.contains_domain("a.b.example.com"));
        assert!(!index.domain_has_issuer("example.com", "O=DigiCert Inc"));
        // A wildcard lookup matches the wildcard entry itself, and a
        // partial-wildcard name never matches through the wildcard.
        assert!(index.contains_domain("*.example.com"));
        assert!(!index.contains_domain("w*.example.com"));
        // The exact lookups never expand the wildcard.
        assert!(!index.exact_domain_has_issuer("www.example.com", "O=DigiCert Inc"));
        assert!(index.exact_domain_has_issuer("*.example.com", "O=DigiCert Inc"));
        // `*.com` would be an effective-TLD wildcard; never consulted.
        let mut tld = CtLog::new();
        tld.submit_entry(entry("*.com", "O=Evil", "bb"));
        assert!(!tld.index().contains_domain("example.com"));
    }

    #[test]
    fn wildcard_and_exact_entries_both_answer() {
        let mut log = CtLog::new();
        log.submit_entry(entry("www.example.com", "O=First", "01"));
        log.submit_entry(entry("*.example.com", "O=Second", "02"));
        log.submit_entry(entry("www.example.com", "O=Third", "03"));
        let index = log.index();
        for issuer in ["O=First", "O=Second", "O=Third"] {
            assert!(index.domain_has_issuer("www.example.com", issuer));
        }
        let (fp2, fp3) = (Fp::of(b"02"), Fp::of(b"03"));
        assert!(index.exact_domain_has_fingerprint("www.example.com", &fp3));
        assert!(index.exact_domain_has_fingerprint("*.example.com", &fp2));
        assert!(!index.exact_domain_has_fingerprint("www.example.com", &fp2));
        assert!(!index.exact_domain_has_fingerprint("example.com", &fp2));
    }

    #[test]
    fn sths_and_proofs_verify() {
        let mut log = CtLog::new();
        for i in 0..9 {
            log.submit_entry(entry(
                &format!("h{i}.example.org"),
                "O=CA",
                &format!("{i:02x}"),
            ));
        }
        let mut registry = mtls_crypto::KeyRegistry::new();
        registry.register(log.keypair().clone());
        let sth = log.sth(100);
        assert!(sth.verify(&registry));
        let old = log.sth_at(4, 50).unwrap();
        assert!(log.prove_consistency(4, 9).unwrap().verify(&old, &sth));
        for i in 0..9u64 {
            let proof = log.prove_inclusion(i, 9).unwrap();
            let entry = &log.entries()[i as usize];
            // The leaf is the entry's `ct.log` line.
            let line = format!(
                "{}\t{}\t{}",
                entry.domain, entry.issuer_display, entry.fingerprint
            );
            assert_eq!(
                CtLog::leaf_hash(entry),
                crate::merkle::leaf_hash(line.as_bytes())
            );
            assert!(proof.verify(&CtLog::leaf_hash(entry), &sth));
        }
    }
}
