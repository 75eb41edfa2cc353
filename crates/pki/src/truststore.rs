//! Root programs and the paper's public/private decision procedure.
//!
//! The paper (§3.2.1) deems a certificate *issued by a public CA* "when its
//! root or intermediate certificate, or its issuer, is listed in at least
//! one of the major trust stores" (Mozilla NSS, Apple, Microsoft, CCADB).
//! [`TrustAnchors`] models the four programs with overlapping memberships,
//! and [`TrustAnchors::is_public_chain`] implements exactly that test.

use mtls_x509::{Certificate, DistinguishedName, Fingerprint};
use std::collections::{HashMap, HashSet};

/// The four root programs the paper consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootProgram {
    MozillaNss,
    Apple,
    Microsoft,
    Ccadb,
}

impl RootProgram {
    /// All programs, in the paper's citation order.
    pub const ALL: [RootProgram; 4] = [
        RootProgram::MozillaNss,
        RootProgram::Apple,
        RootProgram::Microsoft,
        RootProgram::Ccadb,
    ];
}

/// One root program's store: trusted certificate fingerprints plus the
/// issuer DN strings they answer for (the paper's "or its issuer" clause).
#[derive(Debug, Clone, Default)]
pub struct TrustStore {
    fingerprints: HashSet<Fingerprint>,
    issuer_dns: HashSet<String>,
}

impl TrustStore {
    /// Empty store.
    pub fn new() -> TrustStore {
        TrustStore::default()
    }

    /// Add a trusted (root or intermediate) certificate.
    pub fn add_certificate(&mut self, cert: &Certificate) {
        self.fingerprints.insert(cert.fingerprint());
        self.issuer_dns.insert(cert.subject().to_display_string());
    }

    /// Whether the certificate itself is a member.
    pub fn contains_certificate(&self, cert: &Certificate) -> bool {
        self.fingerprints.contains(&cert.fingerprint())
    }

    /// Number of anchors.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// Whether the store holds no anchors.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }
}

/// The union of the four root programs.
#[derive(Debug, Clone, Default)]
pub struct TrustAnchors {
    stores: HashMap<RootProgram, TrustStore>,
}

impl TrustAnchors {
    /// Empty set of programs.
    pub fn new() -> TrustAnchors {
        let mut stores = HashMap::new();
        for p in RootProgram::ALL {
            stores.insert(p, TrustStore::new());
        }
        TrustAnchors { stores }
    }

    /// Add a CA certificate to specific programs. Real programs overlap but
    /// are not identical; the simulator exercises partial membership.
    pub fn add_to(&mut self, programs: &[RootProgram], cert: &Certificate) {
        for p in programs {
            self.stores
                .get_mut(p)
                .expect("all programs pre-created")
                .add_certificate(cert);
        }
    }

    /// Add to all four programs.
    pub fn add_to_all(&mut self, cert: &Certificate) {
        self.add_to(&RootProgram::ALL, cert);
    }

    /// One program's store.
    pub fn store(&self, program: RootProgram) -> &TrustStore {
        &self.stores[&program]
    }

    /// The paper's §3.2.1 public test on a single certificate: its issuer DN
    /// is listed in ≥ 1 program. The DN is rendered once, not per program.
    pub fn is_public_issuer(&self, issuer: &DistinguishedName) -> bool {
        let dn = issuer.to_display_string();
        self.stores.values().any(|s| s.issuer_dns.contains(&dn))
    }

    /// Whether a given CA certificate is a member of ≥ 1 program. The
    /// certificate is hashed once, not per program.
    pub fn is_anchored(&self, cert: &Certificate) -> bool {
        let fp = cert.fingerprint();
        self.stores.values().any(|s| s.fingerprints.contains(&fp))
    }

    /// The full §3.2.1 test over a presented chain (`leaf` first, then any
    /// intermediates): public iff the leaf's issuer DN is listed, or any
    /// presented chain certificate is itself an anchor, or any chain
    /// certificate's issuer DN is listed.
    pub fn is_public_chain(&self, leaf: &Certificate, chain: &[Certificate]) -> bool {
        if self.is_public_issuer(leaf.issuer()) {
            return true;
        }
        chain
            .iter()
            .any(|c| self.is_anchored(c) || self.is_public_issuer(c.issuer()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use mtls_asn1::Asn1Time;
    use mtls_crypto::Keypair;
    use mtls_x509::CertificateBuilder;

    fn t0() -> Asn1Time {
        Asn1Time::from_ymd(2022, 5, 1)
    }

    fn public_root() -> CertificateAuthority {
        CertificateAuthority::new_root(
            b"public-root",
            DistinguishedName::builder()
                .organization("DigiCert Inc")
                .common_name("DigiCert Global Root")
                .build(),
            t0(),
        )
    }

    fn private_root() -> CertificateAuthority {
        CertificateAuthority::new_root(
            b"private-root",
            DistinguishedName::builder()
                .organization("Globus Online")
                .common_name("FXP DCAU Cert")
                .build(),
            t0(),
        )
    }

    fn leaf_of(ca: &CertificateAuthority, cn: &str) -> Certificate {
        let k = Keypair::from_seed(cn.as_bytes());
        ca.issue(
            CertificateBuilder::new()
                .subject(DistinguishedName::builder().common_name(cn).build())
                .validity(t0(), t0().add_days(90))
                .subject_key(k.key_id()),
        )
    }

    #[test]
    fn public_issuer_detected_via_dn() {
        let mut anchors = TrustAnchors::new();
        let root = public_root();
        anchors.add_to_all(root.certificate());
        let leaf = leaf_of(&root, "www.example.com");
        assert!(anchors.is_public_issuer(leaf.issuer()));
        assert!(anchors.is_public_chain(&leaf, &[]));
    }

    #[test]
    fn private_issuer_not_public() {
        let mut anchors = TrustAnchors::new();
        anchors.add_to_all(public_root().certificate());
        let root = private_root();
        let leaf = leaf_of(&root, "transfer-node");
        assert!(!anchors.is_public_issuer(leaf.issuer()));
        assert!(!anchors.is_public_chain(&leaf, &[root.certificate().clone()]));
    }

    #[test]
    fn membership_in_one_program_suffices() {
        let mut anchors = TrustAnchors::new();
        let root = public_root();
        anchors.add_to(&[RootProgram::Microsoft], root.certificate());
        let leaf = leaf_of(&root, "single-program.example");
        assert!(anchors.is_public_chain(&leaf, &[]));
        assert!(anchors
            .store(RootProgram::Microsoft)
            .contains_certificate(root.certificate()));
        assert!(anchors.store(RootProgram::MozillaNss).is_empty());
    }

    #[test]
    fn intermediate_membership_makes_chain_public() {
        // Paper: "root (or intermediate) certificates included in major
        // root stores" — the intermediate alone being anchored is enough.
        let mut anchors = TrustAnchors::new();
        let root = private_root(); // root NOT in stores
        let int = CertificateAuthority::new_intermediate(
            &root,
            b"trusted-int",
            DistinguishedName::builder()
                .organization("Trusted Sub CA")
                .build(),
            t0(),
        );
        anchors.add_to(&[RootProgram::Ccadb], int.certificate());
        let leaf = leaf_of(&int, "via-intermediate.example");
        assert!(anchors.is_public_chain(&leaf, &[int.certificate().clone()]));
        // Without presenting the intermediate, the leaf issuer DN is also
        // listed (added via add_certificate), so still public.
        assert!(anchors.is_public_chain(&leaf, &[]));
    }

    #[test]
    fn empty_issuer_is_never_public() {
        let anchors = TrustAnchors::new();
        assert!(!anchors.is_public_issuer(&DistinguishedName::empty()));
    }
}
