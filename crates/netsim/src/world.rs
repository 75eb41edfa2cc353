//! The synthetic world: CAs, trust anchors, and the campus address plan.

use crate::config::SimConfig;
use crate::ipplan::IpPlan;
use mtls_asn1::Asn1Time;
use mtls_pki::{CertificateAuthority, RootProgram, TrustAnchors};
use mtls_x509::DistinguishedName;
use std::cell::RefCell;
use std::collections::HashMap;

/// A publicly trusted CA: root in ≥ 1 root program, plus one issuing
/// intermediate (which is what leaf issuer DNs actually name).
#[derive(Debug, Clone)]
pub struct PublicCa {
    pub org: &'static str,
    pub root: CertificateAuthority,
    pub intermediate: CertificateAuthority,
}

/// The campus the data is collected from. Fictional, but structured like
/// the paper's: ~10 000 staff, 23 000 students, a health system, a VPN.
pub const CAMPUS_ORG: &str = "Commonwealth University";
pub const CAMPUS_HEALTH_ORG: &str = "Commonwealth University Health System";

/// The (public) device-fleet CAs whose issuer strings make random CNs
/// "recognizable by issuer" in Table 9.
pub const AZURE_SPHERE_ISSUER: &str = "Microsoft Azure Sphere";
pub const APPLE_DEVICE_ISSUER: &str = "Apple iPhone Device CA";

/// Everything scenarios need to mint certificates and attribute addresses.
pub struct World {
    pub plan: IpPlan,
    pub anchors: TrustAnchors,
    /// Public CAs by organization, in a fixed order.
    pub public_cas: Vec<PublicCa>,
    /// Campus private CAs (Education-category issuers).
    pub campus_user_ca: CertificateAuthority,
    pub campus_health_ca: CertificateAuthority,
    pub campus_vpn_ca: CertificateAuthority,
    pub campus_server_ca: CertificateAuthority,
    /// On-demand private CAs, keyed by issuer organization string.
    private_cas: RefCell<HashMap<String, CertificateAuthority>>,
    /// Reference time (start of study).
    pub start: Asn1Time,
}

/// Public CA roster: organization name and which root programs carry it.
const PUBLIC_CA_ROSTER: &[(&str, &[RootProgram])] = &[
    ("Let's Encrypt", &RootProgram::ALL),
    ("DigiCert Inc", &RootProgram::ALL),
    ("Sectigo Limited", &RootProgram::ALL),
    ("GoDaddy.com, Inc", &RootProgram::ALL),
    ("IdenTrust", &RootProgram::ALL),
    ("Amazon Trust Services", &RootProgram::ALL),
    (
        "Apple Inc.",
        &[
            RootProgram::Apple,
            RootProgram::Ccadb,
            RootProgram::MozillaNss,
        ],
    ),
    (
        "Microsoft Corporation",
        &[RootProgram::Microsoft, RootProgram::Ccadb],
    ),
    ("Entrust, Inc.", &RootProgram::ALL),
    // FNMT-RCM: the issuer behind every unidentifiable public-CA server CN
    // in the paper (§6.3.1). Only in CCADB here, still public.
    ("FNMT-RCM", &[RootProgram::Ccadb]),
    // Device-fleet CAs: public, with generator-recognizable issuer CNs.
    (
        AZURE_SPHERE_ISSUER,
        &[RootProgram::Microsoft, RootProgram::Ccadb],
    ),
    (
        APPLE_DEVICE_ISSUER,
        &[RootProgram::Apple, RootProgram::Ccadb],
    ),
];

impl World {
    /// Deterministically build the world from the config seed.
    pub fn build(config: &SimConfig) -> World {
        let start = Asn1Time::from_ymd(2022, 5, 1);
        let mut anchors = TrustAnchors::new();
        let mut public_cas = Vec::new();
        for (org, programs) in PUBLIC_CA_ROSTER {
            let root = CertificateAuthority::new_root(
                format!("pub-root:{}:{}", org, config.seed).as_bytes(),
                DistinguishedName::builder()
                    .organization(*org)
                    .common_name(format!("{org} Root CA"))
                    .build(),
                start,
            );
            let intermediate = CertificateAuthority::new_intermediate(
                &root,
                format!("pub-int:{}:{}", org, config.seed).as_bytes(),
                DistinguishedName::builder()
                    .organization(*org)
                    .common_name(issuing_cn(org))
                    .build(),
                start,
            );
            anchors.add_to(programs, root.certificate());
            anchors.add_to(programs, intermediate.certificate());
            public_cas.push(PublicCa {
                org,
                root,
                intermediate,
            });
        }

        let campus = |seed: &str, org: &str, cn: &str| {
            CertificateAuthority::new_root(
                format!("campus:{}:{}", seed, config.seed).as_bytes(),
                DistinguishedName::builder()
                    .organization(org)
                    .common_name(cn)
                    .build(),
                start,
            )
        };

        World {
            plan: IpPlan::standard(),
            anchors,
            public_cas,
            campus_user_ca: campus("user", CAMPUS_ORG, "Campus User CA"),
            campus_health_ca: campus("health", CAMPUS_HEALTH_ORG, "Health System Device CA"),
            campus_vpn_ca: campus("vpn", CAMPUS_ORG, "Campus VPN CA"),
            campus_server_ca: campus("server", CAMPUS_ORG, "Campus Server CA"),
            private_cas: RefCell::new(HashMap::new()),
            start,
        }
    }

    /// The public CA with the given organization.
    pub fn public_ca(&self, org: &str) -> &PublicCa {
        self.public_cas
            .iter()
            .find(|c| c.org == org)
            .unwrap_or_else(|| panic!("unknown public CA {org}"))
    }

    /// A private CA for the given organization, created on first use.
    /// Deterministic per organization string. An empty `org` produces a CA
    /// whose name is completely empty (the *MissingIssuer* population).
    pub fn private_ca(&self, org: &str) -> CertificateAuthority {
        self.private_cas
            .borrow_mut()
            .entry(org.to_string())
            .or_insert_with(|| {
                let name = if org.is_empty() {
                    DistinguishedName::empty()
                } else {
                    DistinguishedName::builder().organization(org).build()
                };
                CertificateAuthority::new_root(format!("priv:{org}").as_bytes(), name, self.start)
            })
            .clone()
    }

    /// A private CA with an explicit CN as well as organization (Globus's
    /// issuer CN is "FXP DCAU Cert" in the paper).
    pub fn private_ca_with_cn(&self, org: &str, cn: &str) -> CertificateAuthority {
        let key = format!("{org}\u{0}{cn}");
        self.private_cas
            .borrow_mut()
            .entry(key.clone())
            .or_insert_with(|| {
                CertificateAuthority::new_root(
                    format!("priv-cn:{key}").as_bytes(),
                    DistinguishedName::builder()
                        .organization(org)
                        .common_name(cn)
                        .build(),
                    self.start,
                )
            })
            .clone()
    }

    /// Campus issuer organization strings (the analysis treats these as
    /// the campus CAs for user-account attribution and the Education
    /// category).
    pub fn campus_issuer_orgs(&self) -> Vec<String> {
        vec![CAMPUS_ORG.to_string(), CAMPUS_HEALTH_ORG.to_string()]
    }
}

/// A plausible issuing-CA CN per organization (matches the footnotes of the
/// paper's Table 5).
fn issuing_cn(org: &str) -> String {
    match org {
        "Let's Encrypt" => "R3".to_string(),
        "DigiCert Inc" => "GeoTrust TLS RSA CA G1".to_string(),
        "GoDaddy.com, Inc" => "GoDaddy Secure Certificate Authority - G2".to_string(),
        "IdenTrust" => "TrustID Server CA O1".to_string(),
        "Sectigo Limited" => "Sectigo RSA Domain Validation Secure Server CA".to_string(),
        other => format!("{other} TLS CA 1"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::build(&SimConfig::default())
    }

    #[test]
    fn public_cas_are_anchored() {
        let w = world();
        for ca in &w.public_cas {
            assert!(w.anchors.is_anchored(ca.root.certificate()), "{}", ca.org);
            assert!(
                w.anchors
                    .is_public_issuer(ca.intermediate.certificate().issuer()),
                "{}",
                ca.org
            );
        }
    }

    #[test]
    fn campus_cas_are_private() {
        let w = world();
        for ca in [
            &w.campus_user_ca,
            &w.campus_health_ca,
            &w.campus_vpn_ca,
            &w.campus_server_ca,
        ] {
            assert!(!w.anchors.is_anchored(ca.certificate()));
            assert!(!w.anchors.is_public_issuer(ca.name()));
        }
    }

    #[test]
    fn private_ca_cache_is_deterministic() {
        let w = world();
        let a = w.private_ca("Globus Online");
        let b = w.private_ca("Globus Online");
        assert_eq!(a.certificate().fingerprint(), b.certificate().fingerprint());
        let c = w.private_ca("GuardiCore");
        assert_ne!(a.certificate().fingerprint(), c.certificate().fingerprint());
    }

    #[test]
    fn empty_org_gives_missing_issuer() {
        let w = world();
        let ca = w.private_ca("");
        assert!(ca.name().is_empty());
    }

    #[test]
    fn lookup_known_public() {
        let w = world();
        assert_eq!(w.public_ca("DigiCert Inc").org, "DigiCert Inc");
        assert_eq!(
            w.public_ca("GoDaddy.com, Inc")
                .intermediate
                .name()
                .common_name(),
            Some("GoDaddy Secure Certificate Authority - G2")
        );
    }

    #[test]
    #[should_panic(expected = "unknown public CA")]
    fn unknown_public_panics() {
        world().public_ca("Nonexistent CA");
    }
}
