//! Client-chain authorization: from presented DER blobs to a tenant.
//!
//! `mtlscope serve` terminates mutual TLS and must answer "who is this
//! client and may they talk to us?" from nothing but the certificate
//! chain the peer presented. This module maps a presented chain through
//! [`validate_chain`] and a [`ValidationPolicy`] to a [`Tenant`]: a
//! stable identity (the leaf CN, with the fingerprint as fallback —
//! mirroring the paper's observation that CN is the de-facto identity
//! field in real mTLS deployments) plus the quota class the server's
//! token buckets key on.

use crate::chain::{validate_chain, ChainError};
use crate::policy::{ValidationPolicy, Violation};
use crate::truststore::TrustAnchors;
use mtls_asn1::Asn1Time;
use mtls_crypto::{hex, sha256, KeyRegistry};
use mtls_x509::Certificate;

/// Why a client chain was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthzError {
    /// The peer presented no certificate at all.
    NoCertificate,
    /// A presented blob did not parse as DER X.509.
    Malformed,
    /// Path building/verification failed.
    Chain(ChainError),
    /// The path verified but the leaf violates the policy.
    Policy(Vec<Violation>),
}

impl std::fmt::Display for AuthzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthzError::NoCertificate => f.write_str("no client certificate presented"),
            AuthzError::Malformed => f.write_str("client certificate is not valid DER"),
            AuthzError::Chain(e) => write!(f, "chain validation failed: {e}"),
            AuthzError::Policy(v) => {
                let labels: Vec<&str> = v.iter().map(|x| x.label()).collect();
                write!(f, "policy violations: {}", labels.join(", "))
            }
        }
    }
}

impl std::error::Error for AuthzError {}

/// Leaf-certificate OU marking an operations-class tenant: clients in
/// this organizational unit may pull the live metrics/flight-recorder
/// snapshot (`REQ_METRICS`) from a running server. Authorization rides
/// on the certificate itself — the same chain that identifies the
/// tenant also carries its privilege class, so no side-channel ACL.
pub const OPS_ORGANIZATIONAL_UNIT: &str = "mtlscope-ops";

/// The identity a validated client chain maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tenant {
    /// Stable tenant name: the leaf CN, else `fp:<first 16 fingerprint
    /// hex digits>` for CN-less certificates.
    pub name: String,
    /// The leaf's issuer organization, if named.
    pub issuer_org: Option<String>,
    /// Whether the chain terminates at a public root program anchor.
    pub publicly_trusted: bool,
    /// Requests/second this tenant's token bucket refills at.
    pub quota_per_sec: u32,
    /// Whether the leaf's OU is [`OPS_ORGANIZATIONAL_UNIT`] — grants
    /// access to the admin metrics frame.
    pub ops: bool,
}

/// What an accepted client chain yields: the tenant, and the leaf as the
/// authorizer parsed it, so a caller (the server's privacy meter) reads
/// its fields without parsing the DER again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Authorized {
    /// The identity the chain maps to.
    pub tenant: Tenant,
    /// The presented leaf, parsed.
    pub leaf: Certificate,
}

/// Chain-validation + policy gate, configured once at server startup.
pub struct Authorizer {
    /// Root programs the server recognizes.
    pub anchors: TrustAnchors,
    /// Key registry for signature verification along the path.
    pub registry: KeyRegistry,
    /// Leaf policy. [`ValidationPolicy::enterprise`] accepts private
    /// anchors (the dominant mTLS reality the paper measures) while
    /// refusing the §5 pathologies.
    pub policy: ValidationPolicy,
    /// Quota granted to publicly-anchored tenants.
    pub quota_public: u32,
    /// Quota granted to privately-anchored tenants.
    pub quota_private: u32,
}

impl Authorizer {
    /// Validate a presented chain (leaf first, DER blobs) and derive the
    /// tenant. `now` is the validation time.
    pub fn authorize(
        &self,
        chain_der: &[Vec<u8>],
        now: Asn1Time,
    ) -> Result<Authorized, AuthzError> {
        let leaf_der = chain_der.first().ok_or(AuthzError::NoCertificate)?;
        let leaf = Certificate::from_der(leaf_der).map_err(|_| AuthzError::Malformed)?;
        let candidates: Vec<Certificate> = chain_der[1..]
            .iter()
            .map(|der| Certificate::from_der(der).map_err(|_| AuthzError::Malformed))
            .collect::<Result<_, _>>()?;

        let publicly_trusted =
            match validate_chain(&leaf, &candidates, &self.anchors, &self.registry, now) {
                Ok(vc) => vc.publicly_trusted,
                // A path that verifies but ends at a private anchor is the
                // paper's normal case; only a policy that demands public
                // trust refuses it.
                Err(ChainError::UntrustedRoot) if !self.policy.require_trusted_issuer => false,
                Err(e) => return Err(AuthzError::Chain(e)),
            };

        let violations = self.policy.evaluate(&leaf, now, false, Some(&self.anchors));
        if !violations.is_empty() {
            return Err(AuthzError::Policy(violations));
        }

        let name = match leaf.subject().common_name() {
            Some(cn) if !cn.trim().is_empty() => cn.to_string(),
            _ => format!("fp:{}", &hex::encode(&sha256(leaf_der))[..16]),
        };
        let tenant = Tenant {
            name,
            issuer_org: leaf.issuer().organization().map(str::to_owned),
            publicly_trusted,
            quota_per_sec: if publicly_trusted {
                self.quota_public
            } else {
                self.quota_private
            },
            ops: leaf.subject().organizational_unit() == Some(OPS_ORGANIZATIONAL_UNIT),
        };
        Ok(Authorized { tenant, leaf })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::truststore::RootProgram;
    use mtls_crypto::Keypair;
    use mtls_x509::{CertificateBuilder, DistinguishedName};

    fn now() -> Asn1Time {
        Asn1Time::from_ymd(2022, 6, 1)
    }

    fn ca(seed: &[u8], org: &str) -> CertificateAuthority {
        CertificateAuthority::new_root(
            seed,
            DistinguishedName::builder().organization(org).build(),
            Asn1Time::from_ymd(2022, 1, 1),
        )
    }

    fn leaf_der(ca: &CertificateAuthority, cn: &str) -> Vec<u8> {
        let key = Keypair::from_seed(cn.as_bytes());
        ca.issue(
            CertificateBuilder::new()
                .subject(DistinguishedName::builder().common_name(cn).build())
                .validity(
                    Asn1Time::from_ymd(2022, 1, 1),
                    Asn1Time::from_ymd(2023, 1, 1),
                )
                .subject_key(key.key_id()),
        )
        .to_der()
    }

    fn authorizer(root: &CertificateAuthority, public: bool) -> Authorizer {
        let mut anchors = TrustAnchors::new();
        let mut registry = KeyRegistry::new();
        root.register_key(&mut registry);
        if public {
            anchors.add_to(&[RootProgram::MozillaNss], root.certificate());
        }
        Authorizer {
            anchors,
            registry,
            policy: ValidationPolicy::enterprise(),
            quota_public: 500,
            quota_private: 100,
        }
    }

    #[test]
    fn private_chain_maps_to_private_tenant() {
        let root = ca(b"corp-root", "Acme Corp CA");
        let auth = authorizer(&root, false);
        let chain = vec![leaf_der(&root, "builder-7"), root.certificate().to_der()];
        let Authorized { tenant: t, leaf } = auth.authorize(&chain, now()).unwrap();
        assert_eq!(t.name, "builder-7");
        assert_eq!(leaf.to_der(), chain[0], "the parsed leaf comes back");
        assert!(!t.publicly_trusted);
        assert_eq!(t.quota_per_sec, 100);
        assert_eq!(t.issuer_org.as_deref(), Some("Acme Corp CA"));
    }

    #[test]
    fn anchored_chain_gets_public_quota() {
        let root = ca(b"pub-root", "BigTrust Inc");
        let auth = authorizer(&root, true);
        let chain = vec![
            leaf_der(&root, "svc.example.com"),
            root.certificate().to_der(),
        ];
        let t = auth.authorize(&chain, now()).unwrap().tenant;
        assert!(t.publicly_trusted);
        assert_eq!(t.quota_per_sec, 500);
    }

    #[test]
    fn empty_chain_refused() {
        let root = ca(b"r", "R");
        assert_eq!(
            authorizer(&root, false).authorize(&[], now()),
            Err(AuthzError::NoCertificate)
        );
    }

    #[test]
    fn garbage_leaf_refused() {
        let root = ca(b"r2", "R2");
        assert_eq!(
            authorizer(&root, false).authorize(&[b"junk".to_vec()], now()),
            Err(AuthzError::Malformed)
        );
    }

    #[test]
    fn expired_leaf_refused_by_chain_check() {
        let root = ca(b"r3", "R3");
        let key = Keypair::from_seed(b"old");
        let der = root
            .issue(
                CertificateBuilder::new()
                    .subject(DistinguishedName::builder().common_name("old").build())
                    .validity(
                        Asn1Time::from_ymd(2022, 1, 1),
                        Asn1Time::from_ymd(2022, 2, 1),
                    )
                    .subject_key(key.key_id()),
            )
            .to_der();
        let err = authorizer(&root, false)
            .authorize(&[der, root.certificate().to_der()], now())
            .unwrap_err();
        assert_eq!(err, AuthzError::Chain(ChainError::Expired));
    }

    #[test]
    fn strict_policy_refuses_private_anchor() {
        let root = ca(b"r4", "Private Only CA");
        let mut auth = authorizer(&root, false);
        auth.policy = ValidationPolicy::strict();
        let err = auth
            .authorize(&[leaf_der(&root, "x"), root.certificate().to_der()], now())
            .unwrap_err();
        assert_eq!(err, AuthzError::Chain(ChainError::UntrustedRoot));
    }

    #[test]
    fn ops_class_rides_on_the_leaf_ou() {
        let root = ca(b"ops-root", "Ops CA");
        let auth = authorizer(&root, false);
        let key = Keypair::from_seed(b"ops-operator");
        let ops_der = root
            .issue(
                CertificateBuilder::new()
                    .subject(
                        DistinguishedName::builder()
                            .common_name("operator-1")
                            .organizational_unit(OPS_ORGANIZATIONAL_UNIT)
                            .build(),
                    )
                    .validity(
                        Asn1Time::from_ymd(2022, 1, 1),
                        Asn1Time::from_ymd(2023, 1, 1),
                    )
                    .subject_key(key.key_id()),
            )
            .to_der();
        let t = auth
            .authorize(&[ops_der, root.certificate().to_der()], now())
            .unwrap()
            .tenant;
        assert!(t.ops, "OU {OPS_ORGANIZATIONAL_UNIT} grants ops class");

        // A plain tenant (no OU, or a different one) is not ops.
        let plain = auth
            .authorize(
                &[leaf_der(&root, "plain"), root.certificate().to_der()],
                now(),
            )
            .unwrap()
            .tenant;
        assert!(!plain.ops);
    }

    #[test]
    fn cnless_leaf_gets_fingerprint_name() {
        let root = ca(b"r5", "NoCN CA");
        let key = Keypair::from_seed(b"anon");
        let der = root
            .issue(
                CertificateBuilder::new()
                    .subject(
                        DistinguishedName::builder()
                            .organization("Anon Org")
                            .build(),
                    )
                    .validity(
                        Asn1Time::from_ymd(2022, 1, 1),
                        Asn1Time::from_ymd(2023, 1, 1),
                    )
                    .subject_key(key.key_id()),
            )
            .to_der();
        let t = authorizer(&root, false)
            .authorize(&[der, root.certificate().to_der()], now())
            .unwrap()
            .tenant;
        assert!(t.name.starts_with("fp:"), "{}", t.name);
        assert_eq!(t.name.len(), 3 + 16);
    }
}
