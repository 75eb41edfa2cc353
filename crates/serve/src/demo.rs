//! A self-contained demo world for the serve stack: a private CA, a
//! server identity, tenant client chains (one valid, one expired), and a
//! verdict context matching the offline campus analysis. The e2e tests
//! (`crates/serve/tests/e2e.rs`, `served_*` among them), `mtlscope serve`
//! and `mtlscope metrics` all start from here so they exercise the same
//! credentials.

use crate::server::ServerConfig;
use crate::tls::EndpointConfig;
use mtls_asn1::Asn1Time;
use mtls_core::testutil;
use mtls_core::verdict::VerdictContext;
use mtls_crypto::{Fp, KeyRegistry, Keypair};
use mtls_obs::Obs;
use mtls_pki::{Authorizer, CertificateAuthority, CtLog, TrustAnchors, ValidationPolicy};
use mtls_x509::{CertificateBuilder, DistinguishedName, GeneralName};

/// The demo epoch: validation happens mid-2022, inside every minted
/// chain's validity window (matching the offline testutil corpus).
pub fn demo_now() -> Asn1Time {
    Asn1Time::from_ymd(2022, 6, 1)
}

/// Credentials and sample inputs for a demo serve deployment.
pub struct DemoWorld {
    /// The private root everything chains to.
    pub root: CertificateAuthority,
    /// What the server presents.
    pub server_endpoint: EndpointConfig,
    /// A valid tenant chain (CN `tenant-alpha`).
    pub tenant_endpoint: EndpointConfig,
    /// An expired tenant chain the authorizer must refuse.
    pub expired_endpoint: EndpointConfig,
    /// An ops-class tenant chain (CN `tenant-ops`, OU
    /// [`mtls_pki::OPS_ORGANIZATIONAL_UNIT`]) — allowed to pull the
    /// `REQ_METRICS` admin frame.
    pub ops_endpoint: EndpointConfig,
    /// A chain minted by a rogue CA whose key the demo authorizer never
    /// registered: the chain carries its own "root", but the issuer
    /// signature cannot be verified, so authorization fails with
    /// `ChainError::BadSignature` — the "unknown tenant" planted
    /// failure.
    pub rogue_endpoint: EndpointConfig,
    /// A standalone DER blob to submit as a `REQ_DER` workload.
    pub sample_der: Vec<u8>,
    /// A two-row Zeek `x509.log` shard to submit as `REQ_SHARD`.
    pub sample_shard: Vec<u8>,
}

fn issue_der(root: &CertificateAuthority, cn: &str, from: Asn1Time, to: Asn1Time) -> Vec<u8> {
    let key = Keypair::from_seed(cn.as_bytes());
    root.issue(
        CertificateBuilder::new()
            .subject(DistinguishedName::builder().common_name(cn).build())
            .san(vec![GeneralName::Dns(cn.into())])
            .validity(from, to)
            .subject_key(key.key_id()),
    )
    .to_der()
}

/// Build the demo world deterministically (same bytes every run).
pub fn demo_world() -> DemoWorld {
    let root = CertificateAuthority::new_root(
        b"serve-demo-root",
        DistinguishedName::builder()
            .organization("Commonwealth University")
            .common_name("Commonwealth University Root CA")
            .build(),
        Asn1Time::from_ymd(2022, 1, 1),
    );
    let ok_from = Asn1Time::from_ymd(2022, 1, 1);
    let ok_to = Asn1Time::from_ymd(2023, 1, 1);
    let root_der = root.certificate().to_der();

    let server_endpoint = EndpointConfig {
        chain: vec![
            issue_der(&root, "mtlscope-serve.campus.example", ok_from, ok_to),
            root_der.clone(),
        ],
        random_seed: 0x5e12,
    };
    let tenant_endpoint = EndpointConfig {
        chain: vec![
            issue_der(&root, "tenant-alpha", ok_from, ok_to),
            root_der.clone(),
        ],
        random_seed: 0xa11a,
    };
    let expired_endpoint = EndpointConfig {
        chain: vec![
            issue_der(
                &root,
                "tenant-stale",
                Asn1Time::from_ymd(2021, 1, 1),
                Asn1Time::from_ymd(2021, 6, 1),
            ),
            root_der.clone(),
        ],
        random_seed: 0xdead,
    };

    // Ops identity: same root, leaf carries the ops OU.
    let ops_key = Keypair::from_seed(b"tenant-ops");
    let ops_leaf = root
        .issue(
            CertificateBuilder::new()
                .subject(
                    DistinguishedName::builder()
                        .common_name("tenant-ops")
                        .organizational_unit(mtls_pki::OPS_ORGANIZATIONAL_UNIT)
                        .build(),
                )
                .san(vec![GeneralName::Dns("tenant-ops".into())])
                .validity(ok_from, ok_to)
                .subject_key(ops_key.key_id()),
        )
        .to_der();
    let ops_endpoint = EndpointConfig {
        chain: vec![ops_leaf, root_der],
        random_seed: 0x0b5e,
    };

    // Rogue identity: a whole parallel CA the authorizer knows nothing
    // about. Chain shape is fine; the signature can't be verified.
    let rogue_root = CertificateAuthority::new_root(
        b"serve-rogue-root",
        DistinguishedName::builder()
            .organization("Rogue Issuance Bureau")
            .common_name("Rogue Root CA")
            .build(),
        Asn1Time::from_ymd(2022, 1, 1),
    );
    let rogue_endpoint = EndpointConfig {
        chain: vec![
            issue_der(&rogue_root, "tenant-rogue", ok_from, ok_to),
            rogue_root.certificate().to_der(),
        ],
        random_seed: 0x0666,
    };

    // Sample workloads: one DER blob and one shard built from two
    // records, mapped exactly the way the traffic emitter logs them.
    let sample_der = issue_der(&root, "portal.campus.example", ok_from, ok_to);
    let at = demo_now().unix() as f64;
    let records: Vec<mtls_zeek::X509Record> = [
        issue_der(&root, "vpn.campus.example", ok_from, ok_to),
        issue_der(&root, "mail.campus.example", ok_from, ok_to),
    ]
    .iter()
    .map(|der| {
        let cert = mtls_x509::Certificate::from_der(der).expect("demo cert");
        mtls_netsim::to_x509_record(&cert, Fp::of(der), at)
    })
    .collect();
    let mut sample_shard = Vec::new();
    mtls_zeek::write_x509_log(&mut sample_shard, &records).expect("demo shard");

    DemoWorld {
        root,
        server_endpoint,
        tenant_endpoint,
        expired_endpoint,
        ops_endpoint,
        rogue_endpoint,
        sample_der,
        sample_shard,
    }
}

/// An authorizer that recognizes the demo root's key (private anchor,
/// enterprise policy — the paper's dominant deployment shape).
pub fn demo_authorizer(world: &DemoWorld, quota_public: u32, quota_private: u32) -> Authorizer {
    let mut registry = KeyRegistry::new();
    world.root.register_key(&mut registry);
    Authorizer {
        anchors: TrustAnchors::new(),
        registry,
        policy: ValidationPolicy::enterprise(),
        quota_public,
        quota_private,
    }
}

/// The verdict context the demo server renders against — the same
/// campus world knowledge the offline testutil corpus uses.
pub fn demo_verdict_context() -> VerdictContext {
    VerdictContext {
        policy: ValidationPolicy::enterprise(),
        meta: testutil::meta(),
        ct: CtLog::new(),
        at: demo_now().unix() as f64,
    }
}

/// A ready-to-start demo server config bound to `addr` with
/// `quota_private` requests/second per private tenant. The flight
/// recorder gets the default ring; override `flight_capacity` on the
/// returned config to shrink or disable it (the uninstrumented
/// overhead-guard arm runs with 0).
pub fn demo_server_config(
    world: &DemoWorld,
    addr: &str,
    workers: usize,
    quota_private: u32,
    obs: Obs,
) -> ServerConfig {
    ServerConfig {
        addr: addr.to_string(),
        workers,
        endpoint: EndpointConfig {
            chain: world.server_endpoint.chain.clone(),
            random_seed: world.server_endpoint.random_seed,
        },
        authorizer: demo_authorizer(world, quota_private.saturating_mul(5), quota_private),
        verdict: demo_verdict_context(),
        now: demo_now(),
        obs,
        flight_capacity: crate::server::DEFAULT_FLIGHT_CAPACITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtls_tlssim::{identity_exposure, identity_exposure_parsed, TlsVersion};
    use mtls_x509::Certificate;

    #[test]
    fn parsed_leaf_exposure_equals_der_exposure_on_every_demo_chain() {
        let world = demo_world();
        let authorizer = demo_authorizer(&world, 500, 100);
        let chains = [
            ("tenant", &world.tenant_endpoint.chain, true),
            ("ops", &world.ops_endpoint.chain, true),
            ("expired", &world.expired_endpoint.chain, false),
            ("rogue", &world.rogue_endpoint.chain, false),
        ];
        for (name, chain, admitted) in chains {
            // The server meters admitted chains off the authorizer's leaf;
            // for refused ones, parse it here.
            let authorized = authorizer.authorize(chain, demo_now());
            assert_eq!(authorized.is_ok(), admitted, "{name}");
            let leaf = match authorized {
                Ok(authorized) => authorized.leaf,
                Err(_) => Certificate::from_der(&chain[0]).expect("demo leaf parses"),
            };
            for version in [TlsVersion::Tls12, TlsVersion::Tls13] {
                let from_der = identity_exposure(Some(version), chain);
                let parsed = identity_exposure_parsed(Some(version), chain, Some(&leaf));
                assert_eq!(parsed, from_der, "{name} {version:?}");
                assert_eq!(from_der.cleartext, version == TlsVersion::Tls12);
            }
            assert!(
                identity_exposure(Some(TlsVersion::Tls12), chain).identity_bytes() > 0,
                "{name}: the leaf's identity fields count"
            );
        }
    }
}
