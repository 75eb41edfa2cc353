//! Per-scenario tests: each scenario, run in isolation on a small world,
//! must plant exactly the phenomenon it claims to.

use mtls_netsim::scenarios;
use mtls_netsim::{Emitter, SimConfig, SimOutput, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_one(
    scale: f64,
    scenario: impl Fn(&SimConfig, &World, &mut Emitter, &mut StdRng),
) -> SimOutput {
    let config = SimConfig {
        seed: 42,
        scale,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let world = World::build(&config);
    let mut emitter = Emitter::new(&config);
    scenario(&config, &world, &mut emitter, &mut rng);
    emitter.finish(&world)
}

#[test]
fn webrtc_plants_ephemeral_self_signed_pairs() {
    let out = run_one(0.01, scenarios::webrtc::run);
    assert!(!out.ssl.is_empty());
    // Every connection is outbound mTLS on 443 with no SNI.
    for conn in &out.ssl {
        assert!(conn.is_mutual_tls());
        assert_eq!(conn.resp_p, 443);
        assert!(conn.server_name.is_none());
    }
    // The dominant CN is "WebRTC".
    let webrtc = out
        .x509
        .iter()
        .filter(|c| c.subject_cn.as_deref() == Some("WebRTC"))
        .count();
    assert!(
        webrtc * 2 > out.x509.len(),
        "{webrtc} of {}",
        out.x509.len()
    );
    // Ephemeral: none lives longer than ~a month.
    for cert in &out.x509 {
        assert!(cert.validity_days() <= 31);
    }
}

#[test]
fn serials_plants_the_collision_populations() {
    let out = run_one(0.05, scenarios::serials::run);
    let serial_count = |s: &str, issuer: &str| {
        out.x509
            .iter()
            .filter(|c| c.serial == s && c.issuer.contains(issuer))
            .count()
    };
    assert!(
        serial_count("00", "Globus Online") > 10,
        "Globus serial-00 certs"
    );
    assert!(serial_count("01", "GuardiCore") > 0);
    assert!(serial_count("03E8", "GuardiCore") > 0);
    assert!(serial_count("024680", "ViptelaClient") > 0);
    // The FXP connections use the identical cert on both ends and the
    // literal SNI from the paper.
    let fxp: Vec<_> = out
        .ssl
        .iter()
        .filter(|c| c.server_name.as_deref() == Some("FXP DCAU Cert"))
        .collect();
    assert!(!fxp.is_empty());
    for conn in fxp {
        assert_eq!(conn.cert_chain_fps, conn.client_cert_chain_fps);
        assert!((50_000..=51_000).contains(&conn.resp_p));
    }
}

#[test]
fn dates_plants_inverted_validity_in_established_conns() {
    let out = run_one(0.05, scenarios::dates::run);
    let inverted = out.x509.iter().filter(|c| c.has_incorrect_dates()).count();
    assert!(inverted > 0);
    assert!(out.ssl.iter().all(|c| c.established));
    // The rcgen population's 1757 notAfter survives the wire.
    let ancient = out
        .x509
        .iter()
        .any(|c| mtls_asn1::Asn1Time::from_unix(c.not_valid_after).year() == 1757);
    assert!(ancient, "rcgen's 1757 notAfter");
    // IDrive appears on both sides.
    assert!(out.x509.iter().any(|c| c.issuer.contains("IDrive")));
}

#[test]
fn expired_plants_the_apple_cluster() {
    let out = run_one(0.05, scenarios::expired::run);
    let apple_expired = out
        .x509
        .iter()
        .filter(|c| {
            c.issuer.contains("Apple iPhone Device") && (c.not_valid_after as f64) < 1_651_363_200.0
        })
        .count();
    assert_eq!(apple_expired, 34, "planted verbatim at any scale");
    // The 83,432-day outlier.
    assert!(out.x509.iter().any(|c| c.validity_days() == 83_432));
}

#[test]
fn tunnel_plants_client_only_connections() {
    let out = run_one(0.05, scenarios::tunnel::run);
    assert!(!out.ssl.is_empty());
    for conn in &out.ssl {
        assert!(conn.is_client_only(), "no server chain in tunnel conns");
        assert!(!conn.is_mutual_tls());
    }
}

#[test]
fn dummies_plants_the_default_issuers() {
    let out = run_one(0.05, scenarios::dummies::run);
    for issuer in [
        "Internet Widgits Pty Ltd",
        "Default Company Ltd",
        "Unspecified",
        "Acme Co",
    ] {
        assert!(
            out.x509.iter().any(|c| c.issuer.contains(issuer)),
            "missing {issuer}"
        );
    }
    let v1 = out
        .x509
        .iter()
        .filter(|c| c.version == 1 && c.issuer.contains("Internet Widgits"))
        .count();
    let weak = out
        .x509
        .iter()
        .filter(|c| c.key_length == 1024 && c.issuer.contains("Unspecified"))
        .count();
    assert_eq!(v1, 3);
    assert_eq!(weak, 13);
}

#[test]
fn interception_goes_dark_without_the_flag() {
    let config = SimConfig {
        seed: 1,
        scale: 0.05,
        include_interception: false,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let world = World::build(&config);
    let mut emitter = Emitter::new(&config);
    scenarios::interception::run(&config, &world, &mut emitter, &mut rng);
    let out = emitter.finish(&world);
    assert!(out.ssl.is_empty(), "flag disables the scenario");
}

#[test]
fn interception_issuers_never_appear_in_ct() {
    let out = run_one(0.05, scenarios::interception::run);
    assert!(!out.x509.is_empty());
    for cert in &out.x509 {
        for domain in &cert.san_dns {
            assert!(
                !out.ct.index().domain_has_issuer(domain, &cert.issuer),
                "interception issuer leaked into CT: {}",
                cert.issuer
            );
        }
    }
}

#[test]
fn sharing_plants_both_endpoint_certificates() {
    let out = run_one(0.05, scenarios::sharing::run);
    let shared = out
        .ssl
        .iter()
        .filter(|c| c.is_mutual_tls() && c.cert_chain_fps == c.client_cert_chain_fps)
        .count();
    assert!(shared > 0, "same-connection sharing present");
    // tablodash.com rides the Outset port.
    assert!(out.ssl.iter().any(|c| c
        .server_name
        .as_deref()
        .map(|s| s.contains("tablodash"))
        .unwrap_or(false)
        && c.resp_p == 9093));
}

#[test]
fn nonmtls_respects_the_flag_and_rotates_certs() {
    let config = SimConfig {
        seed: 9,
        scale: 0.02,
        include_non_mtls: false,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let world = World::build(&config);
    let mut emitter = Emitter::new(&config);
    scenarios::nonmtls::run(&config, &world, &mut emitter, &mut rng);
    assert!(
        emitter.finish(&world).ssl.is_empty(),
        "flag disables the stratum"
    );

    let out = run_one(0.02, scenarios::nonmtls::run);
    assert!(out.ssl.iter().all(|c| !c.is_mutual_tls()));
    // Some TLS 1.3 records (no certs) and some resumed cleartext records.
    let tls13 = out
        .ssl
        .iter()
        .filter(|c| c.version == mtls_zeek::TlsVersion::Tls13)
        .count();
    assert!(tls13 > 0);
    let resumed_like = out
        .ssl
        .iter()
        .filter(|c| c.version != mtls_zeek::TlsVersion::Tls13 && c.cert_chain_fps.is_empty())
        .count();
    assert!(resumed_like > 0, "abbreviated handshakes present");
    // Rotation: more unique certs than sites implies re-issuance.
    assert!(out.x509.len() > 100);
}

#[test]
fn privservers_plants_exactly_six_personal_names_at_full_scale() {
    let out = run_one(1.0, scenarios::privservers::run);
    let names = out
        .x509
        .iter()
        .filter(|c| {
            c.subject_cn
                .as_deref()
                .map(|cn| {
                    mtls_classify::classify(cn, mtls_classify::ClassifyContext::default())
                        == mtls_classify::InfoType::PersonalName
                })
                .unwrap_or(false)
        })
        .count();
    // Six server names planted; the shared client fleet may add none
    // (client CN quotas route personal names to campus certs elsewhere).
    assert_eq!(names, 6, "the paper's exactly-six population");
}
