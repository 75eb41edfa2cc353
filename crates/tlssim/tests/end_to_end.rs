//! End-to-end: real DER certificates travel through a simulated handshake
//! and come back byte-identical out of the passive monitor.

use mtls_asn1::Asn1Time;
use mtls_crypto::Keypair;
use mtls_tlssim::{observe, simulate_handshake, HandshakeConfig, TlsVersion};
use mtls_x509::{Certificate, CertificateBuilder, DistinguishedName, GeneralName};
use proptest::prelude::*;

fn mint(cn: &str, org: &str, seed: &[u8]) -> Certificate {
    let ca = Keypair::from_seed(org.as_bytes());
    let leaf = Keypair::from_seed(seed);
    CertificateBuilder::new()
        .serial(&mtls_crypto::sha256(seed)[..6])
        .issuer(DistinguishedName::builder().organization(org).build())
        .subject(DistinguishedName::builder().common_name(cn).build())
        .san(vec![GeneralName::Dns(cn.into())])
        .validity(
            Asn1Time::from_ymd(2022, 5, 1),
            Asn1Time::from_ymd(2023, 5, 1),
        )
        .subject_key(leaf.key_id())
        .sign(&ca)
}

#[test]
fn certificates_survive_the_wire() {
    let server = mint("api.campus.example.edu", "Campus IT", b"srv");
    let inter = mint("Campus Sub CA", "Campus IT", b"int");
    let client = mint("student-device-0042", "Campus IT", b"cli");

    let cfg = HandshakeConfig {
        version: TlsVersion::Tls12,
        sni: Some("api.campus.example.edu".into()),
        server_chain: vec![server.to_der(), inter.to_der()],
        request_client_cert: true,
        client_chain: vec![client.to_der()],
        established: true,
        resumed: false,
        random_seed: 1,
    };
    let obs = observe(&simulate_handshake(&cfg)).unwrap();
    assert!(obs.is_mutual_tls());

    // Parse what the monitor saw and compare fingerprints.
    let seen_server = Certificate::from_der(&obs.server_cert_ders[0]).unwrap();
    let seen_inter = Certificate::from_der(&obs.server_cert_ders[1]).unwrap();
    let seen_client = Certificate::from_der(&obs.client_cert_ders[0]).unwrap();
    assert_eq!(seen_server.fingerprint(), server.fingerprint());
    assert_eq!(seen_inter.fingerprint(), inter.fingerprint());
    assert_eq!(seen_client.fingerprint(), client.fingerprint());
    assert_eq!(
        seen_client.subject().common_name(),
        Some("student-device-0042")
    );
}

#[test]
fn tls13_blinds_the_monitor_to_real_certs() {
    let server = mint("www.cloud.example", "Cloud CA", b"s13");
    let client = mint("edge-agent", "Cloud CA", b"c13");
    let cfg = HandshakeConfig {
        version: TlsVersion::Tls13,
        sni: Some("www.cloud.example".into()),
        server_chain: vec![server.to_der()],
        request_client_cert: true,
        client_chain: vec![client.to_der()],
        established: true,
        resumed: false,
        random_seed: 2,
    };
    let obs = observe(&simulate_handshake(&cfg)).unwrap();
    assert_eq!(obs.version, Some(TlsVersion::Tls13));
    assert!(obs.server_cert_ders.is_empty());
    assert!(obs.client_cert_ders.is_empty());
}

/// sha256 of a transcript, each record as `direction byte | u32 length |
/// bytes`, so record boundaries and directions are part of the pin.
fn transcript_sha256(cfg: &HandshakeConfig) -> String {
    let mut joined = Vec::new();
    for rec in simulate_handshake(cfg) {
        joined.push(rec.direction as u8);
        joined.extend_from_slice(&(rec.bytes.len() as u32).to_be_bytes());
        joined.extend_from_slice(&rec.bytes);
    }
    mtls_crypto::hex::encode(&mtls_crypto::sha256(&joined))
}

/// The transcript bytes of four handshake shapes, pinned as recorded:
/// a change to the message builders or the record layer that moves a
/// single byte fails here, whatever the builders' own tests say.
#[test]
fn transcript_bytes_are_pinned() {
    let server = mint("pin.campus.example", "Pin CA", b"pin-s").to_der();
    let client = mint("pin-client", "Pin CA", b"pin-c").to_der();
    let mutual = HandshakeConfig {
        version: TlsVersion::Tls12,
        sni: Some("pin.campus.example".into()),
        server_chain: vec![server],
        request_client_cert: true,
        client_chain: vec![client],
        established: true,
        resumed: false,
        random_seed: 25,
    };
    let cases = [
        (
            "tls12 mutual",
            mutual.clone(),
            "33677bd346c0a553cf42c1d8b5d3d14e23603345a09b83b60272f191798f939a",
        ),
        (
            "tls12 resumed",
            HandshakeConfig {
                resumed: true,
                ..mutual.clone()
            },
            "24514614890c165d3df42654b6896a5a78c378e2983b96aa56f92ce2fc4f965c",
        ),
        (
            "tls12 failed",
            HandshakeConfig {
                established: false,
                ..mutual.clone()
            },
            "ab52cd6a09b8762aeb721b635932d864a297b0459d144e3cc967472a9c318ad1",
        ),
        (
            "tls13",
            HandshakeConfig {
                version: TlsVersion::Tls13,
                ..mutual
            },
            "22f65b6262063d7f4fefb58b6252d3dd1cfd36dc5134dcf90146742e1a2e6f3a",
        ),
    ];
    for (name, cfg, want) in cases {
        assert_eq!(transcript_sha256(&cfg), want, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_chain_shapes_round_trip(
        n_server in 0usize..4,
        n_client in 0usize..3,
        request in any::<bool>(),
        established in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let server_chain: Vec<Vec<u8>> = (0..n_server)
            .map(|i| mint(&format!("s{i}.example"), "Org S", &[i as u8, 1]).to_der())
            .collect();
        let client_chain: Vec<Vec<u8>> = (0..n_client)
            .map(|i| mint(&format!("c{i}"), "Org C", &[i as u8, 2]).to_der())
            .collect();
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            sni: None,
            server_chain: server_chain.clone(),
            request_client_cert: request,
            client_chain: client_chain.clone(),
            established,
            resumed: false,
            random_seed: seed,
        };
        let obs = observe(&simulate_handshake(&cfg)).unwrap();
        prop_assert_eq!(obs.server_cert_ders, server_chain);
        let expected_client: Vec<Vec<u8>> = if request { client_chain } else { Vec::new() };
        prop_assert_eq!(obs.client_cert_ders, expected_client);
        prop_assert_eq!(obs.established, established);
        prop_assert_eq!(obs.client_cert_requested, request);
    }
}

// Failure injection: a passive monitor on a span port sees whatever the
// network delivers — damaged captures must degrade, never panic.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn monitor_never_panics_on_garbage(
        blobs in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..256)),
            0..6,
        ),
    ) {
        use mtls_tlssim::handshake::{Direction, TranscriptRecord};
        let transcript: Vec<TranscriptRecord> = blobs
            .into_iter()
            .map(|(c2s, bytes)| TranscriptRecord {
                direction: if c2s { Direction::ClientToServer } else { Direction::ServerToClient },
                bytes,
            })
            .collect();
        let _ = observe(&transcript); // Ok or Err, both fine; panic is not.
    }

    #[test]
    fn monitor_never_panics_on_corrupted_handshakes(
        flip_at in 0usize..2048,
        flip_bit in 0u8..8,
        truncate_to in 0usize..2048,
        seed in any::<u64>(),
    ) {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            sni: Some("fuzz.example.com".into()),
            server_chain: vec![mint("fuzz.example.com", "Fuzz Org", b"fz").to_der()],
            request_client_cert: true,
            client_chain: vec![mint("fuzz-client", "Fuzz Org", b"fc").to_der()],
            established: true,
            resumed: false,
            random_seed: seed,
        };
        let mut transcript = simulate_handshake(&cfg);
        // Corrupt one bit somewhere in the concatenated capture, then
        // truncate one record — both happen on real span ports.
        let mut offset = flip_at;
        for rec in &mut transcript {
            if offset < rec.bytes.len() {
                rec.bytes[offset] ^= 1 << flip_bit;
                break;
            }
            offset -= rec.bytes.len();
        }
        if let Some(rec) = transcript.last_mut() {
            let keep = truncate_to.min(rec.bytes.len());
            rec.bytes.truncate(keep);
        }
        let _ = observe(&transcript);
    }
}
