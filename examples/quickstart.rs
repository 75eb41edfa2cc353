//! Quickstart: mint certificates, run one mutual-TLS handshake through the
//! passive monitor, and inspect what a border observer learns.
//!
//!     cargo run --example quickstart

use mtlscope::asn1::Asn1Time;
use mtlscope::crypto::Keypair;
use mtlscope::pki::{CertificateAuthority, RootProgram, TrustAnchors};
use mtlscope::tlssim::{observe, simulate_handshake, HandshakeConfig, TlsVersion};
use mtlscope::x509::{Certificate, CertificateBuilder, DistinguishedName, GeneralName};

fn main() {
    let now = Asn1Time::from_ymd(2024, 1, 15);

    // 1. A public CA (member of the root programs) and a private device CA.
    let mut anchors = TrustAnchors::new();
    let public_ca = CertificateAuthority::new_root(
        b"quickstart-public-root",
        DistinguishedName::builder()
            .organization("Example Trust Services")
            .common_name("Example Root R1")
            .build(),
        now,
    );
    anchors.add_to(&RootProgram::ALL, public_ca.certificate());
    let device_ca = CertificateAuthority::new_root(
        b"quickstart-device-ca",
        DistinguishedName::builder()
            .organization("Acme Fleet Ops")
            .build(),
        now,
    );

    // 2. Server and client leaf certificates.
    let server_key = Keypair::from_seed(b"server");
    let server_cert = public_ca.issue(
        CertificateBuilder::new()
            .subject(
                DistinguishedName::builder()
                    .common_name("api.example.org")
                    .build(),
            )
            .san(vec![GeneralName::Dns("api.example.org".into())])
            .validity(now.add_days(-30), now.add_days(60))
            .subject_key(server_key.key_id()),
    );
    let client_key = Keypair::from_seed(b"client");
    let client_cert = device_ca.issue(
        CertificateBuilder::new()
            .subject(
                DistinguishedName::builder()
                    .common_name("sensor-0042")
                    .build(),
            )
            .validity(now.add_days(-365), now.add_days(365))
            .subject_key(client_key.key_id()),
    );

    // 3. Simulate the handshake bytes a span port would capture, then run
    //    the passive monitor over them.
    let transcript = simulate_handshake(&HandshakeConfig {
        version: TlsVersion::Tls12,
        sni: Some("api.example.org".into()),
        server_chain: vec![server_cert.to_der()],
        request_client_cert: true,
        client_chain: vec![client_cert.to_der()],
        established: true,
        resumed: false,
        random_seed: 7,
    });
    println!("captured {} TLS records", transcript.len());

    let obs = observe(&transcript).expect("stream detected as TLS");
    println!("negotiated: {:?}", obs.version.expect("version seen"));
    println!("sni:        {:?}", obs.sni);
    println!("mutual TLS: {}", obs.is_mutual_tls());

    // 4. Parse what the monitor saw and classify the endpoints.
    let seen_server = Certificate::from_der(&obs.server_cert_ders[0]).expect("parses");
    let seen_client = Certificate::from_der(&obs.client_cert_ders[0]).expect("parses");
    println!(
        "server leaf: CN={:?} issuer={:?} public={}",
        seen_server.subject().common_name(),
        seen_server.issuer().organization(),
        anchors.is_public_issuer(seen_server.issuer()),
    );
    println!(
        "client leaf: CN={:?} issuer={:?} public={} ({})",
        seen_client.subject().common_name(),
        seen_client.issuer().organization(),
        anchors.is_public_issuer(seen_client.issuer()),
        mtlscope::pki::classify_org(seen_client.issuer().organization(), false).category,
    );

    // 5. And under TLS 1.3, the same connection goes dark.
    let dark = observe(&simulate_handshake(&HandshakeConfig {
        version: TlsVersion::Tls13,
        sni: Some("api.example.org".into()),
        server_chain: vec![server_cert.to_der()],
        request_client_cert: true,
        client_chain: vec![client_cert.to_der()],
        established: true,
        resumed: false,
        random_seed: 8,
    }))
    .expect("still TLS");
    println!(
        "TLS 1.3: certificates visible = {} (the paper's 40.86% blind spot)",
        !dark.server_cert_ders.is_empty()
    );
}
