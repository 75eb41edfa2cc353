//! Handshake transcript simulation.
//!
//! Produces the direction-tagged record bytes a border span port would see
//! for one TLS connection. The generator is deliberately *not* a real
//! implementation of the key schedule — a passive monitor never sees inside
//! it — but every byte the monitor does inspect (record headers, hellos,
//! certificate messages, the point where 1.3 goes dark) is framed exactly
//! as on the wire.

use crate::msgs::{
    encode_certificate_body, encode_certificate_request_body, handshake_envelope, ClientHello,
    ServerHello, HS_CERTIFICATE, HS_CERTIFICATE_REQUEST, HS_CLIENT_HELLO, HS_FINISHED,
    HS_SERVER_HELLO, HS_SERVER_HELLO_DONE,
};
use crate::wire::{legacy_version_bytes, write_fragmented, ContentType};
use mtls_zeek::TlsVersion;

/// Who sent a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    ClientToServer,
    ServerToClient,
}

/// One captured record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranscriptRecord {
    pub direction: Direction,
    pub bytes: Vec<u8>,
}

/// Everything the two endpoints bring to one handshake.
#[derive(Debug, Clone)]
pub struct HandshakeConfig {
    /// Version the endpoints will settle on.
    pub version: TlsVersion,
    /// SNI the client offers (absent in a large slice of the paper's
    /// inbound mTLS traffic).
    pub sni: Option<String>,
    /// Server certificate chain, leaf first, as DER blobs. May be empty
    /// (e.g. tunneling endpoints that only take client certs).
    pub server_chain: Vec<Vec<u8>>,
    /// Whether the server sends CertificateRequest.
    pub request_client_cert: bool,
    /// Client certificate chain, leaf first. Only sent when requested.
    pub client_chain: Vec<Vec<u8>>,
    /// Whether the handshake completes (failed handshakes never reach
    /// Finished and carry no application data).
    pub established: bool,
    /// Session resumption (abbreviated handshake, RFC 5246 §7.3): the
    /// client offers a non-empty session id, the server echoes it, and *no*
    /// Certificate or CertificateRequest messages are sent — a passive
    /// monitor sees an established TLS connection with no chains on either
    /// side, even below TLS 1.3.
    pub resumed: bool,
    /// Seed for the two hello randoms (keeps transcripts deterministic).
    pub random_seed: u64,
}

impl Default for HandshakeConfig {
    fn default() -> Self {
        HandshakeConfig {
            version: TlsVersion::Tls12,
            sni: None,
            server_chain: Vec::new(),
            request_client_cert: false,
            client_chain: Vec::new(),
            established: true,
            resumed: false,
            random_seed: 0,
        }
    }
}

/// The ChangeCipherSpec payload.
pub const CHANGE_CIPHER_SPEC: [u8; 1] = [1];

/// The Finished message both sides send, envelope included
/// (`msg_type | uint24 12 | verify_data`). The simulation has no key
/// schedule, so its verify_data is 12 zero bytes.
pub const FINISHED: [u8; 16] = [HS_FINISHED, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];

/// The ClientHello message (envelope included) of a client that settles
/// on `version`: a 1.3 client offers 1.3 and 1.2 in supported_versions.
pub fn client_hello(version: TlsVersion, sni: Option<&str>, random_seed: u64) -> Vec<u8> {
    let ch = ClientHello {
        legacy_version: version.min(TlsVersion::Tls12),
        sni: sni.map(str::to_owned),
        supported_versions: if version == TlsVersion::Tls13 {
            vec![TlsVersion::Tls13, TlsVersion::Tls12]
        } else {
            Vec::new()
        },
    };
    handshake_envelope(HS_CLIENT_HELLO, &ch.encode(&seeded_random(random_seed, 1)))
}

/// The ServerHello message (envelope included) that negotiates `version`.
pub fn server_hello(version: TlsVersion, random_seed: u64) -> Vec<u8> {
    let sh = ServerHello { version };
    handshake_envelope(HS_SERVER_HELLO, &sh.encode(&seeded_random(random_seed, 2)))
}

fn seeded_random(seed: u64, label: u8) -> [u8; 32] {
    // Cheap deterministic fill; not cryptographic, not meant to be.
    let mut out = [0u8; 32];
    let mut state = seed ^ (u64::from(label) << 56) ^ 0x9E37_79B9_7F4A_7C15;
    for chunk in out.chunks_mut(8) {
        state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
        chunk.copy_from_slice(&state.to_be_bytes());
    }
    out
}

/// Generate the transcript for one connection.
pub fn simulate_handshake(cfg: &HandshakeConfig) -> Vec<TranscriptRecord> {
    let mut transcript = Vec::new();
    let legacy = legacy_version_bytes(cfg.version);
    let mut push = |direction: Direction, ct: ContentType, payload: &[u8]| {
        // A handshake message larger than 2^14 (a fat certificate chain)
        // must fragment across records — a single record would silently
        // wrap its u16 length field. RFC 5246 §6.2.1.
        let mut bytes = Vec::with_capacity(payload.len() + 5);
        write_fragmented(&mut bytes, ct, legacy, payload);
        transcript.push(TranscriptRecord { direction, bytes });
    };

    // ClientHello and ServerHello — always visible.
    push(
        Direction::ClientToServer,
        ContentType::Handshake,
        &client_hello(cfg.version, cfg.sni.as_deref(), cfg.random_seed),
    );
    push(
        Direction::ServerToClient,
        ContentType::Handshake,
        &server_hello(cfg.version, cfg.random_seed),
    );

    if cfg.resumed && cfg.version != TlsVersion::Tls13 {
        // Abbreviated handshake: straight to ChangeCipherSpec/Finished.
        if cfg.established {
            push(
                Direction::ServerToClient,
                ContentType::ChangeCipherSpec,
                &CHANGE_CIPHER_SPEC,
            );
            push(Direction::ServerToClient, ContentType::Handshake, &FINISHED);
            push(
                Direction::ClientToServer,
                ContentType::ChangeCipherSpec,
                &CHANGE_CIPHER_SPEC,
            );
            push(Direction::ClientToServer, ContentType::Handshake, &FINISHED);
            push(
                Direction::ClientToServer,
                ContentType::ApplicationData,
                &[0u8; 96],
            );
        } else {
            push(Direction::ServerToClient, ContentType::Alert, &[2, 40]);
        }
        return transcript;
    }

    if cfg.version == TlsVersion::Tls13 {
        // Everything after ServerHello is encrypted: certificates (either
        // direction) travel inside opaque application_data records. The
        // monitor sees size, not content.
        let mut blob = encode_certificate_body(&cfg.server_chain);
        if cfg.request_client_cert {
            blob.extend_from_slice(&encode_certificate_body(&cfg.client_chain));
        }
        // Pad to hide exact sizes a little, like real 1.3 stacks do.
        blob.resize(blob.len() + 64, 0);
        for chunk in blob.chunks(16 * 1024 - 1) {
            push(
                Direction::ServerToClient,
                ContentType::ApplicationData,
                chunk,
            );
        }
        if cfg.established {
            push(
                Direction::ClientToServer,
                ContentType::ApplicationData,
                &[0u8; 48],
            );
        }
        return transcript;
    }

    // TLS 1.2 and below: certificates in the clear.
    if !cfg.server_chain.is_empty() {
        push(
            Direction::ServerToClient,
            ContentType::Handshake,
            &handshake_envelope(HS_CERTIFICATE, &encode_certificate_body(&cfg.server_chain)),
        );
    }
    if cfg.request_client_cert {
        push(
            Direction::ServerToClient,
            ContentType::Handshake,
            &handshake_envelope(HS_CERTIFICATE_REQUEST, &encode_certificate_request_body()),
        );
    }
    push(
        Direction::ServerToClient,
        ContentType::Handshake,
        &handshake_envelope(HS_SERVER_HELLO_DONE, &[]),
    );
    if cfg.request_client_cert {
        // RFC 5246 §7.4.6: a client with no suitable certificate sends an
        // empty Certificate message.
        push(
            Direction::ClientToServer,
            ContentType::Handshake,
            &handshake_envelope(HS_CERTIFICATE, &encode_certificate_body(&cfg.client_chain)),
        );
    }
    if cfg.established {
        push(
            Direction::ClientToServer,
            ContentType::ChangeCipherSpec,
            &CHANGE_CIPHER_SPEC,
        );
        push(Direction::ClientToServer, ContentType::Handshake, &FINISHED);
        push(
            Direction::ServerToClient,
            ContentType::ChangeCipherSpec,
            &CHANGE_CIPHER_SPEC,
        );
        push(Direction::ServerToClient, ContentType::Handshake, &FINISHED);
        push(
            Direction::ClientToServer,
            ContentType::ApplicationData,
            &[0u8; 96],
        );
    } else {
        push(Direction::ServerToClient, ContentType::Alert, &[2, 40]); // fatal handshake_failure
    }
    transcript
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_record, ContentType};

    fn der(n: u8) -> Vec<u8> {
        vec![0x30, 3, n, n, n]
    }

    #[test]
    fn tls12_mutual_transcript_shape() {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            sni: Some("x.example".into()),
            server_chain: vec![der(1), der(2)],
            request_client_cert: true,
            client_chain: vec![der(3)],
            established: true,
            resumed: false,
            random_seed: 42,
        };
        let t = simulate_handshake(&cfg);
        // CH, SH, Cert, CertReq, SHD, client Cert, CCS, Fin, CCS, Fin, AppData
        assert_eq!(t.len(), 11);
        assert_eq!(t[0].direction, Direction::ClientToServer);
        assert_eq!(t[1].direction, Direction::ServerToClient);
        // All records must parse at the record layer.
        for rec in &t {
            let mut cursor = &rec.bytes[..];
            read_record(&mut cursor).unwrap();
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn tls13_hides_certificates() {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls13,
            server_chain: vec![der(1)],
            request_client_cert: true,
            client_chain: vec![der(2)],
            ..Default::default()
        };
        let t = simulate_handshake(&cfg);
        // After the two hellos, only application_data records.
        for rec in &t[2..] {
            let mut cursor = &rec.bytes[..];
            let (h, _) = read_record(&mut cursor).unwrap();
            assert_eq!(h.content_type, ContentType::ApplicationData);
        }
    }

    #[test]
    fn failed_handshake_ends_in_alert() {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            server_chain: vec![der(1)],
            established: false,
            ..Default::default()
        };
        let t = simulate_handshake(&cfg);
        let last = t.last().unwrap();
        let mut cursor = &last.bytes[..];
        let (h, payload) = read_record(&mut cursor).unwrap();
        assert_eq!(h.content_type, ContentType::Alert);
        assert_eq!(payload, vec![2, 40]);
    }

    #[test]
    fn requested_but_absent_client_cert_sends_empty_message() {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            server_chain: vec![der(1)],
            request_client_cert: true,
            client_chain: vec![],
            ..Default::default()
        };
        let t = simulate_handshake(&cfg);
        // Find the client-direction Certificate message.
        let client_cert = t
            .iter()
            .filter(|r| r.direction == Direction::ClientToServer)
            .nth(1)
            .unwrap();
        let mut cursor = &client_cert.bytes[..];
        let (_, payload) = read_record(&mut cursor).unwrap();
        let (ty, body) = crate::msgs::parse_envelope(payload).unwrap();
        assert_eq!(ty, crate::msgs::HS_CERTIFICATE);
        assert!(crate::msgs::parse_certificate_body(body)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn oversized_chain_fragments_instead_of_wrapping() {
        // Regression: payload.len() as u16 used to wrap silently in release
        // builds, so a >64 KiB certificate chain emitted a corrupt record.
        // Mint a chain well past 65535 bytes and check every emitted record
        // parses and respects the 2^14 fragment limit.
        let big = vec![vec![0xAA; 30_000], vec![0xBB; 30_000], vec![0xCC; 30_000]];
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            server_chain: big.clone(),
            request_client_cert: true,
            client_chain: big,
            ..Default::default()
        };
        let t = simulate_handshake(&cfg);
        let mut total_hs_bytes = 0usize;
        for rec in &t {
            let mut cursor = &rec.bytes[..];
            // A fragmented TranscriptRecord holds several wire records.
            while !cursor.is_empty() {
                let (h, payload) = read_record(&mut cursor).unwrap();
                assert!(payload.len() <= crate::wire::MAX_FRAGMENT);
                if h.content_type == ContentType::Handshake {
                    total_hs_bytes += payload.len();
                }
            }
        }
        // Both 90 KiB chains made it onto the wire intact.
        assert!(total_hs_bytes > 2 * 90_000, "chains truncated or wrapped");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = HandshakeConfig {
            random_seed: 7,
            ..Default::default()
        };
        assert_eq!(simulate_handshake(&cfg), simulate_handshake(&cfg));
        let cfg2 = HandshakeConfig {
            random_seed: 8,
            ..Default::default()
        };
        assert_ne!(simulate_handshake(&cfg), simulate_handshake(&cfg2));
    }
}
