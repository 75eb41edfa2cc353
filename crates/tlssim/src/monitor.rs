//! The passive monitor: Zeek's observational model.
//!
//! Given a direction-tagged transcript, [`observe`] runs content-based
//! protocol detection and reassembles what a span-port analyzer can know:
//! the negotiated version, the SNI, the server and client certificate
//! chains (when the version leaves them in the clear), and whether the
//! handshake completed. Anything after ServerHello in a TLS 1.3 connection
//! is opaque, so certificate fields stay empty — precisely the blind spot
//! the paper quantifies.
//!
//! A capture device hands the monitor *bytes*, not records: one
//! `TranscriptRecord` may end mid-record, carry three records, or hold one
//! third of a handshake message whose remainder arrives two chunks later.
//! Observation therefore runs each direction through a
//! [`Reassembler`] for records and another for handshake messages, which
//! makes the result invariant under any re-chunking that preserves
//! per-direction byte order (pinned by a property test below).

use crate::handshake::{Direction, TranscriptRecord};
use crate::msgs::{
    parse_certificate_body, ClientHello, ServerHello, HS_CERTIFICATE, HS_CERTIFICATE_REQUEST,
    HS_CLIENT_HELLO, HS_FINISHED, HS_SERVER_HELLO,
};
use crate::stream::{Reassembler, HANDSHAKE, RECORD};
use crate::wire::{looks_like_tls, ContentType, WireError};
use mtls_zeek::TlsVersion;

/// What a passive observer learned about one connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnectionObservation {
    /// Negotiated version (from ServerHello, incl. supported_versions).
    pub version: Option<TlsVersion>,
    /// SNI from the ClientHello.
    pub sni: Option<String>,
    /// Server certificate chain DER blobs (leaf first). Empty under 1.3.
    pub server_cert_ders: Vec<Vec<u8>>,
    /// Client certificate chain DER blobs (leaf first). Empty under 1.3.
    pub client_cert_ders: Vec<Vec<u8>>,
    /// Whether a CertificateRequest was seen (clear-text versions only).
    pub client_cert_requested: bool,
    /// Whether the connection reached Finished/application data both ways.
    pub established: bool,
}

impl ConnectionObservation {
    /// The paper's mTLS predicate applied at observation level.
    pub fn is_mutual_tls(&self) -> bool {
        !self.server_cert_ders.is_empty() && !self.client_cert_ders.is_empty()
    }

    /// Account the cleartext-visible client-identity bytes of this
    /// observation (see [`identity_exposure`]).
    pub fn identity_exposure(&self) -> IdentityExposure {
        identity_exposure(self.version, &self.client_cert_ders)
    }
}

/// What a passive observer can learn about the *client's identity* from
/// one connection — the paper's privacy finding, quantified in bytes.
///
/// In TLS 1.2 and below the client Certificate message crosses the wire
/// unencrypted, so every field of the leaf (CN, SANs, issuer DN) and the
/// full chain are harvestable by anyone on the path. TLS 1.3 encrypts
/// the client certificate, so the exposure there is zero by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdentityExposure {
    /// Whether the client chain was visible in cleartext at all
    /// (a chain was presented under TLS ≤ 1.2).
    pub cleartext: bool,
    /// Certificates in the visible chain.
    pub chain_len: usize,
    /// Total DER bytes of the visible chain.
    pub chain_bytes: u64,
    /// Bytes of the leaf subject CN (the de-facto identity field).
    pub leaf_cn_bytes: u64,
    /// SAN entries on the leaf.
    pub san_count: u64,
    /// Display bytes of those SAN entries.
    pub san_bytes: u64,
    /// Display bytes of the leaf issuer DN.
    pub issuer_dn_bytes: u64,
}

impl IdentityExposure {
    /// The headline number: identity-bearing bytes a passive observer
    /// harvested (leaf CN + SANs + issuer DN). Zero for TLS 1.3.
    pub fn identity_bytes(&self) -> u64 {
        self.leaf_cn_bytes + self.san_bytes + self.issuer_dn_bytes
    }
}

/// Account the cleartext-visible client-identity bytes for a connection
/// that negotiated `version` and presented `client_chain` (leaf-first
/// DER blobs, as captured off the wire).
///
/// TLS 1.3 returns the zero exposure — the client Certificate flies
/// encrypted there, which is exactly the contrast the paper draws. An
/// unparseable leaf still counts its chain bytes (the observer has the
/// blobs either way) but no field-level identity bytes.
pub fn identity_exposure(
    version: Option<TlsVersion>,
    client_chain: &[Vec<u8>],
) -> IdentityExposure {
    let leaf = client_chain
        .first()
        .and_then(|der| mtls_x509::Certificate::from_der(der).ok());
    identity_exposure_parsed(version, client_chain, leaf.as_ref())
}

/// [`identity_exposure`] for a caller that already holds `client_chain[0]`
/// parsed (`None` when it did not parse) — the server's privacy meter,
/// handed the leaf by its authorizer, so the leaf is parsed once per
/// connection.
pub fn identity_exposure_parsed(
    version: Option<TlsVersion>,
    client_chain: &[Vec<u8>],
    leaf: Option<&mtls_x509::Certificate>,
) -> IdentityExposure {
    if version == Some(TlsVersion::Tls13) || client_chain.is_empty() {
        return IdentityExposure::default();
    }
    let mut exp = IdentityExposure {
        cleartext: true,
        chain_len: client_chain.len(),
        chain_bytes: client_chain.iter().map(|der| der.len() as u64).sum(),
        ..IdentityExposure::default()
    };
    if let Some(leaf) = leaf {
        exp.leaf_cn_bytes = leaf
            .subject()
            .common_name()
            .map(|cn| cn.len() as u64)
            .unwrap_or(0);
        exp.issuer_dn_bytes = leaf.issuer().to_display_string().len() as u64;
        for san in leaf.subject_alt_names() {
            exp.san_count += 1;
            exp.san_bytes += match &san {
                mtls_x509::GeneralName::Email(s)
                | mtls_x509::GeneralName::Dns(s)
                | mtls_x509::GeneralName::Uri(s) => s.len() as u64,
                mtls_x509::GeneralName::Ip(bytes) => bytes.len() as u64,
                mtls_x509::GeneralName::Other(_, bytes) => bytes.len() as u64,
            };
        }
    }
    exp
}

/// Run DPD + passive handshake parsing over a transcript.
///
/// Returns `Err(NotTls)` if the stream does not look like TLS (the DPD
/// rejection path: the client's first record is not a complete hello
/// record), otherwise best-effort observation — mid-stream parse errors
/// stop analysis of that direction but keep what was already extracted,
/// matching how a real monitor degrades on truncated captures.
pub fn observe(transcript: &[TranscriptRecord]) -> Result<ConnectionObservation, WireError> {
    let mut obs = ConnectionObservation::default();
    // DPD's verdict on the client's first complete record.
    let mut looks_tls = None;
    let mut saw_client_activity_after_hello = false;
    let mut saw_server_finished = false;
    let mut saw_client_finished = false;
    // Per direction: records, and the handshake messages on their payloads.
    let mut client = (Reassembler::new(RECORD), Reassembler::new(HANDSHAKE));
    let mut server = (Reassembler::new(RECORD), Reassembler::new(HANDSHAKE));

    for rec in transcript {
        let (records, messages) = match rec.direction {
            Direction::ClientToServer => &mut client,
            Direction::ServerToClient => &mut server,
        };
        records.push(&rec.bytes);
        // Either layer's error ends the direction (a monitor cannot resync
        // a corrupt TCP stream); what was extracted stays.
        while messages.error().is_none() {
            let Ok(Some(record)) = records.next_item() else {
                break;
            };
            if rec.direction == Direction::ClientToServer && looks_tls.is_none() {
                looks_tls = Some(looks_like_tls(record));
            }
            let payload = &record[RECORD.len..];
            match ContentType::from_byte(record[0]) {
                Some(ContentType::Handshake) => {
                    messages.push(payload);
                    // A message that spans records waits for the next one.
                    while let Ok(Some(msg)) = messages.next_item() {
                        let body = &msg[HANDSHAKE.len..];
                        match (rec.direction, msg[0]) {
                            (Direction::ClientToServer, HS_CLIENT_HELLO) => {
                                if let Ok(ch) = ClientHello::parse(body) {
                                    obs.sni = ch.sni;
                                }
                            }
                            (Direction::ServerToClient, HS_SERVER_HELLO) => {
                                if let Ok(sh) = ServerHello::parse(body) {
                                    obs.version = Some(sh.version);
                                }
                            }
                            (Direction::ServerToClient, HS_CERTIFICATE) => {
                                if let Ok(chain) = parse_certificate_body(body) {
                                    obs.server_cert_ders = chain;
                                }
                            }
                            (Direction::ServerToClient, HS_CERTIFICATE_REQUEST) => {
                                obs.client_cert_requested = true;
                            }
                            (Direction::ClientToServer, HS_CERTIFICATE) => {
                                if let Ok(chain) = parse_certificate_body(body) {
                                    obs.client_cert_ders = chain;
                                }
                            }
                            (Direction::ServerToClient, HS_FINISHED) => {
                                saw_server_finished = true;
                            }
                            (Direction::ClientToServer, HS_FINISHED) => {
                                saw_client_finished = true;
                            }
                            _ => {}
                        }
                    }
                }
                Some(ContentType::ApplicationData)
                    if rec.direction == Direction::ClientToServer =>
                {
                    saw_client_activity_after_hello = true;
                }
                _ => {}
            }
        }
    }
    if looks_tls != Some(true) {
        return Err(WireError::NotTls);
    }

    // Establishment: clear-text versions show both Finished messages;
    // TLS 1.3 shows client-direction application data after the hellos.
    obs.established = (saw_server_finished && saw_client_finished)
        || (obs.version == Some(TlsVersion::Tls13) && saw_client_activity_after_hello);
    Ok(obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::{simulate_handshake, HandshakeConfig};

    fn der(n: u8) -> Vec<u8> {
        vec![0x30, 3, n, n, n]
    }

    fn mutual_cfg(version: TlsVersion) -> HandshakeConfig {
        HandshakeConfig {
            version,
            sni: Some("portal.health.example.edu".into()),
            server_chain: vec![der(1), der(2)],
            request_client_cert: true,
            client_chain: vec![der(3), der(4)],
            established: true,
            resumed: false,
            random_seed: 99,
        }
    }

    #[test]
    fn observes_mutual_tls12() {
        let obs = observe(&simulate_handshake(&mutual_cfg(TlsVersion::Tls12))).unwrap();
        assert_eq!(obs.version, Some(TlsVersion::Tls12));
        assert_eq!(obs.sni.as_deref(), Some("portal.health.example.edu"));
        assert_eq!(obs.server_cert_ders, vec![der(1), der(2)]);
        assert_eq!(obs.client_cert_ders, vec![der(3), der(4)]);
        assert!(obs.client_cert_requested);
        assert!(obs.established);
        assert!(obs.is_mutual_tls());
    }

    #[test]
    fn tls13_is_opaque() {
        let obs = observe(&simulate_handshake(&mutual_cfg(TlsVersion::Tls13))).unwrap();
        assert_eq!(obs.version, Some(TlsVersion::Tls13));
        assert_eq!(obs.sni.as_deref(), Some("portal.health.example.edu"));
        assert!(obs.server_cert_ders.is_empty());
        assert!(obs.client_cert_ders.is_empty());
        assert!(!obs.is_mutual_tls()); // the blind spot, quantified in §3.3
        assert!(obs.established);
    }

    #[test]
    fn plain_tls_has_no_client_chain() {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            server_chain: vec![der(9)],
            ..Default::default()
        };
        let obs = observe(&simulate_handshake(&cfg)).unwrap();
        assert!(!obs.client_cert_requested);
        assert!(obs.client_cert_ders.is_empty());
        assert!(!obs.is_mutual_tls());
        assert!(obs.established);
    }

    #[test]
    fn failed_handshake_not_established() {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            server_chain: vec![der(1)],
            established: false,
            ..Default::default()
        };
        let obs = observe(&simulate_handshake(&cfg)).unwrap();
        assert!(!obs.established);
        assert_eq!(obs.server_cert_ders, vec![der(1)]);
    }

    #[test]
    fn non_tls_stream_rejected_by_dpd() {
        let fake = vec![TranscriptRecord {
            direction: Direction::ClientToServer,
            bytes: b"GET / HTTP/1.1\r\n\r\n".to_vec(),
        }];
        assert_eq!(observe(&fake), Err(WireError::NotTls));
    }

    #[test]
    fn empty_client_cert_message_observed_as_empty() {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            server_chain: vec![der(1)],
            request_client_cert: true,
            client_chain: vec![],
            ..Default::default()
        };
        let obs = observe(&simulate_handshake(&cfg)).unwrap();
        assert!(obs.client_cert_requested);
        assert!(obs.client_cert_ders.is_empty());
        assert!(!obs.is_mutual_tls());
    }

    #[test]
    fn truncated_capture_degrades_gracefully() {
        let mut t = simulate_handshake(&mutual_cfg(TlsVersion::Tls12));
        // Cut the last record short.
        let last = t.last_mut().unwrap();
        last.bytes.truncate(3);
        let obs = observe(&t).unwrap();
        // Certificates were before the cut; they survive.
        assert!(obs.is_mutual_tls());
    }

    #[test]
    fn client_only_chain_connection() {
        // No server chain, client chain present (tunneling pattern).
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            server_chain: vec![],
            request_client_cert: true,
            client_chain: vec![der(5)],
            ..Default::default()
        };
        let obs = observe(&simulate_handshake(&cfg)).unwrap();
        assert!(obs.server_cert_ders.is_empty());
        assert_eq!(obs.client_cert_ders, vec![der(5)]);
        assert!(!obs.is_mutual_tls());
    }

    #[test]
    fn oversized_chain_observed_across_record_fragments() {
        // The other half of the >64 KiB regression: a chain whose
        // Certificate message fragments across many records must come back
        // byte-identical through cross-record reassembly.
        let big_server = vec![vec![0xAA; 30_000], vec![0xBB; 30_000], vec![0xCC; 30_000]];
        let big_client = vec![vec![0x11; 40_000], vec![0x22; 40_000]];
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            server_chain: big_server.clone(),
            request_client_cert: true,
            client_chain: big_client.clone(),
            ..Default::default()
        };
        let obs = observe(&simulate_handshake(&cfg)).unwrap();
        assert_eq!(obs.server_cert_ders, big_server);
        assert_eq!(obs.client_cert_ders, big_client);
        assert!(obs.established);
        assert!(obs.is_mutual_tls());
    }

    #[test]
    fn mid_stream_garbage_keeps_earlier_observation() {
        let mut t = simulate_handshake(&mutual_cfg(TlsVersion::Tls12));
        // Corrupt a server record after the certificates but keep the
        // client direction clean: server-side parsing stops, client keeps.
        let idx = t
            .iter()
            .rposition(|r| r.direction == Direction::ServerToClient)
            .unwrap();
        t[idx].bytes = vec![0xFF; 16];
        let obs = observe(&t).unwrap();
        assert_eq!(obs.server_cert_ders.len(), 2);
        assert_eq!(obs.client_cert_ders.len(), 2);
    }
}

#[cfg(test)]
mod rechunk_tests {
    use super::*;
    use crate::handshake::{simulate_handshake, HandshakeConfig};

    /// Deterministic xorshift64* for re-chunk fuzzing without a rand dep.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Split the transcript into arbitrary direction-preserving chunks:
    /// flatten each direction's bytes, then interleave randomly-sized
    /// slices of the two streams in random order.
    fn rechunk(transcript: &[TranscriptRecord], rng: &mut XorShift) -> Vec<TranscriptRecord> {
        let flat = |d: Direction| -> Vec<u8> {
            transcript
                .iter()
                .filter(|r| r.direction == d)
                .flat_map(|r| r.bytes.iter().copied())
                .collect()
        };
        let streams = [
            (Direction::ClientToServer, flat(Direction::ClientToServer)),
            (Direction::ServerToClient, flat(Direction::ServerToClient)),
        ];
        let mut pos = [0usize; 2];
        let mut out = Vec::new();
        loop {
            let live: Vec<usize> = (0..2).filter(|&i| pos[i] < streams[i].1.len()).collect();
            if live.is_empty() {
                break;
            }
            let pick = live[rng.below(live.len())];
            let remaining = streams[pick].1.len() - pos[pick];
            // Chunk sizes from 1 byte to a few records' worth.
            let take = (1 + rng.below(40_000)).min(remaining);
            out.push(TranscriptRecord {
                direction: streams[pick].0,
                bytes: streams[pick].1[pos[pick]..pos[pick] + take].to_vec(),
            });
            pos[pick] += take;
        }
        out
    }

    fn scenarios() -> Vec<HandshakeConfig> {
        let der = |n: u8, len: usize| {
            let mut v = vec![0x30, 3, n];
            v.resize(len, n);
            v
        };
        vec![
            HandshakeConfig {
                version: TlsVersion::Tls12,
                sni: Some("portal.example.edu".into()),
                server_chain: vec![der(1, 900), der(2, 1200)],
                request_client_cert: true,
                client_chain: vec![der(3, 700)],
                ..Default::default()
            },
            // The fragmentation-heavy case: chains far past one record.
            HandshakeConfig {
                version: TlsVersion::Tls12,
                server_chain: vec![der(4, 30_000), der(5, 40_000)],
                request_client_cert: true,
                client_chain: vec![der(6, 50_000)],
                ..Default::default()
            },
            HandshakeConfig {
                version: TlsVersion::Tls13,
                sni: Some("dark.example.com".into()),
                server_chain: vec![der(7, 2_000)],
                request_client_cert: true,
                client_chain: vec![der(8, 2_000)],
                ..Default::default()
            },
            HandshakeConfig {
                version: TlsVersion::Tls12,
                server_chain: vec![der(9, 500)],
                established: false,
                ..Default::default()
            },
            HandshakeConfig {
                version: TlsVersion::Tls12,
                resumed: true,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn observation_invariant_under_rechunking() {
        // The satellite-2 property: for any direction-preserving re-split
        // of the byte streams — 1-byte trickles, records glued together,
        // handshake messages torn across chunks — observe() returns
        // exactly what it returned for the pristine transcript.
        let mut rng = XorShift(0x1D5E_92A7_33C4_0F6B);
        for (i, cfg) in scenarios().into_iter().enumerate() {
            let transcript = simulate_handshake(&cfg);
            let baseline = observe(&transcript).unwrap();
            for round in 0..30 {
                let chunked = rechunk(&transcript, &mut rng);
                let got = observe(&chunked).unwrap();
                assert_eq!(got, baseline, "scenario {i}, round {round}");
            }
        }
    }

    #[test]
    fn single_byte_trickle_matches_baseline() {
        // Degenerate extreme of the property: every chunk is one byte.
        let cfg = scenarios().remove(1);
        let transcript = simulate_handshake(&cfg);
        let baseline = observe(&transcript).unwrap();
        let trickled: Vec<TranscriptRecord> = transcript
            .iter()
            .flat_map(|r| {
                r.bytes.iter().map(move |b| TranscriptRecord {
                    direction: r.direction,
                    bytes: vec![*b],
                })
            })
            .collect();
        assert_eq!(observe(&trickled).unwrap(), baseline);
    }

    #[test]
    fn glued_records_match_baseline() {
        // Opposite extreme: each direction arrives as ONE giant chunk.
        for cfg in scenarios() {
            let transcript = simulate_handshake(&cfg);
            let baseline = observe(&transcript).unwrap();
            let glue = |d: Direction| TranscriptRecord {
                direction: d,
                bytes: transcript
                    .iter()
                    .filter(|r| r.direction == d)
                    .flat_map(|r| r.bytes.iter().copied())
                    .collect(),
            };
            let glued = vec![
                glue(Direction::ClientToServer),
                glue(Direction::ServerToClient),
            ];
            assert_eq!(observe(&glued).unwrap(), baseline);
        }
    }
}

#[cfg(test)]
mod resumption_tests {
    use super::*;
    use crate::handshake::{simulate_handshake, HandshakeConfig};

    #[test]
    fn resumed_sessions_show_no_certificates() {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            sni: Some("cached.example.com".into()),
            server_chain: vec![vec![0x30, 1, 0]],
            request_client_cert: true,
            client_chain: vec![vec![0x30, 1, 1]],
            established: true,
            resumed: true,
            random_seed: 5,
        };
        let obs = observe(&simulate_handshake(&cfg)).unwrap();
        assert_eq!(obs.version, Some(TlsVersion::Tls12));
        assert_eq!(obs.sni.as_deref(), Some("cached.example.com"));
        assert!(obs.server_cert_ders.is_empty(), "abbreviated handshake");
        assert!(obs.client_cert_ders.is_empty());
        assert!(!obs.client_cert_requested);
        assert!(obs.established, "Finished still flows both ways");
    }

    #[test]
    fn failed_resumption_not_established() {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            resumed: true,
            established: false,
            ..Default::default()
        };
        let obs = observe(&simulate_handshake(&cfg)).unwrap();
        assert!(!obs.established);
    }

    /// A realistic leaf (CN + SANs + issuer DN) for the exposure tests.
    fn identity_leaf() -> Vec<u8> {
        use mtls_x509::{CertificateBuilder, DistinguishedName, GeneralName};
        let key = mtls_crypto::Keypair::from_seed(b"exposure-leaf");
        CertificateBuilder::new()
            .issuer(
                DistinguishedName::builder()
                    .organization("Campus Private CA")
                    .common_name("Campus Root")
                    .build(),
            )
            .subject(
                DistinguishedName::builder()
                    .common_name("tenant-alpha")
                    .build(),
            )
            .san(vec![
                GeneralName::Dns("tenant-alpha.campus.example".into()),
                GeneralName::Email("alpha@campus.example".into()),
            ])
            .validity(
                mtls_asn1::Asn1Time::from_ymd(2022, 1, 1),
                mtls_asn1::Asn1Time::from_ymd(2023, 1, 1),
            )
            .subject_key(key.key_id())
            .sign(&key)
            .to_der()
    }

    #[test]
    fn tls12_chain_exposes_identity_bytes() {
        let leaf = identity_leaf();
        let issuer_blob = vec![0x30, 3, 9, 9, 9];
        let chain = vec![leaf.clone(), issuer_blob.clone()];
        let exp = identity_exposure(Some(TlsVersion::Tls12), &chain);
        assert!(exp.cleartext);
        assert_eq!(exp.chain_len, 2);
        assert_eq!(exp.chain_bytes, (leaf.len() + issuer_blob.len()) as u64);
        assert_eq!(exp.leaf_cn_bytes, "tenant-alpha".len() as u64);
        assert_eq!(exp.san_count, 2);
        assert_eq!(
            exp.san_bytes,
            ("tenant-alpha.campus.example".len() + "alpha@campus.example".len()) as u64
        );
        let leaf_cert = mtls_x509::Certificate::from_der(&leaf).unwrap();
        assert_eq!(
            exp.issuer_dn_bytes,
            leaf_cert.issuer().to_display_string().len() as u64
        );
        assert_eq!(
            exp.identity_bytes(),
            exp.leaf_cn_bytes + exp.san_bytes + exp.issuer_dn_bytes
        );
        assert!(exp.identity_bytes() > 0);
    }

    #[test]
    fn tls13_exposure_is_zero_by_construction() {
        let chain = vec![identity_leaf()];
        let exp = identity_exposure(Some(TlsVersion::Tls13), &chain);
        assert_eq!(exp, IdentityExposure::default());
        assert_eq!(exp.identity_bytes(), 0);
        assert!(!exp.cleartext);
    }

    #[test]
    fn empty_chain_means_no_exposure() {
        let exp = identity_exposure(Some(TlsVersion::Tls12), &[]);
        assert_eq!(exp, IdentityExposure::default());
    }

    #[test]
    fn unparseable_leaf_still_counts_chain_bytes() {
        let chain = vec![b"not der at all".to_vec()];
        let exp = identity_exposure(Some(TlsVersion::Tls11), &chain);
        assert!(exp.cleartext);
        assert_eq!(exp.chain_bytes, 14);
        assert_eq!(exp.identity_bytes(), 0, "no fields parsed");
    }

    #[test]
    fn observation_method_routes_version_and_chain() {
        let cfg = HandshakeConfig {
            version: TlsVersion::Tls12,
            sni: None,
            server_chain: vec![vec![0x30, 3, 1, 1, 1]],
            request_client_cert: true,
            client_chain: vec![identity_leaf()],
            established: true,
            resumed: false,
            random_seed: 3,
        };
        let obs = observe(&simulate_handshake(&cfg)).unwrap();
        let exp = obs.identity_exposure();
        assert!(exp.cleartext);
        assert!(exp.identity_bytes() > 0);

        let cfg13 = HandshakeConfig {
            version: TlsVersion::Tls13,
            ..cfg
        };
        let obs13 = observe(&simulate_handshake(&cfg13)).unwrap();
        assert_eq!(obs13.identity_exposure(), IdentityExposure::default());
    }
}
