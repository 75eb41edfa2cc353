//! Mutual-TLS session establishment over real sockets, on our own stack.
//!
//! Both sides speak the `tlssim` wire format through the streaming
//! [`RecordReader`]/[`RecordWriter`] layers: ClientHello → ServerHello +
//! Certificate + CertificateRequest + ServerHelloDone → client
//! Certificate + ChangeCipherSpec + Finished → (server validates the
//! chain through [`mtls_pki::Authorizer`]) → server ChangeCipherSpec +
//! Finished → framed application data. Certificate messages fragment at
//! the 2^14 record limit and reassemble on the far side — the exact paths
//! the record-layer bugfix sweep hardened.
//!
//! Each flight goes to the socket as one write
//! ([`RecordWriter::write_flight`]): a full handshake costs the client two
//! writes and the server two, and the record bytes are the same as one
//! write per record. The server's first flight depends only on its
//! [`EndpointConfig`], so [`ServerFlight`] encodes it once per server.
//!
//! The simulation stack has no key schedule (a passive-measurement
//! reproduction never needed one), so `application_data` payloads are
//! structurally framed but not encrypted; DESIGN.md §11 spells out this
//! boundary. Everything else — framing, fragmentation, chain validation,
//! identity derivation — is the real protocol shape.

use crate::frame::{frame_header, Frame, FrameAssembler};
use mtls_pki::{Authorized, Authorizer, AuthzError, Tenant};
use mtls_tlssim::msgs::{
    encode_certificate_body, encode_certificate_request_body, handshake_envelope,
    parse_certificate_body, HS_CERTIFICATE, HS_CERTIFICATE_REQUEST, HS_CLIENT_HELLO, HS_FINISHED,
    HS_SERVER_HELLO, HS_SERVER_HELLO_DONE,
};
use mtls_tlssim::stream::{HandshakeAssembler, RecordReader, RecordWriter, StreamError};
use mtls_tlssim::wire::{legacy_version_bytes, ContentType};
use mtls_tlssim::{client_hello, server_hello, TlsVersion, CHANGE_CIPHER_SPEC, FINISHED};
use mtls_x509::Certificate;
use std::io::{Read, Write};

/// Fatal alert payload: `handshake_failure` (RFC 5246 §7.2.2).
const ALERT_HANDSHAKE_FAILURE: [u8; 2] = [2, 40];
/// Fatal alert payload: `bad_certificate`.
const ALERT_BAD_CERTIFICATE: [u8; 2] = [2, 42];

/// Why a session could not be established or continued.
#[derive(Debug)]
pub enum SessionError {
    /// Transport or record-layer failure.
    Stream(StreamError),
    /// The peer sent something other than the expected handshake message.
    UnexpectedMessage(&'static str),
    /// The peer closed or alerted mid-handshake.
    PeerAlert,
    /// The client chain was refused.
    Authz(AuthzError),
    /// A frame length field was implausible.
    BadFrame,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Stream(e) => write!(f, "stream error: {e}"),
            SessionError::UnexpectedMessage(what) => write!(f, "unexpected message: {what}"),
            SessionError::PeerAlert => f.write_str("peer sent a fatal alert"),
            SessionError::Authz(e) => write!(f, "client chain refused: {e}"),
            SessionError::BadFrame => f.write_str("oversized frame"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<StreamError> for SessionError {
    fn from(e: StreamError) -> SessionError {
        SessionError::Stream(e)
    }
}

/// The one version the service speaks: TLS 1.2, so client chains stay
/// visible to a passive monitor, as in the paper's main corpus
/// (DESIGN.md §11).
pub const VERSION: TlsVersion = TlsVersion::Tls12;

/// What each endpoint brings to the handshake.
pub struct EndpointConfig {
    /// Certificate chain to present, leaf first, DER blobs.
    pub chain: Vec<Vec<u8>>,
    /// Deterministic seed for hello randoms.
    pub random_seed: u64,
}

/// A server's first flight (ServerHello + Certificate +
/// CertificateRequest + ServerHelloDone), encoded once from its
/// [`EndpointConfig`].
pub struct ServerFlight {
    hello: Vec<u8>,
}

impl ServerFlight {
    /// Encode the flight `cfg` implies.
    pub fn new(cfg: &EndpointConfig) -> ServerFlight {
        let mut hello = server_hello(VERSION, cfg.random_seed);
        hello.extend(handshake_envelope(
            HS_CERTIFICATE,
            &encode_certificate_body(&cfg.chain),
        ));
        hello.extend(handshake_envelope(
            HS_CERTIFICATE_REQUEST,
            &encode_certificate_request_body(),
        ));
        hello.extend(handshake_envelope(HS_SERVER_HELLO_DONE, &[]));
        ServerFlight { hello }
    }
}

/// An established session over a (read, write) stream pair — for a
/// `TcpStream`, `(stream.try_clone()?, stream)`.
pub struct Session<R: Read, W: Write> {
    reader: RecordReader<R>,
    writer: RecordWriter<W>,
    assembler: HandshakeAssembler,
    frames: FrameAssembler,
}

/// Read handshake messages until one arrives, skipping ChangeCipherSpec,
/// erroring on alerts and application data.
fn next_handshake<R: Read>(
    reader: &mut RecordReader<R>,
    assembler: &mut HandshakeAssembler,
) -> Result<(u8, Vec<u8>), SessionError> {
    loop {
        if let Some(msg) = assembler
            .next_message()
            .map_err(|e| SessionError::Stream(StreamError::Wire(e)))?
        {
            return Ok(msg);
        }
        let Some((header, payload)) = reader.read_record()? else {
            return Err(SessionError::Stream(StreamError::UnexpectedEof));
        };
        match header.content_type {
            ContentType::Handshake => assembler.push(&payload),
            ContentType::ChangeCipherSpec => {}
            ContentType::Alert => return Err(SessionError::PeerAlert),
            ContentType::ApplicationData => {
                return Err(SessionError::UnexpectedMessage("application data"))
            }
        }
    }
}

/// What a successful server-side handshake yields.
pub struct Accepted<R: Read, W: Write> {
    /// The established session.
    pub session: Session<R, W>,
    /// The identity the client chain mapped to.
    pub tenant: Tenant,
    /// The DER chain the client presented (leaf first) — the same
    /// cleartext bytes a passive on-path observer captured, handed up
    /// so the server can account the privacy exposure
    /// ([`mtls_tlssim::identity_exposure_parsed`]).
    pub client_chain: Vec<Vec<u8>>,
    /// `client_chain[0]` as the authorizer parsed it.
    pub leaf: Certificate,
}

/// Server side: run the handshake, authorize the client chain, return the
/// session, tenant, and presented chain. On an authorization failure the
/// peer gets a fatal alert and the error comes back to the caller.
pub fn accept<R: Read, W: Write>(
    read: R,
    write: W,
    server: &ServerFlight,
    authorizer: &Authorizer,
    now: mtls_asn1::Asn1Time,
) -> Result<Accepted<R, W>, SessionError> {
    let mut reader = RecordReader::new(read);
    let mut writer = RecordWriter::new(write, legacy_version_bytes(VERSION));
    let mut assembler = HandshakeAssembler::new();

    // ClientHello.
    let (msg_type, _body) = next_handshake(&mut reader, &mut assembler)?;
    if msg_type != HS_CLIENT_HELLO {
        return Err(SessionError::UnexpectedMessage("expected ClientHello"));
    }

    // ServerHello + Certificate + CertificateRequest + ServerHelloDone,
    // one fragmented flight.
    writer.write(ContentType::Handshake, &server.hello)?;

    // Client Certificate.
    let (msg_type, body) = next_handshake(&mut reader, &mut assembler)?;
    if msg_type != HS_CERTIFICATE {
        return Err(SessionError::UnexpectedMessage(
            "expected client Certificate",
        ));
    }
    let chain =
        parse_certificate_body(&body).map_err(|e| SessionError::Stream(StreamError::Wire(e)))?;

    // Client Finished.
    let (msg_type, _body) = next_handshake(&mut reader, &mut assembler)?;
    if msg_type != HS_FINISHED {
        return Err(SessionError::UnexpectedMessage("expected client Finished"));
    }

    // The authorization gate: refuse the chain → fatal alert.
    let Authorized { tenant, leaf } = match authorizer.authorize(&chain, now) {
        Ok(a) => a,
        Err(e) => {
            let alert = match &e {
                AuthzError::NoCertificate => ALERT_HANDSHAKE_FAILURE,
                _ => ALERT_BAD_CERTIFICATE,
            };
            let _ = writer.write(ContentType::Alert, &alert);
            return Err(SessionError::Authz(e));
        }
    };

    writer.write_flight(&[
        (ContentType::ChangeCipherSpec, &CHANGE_CIPHER_SPEC),
        (ContentType::Handshake, &FINISHED),
    ])?;

    Ok(Accepted {
        session: Session {
            reader,
            writer,
            assembler,
            frames: FrameAssembler::new(),
        },
        tenant,
        client_chain: chain,
        leaf,
    })
}

/// Client side: run the handshake against an accepting server.
pub fn connect<R: Read, W: Write>(
    read: R,
    write: W,
    cfg: &EndpointConfig,
    sni: Option<&str>,
) -> Result<Session<R, W>, SessionError> {
    let mut reader = RecordReader::new(read);
    let mut writer = RecordWriter::new(write, legacy_version_bytes(VERSION));
    let mut assembler = HandshakeAssembler::new();

    writer.write(
        ContentType::Handshake,
        &client_hello(VERSION, sni, cfg.random_seed),
    )?;

    // ServerHello, then the rest of the server flight.
    let (msg_type, _) = next_handshake(&mut reader, &mut assembler)?;
    if msg_type != HS_SERVER_HELLO {
        return Err(SessionError::UnexpectedMessage("expected ServerHello"));
    }
    let mut cert_req_seen = false;
    loop {
        let (msg_type, _body) = next_handshake(&mut reader, &mut assembler)?;
        match msg_type {
            HS_CERTIFICATE => {}
            HS_CERTIFICATE_REQUEST => cert_req_seen = true,
            HS_SERVER_HELLO_DONE => break,
            _ => return Err(SessionError::UnexpectedMessage("in server flight")),
        }
    }
    if !cert_req_seen {
        return Err(SessionError::UnexpectedMessage(
            "server did not request a client certificate",
        ));
    }

    // Client Certificate + CCS + Finished, one write.
    writer.write_flight(&[
        (
            ContentType::Handshake,
            &handshake_envelope(HS_CERTIFICATE, &encode_certificate_body(&cfg.chain)),
        ),
        (ContentType::ChangeCipherSpec, &CHANGE_CIPHER_SPEC),
        (ContentType::Handshake, &FINISHED),
    ])?;

    // Server CCS + Finished — or the authorization alert.
    let (msg_type, _) = next_handshake(&mut reader, &mut assembler)?;
    if msg_type != HS_FINISHED {
        return Err(SessionError::UnexpectedMessage("expected server Finished"));
    }

    Ok(Session {
        reader,
        writer,
        assembler,
        frames: FrameAssembler::new(),
    })
}

impl<R: Read, W: Write> Session<R, W> {
    /// Send one frame inside `application_data` records: the bytes of
    /// [`crate::frame::encode_frame`] written whole, built without that copy — the
    /// 5-byte header and the payload go straight into the record buffer.
    pub fn send_frame(&mut self, kind: u8, payload: &[u8]) -> Result<(), SessionError> {
        let header = frame_header(kind, payload.len());
        self.writer
            .write_parts(ContentType::ApplicationData, &[&header, payload])?;
        Ok(())
    }

    /// Send raw bytes as `application_data` without frame encoding —
    /// the hook the planted-failure harness uses to put a framing
    /// violation (e.g. an oversize length field) on the wire.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), SessionError> {
        self.writer.write(ContentType::ApplicationData, bytes)?;
        Ok(())
    }

    /// Receive the next frame; `Ok(None)` is a clean peer close.
    pub fn recv_frame(&mut self) -> Result<Option<Frame>, SessionError> {
        loop {
            match self.frames.next_frame() {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Ok(None) => {}
                Err(_) => return Err(SessionError::BadFrame),
            }
            let Some((header, payload)) = self.reader.read_record()? else {
                return if self.frames.pending() == 0 {
                    Ok(None)
                } else {
                    Err(SessionError::Stream(StreamError::UnexpectedEof))
                };
            };
            match header.content_type {
                ContentType::ApplicationData => self.frames.push(&payload),
                ContentType::Alert => return Err(SessionError::PeerAlert),
                // Ignore stray handshake/CCS records post-establishment;
                // the assembler keeps its place for renegotiation-shaped
                // noise without acting on it.
                ContentType::Handshake => self.assembler.push(&payload),
                ContentType::ChangeCipherSpec => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtls_asn1::Asn1Time;
    use mtls_crypto::{KeyRegistry, Keypair};
    use mtls_pki::{CertificateAuthority, TrustAnchors, ValidationPolicy};
    use mtls_tlssim::{identity_exposure, observe, Direction, TranscriptRecord};
    use mtls_x509::{CertificateBuilder, DistinguishedName};

    fn now() -> Asn1Time {
        Asn1Time::from_ymd(2022, 6, 1)
    }

    fn world() -> (CertificateAuthority, Authorizer) {
        let root = CertificateAuthority::new_root(
            b"tls-test-root",
            DistinguishedName::builder()
                .organization("Serve Test CA")
                .build(),
            Asn1Time::from_ymd(2022, 1, 1),
        );
        let mut registry = KeyRegistry::new();
        root.register_key(&mut registry);
        let authorizer = Authorizer {
            anchors: TrustAnchors::new(),
            registry,
            policy: ValidationPolicy::enterprise(),
            quota_public: 500,
            quota_private: 100,
        };
        (root, authorizer)
    }

    fn leaf(ca: &CertificateAuthority, cn: &str) -> Vec<u8> {
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

    type Writes = std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>;

    /// A `Write` that forwards to `inner` and keeps the bytes of every
    /// `write` call, one entry per call — on a socket, one per syscall.
    struct Recorder<W> {
        inner: W,
        writes: Writes,
    }

    impl<W> Recorder<W> {
        fn new(inner: W) -> (Recorder<W>, Writes) {
            let writes = Writes::default();
            let recorder = Recorder {
                inner,
                writes: writes.clone(),
            };
            (recorder, writes)
        }
    }

    impl<W: Write> Write for Recorder<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.inner.write(buf)?;
            self.writes.lock().unwrap().push(buf[..n].to_vec());
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    /// The bytes `records` make when each goes out in its own write: the
    /// reference segmentation a flight write must match byte for byte.
    fn one_write_per_record(records: &[(ContentType, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut writer = RecordWriter::new(&mut out, [3, 3]);
        for &(ct, payload) in records {
            writer.write(ct, payload).unwrap();
        }
        out
    }

    fn transcript(chunks: &[(Direction, &[u8])]) -> Vec<TranscriptRecord> {
        chunks
            .iter()
            .map(|&(direction, bytes)| TranscriptRecord {
                direction,
                bytes: bytes.to_vec(),
            })
            .collect()
    }

    #[test]
    fn each_flight_is_one_write_with_unchanged_bytes() {
        let (root, authorizer) = world();
        let server_cfg = EndpointConfig {
            chain: vec![leaf(&root, "serve.example"), root.certificate().to_der()],
            random_seed: 7,
        };
        let client_cfg = EndpointConfig {
            chain: vec![leaf(&root, "tenant-a"), root.certificate().to_der()],
            random_seed: 8,
        };
        let client_chain = client_cfg.chain.clone();

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_thread = std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let (write, writes) = Recorder::new(stream.try_clone().unwrap());
            let mut session = connect(stream, write, &client_cfg, Some("serve.example")).unwrap();
            let handshake_writes = writes.lock().unwrap().clone();
            session.send_frame(crate::frame::REQ_PING, b"").unwrap();
            let resp = session.recv_frame().unwrap().unwrap();
            assert_eq!(resp.kind, crate::frame::RESP_PONG);
            handshake_writes
        });
        let (stream, _) = listener.accept().unwrap();
        let server_flight = ServerFlight::new(&server_cfg);
        let (write, writes) = Recorder::new(stream.try_clone().unwrap());
        let accepted = accept(stream, write, &server_flight, &authorizer, now()).unwrap();
        let server_writes = writes.lock().unwrap().clone();
        let mut session = accepted.session;
        let req = session.recv_frame().unwrap().unwrap();
        assert_eq!(req.kind, crate::frame::REQ_PING);
        session.send_frame(crate::frame::RESP_PONG, b"").unwrap();
        let client_writes = client_thread.join().unwrap();

        // Before the first frame: the client wrote its hello and one
        // Certificate + CCS + Finished flight; the server its hello flight
        // and one CCS + Finished flight.
        assert_eq!(client_writes.len(), 2, "client handshake writes");
        assert_eq!(server_writes.len(), 2, "server handshake writes");

        // The same records, one write each, as before coalescing.
        let hello = client_hello(VERSION, Some("serve.example"), 8);
        let certificate =
            handshake_envelope(HS_CERTIFICATE, &encode_certificate_body(&client_chain));
        let old_client = [
            one_write_per_record(&[(ContentType::Handshake, &hello)]),
            one_write_per_record(&[(ContentType::Handshake, &certificate)]),
            one_write_per_record(&[(ContentType::ChangeCipherSpec, &CHANGE_CIPHER_SPEC)]),
            one_write_per_record(&[(ContentType::Handshake, &FINISHED)]),
        ];
        let old_server = [
            one_write_per_record(&[(ContentType::Handshake, &server_flight.hello)]),
            one_write_per_record(&[(ContentType::ChangeCipherSpec, &CHANGE_CIPHER_SPEC)]),
            one_write_per_record(&[(ContentType::Handshake, &FINISHED)]),
        ];
        assert_eq!(client_writes.concat(), old_client.concat());
        assert_eq!(server_writes.concat(), old_server.concat());
        // The bytes themselves, pinned as recorded: the reference above is
        // built with the same message builders the session uses, so only
        // these hashes show that a builder change left the wire alone.
        let sha =
            |writes: &[Vec<u8>]| mtls_crypto::hex::encode(&mtls_crypto::sha256(&writes.concat()));
        assert_eq!(
            sha(&client_writes),
            "f73be00e86543f6845bc7f25613adf398c93c37b371f95c1326450f9a574e3bb",
            "client handshake bytes"
        );
        assert_eq!(
            sha(&server_writes),
            "a26ee7f3bff36e094a502b73d6d22d223c682e326db08878e2d08ede76f734b3",
            "server handshake bytes"
        );

        // A passive observer learns the same from either segmentation —
        // the cleartext client-certificate exposure does not depend on how
        // the flights were cut into writes.
        use Direction::{ClientToServer as C, ServerToClient as S};
        let new_seg = transcript(&[
            (C, &client_writes[0]),
            (S, &server_writes[0]),
            (C, &client_writes[1]),
            (S, &server_writes[1]),
        ]);
        let old_seg = transcript(&[
            (C, &old_client[0]),
            (S, &old_server[0]),
            (C, &old_client[1]),
            (C, &old_client[2]),
            (C, &old_client[3]),
            (S, &old_server[1]),
            (S, &old_server[2]),
        ]);
        let new_obs = observe(&new_seg).unwrap();
        let old_obs = observe(&old_seg).unwrap();
        assert_eq!(new_obs, old_obs);
        let exposure = new_obs.identity_exposure();
        assert_eq!(exposure, old_obs.identity_exposure());
        assert!(exposure.cleartext);
        assert_eq!(exposure.chain_len, 2);
        assert_eq!(
            exposure,
            identity_exposure(Some(TlsVersion::Tls12), &client_chain)
        );
    }

    #[test]
    fn send_frame_bytes_equal_encode_frame_then_write() {
        use crate::frame::{encode_frame, RESP_VERDICT};
        use mtls_tlssim::wire::MAX_FRAGMENT;
        for len in [0, 7, MAX_FRAGMENT - 5, MAX_FRAGMENT, 2 * MAX_FRAGMENT + 3] {
            let payload: Vec<u8> = (0..len as u32).map(|i| (i % 251) as u8).collect();
            let (write, writes) = Recorder::new(Vec::new());
            let mut session = Session {
                reader: RecordReader::new(std::io::empty()),
                writer: RecordWriter::new(write, [3, 3]),
                assembler: HandshakeAssembler::new(),
                frames: FrameAssembler::new(),
            };
            session.send_frame(RESP_VERDICT, &payload).unwrap();
            let writes = writes.lock().unwrap();
            assert_eq!(writes.len(), 1, "one write per frame ({len} bytes)");
            let frame = encode_frame(RESP_VERDICT, &payload);
            assert_eq!(
                writes[0],
                one_write_per_record(&[(ContentType::ApplicationData, &frame)]),
                "{len} bytes"
            );
        }
    }

    /// Drive client and server through in-memory pipes without threads:
    /// run the client against a buffer, feed its output to the server,
    /// and so on, alternating full flights.
    #[test]
    fn in_memory_handshake_establishes_and_frames_flow() {
        let (root, authorizer) = world();
        let server_cfg = EndpointConfig {
            chain: vec![leaf(&root, "serve.example"), root.certificate().to_der()],
            random_seed: 7,
        };
        let client_cfg = EndpointConfig {
            chain: vec![leaf(&root, "tenant-a"), root.certificate().to_der()],
            random_seed: 8,
        };

        // The client blocks for the server flight mid-connect, so the
        // test needs real duplex plumbing: a loopback socket pair with
        // the client on its own thread.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_thread = std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let mut session = connect(
                stream.try_clone().unwrap(),
                stream,
                &client_cfg,
                Some("serve.example"),
            )
            .unwrap();
            session.send_frame(crate::frame::REQ_PING, b"").unwrap();
            let resp = session.recv_frame().unwrap().unwrap();
            assert_eq!(resp.kind, crate::frame::RESP_PONG);
        });
        let (stream, _) = listener.accept().unwrap();
        let accepted = accept(
            stream.try_clone().unwrap(),
            stream,
            &ServerFlight::new(&server_cfg),
            &authorizer,
            now(),
        )
        .unwrap();
        assert_eq!(accepted.tenant.name, "tenant-a");
        assert!(!accepted.tenant.publicly_trusted);
        assert_eq!(
            accepted.client_chain.len(),
            2,
            "presented chain handed back for the privacy meter"
        );
        let mut session = accepted.session;
        let req = session.recv_frame().unwrap().unwrap();
        assert_eq!(req.kind, crate::frame::REQ_PING);
        session.send_frame(crate::frame::RESP_PONG, b"").unwrap();
        client_thread.join().unwrap();
    }

    #[test]
    fn expired_client_cert_gets_alert() {
        let (root, authorizer) = world();
        let server_cfg = EndpointConfig {
            chain: vec![leaf(&root, "serve.example"), root.certificate().to_der()],
            random_seed: 7,
        };
        let key = Keypair::from_seed(b"expired-tenant");
        let expired = root
            .issue(
                CertificateBuilder::new()
                    .subject(DistinguishedName::builder().common_name("late").build())
                    .validity(
                        Asn1Time::from_ymd(2021, 1, 1),
                        Asn1Time::from_ymd(2021, 6, 1),
                    )
                    .subject_key(key.key_id()),
            )
            .to_der();
        let client_cfg = EndpointConfig {
            chain: vec![expired, root.certificate().to_der()],
            random_seed: 9,
        };

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_thread = std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            match connect(stream.try_clone().unwrap(), stream, &client_cfg, None) {
                Err(SessionError::PeerAlert) => {}
                Err(e) => panic!("expected PeerAlert, got {e}"),
                Ok(_) => panic!("handshake unexpectedly succeeded"),
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let server_flight = ServerFlight::new(&server_cfg);
        let (write, server_writes) = Recorder::new(stream.try_clone().unwrap());
        match accept(stream, write, &server_flight, &authorizer, now()) {
            Err(SessionError::Authz(_)) => {}
            Err(e) => panic!("expected Authz error, got {e}"),
            Ok(_) => panic!("accept unexpectedly succeeded"),
        }
        client_thread.join().unwrap();

        // The refusal sends the alert and nothing else: no CCS, no
        // Finished.
        let server_writes = server_writes.lock().unwrap().clone();
        assert_eq!(
            server_writes,
            vec![
                one_write_per_record(&[(ContentType::Handshake, &server_flight.hello)]),
                one_write_per_record(&[(ContentType::Alert, &ALERT_BAD_CERTIFICATE)]),
            ]
        );
    }

    #[test]
    fn big_chain_fragments_through_the_session() {
        // A chain fat enough that the Certificate message spans several
        // records end-to-end over a real socket.
        let (root, authorizer) = world();
        let mut chain = vec![leaf(&root, "serve.example")];
        chain.push(root.certificate().to_der());
        let server_cfg = EndpointConfig {
            chain,
            random_seed: 7,
        };
        // Client presents its leaf + root + a pile of unrelated extra
        // certs, pushing the Certificate message far past 2^14 bytes.
        let mut client_chain = vec![leaf(&root, "fat-tenant"), root.certificate().to_der()];
        for i in 0..40 {
            client_chain.push(leaf(&root, &format!("padding-cert-{i}")));
        }
        let total: usize = client_chain.iter().map(Vec::len).sum();
        assert!(
            total > 1 << 14,
            "test needs a multi-record chain, got {total}"
        );
        let client_cfg = EndpointConfig {
            chain: client_chain,
            random_seed: 10,
        };

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_thread = std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let mut session =
                connect(stream.try_clone().unwrap(), stream, &client_cfg, None).unwrap();
            session.send_frame(crate::frame::REQ_PING, b"").unwrap();
            assert_eq!(
                session.recv_frame().unwrap().unwrap().kind,
                crate::frame::RESP_PONG
            );
        });
        let (stream, _) = listener.accept().unwrap();
        let accepted = accept(
            stream.try_clone().unwrap(),
            stream,
            &ServerFlight::new(&server_cfg),
            &authorizer,
            now(),
        )
        .unwrap();
        assert_eq!(accepted.tenant.name, "fat-tenant");
        assert_eq!(accepted.client_chain.len(), 42);
        let mut session = accepted.session;
        let req = session.recv_frame().unwrap().unwrap();
        assert_eq!(req.kind, crate::frame::REQ_PING);
        session.send_frame(crate::frame::RESP_PONG, b"").unwrap();
        client_thread.join().unwrap();
    }
}
