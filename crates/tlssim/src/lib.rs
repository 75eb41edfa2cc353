//! TLS wire simulation.
//!
//! The reproduced paper observes TLS passively: Zeek sits on a border span
//! port, detects TLS by content (dynamic protocol detection, not port
//! numbers), parses handshakes it can see, and records certificate chains.
//! This crate rebuilds that observational model end to end:
//!
//! * [`wire`] — TLS record framing (`type | version | length | payload`);
//! * [`msgs`] — the handshake messages that matter to a passive observer:
//!   ClientHello (with SNI and supported_versions), ServerHello (with
//!   version negotiation), Certificate, and CertificateRequest;
//! * [`handshake`] — a transcript generator: given both endpoints'
//!   configuration it emits the direction-tagged record bytes a span port
//!   would capture. Under TLS 1.3 everything after ServerHello is wrapped
//!   in opaque `application_data` records, so certificates are invisible —
//!   reproducing the paper's 40.86 % blind spot;
//! * [`monitor`] — the passive analyzer: content-based protocol detection
//!   and handshake parsing that turns a byte stream back into a
//!   [`monitor::ConnectionObservation`] (version, SNI, server chain, client
//!   chain, establishment);
//! * [`stream`] — the record layer over real byte streams: one
//!   incremental length-prefixed [`stream::Reassembler`] (tolerant of
//!   arbitrary chunk boundaries; it lends each complete record or
//!   cross-record handshake message from its buffer) plus
//!   [`stream::RecordReader`] / [`stream::RecordWriter`] bound to
//!   `std::io`, which is what `mtlscope serve` terminates mutual TLS with
//!   on live sockets.
//!
//! The framing is true to RFC 5246/8446 for everything a passive monitor
//! inspects; cryptographic payloads (Finished, key exchange) are elided
//! because no passive measurement reads them.
//!
//! # Example
//!
//! ```
//! use mtls_tlssim::{simulate_handshake, observe, HandshakeConfig, TlsVersion};
//!
//! // A mutual-TLS 1.2 handshake: the monitor sees both chains.
//! let cfg = HandshakeConfig {
//!     version: TlsVersion::Tls12,
//!     sni: Some("api.example.com".into()),
//!     server_chain: vec![b"server-der".to_vec()],
//!     request_client_cert: true,
//!     client_chain: vec![b"client-der".to_vec()],
//!     ..HandshakeConfig::default()
//! };
//! let seen = observe(&simulate_handshake(&cfg)).unwrap();
//! assert_eq!(seen.sni.as_deref(), Some("api.example.com"));
//! assert_eq!(seen.server_cert_ders.len(), 1);
//! assert_eq!(seen.client_cert_ders.len(), 1);
//!
//! // The same exchange under TLS 1.3: certificates are encrypted, so the
//! // passive observer records none — the paper's 40.86 % blind spot.
//! let seen13 = observe(&simulate_handshake(&HandshakeConfig {
//!     version: TlsVersion::Tls13,
//!     ..cfg
//! }))
//! .unwrap();
//! assert_eq!(seen13.version, Some(TlsVersion::Tls13));
//! assert!(seen13.server_cert_ders.is_empty());
//! assert!(seen13.client_cert_ders.is_empty());
//! ```

pub mod handshake;
pub mod monitor;
pub mod msgs;
pub mod stream;
pub mod wire;

pub use handshake::{
    client_hello, server_hello, simulate_handshake, Direction, HandshakeConfig, TranscriptRecord,
    CHANGE_CIPHER_SPEC, FINISHED,
};
pub use monitor::{
    identity_exposure, identity_exposure_parsed, observe, ConnectionObservation, IdentityExposure,
};
pub use msgs::{ClientHello, ServerHello};
pub use stream::{Reassembler, RecordReader, RecordWriter, StreamError};
pub use wire::{ContentType, RecordHeader, WireError};

pub use mtls_zeek::TlsVersion;
