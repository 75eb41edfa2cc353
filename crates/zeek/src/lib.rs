//! Zeek-style log substrate.
//!
//! The reproduced paper's dataset is a pair of Zeek log streams: `ssl.log`
//! (one record per TLS connection, with the server and client certificate
//! chains referenced by fingerprint) and `x509.log` (one record per observed
//! certificate). This crate defines those record types ([`SslRecord`],
//! [`X509Record`]) and a faithful Zeek-TSV serialization (`#separator`,
//! `#fields`, `#types` headers; `-` for unset; `(empty)` for empty vectors;
//! comma-joined vector values), so the analysis pipeline can run off files
//! exactly the way the paper's did.
//!
//! # Example
//!
//! ```
//! use mtls_zeek::{write_ssl_log, read_ssl_log, Fp, Ipv4, SslRecord, TlsVersion};
//!
//! let rec = SslRecord {
//!     ts: 1_651_363_200.5,
//!     uid: "CAbc123".into(),
//!     orig_h: Ipv4::new(172, 29, 1, 10),
//!     orig_p: 40_000,
//!     resp_h: Ipv4::new(98, 100, 7, 7),
//!     resp_p: 443,
//!     version: TlsVersion::Tls12,
//!     server_name: Some("api.example.com".into()),
//!     established: true,
//!     cert_chain_fps: vec![Fp::of(b"server leaf DER")],
//!     // A client chain => mutual TLS.
//!     client_cert_chain_fps: vec![Fp::of(b"client leaf DER")],
//! };
//! assert!(rec.is_mutual_tls());
//!
//! // Round-trip through the Zeek-TSV format.
//! let mut buf = Vec::new();
//! write_ssl_log(&mut buf, std::slice::from_ref(&rec)).unwrap();
//! let back = read_ssl_log(&buf[..]).unwrap();
//! assert_eq!(back, vec![rec]);
//! ```

pub mod diag;
pub mod ip;
pub mod records;
pub mod rotate;
pub mod swar;
pub mod tsv;

pub use diag::{ErrorKind, IngestMode, IngestStats, ShardDiag, SkipSample, ERROR_KINDS};
pub use ip::Ipv4;
pub use mtls_crypto::Fp;
pub use records::{SslRecord, TlsVersion, X509Record};
pub use rotate::{
    month_keys, partition_monthly, read_dir_obs, read_month_obs, read_monthly_with, write_monthly,
};
pub use tsv::{
    read_ssl_log, read_ssl_log_with, read_x509_log, read_x509_log_with, write_ssl_log,
    write_x509_log, TsvError, X509Rows,
};
