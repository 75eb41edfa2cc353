//! `mtls-serve` — the mTLS-terminated analysis service and its client,
//! built entirely on the mtlscope stack.
//!
//! The offline pipeline reads Zeek logs from disk; this crate puts the
//! same analysis behind a socket. A long-running TCP server terminates
//! mutual TLS using our own record layer ([`mtls_tlssim::stream`]),
//! authorizes the presented client chain through
//! [`mtls_pki::Authorizer`] to derive a tenant identity, enforces
//! per-tenant token-bucket quotas, and streams back verdicts that are
//! byte-identical to the offline pipeline — the verdict renderer in
//! [`mtls_core::verdict`] is the single shared implementation.
//!
//! Layers, bottom to top:
//!
//! - [`frame`] — `kind | u32 len | payload` application framing with an
//!   incremental reassembler (frames span records).
//! - [`quota`] — per-tenant token buckets driven by explicit elapsed
//!   time, so the server owns the only clock.
//! - [`tls`] — session establishment: the mutual-TLS handshake over any
//!   `Read`/`Write` pair, fragmenting and reassembling certificate
//!   flights at the 2^14 record boundary.
//! - [`taxonomy`] — the single source of truth for every metric name
//!   the serve path emits (per-cause handshake/authz counters, latency
//!   and privacy histograms).
//! - [`server`] — `TcpListener` accept loop with a bounded worker pool,
//!   request dispatch, per-cause `mtls-obs` instrumentation, a
//!   connection flight recorder, and the cleartext-identity privacy
//!   meter.
//! - [`client`] — blocking client session: one mTLS connection, many
//!   request frames.
//! - [`demo`] — the deterministic demo deployment (CA, server and tenant
//!   chains) behind `mtlscope serve` and `mtlscope metrics`.

pub mod client;
pub mod demo;
pub mod frame;
pub mod quota;
pub mod server;
pub mod taxonomy;
pub mod tls;

pub use client::{ClientSession, Response};
pub use frame::{encode_frame, Frame, FrameAssembler};
pub use quota::{QuotaClock, QuotaTable, TokenBucket};
pub use server::{Server, ServerConfig, METRICS_SCHEMA};
pub use tls::{accept, connect, Accepted, EndpointConfig, ServerFlight, Session, SessionError};
