//! The serve metric taxonomy: every counter name the live path can
//! emit, in one place.
//!
//! PR 8 lumped every failed connection into `serve.handshake_failed`,
//! which told an operator nothing — a flaky client, an expired fleet
//! credential, and an active probe all looked identical. This module
//! replaces the lump with a per-cause taxonomy and is the **single
//! source of truth** for the names: the server emits only names minted
//! here, `Server::obs` documentation points here, DESIGN.md's metric
//! table is asserted against [`ALL_COUNTERS`] by a test, and the
//! `mtlscope metrics` binary test checks a live envelope's names with
//! [`is_known_metric`].
//!
//! Name scheme: `serve.handshake.err.*` for pre-authorization protocol
//! failures, `serve.authz.err.*` (with a `chain.` sub-tree mirroring
//! [`ChainError`]) for refused client chains, `serve.request.err.*` for
//! per-frame refusals, `serve.privacy.*` for the cleartext-identity
//! meter, and bare `serve.*` for the PR 8 counters that survived.

use crate::tls::SessionError;
use mtls_pki::authz::AuthzError;
use mtls_pki::ChainError;

/// Every fixed counter name the serve path can emit. Latency histograms
/// (`serve.latency_us.<kind>[.<tenant>]`) are name-templated, not fixed,
/// so they live in [`HISTOGRAMS`]/[`LATENCY_PREFIX`] instead.
pub const ALL_COUNTERS: &[&str] = &[
    "serve.connections",
    "serve.handshake.ok",
    "serve.handshake.err.bad_record",
    "serve.handshake.err.unexpected_message",
    "serve.handshake.err.peer_alert",
    "serve.handshake.err.bad_frame",
    "serve.authz.err.no_certificate",
    "serve.authz.err.malformed",
    "serve.authz.err.policy",
    "serve.authz.err.chain.issuer_not_found",
    "serve.authz.err.chain.bad_signature",
    "serve.authz.err.chain.expired",
    "serve.authz.err.chain.incorrect_dates",
    "serve.authz.err.chain.untrusted_root",
    "serve.authz.err.chain.not_a_ca",
    "serve.authz.err.chain.too_deep",
    "serve.requests",
    "serve.requests.ping",
    "serve.requests.der",
    "serve.requests.shard",
    "serve.requests.metrics",
    "serve.request.err.unknown_kind",
    "serve.request.err.oversize_frame",
    "serve.request.err.metrics_forbidden",
    "serve.throttled",
    "serve.conn.closed_clean",
    "serve.conn.closed_error",
    "serve.privacy.cleartext_connections",
    "serve.privacy.identity_bytes_total",
];

/// Fixed histogram names (log2 buckets, microseconds unless stated).
pub const HISTOGRAMS: &[&str] = &[
    "serve.request_bytes",
    "serve.handshake_us",
    "serve.queue_wait_us",
    "serve.conn_lifetime_us",
    "serve.privacy.identity_bytes",
    "serve.privacy.chain_certs",
    "serve.privacy.san_count",
];

/// Per-kind / per-tenant latency histograms hang off this prefix:
/// `serve.latency_us.<kind>` and `serve.latency_us.<kind>.<tenant>`.
pub const LATENCY_PREFIX: &str = "serve.latency_us.";

/// Gauge names.
pub const GAUGES: &[&str] = &[
    "serve.privacy.max_identity_bytes",
    "serve.quota.tracked_tenants",
];

/// Whether `name` is a metric this taxonomy mints (used by the
/// doc-drift test to catch names the server emits but nothing owns).
pub fn is_known_metric(name: &str) -> bool {
    ALL_COUNTERS.contains(&name)
        || HISTOGRAMS.contains(&name)
        || GAUGES.contains(&name)
        || name.starts_with(LATENCY_PREFIX)
}

/// The counter a failed `tls::accept` maps to. Authorization refusals
/// route through [`authz_error_counter`]; everything else is a
/// handshake-layer cause.
pub fn handshake_error_counter(err: &SessionError) -> &'static str {
    match err {
        SessionError::Authz(e) => authz_error_counter(e),
        SessionError::Stream(_) => "serve.handshake.err.bad_record",
        SessionError::UnexpectedMessage(_) => "serve.handshake.err.unexpected_message",
        SessionError::PeerAlert => "serve.handshake.err.peer_alert",
        SessionError::BadFrame => "serve.handshake.err.bad_frame",
    }
}

/// The counter an [`AuthzError`] refusal maps to, with chain-validation
/// failures broken out per [`ChainError`] kind.
pub fn authz_error_counter(err: &AuthzError) -> &'static str {
    match err {
        AuthzError::NoCertificate => "serve.authz.err.no_certificate",
        AuthzError::Malformed => "serve.authz.err.malformed",
        AuthzError::Policy(_) => "serve.authz.err.policy",
        AuthzError::Chain(e) => match e {
            ChainError::IssuerNotFound => "serve.authz.err.chain.issuer_not_found",
            ChainError::BadSignature => "serve.authz.err.chain.bad_signature",
            ChainError::Expired => "serve.authz.err.chain.expired",
            ChainError::IncorrectDates => "serve.authz.err.chain.incorrect_dates",
            ChainError::UntrustedRoot => "serve.authz.err.chain.untrusted_root",
            ChainError::NotACa => "serve.authz.err.chain.not_a_ca",
            ChainError::TooDeep => "serve.authz.err.chain.too_deep",
        },
    }
}

/// The per-kind counter for a request frame, `None` for unknown kinds
/// (those count into `serve.request.err.unknown_kind` instead).
pub fn request_kind_counter(kind: u8) -> Option<&'static str> {
    match kind {
        crate::frame::REQ_PING => Some("serve.requests.ping"),
        crate::frame::REQ_DER => Some("serve.requests.der"),
        crate::frame::REQ_SHARD => Some("serve.requests.shard"),
        crate::frame::REQ_METRICS => Some("serve.requests.metrics"),
        _ => None,
    }
}

/// Short label for a request kind, used to template latency histogram
/// names (`serve.latency_us.<label>`).
pub fn request_kind_label(kind: u8) -> &'static str {
    match kind {
        crate::frame::REQ_PING => "ping",
        crate::frame::REQ_DER => "der",
        crate::frame::REQ_SHARD => "shard",
        crate::frame::REQ_METRICS => "metrics",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtls_tlssim::StreamError;

    #[test]
    fn every_mapped_counter_is_in_the_master_list() {
        let session_errors = [
            SessionError::Stream(StreamError::UnexpectedEof),
            SessionError::UnexpectedMessage("x"),
            SessionError::PeerAlert,
            SessionError::BadFrame,
            SessionError::Authz(AuthzError::NoCertificate),
            SessionError::Authz(AuthzError::Malformed),
            SessionError::Authz(AuthzError::Policy(Vec::new())),
        ];
        for e in &session_errors {
            let name = handshake_error_counter(e);
            assert!(ALL_COUNTERS.contains(&name), "{name} missing");
        }
        let chain_errors = [
            ChainError::IssuerNotFound,
            ChainError::BadSignature,
            ChainError::Expired,
            ChainError::IncorrectDates,
            ChainError::UntrustedRoot,
            ChainError::NotACa,
            ChainError::TooDeep,
        ];
        for e in chain_errors {
            let name = authz_error_counter(&AuthzError::Chain(e));
            assert!(ALL_COUNTERS.contains(&name), "{name} missing");
        }
        for kind in 0..=u8::MAX {
            if let Some(name) = request_kind_counter(kind) {
                assert!(ALL_COUNTERS.contains(&name), "{name} missing");
            }
        }
    }

    #[test]
    fn known_metric_covers_all_families() {
        assert!(is_known_metric("serve.connections"));
        assert!(is_known_metric("serve.handshake_us"));
        assert!(is_known_metric("serve.quota.tracked_tenants"));
        assert!(is_known_metric("serve.latency_us.ping"));
        assert!(is_known_metric("serve.latency_us.der.tenant-alpha"));
        assert!(!is_known_metric("serve.handshake_failed"), "the old lump");
        assert!(!is_known_metric("serve.authz_rejected"), "the old lump");
    }

    #[test]
    fn kind_labels_and_counters_agree() {
        for kind in [
            crate::frame::REQ_PING,
            crate::frame::REQ_DER,
            crate::frame::REQ_SHARD,
            crate::frame::REQ_METRICS,
        ] {
            let label = request_kind_label(kind);
            assert_ne!(label, "unknown");
            assert_eq!(
                request_kind_counter(kind).unwrap(),
                format!("serve.requests.{label}")
            );
        }
        assert_eq!(request_kind_label(0x7F), "unknown");
        assert_eq!(request_kind_counter(0x7F), None);
    }

    /// The doc-drift satellite: DESIGN.md's Telemetry table must name
    /// every counter, histogram, and gauge this taxonomy mints.
    #[test]
    fn design_doc_names_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let doc = std::fs::read_to_string(path).expect("read DESIGN.md");
        for name in ALL_COUNTERS.iter().chain(HISTOGRAMS).chain(GAUGES) {
            assert!(
                doc.contains(name),
                "DESIGN.md is missing metric `{name}` — regenerate the Telemetry table"
            );
        }
        assert!(
            doc.contains(LATENCY_PREFIX),
            "DESIGN.md must document the latency histogram template"
        );
    }
}
