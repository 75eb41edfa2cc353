//! Synthetic public-key infrastructure for the mtlscope simulation.
//!
//! This crate is the stand-in for the real-world trust machinery the
//! reproduced paper leans on:
//!
//! * [`ca`] — certificate authorities that mint roots, intermediates and
//!   leaves (signing with the simsig scheme from `mtls-crypto`);
//! * [`truststore`] — the four root programs the paper consults (Mozilla
//!   NSS, Apple, Microsoft, CCADB), with overlapping memberships, and the
//!   paper's *public vs private CA* decision procedure;
//! * [`chain`] — certificate-chain building and validation;
//! * [`ctlog`] — an append-only Certificate Transparency log populated at
//!   issuance time by public CAs, used by the interception filter, backed
//!   by an RFC 6962 Merkle tree ([`merkle`]) with signed tree heads and
//!   inclusion/consistency proofs ([`sth`]);
//! * [`gossip`] — aggregation-based STH gossip between simulated vantage
//!   points (campus border vs. external monitor) and the
//!   [`gossip::SplitViewDetector`] that flags equivocating logs;
//! * [`policy`] — configurable client-authentication validation policies
//!   (the validator whose real-world laxness the paper measures);
//! * [`crl`] — DER-encoded certificate revocation lists (RFC 5280 §5) and
//!   revocation checking, the management burden §7 discusses;
//! * [`issuercat`] — the paper's §4.2 issuer categories (*Public*,
//!   *Private - Corporation / Education / Government / WebHosting / Dummy /
//!   Others / MissingIssuer*) with the fuzzy organization matching they
//!   describe.
//!
//! # Example
//!
//! ```
//! use mtls_pki::{CertificateAuthority, validate_chain};
//! use mtls_pki::truststore::{RootProgram, TrustAnchors};
//! use mtls_crypto::{KeyRegistry, Keypair};
//! use mtls_x509::builder::CertificateBuilder;
//! use mtls_x509::name::DistinguishedName;
//! use mtls_asn1::time::Asn1Time;
//!
//! let now = Asn1Time::from_ymd(2022, 5, 1);
//! let root = CertificateAuthority::new_root(
//!     b"doc-root",
//!     DistinguishedName::builder().organization("Doc CA LLC").common_name("Doc Root").build(),
//!     now,
//! );
//!
//! // Issue a client-auth leaf and validate it against the anchored root.
//! let leaf_key = Keypair::from_seed(b"doc-leaf");
//! let leaf = root.issue(
//!     CertificateBuilder::new()
//!         .subject(DistinguishedName::builder().common_name("device-042").build())
//!         .validity(now.add_days(-1), now.add_days(364))
//!         .subject_key(leaf_key.key_id()),
//! );
//!
//! let mut anchors = TrustAnchors::new();
//! anchors.add_to(&[RootProgram::MozillaNss], root.certificate());
//! let mut registry = KeyRegistry::new();
//! root.register_key(&mut registry);
//!
//! let pool = vec![root.certificate().clone()];
//! let validated = validate_chain(&leaf, &pool, &anchors, &registry, now).unwrap();
//! assert!(validated.publicly_trusted);
//! ```

pub mod authz;
pub mod ca;
pub mod chain;
pub mod crl;
pub mod ctlog;
pub mod gossip;
pub mod issuercat;
pub mod merkle;
pub mod policy;
pub mod sth;
pub mod truststore;

pub use authz::{Authorized, Authorizer, AuthzError, Tenant, OPS_ORGANIZATIONAL_UNIT};
pub use ca::CertificateAuthority;
pub use chain::{validate_chain, ChainError, ValidatedChain};
pub use crl::{CertificateRevocationList, CrlBuilder, RevocationReason};
pub use ctlog::{CtIndex, CtLog};
pub use gossip::{CtAudit, CtObservation, GossipBundle, SplitViewDetector, Vantage};
pub use issuercat::{classify_org, IssuerCategory, OrgClass};
pub use policy::{ValidationPolicy, Violation};
pub use sth::{ConsistencyProof, InclusionProof, SignedTreeHead};
pub use truststore::{RootProgram, TrustAnchors, TrustStore};
