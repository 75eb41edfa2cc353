//! Cryptographic primitives for the mtlscope stack, implemented from scratch.
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256, validated against the NIST test vectors
//!   in this crate's tests. A SHA-NI core runs where the CPU has the
//!   extensions (detected at run time); the portable core runs elsewhere.
//! * [`hmac`] — RFC 2104 HMAC-SHA256, validated against RFC 4231 vectors.
//! * [`simsig`] — the *simulated signature* scheme ("simsig") that stands in
//!   for RSA/ECDSA when minting millions of synthetic certificates. A simsig
//!   keypair is a 32-byte secret plus a public key identifier derived from it;
//!   a signature is an HMAC-SHA256 tag over the signed bytes. Verification
//!   requires looking the secret up from the key identifier in a
//!   [`simsig::KeyRegistry`] — standing in for "the verifier knows the CA's
//!   public key". The substitution is documented in DESIGN.md §1: everything
//!   the reproduced paper measures depends on certificate *structure*, not on
//!   which asymmetric primitive signs it, and simsig still makes forged or
//!   mis-chained certificates fail validation.
//! * [`hex`] — lowercase hex encode/decode for fingerprints and serials.
//! * [`Fp`] — a SHA-256 fingerprint as its 64 lowercase hex digits, held
//!   inline: the join key between Zeek's `ssl.log` and `x509.log`.
//!
//! # Example
//!
//! ```
//! use mtls_crypto::{sha256, Keypair, KeyRegistry};
//!
//! // Hashing (certificate fingerprints are SHA-256 of the DER bytes).
//! let digest = sha256(b"hello");
//! assert_eq!(mtls_crypto::hex::encode(&digest[..4]), "2cf24dba");
//!
//! // Simulated signatures: sign with a keypair, verify via the registry
//! // (the registry models "the verifier knows this CA's public key").
//! let ca_key = Keypair::from_seed(b"example-ca");
//! let sig = ca_key.sign(b"to-be-signed");
//! let mut registry = KeyRegistry::new();
//! registry.register(ca_key.clone());
//! assert!(registry.verify(ca_key.key_id(), b"to-be-signed", &sig));
//! assert!(!registry.verify(ca_key.key_id(), b"tampered", &sig));
//! ```

mod fp;
pub mod hex;
pub mod hmac;
pub mod sha256;
pub mod simsig;

pub use fp::Fp;
pub use hmac::hmac_sha256;
pub use sha256::{sha256, sha256_scalar, sha_ni_available, Sha256};
pub use simsig::{KeyId, KeyRegistry, Keypair, Signature};
