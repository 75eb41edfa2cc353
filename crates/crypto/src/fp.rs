//! [`Fp`]: a SHA-256 certificate fingerprint held as its hex text, inline.
//!
//! Zeek's `ssl.log` names every certificate of a chain by fingerprint, and
//! `x509.log` keys each certificate row by the same value, so the
//! fingerprint is the join key of the whole analysis. Holding it as a
//! heap `String` costs an allocation, a copy and a free per reference;
//! `Fp` is the same 64 bytes of text in a fixed-size, `Copy` value.
//!
//! The join compares and hashes fingerprints far more often than it reads
//! them, so equality compares the text as four 16-byte words, and the
//! hash reads only the first 16 digits: they are hex of a SHA-256 digest,
//! so they are uniform, and equal fingerprints share them.

use crate::{hex, sha256};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A SHA-256 fingerprint: exactly 64 lowercase hex digits, checked once
/// where the value enters ([`Fp::parse`]) or written straight from a
/// digest ([`Fp::from_digest`]). [`Fp::as_str`] and [`Fp::as_bytes`]
/// return that text, and the order is the text's byte order, so a list of
/// `Fp`s sorts exactly as the same fingerprints held as strings.
#[derive(Clone, Copy, Eq, PartialOrd, Ord)]
pub struct Fp([u8; Fp::LEN]);

impl Fp {
    /// Text length: two hex digits per SHA-256 digest byte.
    pub const LEN: usize = 64;

    /// The fingerprint written as `text`, if `text` is exactly 64
    /// lowercase hex digits.
    #[inline]
    pub fn parse(text: &str) -> Option<Fp> {
        Fp::parse_bytes(text.as_bytes())
    }

    /// [`Fp::parse`] over raw bytes.
    #[inline]
    pub fn parse_bytes(text: &[u8]) -> Option<Fp> {
        let digits: [u8; Fp::LEN] = text.try_into().ok()?;
        hex::is_lower_hex(&digits).then_some(Fp(digits))
    }

    /// The fingerprint of a SHA-256 digest.
    pub fn from_digest(digest: &[u8; 32]) -> Fp {
        let mut digits = [0u8; Fp::LEN];
        hex::encode_lower_into(digest, &mut digits);
        Fp(digits)
    }

    /// The fingerprint of `bytes`: the SHA-256 digest of them.
    pub fn of(bytes: &[u8]) -> Fp {
        Fp::from_digest(&sha256(bytes))
    }

    /// The SHA-256 digest the digits spell.
    pub fn digest(&self) -> [u8; 32] {
        let mut digest = [0u8; 32];
        hex::decode_valid_into(&self.0, &mut digest);
        digest
    }

    /// The 64 hex digits.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The 64 hex digits as text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("an Fp holds only ASCII hex digits")
    }

    /// The `i`th 16-digit word of the text.
    #[inline]
    fn word(&self, i: usize) -> u128 {
        let mut word = [0u8; 16];
        word.copy_from_slice(&self.0[16 * i..16 * (i + 1)]);
        u128::from_le_bytes(word)
    }
}

/// Byte equality of the 64 digits, as four word compares inline.
impl PartialEq for Fp {
    #[inline]
    fn eq(&self, other: &Fp) -> bool {
        let diff = |i| self.word(i) ^ other.word(i);
        diff(0) | diff(1) | diff(2) | diff(3) == 0
    }
}

/// Two 64-bit words of the first 16 digits: equal fingerprints write the
/// same words, and those digits carry 64 uniform bits of the digest.
impl Hash for Fp {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let head = self.word(0);
        state.write_u64(head as u64);
        state.write_u64((head >> 64) as u64);
    }
}

/// The all-zero digest's fingerprint: the starting value of a record that
/// is refilled row after row.
impl Default for Fp {
    fn default() -> Fp {
        Fp([b'0'; Fp::LEN])
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_text_parses_back() {
        let fp = Fp::of(b"hello");
        assert_eq!(
            fp.as_str(),
            "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
        );
        assert_eq!(Fp::parse(fp.as_str()), Some(fp));
        assert_eq!(fp.digest(), sha256(b"hello"));
        assert_eq!(Fp::from_digest(&fp.digest()), fp);
        assert_eq!(fp.to_string(), fp.as_str());
        assert_eq!(fp.as_bytes(), fp.as_str().as_bytes());
        assert_eq!(Fp::default().as_str(), "0".repeat(64));
    }

    #[test]
    fn rejects_wrong_length_case_and_digits() {
        let good = Fp::of(b"x").to_string();
        assert!(Fp::parse(&good[..63]).is_none());
        assert!(Fp::parse(&format!("{good}0")).is_none());
        assert!(Fp::parse(&good.to_ascii_uppercase()).is_none());
        assert!(Fp::parse(&format!("g{}", &good[1..])).is_none());
        assert!(Fp::parse("-").is_none());
        assert!(Fp::parse("").is_none());
    }
}
