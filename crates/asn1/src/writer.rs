//! DER encoder.
//!
//! `DerWriter` appends TLVs to an internal buffer. Nested constructed types
//! (`SEQUENCE`, `SET`, explicit context tags) are written through closures:
//! the body is rendered into a scratch writer first so the definite length is
//! known before the header is emitted — DER forbids indefinite lengths.

use crate::oid::Oid;
use crate::tag::Tag;
use crate::time::Asn1Time;

/// An append-only DER encoder.
#[derive(Debug, Default)]
pub struct DerWriter {
    buf: Vec<u8>,
}

impl DerWriter {
    /// A fresh, empty writer.
    pub fn new() -> DerWriter {
        DerWriter { buf: Vec::new() }
    }

    /// A writer with pre-allocated capacity, for hot paths that know their
    /// approximate output size (certificate minting mints millions).
    pub fn with_capacity(cap: usize) -> DerWriter {
        DerWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consume the writer and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a complete TLV with the given tag and content.
    pub fn tlv(&mut self, tag: Tag, content: &[u8]) {
        self.buf.push(tag.octet());
        write_length(&mut self.buf, content.len());
        self.buf.extend_from_slice(content);
    }

    /// Append pre-encoded DER bytes verbatim (e.g. a nested certificate).
    pub fn raw(&mut self, der: &[u8]) {
        self.buf.extend_from_slice(der);
    }

    /// Write a constructed value: the closure fills the body.
    pub fn constructed(&mut self, tag: Tag, f: impl FnOnce(&mut DerWriter)) {
        debug_assert!(
            tag.is_constructed(),
            "constructed() needs a constructed tag"
        );
        let mut inner = DerWriter::new();
        f(&mut inner);
        self.tlv(tag, &inner.buf);
    }

    /// Write a `SEQUENCE`.
    pub fn sequence(&mut self, f: impl FnOnce(&mut DerWriter)) {
        self.constructed(Tag::SEQUENCE, f);
    }

    /// Write a `SET`.
    pub fn set(&mut self, f: impl FnOnce(&mut DerWriter)) {
        self.constructed(Tag::SET, f);
    }

    /// Write an explicit context tag `[n]` wrapping the closure's body.
    pub fn explicit(&mut self, n: u8, f: impl FnOnce(&mut DerWriter)) {
        self.constructed(Tag::context_constructed(n), f);
    }

    /// Write a BOOLEAN (DER canonical: 0xFF / 0x00).
    pub fn boolean(&mut self, value: bool) {
        self.tlv(Tag::BOOLEAN, &[if value { 0xFF } else { 0x00 }]);
    }

    /// Write an INTEGER from a signed native value.
    pub fn integer_i64(&mut self, value: i64) {
        let bytes = value.to_be_bytes();
        let content = minimal_signed(&bytes, value < 0);
        self.tlv(Tag::INTEGER, content);
    }

    /// Write an INTEGER from unsigned big-endian magnitude bytes (serial
    /// numbers). A leading zero octet is added if the high bit is set, and
    /// redundant leading zeros are stripped; an empty slice encodes zero.
    pub fn integer_bytes(&mut self, magnitude: &[u8]) {
        let mut start = 0;
        while start < magnitude.len() && magnitude[start] == 0 {
            start += 1;
        }
        let trimmed = &magnitude[start..];
        if trimmed.is_empty() {
            self.tlv(Tag::INTEGER, &[0]);
        } else if trimmed[0] & 0x80 != 0 {
            let mut content = Vec::with_capacity(trimmed.len() + 1);
            content.push(0);
            content.extend_from_slice(trimmed);
            self.tlv(Tag::INTEGER, &content);
        } else {
            self.tlv(Tag::INTEGER, trimmed);
        }
    }

    /// Write a BIT STRING with zero unused bits (signatures, key bits).
    pub fn bit_string(&mut self, bits: &[u8]) {
        let mut content = Vec::with_capacity(bits.len() + 1);
        content.push(0);
        content.extend_from_slice(bits);
        self.tlv(Tag::BIT_STRING, &content);
    }

    /// Write an OCTET STRING.
    pub fn octet_string(&mut self, bytes: &[u8]) {
        self.tlv(Tag::OCTET_STRING, bytes);
    }

    /// Write a NULL.
    pub fn null(&mut self) {
        self.tlv(Tag::NULL, &[]);
    }

    /// Write an ENUMERATED (same content rules as INTEGER; used by CRL
    /// reason codes).
    pub fn enumerated(&mut self, value: i64) {
        let bytes = value.to_be_bytes();
        let content = minimal_signed(&bytes, value < 0);
        self.tlv(Tag::ENUMERATED, content);
    }

    /// Write an OBJECT IDENTIFIER.
    pub fn oid(&mut self, oid: &Oid) {
        self.tlv(Tag::OID, &oid.to_der_content());
    }

    /// Write a UTF8String.
    pub fn utf8_string(&mut self, s: &str) {
        self.tlv(Tag::UTF8_STRING, s.as_bytes());
    }

    /// Write a PrintableString. The caller must ensure the character set is
    /// legal (`is_printable_string`); minting code uses UTF8String otherwise.
    pub fn printable_string(&mut self, s: &str) {
        debug_assert!(is_printable_string(s));
        self.tlv(Tag::PRINTABLE_STRING, s.as_bytes());
    }

    /// Write a context-specific *primitive* tag `[n]` with raw content
    /// (GeneralName alternatives in SAN).
    pub fn context_primitive(&mut self, n: u8, content: &[u8]) {
        self.tlv(Tag::context(n), content);
    }

    /// Write a time value, choosing UTCTime vs GeneralizedTime per RFC 5280.
    pub fn time(&mut self, t: Asn1Time) {
        let (s, is_utc) = t.to_der_string();
        let tag = if is_utc {
            Tag::UTC_TIME
        } else {
            Tag::GENERALIZED_TIME
        };
        self.tlv(tag, s.as_bytes());
    }
}

/// Minimal two's-complement representation of a big-endian signed value.
fn minimal_signed(bytes: &[u8; 8], negative: bool) -> &[u8] {
    let pad = if negative { 0xFF } else { 0x00 };
    let mut start = 0;
    while start < 7 {
        let sign_ok = if negative {
            bytes[start + 1] & 0x80 != 0
        } else {
            bytes[start + 1] & 0x80 == 0
        };
        if bytes[start] == pad && sign_ok {
            start += 1;
        } else {
            break;
        }
    }
    &bytes[start..]
}

/// DER definite length: short form < 0x80, else long form with minimal bytes.
/// Widened to u64 so content lengths ≥ 2^32 encode correctly (the previous
/// `as u32` cast silently truncated them to their low 32 bits).
pub(crate) fn write_length(buf: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        buf.push(len as u8);
    } else {
        let be = (len as u64).to_be_bytes();
        let skip = be.iter().take_while(|&&b| b == 0).count();
        buf.push(0x80 | (8 - skip) as u8);
        buf.extend_from_slice(&be[skip..]);
    }
}

/// PrintableString character set per X.680.
pub fn is_printable_string(s: &str) -> bool {
    s.bytes().all(|b| {
        b.is_ascii_alphanumeric()
            || matches!(
                b,
                b' ' | b'\'' | b'(' | b')' | b'+' | b',' | b'-' | b'.' | b'/' | b':' | b'=' | b'?'
            )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_and_long_lengths() {
        let mut buf = Vec::new();
        write_length(&mut buf, 0x7F);
        assert_eq!(buf, vec![0x7F]);

        buf.clear();
        write_length(&mut buf, 0x80);
        assert_eq!(buf, vec![0x81, 0x80]);

        buf.clear();
        write_length(&mut buf, 0x1234);
        assert_eq!(buf, vec![0x82, 0x12, 0x34]);

        buf.clear();
        write_length(&mut buf, 0xFF);
        assert_eq!(buf, vec![0x81, 0xFF]);

        buf.clear();
        write_length(&mut buf, 0x100);
        assert_eq!(buf, vec![0x82, 0x01, 0x00]);

        buf.clear();
        write_length(&mut buf, 0xFFFF);
        assert_eq!(buf, vec![0x82, 0xFF, 0xFF]);

        buf.clear();
        write_length(&mut buf, 0x1_0000);
        assert_eq!(buf, vec![0x83, 0x01, 0x00, 0x00]);

        buf.clear();
        write_length(&mut buf, 0x0101_0101);
        assert_eq!(buf, vec![0x84, 0x01, 0x01, 0x01, 0x01]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn lengths_beyond_u32_do_not_truncate() {
        // 2^32 used to wrap to 0 via the `as u32` cast, emitting `0x80` —
        // the (forbidden) indefinite-length marker. Call the helper
        // directly: no 4 GiB buffer needed to pin the header bytes.
        let mut buf = Vec::new();
        write_length(&mut buf, 0x1_0000_0000);
        assert_eq!(buf, vec![0x85, 0x01, 0x00, 0x00, 0x00, 0x00]);

        buf.clear();
        write_length(&mut buf, 0xFFFF_FFFF);
        assert_eq!(buf, vec![0x84, 0xFF, 0xFF, 0xFF, 0xFF]);

        buf.clear();
        write_length(&mut buf, 0x0123_4567_89AB_CDEF);
        assert_eq!(
            buf,
            vec![0x88, 0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF]
        );
    }

    #[test]
    fn integer_encodings_are_canonical() {
        let enc = |v: i64| {
            let mut w = DerWriter::new();
            w.integer_i64(v);
            w.finish()
        };
        assert_eq!(enc(0), vec![0x02, 0x01, 0x00]);
        assert_eq!(enc(127), vec![0x02, 0x01, 0x7F]);
        assert_eq!(enc(128), vec![0x02, 0x02, 0x00, 0x80]);
        assert_eq!(enc(256), vec![0x02, 0x02, 0x01, 0x00]);
        assert_eq!(enc(-1), vec![0x02, 0x01, 0xFF]);
        assert_eq!(enc(-128), vec![0x02, 0x01, 0x80]);
        assert_eq!(enc(-129), vec![0x02, 0x02, 0xFF, 0x7F]);
    }

    #[test]
    fn integer_bytes_pads_high_bit() {
        let mut w = DerWriter::new();
        w.integer_bytes(&[0x80]);
        assert_eq!(w.finish(), vec![0x02, 0x02, 0x00, 0x80]);
    }

    #[test]
    fn integer_bytes_strips_leading_zeros() {
        let mut w = DerWriter::new();
        w.integer_bytes(&[0x00, 0x00, 0x24, 0x68, 0x00]);
        assert_eq!(w.finish(), vec![0x02, 0x03, 0x24, 0x68, 0x00]);
    }

    #[test]
    fn integer_bytes_zero() {
        let mut w = DerWriter::new();
        w.integer_bytes(&[]);
        assert_eq!(w.finish(), vec![0x02, 0x01, 0x00]);
        let mut w = DerWriter::new();
        w.integer_bytes(&[0, 0]);
        assert_eq!(w.finish(), vec![0x02, 0x01, 0x00]);
    }

    #[test]
    fn nested_sequences() {
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.sequence(|w| w.null());
            w.boolean(true);
        });
        assert_eq!(
            w.finish(),
            vec![0x30, 0x07, 0x30, 0x02, 0x05, 0x00, 0x01, 0x01, 0xFF]
        );
    }

    #[test]
    fn bit_string_has_unused_bits_prefix() {
        let mut w = DerWriter::new();
        w.bit_string(&[0xAB, 0xCD]);
        assert_eq!(w.finish(), vec![0x03, 0x03, 0x00, 0xAB, 0xCD]);
    }

    #[test]
    fn printable_string_charset() {
        assert!(is_printable_string("Globus Online"));
        assert!(is_printable_string("Acme Co"));
        assert!(!is_printable_string("a@b")); // '@' not allowed
        assert!(!is_printable_string("x_y")); // '_' not allowed
    }
}
