//! Hex encoding/decoding for fingerprints and serial numbers.
//!
//! Both directions are table-driven: encoding writes two bytes per input
//! byte from a 256-entry pair table (one indexed load instead of two
//! nibble lookups and two `char` pushes), and decoding maps each input
//! byte through a 256-entry nibble table where `0xFF` marks every
//! non-hex byte, so validity checking and conversion are the same load.

/// `ENC_LOWER[b]` is the two lowercase hex digits of byte `b`.
const ENC_LOWER: [[u8; 2]; 256] = build_enc(b"0123456789abcdef");
/// `ENC_UPPER[b]` is the two uppercase hex digits of byte `b`.
const ENC_UPPER: [[u8; 2]; 256] = build_enc(b"0123456789ABCDEF");
/// `DEC[c]` is the nibble value of ASCII `c`, or `0xFF` for non-hex bytes.
const DEC: [u8; 256] = build_dec(true);
/// [`DEC`] with the uppercase digits marked non-hex too: the check for
/// the lowercase-only text of a fingerprint.
const DEC_LOWER: [u8; 256] = build_dec(false);

const fn build_enc(digits: &[u8; 16]) -> [[u8; 2]; 256] {
    let mut table = [[0u8; 2]; 256];
    let mut b = 0usize;
    while b < 256 {
        table[b] = [digits[b >> 4], digits[b & 0x0F]];
        b += 1;
    }
    table
}

const fn build_dec(upper: bool) -> [u8; 256] {
    let mut table = [0xFFu8; 256];
    let mut c = 0usize;
    while c < 256 {
        let b = c as u8;
        table[c] = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' if upper => b - b'A' + 10,
            _ => 0xFF,
        };
        c += 1;
    }
    table
}

fn encode_into(bytes: &[u8], table: &[[u8; 2]; 256], out: &mut [u8]) {
    debug_assert_eq!(out.len(), bytes.len() * 2);
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&table[b as usize]);
    }
}

fn encode_with(bytes: &[u8], table: &[[u8; 2]; 256]) -> String {
    let mut out = vec![0u8; bytes.len() * 2];
    encode_into(bytes, table, &mut out);
    // The table only emits ASCII hex digits.
    debug_assert!(out.is_ascii());
    unsafe { String::from_utf8_unchecked(out) }
}

/// Encode bytes as lowercase hex.
pub fn encode(bytes: &[u8]) -> String {
    encode_with(bytes, &ENC_LOWER)
}

/// Write the lowercase hex of `bytes` into `out`, two digits per byte.
pub(crate) fn encode_lower_into(bytes: &[u8], out: &mut [u8]) {
    encode_into(bytes, &ENC_LOWER, out);
}

/// Decode hex digits already known to be valid into `out`, one byte per
/// pair.
pub(crate) fn decode_valid_into(text: &[u8], out: &mut [u8]) {
    debug_assert_eq!(text.len(), out.len() * 2);
    for (byte, pair) in out.iter_mut().zip(text.chunks_exact(2)) {
        *byte = (DEC[pair[0] as usize] << 4) | DEC[pair[1] as usize];
    }
}

/// Whether every byte of `text` is a lowercase hex digit. One table load
/// per byte, OR-folded without a branch: a valid digit maps to a nibble,
/// anything else to `0xFF`, so the fold has a high bit set exactly when
/// some byte is not a lowercase hex digit.
pub(crate) fn is_lower_hex(text: &[u8]) -> bool {
    text.iter().fold(0u8, |acc, &b| acc | DEC_LOWER[b as usize]) & 0xF0 == 0
}

/// Encode bytes as uppercase hex (Zeek logs serials in uppercase).
pub fn encode_upper(bytes: &[u8]) -> String {
    encode_with(bytes, &ENC_UPPER)
}

/// Decode a hex string (either case). Returns `None` on odd length or
/// non-hex characters.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks_exact(2) {
        let hi = DEC[pair[0] as usize];
        let lo = DEC[pair[1] as usize];
        if hi | lo == 0xFF {
            return None;
        }
        out.push((hi << 4) | lo);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let data = [0x00, 0x01, 0xAB, 0xFF, 0x7F];
        let s = encode(&data);
        assert_eq!(s, "0001abff7f");
        assert_eq!(decode(&s).unwrap(), data);
        assert_eq!(decode(&encode_upper(&data)).unwrap(), data);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(decode("abc").is_none()); // odd length
        assert!(decode("zz").is_none()); // bad chars
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rejects_every_non_hex_byte_in_either_position() {
        for c in 0u8..=255 {
            let is_hex = c.is_ascii_hexdigit();
            let lead = [c, b'0'];
            let Ok(lead) = std::str::from_utf8(&lead) else {
                continue;
            };
            assert_eq!(decode(lead).is_some(), is_hex, "lead byte {c:#04x}");
            let trail = [b'0', c];
            let Ok(trail) = std::str::from_utf8(&trail) else {
                continue;
            };
            assert_eq!(decode(trail).is_some(), is_hex, "trail byte {c:#04x}");
        }
    }

    #[test]
    fn tables_match_all_bytes() {
        for b in 0u8..=255 {
            assert_eq!(encode(&[b]), format!("{b:02x}"));
            assert_eq!(encode_upper(&[b]), format!("{b:02X}"));
            assert_eq!(decode(&format!("{b:02x}")).unwrap(), [b]);
            assert_eq!(decode(&format!("{b:02X}")).unwrap(), [b]);
        }
    }

    #[test]
    fn lower_hex_check_accepts_exactly_the_lowercase_digits() {
        for c in 0u8..=255 {
            let lower = c.is_ascii_digit() || (b'a'..=b'f').contains(&c);
            assert_eq!(is_lower_hex(&[b'0', c, b'f']), lower, "byte {c:#04x}");
        }
        assert!(is_lower_hex(b""));
    }

    #[test]
    fn upper_case_matches_zeek_style() {
        assert_eq!(encode_upper(&[0x03, 0xE8]), "03E8");
        assert_eq!(encode_upper(&[0x00]), "00");
    }
}
