//! TLS record-layer framing.
//!
//! `struct { ContentType type; ProtocolVersion version; uint16 length;
//! opaque fragment[length]; }` — the five-byte header every TLS record
//! starts with, and the first thing dynamic protocol detection looks at.

use crate::stream::RECORD;

/// RFC 5246/8446 §5.1: a record fragment carries at most 2^14 bytes;
/// [`write_fragmented`] splits longer payloads across records at this
/// boundary.
pub const MAX_FRAGMENT: usize = 1 << 14;

/// TLS record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentType {
    ChangeCipherSpec,
    Alert,
    Handshake,
    ApplicationData,
}

impl ContentType {
    /// Wire byte.
    pub fn byte(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }

    /// From wire byte.
    pub fn from_byte(b: u8) -> Option<ContentType> {
        match b {
            20 => Some(ContentType::ChangeCipherSpec),
            21 => Some(ContentType::Alert),
            22 => Some(ContentType::Handshake),
            23 => Some(ContentType::ApplicationData),
            _ => None,
        }
    }
}

/// Legacy record-layer version bytes. TLS 1.3 puts 0x0303 on the record
/// layer and negotiates the real version in an extension — faithfully
/// modelled because the monitor must dig into extensions to see 1.3.
pub fn legacy_version_bytes(v: mtls_zeek::TlsVersion) -> [u8; 2] {
    use mtls_zeek::TlsVersion::*;
    match v {
        Tls10 => [3, 1],
        Tls11 => [3, 2],
        Tls12 | Tls13 => [3, 3],
    }
}

/// The 2-byte version used *inside* ClientHello/ServerHello bodies and the
/// supported_versions extension.
pub fn version_bytes(v: mtls_zeek::TlsVersion) -> [u8; 2] {
    use mtls_zeek::TlsVersion::*;
    match v {
        Tls10 => [3, 1],
        Tls11 => [3, 2],
        Tls12 => [3, 3],
        Tls13 => [3, 4],
    }
}

/// Inverse of [`version_bytes`].
pub fn version_from_bytes(b: [u8; 2]) -> Option<mtls_zeek::TlsVersion> {
    use mtls_zeek::TlsVersion::*;
    match b {
        [3, 1] => Some(Tls10),
        [3, 2] => Some(Tls11),
        [3, 3] => Some(Tls12),
        [3, 4] => Some(Tls13),
        _ => None,
    }
}

/// A parsed record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    pub content_type: ContentType,
    pub version: [u8; 2],
    pub length: u16,
}

impl RecordHeader {
    /// Parse the five header bytes at the front of `bytes`: a known
    /// content type and a plausible version, or the error that says why
    /// not.
    pub fn parse(bytes: &[u8]) -> Result<RecordHeader, WireError> {
        let &[ct, major, minor, len_hi, len_lo, ..] = bytes else {
            return Err(WireError::Truncated);
        };
        let content_type = ContentType::from_byte(ct).ok_or(WireError::NotTls)?;
        // [3, 0] is SSL 3.0: `version_from_bytes` cannot map it, so letting
        // it through here only deferred the rejection to a confusing place.
        if major != 3 || minor == 0 || minor > 4 {
            return Err(WireError::BadVersion);
        }
        Ok(RecordHeader {
            content_type,
            version: [major, minor],
            length: u16::from_be_bytes([len_hi, len_lo]),
        })
    }
}

/// Errors from record-layer parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a complete record.
    Truncated,
    /// First byte is not a known content type — DPD says "not TLS".
    NotTls,
    /// Version bytes are not a plausible TLS version.
    BadVersion,
    /// A length field points beyond the available data.
    BadLength,
    /// A handshake body failed structural parsing.
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::Truncated => "truncated TLS record",
            WireError::NotTls => "not a TLS stream",
            WireError::BadVersion => "implausible TLS version",
            WireError::BadLength => "bad length field",
            WireError::Malformed => "malformed handshake body",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// Frame a payload across as many records as the 2^14 fragment limit
/// demands (RFC 5246 §6.2.1: a handshake message may be split across
/// records). An empty payload still emits one (empty) record so the
/// message boundary stays observable.
pub fn write_fragmented(out: &mut Vec<u8>, ct: ContentType, version: [u8; 2], payload: &[u8]) {
    write_fragmented_parts(out, ct, version, &[payload]);
}

/// [`write_fragmented`] of the concatenation of `parts`, copied straight
/// from the parts into `out`: a record may take its bytes from several
/// parts, and the records are the ones the joined payload would make.
pub fn write_fragmented_parts(
    out: &mut Vec<u8>,
    ct: ContentType,
    version: [u8; 2],
    parts: &[&[u8]],
) {
    let mut left: usize = parts.iter().map(|p| p.len()).sum();
    let mut parts = parts.iter();
    let mut part: &[u8] = &[];
    loop {
        let len = left.min(MAX_FRAGMENT);
        out.push(ct.byte());
        out.extend_from_slice(&version);
        out.extend_from_slice(&(len as u16).to_be_bytes());
        let mut need = len;
        while need > 0 {
            if part.is_empty() {
                part = parts.next().expect("the parts hold `left` more bytes");
                continue;
            }
            let take = need.min(part.len());
            out.extend_from_slice(&part[..take]);
            part = &part[take..];
            need -= take;
        }
        left -= len;
        if left == 0 {
            return;
        }
    }
}

/// Read one record from the front of `buf`, advancing it. Returns the
/// header and the payload, borrowed from `buf`.
pub fn read_record<'a>(buf: &mut &'a [u8]) -> Result<(RecordHeader, &'a [u8]), WireError> {
    let len = RECORD.item_len(buf)?.ok_or(WireError::Truncated)?;
    let (record, rest) = buf.split_at(len);
    *buf = rest;
    Ok((RecordHeader::parse(record)?, &record[RECORD.len..]))
}

/// Content-based protocol detection: does this byte stream *look like* TLS?
/// (Zeek's DPD analogue — checks structure, not the port.) Requires a
/// syntactically valid handshake record carrying a ClientHello (0x01) or
/// ServerHello (0x02) first byte.
pub fn looks_like_tls(stream: &[u8]) -> bool {
    let mut cursor = stream;
    match read_record(&mut cursor) {
        Ok((h, payload)) => {
            h.content_type == ContentType::Handshake && matches!(payload.first(), Some(1) | Some(2))
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtls_zeek::TlsVersion;

    #[test]
    fn record_round_trip() {
        let mut buf = Vec::new();
        write_fragmented(&mut buf, ContentType::Handshake, [3, 3], b"hello");
        let mut cursor = &buf[..];
        let (h, payload) = read_record(&mut cursor).unwrap();
        assert_eq!(h.content_type, ContentType::Handshake);
        assert_eq!(h.version, [3, 3]);
        assert_eq!(payload, b"hello");
        assert!(cursor.is_empty());
    }

    #[test]
    fn truncated_detected() {
        let mut buf = Vec::new();
        write_fragmented(&mut buf, ContentType::Handshake, [3, 3], b"hello");
        let mut cursor = &buf[..buf.len() - 1];
        assert_eq!(read_record(&mut cursor), Err(WireError::Truncated));
    }

    #[test]
    fn non_tls_detected() {
        let http = b"GET / HTTP/1.1\r\nHost: example.org\r\n\r\n";
        let mut cursor = &http[..];
        assert_eq!(read_record(&mut cursor), Err(WireError::NotTls));
        assert!(!looks_like_tls(http));
    }

    #[test]
    fn ssh_banner_is_not_tls() {
        assert!(!looks_like_tls(b"SSH-2.0-OpenSSH_9.3\r\n"));
    }

    #[test]
    fn dpd_requires_hello() {
        // A handshake record whose first payload byte is not 1/2.
        let mut buf = Vec::new();
        write_fragmented(&mut buf, ContentType::Handshake, [3, 3], &[11, 0, 0, 0]);
        assert!(!looks_like_tls(&buf));
        let mut buf2 = Vec::new();
        write_fragmented(&mut buf2, ContentType::Handshake, [3, 3], &[1, 0, 0, 0]);
        assert!(looks_like_tls(&buf2));
    }

    #[test]
    fn version_byte_mappings() {
        for v in [
            TlsVersion::Tls10,
            TlsVersion::Tls11,
            TlsVersion::Tls12,
            TlsVersion::Tls13,
        ] {
            assert_eq!(version_from_bytes(version_bytes(v)), Some(v));
        }
        // 1.3 hides behind the 1.2 legacy bytes on the record layer.
        assert_eq!(legacy_version_bytes(TlsVersion::Tls13), [3, 3]);
        assert_eq!(version_from_bytes([9, 9]), None);
    }

    #[test]
    fn bad_version_rejected() {
        let raw = [22u8, 9, 9, 0, 1, 0];
        let mut cursor = &raw[..];
        assert_eq!(read_record(&mut cursor), Err(WireError::BadVersion));
    }

    #[test]
    fn ssl30_record_version_rejected() {
        // [3, 0] is SSL 3.0 — version_from_bytes cannot map it, so the
        // record layer must reject it up front instead of passing it on.
        let raw = [22u8, 3, 0, 0, 1, 1];
        let mut cursor = &raw[..];
        assert_eq!(read_record(&mut cursor), Err(WireError::BadVersion));
        assert!(!looks_like_tls(&raw));
    }

    #[test]
    fn parts_frame_like_their_concatenation() {
        // The records a joined payload makes, framed by hand: one per
        // 2^14-byte chunk, one empty record for an empty payload.
        fn reference(payload: &[u8]) -> Vec<u8> {
            let mut chunks: Vec<&[u8]> = payload.chunks(MAX_FRAGMENT).collect();
            if chunks.is_empty() {
                chunks.push(&[]);
            }
            let mut buf = Vec::new();
            for chunk in chunks {
                buf.extend_from_slice(&[23, 3, 3]);
                buf.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
                buf.extend_from_slice(chunk);
            }
            buf
        }
        let body: Vec<u8> = (0..(2 * MAX_FRAGMENT + 9) as u32)
            .map(|i| i as u8)
            .collect();
        for len in [
            0,
            1,
            5,
            MAX_FRAGMENT - 5,
            MAX_FRAGMENT,
            MAX_FRAGMENT + 1,
            body.len(),
        ] {
            let joined = &body[..len];
            for cut in [0, 1, len / 2, len.saturating_sub(1), len] {
                let cut = cut.min(len);
                let (a, b) = joined.split_at(cut);
                let mut buf = Vec::new();
                write_fragmented_parts(
                    &mut buf,
                    ContentType::ApplicationData,
                    [3, 3],
                    &[a, &[], b],
                );
                assert_eq!(buf, reference(joined), "len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn fragmented_write_splits_at_record_limit() {
        let payload: Vec<u8> = (0..70_000u32).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_fragmented(&mut buf, ContentType::Handshake, [3, 3], &payload);
        let mut cursor = &buf[..];
        let mut reassembled = Vec::new();
        let mut records = 0;
        while !cursor.is_empty() {
            let (h, chunk) = read_record(&mut cursor).unwrap();
            assert_eq!(h.content_type, ContentType::Handshake);
            assert!(chunk.len() <= MAX_FRAGMENT);
            reassembled.extend_from_slice(chunk);
            records += 1;
        }
        assert_eq!(records, 70_000usize.div_ceil(MAX_FRAGMENT));
        assert_eq!(reassembled, payload);
    }

    #[test]
    fn fragmented_empty_payload_emits_one_record() {
        let mut buf = Vec::new();
        write_fragmented(&mut buf, ContentType::Handshake, [3, 3], &[]);
        let mut cursor = &buf[..];
        let (h, payload) = read_record(&mut cursor).unwrap();
        assert_eq!(h.length, 0);
        assert!(payload.is_empty() && cursor.is_empty());
    }
}
