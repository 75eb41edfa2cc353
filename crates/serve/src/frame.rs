//! Application framing inside the mTLS tunnel.
//!
//! Once the handshake completes, requests and responses travel as frames
//! inside `application_data` records: `kind (u8) | length (u32 BE) |
//! payload`. A frame is larger than a record on purpose — a 1 MiB shard
//! upload spans many records — so the receiving side reassembles frames
//! from record payloads with the reassembler that rebuilds records and
//! handshake messages, over the [`FRAME`] header.

use mtls_tlssim::stream::Header;

/// Request: one raw DER certificate blob.
pub const REQ_DER: u8 = 1;
/// Request: one Zeek `x509.log` shard (TSV bytes).
pub const REQ_SHARD: u8 = 2;
/// Request: liveness probe, empty payload.
pub const REQ_PING: u8 = 3;
/// Request: the live metrics + flight-recorder snapshot (admin frame,
/// ops-class tenants only; empty payload).
pub const REQ_METRICS: u8 = 4;
/// Response: a verdict (UTF-8 text, byte-identical to the offline path).
pub const RESP_VERDICT: u8 = 0x81;
/// Response: a request-level error (UTF-8 text).
pub const RESP_ERROR: u8 = 0x82;
/// Response: the tenant's token bucket is empty.
pub const RESP_THROTTLED: u8 = 0x83;
/// Response: pong, empty payload.
pub const RESP_PONG: u8 = 0x84;
/// Response: the metrics snapshot (JSON envelope, UTF-8 text).
pub const RESP_METRICS: u8 = 0x85;

/// Upper bound on a frame payload: large enough for any realistic shard,
/// small enough that a hostile length field cannot balloon the buffer.
pub const MAX_FRAME_PAYLOAD: usize = 8 << 20;

/// The frame header: `kind (u8) | length (u32 BE)`, at most
/// [`MAX_FRAME_PAYLOAD`] payload bytes. A
/// [`Reassembler`](mtls_tlssim::Reassembler) over it turns record payloads
/// back into frames.
pub const FRAME: Header = Header {
    len: 5,
    length_at: 1,
    length_width: 4,
    max: MAX_FRAME_PAYLOAD,
    check: None,
};

/// One decoded frame, borrowed from the buffer it was reassembled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    pub kind: u8,
    pub payload: &'a [u8],
}

/// Encode one frame.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    out.extend_from_slice(&frame_header(kind, payload.len()));
    out.extend_from_slice(payload);
    out
}

/// The 5-byte header of a frame carrying `len` payload bytes.
pub fn frame_header(kind: u8, len: usize) -> [u8; 5] {
    let [a, b, c, d] = (len as u32).to_be_bytes();
    [kind, a, b, c, d]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtls_tlssim::{Reassembler, WireError};

    #[test]
    fn round_trip_any_chunking() {
        let mut wire = encode_frame(REQ_DER, b"der-bytes");
        wire.extend(encode_frame(REQ_PING, b""));
        wire.extend(encode_frame(REQ_SHARD, &vec![7u8; 100_000]));
        for chunk_len in [1usize, 3, 16, 1000, 1 << 20] {
            let mut a = Reassembler::new(FRAME);
            let mut frames = Vec::new();
            for chunk in wire.chunks(chunk_len) {
                a.push(chunk);
                while let Some(item) = a.next_item().unwrap() {
                    frames.push((item[0], item[FRAME.len..].to_vec()));
                }
            }
            assert_eq!(frames.len(), 3, "chunk_len={chunk_len}");
            assert_eq!(frames[0], (REQ_DER, b"der-bytes".to_vec()));
            assert_eq!(frames[1], (REQ_PING, Vec::new()));
            assert_eq!(frames[2], (REQ_SHARD, vec![7u8; 100_000]));
            assert_eq!(a.pending(), 0);
        }
    }

    #[test]
    fn oversize_length_rejected() {
        let mut a = Reassembler::new(FRAME);
        let mut hdr = vec![REQ_SHARD];
        hdr.extend_from_slice(&(u32::MAX).to_be_bytes());
        a.push(&hdr);
        assert_eq!(a.next_item(), Err(WireError::BadLength));
    }
}
