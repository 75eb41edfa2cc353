//! Application framing inside the mTLS tunnel.
//!
//! Once the handshake completes, requests and responses travel as frames
//! inside `application_data` records: `kind (u8) | length (u32 BE) |
//! payload`. A frame is larger than a record on purpose — a 1 MiB shard
//! upload spans many records — so the receiving side reassembles frames
//! from record payloads exactly the way the handshake layer reassembles
//! messages, with the same tolerance for arbitrary boundaries.

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

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: u8,
    pub payload: Vec<u8>,
}

/// Framing violation: a length field past [`MAX_FRAME_PAYLOAD`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge(pub usize);

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame payload of {} bytes exceeds the limit", self.0)
    }
}

impl std::error::Error for FrameTooLarge {}

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

/// Incremental frame reassembler over record payloads.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameAssembler {
    /// Fresh, empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Append one `application_data` record payload.
    pub fn push(&mut self, payload: &[u8]) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(payload);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pull the next complete frame; `Ok(None)` means "need more bytes".
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameTooLarge> {
        let data = &self.buf[self.pos..];
        if data.len() < 5 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([data[1], data[2], data[3], data[4]]) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(FrameTooLarge(len));
        }
        if data.len() < 5 + len {
            return Ok(None);
        }
        let frame = Frame {
            kind: data[0],
            payload: data[5..5 + len].to_vec(),
        };
        self.pos += 5 + len;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_any_chunking() {
        let mut wire = encode_frame(REQ_DER, b"der-bytes");
        wire.extend(encode_frame(REQ_PING, b""));
        wire.extend(encode_frame(REQ_SHARD, &vec![7u8; 100_000]));
        for chunk_len in [1usize, 3, 16, 1000, 1 << 20] {
            let mut a = FrameAssembler::new();
            let mut frames = Vec::new();
            for chunk in wire.chunks(chunk_len) {
                a.push(chunk);
                while let Some(f) = a.next_frame().unwrap() {
                    frames.push(f);
                }
            }
            assert_eq!(frames.len(), 3, "chunk_len={chunk_len}");
            assert_eq!(frames[0].kind, REQ_DER);
            assert_eq!(frames[0].payload, b"der-bytes");
            assert_eq!(frames[1].kind, REQ_PING);
            assert!(frames[1].payload.is_empty());
            assert_eq!(frames[2].payload.len(), 100_000);
            assert_eq!(a.pending(), 0);
        }
    }

    #[test]
    fn oversize_length_rejected() {
        let mut a = FrameAssembler::new();
        let mut hdr = vec![REQ_SHARD];
        hdr.extend_from_slice(&(u32::MAX).to_be_bytes());
        a.push(&hdr);
        assert!(a.next_frame().is_err());
    }
}
