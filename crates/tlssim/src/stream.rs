//! Streaming record transport: the record layer over real byte streams.
//!
//! [`wire`](crate::wire) parses one record out of a complete in-memory
//! slice. A socket delivers bytes at arbitrary boundaries: a `read()` may
//! end mid-header, mid-payload, or hand back three records at once, and a
//! handshake message may span several records (RFC 5246 §6.2.1). This
//! module supplies the incremental layers a real transport needs:
//!
//! * [`RecordDeframer`] — push bytes in any chunking, pull complete
//!   records. Pure state machine, no I/O.
//! * [`HandshakeAssembler`] — push handshake-record payloads, pull
//!   complete `(msg_type, body)` messages, reassembling messages split
//!   across records.
//! * [`RecordReader`] / [`RecordWriter`] — the same machinery bound to
//!   `std::io` streams, used by `mtlscope serve` to terminate mutual TLS
//!   on a live `TcpStream`.
//!
//! The passive monitor's [`observe`](crate::monitor::observe) runs on the
//! same deframer + assembler, which is what makes its output invariant
//! under re-chunking of the captured bytes.

use crate::wire::{
    read_record, write_fragmented, write_fragmented_parts, ContentType, RecordHeader, WireError,
    MAX_FRAGMENT,
};
use std::io::{Read, Write};

/// Upper bound on a single reassembled handshake message. The u24 length
/// field allows 16 MiB - 1; no certificate chain is anywhere near that,
/// and the cap keeps a hostile peer from ballooning the buffer.
pub const MAX_HANDSHAKE_MESSAGE: usize = 1 << 20;

/// Error from a streaming transport: either the wire said no, or the
/// underlying I/O did.
#[derive(Debug)]
pub enum StreamError {
    /// Record- or handshake-layer rejection.
    Wire(WireError),
    /// Transport failure.
    Io(std::io::Error),
    /// The peer closed the stream mid-record or mid-message.
    UnexpectedEof,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Wire(e) => write!(f, "wire error: {e}"),
            StreamError::Io(e) => write!(f, "i/o error: {e}"),
            StreamError::UnexpectedEof => f.write_str("peer closed mid-record"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<WireError> for StreamError {
    fn from(e: WireError) -> StreamError {
        StreamError::Wire(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> StreamError {
        StreamError::Io(e)
    }
}

/// Incremental record parser: feed bytes in arbitrary chunks, pull
/// complete records. Once a hard wire error is seen the deframer stays
/// dead — TLS has no way to resynchronize a corrupt record stream.
#[derive(Debug, Default)]
pub struct RecordDeframer {
    buf: Vec<u8>,
    pos: usize,
    dead: Option<WireError>,
}

impl RecordDeframer {
    /// Fresh, empty deframer.
    pub fn new() -> RecordDeframer {
        RecordDeframer::default()
    }

    /// Append raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.dead.is_none() {
            self.compact();
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet consumed as complete records.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The error that killed the stream, if any.
    pub fn error(&self) -> Option<WireError> {
        self.dead
    }

    fn compact(&mut self) {
        // Reclaim consumed prefix once it dominates the buffer.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Pull the next complete record. `Ok(None)` means "need more bytes";
    /// an error is terminal.
    pub fn next_record(&mut self) -> Result<Option<(RecordHeader, Vec<u8>)>, WireError> {
        if let Some(e) = self.dead {
            return Err(e);
        }
        let mut cursor = &self.buf[self.pos..];
        let before = cursor.len();
        match read_record(&mut cursor) {
            Ok((header, payload)) => {
                self.pos += before - cursor.len();
                Ok(Some((header, payload)))
            }
            Err(WireError::Truncated) => Ok(None),
            Err(e) => {
                self.dead = Some(e);
                Err(e)
            }
        }
    }
}

/// Incremental handshake-message reassembler: push the payloads of
/// handshake records (in stream order), pull complete
/// `(msg_type, body)` messages — even when one message spans several
/// records or one record carries several messages.
#[derive(Debug, Default)]
pub struct HandshakeAssembler {
    buf: Vec<u8>,
    pos: usize,
}

impl HandshakeAssembler {
    /// Fresh, empty assembler.
    pub fn new() -> HandshakeAssembler {
        HandshakeAssembler::default()
    }

    /// Append one handshake-record payload.
    pub fn push(&mut self, payload: &[u8]) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(payload);
    }

    /// Bytes buffered but not yet consumed as complete messages.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pull the next complete handshake message. `Ok(None)` means a
    /// partial message is waiting for more records.
    pub fn next_message(&mut self) -> Result<Option<(u8, Vec<u8>)>, WireError> {
        let data = &self.buf[self.pos..];
        if data.len() < 4 {
            return Ok(None);
        }
        let len = usize::from(data[1]) << 16 | usize::from(data[2]) << 8 | usize::from(data[3]);
        if len > MAX_HANDSHAKE_MESSAGE {
            return Err(WireError::BadLength);
        }
        if data.len() < 4 + len {
            return Ok(None);
        }
        let msg_type = data[0];
        let body = data[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some((msg_type, body)))
    }
}

/// Blocking record reader over any `io::Read` (a `TcpStream` in `serve`).
pub struct RecordReader<R: Read> {
    inner: R,
    deframer: RecordDeframer,
    chunk: Box<[u8; 8192]>,
    eof: bool,
}

impl<R: Read> RecordReader<R> {
    /// Wrap a byte stream.
    pub fn new(inner: R) -> RecordReader<R> {
        RecordReader {
            inner,
            deframer: RecordDeframer::new(),
            chunk: Box::new([0u8; 8192]),
            eof: false,
        }
    }

    /// Read the next record, blocking for more bytes as needed.
    /// `Ok(None)` is a clean EOF on a record boundary; EOF mid-record is
    /// [`StreamError::UnexpectedEof`].
    pub fn read_record(&mut self) -> Result<Option<(RecordHeader, Vec<u8>)>, StreamError> {
        loop {
            if let Some(rec) = self.deframer.next_record()? {
                return Ok(Some(rec));
            }
            if self.eof {
                return if self.deframer.pending() == 0 {
                    Ok(None)
                } else {
                    Err(StreamError::UnexpectedEof)
                };
            }
            match self.inner.read(&mut self.chunk[..]) {
                Ok(0) => self.eof = true,
                Ok(n) => self.deframer.push(&self.chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(StreamError::Io(e)),
            }
        }
    }
}

/// Record writer over any `io::Write`: fragments big payloads at the 2^14
/// limit, so no record's u16 length field can wrap.
///
/// The writer holds no queue: every call frames its records and hands them
/// to the stream in one `write_all`, so nothing is left unsent when a
/// caller bails out on an error path.
pub struct RecordWriter<W: Write> {
    inner: W,
    version: [u8; 2],
}

impl<W: Write> RecordWriter<W> {
    /// Wrap a byte stream; `version` goes into every record header.
    pub fn new(inner: W, version: [u8; 2]) -> RecordWriter<W> {
        RecordWriter { inner, version }
    }

    /// Write one payload, fragmenting across records as needed, and flush.
    pub fn write(&mut self, ct: ContentType, payload: &[u8]) -> Result<(), StreamError> {
        self.write_flight(&[(ct, payload)])
    }

    /// Write a flight — several payloads, each framed (and fragmented) as
    /// its own record run, in order — with one `write_all`, and flush. The
    /// bytes equal one [`write`](Self::write) per payload; only the
    /// segmentation handed to the stream differs.
    pub fn write_flight(&mut self, flight: &[(ContentType, &[u8])]) -> Result<(), StreamError> {
        let framed: usize = flight
            .iter()
            .map(|(_, payload)| payload.len() + 5 * (1 + payload.len() / MAX_FRAGMENT))
            .sum();
        let mut buf = Vec::with_capacity(framed);
        for &(ct, payload) in flight {
            write_fragmented(&mut buf, ct, self.version, payload);
        }
        self.inner.write_all(&buf)?;
        self.inner.flush()?;
        Ok(())
    }

    /// Write the concatenation of `parts` as one payload — the records
    /// [`write`](Self::write) of the joined bytes makes — with one
    /// `write_all`, and flush. Each byte is copied once, from its part
    /// into the record buffer, so a caller with a header and a body never
    /// joins them first.
    pub fn write_parts(&mut self, ct: ContentType, parts: &[&[u8]]) -> Result<(), StreamError> {
        let payload: usize = parts.iter().map(|p| p.len()).sum();
        let mut buf = Vec::with_capacity(payload + 5 * (1 + payload / MAX_FRAGMENT));
        write_fragmented_parts(&mut buf, ct, self.version, parts);
        self.inner.write_all(&buf)?;
        self.inner.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::handshake_envelope;

    fn framed(ct: ContentType, payload: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        write_fragmented(&mut b, ct, [3, 3], payload);
        b
    }

    #[test]
    fn deframer_handles_any_chunking() {
        let mut stream = framed(ContentType::Handshake, b"abc");
        stream.extend(framed(ContentType::ApplicationData, &[9u8; 300]));
        for chunk_len in [1usize, 2, 3, 5, 7, 64, 10_000] {
            let mut d = RecordDeframer::new();
            let mut records = Vec::new();
            for chunk in stream.chunks(chunk_len) {
                d.push(chunk);
                while let Some(rec) = d.next_record().unwrap() {
                    records.push(rec);
                }
            }
            assert_eq!(records.len(), 2, "chunk_len={chunk_len}");
            assert_eq!(records[0].1, b"abc");
            assert_eq!(records[1].1, vec![9u8; 300]);
            assert_eq!(d.pending(), 0);
        }
    }

    #[test]
    fn deframer_dies_on_garbage_and_stays_dead() {
        let mut d = RecordDeframer::new();
        d.push(b"GET / HTTP/1.1\r\n");
        assert_eq!(d.next_record(), Err(WireError::NotTls));
        assert_eq!(d.next_record(), Err(WireError::NotTls));
        d.push(&framed(ContentType::Handshake, b"x"));
        assert_eq!(d.next_record(), Err(WireError::NotTls));
    }

    #[test]
    fn deframer_rejects_ssl30() {
        let mut d = RecordDeframer::new();
        d.push(&[22, 3, 0, 0, 1, 1]);
        assert_eq!(d.next_record(), Err(WireError::BadVersion));
    }

    #[test]
    fn assembler_reassembles_across_records() {
        // One 70,000-byte handshake message, fragmented across records.
        let body = vec![0xABu8; 70_000];
        let msg = handshake_envelope(11, &body);
        let stream = framed(ContentType::Handshake, &msg);
        let mut d = RecordDeframer::new();
        let mut a = HandshakeAssembler::new();
        d.push(&stream);
        let mut messages = Vec::new();
        while let Some((h, payload)) = d.next_record().unwrap() {
            assert_eq!(h.content_type, ContentType::Handshake);
            a.push(&payload);
            while let Some(m) = a.next_message().unwrap() {
                messages.push(m);
            }
        }
        assert_eq!(messages.len(), 1);
        assert_eq!(messages[0].0, 11);
        assert_eq!(messages[0].1, body);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn assembler_handles_multiple_messages_per_record() {
        let mut payload = handshake_envelope(1, b"one");
        payload.extend(handshake_envelope(2, b"two"));
        let mut a = HandshakeAssembler::new();
        a.push(&payload);
        assert_eq!(a.next_message().unwrap(), Some((1, b"one".to_vec())));
        assert_eq!(a.next_message().unwrap(), Some((2, b"two".to_vec())));
        assert_eq!(a.next_message().unwrap(), None);
    }

    #[test]
    fn reader_writer_round_trip_over_io() {
        let mut wire = Vec::new();
        {
            let mut w = RecordWriter::new(&mut wire, [3, 3]);
            w.write(ContentType::Handshake, &vec![5u8; 40_000]).unwrap();
            w.write(ContentType::ApplicationData, b"req").unwrap();
        }
        let mut r = RecordReader::new(std::io::Cursor::new(wire));
        let mut total_hs = 0usize;
        loop {
            match r.read_record().unwrap() {
                Some((h, payload)) if h.content_type == ContentType::Handshake => {
                    assert!(payload.len() <= MAX_FRAGMENT);
                    total_hs += payload.len();
                }
                Some((h, payload)) => {
                    assert_eq!(h.content_type, ContentType::ApplicationData);
                    assert_eq!(payload, b"req");
                }
                None => break,
            }
        }
        assert_eq!(total_hs, 40_000);
    }

    #[test]
    fn flight_bytes_equal_one_write_per_record() {
        let big = vec![7u8; 20_000];
        let flight: [(ContentType, &[u8]); 4] = [
            (ContentType::Handshake, &big),
            (ContentType::ChangeCipherSpec, &[1]),
            (ContentType::Handshake, b""),
            (ContentType::Handshake, b"fin"),
        ];
        let mut one_by_one = Vec::new();
        {
            let mut w = RecordWriter::new(&mut one_by_one, [3, 3]);
            for (ct, payload) in flight {
                w.write(ct, payload).unwrap();
            }
        }
        let mut whole = Vec::new();
        RecordWriter::new(&mut whole, [3, 3])
            .write_flight(&flight)
            .unwrap();
        assert_eq!(whole, one_by_one);
        // 20,000 bytes fragment into two records; the rest are one each.
        assert_eq!(whole.len(), 20_000 + 1 + 3 + 5 * 5);
    }

    #[test]
    fn reader_flags_eof_mid_record() {
        let stream = framed(ContentType::Handshake, b"hello");
        let cut = &stream[..stream.len() - 2];
        let mut r = RecordReader::new(std::io::Cursor::new(cut.to_vec()));
        assert!(matches!(r.read_record(), Err(StreamError::UnexpectedEof)));
    }

    #[test]
    fn assembler_caps_message_size() {
        // A u24 length of 0xFFFFFF is the cap; the assembler must not sit
        // buffering forever on an insane claim — it errors at the cap.
        let mut a = HandshakeAssembler::new();
        a.push(&[1, 0xFF, 0xFF, 0xFF]);
        assert_eq!(a.next_message(), Err(WireError::BadLength));
    }
}
