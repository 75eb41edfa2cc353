//! Streaming record transport: the record layer over real byte streams.
//!
//! [`wire`](crate::wire) parses one record out of a complete in-memory
//! slice. A socket delivers bytes at arbitrary boundaries: a `read()` may
//! end mid-header, mid-payload, or hand back three records at once, and a
//! handshake message may span several records (RFC 5246 §6.2.1). This
//! module supplies the incremental layers a real transport needs:
//!
//! * [`Reassembler`] — push bytes in any chunking, borrow complete
//!   length-prefixed items. Pure state machine, no I/O. A [`Header`]
//!   describes each layer it serves: [`RECORD`] for TLS records,
//!   [`HANDSHAKE`] for handshake messages reassembled from record
//!   payloads, and `mtlscope serve`'s request frames.
//! * [`RecordReader`] / [`RecordWriter`] — records over `std::io`
//!   streams, used by `mtlscope serve` to terminate mutual TLS on a live
//!   `TcpStream`.
//!
//! The passive monitor's [`observe`](crate::monitor::observe) runs on the
//! same two reassemblers, which is what makes its output invariant under
//! re-chunking of the captured bytes.

use crate::wire::{
    write_fragmented, write_fragmented_parts, ContentType, RecordHeader, WireError, MAX_FRAGMENT,
};
use std::io::{Read, Write};

/// Upper bound on a single reassembled handshake message. The u24 length
/// field allows 16 MiB - 1; no certificate chain is anywhere near that,
/// and the cap keeps a hostile peer from ballooning the buffer.
pub const MAX_HANDSHAKE_MESSAGE: usize = 1 << 20;

/// The shape of a length-prefixed item: `len` header bytes, of which the
/// `length_width` bytes at `length_at` hold the body length, big-endian.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Header bytes before the body.
    pub len: usize,
    /// Offset of the length field within the header.
    pub length_at: usize,
    /// Width of the length field in bytes.
    pub length_width: usize,
    /// The largest body accepted. A longer length field is rejected as
    /// [`WireError::BadLength`] at the header, before the body arrives.
    pub max: usize,
    /// Runs on each complete header before its length is read.
    pub check: Option<HeaderCheck>,
}

/// A check on a complete header, for [`Header::check`].
pub type HeaderCheck = fn(&[u8]) -> Result<(), WireError>;

impl Header {
    /// The size, header included, of the complete item at the front of
    /// `bytes`; `None` while it is incomplete.
    pub fn item_len(&self, bytes: &[u8]) -> Result<Option<usize>, WireError> {
        let Some(header) = bytes.get(..self.len) else {
            return Ok(None);
        };
        if let Some(check) = self.check {
            check(header)?;
        }
        let body = header[self.length_at..self.length_at + self.length_width]
            .iter()
            .fold(0, |n, &b| n << 8 | usize::from(b));
        if body > self.max {
            return Err(WireError::BadLength);
        }
        let item = self.len + body;
        Ok((bytes.len() >= item).then_some(item))
    }
}

/// TLS records: `type | version (2) | length (u16) | fragment`. The check
/// rejects an unknown content type or an implausible version as soon as
/// the five header bytes are in.
pub const RECORD: Header = Header {
    len: 5,
    length_at: 3,
    length_width: 2,
    max: u16::MAX as usize,
    check: Some(|header| RecordHeader::parse(header).map(drop)),
};

/// Handshake messages: `msg_type | length (u24) | body`, at most
/// [`MAX_HANDSHAKE_MESSAGE`] body bytes.
pub const HANDSHAKE: Header = Header {
    len: 4,
    length_at: 1,
    length_width: 3,
    max: MAX_HANDSHAKE_MESSAGE,
    check: None,
};

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

/// Incremental length-prefixed reassembler: feed bytes in arbitrary
/// chunks, borrow complete items (header and body) as they form. The first
/// error is terminal: a length-prefixed stream cannot be resynchronized,
/// so later pushes are dropped and every later call returns that error.
#[derive(Debug)]
pub struct Reassembler {
    header: Header,
    /// Buffer storage; bytes `start..end` are pushed but not yet lent.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    error: Option<WireError>,
}

impl Reassembler {
    /// Fresh, empty reassembler for items shaped like `header`.
    pub fn new(header: Header) -> Reassembler {
        Reassembler {
            header,
            buf: Vec::new(),
            start: 0,
            end: 0,
            error: None,
        }
    }

    /// Append stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
            self.end += bytes.len();
        }
    }

    /// One `read()` from `src` straight into the buffer, offering it at
    /// least 8 KiB; returns what the read returned.
    pub fn read_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let n = src.read(self.room(8192))?;
        self.end += n;
        Ok(n)
    }

    /// At least `n` bytes of room after the pending ones. The consumed
    /// prefix is reclaimed first when nothing is pending, or once it passes
    /// 4 KiB and half the pushed bytes.
    fn room(&mut self, n: usize) -> &mut [u8] {
        if self.start == self.end || self.start > 4096 && self.start * 2 >= self.end {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + n {
            self.buf.resize(self.end + n, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Bytes pushed but not yet lent as complete items.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// The error that ended the stream, if any.
    pub fn error(&self) -> Option<WireError> {
        self.error
    }

    /// Whether a complete item is buffered. Checks the header as soon as
    /// it is complete; an error is terminal.
    pub fn ready(&mut self) -> Result<bool, WireError> {
        Ok(self.item_len()?.is_some())
    }

    fn item_len(&mut self) -> Result<Option<usize>, WireError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let len = self.header.item_len(&self.buf[self.start..self.end]);
        self.error = len.err();
        len
    }

    /// Lend the next complete item, header included. `Ok(None)` means
    /// "need more bytes". The item stays valid until the next call.
    pub fn next_item(&mut self) -> Result<Option<&[u8]>, WireError> {
        let Some(len) = self.item_len()? else {
            return Ok(None);
        };
        let item = &self.buf[self.start..self.start + len];
        self.start += len;
        Ok(Some(item))
    }
}

/// Blocking record reader over any `io::Read` (a `TcpStream` in `serve`):
/// each `read()` lands in the record reassembler's buffer, and each record
/// is lent from there.
pub struct RecordReader<R: Read> {
    inner: R,
    records: Reassembler,
}

impl<R: Read> RecordReader<R> {
    /// Wrap a byte stream.
    pub fn new(inner: R) -> RecordReader<R> {
        RecordReader {
            inner,
            records: Reassembler::new(RECORD),
        }
    }

    /// Bytes read from the stream but not yet returned as records.
    pub fn pending(&self) -> usize {
        self.records.pending()
    }

    /// Read the next record, blocking for more bytes as needed; the
    /// payload is valid until the next call. `Ok(None)` is a clean EOF on
    /// a record boundary; EOF mid-record is [`StreamError::UnexpectedEof`].
    pub fn read_record(&mut self) -> Result<Option<(RecordHeader, &[u8])>, StreamError> {
        while !self.records.ready()? {
            match self.records.read_from(&mut self.inner) {
                Ok(0) if self.records.pending() == 0 => return Ok(None),
                Ok(0) => return Err(StreamError::UnexpectedEof),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(StreamError::Io(e)),
            }
        }
        let Some(record) = self.records.next_item()? else {
            return Ok(None);
        };
        Ok(Some((RecordHeader::parse(record)?, &record[RECORD.len..])))
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
            let mut d = Reassembler::new(RECORD);
            let mut records = Vec::new();
            for chunk in stream.chunks(chunk_len) {
                d.push(chunk);
                while let Some(rec) = d.next_item().unwrap() {
                    records.push(rec.to_vec());
                }
            }
            assert_eq!(records.len(), 2, "chunk_len={chunk_len}");
            assert_eq!(records[0][5..], *b"abc");
            assert_eq!(records[1][5..], [9u8; 300]);
            assert_eq!(d.pending(), 0);
        }
    }

    #[test]
    fn deframer_dies_on_garbage_and_stays_dead() {
        let mut d = Reassembler::new(RECORD);
        d.push(b"GET / HTTP/1.1\r\n");
        assert_eq!(d.next_item(), Err(WireError::NotTls));
        assert_eq!(d.next_item(), Err(WireError::NotTls));
        d.push(&framed(ContentType::Handshake, b"x"));
        assert_eq!(d.next_item(), Err(WireError::NotTls));
        // Fails fast: the five header bytes alone are enough.
        let mut d = Reassembler::new(RECORD);
        d.push(b"GET /");
        assert_eq!(d.ready(), Err(WireError::NotTls));
    }

    #[test]
    fn deframer_rejects_ssl30() {
        let mut d = Reassembler::new(RECORD);
        d.push(&[22, 3, 0, 0, 1, 1]);
        assert_eq!(d.next_item(), Err(WireError::BadVersion));
    }

    #[test]
    fn assembler_reassembles_across_records() {
        // One 70,000-byte handshake message, fragmented across records.
        let body = vec![0xABu8; 70_000];
        let msg = handshake_envelope(11, &body);
        let stream = framed(ContentType::Handshake, &msg);
        let mut d = Reassembler::new(RECORD);
        let mut a = Reassembler::new(HANDSHAKE);
        d.push(&stream);
        let mut messages = Vec::new();
        while let Some(record) = d.next_item().unwrap() {
            assert_eq!(record[0], ContentType::Handshake.byte());
            a.push(&record[5..]);
            while let Some(m) = a.next_item().unwrap() {
                messages.push(m.to_vec());
            }
        }
        assert_eq!(messages, [msg]);
        assert_eq!(messages[0][0], 11);
        assert_eq!(messages[0][4..], body);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn assembler_handles_multiple_messages_per_record() {
        let mut payload = handshake_envelope(1, b"one");
        payload.extend(handshake_envelope(2, b"two"));
        let mut a = Reassembler::new(HANDSHAKE);
        a.push(&payload);
        assert_eq!(a.next_item(), Ok(Some(&handshake_envelope(1, b"one")[..])));
        assert_eq!(a.next_item(), Ok(Some(&handshake_envelope(2, b"two")[..])));
        assert_eq!(a.next_item(), Ok(None));
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
        // A u24 length of 0xFFFFFF is past the cap; the reassembler must not
        // sit buffering forever on an insane claim — it errors at the header.
        let mut a = Reassembler::new(HANDSHAKE);
        a.push(&[1, 0xFF, 0xFF, 0xFF]);
        assert_eq!(a.next_item(), Err(WireError::BadLength));
    }
}
