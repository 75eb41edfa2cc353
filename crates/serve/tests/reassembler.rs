//! One property of `tlssim`'s length-prefixed reassembler, run over all
//! three headers it serves: TLS records and handshake messages (tlssim)
//! and request frames (this crate, the one that sees all three).
//!
//! * The items lent and the terminal error do not depend on how the bytes
//!   are chunked.
//! * After an error, later pushes change nothing.
//! * A length exactly at the header's maximum is accepted; maximum + 1 is
//!   rejected at the header, before any body byte arrives.

use mtls_serve::frame::FRAME;
use mtls_tlssim::stream::{Header, Reassembler, HANDSHAKE, RECORD};
use mtls_tlssim::wire::MAX_FRAGMENT;
use mtls_tlssim::WireError;
use proptest::prelude::*;

const HEADERS: [(&str, Header); 3] = [
    ("record", RECORD),
    ("handshake", HANDSHAKE),
    ("frame", FRAME),
];

/// Whether `header` has the record shape, whose check wants a known
/// content type and version.
fn is_record(header: &Header) -> bool {
    (header.len, header.length_at) == (RECORD.len, RECORD.length_at)
}

/// An item's header: `kind` in the first byte (a known content type for a
/// record, which also gets a version), `body_len` in the length field.
fn head(header: &Header, kind: u8, body_len: usize) -> Vec<u8> {
    let mut out = vec![kind; header.len];
    if is_record(header) {
        out[..3].copy_from_slice(&[20 + kind % 4, 3, 3]);
    }
    let width = header.length_width;
    out[header.length_at..header.length_at + width]
        .copy_from_slice(&(body_len as u64).to_be_bytes()[8 - width..]);
    out
}

/// One whole item: its header, then `body_len` body bytes.
fn item(header: &Header, kind: u8, body_len: usize) -> Vec<u8> {
    let mut out = head(header, kind, body_len);
    out.extend((0..body_len).map(|i| (i % 251) as u8));
    out
}

/// Push `stream` in chunks of the given sizes (cycled), lending every
/// complete item after each push. Returns the items, in order, and the
/// reassembler.
fn run(header: Header, stream: &[u8], chunks: &[usize]) -> (Vec<Vec<u8>>, Reassembler) {
    let mut r = Reassembler::new(header);
    let mut items = Vec::new();
    let mut rest = stream;
    for &size in chunks.iter().cycle() {
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        r.push(chunk);
        while let Ok(Some(item)) = r.next_item() {
            items.push(item.to_vec());
        }
        rest = tail;
        if rest.is_empty() {
            break;
        }
    }
    (items, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn items_and_errors_do_not_depend_on_chunking(
        which in 0..3usize,
        items in proptest::collection::vec((any::<u8>(), 0..600usize), 0..8),
        tail in 0..3u8,
        chunks in proptest::collection::vec(1..64usize, 1..12),
        after in proptest::collection::vec((any::<u8>(), 0..40usize), 1..4),
    ) {
        let (name, header) = HEADERS[which];
        let items: Vec<Vec<u8>> = items.iter().map(|&(k, n)| item(&header, k, n)).collect();
        let mut stream = items.concat();
        // The tail: nothing, a header whose length is over the maximum, or
        // a header the record check refuses (other headers check nothing,
        // so for them it is one incomplete header byte).
        let error = match tail {
            1 if header.max < (1 << (8 * header.length_width)) - 1 => {
                stream.extend(head(&header, 1, header.max + 1));
                Some(WireError::BadLength)
            }
            2 if is_record(&header) => {
                stream.extend(b"GET /");
                Some(WireError::NotTls)
            }
            2 => {
                stream.push(1);
                None
            }
            _ => None,
        };

        let (whole, whole_r) = run(header, &stream, &[stream.len().max(1)]);
        let (chunked, mut r) = run(header, &stream, &chunks);
        prop_assert_eq!(&whole, &items, "{} whole", name);
        prop_assert_eq!(&chunked, &items, "{} chunks {:?}", name, chunks);
        prop_assert_eq!(whole_r.error(), error, "{}", name);
        prop_assert_eq!(r.error(), error, "{}", name);
        prop_assert_eq!(r.pending(), whole_r.pending(), "{}", name);

        // After an error, later pushes change nothing.
        if let Some(e) = error {
            let pending = r.pending();
            for &(k, n) in &after {
                r.push(&item(&header, k, n));
                prop_assert_eq!(r.next_item(), Err(e), "{}", name);
                prop_assert_eq!(r.ready(), Err(e), "{}", name);
            }
            prop_assert_eq!(r.pending(), pending, "{}", name);
        }
    }
}

#[test]
fn the_maximum_is_accepted_and_one_more_is_rejected_at_the_header() {
    // A record's u16 length cannot exceed its maximum, so the record
    // shape is also run with the largest plaintext fragment as maximum.
    let record_at_fragment = Header {
        max: MAX_FRAGMENT,
        ..RECORD
    };
    for (name, header) in HEADERS
        .into_iter()
        .chain([("record at 2^14", record_at_fragment)])
    {
        let at_max = item(&header, 1, header.max);
        let mut r = Reassembler::new(header);
        r.push(&at_max[..header.len]);
        assert_eq!(r.next_item(), Ok(None), "{name}: waits for the body");
        r.push(&at_max[header.len..]);
        assert_eq!(
            r.next_item(),
            Ok(Some(&at_max[..])),
            "{name}: maximum accepted"
        );
        assert_eq!(r.pending(), 0, "{name}");

        if header.max < (1 << (8 * header.length_width)) - 1 {
            let over = head(&header, 1, header.max + 1);
            let mut r = Reassembler::new(header);
            r.push(&over[..header.len - 1]);
            assert_eq!(r.next_item(), Ok(None), "{name}: header incomplete");
            r.push(&over[header.len - 1..]);
            assert_eq!(
                r.next_item(),
                Err(WireError::BadLength),
                "{name}: maximum + 1"
            );
        }
    }
}
