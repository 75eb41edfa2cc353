//! Pins how many heap allocations the served receive path makes: from the
//! record bytes a socket delivers to the frame payload the verdict reads,
//! for one 2,000-byte `REQ_SHARD` and one 30,000-byte `REQ_SHARD` (which
//! spans two records), each counted after a warm-up request of the same
//! size on the same session. The server pays these per request, before
//! `shard_verdict` runs; `crates/core/tests/alloc_count.rs` pins the
//! verdict itself. Unlike a timing, no host noise can move these counts. A
//! budget may go down in any change; it goes up only with the reason
//! recorded in CHANGES.md. This binary counts through its own global
//! allocator with one counter per thread, so each test counts only its
//! own thread's allocations and the tests may run in parallel.

use mtls_serve::frame::REQ_SHARD;
use mtls_serve::tls::{send_frame, Receiver};
use mtls_tlssim::{RecordReader, RecordWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::Read;

/// Allocations and bytes of one received 2,000-byte `REQ_SHARD`. (4 and
/// 12,035 while each record payload and each frame payload was copied
/// into a fresh `Vec` and the buffers grew until their consumed prefix
/// passed 4 KiB.)
const SMALL_SHARD: (usize, usize) = (0, 0);
/// Allocations and bytes of one received 30,000-byte `REQ_SHARD`. (3 and
/// 60,005 while each record payload and the frame payload was copied into
/// a fresh `Vec`.)
const LARGE_SHARD: (usize, usize) = (0, 0);

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes on this thread.
fn count(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialized
// thread-local `Cell`s without a destructor, so bumping them never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` and the bytes they asked for, and its answer.
/// A `realloc` counts as one allocation of its new size, so a `Vec` that
/// doubles its way to `n` bytes counts about `2n`.
fn work<T>(f: impl FnOnce() -> T) -> ((usize, usize), T) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = std::hint::black_box(f());
    let after = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), out)
}

/// A peer's writes as a socket hands them over: a `read` returns bytes of
/// one write at most, as when a client waits for each response before it
/// sends the next request.
struct Writes(VecDeque<Vec<u8>>);

impl Read for Writes {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(front) = self.0.front_mut() else {
            return Ok(0);
        };
        let n = buf.len().min(front.len());
        buf[..n].copy_from_slice(&front[..n]);
        front.drain(..n);
        if front.is_empty() {
            self.0.pop_front();
        }
        Ok(n)
    }
}

/// What receiving the second of two `len`-byte `REQ_SHARD` requests on
/// one session allocates, up to the payload the verdict would read.
fn second_request(len: usize) -> (usize, usize) {
    let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    let request = || {
        let mut wire = Vec::new();
        send_frame(
            &mut RecordWriter::new(&mut wire, [3, 3]),
            REQ_SHARD,
            &payload,
        )
        .unwrap();
        wire
    };
    let writes = Writes(VecDeque::from([request(), request()]));
    let mut receiver = Receiver::new(RecordReader::new(writes));
    let warm_up = receiver.recv_frame().unwrap().unwrap();
    assert_eq!(warm_up.payload, payload);
    let (counts, got) = work(|| {
        let frame = receiver.recv_frame().unwrap().unwrap();
        (frame.kind, frame.payload.len())
    });
    assert_eq!(got, (REQ_SHARD, len));
    counts
}

#[test]
fn served_receive_allocations_are_pinned() {
    assert_eq!(second_request(2_000), SMALL_SHARD, "2,000-byte REQ_SHARD");
    assert_eq!(second_request(30_000), LARGE_SHARD, "30,000-byte REQ_SHARD");
}
