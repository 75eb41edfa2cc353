//! String interning and fast hashing for the Zeek→corpus ingest hot path.
//!
//! The paper's dataset repeats the same strings millions of times: a leaf
//! fingerprint appears once per connection, issuer DNs and SAN domains
//! recur across every certificate a CA mints. Joining `ssl.log` against
//! `x509.log` with `HashMap<String, _>` therefore re-hashes long strings
//! with SipHash over and over and keeps one owned allocation per key.
//! This crate collapses that cost in two independent pieces (plus
//! [`contains_short`], the substring test the issuer and CN/SAN
//! classifiers share):
//!
//! * [`FxHasher`] — the FxHash multiply-xor hasher (rustc's internal table
//!   hasher), hand-rolled here in keeping with this workspace's
//!   no-external-deps style. [`FxHashMap`]/[`FxHashSet`] are drop-in map
//!   aliases for non-adversarial keys like fingerprints and IPv4 integers.
//! * [`Interner`] — an append-only arena mapping each distinct string to a
//!   dense [`Symbol`] (a `u32`). Interning a repeated string costs one
//!   FxHash of its bytes; afterwards equality is integer equality and maps
//!   can be keyed by `Symbol` instead of `String`. Strings are stored once
//!   in large arena chunks, not once per map key.
//!
//! The interner is single-writer (`intern` takes `&mut self`) and its
//! reads are position-stable: a `Symbol` resolves to the same `&str` for
//! the life of the interner. It is `Send + Sync`, so a built interner can
//! be shared freely across scoped analyzer threads.

pub mod hash;
pub mod text;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use text::contains_short;

use std::hash::BuildHasher;

/// A handle to an interned string: dense, `Copy`, integer-comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense index of this symbol (0-based intern order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How large each arena chunk is; strings longer than this get their own
/// chunk. 256 KiB keeps chunk count low for multi-million-string corpora
/// without holding large slack on small ones.
const CHUNK_BYTES: usize = 256 * 1024;

/// One interned string's location inside the arena.
#[derive(Clone, Copy)]
struct Span {
    chunk: u32,
    start: u32,
    len: u32,
}

/// An append-only string interner.
///
/// Deduplication uses an FxHash-keyed index from content hash to candidate
/// symbols, so each distinct string is stored exactly once (no shadow copy
/// as a map key).
pub struct Interner {
    /// Storage chunks. Once a chunk is full it is never touched again, so
    /// resolved `&str`s stay valid for the interner's lifetime.
    chunks: Vec<String>,
    /// Arena location of every symbol, indexed by `Symbol::index()`.
    spans: Vec<Span>,
    /// Content hash → symbols with that hash (collisions resolved by
    /// comparing the stored bytes).
    index: FxHashMap<u64, Vec<Symbol>>,
    build: FxBuildHasher,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner {
            chunks: vec![String::with_capacity(CHUNK_BYTES)],
            spans: Vec::new(),
            index: FxHashMap::default(),
            build: FxBuildHasher,
        }
    }

    /// An empty interner pre-sized for roughly `n` distinct strings.
    pub fn with_capacity(n: usize) -> Interner {
        Interner {
            chunks: vec![String::with_capacity(CHUNK_BYTES)],
            spans: Vec::with_capacity(n),
            index: FxHashMap::with_capacity_and_hasher(n, FxBuildHasher),
            build: FxBuildHasher,
        }
    }

    fn hash_of(&self, s: &str) -> u64 {
        self.build.hash_one(s)
    }

    /// Intern a string, returning its stable symbol. Repeated calls with
    /// equal strings return the same symbol without storing a second copy.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = self.hash_of(s);
        if let Some(candidates) = self.index.get(&hash) {
            for &sym in candidates {
                if self.resolve(sym) == s {
                    return sym;
                }
            }
        }
        let sym = self.push(s);
        self.index.entry(hash).or_default().push(sym);
        sym
    }

    /// Look up a string without interning it. Returns `None` when the
    /// string has never been interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        let hash = self.hash_of(s);
        self.index
            .get(&hash)?
            .iter()
            .copied()
            .find(|&sym| self.resolve(sym) == s)
    }

    fn push(&mut self, s: &str) -> Symbol {
        let idx = u32::try_from(self.spans.len()).expect("more than u32::MAX interned strings");
        let last = self.chunks.last().expect("at least one chunk");
        if last.len() + s.len() > last.capacity() {
            // Never grow a chunk in place (that could move stored bytes
            // while readers hold no references, but position stability
            // keeps resolve() O(1) bookkeeping-free); open a fresh one.
            self.chunks
                .push(String::with_capacity(CHUNK_BYTES.max(s.len())));
        }
        let chunk_no = self.chunks.len() - 1;
        let chunk = &mut self.chunks[chunk_no];
        let start = chunk.len();
        chunk.push_str(s);
        self.spans.push(Span {
            chunk: chunk_no as u32,
            start: start as u32,
            len: s.len() as u32,
        });
        Symbol(idx)
    }

    /// The string a symbol stands for.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let span = self.spans[sym.index()];
        &self.chunks[span.chunk as usize][span.start as usize..(span.start + span.len) as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total bytes of string data stored.
    pub fn arena_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Iterate `(symbol, string)` pairs in intern order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.spans.len()).map(|i| {
            let sym = Symbol(i as u32);
            (sym, self.resolve(sym))
        })
    }
}

// Compile-time proof the interner crosses scoped-thread boundaries: the
// parallel pipeline shares a built interner by `&Interner`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Interner>();
    assert_send_sync::<Symbol>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_resolves() {
        let mut i = Interner::new();
        let a = i.intern("sha256:aa11");
        let b = i.intern("sha256:bb22");
        let a2 = i.intern("sha256:aa11");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "sha256:aa11");
        assert_eq!(i.resolve(b), "sha256:bb22");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("missing"), None);
        let sym = i.intern("present");
        assert_eq!(i.get("present"), Some(sym));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_string_and_unicode() {
        let mut i = Interner::new();
        let empty = i.intern("");
        let uni = i.intern("中文-λ-é");
        assert_eq!(i.resolve(empty), "");
        assert_eq!(i.resolve(uni), "中文-λ-é");
        assert_eq!(i.intern(""), empty);
    }

    #[test]
    fn survives_chunk_rollover() {
        let mut i = Interner::new();
        // Force several chunk rollovers with distinct multi-KiB strings,
        // then verify early symbols still resolve (position stability).
        let first = i.intern("anchor");
        let mut syms = Vec::new();
        for n in 0..300 {
            let s = format!("{n:04}-{}", "x".repeat(4096));
            syms.push((i.intern(&s), s));
        }
        assert!(i.chunks.len() > 1, "rollover did not happen");
        assert_eq!(i.resolve(first), "anchor");
        for (sym, s) in &syms {
            assert_eq!(i.resolve(*sym), s);
        }
    }

    #[test]
    fn oversized_string_gets_own_chunk() {
        let mut i = Interner::new();
        let big = "y".repeat(CHUNK_BYTES * 2);
        let sym = i.intern(&big);
        assert_eq!(i.resolve(sym), big);
        assert_eq!(i.arena_bytes(), big.len());
    }

    #[test]
    fn iter_is_in_intern_order() {
        let mut i = Interner::new();
        for s in ["c", "a", "b", "a"] {
            i.intern(s);
        }
        let order: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec!["c", "a", "b"]);
    }
}
