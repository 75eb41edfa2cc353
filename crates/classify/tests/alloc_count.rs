//! Pins how many heap allocations one `classify` call makes, per
//! information type. The served verdict classifies every CN and SAN
//! string of every row, so an allocation here is paid per string per
//! request. This binary counts through its own global allocator (one
//! counter per thread), so it holds a single test.

use mtls_classify::{classify, ClassifyContext, InfoType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so bumping it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one `classify(text, ctx)` call, and its answer.
fn allocations(text: &str, ctx: ClassifyContext<'_>) -> (usize, InfoType) {
    let before = ALLOCS.with(Cell::get);
    let t = std::hint::black_box(classify(std::hint::black_box(text), ctx));
    (ALLOCS.with(Cell::get) - before, t)
}

#[test]
fn classify_allocation_counts_are_pinned() {
    let plain = ClassifyContext::default();
    let campus = ClassifyContext {
        issuer_org: Some("Commonwealth University"),
        issuer_is_campus: true,
    };
    let long_text = "quux ".repeat(40);
    // (input, context, expected type, expected allocations)
    let cases: &[(&str, ClassifyContext<'_>, InfoType, usize)] = &[
        ("www.Example.org", plain, InfoType::Domain, 0),
        ("192.168.1.10", plain, InfoType::Ip, 0),
        ("2001:db8::1", plain, InfoType::Ip, 0),
        ("12:34:56:AB:CD:EF", plain, InfoType::Mac, 0),
        ("SIP:4434@voip.example.edu", plain, InfoType::Sip, 0),
        ("someone@example.org", plain, InfoType::Email, 0),
        ("hd7gr", campus, InfoType::UserAccount, 0),
        ("LOCALHOST.localdomain", plain, InfoType::Localhost, 0),
        ("John Smith", plain, InfoType::PersonalName, 0),
        ("Smith, John", plain, InfoType::PersonalName, 0),
        ("Lenovo ThinkPad X1 Carbon", plain, InfoType::OrgProduct, 0),
        ("Acme Widgets Inc", plain, InfoType::OrgProduct, 0),
        ("f3a9c2d17b604e5d", plain, InfoType::Unidentified, 0),
        // Past the NER's stack buffer the normalized copy goes to the heap.
        (&long_text, plain, InfoType::Unidentified, 1),
    ];
    // Warm up anything a first call initializes.
    for (text, ctx, _, _) in cases {
        let _ = classify(text, *ctx);
    }
    for (text, ctx, want_type, want_allocs) in cases {
        let (n, t) = allocations(text, *ctx);
        assert_eq!(t, *want_type, "{text:?}");
        assert_eq!(n, *want_allocs, "{text:?} ({t:?}) allocated {n} times");
    }
}
