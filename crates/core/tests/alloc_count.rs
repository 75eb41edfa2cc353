//! Pins how many heap allocations the served verdict's hot units make.
//! One 16-row `shard_verdict` and one `cert_verdict_der`, on the seed-7
//! corpus at scale 0.02 that `verdict_pin.rs` hashes: the server answers
//! every `REQ_SHARD` and `REQ_DER` with these calls, so a count here is
//! paid per request. And one `classify` call per information type: the
//! verdict classifies every CN and SAN string of every row, so an
//! allocation there is paid per string per request. And the two ingest
//! readers, `read_ssl_log` and `read_x509_log`, over a 16-row shard of
//! each log cut from the same corpus: ingest pays these per row of every
//! shard it loads. And, over the whole corpus, one `Corpus::build` and one
//! `run_pipeline`: they are paid once per report, and their counts grow
//! with the rows and distinct values of the corpus. Unlike a timing, no
//! host noise can move these counts. A budget may go down in any change;
//! it goes up only with the reason recorded in CHANGES.md. This binary
//! counts through its own global allocator with one counter per thread,
//! so each test counts only its own thread's allocations and the tests
//! may run in parallel.

use mtls_asn1::Asn1Time;
use mtls_classify::{classify, ClassifyContext, InfoType};
use mtls_core::corpus::{Corpus, MetaKnowledge};
use mtls_core::pipeline::{run_pipeline, AnalysisInputs};
use mtls_core::verdict::{cert_verdict_der, shard_verdict, VerdictContext};
use mtls_crypto::Keypair;
use mtls_intern::FxHashSet;
use mtls_netsim::{generate, SimConfig};
use mtls_pki::{CertificateAuthority, ValidationPolicy};
use mtls_x509::{CertificateBuilder, DistinguishedName, GeneralName};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations of one 16-row `shard_verdict`: the reused row's first
/// fills and its growth on later rows, the line and column slices, and
/// the output buffer. (170 when every row was parsed into a fresh record;
/// 20 while the row's fingerprint and algorithm names were heap strings.)
const SHARD_ALLOCS: usize = 19;
/// Allocations of one `cert_verdict_der`: the DER parse and its mapping
/// to an `x509.log` row dominate. (46 while the row's fingerprint and
/// algorithm names were heap strings.)
const DER_ALLOCS: usize = 42;
/// Allocations of `read_ssl_log` over a 16-row `ssl.log` shard: the
/// buffer, the line and column slices, the record `Vec`, and per row the
/// uid, the SNI and one `Vec` per non-empty chain. (93 with one heap
/// string per chain fingerprint.)
const SSL_READ_ALLOCS: usize = 63;
/// Allocations of `read_x509_log` over a 16-row `x509.log` shard: the
/// buffer, the line and column slices, the record `Vec`, and per row its
/// text fields and SAN lists. (139 with heap strings for the fingerprint
/// and the algorithm names.)
const X509_READ_ALLOCS: usize = 93;

/// Allocations of `Corpus::build` over the whole corpus, with no
/// certificate excluded: the join index, the per-connection and
/// per-certificate `Vec`s, and one domain per distinct name. (31,355
/// while each connection built its own domain strings.)
const CORPUS_BUILD_ALLOCS: usize = 3341;
/// Allocations of `run_pipeline` over the whole corpus: the interception
/// filter, the corpus build and every analyzer. (4,215 while the filter
/// collected a set of server-leaf fingerprints; 55,775-55,778 while the
/// analyzers keyed their maps on cloned strings, a count that moved with
/// SipHash's random order.)
const PIPELINE_ALLOCS: usize = 4202;
/// Bytes `Corpus::build` allocates over the whole corpus, counted as
/// [`work`] counts them: the join index, one fact record per row, and the
/// distinct-address and domain memos. (3,853,530 while every row was
/// copied into its `CertInfo`/`ConnInfo`.)
const CORPUS_BUILD_BYTES: usize = 1_645_110;
/// Bytes `run_pipeline` allocates over the whole corpus. (4,800,113 while
/// the corpus copied every row and the filter hashed every server leaf
/// into a set of its own.)
const PIPELINE_BYTES: usize = 2_486_009;

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

/// Allocations made by `f`, and its answer.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let ((allocs, _), out) = work(f);
    (allocs, out)
}

/// A leaf with a mixed-case CN and SANs under a private issuer, so the
/// verdict runs the CT lookups, the issuer rules and the classifier.
fn leaf_der() -> Vec<u8> {
    let ca = CertificateAuthority::new_root(
        b"alloc-pin-ca",
        DistinguishedName::builder()
            .organization("ProxyGuard Systems, Inc.")
            .build(),
        Asn1Time::from_ymd(2022, 1, 1),
    );
    let key = Keypair::from_seed(b"alloc-pin-leaf");
    ca.issue(
        CertificateBuilder::new()
            .subject(
                DistinguishedName::builder()
                    .common_name("Portal.Example.edu")
                    .build(),
            )
            .san(vec![
                GeneralName::Dns("Portal.Example.edu".into()),
                GeneralName::Dns("www.example.edu".into()),
            ])
            .validity(
                Asn1Time::from_ymd(2022, 1, 1),
                Asn1Time::from_ymd(2023, 1, 1),
            )
            .subject_key(key.key_id()),
    )
    .to_der()
}

#[test]
fn verdict_allocation_counts_are_pinned() {
    let sim = generate(&SimConfig {
        seed: 7,
        scale: 0.02,
        ..SimConfig::default()
    });
    let ctx = VerdictContext {
        policy: ValidationPolicy::enterprise(),
        meta: MetaKnowledge::from_sim(&sim.meta),
        ct: sim.ct.clone(),
        at: Asn1Time::from_ymd(2022, 6, 1).unix() as f64,
    };
    let mut tsv = Vec::new();
    mtls_zeek::write_x509_log(&mut tsv, &sim.x509[..16]).unwrap();
    let der = leaf_der();
    // Warm up anything a first call initializes.
    let _ = shard_verdict(&tsv, &ctx);
    let _ = cert_verdict_der(&der, &ctx);

    let (shard, verdict) = allocations(|| shard_verdict(&tsv, &ctx));
    assert!(
        verdict.starts_with("verdict: shard\nrecords: 16\n"),
        "{verdict}"
    );
    let (der_allocs, verdict) = allocations(|| cert_verdict_der(&der, &ctx));
    assert!(verdict.contains("parse: ok"), "{verdict}");
    assert_eq!(
        (shard, der_allocs),
        (SHARD_ALLOCS, DER_ALLOCS),
        "(shard_verdict, cert_verdict_der) allocations"
    );
}

#[test]
fn parse_allocation_counts_are_pinned() {
    let sim = generate(&SimConfig {
        seed: 7,
        scale: 0.02,
        ..SimConfig::default()
    });
    let mut ssl = Vec::new();
    mtls_zeek::write_ssl_log(&mut ssl, &sim.ssl[..16]).unwrap();
    let mut x509 = Vec::new();
    mtls_zeek::write_x509_log(&mut x509, &sim.x509[..16]).unwrap();
    // Warm up anything a first call initializes.
    let _ = mtls_zeek::read_ssl_log(&ssl[..]).unwrap();
    let _ = mtls_zeek::read_x509_log(&x509[..]).unwrap();

    let (ssl_allocs, rows) = allocations(|| mtls_zeek::read_ssl_log(&ssl[..]).unwrap());
    assert_eq!(rows, sim.ssl[..16]);
    let (x509_allocs, rows) = allocations(|| mtls_zeek::read_x509_log(&x509[..]).unwrap());
    assert_eq!(rows, sim.x509[..16]);
    assert_eq!(
        (ssl_allocs, x509_allocs),
        (SSL_READ_ALLOCS, X509_READ_ALLOCS),
        "(read_ssl_log, read_x509_log) allocations"
    );
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
        let (n, t) = allocations(|| classify(std::hint::black_box(text), *ctx));
        assert_eq!(t, *want_type, "{text:?}");
        assert_eq!(n, *want_allocs, "{text:?} ({t:?}) allocated {n} times");
    }
}

#[test]
fn corpus_and_pipeline_allocation_counts_are_pinned() {
    let sim = generate(&SimConfig {
        seed: 7,
        scale: 0.02,
        ..SimConfig::default()
    });
    let meta = MetaKnowledge::from_sim(&sim.meta);
    let (ssl, x509) = (sim.ssl.clone(), sim.x509.clone());
    let none = FxHashSet::default();
    // Warm up anything a first call initializes.
    let _ = run_pipeline(AnalysisInputs::from_sim(sim.clone()));

    let (build, corpus) = work(|| Corpus::build(ssl, x509, meta, &none, vec![]));
    assert_eq!(corpus.conns.len(), sim.ssl.len());
    drop(corpus);
    let inputs = AnalysisInputs::from_sim(sim);
    let (pipeline, out) = work(|| run_pipeline(inputs));
    assert!(!out.fig1.months.is_empty());
    assert_eq!(
        (build.0, pipeline.0),
        (CORPUS_BUILD_ALLOCS, PIPELINE_ALLOCS),
        "(Corpus::build, run_pipeline) allocations"
    );
    assert_eq!(
        (build.1, pipeline.1),
        (CORPUS_BUILD_BYTES, PIPELINE_BYTES),
        "(Corpus::build, run_pipeline) bytes allocated"
    );
}
