//! Streaming corpus engine: bounded-memory incremental ingest.
//!
//! The batch pipeline slurps all 23 months, then builds one immutable
//! [`Corpus`] — peak memory linear in months. This module turns the build
//! into an *incremental* engine: a [`CorpusBuilder`] accepts one month
//! (an **epoch**) at a time, keeps each epoch's records in an append-only
//! segment keyed by month, folds every analyzer-feeding aggregate into a
//! per-epoch [`CertAgg`] partial (a commutative monoid, so epochs may
//! arrive in any order).
//!
//! Lifecycle:
//!
//! 1. **push** — [`CorpusBuilder::push_epoch`] ingests one month's
//!    `ssl`/`x509` records: fingerprints are interned and tagged with the
//!    contributing epoch (the dedup ledger) and the epoch's `CertAgg`
//!    partial is folded. A push touches only the incoming rows, so ingest
//!    stays linear in months.
//! 2. **retire** — [`CorpusBuilder::retire_outside_window`] drops every
//!    epoch older than the rolling window, releasing its records, partial
//!    state and its own dedup-ledger entries. This is what bounds memory:
//!    the builder retains O(window) connection rows, not O(corpus).
//! 3. **finish** — [`CorpusBuilder::finish`] re-assembles the surviving
//!    epochs in canonical month order (a `BTreeMap` walk, so shuffled
//!    pushes converge to the same bytes), folds the per-epoch partials
//!    into one merged map, and hands everything to
//!    [`Corpus::build_with_partials`] — the same join code the batch path
//!    runs, fed premerged aggregates.
//!
//! Equivalence contracts (pinned in `tests/ingest_equiv.rs`):
//! * full-window streaming output is byte-identical to the batch build on
//!   the same input, for any push order;
//! * a rolling window of N months is byte-identical to a batch build over
//!   only those N months.

use crate::corpus::{CertAgg, MetaKnowledge};
use mtls_intern::{FxHashMap, FxHashSet, Interner, Symbol};
use mtls_obs::{Obs, SpanId};
use mtls_zeek::{SslRecord, X509Record};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

/// Rough retained heap of one `ssl.log` record (owned strings + vectors;
/// lengths, not capacities, so the estimate is deterministic for given
/// contents).
fn ssl_heap_bytes(rec: &SslRecord) -> usize {
    std::mem::size_of::<SslRecord>()
        + rec.uid.len()
        + rec.server_name.as_ref().map_or(0, |s| s.len())
        + rec
            .cert_chain_fps
            .iter()
            .chain(rec.client_cert_chain_fps.iter())
            .map(|f| f.len() + std::mem::size_of::<String>())
            .sum::<usize>()
}

/// Rough retained heap of one `x509.log` record.
fn x509_heap_bytes(rec: &X509Record) -> usize {
    std::mem::size_of::<X509Record>()
        + rec.fingerprint.len()
        + rec.serial.len()
        + rec.subject.len()
        + rec.issuer.len()
        + rec.issuer_org.as_ref().map_or(0, |s| s.len())
        + rec.subject_cn.as_ref().map_or(0, |s| s.len())
        + rec.key_alg.len()
        + rec.sig_alg.len()
        + rec
            .san_dns
            .iter()
            .chain(rec.san_email.iter())
            .chain(rec.san_uri.iter())
            .map(|s| s.len() + std::mem::size_of::<String>())
            .sum::<usize>()
}

/// One month's retained state.
struct Epoch {
    ssl: Vec<SslRecord>,
    x509: Vec<X509Record>,
    /// This epoch's mergeable partial of every connection aggregate,
    /// keyed by fingerprint symbol in the builder's interner.
    agg: FxHashMap<Symbol, CertAgg>,
    /// Fingerprints this epoch was the first live contributor of: exactly
    /// its entries in the dedup ledger, evicted when it retires.
    fresh_fps: Vec<Symbol>,
    /// Retained-heap estimate of this epoch's records and partial.
    footprint: u64,
}

/// What one [`CorpusBuilder::push_epoch`] call did.
#[derive(Debug, Clone, Default)]
pub struct EpochStats {
    pub key: String,
    pub ssl_rows: usize,
    pub x509_rows: usize,
    /// x509 rows introducing a fingerprint no live epoch had contributed.
    pub fresh_fps: usize,
    /// x509 rows whose fingerprint an earlier push already contributed
    /// (the epoch-tagged dedup ledger; the rows are kept, exactly as the
    /// batch build keeps duplicate rows, but the re-appearance is
    /// accounted).
    pub dup_fps: usize,
    /// Builder retained-heap estimate after this push (live epochs only).
    pub footprint_bytes: u64,
}

/// Summary of a whole streaming build, returned inside [`StreamParts`].
#[derive(Debug, Clone, Default)]
pub struct StreamSummary {
    /// Epochs pushed, in push order.
    pub epochs_pushed: usize,
    /// Epochs retired out of the rolling window, with their row counts.
    pub epochs_retired: usize,
    pub retired_ssl_rows: u64,
    pub retired_x509_rows: u64,
    /// High-water retained-heap estimate across the whole build.
    pub peak_footprint_bytes: u64,
    /// Largest single epoch's retained-heap estimate — the "1-month
    /// footprint" reference the rolling-window RSS ceiling is gated
    /// against (peak ≤ 2× this when `--window 1mo`).
    pub max_epoch_footprint_bytes: u64,
    /// Cross-epoch duplicate fingerprints observed by the dedup ledger.
    pub dup_fps: u64,
}

/// Everything [`CorpusBuilder::finish`] hands the pipeline: the surviving
/// records in canonical month order, the shared interner, the merged
/// aggregate partials, and the build summary. Feed it to
/// `pipeline::run_pipeline_streamed_parallel_obs` (or run the interception
/// filter and [`crate::Corpus::build_with_partials`] by hand).
pub struct StreamParts {
    pub ssl: Vec<SslRecord>,
    pub x509: Vec<X509Record>,
    pub meta: MetaKnowledge,
    pub interner: Interner,
    pub partials: FxHashMap<Symbol, CertAgg>,
    pub summary: StreamSummary,
}

/// The incremental corpus builder. See the module docs for the lifecycle.
pub struct CorpusBuilder {
    meta: MetaKnowledge,
    interner: Interner,
    /// Live epochs, keyed by month (`BTreeMap` = canonical order for
    /// free, whatever order the pushes arrived in).
    epochs: BTreeMap<String, Epoch>,
    /// Fingerprint dedup ledger: every fingerprint a live epoch has
    /// contributed. Each one is tagged with its first contributor through
    /// that epoch's `fresh_fps`.
    live_fps: FxHashSet<Symbol>,
    summary: StreamSummary,
    obs: Obs,
    parent: Option<SpanId>,
}

impl CorpusBuilder {
    pub fn new(meta: MetaKnowledge) -> CorpusBuilder {
        CorpusBuilder {
            meta,
            interner: Interner::new(),
            epochs: BTreeMap::new(),
            live_fps: FxHashSet::default(),
            summary: StreamSummary::default(),
            obs: Obs::noop(),
            parent: None,
        }
    }

    /// Attach an observability session: per-push gauges (live rows,
    /// footprint, epoch count) and RSS samples land under it.
    pub fn with_obs(mut self, obs: &Obs, parent: Option<SpanId>) -> CorpusBuilder {
        self.obs = obs.clone();
        self.parent = parent;
        self
    }

    /// Ingest one month. Pushing the same key twice appends to that
    /// epoch (shards of one month may arrive separately).
    pub fn push_epoch(
        &mut self,
        key: &str,
        ssl: Vec<SslRecord>,
        x509: Vec<X509Record>,
    ) -> EpochStats {
        let span = self.obs.span(self.parent, "epoch_merge");
        let mut stats = EpochStats {
            key: key.to_string(),
            ssl_rows: ssl.len(),
            x509_rows: x509.len(),
            ..EpochStats::default()
        };

        // Epoch-tagged fingerprint dedup ledger: first live contributor
        // wins the tag; re-appearances are counted, not dropped (the
        // batch build keeps duplicate rows too, so byte-identity holds).
        let mut footprint = 0u64;
        let mut fresh_fps = Vec::new();
        for rec in &x509 {
            footprint += x509_heap_bytes(rec) as u64;
            let sym = self.interner.intern(&rec.fingerprint);
            if self.live_fps.insert(sym) {
                fresh_fps.push(sym);
            } else {
                stats.dup_fps += 1;
            }
        }
        stats.fresh_fps = fresh_fps.len();
        self.summary.dup_fps += stats.dup_fps as u64;

        // Fold this month's mergeable partial: one CertAgg::observe per
        // chain reference, keyed by interned fingerprint. This is the
        // same observe the batch build runs — only the grouping differs.
        let mut agg: FxHashMap<Symbol, CertAgg> = FxHashMap::default();
        for rec in &ssl {
            footprint += ssl_heap_bytes(rec) as u64;
            for (fp, as_server) in rec
                .cert_chain_fps
                .iter()
                .map(|f| (f, true))
                .chain(rec.client_cert_chain_fps.iter().map(|f| (f, false)))
            {
                agg.entry(self.interner.intern(fp))
                    .or_default()
                    .observe(rec, as_server);
            }
        }
        footprint += agg
            .values()
            .map(|a| a.approx_heap_bytes() as u64 + std::mem::size_of::<CertAgg>() as u64)
            .sum::<u64>();

        let slot = self.epochs.entry(key.to_string()).or_insert_with(|| Epoch {
            ssl: Vec::new(),
            x509: Vec::new(),
            agg: FxHashMap::default(),
            fresh_fps: Vec::new(),
            footprint: 0,
        });
        slot.ssl.extend(ssl);
        slot.x509.extend(x509);
        slot.fresh_fps.extend(fresh_fps);
        for (sym, partial) in agg {
            slot.agg.entry(sym).or_default().merge(partial);
        }
        slot.footprint += footprint;
        self.summary.epochs_pushed += 1;
        self.summary.max_epoch_footprint_bytes =
            self.summary.max_epoch_footprint_bytes.max(slot.footprint);

        stats.footprint_bytes = self.footprint_bytes();
        self.summary.peak_footprint_bytes =
            self.summary.peak_footprint_bytes.max(stats.footprint_bytes);
        span.finish();

        if self.obs.enabled() {
            self.obs
                .gauge_set("stream.epochs_live", self.epochs.len() as i64);
            self.obs
                .gauge_set("stream.footprint_bytes", stats.footprint_bytes as i64);
            self.obs.gauge_max(
                "stream.peak_footprint_bytes",
                self.summary.peak_footprint_bytes as i64,
            );
            self.obs
                .counter_add("stream.ssl_rows_pushed", stats.ssl_rows as u64);
            self.obs
                .counter_add("stream.x509_rows_pushed", stats.x509_rows as u64);
            self.obs.sample_rss();
        }
        stats
    }

    /// Keep only the newest `window` months; every older epoch is
    /// retired — its records, partial aggregates, and dedup-ledger
    /// entries are released. Returns the retired keys (oldest first).
    pub fn retire_outside_window(&mut self, window: usize) -> Vec<String> {
        self.retire_down_to(window.max(1))
    }

    /// Make room for one incoming epoch: evict the oldest months so that
    /// after the next [`CorpusBuilder::push_epoch`] at most `window`
    /// epochs are live. Callers use this *before* reading the next
    /// month's shards, so the peak live set is `window` months — not
    /// `window + 1` — and a `--window 1mo` walk genuinely holds one
    /// month's footprint (the RSS ceiling the bench gates).
    pub fn retire_for_incoming(&mut self, window: usize) -> Vec<String> {
        self.retire_down_to(window.max(1) - 1)
    }

    fn retire_down_to(&mut self, keep: usize) -> Vec<String> {
        let mut retired_keys = Vec::new();
        while self.epochs.len() > keep {
            let key = self.epochs.keys().next().expect("non-empty epochs").clone();
            let epoch = self.epochs.remove(&key).expect("epoch exists");
            for sym in &epoch.fresh_fps {
                self.live_fps.remove(sym);
            }
            self.summary.epochs_retired += 1;
            self.summary.retired_ssl_rows += epoch.ssl.len() as u64;
            self.summary.retired_x509_rows += epoch.x509.len() as u64;
            retired_keys.push(key);
        }
        if !retired_keys.is_empty() && self.obs.enabled() {
            self.obs
                .counter_add("stream.epochs_retired", retired_keys.len() as u64);
            self.obs
                .gauge_set("stream.epochs_live", self.epochs.len() as i64);
            self.obs
                .gauge_set("stream.footprint_bytes", self.footprint_bytes() as i64);
        }
        retired_keys
    }

    /// Retained-heap estimate of every live epoch (records + partials).
    /// Deterministic for given contents — this is the number the bench
    /// gates, with the OS-reported RSS recorded alongside it.
    pub fn footprint_bytes(&self) -> u64 {
        self.epochs.values().map(|e| e.footprint).sum()
    }

    /// Live month keys in canonical order.
    pub fn live_epochs(&self) -> Vec<&str> {
        self.epochs.keys().map(String::as_str).collect()
    }

    /// Seal the build: surviving epochs re-assembled in canonical month
    /// order, per-epoch partials folded into one merged map. The caller
    /// runs the interception filter over the assembled slices and then
    /// [`crate::Corpus::build_with_partials`].
    pub fn finish(self) -> StreamParts {
        let mut ssl = Vec::new();
        let mut x509 = Vec::new();
        let mut partials: FxHashMap<Symbol, CertAgg> = FxHashMap::default();
        for (_, epoch) in self.epochs {
            ssl.extend(epoch.ssl);
            x509.extend(epoch.x509);
            for (sym, agg) in epoch.agg {
                match partials.entry(sym) {
                    Entry::Vacant(v) => {
                        v.insert(agg);
                    }
                    Entry::Occupied(mut o) => {
                        o.get_mut().merge(agg);
                    }
                }
            }
        }
        StreamParts {
            ssl,
            x509,
            meta: self.meta,
            interner: self.interner,
            partials,
            summary: self.summary,
        }
    }
}
