//! `mtls-obs` — std-only observability for the mtlscope pipeline.
//!
//! The 23-month pipeline used to run dark: the only visibility was a
//! handful of hand-rolled `Instant` timers in the ingest layer. This crate
//! gives every layer one consistent instrumentation substrate, in the
//! style of `mtls-intern` (no external dependencies):
//!
//! * **Spans** ([`Obs::span`]) — hierarchical RAII wall-time timers that
//!   aggregate into a thread-safe span tree keyed by `(parent, name)`.
//!   Worker threads record spans under an explicit parent id, so a
//!   sharded stage produces the same tree as its serial twin no matter
//!   how the pool interleaves.
//! * **Metrics** ([`Obs::counter`], [`Obs::gauge_set`],
//!   [`Obs::histogram_record`]) — a registry of named counters, gauges,
//!   and log2-bucketed histograms backed by relaxed atomics (the
//!   `IngestStats` pattern). Hot paths batch: one `add` per shard, never
//!   one per row.
//! * **Sinks** ([`Obs::snapshot`] → [`Snapshot`]) — a human-readable run
//!   summary for the report, deterministic `metrics.json`/`metrics.tsv`
//!   documents, and an opt-in periodic [`heartbeat`] to stderr for long
//!   runs.
//!
//! A disabled handle ([`Obs::noop`]) makes every operation a branch on a
//! boolean: the instrumented code paths stay identical, the bookkeeping
//! cost vanishes, and span guards still measure durations (the ingest
//! diagnostics reuse them), they just skip the tree write.
//!
//! ```
//! use mtls_obs::Obs;
//!
//! let obs = Obs::new();
//! let run = obs.span(None, "run");
//! {
//!     let stage = obs.span(run.id(), "stage");
//!     obs.counter("stage.items").add(42);
//!     stage.finish();
//! }
//! run.finish();
//! let snap = obs.snapshot();
//! assert_eq!(snap.span("run/stage").unwrap().count, 1);
//! assert_eq!(snap.counter("stage.items"), Some(42));
//! ```

pub mod flight;
pub mod metrics;
pub mod rss;
pub mod sink;
pub mod span;

pub use flight::{FlightEvent, FlightRecorder};
pub use metrics::{Counter, Histogram, HistogramBucket, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use rss::{read_self_rss, RssSample};
pub use sink::{Snapshot, SCHEMA_VERSION};
pub use span::{SpanGuard, SpanId, SpanRow};

use metrics::{bucket_bounds, bucket_of, Registry};
use span::SpanTree;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

struct Inner {
    enabled: bool,
    tree: Arc<Mutex<SpanTree>>,
    registry: Registry,
    epoch: Instant,
}

/// A shared observability session. Cheap to clone (one `Arc`); `Send` and
/// `Sync`, so one handle serves every worker thread of a run.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<Inner>,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl Obs {
    /// An enabled session: spans and metrics are recorded.
    pub fn new() -> Obs {
        Obs {
            inner: Arc::new(Inner {
                enabled: true,
                tree: Arc::new(Mutex::new(SpanTree::default())),
                registry: Registry::default(),
                epoch: Instant::now(),
            }),
        }
    }

    /// The shared disabled session: every operation is a no-op behind one
    /// branch. This is what the un-instrumented public APIs delegate
    /// through, so "observability off" costs one atomic refcount bump.
    pub fn noop() -> Obs {
        static NOOP: OnceLock<Obs> = OnceLock::new();
        NOOP.get_or_init(|| Obs {
            inner: Arc::new(Inner {
                enabled: false,
                tree: Arc::new(Mutex::new(SpanTree::default())),
                registry: Registry::default(),
                epoch: Instant::now(),
            }),
        })
        .clone()
    }

    /// Whether this session records anything.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Wall time since this session was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.epoch.elapsed()
    }

    /// Enter a span named `name` under `parent` (`None` for a root).
    /// Returns the RAII guard; the span records on drop or
    /// [`finish`](SpanGuard::finish). The node is created on entry, so
    /// children started before the parent finishes attach correctly.
    pub fn span(&self, parent: Option<SpanId>, name: &str) -> SpanGuard {
        let id = if self.inner.enabled {
            Some(
                self.inner
                    .tree
                    .lock()
                    .expect("span tree poisoned")
                    .get_or_create(parent, name),
            )
        } else {
            None
        };
        SpanGuard {
            tree: self.inner.enabled.then(|| Arc::clone(&self.inner.tree)),
            id,
            start: Instant::now(),
            done: false,
        }
    }

    /// Time a closure under a span — the common "wrap one stage" helper.
    pub fn time<R>(&self, parent: Option<SpanId>, name: &str, f: impl FnOnce() -> R) -> R {
        let guard = self.span(parent, name);
        let result = f();
        guard.finish();
        result
    }

    /// Record an already-measured duration into a span node (tests, and
    /// stages whose timing comes from elsewhere).
    pub fn record_span(&self, parent: Option<SpanId>, name: &str, dur: Duration) -> Option<SpanId> {
        if !self.inner.enabled {
            return None;
        }
        let mut tree = self.inner.tree.lock().expect("span tree poisoned");
        let id = tree.get_or_create(parent, name);
        tree.record(id, dur);
        Some(id)
    }

    /// A lock-free handle to the named counter (registered on first use).
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self
                .inner
                .enabled
                .then(|| self.inner.registry.counter_cell(name)),
        }
    }

    /// A lock-free handle to the named histogram (registered on first
    /// use) — for hot paths recording per-request observations.
    pub fn histogram(&self, name: &str) -> metrics::Histogram {
        metrics::Histogram {
            cell: self
                .inner
                .enabled
                .then(|| self.inner.registry.histogram_cell(name)),
        }
    }

    /// One-shot counter add (for cold paths; hot paths hold a [`Counter`]).
    pub fn counter_add(&self, name: &str, n: u64) {
        if self.inner.enabled {
            self.inner
                .registry
                .counter_cell(name)
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Set the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: i64) {
        if self.inner.enabled {
            self.inner
                .registry
                .gauge_cell(name)
                .store(value, Ordering::Relaxed);
        }
    }

    /// Raise the named gauge to `value` if it is higher (peak tracking).
    pub fn gauge_max(&self, name: &str, value: i64) {
        if self.inner.enabled {
            self.inner
                .registry
                .gauge_cell(name)
                .fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Sample this process's resident set size into the `mem.rss_bytes`
    /// (last sample) and `mem.peak_rss_bytes` (high-water, monotone via
    /// `gauge_max` so late small samples can't lower it) gauges. A no-op
    /// on disabled sessions and on platforms without procfs. Returns the
    /// sample so callers can also log or gate on it directly.
    pub fn sample_rss(&self) -> Option<rss::RssSample> {
        if !self.inner.enabled {
            return None;
        }
        let sample = rss::read_self_rss()?;
        self.gauge_set(
            "mem.rss_bytes",
            sample.rss_bytes.min(i64::MAX as u64) as i64,
        );
        self.gauge_max(
            "mem.peak_rss_bytes",
            sample.peak_rss_bytes.min(i64::MAX as u64) as i64,
        );
        Some(sample)
    }

    /// Record one observation into the named log2 histogram.
    pub fn histogram_record(&self, name: &str, value: u64) {
        if self.inner.enabled {
            let cell = self.inner.registry.histogram_cell(name);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(value, Ordering::Relaxed);
            cell.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An owned, deterministic snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        if !self.inner.enabled {
            return Snapshot::default();
        }
        let spans = self.inner.tree.lock().expect("span tree poisoned").rows();
        let counters = self
            .inner
            .registry
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .registry
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .inner
            .registry
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(name, cell)| HistogramSnapshot {
                name: name.clone(),
                count: cell.count.load(Ordering::Relaxed),
                sum: cell.sum.load(Ordering::Relaxed),
                buckets: cell
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then(|| {
                            let (lo, hi) = bucket_bounds(i);
                            HistogramBucket { lo, hi, n }
                        })
                    })
                    .collect(),
            })
            .collect();
        Snapshot {
            spans,
            counters,
            gauges,
            histograms,
        }
    }
}

/// The quiet-aware operator console: all progress/status output of a CLI
/// run goes through [`status`](Console::status) (silenced by `--quiet`),
/// errors through [`error`](Console::error) (never silenced). One writer,
/// so "quiet" means quiet — no stray `eprintln!` can leak past it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Console {
    quiet: bool,
}

impl Console {
    pub fn new(quiet: bool) -> Console {
        Console { quiet }
    }

    /// Operator status line (stderr); dropped when quiet.
    pub fn status(&self, msg: impl AsRef<str>) {
        if !self.quiet {
            eprintln!("{}", msg.as_ref());
        }
    }

    /// Error line (stderr); always printed, quiet or not.
    pub fn error(&self, msg: impl AsRef<str>) {
        eprintln!("{}", msg.as_ref());
    }
}

/// Handle to a running heartbeat thread; [`stop`](Heartbeat::stop) (or
/// drop) terminates and joins it.
pub struct Heartbeat {
    stop_tx: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Stop the heartbeat and wait for its thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // Dropping the sender also wakes the receiver (Disconnected).
        self.stop_tx.take();
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a progress heartbeat: every `every`, print elapsed time and the
/// current counter values to the console (suppressed when the console is
/// quiet — errors are the only output a quiet run emits). Used by
/// `repro --progress` so a 23-month ingest is visibly alive.
pub fn heartbeat(obs: Obs, console: Console, every: Duration) -> Heartbeat {
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let handle = std::thread::spawn(move || loop {
        match stop_rx.recv_timeout(every) {
            Err(RecvTimeoutError::Timeout) => {
                // Piggyback RSS sampling on the tick: long runs get a
                // memory trace for free, and the peak gauge can't miss a
                // high-water mark by more than one heartbeat (VmHWM is
                // kernel-maintained anyway, so the final reading is exact).
                let rss = obs.sample_rss();
                let snap = obs.snapshot();
                let mut parts: Vec<String> = snap
                    .counters
                    .iter()
                    .map(|(name, value)| format!("{name}={value}"))
                    .collect();
                if parts.is_empty() {
                    parts.push("warming up".to_string());
                }
                if let Some(s) = rss {
                    parts.push(format!("rss={}MiB", s.rss_bytes / (1024 * 1024)));
                }
                console.status(format!(
                    "[progress +{:.1}s] {}",
                    obs.elapsed().as_secs_f64(),
                    parts.join(" ")
                ));
            }
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
        }
    });
    Heartbeat {
        stop_tx: Some(stop_tx),
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let obs = Obs::new();
        let run = obs.span(None, "run");
        let rid = run.id();
        for _ in 0..3 {
            obs.record_span(rid, "stage", Duration::from_micros(100));
        }
        run.finish();
        let snap = obs.snapshot();
        let stage = snap.span("run/stage").expect("aggregated child");
        assert_eq!(stage.count, 3);
        assert_eq!(stage.total_micros, 300);
        assert_eq!(stage.min_micros, 100);
        assert_eq!(stage.max_micros, 100);
        assert_eq!(stage.depth, 1);
        let root = snap.span("run").unwrap();
        assert_eq!(root.count, 1);
        assert!(root.total_micros < 1_000_000, "drop-timed root is sane");
    }

    #[test]
    fn children_sort_by_name_regardless_of_registration_order() {
        let obs = Obs::new();
        let run = obs.span(None, "run");
        let rid = run.id();
        obs.record_span(rid, "zulu", Duration::from_micros(1));
        obs.record_span(rid, "alpha", Duration::from_micros(1));
        obs.record_span(rid, "mike", Duration::from_micros(1));
        run.finish();
        let paths: Vec<String> = obs
            .snapshot()
            .spans
            .iter()
            .map(|s| s.path.clone())
            .collect();
        assert_eq!(paths, vec!["run", "run/alpha", "run/mike", "run/zulu"]);
    }

    #[test]
    fn guards_record_on_drop_and_on_finish_exactly_once() {
        let obs = Obs::new();
        {
            let _g = obs.span(None, "dropped");
        }
        let g = obs.span(None, "finished");
        let dur = g.finish();
        assert!(dur.as_nanos() > 0);
        let snap = obs.snapshot();
        assert_eq!(snap.span("dropped").unwrap().count, 1);
        assert_eq!(snap.span("finished").unwrap().count, 1);
    }

    #[test]
    fn worker_threads_aggregate_into_one_tree() {
        let obs = Obs::new();
        let run = obs.span(None, "run");
        let rid = run.id();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let obs = &obs;
                s.spawn(move || {
                    for _ in 0..25 {
                        obs.record_span(rid, "shard", Duration::from_micros(10));
                        obs.counter("rows").add(7);
                        obs.histogram_record("latency", 10);
                    }
                });
            }
        });
        run.finish();
        let snap = obs.snapshot();
        assert_eq!(snap.span("run/shard").unwrap().count, 100);
        assert_eq!(snap.span("run/shard").unwrap().total_micros, 1_000);
        assert_eq!(snap.counter("rows"), Some(700));
        let h = &snap.histograms[0];
        assert_eq!((h.count, h.sum), (100, 1_000));
        assert_eq!(h.buckets.len(), 1);
        assert_eq!(h.buckets[0].n, 100);
    }

    #[test]
    fn noop_records_nothing_but_still_times() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        let g = obs.span(None, "run");
        assert!(g.id().is_none());
        std::thread::sleep(Duration::from_millis(2));
        let dur = g.finish();
        assert!(dur >= Duration::from_millis(2), "guards time even disabled");
        obs.counter("n").add(5);
        obs.gauge_set("g", 1);
        obs.histogram_record("h", 1);
        let snap = obs.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn gauges_set_and_max() {
        let obs = Obs::new();
        obs.gauge_set("level", 10);
        obs.gauge_set("level", 4);
        obs.gauge_max("peak", 10);
        obs.gauge_max("peak", 4);
        let snap = obs.snapshot();
        assert_eq!(snap.gauges, vec![("level".into(), 4), ("peak".into(), 10)]);
    }

    #[test]
    fn heartbeat_stops_cleanly() {
        let obs = Obs::new();
        obs.counter("beats").add(1);
        let hb = heartbeat(obs, Console::new(true), Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(12));
        hb.stop();
    }

    #[test]
    fn summary_and_tsv_mention_everything() {
        let obs = Obs::new();
        let run = obs.span(None, "run");
        obs.record_span(run.id(), "ingest", Duration::from_millis(5));
        run.finish();
        obs.counter("ingest.rows_parsed").add(1234);
        obs.gauge_set("ingest.rows_per_sec", 99);
        obs.histogram_record("ingest.shard_parse_micros", 300);
        let snap = obs.snapshot();
        let summary = snap.render_summary();
        assert!(summary.contains("== Run metrics =="));
        assert!(summary.contains("ingest"));
        assert!(summary.contains("ingest.rows_parsed"));
        assert!(summary.contains("1,234"));
        assert!(summary.contains("histogram ingest.shard_parse_micros"));
        let tsv = snap.to_tsv();
        assert!(tsv.starts_with("kind\tname\tvalue"));
        assert!(tsv.contains("span\trun/ingest\t-\t1\t5000"));
        assert!(tsv.contains("counter\tingest.rows_parsed\t1234"));
        assert!(tsv.contains("gauge\tingest.rows_per_sec\t99"));
        assert!(tsv.contains("histogram\tingest.shard_parse_micros[256,512)\t1"));
    }
}
