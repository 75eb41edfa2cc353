//! The corpus builder: a windowed month buffer.
//!
//! Every directory load walks the capture one month (an **epoch**) at a
//! time into a [`CorpusBuilder`]; a batch load is the walk with no window.
//! The builder keeps the live rows in one `ssl` and one `x509` buffer, each
//! month's rows one contiguous run in canonical month order, with the
//! per-month row counts in a `BTreeMap`. A rolling window bounds what is
//! held. It computes no aggregates of its own:
//! [`Corpus::build`](crate::Corpus::build) is the one fold over
//! connections, and it runs on the rows [`CorpusBuilder::finish`] hands
//! back.
//!
//! Lifecycle:
//!
//! 1. **push** — [`CorpusBuilder::push_epoch`] splices one month's records
//!    in at that month's offset (a plain append for an in-order walk) and
//!    adds their retained-heap estimate to the epoch's footprint. A push
//!    touches only the incoming rows and the rows of later months, so an
//!    in-order ingest stays linear in months.
//! 2. **retire** — [`CorpusBuilder::retire_outside_window`] (or
//!    [`CorpusBuilder::retire_for_incoming`], before reading the next
//!    month) drains every epoch older than the rolling window from the
//!    front of the buffers. This is what bounds memory: the builder
//!    retains O(window) connection rows, not O(corpus).
//! 3. **finish** — [`CorpusBuilder::finish`] moves the two buffers out,
//!    already in canonical month order (so shuffled pushes converge to the
//!    same rows) and without copying a row. The pipeline then runs the
//!    interception filter and `Corpus::build` over them with a fresh
//!    interner.
//!
//! Equivalence contracts (pinned in `tests/ingest_equiv.rs`):
//! * the full-window output is byte-identical for any push order;
//! * a rolling window of N months is byte-identical to a load of only
//!   those N months.

use crate::corpus::MetaKnowledge;
use crate::pipeline::AnalysisInputs;
use mtls_obs::{Obs, SpanId};
use mtls_pki::{CtLog, GossipBundle};
use mtls_zeek::{SslRecord, X509Record};
use std::collections::BTreeMap;
use std::ops::Bound;

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

/// One live month: the length of its run in each row buffer.
#[derive(Default)]
struct Epoch {
    ssl_rows: usize,
    x509_rows: usize,
    /// Retained-heap estimate of this epoch's rows.
    footprint: u64,
}

/// Insert `rows` at `at`: an append when `at` is the end, else a splice
/// that shifts the rows of later months up.
fn insert_at<T>(buf: &mut Vec<T>, at: usize, mut rows: Vec<T>) {
    if at == buf.len() {
        buf.append(&mut rows);
    } else {
        buf.splice(at..at, rows);
    }
}

/// Summary of a whole month walk, returned inside [`StreamParts`].
#[derive(Debug, Clone, Default)]
pub struct StreamSummary {
    /// Epochs pushed, in push order.
    pub epochs_pushed: usize,
    /// Epochs retired out of the rolling window.
    pub epochs_retired: usize,
    /// High-water retained-heap estimate across the whole build.
    pub peak_footprint_bytes: u64,
    /// Largest single epoch's retained-heap estimate — the "1-month
    /// footprint" reference the rolling-window RSS ceiling is gated
    /// against (peak ≤ 2× this when `--window 1mo`).
    pub max_epoch_footprint_bytes: u64,
}

/// Everything [`CorpusBuilder::finish`] hands back: the surviving records
/// in canonical month order and the build summary.
pub struct StreamParts {
    pub ssl: Vec<SslRecord>,
    pub x509: Vec<X509Record>,
    pub meta: MetaKnowledge,
    pub summary: StreamSummary,
}

impl StreamParts {
    /// The pipeline inputs: these rows and meta with the CT evidence.
    pub fn into_inputs(self, ct: CtLog, gossip: GossipBundle) -> AnalysisInputs {
        AnalysisInputs {
            ssl: self.ssl,
            x509: self.x509,
            ct,
            gossip,
            meta: self.meta,
        }
    }
}

/// The incremental corpus builder. See the module docs for the lifecycle.
pub struct CorpusBuilder {
    meta: MetaKnowledge,
    /// Live rows of every epoch: each month one contiguous run, months in
    /// key order.
    ssl: Vec<SslRecord>,
    x509: Vec<X509Record>,
    /// Live epochs, keyed by month (`BTreeMap` = canonical order for
    /// free, whatever order the pushes arrived in). Their row counts, in
    /// key order, cut the buffers into months.
    epochs: BTreeMap<String, Epoch>,
    summary: StreamSummary,
    obs: Obs,
    parent: Option<SpanId>,
}

impl CorpusBuilder {
    pub fn new(meta: MetaKnowledge) -> CorpusBuilder {
        CorpusBuilder {
            meta,
            ssl: Vec::new(),
            x509: Vec::new(),
            epochs: BTreeMap::new(),
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
    pub fn push_epoch(&mut self, key: &str, ssl: Vec<SslRecord>, x509: Vec<X509Record>) {
        let span = self.obs.span(self.parent, "epoch_merge");
        let (ssl_rows, x509_rows) = (ssl.len(), x509.len());
        let footprint = ssl.iter().map(ssl_heap_bytes).sum::<usize>()
            + x509.iter().map(x509_heap_bytes).sum::<usize>();

        // The month's rows go after every live row up to and including its
        // own run: the end of the buffers for an in-order walk.
        let (ssl_at, x509_at) = self
            .epochs
            .range::<str, _>((Bound::Unbounded, Bound::Included(key)))
            .fold((0, 0), |(s, x), (_, e)| (s + e.ssl_rows, x + e.x509_rows));
        insert_at(&mut self.ssl, ssl_at, ssl);
        insert_at(&mut self.x509, x509_at, x509);
        let slot = self.epochs.entry(key.to_string()).or_default();
        slot.ssl_rows += ssl_rows;
        slot.x509_rows += x509_rows;
        slot.footprint += footprint as u64;
        self.summary.epochs_pushed += 1;
        self.summary.max_epoch_footprint_bytes =
            self.summary.max_epoch_footprint_bytes.max(slot.footprint);

        let footprint_bytes = self.footprint_bytes();
        self.summary.peak_footprint_bytes = self.summary.peak_footprint_bytes.max(footprint_bytes);
        span.finish();

        if self.obs.enabled() {
            self.obs
                .gauge_set("stream.epochs_live", self.epochs.len() as i64);
            self.obs
                .gauge_set("stream.footprint_bytes", footprint_bytes as i64);
            self.obs.gauge_max(
                "stream.peak_footprint_bytes",
                self.summary.peak_footprint_bytes as i64,
            );
            self.obs
                .counter_add("stream.ssl_rows_pushed", ssl_rows as u64);
            self.obs
                .counter_add("stream.x509_rows_pushed", x509_rows as u64);
            self.obs.sample_rss();
        }
    }

    /// Push in-memory records the way a walk of their rotated directory
    /// would: partitioned into months, pushed in month order, each push
    /// first retiring to leave room for it when `window` is set.
    pub fn push_records(
        &mut self,
        ssl: Vec<SslRecord>,
        x509: Vec<X509Record>,
        window: Option<usize>,
    ) {
        for (key, ssl, x509) in mtls_zeek::partition_monthly(ssl, x509) {
            if let Some(window) = window {
                self.retire_for_incoming(window);
            }
            self.push_epoch(&key, ssl, x509);
        }
    }

    /// Keep only the newest `window` months; every older epoch is
    /// retired and its rows released. Returns the retired keys (oldest
    /// first).
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
        let (mut ssl_rows, mut x509_rows) = (0, 0);
        while self.epochs.len() > keep {
            let (key, epoch) = self.epochs.pop_first().expect("non-empty epochs");
            ssl_rows += epoch.ssl_rows;
            x509_rows += epoch.x509_rows;
            self.summary.epochs_retired += 1;
            retired_keys.push(key);
        }
        // The oldest months are the front of the buffers.
        self.ssl.drain(..ssl_rows);
        self.x509.drain(..x509_rows);
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

    /// Retained-heap estimate of every live epoch's rows. Deterministic
    /// for given contents — this is the number the bench gates, with the
    /// OS-reported RSS recorded alongside it.
    pub fn footprint_bytes(&self) -> u64 {
        self.epochs.values().map(|e| e.footprint).sum()
    }

    /// Live month keys in canonical order.
    pub fn live_epochs(&self) -> Vec<&str> {
        self.epochs.keys().map(String::as_str).collect()
    }

    /// Seal the build: the surviving rows, already in canonical month
    /// order, moved out without a copy. The caller runs the interception
    /// filter and [`crate::Corpus::build`] over them.
    pub fn finish(self) -> StreamParts {
        StreamParts {
            ssl: self.ssl,
            x509: self.x509,
            meta: self.meta,
            summary: self.summary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{external, internal, meta, T0};
    use mtls_zeek::TlsVersion;

    fn ssl(uid: &str, fps: &[&str]) -> SslRecord {
        SslRecord {
            ts: T0,
            uid: uid.into(),
            orig_h: external(1),
            orig_p: 40_000,
            resp_h: internal(1),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: Some("host.example.com".into()),
            established: true,
            cert_chain_fps: fps.iter().map(|f| f.to_string()).collect(),
            client_cert_chain_fps: vec![],
        }
    }

    fn x509(fp: &str) -> X509Record {
        X509Record {
            ts: T0,
            fingerprint: fp.into(),
            version: 3,
            serial: "0A".into(),
            subject: "CN=host".into(),
            issuer: "O=SomeOrg".into(),
            issuer_org: Some("SomeOrg".into()),
            subject_cn: Some("host".into()),
            not_valid_before: 0,
            not_valid_after: 86_400,
            key_alg: "rsa".into(),
            key_length: 2048,
            sig_alg: "sha256WithRSAEncryption".into(),
            san_dns: vec!["a.example.com".into()],
            san_email: vec![],
            san_uri: vec![],
            san_ip: vec![],
            basic_constraints_ca: false,
        }
    }

    /// One month of `n` connections (each a two-cert chain) and `n` certs.
    fn month(tag: &str, n: usize) -> (Vec<SslRecord>, Vec<X509Record>) {
        let ssl = (0..n)
            .map(|i| ssl(&format!("{tag}-{i}"), &[&format!("{tag}{i}"), "root"]))
            .collect();
        let x509 = (0..n).map(|i| x509(&format!("{tag}{i}"))).collect();
        (ssl, x509)
    }

    /// The row estimate the builder should charge for one push.
    fn estimate(rows: &(Vec<SslRecord>, Vec<X509Record>)) -> u64 {
        (rows.0.iter().map(ssl_heap_bytes).sum::<usize>()
            + rows.1.iter().map(x509_heap_bytes).sum::<usize>()) as u64
    }

    fn push(b: &mut CorpusBuilder, key: &str, rows: &(Vec<SslRecord>, Vec<X509Record>)) {
        b.push_epoch(key, rows.0.clone(), rows.1.clone());
    }

    #[test]
    fn footprint_is_the_sum_of_live_row_estimates() {
        let months = [month("a", 3), month("b", 5), month("c", 1)];
        let mut b = CorpusBuilder::new(meta());
        let mut total = 0;
        for (key, rows) in ["2022-05", "2022-06", "2022-07"].iter().zip(&months) {
            push(&mut b, key, rows);
            total += estimate(rows);
            assert_eq!(b.footprint_bytes(), total);
        }
        assert!(total > 0);
    }

    #[test]
    fn retiring_a_month_releases_exactly_its_footprint() {
        let (old, new) = (month("a", 4), month("b", 2));
        let mut b = CorpusBuilder::new(meta());
        push(&mut b, "2022-05", &old);
        push(&mut b, "2022-06", &new);
        let before = b.footprint_bytes();
        assert_eq!(b.retire_outside_window(1), vec!["2022-05".to_string()]);
        assert_eq!(b.footprint_bytes(), before - estimate(&old));
        assert_eq!(b.footprint_bytes(), estimate(&new));
        assert_eq!(b.live_epochs(), vec!["2022-06"]);
    }

    #[test]
    fn repushing_a_live_key_appends_to_that_epoch_only() {
        let (first, other, second) = (month("a", 2), month("b", 3), month("c", 4));
        let mut b = CorpusBuilder::new(meta());
        push(&mut b, "2022-05", &first);
        push(&mut b, "2022-06", &other);
        push(&mut b, "2022-05", &second);
        assert_eq!(b.live_epochs(), vec!["2022-05", "2022-06"]);
        assert_eq!(
            b.footprint_bytes(),
            estimate(&first) + estimate(&other) + estimate(&second)
        );
        // Retiring the re-pushed month releases both of its pushes.
        b.retire_outside_window(1);
        assert_eq!(b.footprint_bytes(), estimate(&other));

        let mut b = CorpusBuilder::new(meta());
        push(&mut b, "2022-05", &first);
        push(&mut b, "2022-05", &second);
        let parts = b.finish();
        assert_eq!(parts.summary.epochs_pushed, 2);
        assert_eq!(
            parts.summary.max_epoch_footprint_bytes,
            estimate(&first) + estimate(&second)
        );
        let uids: Vec<&str> = parts.ssl.iter().map(|r| r.uid.as_str()).collect();
        assert_eq!(uids, ["a-0", "a-1", "c-0", "c-1", "c-2", "c-3"]);
        assert_eq!(parts.x509.len(), 6);

        // A month pushed out of order lands in the middle of the live
        // window, a re-push of it goes after its own rows, and retiring the
        // oldest month drains exactly its rows from the front.
        let mut b = CorpusBuilder::new(meta());
        push(&mut b, "2022-05", &first);
        push(&mut b, "2022-08", &other);
        push(&mut b, "2022-06", &second);
        push(&mut b, "2022-06", &month("d", 1));
        push(&mut b, "2022-05", &month("e", 2));
        assert_eq!(b.retire_outside_window(2), ["2022-05"]);
        let parts = b.finish();
        let uids: Vec<&str> = parts.ssl.iter().map(|r| r.uid.as_str()).collect();
        assert_eq!(
            uids,
            ["c-0", "c-1", "c-2", "c-3", "d-0", "b-0", "b-1", "b-2"]
        );
        let fps: Vec<&str> = parts.x509.iter().map(|r| r.fingerprint.as_str()).collect();
        assert_eq!(fps, ["c0", "c1", "c2", "c3", "d0", "b0", "b1", "b2"]);
    }

    #[test]
    fn peak_and_max_epoch_footprints_are_high_water_marks() {
        let (big, small) = (month("a", 6), month("b", 1));
        let mut b = CorpusBuilder::new(meta());
        push(&mut b, "2022-05", &big);
        push(&mut b, "2022-06", &small);
        let peak = b.footprint_bytes();
        b.retire_outside_window(1);
        push(&mut b, "2022-07", &small);
        assert!(b.footprint_bytes() < peak);
        let parts = b.finish();
        assert_eq!(parts.summary.peak_footprint_bytes, peak);
        assert_eq!(parts.summary.max_epoch_footprint_bytes, estimate(&big));
        assert_eq!(parts.summary.epochs_retired, 1);
        // finish walks the survivors in month order.
        let uids: Vec<&str> = parts.ssl.iter().map(|r| r.uid.as_str()).collect();
        assert_eq!(uids, ["b-0", "b-0"]);

        // The high-water marks survive an out-of-order push into the middle
        // of the window and the retirement that follows it; the surviving
        // rows come back once each, in month order.
        let mut b = CorpusBuilder::new(meta());
        push(&mut b, "2022-05", &small);
        push(&mut b, "2022-07", &month("c", 2));
        push(&mut b, "2022-06", &big);
        let peak = b.footprint_bytes();
        assert_eq!(b.retire_outside_window(2), ["2022-05"]);
        let parts = b.finish();
        assert_eq!(parts.summary.peak_footprint_bytes, peak);
        assert_eq!(parts.summary.max_epoch_footprint_bytes, estimate(&big));
        let uids: Vec<&str> = parts.ssl.iter().map(|r| r.uid.as_str()).collect();
        assert_eq!(
            uids,
            ["a-0", "a-1", "a-2", "a-3", "a-4", "a-5", "c-0", "c-1"]
        );
        assert_eq!(parts.x509.len(), 8);
    }

    #[test]
    fn retire_for_incoming_leaves_room_for_one_and_window_zero_is_one() {
        let rows = month("a", 1);
        let keys = ["2022-05", "2022-06", "2022-07", "2022-08"];
        let filled = || {
            let mut b = CorpusBuilder::new(meta());
            for key in keys {
                push(&mut b, key, &rows);
            }
            b
        };
        for w in 1..=4 {
            let mut b = filled();
            let retired = b.retire_for_incoming(w);
            assert_eq!(b.live_epochs().len(), w - 1, "window {w}");
            assert_eq!(retired, keys[..keys.len() + 1 - w].to_vec(), "window {w}");
        }
        let mut b = filled();
        b.retire_for_incoming(0);
        assert!(b.live_epochs().is_empty());
        assert_eq!(b.footprint_bytes(), 0);
        let mut b = filled();
        b.retire_outside_window(0);
        assert_eq!(b.live_epochs(), vec!["2022-08"]);
    }
}
