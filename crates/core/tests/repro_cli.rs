//! The `repro` binary's `--metrics` output, end to end: a generated
//! fixture is read back with `--from-logs --lenient` and with a rolling
//! window, and the `metrics.tsv` it writes is checked against what the
//! library records in-process. `metrics.tsv` renders the same snapshot as
//! `metrics.json`, whose format `crates/obs/tests/golden.rs` pins.
//!
//! Every expected name comes from code: the span paths and `ct.*` values
//! from an in-process `load_dir` + `run_pipeline_obs` run over the same
//! fixture, the `ct.*` name set from a run over an empty corpus.

use mtls_core::corpus::CtSummary;
use mtls_core::ingest::load_dir;
use mtls_core::{run_pipeline_obs, AnalysisInputs, IngestMode};
use mtls_obs::Obs;
use mtls_pki::{CtLog, GossipBundle};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A scratch directory removed on drop, pass or panic.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mtlscope-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn repro(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--quiet")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

struct SpanRow {
    count: u64,
    total: u64,
    min: u64,
    max: u64,
}

/// `metrics.tsv` read back: spans by path, counters and gauges by name.
struct Metrics {
    spans: BTreeMap<String, SpanRow>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
}

impl Metrics {
    fn read(dir: &Path) -> Metrics {
        let text = std::fs::read_to_string(dir.join("metrics.tsv")).expect("read metrics.tsv");
        let mut m = Metrics {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        };
        for line in text.lines().skip(1) {
            let cells: Vec<&str> = line.split('\t').collect();
            assert_eq!(cells.len(), 7, "malformed row {line:?}");
            let num = |i: usize| cells[i].parse::<u64>().expect(line);
            match cells[0] {
                "span" => {
                    let row = SpanRow {
                        count: num(3),
                        total: num(4),
                        min: num(5),
                        max: num(6),
                    };
                    m.spans.insert(cells[1].to_string(), row);
                }
                "counter" => {
                    m.counters.insert(cells[1].to_string(), num(2));
                }
                "gauge" => {
                    m.gauges
                        .insert(cells[1].to_string(), cells[2].parse().expect(line));
                }
                "histogram" => {}
                other => panic!("unknown row kind {other:?}"),
            }
        }
        m
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn gauge(&self, name: &str) -> i64 {
        *self
            .gauges
            .get(name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
    }
}

/// The `ct.*` counters of a name → value list.
fn ct_counters<'a>(counters: impl Iterator<Item = (&'a String, u64)>) -> BTreeMap<String, u64> {
    counters
        .filter(|(n, _)| n.starts_with("ct."))
        .map(|(n, v)| (n.clone(), v))
        .collect()
}

/// What `repro --from-logs DIR --lenient` records, from the same calls
/// made in this process under a `run` root: its span paths, its `ct.*`
/// counters, and the CT summary they count.
fn in_process(fixture: &Path) -> (BTreeSet<String>, BTreeMap<String, u64>, CtSummary) {
    let obs = Obs::new();
    let run = obs.span(None, "run");
    let (inputs, _) =
        load_dir(fixture, IngestMode::Lenient, None, &obs, run.id()).expect("load fixture");
    let out = run_pipeline_obs(inputs, &obs, run.id());
    run.finish();
    let snap = obs.snapshot();
    let ct = ct_counters(snap.counters.iter().map(|(n, v)| (n, *v)));
    let paths = snap.spans.into_iter().map(|s| s.path).collect();
    (paths, ct, out.ct1.summary)
}

/// The `ct.*` counters the pipeline registers with nothing to count.
fn empty_corpus_ct_names() -> BTreeSet<String> {
    let obs = Obs::new();
    let empty = AnalysisInputs {
        ssl: Vec::new(),
        x509: Vec::new(),
        ct: CtLog::new(),
        gossip: GossipBundle::default(),
        meta: mtls_core::testutil::meta(),
    };
    run_pipeline_obs(empty, &obs, None);
    let snap = obs.snapshot();
    ct_counters(snap.counters.iter().map(|(n, v)| (n, *v)))
        .into_keys()
        .collect()
}

#[test]
fn repro_metrics_cover_every_stage_and_hold_the_clean_fixture_invariants() {
    let tmp = TempDir::new("repro-cli");
    let fixture = tmp.0.join("fixture");
    let out = tmp.0.join("out");
    let window = tmp.0.join("window");
    let (fixture_s, out_s, window_s) = (
        fixture.to_str().unwrap(),
        out.to_str().unwrap(),
        window.to_str().unwrap(),
    );
    repro(&["--scale", "0.01", "--logs", fixture_s]);
    repro(&[
        "--from-logs",
        fixture_s,
        "--lenient",
        "--tsv",
        out_s,
        "--metrics",
    ]);
    repro(&[
        "--from-logs",
        fixture_s,
        "--window",
        "3mo",
        "--tsv",
        window_s,
        "--metrics",
    ]);

    let m = Metrics::read(&out);

    // Every stage the library records, plus the export the binary adds.
    let (mut expected, in_process_ct, ct) = in_process(&fixture);
    assert!(expected.contains("run/pipeline/analyze/prevalence"));
    assert!(expected.iter().any(|p| p.starts_with("run/ingest/logs/")));
    expected.insert("run/export".to_string());
    let missing: Vec<_> = expected
        .iter()
        .filter(|p| !m.spans.contains_key(*p))
        .collect();
    assert!(
        missing.is_empty(),
        "spans missing from metrics.tsv: {missing:?}"
    );

    // Durations nest: no child outgrows a parent that ran once, and the
    // top-level stages fit inside the run.
    for (path, row) in &m.spans {
        assert!(
            row.count >= 1 && row.min <= row.max,
            "degenerate span {path}"
        );
        if let Some((parent, _)) = path.rsplit_once('/') {
            let p = &m.spans[parent];
            if p.count == 1 {
                assert!(row.total <= p.total, "{path} outgrows {parent}");
            }
        }
    }
    let top: u64 = m
        .spans
        .iter()
        .filter(|(p, _)| p.matches('/').count() == 1)
        .map(|(_, r)| r.total)
        .sum();
    assert!(top <= m.spans["run"].total, "top-level spans outgrow run");

    assert!(m.counter("ingest.rows_parsed") > 0);
    assert!(m.counter("export.files") > 0);

    // The ct.* schema is registered at zero, so it is the same set on any
    // run, and the binary counts what the library counts.
    let binary_ct = ct_counters(m.counters.iter().map(|(n, v)| (n, *v)));
    assert_eq!(
        binary_ct.keys().cloned().collect::<BTreeSet<_>>(),
        empty_corpus_ct_names()
    );
    assert_eq!(binary_ct, in_process_ct);
    // This fixture is clean and carries gossip evidence: proofs verify and
    // no adversarial detection fires.
    assert_eq!(m.counter("ct.proofs_mode"), 1);
    assert!(m.counter("ct.sths_observed") >= 2);
    assert!(m.counter("ct.consistency_proofs_verified") >= 1);
    assert_eq!(ct.signature_failures, 0);
    assert_eq!(ct.consistency_failed, 0);
    assert!(ct.split_view_logs.is_empty());
    assert_eq!(ct.entries_rejected, 0);
    assert_eq!((ct.stripped_certs, ct.stripped_conns), (0, 0));

    // The month walk: footprint gauges in order, no row lost or doubled.
    let peak = m.gauge("stream.peak_footprint_bytes");
    let live = m.gauge("stream.footprint_bytes");
    assert!(peak >= live && live > 0, "peak {peak}, live {live}");
    assert_eq!(
        m.counter("stream.ssl_rows_pushed") + m.counter("stream.x509_rows_pushed"),
        m.counter("ingest.rows_parsed")
    );

    assert!(Metrics::read(&window).counter("stream.epochs_retired") > 0);
}
