//! Directory-ingest equivalence: the month-walk loader must read both
//! layouts of a realistic (23-month) corpus into the report the generation
//! path renders, byte for byte. On a clean corpus lenient mode must be
//! observationally identical to strict; on a fault-injected corpus it must
//! recover with exact, fully-accounted skip counts while strict keeps its
//! first-error-in-walk-order contract. Month push order must not matter,
//! and a rolling window must equal a load of only its months.

use mtlscope::core::ingest::{load_dir, IngestDiagnostics, IngestError};
use mtlscope::core::testutil::faults;
use mtlscope::core::{
    run_pipeline, run_pipeline_obs, AnalysisInputs, Corpus, CorpusBuilder, IngestMode,
};
use mtlscope::intern::FxHashSet;
use mtlscope::netsim::{generate, SimConfig, SimOutput};
use mtlscope::obs::{Obs, Snapshot};
use mtlscope::zeek::{partition_monthly, ErrorKind, Fp};
use std::path::{Path, PathBuf};

/// A load with no window, unobserved.
fn load(dir: &Path, mode: IngestMode) -> Result<(AnalysisInputs, IngestDiagnostics), IngestError> {
    load_dir(dir, mode, None, &Obs::noop(), None)
}

/// A strict load's inputs.
fn inputs(dir: &Path) -> AnalysisInputs {
    load(dir, IngestMode::Strict).expect("strict ingest").0
}

/// The two on-disk layouts the loader reads: the flat `ssl.log` /
/// `x509.log` pair and the monthly-rotated shards.
const LAYOUTS: [&str; 2] = ["flat", "rotated"];

/// Write `sim` under `dir` in the named layout.
fn write_layout(sim: &SimOutput, dir: &Path, layout: &str) {
    match layout {
        "flat" => sim.write_to_dir(dir),
        _ => sim.write_to_dir_rotated(dir),
    }
    .expect("write logs");
}

/// Sorted shard paths for one log stream (`ssl` / `x509`) in `dir`.
fn shards(dir: &Path, stream: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&format!("{stream}.")) && n.ends_with(".log"))
        })
        .collect();
    out.sort();
    out
}

fn shard_name(path: &Path) -> String {
    path.file_name().unwrap().to_string_lossy().into_owned()
}

#[test]
fn sharded_ingest_handles_unrotated_layout_too() {
    let sim = generate(&SimConfig {
        seed: 9100,
        scale: 0.005,
        ..Default::default()
    });
    // The oracle is the generation path: no logs on disk at all.
    let oracle = run_pipeline(AnalysisInputs::from_sim(sim.clone())).render_all();
    let rows = (sim.ssl.len() + sim.x509.len()) as u64;
    for layout in LAYOUTS {
        let dir =
            std::env::temp_dir().join(format!("mtlscope-equiv-{layout}-{}", std::process::id()));
        write_layout(&sim, &dir, layout);

        // The rotated layout is walked shard by shard; the flat pair is read
        // whole and partitioned into months. Both render the oracle.
        let (loaded, diag) = load(&dir, IngestMode::Strict).expect("ingest");
        assert!(
            run_pipeline(loaded).render_all() == oracle,
            "{layout}: report differs from the generation path"
        );

        // Every row is accounted, every file read once, every month pushed.
        assert_eq!(diag.stats.rows_parsed, rows, "{layout}");
        let files = if layout == "flat" { 2 } else { 46 };
        assert_eq!(diag.stats.shards.len(), files, "{layout}");
        assert_eq!(diag.stream.epochs_pushed, 23, "{layout}");
        assert_eq!(diag.stream.epochs_retired, 0, "{layout}");

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn lenient_equals_strict_on_clean_corpus() {
    let sim = generate(&SimConfig {
        seed: 9101,
        scale: 0.005,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join(format!("mtlscope-equiv-clean-{}", std::process::id()));
    sim.write_to_dir_rotated(&dir).expect("write rotated logs");

    let (strict, strict_diag) = load(&dir, IngestMode::Strict).expect("strict ingest");
    let (lenient, lenient_diag) = load(&dir, IngestMode::Lenient).expect("lenient ingest");

    // Identical inputs from either mode.
    assert_eq!(strict.ssl, lenient.ssl);
    assert_eq!(strict.x509, lenient.x509);

    // A clean corpus produces zero skips in every ledger, and passes even
    // the tightest error-rate guard.
    for diag in [&strict_diag, &lenient_diag] {
        assert_eq!(diag.stats.rows_skipped, 0);
        assert_eq!(diag.stats.shards_quarantined, 0);
        assert_eq!(diag.meta_entries_skipped, 0);
        assert_eq!(diag.error_rate(), 0.0);
        diag.check_error_rate(0.0).expect("clean corpus passes");
        assert_eq!(
            diag.stats.rows_parsed,
            (strict.ssl.len() + strict.x509.len()) as u64
        );
    }

    // …and the full analysis renders byte-identically from either mode.
    assert_eq!(
        run_pipeline_obs(strict, &Obs::noop(), None).render_all(),
        run_pipeline(lenient).render_all()
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The duration-independent shape of a span tree: `(path, depth, count)`
/// in the snapshot's deterministic order. Wall times differ run to run;
/// everything else must not.
fn span_shape(snap: &Snapshot) -> Vec<(String, usize, u64)> {
    snap.spans
        .iter()
        .map(|s| (s.path.clone(), s.depth, s.count))
        .collect()
}

/// Gauges with the duration-derived rates and the RSS samples removed
/// (`*_per_sec` is computed from wall time and `mem.*` reads the process,
/// so both legitimately differ between runs).
fn stable_gauges(snap: &Snapshot) -> Vec<(String, i64)> {
    snap.gauges
        .iter()
        .filter(|(name, _)| !name.ends_with("_per_sec") && !name.starts_with("mem."))
        .cloned()
        .collect()
}

#[test]
fn ingest_span_tree_covers_every_shard_and_agrees_with_the_ledger() {
    let sim = generate(&SimConfig {
        seed: 9103,
        scale: 0.005,
        ..Default::default()
    });
    for layout in LAYOUTS {
        let dir = std::env::temp_dir().join(format!(
            "mtlscope-equiv-obs-{layout}-{}",
            std::process::id()
        ));
        write_layout(&sim, &dir, layout);

        let observed_load = || {
            let obs = Obs::new();
            let (_, diag) = load_dir(&dir, IngestMode::Strict, None, &obs, None).expect("ingest");
            (obs.snapshot(), diag)
        };
        let (snap, diag) = observed_load();
        let (again, _) = observed_load();

        // Two loads of one directory record the same tree, counter totals,
        // gauges (the wall-time-derived rates aside) and histogram
        // populations (bucket placement follows shard latency).
        assert_eq!(span_shape(&snap), span_shape(&again));
        assert_eq!(snap.counters, again.counters);
        assert_eq!(stable_gauges(&snap), stable_gauges(&again));
        let populations = |s: &Snapshot| {
            s.histograms
                .iter()
                .map(|h| (h.name.clone(), h.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(populations(&snap), populations(&again));

        // The tree covers the whole load: the ingest root, its three phases,
        // one grandchild per shard on disk, and one epoch merge per month.
        for path in ["ingest", "ingest/meta", "ingest/ct", "ingest/logs"] {
            let row = snap
                .span(path)
                .unwrap_or_else(|| panic!("span {path} missing from {:?}", span_shape(&snap)));
            assert_eq!(row.count, 1, "span {path} should run exactly once");
        }
        for shard in shards(&dir, "ssl").iter().chain(&shards(&dir, "x509")) {
            let path = format!("ingest/logs/{}", shard_name(shard));
            assert!(
                snap.span(&path).is_some_and(|r| r.count == 1),
                "per-shard span {path} missing or miscounted"
            );
        }
        assert_eq!(
            snap.span("ingest/epoch_merge").map(|r| r.count),
            Some(diag.stream.epochs_pushed as u64)
        );

        // The metrics registry and the diagnostics ledger are two views of one
        // load; they must tell the same story.
        assert_eq!(
            snap.counter("ingest.rows_parsed"),
            Some(diag.stats.rows_parsed)
        );
        assert_eq!(
            snap.counter("ingest.rows_skipped"),
            Some(diag.stats.rows_skipped)
        );
        assert_eq!(
            snap.counter("ingest.meta_entries_skipped"),
            Some(diag.meta_entries_skipped)
        );
        assert!(snap.counter("ingest.bytes_read").unwrap_or(0) > 0);
        let pushed = snap.counter("stream.ssl_rows_pushed").unwrap_or(0)
            + snap.counter("stream.x509_rows_pushed").unwrap_or(0);
        assert_eq!(pushed, diag.stats.rows_parsed);

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn span_tree_is_deterministic_across_serial_and_parallel_pipeline() {
    let sim = generate(&SimConfig {
        seed: 9104,
        scale: 0.005,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join(format!("mtlscope-equiv-pobs-{}", std::process::id()));
    sim.write_to_dir_rotated(&dir).expect("write rotated logs");
    // The analyzers run one at a time on the caller's thread (DESIGN §4
    // decision 1), so two independent instrumented runs over the same
    // inputs must record the same tree and the same metrics.
    let first_inputs = inputs(&dir);
    let second_inputs = inputs(&dir);
    std::fs::remove_dir_all(&dir).ok();

    let obs_first = Obs::new();
    let first_out = run_pipeline_obs(first_inputs, &obs_first, None);
    let obs_second = Obs::new();
    let second_out = run_pipeline_obs(second_inputs, &obs_second, None);
    assert_eq!(first_out.render_all(), second_out.render_all());

    let snap_first = obs_first.snapshot();
    let snap_second = obs_second.snapshot();

    // Identical tree shape: both runs land every analyzer span on the
    // same node.
    assert_eq!(span_shape(&snap_first), span_shape(&snap_second));
    for path in [
        "pipeline",
        "pipeline/interception_filter",
        "pipeline/corpus_build",
        "pipeline/analyze",
        "pipeline/analyze/prevalence",
        "pipeline/analyze/tracking",
        "pipeline/assemble",
    ] {
        assert!(
            snap_first.span(path).is_some_and(|r| r.count == 1),
            "pipeline span {path} missing or miscounted"
        );
    }

    // Every metric the pipeline emits is a function of the corpus, not of
    // scheduling: full counter and gauge equality, no exclusions.
    assert_eq!(snap_first.counters, snap_second.counters);
    assert_eq!(snap_first.gauges, snap_second.gauges);
}

/// One month of partitioned records, cloned so the same corpus can be
/// pushed in several different orders.
type MonthParts = (
    String,
    Vec<mtlscope::zeek::SslRecord>,
    Vec<mtlscope::zeek::X509Record>,
);

fn clone_months(months: &[MonthParts]) -> Vec<MonthParts> {
    months.to_vec()
}

#[test]
fn streamed_pipeline_is_order_independent_and_matches_batch() {
    let sim = generate(&SimConfig {
        seed: 9105,
        scale: 0.01,
        ..Default::default()
    });
    let inputs = AnalysisInputs::from_sim(sim);
    let meta = inputs.meta.clone();
    let months = partition_monthly(inputs.ssl.clone(), inputs.x509.clone());
    assert!(months.len() >= 3, "need several months to permute");

    // Serial order, reverse order, and an odd/even interleave: every push
    // order must converge to the same bytes, because the builder keys
    // epochs canonically and the aggregates are commutative monoids.
    let serial = clone_months(&months);
    let mut reversed = clone_months(&months);
    reversed.reverse();
    let mut interleaved: Vec<MonthParts> = months
        .iter()
        .skip(1)
        .step_by(2)
        .chain(months.iter().step_by(2))
        .cloned()
        .collect();
    assert_eq!(interleaved.len(), months.len());
    // Split one month into two partial pushes, too: re-pushing a live
    // epoch key must merge, not clobber.
    let (key0, ssl0, x5090) = interleaved.pop().expect("non-empty");
    let mid = ssl0.len() / 2;
    let (ssl_a, ssl_b) = (ssl0[..mid].to_vec(), ssl0[mid..].to_vec());
    interleaved.insert(0, (key0.clone(), ssl_a, x5090));
    interleaved.push((key0, ssl_b, Vec::new()));

    let mut streamed: Vec<(String, Snapshot)> = Vec::new();
    for (label, order) in [
        ("serial", serial),
        ("reversed", reversed),
        ("interleaved+split", interleaved),
    ] {
        let mut builder = CorpusBuilder::new(meta.clone());
        for (key, ssl, x509) in order {
            builder.push_epoch(&key, ssl, x509);
        }
        let parts = builder.finish();
        let obs = Obs::new();
        let pushed = parts.into_inputs(inputs.ct.clone(), inputs.gossip.clone());
        let out = run_pipeline_obs(pushed, &obs, None);
        streamed.push((out.render_all(), obs.snapshot()));
        let _ = label;
    }

    let obs_batch = Obs::new();
    let batch = run_pipeline_obs(inputs, &obs_batch, None);
    let batch_report = batch.render_all();
    let snap_batch = obs_batch.snapshot();

    for (report, snap) in &streamed {
        // Byte-identical report, whatever the push order.
        assert_eq!(report, &batch_report);
        // And the same metrics story: identical span tree shape, counter
        // totals, and gauges — the streamed corpus build is
        // indistinguishable from the batch build downstream.
        assert_eq!(span_shape(snap), span_shape(&snap_batch));
        assert_eq!(snap.counters, snap_batch.counters);
        assert_eq!(snap.gauges, snap_batch.gauges);
    }
}

#[test]
fn epoch_merge_takes_min_first_seen_and_max_last_seen() {
    let sim = generate(&SimConfig {
        seed: 9106,
        scale: 0.005,
        ..Default::default()
    });
    let inputs = AnalysisInputs::from_sim(sim);
    let months = partition_monthly(inputs.ssl.clone(), inputs.x509.clone());

    // Ground truth straight from the raw rows: per fingerprint, the
    // min/max connection timestamp over every chain that references it.
    let mut expected: std::collections::HashMap<&Fp, (f64, f64, usize)> =
        std::collections::HashMap::new();
    let mut months_seen: std::collections::HashMap<&Fp, FxHashSet<&str>> =
        std::collections::HashMap::new();
    for (key, ssl, _) in &months {
        for rec in ssl {
            for fp in rec.cert_chain_fps.iter().chain(&rec.client_cert_chain_fps) {
                let e = expected
                    .entry(fp)
                    .or_insert((f64::INFINITY, f64::NEG_INFINITY, 0));
                e.0 = e.0.min(rec.ts);
                e.1 = e.1.max(rec.ts);
                months_seen.entry(fp).or_default().insert(key);
            }
        }
    }
    let multi_month: Vec<&Fp> = months_seen
        .iter()
        .filter(|(_, m)| m.len() >= 2)
        .map(|(fp, _)| *fp)
        .collect();
    assert!(
        multi_month.len() >= 10,
        "corpus must have certs active across months, got {}",
        multi_month.len()
    );

    // Forward and reverse push orders both converge to the ground truth.
    for reverse in [false, true] {
        let mut order = clone_months(&months);
        if reverse {
            order.reverse();
        }
        let mut builder = CorpusBuilder::new(inputs.meta.clone());
        for (key, ssl, x509) in order {
            builder.push_epoch(&key, ssl, x509);
        }
        let parts = builder.finish();
        let corpus = Corpus::build(
            parts.ssl,
            parts.x509,
            parts.meta,
            &FxHashSet::default(),
            vec![],
        );
        for fp in &multi_month {
            let cert = corpus.cert(corpus.cert_by_fp(fp).expect("fp has an x509 row"));
            let (min_ts, max_ts, _) = expected[fp];
            assert_eq!(cert.first_seen, min_ts, "first_seen across months for {fp}");
            assert_eq!(cert.last_seen, max_ts, "last_seen across months for {fp}");
        }
    }
}

#[test]
fn rolling_window_equals_batch_over_the_window_months() {
    let sim = generate(&SimConfig {
        seed: 9107,
        scale: 0.01,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join(format!("mtlscope-equiv-window-{}", std::process::id()));
    sim.write_to_dir_rotated(&dir).expect("write rotated logs");

    const WINDOW: usize = 6;
    let (windowed, diag) = load_dir(&dir, IngestMode::Strict, Some(WINDOW), &Obs::noop(), None)
        .expect("windowed ingest");
    assert_eq!(diag.stream.epochs_pushed, 23);
    assert_eq!(diag.stream.epochs_retired, 23 - WINDOW);
    let windowed_report = run_pipeline(windowed).render_all();

    // Oracle: a batch run over a directory holding only the last WINDOW
    // months' shards (plus the sidecars).
    let oracle_dir = dir.with_file_name(format!(
        "{}-oracle",
        dir.file_name().unwrap().to_string_lossy()
    ));
    std::fs::create_dir_all(&oracle_dir).expect("create oracle dir");
    let keep: Vec<String> = {
        let mut months: Vec<String> = shards(&dir, "ssl")
            .iter()
            .map(|p| {
                shard_name(p)
                    .trim_start_matches("ssl.")
                    .trim_end_matches(".log")
                    .to_string()
            })
            .collect();
        months.sort();
        months.split_off(months.len() - WINDOW)
    };
    for name in ["meta.tsv", "ct.log", "ct_gossip.log"] {
        std::fs::copy(dir.join(name), oracle_dir.join(name)).expect("copy sidecar");
    }
    for month in &keep {
        for stream in ["ssl", "x509"] {
            let name = format!("{stream}.{month}.log");
            let src = dir.join(&name);
            if src.exists() {
                std::fs::copy(&src, oracle_dir.join(&name)).expect("copy shard");
            }
        }
    }
    let oracle_report = run_pipeline(inputs(&oracle_dir)).render_all();

    assert_eq!(windowed_report, oracle_report);

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&oracle_dir).ok();
}

#[test]
fn one_month_window_holds_at_most_twice_the_largest_month() {
    let sim = generate(&SimConfig {
        seed: 9109,
        scale: 0.005,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join(format!("mtlscope-equiv-one-month-{}", std::process::id()));
    sim.write_to_dir_rotated(&dir).expect("write rotated logs");

    let walk = |window| {
        load_dir(&dir, IngestMode::Strict, window, &Obs::noop(), None)
            .expect("ingest")
            .1
            .stream
    };
    let windowed = walk(Some(1));
    assert!(windowed.max_epoch_footprint_bytes > 0);
    assert!(
        windowed.peak_footprint_bytes <= 2 * windowed.max_epoch_footprint_bytes,
        "peak {} over 2x the largest month {}",
        windowed.peak_footprint_bytes,
        windowed.max_epoch_footprint_bytes
    );
    assert_eq!(windowed.epochs_pushed, 23);
    assert_eq!(windowed.epochs_retired, 22);
    // Without retirement the same walk breaks the ceiling, so the bound
    // above is one only a retiring walk meets.
    let full = walk(None);
    assert!(full.peak_footprint_bytes > 2 * full.max_epoch_footprint_bytes);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rolling_window_retires_the_oldest_months_and_tracks_the_live_ones() {
    let sim = generate(&SimConfig {
        seed: 9108,
        scale: 0.005,
        ..Default::default()
    });
    let inputs = AnalysisInputs::from_sim(sim);
    let months = partition_monthly(inputs.ssl, inputs.x509);
    assert!(months.len() >= 6, "need enough months to retire some");

    // Rolling windows of 1–3 months: retire between pushes and check the
    // live months and the retired keys after every step.
    let mut builder = CorpusBuilder::new(inputs.meta);
    let mut live: Vec<String> = Vec::new();
    let mut retirements = 0;
    for (i, (key, ssl, x509)) in months.into_iter().enumerate() {
        builder.push_epoch(&key, ssl, x509);
        live.push(key.clone());
        live.sort();
        assert_eq!(builder.live_epochs(), live, "live months @ push {key}");

        let window = 1 + i % 3;
        let expect_retired: Vec<String> = live.drain(..live.len().saturating_sub(window)).collect();
        let retired = builder.retire_outside_window(window);
        assert_eq!(retired, expect_retired, "retired @ {key}");
        retirements += retired.len();
        assert_eq!(
            builder.live_epochs(),
            live,
            "live months @ retire to {window} after {key}"
        );
    }
    assert!(retirements > 0, "the walk must exercise retirement");
}

#[test]
fn lenient_recovers_from_injected_faults_with_exact_accounting() {
    let sim = generate(&SimConfig {
        seed: 9102,
        scale: 0.005,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join(format!("mtlscope-equiv-fault-{}", std::process::id()));
    sim.write_to_dir_rotated(&dir).expect("write rotated logs");
    let clean = inputs(&dir);

    let ssl_shards = shards(&dir, "ssl");
    let x509_shards = shards(&dir, "x509");
    assert!(ssl_shards.len() >= 2 && x509_shards.len() >= 2);

    // Three row-level faults in the first ssl shard, at distinct lines and
    // of distinct kinds, plus a header corruption that must quarantine one
    // whole x509 shard.
    let hurt_ssl = &ssl_shards[0];
    let quarantined_x509 = &x509_shards[1];
    let lost_rows = {
        let f = std::fs::File::open(quarantined_x509).expect("open");
        mtlscope::zeek::read_x509_log(std::io::BufReader::new(f))
            .expect("victim shard parses before corruption")
            .len()
    };
    assert!(lost_rows > 0, "victim shard must not be empty");
    faults::truncate_line(hurt_ssl, 0);
    faults::flip_field_byte(hurt_ssl, 2);
    faults::inject_non_utf8(hurt_ssl, 4);
    faults::corrupt_header(quarantined_x509);

    // Strict aborts with the first error in walk order: the ColumnCount on
    // the first month's ssl shard's first data line, not the x509 header
    // corruption a month later.
    let strict = load(&dir, IngestMode::Strict).map(|_| ());
    let msg = strict.expect_err("strict must abort").to_string();
    assert!(msg.contains("columns"), "{msg}");

    // Lenient recovers with exact accounting.
    let (inputs, diag) = load(&dir, IngestMode::Lenient).expect("lenient ingest");
    assert_eq!(inputs.ssl.len(), clean.ssl.len() - 3);
    assert_eq!(inputs.x509.len(), clean.x509.len() - lost_rows);

    assert_eq!(diag.stats.rows_skipped, 3);
    assert_eq!(diag.stats.shards_quarantined, 1);
    assert_eq!(
        diag.stats.rows_parsed,
        (inputs.ssl.len() + inputs.x509.len()) as u64
    );

    let hurt = diag
        .stats
        .shards
        .iter()
        .find(|d| d.shard == shard_name(hurt_ssl))
        .expect("hurt shard in ledger");
    assert_eq!(hurt.skipped_of(ErrorKind::ColumnCount), 1);
    assert_eq!(hurt.skipped_of(ErrorKind::BadField), 1);
    assert_eq!(hurt.skipped_of(ErrorKind::NonUtf8), 1);
    assert_eq!(hurt.samples.len(), 3);
    // Samples arrive in line order with real positions attached.
    let kinds: Vec<ErrorKind> = hurt.samples.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        vec![
            ErrorKind::ColumnCount,
            ErrorKind::BadField,
            ErrorKind::NonUtf8
        ]
    );
    assert!(hurt.samples.windows(2).all(|w| w[0].line < w[1].line));
    assert!(hurt
        .samples
        .windows(2)
        .all(|w| w[0].byte_offset < w[1].byte_offset));

    let quarantined = diag
        .stats
        .shards
        .iter()
        .find(|d| d.quarantined.is_some())
        .expect("quarantined shard in ledger");
    assert_eq!(quarantined.shard, shard_name(quarantined_x509));
    assert_eq!(
        quarantined.quarantined.as_ref().unwrap().kind,
        ErrorKind::BadHeader
    );

    // The guard trips at zero tolerance and passes above the rate.
    assert!(diag.error_rate() > 0.0);
    assert!(diag.check_error_rate(0.0).is_err());
    assert!(diag.check_error_rate(1.0).is_ok());

    // The rendering names the damage.
    let rendered = diag.render();
    assert!(rendered.contains(&shard_name(hurt_ssl)));
    assert!(rendered.contains("quarantined"));

    std::fs::remove_dir_all(&dir).ok();
}
