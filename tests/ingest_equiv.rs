//! Sharded-ingest equivalence: the parallel directory loader must be an
//! observationally exact replacement for the serial one — same records,
//! same corpus, byte-identical rendered report — on a realistic rotated
//! (23-month) log directory. On a clean corpus the lenient loader must be
//! observationally identical to the strict one; on a fault-injected corpus
//! it must recover with exact, fully-accounted skip counts while strict
//! keeps its first-error-in-shard-order contract.

use mtlscope::core::ingest::{
    load_dir_obs, load_dir_serial_obs, load_dir_serial_with, load_dir_streaming_obs,
    IngestDiagnostics, IngestError, StreamOptions,
};
use mtlscope::core::testutil::faults;
use mtlscope::core::{
    run_pipeline, run_pipeline_obs, run_pipeline_parallel_obs, run_pipeline_streamed_parallel_obs,
    AnalysisInputs, Corpus, CorpusBuilder, IngestMode,
};
use mtlscope::intern::{FxHashSet, Interner};
use mtlscope::netsim::{generate, SimConfig, SimOutput};
use mtlscope::obs::{Obs, Snapshot};
use mtlscope::zeek::{partition_monthly, ErrorKind};
use std::path::{Path, PathBuf};

/// What a batch loader returns.
type Loaded = Result<(AnalysisInputs, IngestDiagnostics), IngestError>;

/// The pooled loader, unobserved.
fn pooled(dir: &Path, mode: IngestMode) -> Loaded {
    load_dir_obs(dir, mode, &Obs::noop(), None)
}

/// A strict load's inputs, through the pooled or the serial loader.
fn inputs(load: fn(&Path, IngestMode) -> Loaded, dir: &Path) -> AnalysisInputs {
    load(dir, IngestMode::Strict).expect("strict ingest").0
}

/// The two on-disk layouts every loader reads: the flat `ssl.log` /
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
fn sharded_ingest_equals_serial_ingest_byte_for_byte() {
    let sim = generate(&SimConfig {
        seed: 9099,
        scale: 0.01,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join(format!("mtlscope-equiv-{}", std::process::id()));
    sim.write_to_dir_rotated(&dir).expect("write rotated logs");

    let sharded = inputs(pooled, &dir);
    let serial = inputs(load_dir_serial_with, &dir);

    // Inputs agree field-for-field…
    assert_eq!(sharded.ssl, serial.ssl);
    assert_eq!(sharded.x509, serial.x509);
    assert_eq!(sharded.ct.len(), serial.ct.len());

    // …and the full analysis over them renders byte-identically,
    // regardless of which pipeline entrypoint consumes which ingest.
    let from_sharded = run_pipeline_parallel_obs(sharded, &Obs::noop(), None);
    let from_serial = run_pipeline(serial);
    assert_eq!(from_sharded.render_all(), from_serial.render_all());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_ingest_handles_unrotated_layout_too() {
    let sim = generate(&SimConfig {
        seed: 9100,
        scale: 0.005,
        ..Default::default()
    });
    for layout in LAYOUTS {
        let dir =
            std::env::temp_dir().join(format!("mtlscope-equiv-{layout}-{}", std::process::id()));
        write_layout(&sim, &dir, layout);

        // All three loaders over the same directory: the shard pool, the
        // serial reference, and the month-by-month streaming walk (whose
        // flat-layout branch reads the pair whole and partitions it).
        let (sharded, sharded_diag) = pooled(&dir, IngestMode::Strict).expect("pooled ingest");
        let (serial, serial_diag) =
            load_dir_serial_with(&dir, IngestMode::Strict).expect("serial ingest");
        let (parts, ct, gossip, stream_diag) = load_dir_streaming_obs(
            &dir,
            IngestMode::Strict,
            StreamOptions::default(),
            &Obs::noop(),
            None,
        )
        .expect("streaming ingest");
        // Every loader's report is the serial pipeline's, byte for byte.
        let oracle = run_pipeline(serial).render_all();
        for report in [
            run_pipeline_parallel_obs(sharded, &Obs::noop(), None).render_all(),
            run_pipeline_streamed_parallel_obs(parts, &ct, &gossip, &Obs::noop(), None)
                .render_all(),
        ] {
            assert!(report == oracle, "{layout}: report differs from serial");
        }

        // And the same accounting: rows, bytes and the files read (the
        // streaming walk reads them month by month, hence the sort).
        let accounting = |d: &IngestDiagnostics| {
            let mut names: Vec<&str> = d.stats.shards.iter().map(|s| s.shard.as_str()).collect();
            names.sort_unstable();
            (d.stats.rows_parsed, d.stats.bytes_read, names.join(" "))
        };
        assert_eq!(accounting(&sharded_diag), accounting(&serial_diag));
        assert_eq!(accounting(&stream_diag), accounting(&serial_diag));
        let files = if layout == "flat" { 2 } else { 46 };
        assert_eq!(serial_diag.stats.shards.len(), files, "{layout}");

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

    let (strict, strict_diag) = pooled(&dir, IngestMode::Strict).expect("strict ingest");
    let (lenient, lenient_diag) = pooled(&dir, IngestMode::Lenient).expect("lenient ingest");
    let (lenient_serial, serial_diag) =
        load_dir_serial_with(&dir, IngestMode::Lenient).expect("lenient serial ingest");

    // Identical inputs, both against the strict parallel loader and
    // between the lenient parallel and serial paths.
    assert_eq!(strict.ssl, lenient.ssl);
    assert_eq!(strict.x509, lenient.x509);
    assert_eq!(lenient.ssl, lenient_serial.ssl);
    assert_eq!(lenient.x509, lenient_serial.x509);

    // A clean corpus produces zero skips in every ledger, and passes even
    // the tightest error-rate guard.
    for diag in [&strict_diag, &lenient_diag, &serial_diag] {
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
        run_pipeline_parallel_obs(strict, &Obs::noop(), None).render_all(),
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

/// Gauges with the duration-derived rates removed (`*_per_sec` is computed
/// from wall time, so it legitimately differs between runs).
fn stable_gauges(snap: &Snapshot) -> Vec<(String, i64)> {
    snap.gauges
        .iter()
        .filter(|(name, _)| !name.ends_with("_per_sec"))
        .cloned()
        .collect()
}

#[test]
fn span_tree_is_deterministic_across_serial_and_sharded_ingest() {
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

        let obs_sharded = Obs::new();
        let (sharded, sharded_diag) =
            load_dir_obs(&dir, IngestMode::Strict, &obs_sharded, None).expect("sharded ingest");
        let obs_serial = Obs::new();
        let (serial, serial_diag) =
            load_dir_serial_obs(&dir, IngestMode::Strict, &obs_serial, None)
                .expect("serial ingest");
        assert_eq!(sharded.ssl, serial.ssl);
        assert_eq!(sharded.x509, serial.x509);

        let snap_sharded = obs_sharded.snapshot();
        let snap_serial = obs_serial.snapshot();

        // The racing worker pool must aggregate onto the exact tree the serial
        // loader builds: same paths, same nesting, same per-node counts.
        assert_eq!(span_shape(&snap_sharded), span_shape(&snap_serial));

        // The tree covers the whole load: the ingest root, its three phases,
        // and one grandchild per shard on disk.
        for path in ["ingest", "ingest/meta", "ingest/ct", "ingest/logs"] {
            let row = snap_sharded.span(path).unwrap_or_else(|| {
                panic!("span {path} missing from {:?}", span_shape(&snap_sharded))
            });
            assert_eq!(row.count, 1, "span {path} should run exactly once");
        }
        for shard in shards(&dir, "ssl").iter().chain(&shards(&dir, "x509")) {
            let path = format!("ingest/logs/{}", shard_name(shard));
            assert!(
                snap_sharded.span(&path).is_some_and(|r| r.count == 1),
                "per-shard span {path} missing or miscounted"
            );
        }

        // Counter totals are exactly equal — the batched per-shard adds commute.
        assert_eq!(snap_sharded.counters, snap_serial.counters);
        // Gauges agree too, once the wall-time-derived throughput rates are
        // set aside; histograms agree on population (bucket placement is a
        // function of shard latency, which is the one thing allowed to vary).
        assert_eq!(stable_gauges(&snap_sharded), stable_gauges(&snap_serial));
        assert_eq!(
            snap_sharded
                .histograms
                .iter()
                .map(|h| (h.name.clone(), h.count))
                .collect::<Vec<_>>(),
            snap_serial
                .histograms
                .iter()
                .map(|h| (h.name.clone(), h.count))
                .collect::<Vec<_>>()
        );

        // The metrics registry and the diagnostics ledger are two views of one
        // load; they must tell the same story.
        for (snap, diag) in [(&snap_sharded, &sharded_diag), (&snap_serial, &serial_diag)] {
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
        }

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
    let for_parallel = inputs(pooled, &dir);
    let for_serial = inputs(pooled, &dir);
    std::fs::remove_dir_all(&dir).ok();

    let obs_parallel = Obs::new();
    let parallel_out = run_pipeline_parallel_obs(for_parallel, &obs_parallel, None);
    let obs_serial = Obs::new();
    let serial_out = run_pipeline_obs(for_serial, &obs_serial, None);
    assert_eq!(parallel_out.render_all(), serial_out.render_all());

    let snap_parallel = obs_parallel.snapshot();
    let snap_serial = obs_serial.snapshot();

    // Identical tree shape: both entry points land every analyzer span on
    // the same node.
    assert_eq!(span_shape(&snap_parallel), span_shape(&snap_serial));
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
            snap_parallel.span(path).is_some_and(|r| r.count == 1),
            "pipeline span {path} missing or miscounted"
        );
    }

    // Every metric the pipeline emits is a function of the corpus, not of
    // scheduling: full counter and gauge equality, no exclusions.
    assert_eq!(snap_parallel.counters, snap_serial.counters);
    assert_eq!(snap_parallel.gauges, snap_serial.gauges);
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
        let out = run_pipeline_streamed_parallel_obs(parts, &inputs.ct, &inputs.gossip, &obs, None);
        streamed.push((out.render_all(), obs.snapshot()));
        let _ = label;
    }

    let obs_batch = Obs::new();
    let batch = run_pipeline_parallel_obs(inputs, &obs_batch, None);
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
    let mut expected: std::collections::HashMap<&str, (f64, f64, usize)> =
        std::collections::HashMap::new();
    let mut months_seen: std::collections::HashMap<&str, FxHashSet<&str>> =
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
    let multi_month: Vec<&str> = months_seen
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
            Interner::new(),
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
    let (parts, ct, gossip, _diag) = load_dir_streaming_obs(
        &dir,
        IngestMode::Strict,
        StreamOptions {
            window_months: Some(WINDOW),
        },
        &Obs::noop(),
        None,
    )
    .expect("windowed streaming ingest");
    assert_eq!(parts.summary.epochs_pushed, 23);
    assert_eq!(parts.summary.epochs_retired, 23 - WINDOW);
    let windowed_report =
        run_pipeline_streamed_parallel_obs(parts, &ct, &gossip, &Obs::noop(), None).render_all();

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
    let oracle = inputs(pooled, &oracle_dir);
    let oracle_report = run_pipeline_parallel_obs(oracle, &Obs::noop(), None).render_all();

    assert_eq!(windowed_report, oracle_report);

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&oracle_dir).ok();
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
    let clean = inputs(pooled, &dir);

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

    // Strict aborts, and the parallel loader reports the same first error
    // (in serial shard order: the ColumnCount on the first ssl shard's
    // first data line, not the x509 header corruption further along).
    let strict_par = pooled(&dir, IngestMode::Strict).map(|_| ());
    let strict_ser = load_dir_serial_with(&dir, IngestMode::Strict).map(|_| ());
    let par_msg = strict_par.expect_err("strict must abort").to_string();
    let ser_msg = strict_ser.expect_err("strict must abort").to_string();
    assert_eq!(par_msg, ser_msg);
    assert!(par_msg.contains("columns"), "{par_msg}");

    // Lenient recovers: both paths, identical records, exact accounting.
    for loader in [pooled, load_dir_serial_with] {
        let (inputs, diag) = loader(&dir, IngestMode::Lenient).expect("lenient ingest");
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
    }

    std::fs::remove_dir_all(&dir).ok();
}
