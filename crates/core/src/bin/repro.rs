//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!   repro [--seed N] [--scale F] [--logs DIR] [--out FILE] [--tsv DIR]
//!         [--from-logs DIR] [--strict | --lenient]
//!         [--max-error-rate FRACTION] [--window Nmo]
//!         [--ct-legacy] [--metrics[=PATH]] [--progress] [--quiet]
//!
//! `--from-logs DIR` skips generation and analyzes an existing log
//! directory (unrotated or monthly-rotated, with meta.tsv and ct.log).
//! `--ct-legacy` discards the CT gossip evidence (ct_gossip.log) so the
//! interception filter falls back to the legacy bare-issuer comparison —
//! useful for A/B-ing the proof-carrying filter against the old one.
//! `--strict` (default) aborts on the first malformed row; `--lenient`
//! skips malformed rows and quarantines unreadable shards, printing the
//! ingest diagnostics with the report. `--max-error-rate 0.01` aborts a
//! lenient run whose skipped fraction exceeds 1%.
//!
//! Every log directory is read month by month through the `CorpusBuilder`.
//! `--window Nmo` (e.g. `--window 6mo`) keeps only the newest N months
//! live, retiring older months as the walk advances, so peak memory is
//! bounded by the window and the analysis covers exactly those months.
//! Without `--from-logs` the window applies to the generated corpus.
//!
//! Observability:
//! * `--metrics` instruments the whole run (spans, counters, histograms)
//!   and writes `metrics.json` + `metrics.tsv` — into `--tsv DIR` when
//!   given, else the current directory; `--metrics=PATH` overrides (a
//!   `*.json` path names the JSON file, anything else a directory). The
//!   run summary is also appended to the report.
//! * `--progress` prints a periodic heartbeat (elapsed time + counters)
//!   to stderr while the run is going.
//! * `--quiet` silences all status output — progress and informational
//!   lines — but never errors.
//!
//! Generates a synthetic corpus (or uses `--logs DIR` written earlier by
//! the simulator), runs the full analysis pipeline, and prints every
//! report. With `--out`, also writes the rendering to a file.

use mtls_core::{run_pipeline_obs, AnalysisInputs, CorpusBuilder, IngestMode, StreamSummary};
use mtls_netsim::{generate_obs, SimConfig};
use mtls_obs::{heartbeat, Console, Obs};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    config: SimConfig,
    logs_dir: Option<String>,
    out_file: Option<String>,
    tsv_dir: Option<String>,
    from_logs: Option<String>,
    mode: IngestMode,
    max_error_rate: Option<f64>,
    window: Option<usize>,
    ct_legacy: bool,
    /// `None` = metrics off; `Some(None)` = on, default location;
    /// `Some(Some(path))` = on, explicit location.
    metrics: Option<Option<String>>,
    progress: bool,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut config = SimConfig::default();
    let mut logs_dir = None;
    let mut out_file = None;
    let mut tsv_dir = None;
    let mut from_logs = None;
    let mut mode = IngestMode::Strict;
    let mut max_error_rate = None;
    let mut window = None;
    let mut ct_legacy = false;
    let mut metrics = None;
    let mut progress = false;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--scale" => {
                config.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a float");
                if let Err(e) = config.validate() {
                    eprintln!("--scale: {e}");
                    std::process::exit(2);
                }
            }
            "--logs" => logs_dir = args.next(),
            "--out" => out_file = args.next(),
            "--tsv" => tsv_dir = args.next(),
            "--from-logs" => from_logs = args.next(),
            "--strict" => mode = IngestMode::Strict,
            "--lenient" => mode = IngestMode::Lenient,
            "--max-error-rate" => {
                let rate: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-error-rate needs a fraction in [0, 1]");
                assert!(
                    (0.0..=1.0).contains(&rate),
                    "--max-error-rate needs a fraction in [0, 1]"
                );
                max_error_rate = Some(rate);
            }
            "--window" => {
                let spec = args
                    .next()
                    .expect("--window needs a month count (e.g. 6mo)");
                let months: usize = spec
                    .strip_suffix("mo")
                    .unwrap_or(&spec)
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .expect("--window needs a positive month count (e.g. 6mo)");
                window = Some(months);
            }
            "--ct-legacy" => ct_legacy = true,
            "--metrics" => metrics = Some(None),
            "--progress" => progress = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--seed N] [--scale F] [--logs DIR] [--out FILE] [--tsv DIR] \
                     [--from-logs DIR] [--strict | --lenient] [--max-error-rate FRACTION] \
                     [--window Nmo] [--ct-legacy] [--metrics[=PATH]] \
                     [--progress] [--quiet]"
                );
                std::process::exit(0);
            }
            other => {
                if let Some(path) = other.strip_prefix("--metrics=") {
                    metrics = Some(Some(path.to_string()));
                } else {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
    }
    Args {
        config,
        logs_dir,
        out_file,
        tsv_dir,
        from_logs,
        mode,
        max_error_rate,
        window,
        ct_legacy,
        metrics,
        progress,
        quiet,
    }
}

/// One status line for a month walk.
fn walk_summary(s: &StreamSummary) -> String {
    format!(
        "{} months pushed, {} retired, peak footprint {} MiB",
        s.epochs_pushed,
        s.epochs_retired,
        s.peak_footprint_bytes / (1024 * 1024)
    )
}

/// Where `metrics.json` and `metrics.tsv` land: an explicit `*.json` path
/// names the JSON file (the TSV goes next to it), any other explicit path
/// is a directory; with no explicit path they join the TSV export dir (so
/// the metrics sit next to `ingest_diagnostics.tsv`), else the cwd.
fn metrics_paths(args: &Args) -> Option<(PathBuf, PathBuf)> {
    let spec = args.metrics.as_ref()?;
    Some(match spec {
        Some(path) => {
            let p = PathBuf::from(path);
            if p.extension().is_some_and(|e| e == "json") {
                let tsv = p.with_file_name("metrics.tsv");
                (p, tsv)
            } else {
                (p.join("metrics.json"), p.join("metrics.tsv"))
            }
        }
        None => {
            let base = args
                .tsv_dir
                .as_deref()
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("."));
            (base.join("metrics.json"), base.join("metrics.tsv"))
        }
    })
}

fn main() {
    let args = parse_args();
    let console = Console::new(args.quiet);
    // Progress needs live counters, so either flag turns instrumentation
    // on; otherwise every obs call routes through the shared no-op handle.
    let obs = if args.metrics.is_some() || args.progress {
        Obs::new()
    } else {
        Obs::noop()
    };
    let run_span = obs.span(None, "run");
    let run_id = run_span.id();
    let hb = args
        .progress
        .then(|| heartbeat(obs.clone(), console, Duration::from_secs(2)));

    let mut ingest_diag = None;
    let mut inputs = if let Some(dir) = &args.from_logs {
        console.status(format!(
            "loading logs from {dir} ({} mode{})...",
            args.mode.label(),
            args.window
                .map(|w| format!(", window {w}mo"))
                .unwrap_or_default()
        ));
        let path = std::path::Path::new(dir);
        let (inputs, diag) =
            match mtls_core::ingest::load_dir(path, args.mode, args.window, &obs, run_id) {
                Ok(loaded) => loaded,
                Err(e) => {
                    console.error(format!("failed to load {dir}: {e}"));
                    std::process::exit(1);
                }
            };
        console.status(format!(
            "  {} connections, {} certificate rows live ({})",
            inputs.ssl.len(),
            inputs.x509.len(),
            walk_summary(&diag.stream),
        ));
        if diag.has_problems() {
            console.status(format!(
                "  skipped {} rows, quarantined {} shards, skipped {} meta entries, \
                 skipped {} ct.log lines (rate {:.6})",
                diag.stats.rows_skipped,
                diag.stats.shards_quarantined,
                diag.meta_entries_skipped,
                diag.ct_lines_skipped,
                diag.error_rate()
            ));
        }
        if let Some(max) = args.max_error_rate {
            if let Err(e) = diag.check_error_rate(max) {
                console.error(format!("aborting: {e}"));
                std::process::exit(1);
            }
        }
        ingest_diag = Some(diag);
        inputs
    } else {
        let config = &args.config;
        let t0 = std::time::Instant::now();
        console.status(format!(
            "generating corpus (seed={}, scale={})...",
            config.seed, config.scale
        ));
        let sim = generate_obs(config, &obs, run_id);
        console.status(format!(
            "  {} connections, {} unique certificates in {:?}",
            sim.ssl.len(),
            sim.x509.len(),
            t0.elapsed()
        ));
        if let Some(dir) = &args.logs_dir {
            sim.write_to_dir(std::path::Path::new(dir))
                .expect("write logs");
            console.status(format!("  Zeek-format logs written to {dir}"));
        }
        let inputs = AnalysisInputs::from_sim(sim);
        match args.window {
            // Walk the in-memory corpus month by month, exactly like a
            // rotated-directory load would.
            Some(window) => {
                let mut builder = CorpusBuilder::new(inputs.meta).with_obs(&obs, run_id);
                builder.push_records(inputs.ssl, inputs.x509, Some(window));
                let parts = builder.finish();
                console.status(format!("  {}", walk_summary(&parts.summary)));
                parts.into_inputs(inputs.ct, inputs.gossip)
            }
            None => inputs,
        }
    };
    // --ct-legacy: drop the gossip evidence so the pipeline takes the
    // legacy bare-issuer interception path.
    if args.ct_legacy {
        inputs.gossip = mtls_pki::GossipBundle::default();
    }

    let t1 = std::time::Instant::now();
    console.status("running analysis pipeline...");
    let output = run_pipeline_obs(inputs, &obs, run_id);
    console.status(format!("  analyzed in {:?}", t1.elapsed()));

    if let Some(dir) = &args.tsv_dir {
        let dir_path = std::path::Path::new(dir);
        mtls_core::export::write_tsv_obs(&output, dir_path, &obs, run_id).expect("write TSVs");
        if let Some(diag) = &ingest_diag {
            mtls_core::export::write_ingest_tsv(diag, dir_path).expect("write ingest TSV");
        }
        console.status(format!("per-experiment TSVs written to {dir}"));
    }

    let mut rendering = String::new();
    // The ledger (which carries wall times) goes into the report only for
    // lenient loads; the default strict path stays byte-identical to the
    // generation path so round-trip checks keep working — unless metrics
    // were requested, in which case the stage timings (and nothing else:
    // a strict load that finished is clean) join the report.
    if let Some(diag) = &ingest_diag {
        if diag.mode == IngestMode::Lenient {
            rendering.push_str(&diag.render());
            rendering.push('\n');
        } else if args.metrics.is_some() {
            rendering.push_str(&diag.render_stage_times());
            rendering.push('\n');
        }
    }
    rendering.push_str(&output.render_all());

    // Close the run span, stop the heartbeat, and sink the metrics. The
    // snapshot happens after the root span closes so `run` carries the
    // end-to-end wall time every other span is compared against.
    drop(hb);
    run_span.finish();
    if let Some((json_path, tsv_path)) = metrics_paths(&args) {
        let snap = obs.snapshot();
        rendering.push_str(&snap.render_summary());
        rendering.push('\n');
        if let Some(parent) = json_path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).expect("create metrics dir");
        }
        std::fs::write(&json_path, snap.to_json()).expect("write metrics.json");
        std::fs::write(&tsv_path, snap.to_tsv()).expect("write metrics.tsv");
        console.status(format!(
            "metrics written to {} and {}",
            json_path.display(),
            tsv_path.display()
        ));
    }

    println!("{rendering}");
    if let Some(path) = args.out_file {
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(rendering.as_bytes()).expect("write output");
        console.status(format!("report written to {path}"));
    }
}
