//! Month-walk ingest smoke: proves the rolling-window claims at scale and
//! regenerates the `streaming` section of `BENCH_ingest.json` (gated by
//! `ci/check_bench.py --ingest`).
//!
//! Three claims, each measured in its own *child process* so every arm
//! reports a clean per-process peak RSS (`VmHWM` is a high-water mark; a
//! shared process would smear the batch arm's peak over the windowed
//! arm):
//!
//! 1. **Identity** — two full-window loads of the same rotated fixture,
//!    the `batch` and `stream-full` arms, each in its own process, render
//!    byte-identical reports (sha256 of `PipelineOutput::render_all`). Both
//!    run the one loader, so this pins cross-process determinism at scale.
//! 2. **Bounded memory** — with `--window 1mo` the builder's peak
//!    retained-heap estimate stays ≤ 2× the largest single month's
//!    footprint (deterministic, environment-independent), and the
//!    process peak RSS stays ≤ 2× the RSS of a batch run over the
//!    largest single month (the paper-scale "1-month footprint").
//! 3. **Scale** — the fixture is generated at ≥ 10× the committed bench
//!    fixture's scale (`--quick`: 10×, full: 100×).
//!
//! Usage: `stream_smoke [--quick] [OUT_JSON]` (default
//! `bench-ingest-fresh.json`). Children are invoked internally as
//! `stream_smoke --phase <gen|batch|stream-full|stream-window> DIR [ARG]`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use mtls_core::{load_dir, run_pipeline_obs, IngestMode};
use mtls_crypto::{hex, sha256};
use mtls_netsim::{generate, SimConfig};
use mtls_obs::{read_self_rss, Obs};

/// Scale of the committed `BENCH_ingest.json` fixture; the smoke runs at
/// a multiple of this (claim 3).
const FIXTURE_SCALE: f64 = 0.05;
const SEED: u64 = 11;

fn peak_rss_bytes() -> u64 {
    read_self_rss().map(|s| s.peak_rss_bytes).unwrap_or(0)
}

fn report_sha(report: &str) -> String {
    hex::encode(&sha256(report.as_bytes()))
}

// ---------------------------------------------------------------------
// Child phases. Each prints exactly one `RESULT {...}` line on stdout.
// ---------------------------------------------------------------------

fn phase_gen(dir: &Path, scale: f64) {
    let cfg = SimConfig {
        seed: SEED,
        scale,
        ..SimConfig::default()
    };
    let out = generate(&cfg);
    let (ssl_rows, x509_rows) = (out.ssl.len(), out.x509.len());
    out.write_to_dir_rotated(dir).expect("write fixture");
    let bytes: u64 = std::fs::read_dir(dir)
        .expect("read fixture dir")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    println!("RESULT {{\"ssl_rows\":{ssl_rows},\"x509_rows\":{x509_rows},\"bytes\":{bytes}}}");
}

/// Load `dir` (the newest `window` months, or all of them), run the
/// pipeline and report wall time, peak RSS, report sha and the walk.
fn phase_load(dir: &Path, window: Option<usize>) {
    let obs = Obs::noop();
    let t = Instant::now();
    let (inputs, diag) = load_dir(dir, IngestMode::Strict, window, &obs, None).expect("load");
    let summary = diag.stream;
    let out = run_pipeline_obs(inputs, &obs, None);
    let wall_ms = t.elapsed().as_millis();
    let sha = report_sha(&out.render_all());
    println!(
        "RESULT {{\"wall_ms\":{wall_ms},\"peak_rss_bytes\":{},\"report_sha\":\"{sha}\",\
         \"peak_footprint_bytes\":{},\"max_epoch_footprint_bytes\":{},\
         \"epochs_pushed\":{},\"epochs_retired\":{}}}",
        peak_rss_bytes(),
        summary.peak_footprint_bytes,
        summary.max_epoch_footprint_bytes,
        summary.epochs_pushed,
        summary.epochs_retired,
    );
}

// ---------------------------------------------------------------------
// Parent: orchestrate phases, assemble the JSON.
// ---------------------------------------------------------------------

fn run_phase(exe: &Path, args: &[&str]) -> String {
    let out = Command::new(exe)
        .arg("--phase")
        .args(args)
        .output()
        .expect("spawn phase");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        panic!("phase {args:?} failed: {}", out.status);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("RESULT "))
        .unwrap_or_else(|| panic!("phase {args:?} printed no RESULT line"))
        .to_string()
}

/// Minimal field extraction from the flat one-line JSON the phases print.
fn ju64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &json[json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len()..];
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {json}"))
}

fn jstr<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    let end = json[start..].find('"').expect("unterminated string") + start;
    &json[start..end]
}

/// Copy the largest month's shards (by ssl shard size) plus the meta
/// sidecars into a sibling dir — the "1-month footprint" reference.
fn build_one_month_dir(fixture: &Path) -> (PathBuf, String) {
    let mut best: Option<(String, u64)> = None;
    for entry in std::fs::read_dir(fixture).expect("read fixture dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(month) = name
            .strip_prefix("ssl.")
            .and_then(|n| n.strip_suffix(".log"))
        {
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if best.as_ref().is_none_or(|(_, l)| len > *l) {
                best = Some((month.to_string(), len));
            }
        }
    }
    let (month, _) = best.expect("no monthly ssl shards in fixture");
    let dir = fixture.with_file_name(format!(
        "{}-month1",
        fixture.file_name().unwrap().to_string_lossy()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create month dir");
    for name in [
        format!("ssl.{month}.log"),
        format!("x509.{month}.log"),
        "meta.tsv".to_string(),
        "ct.log".to_string(),
    ] {
        let src = fixture.join(&name);
        if src.exists() {
            std::fs::copy(&src, dir.join(&name)).expect("copy shard");
        }
    }
    (dir, month)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    // Child dispatch.
    if args.get(1).map(String::as_str) == Some("--phase") {
        let phase = args.get(2).expect("--phase needs a name").as_str();
        let dir = PathBuf::from(args.get(3).expect("--phase needs DIR"));
        match phase {
            "gen" => phase_gen(&dir, args[4].parse().expect("bad scale")),
            "batch" | "stream-full" => phase_load(&dir, None),
            "stream-window" => phase_load(&dir, Some(args[4].parse().expect("bad window"))),
            other => panic!("unknown phase {other}"),
        }
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "bench-ingest-fresh.json".to_string());
    let scale_factor: f64 = if quick { 10.0 } else { 100.0 };
    let scale = FIXTURE_SCALE * scale_factor;
    let cpu_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let exe = std::env::current_exe().expect("current_exe");

    let fixture = std::env::temp_dir().join(format!(
        "mtls_stream_smoke_{}x",
        scale_factor.round() as u64
    ));
    let _ = std::fs::remove_dir_all(&fixture);
    std::fs::create_dir_all(&fixture).expect("create fixture dir");
    let fixture_str = fixture.to_string_lossy().into_owned();

    eprintln!("stream_smoke: generating fixture at scale {scale} ({scale_factor}x bench fixture)");
    let gen = run_phase(&exe, &["gen", &fixture_str, &scale.to_string()]);
    let (one_month_dir, largest_month) = build_one_month_dir(&fixture);
    let one_month_str = one_month_dir.to_string_lossy().into_owned();

    eprintln!("stream_smoke: batch arm");
    let batch = run_phase(&exe, &["batch", &fixture_str]);
    eprintln!("stream_smoke: stream-full arm");
    let sfull = run_phase(&exe, &["stream-full", &fixture_str]);
    eprintln!("stream_smoke: stream-window arm (--window 1mo)");
    let swin = run_phase(&exe, &["stream-window", &fixture_str, "1"]);
    eprintln!("stream_smoke: 1-month reference arm ({largest_month})");
    let month1 = run_phase(&exe, &["batch", &one_month_str]);

    let identical = jstr(&batch, "report_sha") == jstr(&sfull, "report_sha");
    let footprint_ratio = ratio(
        ju64(&swin, "peak_footprint_bytes"),
        ju64(&swin, "max_epoch_footprint_bytes"),
    );
    let rss_ratio = ratio(
        ju64(&swin, "peak_rss_bytes"),
        ju64(&month1, "peak_rss_bytes"),
    );
    let batch_over_windowed = ratio(
        ju64(&batch, "peak_rss_bytes"),
        ju64(&swin, "peak_rss_bytes"),
    );

    let json = format!(
        r#"{{
  "bench": "stream_smoke",
  "command": "cargo run --release -p mtls-bench --bin stream_smoke -- {mode_flag}{out_path}",
  "fixture": {{
    "layout": "rotated (ssl.YYYY-MM.log / x509.YYYY-MM.log + meta.tsv + ct.log)",
    "seed": {SEED},
    "scale": {scale},
    "scale_factor_vs_bench_fixture": {scale_factor},
    "ssl_rows": {ssl_rows},
    "x509_rows": {x509_rows},
    "size_bytes": {bytes}
  }},
  "environment": {{
    "cpu_cores": {cpu_cores},
    "note": "peak RSS is per-process VmHWM; each arm runs in its own child process",
    "variance_note": "footprint ratios are deterministic; RSS and wall times vary with the host"
  }},
  "streaming": {{
    "months": {months},
    "largest_month": "{largest_month}",
    "report_identity": {{
      "batch_sha256": "{batch_sha}",
      "stream_full_sha256": "{stream_sha}",
      "identical": {identical}
    }},
    "footprint": {{
      "windowed_peak_bytes": {win_peak_fp},
      "max_epoch_bytes": {max_epoch_fp},
      "ratio_peak_over_max_epoch": {footprint_ratio:.4},
      "full_stream_peak_bytes": {full_peak_fp}
    }},
    "rss": {{
      "batch_full_bytes": {batch_rss},
      "stream_full_bytes": {sfull_rss},
      "windowed_bytes": {swin_rss},
      "one_month_bytes": {month1_rss},
      "ratio_windowed_over_one_month": {rss_ratio:.4},
      "ratio_batch_over_windowed": {batch_over_windowed:.4}
    }},
    "wall_ms": {{
      "batch": {batch_wall},
      "stream_full": {sfull_wall},
      "stream_windowed": {swin_wall}
    }},
    "windowed_epochs_retired": {retired}
  }}
}}
"#,
        mode_flag = if quick { "--quick " } else { "" },
        ssl_rows = ju64(&gen, "ssl_rows"),
        x509_rows = ju64(&gen, "x509_rows"),
        bytes = ju64(&gen, "bytes"),
        months = ju64(&sfull, "epochs_pushed"),
        batch_sha = jstr(&batch, "report_sha"),
        stream_sha = jstr(&sfull, "report_sha"),
        win_peak_fp = ju64(&swin, "peak_footprint_bytes"),
        max_epoch_fp = ju64(&swin, "max_epoch_footprint_bytes"),
        full_peak_fp = ju64(&sfull, "peak_footprint_bytes"),
        batch_rss = ju64(&batch, "peak_rss_bytes"),
        sfull_rss = ju64(&sfull, "peak_rss_bytes"),
        swin_rss = ju64(&swin, "peak_rss_bytes"),
        month1_rss = ju64(&month1, "peak_rss_bytes"),
        batch_wall = ju64(&batch, "wall_ms"),
        sfull_wall = ju64(&sfull, "wall_ms"),
        swin_wall = ju64(&swin, "wall_ms"),
        retired = ju64(&swin, "epochs_retired"),
    );
    std::fs::write(&out_path, &json).expect("write bench json");

    println!(
        "stream_smoke: scale {scale_factor}x | identical={identical} | \
         footprint peak/max-epoch {footprint_ratio:.2}x | \
         rss windowed/one-month {rss_ratio:.2}x | batch/windowed rss {batch_over_windowed:.2}x | \
         wrote {out_path}"
    );
    assert!(identical, "streaming report diverged from batch");
}
