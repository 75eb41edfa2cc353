#!/usr/bin/env python3
"""CI perf-regression gate: compares a fresh `perf_smoke` report against
the committed baseline (BENCH_speed.json) and fails on regression.

Two layers of gating:

1. **Environment-independent ratios** — each fast path is measured against
   its in-tree reference twin in the same process (SWAR vs scalar scan,
   dispatched vs scalar SHA-256 core), so the ratio must hold on any
   box. A fast path dropping below its floor means the optimization
   stopped working. A floor may also be tied to a flag the
   report records under `environment` (`sha_ni`): it gates only on hosts
   that have the feature.
2. **Absolute medians vs baseline** — only when the fresh report's
   cpu_cores matches the committed baseline's (same class of box), with a
   generous noise band: this container shows +/-10-40% run-to-run noise,
   so only a sustained collapse (beyond NOISE_BAND) fails.

Usage: check_bench.py FRESH_JSON [BASELINE_JSON]
       (BASELINE_JSON defaults to BENCH_speed.json in the repo root)
       check_bench.py --ingest FRESH_JSON [BASELINE_JSON]
       (streaming-ingest gate over a `stream_smoke` report;
        BASELINE_JSON defaults to BENCH_ingest.json in the repo root)
       check_bench.py --serve FRESH_JSON [BASELINE_JSON]
       (mTLS serve gate over a `serve_smoke` report;
        BASELINE_JSON defaults to BENCH_serve.json in the repo root)
"""
import json
import os
import sys

# Absolute throughput may drop this factor below baseline before failing
# (covers the box's documented +/-40% noise with margin).
NOISE_BAND = 0.50
# Ratio floors: fast path vs its in-process reference twin. These are far
# below the observed speedups (count ~3x, split ~1.5x)
# but above 1/noise, so a genuinely undone optimization trips them.
# dispatch_speedup_vs_scalar is the dispatched SHA-256 one-shot over the
# scalar core's: ~1.0 by construction on a host without SHA-NI (the
# dispatcher runs the same scalar core), so 0.9 there only catches a
# dispatcher that costs more than it routes; on a SHA-NI host it
# measures 4-5x, so the 2.0 floor trips if the NI core stops being taken.
RATIO_FLOORS = {
    ("scan_mb_per_s", "speedup_count"): 1.5,
    ("scan_mb_per_s", "speedup_split"): 1.1,
    ("sha256_mb_per_s", "dispatch_speedup_vs_scalar"): 0.9,
}
# Floors that hold only where the report's environment flag is true.
FEATURE_RATIO_FLOORS = {
    ("sha256_mb_per_s", "dispatch_speedup_vs_scalar"): ("sha_ni", 2.0),
}
# Absolute medians compared against baseline (higher is better).
THROUGHPUT_KEYS = [
    ("scan_mb_per_s", "swar_count_newlines"),
    ("scan_mb_per_s", "swar_split_tabs"),
    ("sha256_mb_per_s", "dispatched"),
    ("hex_mb_per_s", "encode"),
    ("hex_mb_per_s", "decode"),
]
# Absolute medians compared against baseline (lower is better).
TIME_KEYS = [
    ("ingest_ms", "end_to_end_median"),
    ("ingest_ms", "parse_component_median"),
]

# --- Streaming-ingest gate (`--ingest`, stream_smoke reports) ---------
# Acceptance ceiling: a `--window 1mo` walk must hold peak memory within
# 2x of the 1-month footprint. The builder's retained-heap estimate is
# deterministic (exact same bytes on any box); the OS-reported RSS ratio
# is measured within one run (windowed arm vs 1-month batch arm on the
# same host), so it too travels across environments — the pre-retire
# walk holds it near 1.5x, leaving real margin under the ceiling.
FOOTPRINT_RATIO_CEILING = 2.0
RSS_RATIO_CEILING = 2.0
# Claim 3 of the bench: the proof must run at >= 10x the committed bench
# fixture's scale (quick mode runs exactly 10x).
MIN_SCALE_FACTOR = 10.0

# --- mTLS serve gate (`--serve`, serve_smoke reports) -----------------
# The serve issue's acceptance floor: the bench client must sustain at
# least this many round trips per second on the pure ping workload (the
# record-layer + framing floor; the verdict workload runs 2-4x slower
# and is gated against the baseline, not an absolute floor). The box
# measures 60-110k, so 10k only trips on a structural collapse.
MIN_SERVE_PING_RPS = 10_000.0


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def get(report, section, key, path):
    try:
        return float(report[section][key])
    except (KeyError, TypeError, ValueError):
        fail(f"{path}: missing or non-numeric {section}.{key}")


def main(fresh_path, baseline_path):
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    for report, path in [(fresh, fresh_path), (baseline, baseline_path)]:
        for section in ("environment", "scan_mb_per_s", "sha256_mb_per_s",
                        "hex_mb_per_s", "ingest_ms"):
            if section not in report:
                fail(f"{path}: missing section {section!r}")

    # Layer 1: environment-independent ratios.
    for (section, key), floor in RATIO_FLOORS.items():
        val = get(fresh, section, key, fresh_path)
        if val < floor:
            fail(f"{section}.{key} = {val:.2f} below floor {floor} — the "
                 f"fast path lost to its in-process reference twin")
    ratio_gates = len(RATIO_FLOORS)
    for (section, key), (flag, floor) in FEATURE_RATIO_FLOORS.items():
        if fresh["environment"].get(flag) is not True:
            continue
        ratio_gates += 1
        val = get(fresh, section, key, fresh_path)
        if val < floor:
            fail(f"{section}.{key} = {val:.2f} below floor {floor} on a "
                 f"host with environment.{flag} — the accelerated core is "
                 f"not being taken")

    # Layer 2: absolute medians, same-environment only.
    fresh_cores = fresh["environment"].get("cpu_cores")
    base_cores = baseline["environment"].get("cpu_cores")
    if fresh_cores != base_cores:
        print(f"check_bench: skipping absolute comparison "
              f"(cpu_cores {fresh_cores} != baseline {base_cores}); "
              f"ratio gates passed")
        return
    compared = 0
    for section, key in THROUGHPUT_KEYS:
        got = get(fresh, section, key, fresh_path)
        want = get(baseline, section, key, baseline_path)
        if got < want * NOISE_BAND:
            fail(f"{section}.{key}: {got:.1f} MB/s < {NOISE_BAND:.0%} of "
                 f"baseline {want:.1f} MB/s")
        compared += 1
    for section, key in TIME_KEYS:
        got = get(fresh, section, key, fresh_path)
        want = get(baseline, section, key, baseline_path)
        if got > want / NOISE_BAND:
            fail(f"{section}.{key}: {got:.2f} ms > {1 / NOISE_BAND:.1f}x "
                 f"baseline {want:.2f} ms")
        compared += 1

    print(f"check_bench: ok — {ratio_gates} ratio gates, "
          f"{compared} absolute medians within the {NOISE_BAND:.0%} noise "
          f"band of {os.path.basename(baseline_path)}")


def getf(report, path, *keys):
    """Fetch a float at a nested key path, failing with the JSON path."""
    node = report
    for key in keys:
        try:
            node = node[key]
        except (KeyError, TypeError):
            fail(f"{path}: missing {'.'.join(keys)}")
    try:
        return float(node)
    except (TypeError, ValueError):
        fail(f"{path}: non-numeric {'.'.join(keys)}")


def main_ingest(fresh_path, baseline_path):
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)
    # The committed BENCH_ingest.json keeps the stream_smoke report under
    # "streaming_bench" (its other sections describe the original PR1
    # fixture); a fresh stream_smoke report is the subtree itself.
    fresh = fresh.get("streaming_bench", fresh)
    baseline = baseline.get("streaming_bench", baseline)

    for report, path in [(fresh, fresh_path), (baseline, baseline_path)]:
        for section in ("fixture", "environment", "streaming"):
            if section not in report:
                fail(f"{path}: missing section {section!r}")

    # Gate 1: two full-window loads, each in its own process, must render
    # byte-identical reports.
    ident = fresh["streaming"].get("report_identity", {})
    if ident.get("identical") is not True:
        fail(f"streaming report diverged from batch: "
             f"batch={ident.get('batch_sha256')} "
             f"stream={ident.get('stream_full_sha256')}")

    # Gate 2: the proof ran at scale.
    factor = getf(fresh, fresh_path, "fixture",
                  "scale_factor_vs_bench_fixture")
    if factor < MIN_SCALE_FACTOR:
        fail(f"fixture.scale_factor_vs_bench_fixture = {factor:g} below "
             f"the {MIN_SCALE_FACTOR:g}x minimum — not a proof at scale")

    # Gate 3: bounded memory, deterministic layer. The builder's
    # retained-heap estimate is exact arithmetic over the fixture bytes.
    fp_ratio = getf(fresh, fresh_path, "streaming", "footprint",
                    "ratio_peak_over_max_epoch")
    if fp_ratio > FOOTPRINT_RATIO_CEILING:
        fail(f"streaming.footprint.ratio_peak_over_max_epoch = "
             f"{fp_ratio:.2f} above the {FOOTPRINT_RATIO_CEILING}x "
             f"ceiling — the rolling window stopped bounding memory")

    # Gate 4: bounded memory, OS layer. Windowed peak RSS vs the
    # 1-month batch arm, both measured in the same run on the same host.
    rss_ratio = getf(fresh, fresh_path, "streaming", "rss",
                     "ratio_windowed_over_one_month")
    if rss_ratio > RSS_RATIO_CEILING:
        fail(f"streaming.rss.ratio_windowed_over_one_month = "
             f"{rss_ratio:.2f} above the {RSS_RATIO_CEILING}x ceiling — "
             f"windowed streaming no longer holds the 1-month footprint")

    # Absolute medians vs baseline: only meaningful on the same class of
    # box AND the same fixture scale (wall times grow with the fixture).
    cores = fresh["environment"].get("cpu_cores")
    base_cores = baseline["environment"].get("cpu_cores")
    fresh_scale = fresh["fixture"].get("scale")
    base_scale = baseline["fixture"].get("scale")
    if cores != base_cores or fresh_scale != base_scale:
        print(f"check_bench[ingest]: skipping absolute comparison "
              f"(cpu_cores {cores} vs {base_cores}, scale {fresh_scale} "
              f"vs {base_scale}); identity, scale and memory-ceiling "
              f"gates passed")
        return
    compared = 0
    for key in ("batch", "stream_full", "stream_windowed"):
        got = getf(fresh, fresh_path, "streaming", "wall_ms", key)
        want = getf(baseline, baseline_path, "streaming", "wall_ms", key)
        if got > want / NOISE_BAND:
            fail(f"streaming.wall_ms.{key}: {got:.0f} ms > "
                 f"{1 / NOISE_BAND:.1f}x baseline {want:.0f} ms")
        compared += 1

    print(f"check_bench[ingest]: ok — identity, {factor:g}x scale, "
          f"footprint {fp_ratio:.2f}x / rss {rss_ratio:.2f}x under the "
          f"{RSS_RATIO_CEILING}x ceiling, "
          f"{compared} absolute medians within the noise band of "
          f"{os.path.basename(baseline_path)}")


def main_serve(fresh_path, baseline_path):
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    for report, path in [(fresh, fresh_path), (baseline, baseline_path)]:
        for section in ("environment", "identity", "rejection", "quota",
                        "taxonomy", "observed_overhead", "metrics_frame",
                        "ping", "verdict"):
            if section not in report:
                fail(f"{path}: missing section {section!r}")

    # Gate 1: byte-identity with the offline pipeline, all three input
    # shapes. Environment-independent — the whole point of the service.
    for key in ("der_identical", "shard_identical", "error_identical"):
        if fresh["identity"].get(key) is not True:
            fail(f"identity.{key} is not true — a served verdict "
                 f"diverged from the offline pipeline")

    # Gate 2: the authorization door holds.
    if fresh["rejection"].get("expired_chain_refused") is not True:
        fail("rejection.expired_chain_refused is not true — an expired "
             "client chain was admitted")

    # Gate 3: quotas throttle.
    throttled = getf(fresh, fresh_path, "quota", "throttled_seen")
    if throttled < 1:
        fail(f"quota.throttled_seen = {throttled:g} — the token bucket "
             f"never throttled an over-quota burst")

    # Gate 4: no request-level errors under load.
    for arm in ("ping", "verdict"):
        errs = getf(fresh, fresh_path, arm, "errors")
        if errs != 0:
            fail(f"{arm}.errors = {errs:g} — the bench saw failed "
                 f"round trips")

    # Gate 5: the acceptance throughput floor.
    ping_rps = getf(fresh, fresh_path, "ping", "req_per_sec")
    if ping_rps < MIN_SERVE_PING_RPS:
        fail(f"ping.req_per_sec = {ping_rps:.0f} below the "
             f"{MIN_SERVE_PING_RPS:.0f} req/s acceptance floor")

    # Gate 6: the planted-failure taxonomy vector — exact expected
    # counters, byte-identical across two independent runs. Both facts
    # are environment-independent (counters, not timings).
    for key in ("matches_expected", "identical_across_runs"):
        if fresh["taxonomy"].get(key) is not True:
            fail(f"taxonomy.{key} is not true — the per-cause counter "
                 f"vector drifted from the planted-failure scenario")

    # Gate 7: the telemetry layer's observed overhead stays under the
    # budget. The smoke judges ABBA paired medians on warm pools, so
    # the verdict travels across boxes.
    if fresh["observed_overhead"].get("passed") is not True:
        pct = fresh["observed_overhead"].get("overhead_pct")
        budget = fresh["observed_overhead"].get("budget_pct")
        fail(f"observed_overhead.passed is not true "
             f"({pct}% vs the {budget}% budget)")

    # Gate 8: the REQ_METRICS admin frame — ops-class tenants get the
    # snapshot, everyone else is refused, and the TLS 1.2 deployment's
    # cleartext identity exposure is visible in it.
    for key in ("ops_granted", "non_ops_denied"):
        if fresh["metrics_frame"].get(key) is not True:
            fail(f"metrics_frame.{key} is not true — the admin frame's "
                 f"authorization gate broke")
    pbytes = getf(fresh, fresh_path, "metrics_frame",
                  "privacy_identity_bytes")
    if pbytes <= 0:
        fail(f"metrics_frame.privacy_identity_bytes = {pbytes:g} — the "
             f"privacy meter saw no cleartext identity bytes on a "
             f"TLS <= 1.2 deployment")

    # Gate 9: per-kind tail latency is reported (gated for presence and
    # sanity, not against an absolute bound — tails don't travel).
    for arm in ("ping", "verdict"):
        p99 = getf(fresh, fresh_path, arm, "p99_us")
        if p99 <= 0:
            fail(f"{arm}.p99_us = {p99:g} — missing or degenerate tail "
                 f"latency")

    # Absolute rates vs baseline: same class of box only, noise-banded.
    fresh_cores = fresh["environment"].get("cpu_cores")
    base_cores = baseline["environment"].get("cpu_cores")
    if fresh_cores != base_cores:
        print(f"check_bench[serve]: skipping absolute comparison "
              f"(cpu_cores {fresh_cores} != baseline {base_cores}); "
              f"identity, rejection, quota, error, taxonomy, overhead, "
              f"metrics, and {ping_rps:.0f} >= "
              f"{MIN_SERVE_PING_RPS:.0f} req/s floor gates passed")
        return
    compared = 0
    for arm in ("ping", "verdict"):
        got = getf(fresh, fresh_path, arm, "req_per_sec")
        want = getf(baseline, baseline_path, arm, "req_per_sec")
        if got < want * NOISE_BAND:
            fail(f"{arm}.req_per_sec: {got:.0f} < {NOISE_BAND:.0%} of "
                 f"baseline {want:.0f}")
        compared += 1

    print(f"check_bench[serve]: ok — identity/rejection/quota/error/"
          f"taxonomy/overhead/metrics gates, ping {ping_rps:.0f} req/s "
          f">= {MIN_SERVE_PING_RPS:.0f} floor, {compared} absolute "
          f"rates within the {NOISE_BAND:.0%} noise band of "
          f"{os.path.basename(baseline_path)}")


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv and argv[0] == "--ingest":
        if len(argv) not in (2, 3):
            fail("usage: check_bench.py --ingest FRESH_JSON "
                 "[BASELINE_JSON]")
        base = argv[2] if len(argv) == 3 else "BENCH_ingest.json"
        main_ingest(argv[1], base)
    elif argv and argv[0] == "--serve":
        if len(argv) not in (2, 3):
            fail("usage: check_bench.py --serve FRESH_JSON "
                 "[BASELINE_JSON]")
        base = argv[2] if len(argv) == 3 else "BENCH_serve.json"
        main_serve(argv[1], base)
    else:
        if len(argv) not in (1, 2):
            fail("usage: check_bench.py [--ingest|--serve] FRESH_JSON "
                 "[BASELINE_JSON]")
        base = argv[1] if len(argv) == 2 else "BENCH_speed.json"
        main(argv[0], base)
