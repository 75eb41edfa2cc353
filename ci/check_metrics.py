#!/usr/bin/env python3
"""CI gate for metrics snapshots.

Default mode validates a `repro --from-logs --metrics` metrics.json:
schema, span tree covering every pipeline stage, consistent durations,
and the month walk's own metrics (every directory load runs it): the
`epoch_merge` span, the `stream.*` gauges, and rows pushed equal to rows
parsed.

`--stream` mode runs the default checks on a `repro --window` run's
metrics.json, then requires at least one retired month.

`--serve` mode validates a serve metrics envelope (what `REQ_METRICS`
returns and `mtlscope bench-client --metrics` saves): the schema tag,
the embedded snapshot, every `serve.*`/`bench.*` name against a mirror
of `crates/serve/src/taxonomy.rs`, and the flight-recorder dump shape.

Usage: check_metrics.py obs-out/metrics.json
       check_metrics.py --stream obs-stream/metrics.json
       check_metrics.py --serve bench-serve-metrics.json
"""
import json
import sys

ANALYZERS = [
    "prevalence", "cert_census", "ports", "cn_san_usage", "inbound",
    "outbound_flows", "dummy_issuers", "cert_sharing", "serial_collisions",
    "subnet_spread", "incorrect_dates", "validity", "expired",
    "info_types_mtls", "unidentified", "info_types_shared_certs",
    "info_types_non_mtls_servers", "audit", "tracking", "generalization",
]

REQUIRED_PATHS = [
    "run",
    "run/ingest",
    "run/ingest/meta",
    "run/ingest/ct",
    "run/ingest/logs",
    "run/ingest/epoch_merge",
    "run/pipeline",
    "run/pipeline/interception_filter",
    "run/pipeline/corpus_build",
    "run/pipeline/analyze",
    "run/pipeline/assemble",
    "run/export",
] + [f"run/pipeline/analyze/{name}" for name in ANALYZERS]

SPAN_FIELDS = {"path", "name", "depth", "count", "total_micros",
               "min_micros", "max_micros"}

# The month walk's gauges (crates/core/src/stream.rs, CorpusBuilder).
STREAM_GAUGES = [
    "stream.epochs_live",
    "stream.footprint_bytes",
    "stream.peak_footprint_bytes",
]

# The ct.* counter schema registered by the pipeline's CT verification
# stage (crates/core/src/pipeline.rs, record_corpus_metrics). All names
# are zero-registered so the schema is stable across corpora.
CT_COUNTERS = [
    "ct.proofs_mode",
    "ct.logs_observed",
    "ct.sths_observed",
    "ct.sth_signature_failures",
    "ct.consistency_proofs_verified",
    "ct.consistency_proofs_failed",
    "ct.split_views_detected",
    "ct.entries_verified",
    "ct.entries_rejected",
    "ct.inclusion_proofs_verified",
    "ct.inclusion_proofs_failed",
    "ct.stripped_certs_excluded",
    "ct.stripped_conns_excluded",
]
# Counters that must stay zero on the clean CI fixture.
CT_CLEAN_ZERO = [
    "ct.sth_signature_failures",
    "ct.consistency_proofs_failed",
    "ct.split_views_detected",
    "ct.entries_rejected",
    "ct.stripped_certs_excluded",
    "ct.stripped_conns_excluded",
]


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main(path):
    with open(path) as f:
        doc = json.load(f)

    if doc.get("schema_version") != 1:
        fail(f"schema_version {doc.get('schema_version')!r}, expected 1")
    for key in ("spans", "counters", "gauges", "histograms"):
        if key not in doc:
            fail(f"missing top-level key {key!r}")

    spans = {row["path"]: row for row in doc["spans"]}
    for row in doc["spans"]:
        if set(row) != SPAN_FIELDS:
            fail(f"span row fields {sorted(row)} != {sorted(SPAN_FIELDS)}")
        if row["count"] < 1 or row["min_micros"] > row["max_micros"]:
            fail(f"degenerate span row: {row}")
    for p in REQUIRED_PATHS:
        if p not in spans:
            fail(f"required span {p!r} missing (have {sorted(spans)})")
    shard_spans = [p for p in spans if p.startswith("run/ingest/logs/")]
    if not shard_spans:
        fail("no per-shard spans under run/ingest/logs/")

    # Durations must nest consistently: children never exceed their parent,
    # in particular the top-level stages sum to at most the whole run.
    for p, row in spans.items():
        parent = p.rsplit("/", 1)[0]
        if parent != p and spans[parent]["count"] == 1:
            if row["total_micros"] > spans[parent]["total_micros"]:
                fail(f"span {p} ({row['total_micros']}us) exceeds its "
                     f"parent ({spans[parent]['total_micros']}us)")
    top_sum = sum(r["total_micros"] for p, r in spans.items()
                  if p.count("/") == 1)
    if top_sum > spans["run"]["total_micros"]:
        fail(f"top-level spans sum to {top_sum}us > run "
             f"{spans['run']['total_micros']}us")

    counters = doc["counters"]
    if counters.get("ingest.rows_parsed", 0) <= 0:
        fail("counter ingest.rows_parsed missing or zero")
    if counters.get("export.files", 0) <= 0:
        fail("counter export.files missing or zero")

    # The CT verification stage registers its full counter schema even at
    # zero, so every name must be present on any run. The CI fixture is a
    # clean corpus: gossip evidence exists (proofs mode on, proofs verify)
    # and nothing adversarial may fire.
    for name in CT_COUNTERS:
        if name not in counters:
            fail(f"counter {name!r} missing — the ct.* schema must be "
                 f"registered even at zero")
        value = counters[name]
        if not isinstance(value, int) or value < 0:
            fail(f"counter {name!r} has non-counter value {value!r}")
    if counters.get("ct.proofs_mode", 0) != 1:
        fail("ct.proofs_mode != 1 — fixture is missing ct_gossip.log, so "
             "the filter fell back to the legacy bare-issuer path")
    if counters.get("ct.sths_observed", 0) < 2:
        fail("fewer than two STHs observed — no cross-vantage gossip")
    if counters.get("ct.consistency_proofs_verified", 0) < 1:
        fail("no consistency proof verified on a clean corpus")
    for name in CT_CLEAN_ZERO:
        if counters.get(name, 0) != 0:
            fail(f"clean CI corpus but {name} = {counters[name]}")

    # The month walk: every load pushes months through the CorpusBuilder.
    gauges = doc["gauges"]
    for name in STREAM_GAUGES:
        if name not in gauges:
            fail(f"gauge {name!r} missing — the load did not run the "
                 f"month walk")
    peak = gauges["stream.peak_footprint_bytes"]
    live = gauges["stream.footprint_bytes"]
    if not peak >= live > 0:
        fail(f"stream footprint gauges out of order: peak {peak} >= "
             f"footprint {live} > 0 does not hold")
    pushed = (counters.get("stream.ssl_rows_pushed", 0)
              + counters.get("stream.x509_rows_pushed", 0))
    parsed = counters.get("ingest.rows_parsed", 0)
    if pushed != parsed:
        fail(f"stream rows pushed ({pushed}) != ingest.rows_parsed "
             f"({parsed}) — the builder lost or duplicated rows")

    print(f"check_metrics: ok — {len(spans)} spans "
          f"({len(shard_spans)} shards), {len(counters)} counters, "
          f"{len(doc['gauges'])} gauges, {len(doc['histograms'])} histograms")
    return doc


# --- rolling-window run mode (`--stream`) -----------------------------


def main_stream(path):
    doc = main(path)
    retired = doc["counters"].get("stream.epochs_retired", 0)
    if retired <= 0:
        fail("stream.epochs_retired is 0 — the rolling window never "
             "retired a month")
    print(f"check_metrics[stream]: ok — {retired} epochs retired")


# --- serve envelope mode (`--serve`) ----------------------------------
# Mirror of crates/serve/src/taxonomy.rs. A name drifting between the
# Rust taxonomy and this list fails CI, which is the point: the taxonomy
# is the single source of truth, and
# crates/serve/tests/e2e.rs::check_metrics_serve_mirror_equals_the_taxonomy
# holds this mirror equal to it.
SERVE_SCHEMA = "mtlscope-serve-metrics-1"
SERVE_COUNTERS = {
    "serve.connections",
    "serve.handshake.ok",
    "serve.handshake.err.bad_record",
    "serve.handshake.err.unexpected_message",
    "serve.handshake.err.peer_alert",
    "serve.handshake.err.bad_frame",
    "serve.authz.err.no_certificate",
    "serve.authz.err.malformed",
    "serve.authz.err.policy",
    "serve.authz.err.chain.issuer_not_found",
    "serve.authz.err.chain.bad_signature",
    "serve.authz.err.chain.expired",
    "serve.authz.err.chain.incorrect_dates",
    "serve.authz.err.chain.untrusted_root",
    "serve.authz.err.chain.not_a_ca",
    "serve.authz.err.chain.too_deep",
    "serve.requests",
    "serve.requests.ping",
    "serve.requests.der",
    "serve.requests.shard",
    "serve.requests.metrics",
    "serve.request.err.unknown_kind",
    "serve.request.err.oversize_frame",
    "serve.request.err.metrics_forbidden",
    "serve.throttled",
    "serve.conn.closed_clean",
    "serve.conn.closed_error",
    "serve.privacy.cleartext_connections",
    "serve.privacy.identity_bytes_total",
}
SERVE_HISTOGRAMS = {
    "serve.request_bytes",
    "serve.handshake_us",
    "serve.queue_wait_us",
    "serve.conn_lifetime_us",
    "serve.privacy.identity_bytes",
    "serve.privacy.chain_certs",
    "serve.privacy.san_count",
}
SERVE_LATENCY_PREFIX = "serve.latency_us."
SERVE_GAUGES = {
    "serve.privacy.max_identity_bytes",
    "serve.quota.tracked_tenants",
}
BENCH_COUNTERS = {
    "bench.handshake.ok",
    "bench.handshake.err.bad_record",
    "bench.handshake.err.unexpected_message",
    "bench.handshake.err.peer_alert",
    "bench.handshake.err.bad_frame",
    "bench.resp.verdict",
    "bench.resp.pong",
    "bench.resp.throttled",
    "bench.resp.error",
    "bench.err.transport",
}
BENCH_HISTOGRAM_PREFIX = "bench.latency_us"
FLIGHT_CLOSES = {"clean", "handshake", "authz", "bad_frame", "stream",
                 "peer_alert"}
FLIGHT_EVENT_FIELDS = {"seq", "tenant", "close", "handshake_us",
                       "queue_wait_us", "frames", "bytes_in", "bytes_out",
                       "lifetime_us"}


def serve_known_counter(name):
    return name in SERVE_COUNTERS or name in BENCH_COUNTERS


def serve_known_histogram(name):
    return (name in SERVE_HISTOGRAMS
            or name.startswith(SERVE_LATENCY_PREFIX)
            or name == BENCH_HISTOGRAM_PREFIX
            or name.startswith(BENCH_HISTOGRAM_PREFIX + "."))


def main_serve(path):
    with open(path) as f:
        doc = json.load(f)

    if doc.get("schema") != SERVE_SCHEMA:
        fail(f"schema {doc.get('schema')!r}, expected {SERVE_SCHEMA!r}")
    for key in ("metrics", "flight"):
        if key not in doc:
            fail(f"missing top-level key {key!r}")

    metrics = doc["metrics"]
    if metrics.get("schema_version") != 1:
        fail(f"metrics.schema_version "
             f"{metrics.get('schema_version')!r}, expected 1")

    counters = metrics.get("counters", {})
    for name, value in counters.items():
        if not serve_known_counter(name):
            fail(f"counter {name!r} is not in the taxonomy mirror — "
                 f"update crates/serve/src/taxonomy.rs AND this list")
        if not isinstance(value, int) or value < 0:
            fail(f"counter {name!r} has non-counter value {value!r}")
    for name in sorted(SERVE_COUNTERS - set(counters)):
        # Hot-path counters are pre-registered, so a live server always
        # reports the core of the taxonomy even at zero.
        if name in ("serve.requests", "serve.throttled",
                    "serve.request.err.unknown_kind"):
            fail(f"pre-registered counter {name!r} missing from the "
                 f"snapshot")

    for name, row in metrics.get("histograms", {}).items():
        if not serve_known_histogram(name):
            fail(f"histogram {name!r} is not in the taxonomy mirror")
        if row.get("count", 0) < 0 or "buckets" not in row:
            fail(f"malformed histogram row {name!r}: {row!r}")
        for b in row["buckets"]:
            if b["lo"] >= b["hi"] or b["n"] < 0:
                fail(f"degenerate bucket in {name!r}: {b!r}")

    for name in metrics.get("gauges", {}):
        if name not in SERVE_GAUGES:
            fail(f"gauge {name!r} is not in the taxonomy mirror")

    flight = doc["flight"]
    for key in ("capacity", "recorded", "dropped", "events"):
        if key not in flight:
            fail(f"flight dump missing {key!r}")
    events = flight["events"]
    if len(events) > flight["capacity"]:
        fail(f"flight holds {len(events)} events over its capacity "
             f"{flight['capacity']}")
    last_seq = -1
    for ev in events:
        if set(ev) != FLIGHT_EVENT_FIELDS:
            fail(f"flight event fields {sorted(ev)} != "
                 f"{sorted(FLIGHT_EVENT_FIELDS)}")
        if ev["seq"] <= last_seq:
            fail(f"flight events out of order at seq {ev['seq']}")
        last_seq = ev["seq"]
        if ev["close"] not in FLIGHT_CLOSES:
            fail(f"unknown flight close cause {ev['close']!r}")
        if not ev["tenant"]:
            fail(f"flight event {ev['seq']} has an empty tenant")

    print(f"check_metrics[serve]: ok — {len(counters)} counters, "
          f"{len(metrics.get('histograms', {}))} histograms, "
          f"{len(metrics.get('gauges', {}))} gauges all in the taxonomy; "
          f"flight dump {len(events)}/{flight['capacity']} events, "
          f"{flight['dropped']} dropped")


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv and argv[0] == "--serve":
        if len(argv) != 2:
            fail("usage: check_metrics.py --serve ENVELOPE_JSON")
        main_serve(argv[1])
    elif argv and argv[0] == "--stream":
        if len(argv) != 2:
            fail("usage: check_metrics.py --stream METRICS_JSON")
        main_stream(argv[1])
    else:
        if len(argv) != 1:
            fail("usage: check_metrics.py [--serve|--stream] METRICS_JSON")
        main(argv[0])
