#!/usr/bin/env python3
"""CI gate for the `conform` binary: asserts the TSV report schema, the
campaign size floors, and the never-panic / never-diverge policy, for the
DER campaign and for the Zeek-TSV shard campaign's `tsv.*` rows (one
divergence count per oracle).

Usage: check_conform.py conform-report.tsv
"""
import sys

MIN_MUTANTS = 10_000

SUMMARY_KEYS = {
    "seed", "mutants", "entry_points", "evaluations", "accepted",
    "identical", "canonicalized", "rejected", "panics", "divergences",
}

ENTRY_COLUMNS = 5  # rejected identical canonicalized panics divergences

MIN_TSV_MUTANTS = 2_000

# The TSV campaign's comparing oracles (`TsvDivergences::rows`), the
# reused-row oracle among them; `golden` counts golden shards rejected.
TSV_ORACLES = [
    "determinism", "strict_lenient", "swar_scalar", "classifier",
    "reused_row", "golden",
]
TSV_KEYS = {"tsv.mutants", "tsv.evaluations", "tsv.accepted", "tsv.panics"} | {
    f"tsv.divergences.{o}" for o in TSV_ORACLES
}


def fail(msg):
    print(f"check_conform: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main(path):
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]

    if not lines or lines[0].split("\t") != ["schema", "mtls-conform-1"]:
        fail(f"bad or missing schema line: {lines[:1]!r}")

    summary = {}
    entries = {}
    findings = []
    for line in lines[1:]:
        cells = line.split("\t")
        if cells[0] == "entry":
            if len(cells) != 2 + ENTRY_COLUMNS:
                fail(f"malformed entry row: {line!r}")
            entries[cells[1]] = [int(c) for c in cells[2:]]
        elif cells[0] == "finding":
            findings.append(cells[1:])
        elif len(cells) == 2:
            summary[cells[0]] = int(cells[1])
        else:
            fail(f"unrecognized row: {line!r}")

    missing = SUMMARY_KEYS - set(summary)
    if missing:
        fail(f"missing summary keys: {sorted(missing)}")

    if summary["mutants"] < MIN_MUTANTS:
        fail(f"campaign too small: {summary['mutants']} mutants "
             f"< {MIN_MUTANTS}")
    if summary["entry_points"] != len(entries):
        fail(f"entry_points={summary['entry_points']} but "
             f"{len(entries)} entry rows")
    if summary["evaluations"] <= summary["mutants"]:
        fail("evaluations should exceed mutants (every mutant hits every "
             "entry point)")
    if summary["accepted"] <= 0:
        fail("no input was ever accepted — the corpus is not reaching the "
             "parsers")
    if summary["rejected"] <= 0:
        fail("nothing was rejected — the mutation engine is not mutating")

    # The policy gates: parse paths never panic, oracles never diverge.
    if summary["panics"] != 0:
        fail(f"{summary['panics']} panics — see finding rows:\n  "
             + "\n  ".join("\t".join(f) for f in findings[:10]))
    if summary["divergences"] != 0:
        fail(f"{summary['divergences']} divergences — see finding rows:\n  "
             + "\n  ".join("\t".join(f) for f in findings[:10]))
    if findings:
        fail(f"{len(findings)} finding rows despite zero panic/divergence "
             "counts")

    # Per-entry tallies must sum to the evaluation total.
    total = sum(sum(v) for v in entries.values())
    if total != summary["evaluations"]:
        fail(f"entry tallies sum to {total} != evaluations "
             f"{summary['evaluations']}")

    # The TSV shard campaign: every oracle reported, none diverged.
    missing = TSV_KEYS - set(summary)
    if missing:
        fail(f"missing TSV campaign rows: {sorted(missing)}")
    unknown = {k for k in summary if k.startswith("tsv.")} - TSV_KEYS
    if unknown:
        fail(f"unknown TSV campaign rows: {sorted(unknown)}")
    if summary["tsv.mutants"] < MIN_TSV_MUTANTS:
        fail(f"TSV campaign too small: {summary['tsv.mutants']} mutants "
             f"< {MIN_TSV_MUTANTS}")
    if summary["tsv.evaluations"] < 2 * summary["tsv.mutants"]:
        fail("TSV evaluations should cover both ingest modes per mutant")
    if summary["tsv.accepted"] <= 0:
        fail("no TSV mutant was ever accepted")
    if summary["tsv.panics"] != 0:
        fail(f"{summary['tsv.panics']} TSV reader panics")
    tsv_divergences = {o: summary[f"tsv.divergences.{o}"] for o in TSV_ORACLES}
    diverged = {o: n for o, n in tsv_divergences.items() if n}
    if diverged:
        fail(f"TSV oracle divergences: {diverged}")

    print(f"check_conform: ok — {summary['mutants']} mutants, "
          f"{summary['entry_points']} entry points, "
          f"{summary['evaluations']} evaluations, "
          f"{summary['accepted']} accepted / {summary['rejected']} rejected, "
          f"0 panics, 0 divergences; TSV: {summary['tsv.mutants']} mutants, "
          f"{summary['tsv.accepted']} accepted, 0 panics, 0 divergences "
          f"over {len(TSV_ORACLES)} oracle rows")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        fail("usage: check_conform.py REPORT_TSV")
    main(sys.argv[1])
