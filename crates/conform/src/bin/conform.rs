//! Bounded-time conformance smoke for CI.
//!
//! Runs a seeded mutation campaign over every parse entry point and writes
//! its TSV report. Exit status is nonzero iff any panic or divergence was
//! observed, which is the whole CI gate; the report's shape is checked by
//! `tests/regressions.rs::bounded_campaign_is_clean`.
//!
//! ```text
//! conform [--mutants N] [--tsv-mutants N] [--seed S] [--report PATH] [--quiet]
//! ```
//!
//! `--tsv-mutants` additionally runs the Zeek-TSV shard campaign (mutated
//! ssl.log/x509.log bytes through the SWAR readers); its counts follow the
//! DER report as `tsv.`-prefixed summary rows, with one divergence row per
//! oracle, and failures flip the exit code.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut mutants: u64 = 10_000;
    let mut tsv_mutants: u64 = 0;
    let mut seed: u64 = 0x6d74_6c73; // "mtls"
    let mut report_path: Option<String> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mutants" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => mutants = v,
                None => return usage("--mutants needs an integer"),
            },
            "--tsv-mutants" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => tsv_mutants = v,
                None => return usage("--tsv-mutants needs an integer"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed needs an integer"),
            },
            "--report" => match args.next() {
                Some(v) => report_path = Some(v),
                None => return usage("--report needs a path"),
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    // The campaign deliberately drives parsers into panics if it can;
    // suppress the default hook's stderr spew so CI logs stay readable
    // (the outcomes are captured and reported either way).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = mtls_conform::run_campaign(seed, mutants);
    let tsv_summary = (tsv_mutants > 0).then(|| mtls_conform::run_tsv_campaign(seed, tsv_mutants));
    std::panic::set_hook(hook);

    let mut tsv = report.to_tsv();
    if let Some(s) = &tsv_summary {
        tsv.push_str(&s.to_tsv());
    }
    if let Some(path) = &report_path {
        if let Err(e) = std::fs::write(path, &tsv) {
            eprintln!("conform: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !quiet {
        print!("{tsv}");
    }
    eprintln!(
        "conform: seed={} mutants={} evaluations={} accepted={} rejected={} panics={} divergences={}",
        report.seed,
        report.mutants,
        report.evaluations(),
        report.accepted(),
        report.rejected(),
        report.panics(),
        report.divergences(),
    );
    let mut tsv_bugs = false;
    if let Some(s) = &tsv_summary {
        eprintln!(
            "conform: tsv seed={} mutants={} evaluations={} accepted={} panics={} divergences={}",
            s.seed,
            s.mutants,
            s.evaluations,
            s.accepted,
            s.panics,
            s.divergences.total(),
        );
        tsv_bugs = s.has_bugs();
    }
    if report.has_bugs() || tsv_bugs {
        eprintln!("conform: FAIL: parser bugs detected (see finding rows)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("conform: {err}");
    }
    eprintln!(
        "usage: conform [--mutants N] [--tsv-mutants N] [--seed S] [--report PATH] [--quiet]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
