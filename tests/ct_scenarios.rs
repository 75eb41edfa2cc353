//! The CT verification & gossip stage end to end (experiment `ct1`):
//! planted adversarial corpora must be detected with exact counts, clean
//! corpora must stay untouched, and the legacy bare-issuer path must agree
//! with the proof-carrying path whenever the evidence is clean.

use mtlscope::core::ingest::load_dir;
use mtlscope::core::{run_pipeline, AnalysisInputs, IngestMode};
use mtlscope::netsim::scenarios::{equivocating_log, sct_strip};
use mtlscope::netsim::{generate, SimConfig};
use mtlscope::obs::Obs;
use mtlscope::pki::GossipBundle;

fn small(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        scale: 0.01,
        ..Default::default()
    }
}

fn excluded_conns(out: &mtlscope::core::PipelineOutput) -> usize {
    out.corpus.conns.iter().filter(|c| c.excluded).count()
}

#[test]
fn clean_corpus_detects_no_split_views_and_no_strips() {
    let out = run_pipeline(AnalysisInputs::from_sim(generate(&small(4801))));
    let s = &out.ct1.summary;
    assert!(s.proofs_mode, "gossip evidence present => verified path");
    assert_eq!(s.logs_observed, 1);
    // One mid-run campus fetch plus the two final heads.
    assert_eq!(s.sths_observed, 3);
    assert_eq!(s.signature_failures, 0);
    assert!(
        s.consistency_verified >= 1,
        "the mid-run STH must prove consistent with the final heads"
    );
    assert_eq!(s.consistency_failed, 0);
    assert!(s.split_view_logs.is_empty(), "clean log, no split view");
    assert_eq!(s.entries_rejected, 0, "every honest entry is trusted");
    assert_eq!(s.stripped_certs, 0, "no SCT-strip false positives");
    assert_eq!(s.stripped_conns, 0);
    assert_eq!(out.ct1.recall(), None, "nothing planted");
    assert_eq!(out.ct1.precision(), None, "nothing detected");
}

/// The whole report, every section but `ct1` (which names the filter
/// mode and so differs between the paths by design).
fn render_without_ct1(out: &mtlscope::core::PipelineOutput) -> String {
    let ct1 = out.ct1.render();
    let all = out.render_all();
    assert!(all.contains(&ct1));
    all.replacen(&ct1, "", 1)
}

#[test]
fn legacy_flag_matches_verified_filter_on_clean_corpus() {
    for (seed, scale) in [(4802, 0.01), (42, 0.05)] {
        let sim = generate(&SimConfig {
            seed,
            scale,
            ..Default::default()
        });
        let verified = run_pipeline(AnalysisInputs::from_sim(sim.clone()));

        // The no-gossip path, reached the way a capture without gossip
        // evidence reaches it: the same logs on disk minus `ct_gossip.log`.
        let dir = std::env::temp_dir().join(format!(
            "mtlscope-ct-nogossip-{}-{seed}",
            std::process::id()
        ));
        sim.write_to_dir(&dir).expect("write logs");
        std::fs::remove_file(dir.join("ct_gossip.log")).expect("gossip log written");
        let loaded = load_dir(&dir, IngestMode::Strict, None, &Obs::noop(), None);
        std::fs::remove_dir_all(&dir).ok();
        let from_files = run_pipeline(loaded.expect("load logs without gossip").0);

        let mut legacy_inputs = AnalysisInputs::from_sim(sim);
        legacy_inputs.gossip = GossipBundle::default();
        let legacy = run_pipeline(legacy_inputs);

        assert!(!from_files.ct1.summary.proofs_mode);
        assert!(
            from_files.render_all() == legacy.render_all(),
            "seed {seed} scale {scale}: a load without ct_gossip.log rendered a \
             different report than the in-memory no-gossip run"
        );
        assert!(!legacy.ct1.summary.proofs_mode);
        assert!(verified.ct1.summary.proofs_mode);
        // Same interception verdicts: issuers, certificate exclusions, and
        // per-connection exclusions are identical when the evidence is clean.
        assert_eq!(legacy.pre1.issuers, verified.pre1.issuers);
        assert_eq!(legacy.pre1.excluded_certs, verified.pre1.excluded_certs);
        assert_eq!(excluded_conns(&legacy), excluded_conns(&verified));
        // And so is everything downstream of the filter, byte for byte.
        assert_eq!(legacy.tab1.all.total, verified.tab1.all.total);
        assert_eq!(legacy.tab1.all.mtls, verified.tab1.all.mtls);
        assert!(
            render_without_ct1(&legacy) == render_without_ct1(&verified),
            "seed {seed} scale {scale}: the two filter paths rendered different reports"
        );
    }
}

#[test]
fn equivocating_log_is_detected_with_full_recall() {
    let mut config = small(4803);
    config.include_ct_equivocation = true;
    // Isolate the planted exclusions from the ordinary interception ones.
    config.include_interception = false;
    let sim = generate(&config);
    assert_eq!(sim.meta.ct_forked_logs.len(), 1, "ground truth recorded");

    let verified = run_pipeline(AnalysisInputs::from_sim(sim.clone()));
    let s = &verified.ct1.summary;
    assert_eq!(
        s.split_view_logs, verified.ct1.planted_forks,
        "exactly the planted fork is flagged"
    );
    assert_eq!(verified.ct1.recall(), Some(1.0), "100% fork recall");
    assert_eq!(verified.ct1.precision(), Some(1.0));
    assert!(s.consistency_failed >= 1, "the fork cannot prove itself");
    assert!(s.entries_rejected >= 1, "fabricated entries are distrusted");

    // The proxy issuer is excluded with the exact planted counts.
    assert_eq!(
        verified.pre1.issuers,
        vec![equivocating_log::PROXY_ISSUER_ORG.to_string()],
    );
    assert_eq!(
        verified.pre1.excluded_certs,
        equivocating_log::PROXY_CERTS + verified.ct1.summary.stripped_certs,
    );
    assert_eq!(
        excluded_conns(&verified),
        equivocating_log::PROXY_CERTS * equivocating_log::CONNS_PER_CERT,
    );

    // The legacy path is fooled: the campus CT view vouches for the proxy
    // issuer, so bare issuer comparison excludes nothing.
    let mut legacy_inputs = AnalysisInputs::from_sim(sim);
    legacy_inputs.gossip = GossipBundle::default();
    let legacy = run_pipeline(legacy_inputs);
    assert_eq!(legacy.pre1.excluded_certs, 0);
    assert_eq!(excluded_conns(&legacy), 0);
}

#[test]
fn sct_stripped_twin_is_excluded_with_exact_counts() {
    let mut config = small(4804);
    config.include_sct_strip = true;
    let sim = generate(&config);
    assert!(sim.meta.ct_forked_logs.is_empty(), "no fork planted");

    let baseline = run_pipeline(AnalysisInputs::from_sim(generate(&small(4804))));
    let verified = run_pipeline(AnalysisInputs::from_sim(sim.clone()));
    let s = &verified.ct1.summary;
    assert!(s.split_view_logs.is_empty(), "stripping is not a fork");
    assert_eq!(s.stripped_certs, 1, "exactly the unlogged twin");
    assert_eq!(s.stripped_conns, sct_strip::STRIP_CONNS);
    assert_eq!(
        excluded_conns(&verified),
        excluded_conns(&baseline) + sct_strip::STRIP_CONNS,
    );

    // Legacy issuer comparison cannot see stripping at all: the issuer
    // matches CT exactly.
    let mut legacy_inputs = AnalysisInputs::from_sim(sim);
    legacy_inputs.gossip = GossipBundle::default();
    let legacy = run_pipeline(legacy_inputs);
    assert_eq!(legacy.ct1.summary.stripped_certs, 0);
    assert_eq!(excluded_conns(&legacy), excluded_conns(&baseline));
}
