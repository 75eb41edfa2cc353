//! End-to-end pipeline integration: generate → analyze, and check the
//! structural invariants every run must satisfy regardless of calibration.

use mtlscope::core::{run_pipeline, AnalysisInputs, PipelineOutput};
use mtlscope::netsim::{generate, SimConfig};
use std::sync::OnceLock;

fn output() -> &'static PipelineOutput {
    static CELL: OnceLock<PipelineOutput> = OnceLock::new();
    CELL.get_or_init(|| {
        let sim = generate(&SimConfig {
            seed: 1234,
            scale: 0.05,
            ..Default::default()
        });
        run_pipeline(AnalysisInputs::from_sim(sim))
    })
}

#[test]
fn census_is_internally_consistent() {
    let t = &output().tab1;
    assert_eq!(
        t.server.total,
        t.server_public.total + t.server_private.total
    );
    assert_eq!(
        t.client.total,
        t.client_public.total + t.client_private.total
    );
    assert!(t.all.mtls <= t.all.total);
    assert!(t.server.mtls <= t.server.total);
    // Every cert is server, client, or both.
    assert!(t.server.total + t.client.total >= t.all.total);
}

#[test]
fn prevalence_series_covers_the_study_window() {
    let fig1 = &output().fig1;
    assert_eq!(fig1.months.len(), 23, "23 months of data");
    assert_eq!(
        fig1.months.first().map(|m| m.label.as_str()),
        Some("2022-05")
    );
    assert_eq!(
        fig1.months.last().map(|m| m.label.as_str()),
        Some("2024-03")
    );
    for m in &fig1.months {
        assert!(
            (0.0..=1.0).contains(&m.share),
            "{}: share {}",
            m.label,
            m.share
        );
    }
}

#[test]
fn port_shares_sum_to_one() {
    let tab2 = &output().tab2;
    for cell in [
        &tab2.inbound_mtls,
        &tab2.outbound_mtls,
        &tab2.inbound_plain,
        &tab2.outbound_plain,
    ] {
        let total: usize = cell.ranked.iter().map(|(_, n)| n).sum();
        assert_eq!(total, cell.total);
        assert!(!cell.ranked.is_empty());
        // Descending order.
        for pair in cell.ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }
}

#[test]
fn inbound_conn_shares_sum_to_one() {
    let tab3 = &output().tab3;
    let sum: f64 = tab3.rows.iter().map(|r| r.conn_share).sum();
    assert!((sum - 1.0).abs() < 1e-9, "sum={sum}");
    for row in &tab3.rows {
        for (_, share) in &row.issuer_mix {
            assert!((0.0..=1.0).contains(share));
        }
    }
}

#[test]
fn every_report_renders_nonempty() {
    let out = output();
    let all = out.render_all();
    for needle in [
        "Figure 1",
        "Table 1",
        "Table 2",
        "Table 3",
        "Figure 2",
        "Table 4",
        "Table 10",
        "section 5.1.2",
        "Table 5",
        "Table 6",
        "Figure 3",
        "Table 12",
        "Figure 4",
        "Figure 5",
        "Table 7",
        "Table 8",
        "Table 9",
        "Table 13",
        "Table 14",
        "interception",
    ] {
        assert!(all.contains(needle), "missing section {needle}");
    }
    assert!(
        all.len() > 4_000,
        "report suspiciously short: {}",
        all.len()
    );
}

#[test]
fn interception_filter_finds_planted_issuers_and_no_others() {
    let pre1 = &output().pre1;
    assert!(!pre1.issuers.is_empty());
    for issuer in &pre1.issuers {
        // Only the planted middlebox vendors may be flagged; a false
        // positive on a real CA (campus, Globus, Honeywell…) would poison
        // every downstream table.
        let planted = [
            "NetGuard",
            "CloudShield",
            "PerimeterX",
            "SecureGate",
            "InspectorWorks",
            "TrafficLens",
        ]
        .iter()
        .any(|v| issuer.contains(v));
        assert!(planted, "false positive interception issuer: {issuer}");
    }
    assert!(pre1.excluded_share() > 0.01 && pre1.excluded_share() < 0.20);
}

#[test]
fn shared_certs_do_not_leak_into_table8() {
    let out = output();
    // Certificates counted in Table 13 (shared) must not be in Table 8.
    use mtlscope::core::analyze::info_types::Cell;
    let t8 = &out.tab8.columns[&Cell::ServerPrivate];
    let t13 = &out.tab13.columns[&Cell::ServerPrivate];
    let census_private_server_mtls = out.tab1.server_private.mtls;
    assert!(t8.cn_total + t13.cn_total <= census_private_server_mtls);
    assert!(t13.cn_total > 0, "shared population exists");
}

#[test]
fn subnet_quantiles_are_monotone() {
    let tab6 = &output().tab6;
    for q in [tab6.server_quantiles, tab6.client_quantiles] {
        assert!(q[0] <= q[1] && q[1] <= q[2] && q[2] <= q[3], "{q:?}");
        assert!(q[0] >= 1);
    }
}

#[test]
fn incorrect_dates_population_matches_cert_predicate() {
    let out = output();
    let by_predicate = out
        .corpus
        .live_certs()
        .filter(|c| c.rec.has_incorrect_dates())
        .count();
    assert_eq!(out.fig3.total_certs, by_predicate);
    assert!(by_predicate > 0);
    // Everything in the rows was seen in established mTLS.
    for row in &out.fig3.rows {
        assert!(row.clients > 0);
        assert!(row.certs > 0);
    }
}

#[test]
fn expired_points_are_actually_expired() {
    let out = output();
    for p in &out.fig5.points {
        assert!(p.days_expired > 0, "{p:?}");
        assert!(p.activity_days >= 0);
    }
}

#[test]
fn tls13_connections_carry_no_certificates() {
    let out = output();
    for conn in out.corpus.all_conns() {
        if conn.rec.version == mtlscope::zeek::TlsVersion::Tls13 {
            assert!(conn.rec.cert_chain_fps.is_empty());
            assert!(conn.rec.client_cert_chain_fps.is_empty());
            assert!(!conn.mtls);
        }
    }
}

#[test]
fn every_ssl_fingerprint_resolves() {
    let out = output();
    for conn in out.corpus.all_conns() {
        for fp in conn
            .rec
            .cert_chain_fps
            .iter()
            .chain(&conn.rec.client_cert_chain_fps)
        {
            assert!(out.corpus.cert_by_fp(fp).is_some(), "dangling {fp}");
        }
    }
}

#[test]
fn parallel_pipeline_matches_sequential() {
    let sim = mtlscope::netsim::generate(&SimConfig {
        seed: 31337,
        scale: 0.01,
        ..Default::default()
    });
    // The analyzers run one at a time on the caller's thread (DESIGN §4
    // decision 1); what is left to check is that instrumenting a run
    // changes no byte of its report.
    let plain = run_pipeline(AnalysisInputs::from_sim(sim.clone()));
    let obs = mtlscope::obs::Obs::new();
    let instrumented = mtlscope::core::run_pipeline_obs(AnalysisInputs::from_sim(sim), &obs, None);
    assert!(
        obs.snapshot().span("pipeline/analyze").is_some(),
        "the instrumented run recorded its spans"
    );
    assert_eq!(plain.render_all(), instrumented.render_all());
}

#[test]
fn interception_thresholds_are_not_load_bearing() {
    // Ablation for DESIGN.md §4: genuine middlebox issuers are ~100 %
    // CT-mismatch candidates and real CAs ~0 %, so the verdict barely
    // moves across a wide threshold neighborhood.
    use mtlscope::core::pipeline::interception;
    let sim = generate(&SimConfig {
        seed: 77,
        scale: 0.05,
        ..Default::default()
    });
    let inputs = AnalysisInputs::from_sim(sim);
    let planted = [
        "NetGuard",
        "CloudShield",
        "PerimeterX",
        "SecureGate",
        "InspectorWorks",
        "TrafficLens",
    ];

    let (_, baseline) =
        interception::filter_with(&inputs.ssl, &inputs.x509, &inputs.ct, &inputs.meta, 3, 0.8);
    assert!(!baseline.is_empty());

    for min_certs in [2usize, 3, 5] {
        for share in [0.5f64, 0.8, 0.95] {
            let (excluded, issuers) = interception::filter_with(
                &inputs.ssl,
                &inputs.x509,
                &inputs.ct,
                &inputs.meta,
                min_certs,
                share,
            );
            // Zero false positives at every setting.
            for issuer in &issuers {
                assert!(
                    planted.iter().any(|v| issuer.contains(v)),
                    "false positive at ({min_certs}, {share}): {issuer}"
                );
            }
            // Loosening never loses a middlebox the default finds.
            if min_certs <= 3 && share <= 0.8 {
                assert!(
                    issuers.len() >= baseline.len(),
                    "({min_certs}, {share}) found fewer issuers than the default"
                );
            }
            // Excluded certs come only from flagged issuers.
            assert!(excluded.is_empty() == issuers.is_empty());
        }
    }
}

/// The filter's output on the seed-7 corpus over the ablation's threshold
/// grid, pinned as one digest of every setting's sorted excluded
/// fingerprints and flagged issuers, so a change to how the filter finds
/// server leaves or marks exclusions cannot move a single fingerprint.
#[test]
fn interception_filter_output_is_pinned_on_seed_7() {
    use mtlscope::core::pipeline::interception;
    let sim = generate(&SimConfig {
        seed: 7,
        scale: 0.05,
        ..Default::default()
    });
    let inputs = AnalysisInputs::from_sim(sim);
    let mut text = String::new();
    let mut excluded_at_default = 0;
    for min_certs in [2usize, 3, 5] {
        for share in [0.5f64, 0.8, 0.95] {
            let (excluded, issuers) = interception::filter_with(
                &inputs.ssl,
                &inputs.x509,
                &inputs.ct,
                &inputs.meta,
                min_certs,
                share,
            );
            let mut excluded: Vec<_> = excluded.into_iter().collect();
            excluded.sort();
            if (min_certs, share) == (3, 0.8) {
                excluded_at_default = excluded.len();
            }
            text.push_str(&format!("{min_certs} {share} {issuers:?}\n"));
            for fp in excluded {
                text.push_str(&format!("{fp}\n"));
            }
        }
    }
    let digest = mtlscope::crypto::hex::encode(&mtlscope::crypto::sha256(text.as_bytes()));
    assert_eq!(
        (excluded_at_default, digest.as_str()),
        (
            461,
            "9e53062e15a837fbe80d4ffeecceab5a8ac6a32962360eec8dbda1c6741769da"
        )
    );
}
