//! Pins the bytes of the rendered report over a generated corpus.
//!
//! The report-identity checks elsewhere compare two paths into the same
//! analyzers (batch ≡ stream, generated ≡ from logs), so they cannot see an
//! analyzer or renderer that changed its output. This test hashes
//! `run_pipeline(..).render_all()` itself for a seed-7 corpus at scale
//! 0.02, a size at which every table and figure has rows. A change to the
//! constant is a change to what the report says, and must be deliberate.

use mtls_core::{run_pipeline, AnalysisInputs};
use mtls_crypto::{hex, sha256};
use mtls_netsim::{generate, SimConfig};

/// sha256 of `render_all()`.
const PINNED: &str = "5c513689decb1ba85d29d03e5a7dba52be2ab6611650ed33f153d9b6731e8579";

#[test]
fn report_bytes_are_pinned() {
    let sim = generate(&SimConfig {
        seed: 7,
        scale: 0.02,
        ..SimConfig::default()
    });
    let out = run_pipeline(AnalysisInputs::from_sim(sim));

    // Every section has something to pin.
    assert!(!out.pre1.issuers.is_empty());
    assert!(out.tab1.client.total > 0 && out.tab1.server.total > 0);
    assert!(out.tab2.inbound_mtls.total > 0 && out.tab2.outbound_mtls.total > 0);
    assert!(!out.tab3.rows.is_empty());
    assert!(!out.fig2.flows.is_empty());
    assert!(!out.tab4.rows.is_empty());
    assert!(!out.ser1.groups.is_empty());
    assert!(!out.tab5.rows.is_empty());
    assert!(out.tab6.cross_shared_certs > 0);
    assert!(!out.fig3.rows.is_empty() && !out.fig3.both_ends.is_empty());
    assert!(out.fig4.very_long > 0);
    assert!(!out.fig5.points.is_empty());
    assert!(out.tab7.total_mtls_certs > 0);
    assert!(!out.tab8.columns.is_empty());
    assert!(!out.tab9.counts.is_empty());
    assert!(!out.tab13.columns.is_empty() && !out.tab14.columns.is_empty());
    assert!(out.ext1.flagged_conns > 0);
    assert!(out.ext2.trackable > 0 && out.ext2.roaming > 0);

    let report = out.render_all();
    assert_eq!(hex::encode(&sha256(report.as_bytes())), PINNED);
}
