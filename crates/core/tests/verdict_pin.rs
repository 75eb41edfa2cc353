//! Pins the bytes of every served verdict shape over a generated corpus.
//!
//! The served ≡ offline checks compare two callers of the same renderer,
//! so they cannot see a renderer that changed its output. This test
//! hashes the renderer's output itself: `record_verdict` for every
//! `x509.log` row of a seed-7 corpus at scale 0.02, then `shard_verdict`
//! for its consecutive 16-row shards. The constant was recorded before
//! the verdict row path was rewritten; a change to it is a change to what
//! the service answers, and must be deliberate.

use mtls_asn1::Asn1Time;
use mtls_core::corpus::MetaKnowledge;
use mtls_core::verdict::{record_verdict, shard_verdict, VerdictContext};
use mtls_crypto::{hex, Sha256};
use mtls_netsim::{generate, SimConfig};
use mtls_pki::ValidationPolicy;

/// sha256 over the record verdicts, then the shard verdicts.
const PINNED: &str = "c6d0bc851473b13c84ac41cc585bd0c9495b3a8d3dbd2b43f2ac4eff2b078491";

#[test]
fn verdict_bytes_are_pinned() {
    let sim = generate(&SimConfig {
        seed: 7,
        scale: 0.02,
        ..SimConfig::default()
    });
    let ctx = VerdictContext {
        policy: ValidationPolicy::enterprise(),
        meta: MetaKnowledge::from_sim(&sim.meta),
        ct: sim.ct.clone(),
        at: Asn1Time::from_ymd(2022, 6, 1).unix() as f64,
    };
    assert!(sim.x509.len() > 100, "the corpus has rows to pin");

    let mut h = Sha256::new();
    for rec in &sim.x509 {
        h.update(record_verdict(rec, &ctx).as_bytes());
    }
    let mut shards = 0;
    for rows in sim.x509.chunks(16) {
        let mut tsv = Vec::new();
        mtls_zeek::write_x509_log(&mut tsv, rows).unwrap();
        let v = shard_verdict(&tsv, &ctx);
        assert!(!v.contains("parse: error"), "{v}");
        h.update(v.as_bytes());
        shards += 1;
    }
    assert!(shards > 1);
    assert_eq!(hex::encode(&h.finalize()), PINNED);
}
