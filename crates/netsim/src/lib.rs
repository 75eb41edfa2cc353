//! The campus-network traffic simulator.
//!
//! Stands in for the paper's closed 23-month border capture (DESIGN.md §1).
//! [`generate`] builds a synthetic world — public and private CAs, the four
//! root programs, a CT log, the university IP plan — then runs a set of
//! *scenarios*, each of which mints certificates and drives simulated TLS
//! handshakes through the `mtls-tlssim` passive monitor, producing exactly
//! the two Zeek log streams the paper's pipeline consumes.
//!
//! Every phenomenon the paper measures is planted by a scenario calibrated
//! to the published numbers (see [`targets`] for the constants, each
//! annotated with the paper's figure):
//!
//! * monthly mutual-TLS growth with the Oct–Dec 2023 health surge and the
//!   Rapid7 disappearance (Fig. 1),
//! * the inbound/outbound service-port mix (Table 2),
//! * inbound server associations and client issuer mixes (Table 3),
//! * outbound TLD/issuer flows (Fig. 2),
//! * dummy issuers (Table 4/10), dummy serial collisions (§5.1.2),
//! * same-connection and cross-connection certificate sharing (Tables 5–6),
//! * incorrect validity dates (Fig. 3, Tables 11–12),
//! * long/expired validity populations (Figs. 4–5),
//! * the CN/SAN content mix (Tables 7–9, 13–14),
//! * TLS interception (§3.2.1) and the TLS 1.3 blind spot (§3.3).
//!
//! All randomness flows from `SimConfig::seed`; the same `(seed, scale)`
//! yields a bit-identical corpus.
//!
//! # Example
//!
//! ```
//! use mtls_netsim::{generate, SimConfig};
//!
//! // A tiny deterministic corpus (the paper's full scale is `scale: 1.0`).
//! let cfg = SimConfig { seed: 42, scale: 0.01, ..SimConfig::default() };
//! let out = generate(&cfg);
//! assert!(out.ssl.iter().any(|r| r.is_mutual_tls()));
//! assert!(!out.x509.is_empty());
//! // Same seed and scale => bit-identical logs.
//! assert_eq!(generate(&cfg).ssl.len(), out.ssl.len());
//! ```

pub mod calendar;
pub mod certgen;
pub mod config;
pub mod emit;
pub mod ipplan;
pub mod scenarios;
pub mod targets;
pub mod world;

pub use calendar::Month;
pub use config::SimConfig;
pub use emit::{to_x509_record, Emitter, SimMeta, SimOutput};
pub use world::World;

use mtls_obs::{Obs, SpanId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run the full simulation: build the world, run every scenario, and return
/// the logs plus the out-of-band metadata the analysis pipeline needs.
pub fn generate(config: &SimConfig) -> SimOutput {
    generate_obs(config, &Obs::noop(), None)
}

/// [`generate`] with observability: a `netsim_generate` span under
/// `parent` with `world_build`, one `scenario_*` child per scenario, and
/// `emit_finish`, plus output-size counters. Instrumentation never touches
/// the RNG, so the corpus stays bit-identical for a given `(seed, scale)`.
pub fn generate_obs(config: &SimConfig, obs: &Obs, parent: Option<SpanId>) -> SimOutput {
    // Reject degenerate scales up front: a NaN or negative scale would
    // silently produce empty scenarios (see SimConfig::validate).
    if let Err(e) = config.validate() {
        panic!("invalid SimConfig: {e}");
    }
    let span = obs.span(parent, "netsim_generate");
    let gid = span.id();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let world = obs.time(gid, "world_build", || World::build(config));
    let mut emitter = Emitter::new(config);

    macro_rules! scenario {
        ($name:ident) => {
            obs.time(gid, concat!("scenario_", stringify!($name)), || {
                scenarios::$name::run(config, &world, &mut emitter, &mut rng)
            })
        };
    }
    scenario!(inbound);
    scenario!(outbound);
    scenario!(webrtc);
    scenario!(privservers);
    scenario!(tunnel);
    scenario!(dummies);
    scenario!(serials);
    scenario!(sharing);
    scenario!(dates);
    // The mid-run gossip observation consumes no randomness, so the
    // default corpus stays bit-identical with or without it; it sits
    // before the big CT-submitting scenarios so the recorded tree size is
    // strictly smaller than the final heads.
    scenario!(ct_gossip);
    scenario!(expired);
    scenario!(nonmtls);
    scenario!(interception);
    scenario!(malformed);
    // Gated adversarial CT scenarios (off by default; when disabled they
    // return before touching the RNG).
    scenario!(equivocating_log);
    scenario!(sct_strip);

    let out = obs.time(gid, "emit_finish", || emitter.finish(&world));
    span.finish();
    if obs.enabled() {
        obs.counter_add("netsim.ssl_records", out.ssl.len() as u64);
        obs.counter_add("netsim.x509_records", out.x509.len() as u64);
        obs.counter_add("netsim.ct_entries", out.ct.len() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_corpus_is_deterministic() {
        let cfg = SimConfig {
            seed: 7,
            scale: 0.01,
            ..SimConfig::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.ssl.len(), b.ssl.len());
        assert_eq!(a.x509.len(), b.x509.len());
        assert_eq!(
            a.ssl.first().map(|r| r.uid.clone()),
            b.ssl.first().map(|r| r.uid.clone())
        );
        // Different seed, different corpus.
        let c = generate(&SimConfig {
            seed: 8,
            scale: 0.01,
            ..SimConfig::default()
        });
        assert_ne!(
            a.ssl.iter().map(|r| r.uid.as_str()).collect::<Vec<_>>(),
            c.ssl.iter().map(|r| r.uid.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tiny_corpus_contains_mutual_and_plain_tls() {
        let cfg = SimConfig {
            seed: 1,
            scale: 0.02,
            ..SimConfig::default()
        };
        let out = generate(&cfg);
        let mutual = out.ssl.iter().filter(|r| r.is_mutual_tls()).count();
        let plain = out.ssl.iter().filter(|r| !r.is_mutual_tls()).count();
        assert!(mutual > 100, "mutual={mutual}");
        assert!(plain > 100, "plain={plain}");
        // Every fingerprint referenced in ssl.log exists in x509.log.
        let known: std::collections::HashSet<&str> =
            out.x509.iter().map(|c| c.fingerprint.as_str()).collect();
        for rec in &out.ssl {
            for fp in rec.cert_chain_fps.iter().chain(&rec.client_cert_chain_fps) {
                assert!(known.contains(fp.as_str()), "dangling fp {fp}");
            }
        }
    }
}
