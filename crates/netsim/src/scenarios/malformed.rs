//! ParsEval-class malformed certificates planted into campus traffic.
//!
//! Real monitors see certificate blobs that are not valid DER — truncated
//! handshakes, buggy embedded stacks, fuzzing probes. Zeek logs the
//! connection either way and simply omits the x509 row; the pipeline must
//! do the same without crashing or corrupting analyzer counts. This
//! scenario is the end-to-end fixture for that path: it corrupts freshly
//! minted certificates with the deformity families the conformance
//! harness mutates (truncation, length corruption, indefinite lengths,
//! tag swaps, sign characters in time strings) and emits them through the
//! normal handshake machinery.
//!
//! Gated behind [`SimConfig::include_malformed`] and **off by default**:
//! `run` returns before touching `rng` when disabled, so the calibrated
//! default corpus stays bit-identical.

use crate::certgen::{random_alnum, MintSpec, Usage};
use crate::config::SimConfig;
use crate::emit::{Emitter, RawConnSpec};
use crate::scenarios::{mtls_version, ts_in_window};
use crate::targets;
use crate::world::World;
use mtls_x509::Certificate;
use rand::Rng;

/// Run the scenario.
pub fn run(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    if !config.include_malformed {
        return;
    }
    let ca = world.private_ca("Fieldbus Conformance Lab");
    let conns = config.scaled(targets::MALFORMED_CONNS);
    for k in 0..conns {
        let t0 = world.start.add_days(rng.gen_range(0..600));
        let server = MintSpec::new(&ca, t0, t0.add_days(90))
            .cn(format!("plc-{}.conformance-lab.net", random_alnum(rng, 6)))
            .usage(Usage::Server)
            .mint(rng);
        let client = MintSpec::new(&ca, t0, t0.add_days(90))
            .cn(format!("probe-{}", random_alnum(rng, 8)))
            .usage(Usage::Client)
            .mint(rng);
        // Alternate which side of the handshake carries the broken blob so
        // both intern paths (server and client chains) see parse failures.
        let (server_chain, client_chain) = if k % 2 == 0 {
            (
                vec![corrupt(server.to_der(), k, rng)],
                vec![client.to_der()],
            )
        } else {
            (
                vec![server.to_der()],
                vec![corrupt(client.to_der(), k, rng)],
            )
        };
        em.connection_raw(
            RawConnSpec {
                ts: ts_in_window(rng, 700),
                orig: world.plan.clients.sample(rng),
                resp: world.plan.servers.sample(rng),
                resp_port: 443,
                version: mtls_version(rng),
                sni: Some("plc-gw.conformance-lab.net".to_string()),
                server_chain,
                client_chain,
                established: true,
                resumed: false,
            },
            rng,
        );
    }
}

/// Apply one deformity, cycling through the families by connection index.
/// The result is guaranteed not to parse: a mutation that happens to
/// survive `Certificate::from_der` falls back to truncation.
fn corrupt(mut der: Vec<u8>, k: usize, rng: &mut impl Rng) -> Vec<u8> {
    match k % 6 {
        // Truncation: the outer length now overruns the buffer.
        0 => {
            let keep = rng.gen_range(4..der.len() / 2);
            der.truncate(keep);
        }
        // Length-field corruption: off-by-one in the outer SEQUENCE's last
        // length byte, so the declared and actual sizes disagree.
        1 => {
            let idx = if der[1] & 0x80 != 0 {
                1 + (der[1] & 0x7F) as usize
            } else {
                1
            };
            der[idx] = der[idx].wrapping_add(1);
        }
        // Indefinite length: legal BER, forbidden in DER.
        2 => der[1] = 0x80,
        // Tag swap: the outer SEQUENCE becomes a SET.
        3 => der[0] = 0x31,
        // Sign character in a time string — the exact bug class the time
        // parser's digit check covers. Validity dates minted here fall in
        // the UTCTime range, so the `17 0D` prefix is present.
        4 => {
            if let Some(i) = der.windows(2).position(|w| w == [0x17, 0x0D]) {
                der[i + 2] = b'+';
            }
        }
        // High-bit flip somewhere past the header; this one can survive
        // parsing (e.g. inside a string), in which case the fallback
        // below kicks in.
        _ => {
            let i = rng.gen_range(2..der.len());
            der[i] ^= 0x80;
        }
    }
    if Certificate::from_der(&der).is_ok() {
        der.truncate(der.len() / 2);
    }
    debug_assert!(
        Certificate::from_der(&der).is_err(),
        "deformity {} still parses",
        k % 6
    );
    der
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_deformity_family_fails_to_parse() {
        let config = SimConfig {
            scale: 0.05,
            include_malformed: true,
            ..SimConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let world = World::build(&config);
        let ca = world.private_ca("Fieldbus Conformance Lab");
        let t0 = world.start.add_days(10);
        for k in 0..24 {
            let cert = MintSpec::new(&ca, t0, t0.add_days(90))
                .cn(format!("unit-{k}"))
                .mint(&mut rng);
            let broken = corrupt(cert.to_der(), k, &mut rng);
            assert!(Certificate::from_der(&broken).is_err(), "k={k}");
        }
    }

    #[test]
    fn disabled_scenario_draws_no_rng() {
        let config = SimConfig {
            scale: 0.01,
            ..SimConfig::default()
        };
        let world = World::build(&config);
        let mut em = crate::emit::Emitter::new(&config);
        let mut rng = StdRng::seed_from_u64(9);
        run(&config, &world, &mut em, &mut rng);
        // The RNG stream must be untouched when the gate is off.
        let mut fresh = StdRng::seed_from_u64(9);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
        assert_eq!(em.connections(), 0);
    }
}
