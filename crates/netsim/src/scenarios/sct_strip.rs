//! An SCT-stripping middlebox (§3.2 hardening).
//!
//! A site operator holds two certificates from the same public CA for the
//! same FQDN; only one was CT-logged. A middlebox on the path strips SCTs
//! and serves the *unlogged* twin — same issuer, same names, different
//! fingerprint. Bare issuer comparison cannot see anything wrong (the
//! issuer matches CT exactly); the verified filter's exact-FQDN stage
//! catches it: verified CT knows the precise host under this issuer, yet
//! the presented fingerprint was never logged.
//!
//! Counts are deliberately fixed (not scaled): they are planted ground
//! truth that integration tests assert exactly.

use crate::certgen::Usage;
use crate::config::SimConfig;
use crate::emit::{ConnSpec, Emitter};
use crate::scenarios::{plainish_version, ts_in_window};
use crate::world::World;
use rand::Rng;

/// Connections served with the stripped (unlogged) twin certificate.
pub const STRIP_CONNS: usize = 5;
/// The victim FQDN. Its registered domain appears nowhere else in the
/// simulation, so exact-count assertions can key on it.
pub const STRIP_HOST: &str = "portal.strip-target.com";

/// Run the scenario.
pub fn run(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    if !config.include_sct_strip {
        return;
    }
    let ca = world.public_ca("Let's Encrypt");
    let nb = world.start.add_days(-10);
    let validity = (nb, nb.add_days(100));
    let names = [STRIP_HOST, "strip-target.com"];
    // The legitimate, CT-logged certificate. It is never presented on the
    // wire — the middlebox always swaps in the twin.
    em.public_server_leaf(ca, validity, &names, Usage::Server, rng);
    // Same CA, same names, fresh key/serial — and never logged.
    let twin = em.unlogged_public_server_leaf(ca, validity, &names, Usage::Server, rng);
    for _ in 0..STRIP_CONNS {
        em.connection(
            ConnSpec {
                ts: ts_in_window(rng, 700),
                orig: world.plan.nat.sample(rng),
                resp: world.plan.misc_external.sample(rng),
                resp_port: 443,
                version: plainish_version(rng),
                sni: Some(STRIP_HOST.to_string()),
                server_chain: vec![&twin],
                client_chain: vec![],
                established: true,
                resumed: false,
            },
            rng,
        );
    }
}
