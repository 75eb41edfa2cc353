//! An equivocating CT log (§3.2 hardening).
//!
//! A middlebox vendor compromises the log endpoint the campus border
//! monitor queries: the view served *inside* the border carries fabricated
//! entries vouching for the proxy's certificates, while the external
//! monitor keeps seeing the honest log. The legacy bare-issuer comparison
//! is defeated — the campus CT view really does list the proxy issuer for
//! the intercepted domains — but the two vantage points' tree heads cannot
//! be proven consistent, so the gossip audit flags the split view and the
//! verified filter distrusts the fabricated entries, re-excluding the
//! proxy certificates.
//!
//! Counts are deliberately fixed (not scaled): they are planted ground
//! truth that integration tests assert exactly.

use crate::certgen::{hostname, MintSpec, Usage};
use crate::config::SimConfig;
use crate::emit::{ConnSpec, Emitter};
use crate::scenarios::{plainish_version, ts_in_window};
use crate::world::World;
use mtls_pki::ctlog::CtEntry;
use rand::Rng;

/// Proxy certificates minted by the colluding vendor.
pub const PROXY_CERTS: usize = 4;
/// Connections emitted per proxy certificate.
pub const CONNS_PER_CERT: usize = 3;
/// The colluding vendor's issuer organization.
pub const PROXY_ISSUER_ORG: &str = "GhostGate Inspection CA";

/// Run the scenario.
pub fn run(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    if !config.include_ct_equivocation {
        return;
    }
    // Domains whose *real* certificates are CT-logged by
    // `scenarios::nonmtls` — the same overlap requirement as
    // `scenarios::interception`, so the honest log genuinely knows these
    // names under public issuers.
    let slds = [
        "popular-video.com",
        "search-portal.com",
        "social-feed.com",
        "news-hub.org",
    ];
    let ca = world.private_ca(PROXY_ISSUER_ORG);
    let validity = (world.start.add_days(-10), world.start.add_days(760));

    let mut fork = Vec::new();
    for i in 0..PROXY_CERTS {
        let sld = slds[i % slds.len()];
        let host = hostname(rng, sld);
        let cert = MintSpec::new(&ca, validity.0, validity.1)
            .cn(host.clone())
            .san_dns(&[&host, sld])
            .usage(Usage::Server)
            .mint(rng);
        // The fabricated campus-view entries: CT "confirms" the proxy
        // issuer for both the exact host and the registered domain.
        let issuer = cert.issuer().to_display_string();
        let fp = cert.fingerprint().to_fp();
        for domain in [host.clone(), sld.to_string()] {
            fork.push(CtEntry {
                domain,
                issuer_display: issuer.clone(),
                fingerprint: fp,
            });
        }
        for _ in 0..CONNS_PER_CERT {
            em.connection(
                ConnSpec {
                    ts: ts_in_window(rng, 700),
                    orig: world.plan.nat.sample(rng),
                    resp: world.plan.misc_external.sample(rng),
                    resp_port: 443,
                    version: plainish_version(rng),
                    sni: Some(host.clone()),
                    server_chain: vec![&cert],
                    client_chain: vec![],
                    established: true,
                    resumed: false,
                },
                rng,
            );
        }
    }
    em.plant_ct_fork(fork);
}
