//! Plain (non-mutual) TLS strata: Figure 1's denominator, Table 2's
//! right half, Table 14's certificate content, and the TLS 1.3 blind spot
//! (§3.3 — 40.86 % of connections log no certificates at all).

use crate::calendar::{self, Month};
use crate::certgen::{self, hostname, MintSpec, Usage};
use crate::config::SimConfig;
use crate::emit::{ConnSpec, Emitter};
use crate::scenarios::{pick_weighted, spread_ts};
use crate::targets;
use crate::world::World;
use mtls_x509::Certificate;
use mtls_zeek::{Ipv4, TlsVersion};
use rand::Rng;

/// Version mix for plain TLS, with the paper's 1.3 share.
fn plain_version(rng: &mut impl Rng) -> TlsVersion {
    match pick_weighted(rng, &[targets::TLS13_SHARE, 0.55, 0.03, 0.01]) {
        0 => TlsVersion::Tls13,
        1 => TlsVersion::Tls12,
        2 => TlsVersion::Tls11,
        _ => TlsVersion::Tls10,
    }
}

struct Site {
    ip: Ipv4,
    host: String,
    /// One certificate per ~90-day issuance epoch: real public CAs rotate
    /// (Let's Encrypt renews every 60–90 days), which is what makes the
    /// non-mTLS stratum dominate the unique-certificate census (Table 1).
    certs: Vec<Certificate>,
}

/// Issuance epoch of a timestamp (90-day windows from the study start).
fn epoch_of(ts: f64, start: f64) -> usize {
    (((ts - start) / 86_400.0 / 90.0).floor().max(0.0) as usize).min(7)
}

/// Table 14: private-CA server certificate content for non-mTLS.
fn private_server_cn(rng: &mut impl Rng, q: &mut Table14Quotas) -> String {
    if q.user_accounts > 0 {
        q.user_accounts -= 1;
        return certgen::user_account(rng);
    }
    if q.personal_names > 0 {
        q.personal_names -= 1;
        return certgen::person_name(rng);
    }
    if q.sip > 0 {
        q.sip -= 1;
        return certgen::sip_address(rng);
    }
    if q.localhost > 0 {
        q.localhost -= 1;
        return "localhost.localdomain".to_string();
    }
    // Table 14 private CN mix: Org/Product 73.56 %, Domain 13.27 %,
    // Unidentified 11.02 % (39 % of those non-random: 'hmpp', 'Dtls'…).
    match pick_weighted(rng, &[0.7356, 0.1327, 0.1102, 0.0215]) {
        0 => {
            ["WebRTC", "twilio", "hangouts", "Lenovo ThinkCentre"][rng.gen_range(0..4)].to_string()
        }
        1 => hostname(rng, "intranet-apps.net"),
        2 => {
            if rng.gen_bool(0.39) {
                ["hmpp", "Dtls", "__transfer__"][rng.gen_range(0..3)].to_string()
            } else {
                certgen::random_hex(rng, 32)
            }
        }
        _ => format!(
            "{}.{}.{}.{}",
            rng.gen_range(1..255),
            rng.gen_range(0..255),
            rng.gen_range(0..255),
            rng.gen_range(1..255)
        ),
    }
}

struct Table14Quotas {
    user_accounts: usize,
    personal_names: usize,
    sip: usize,
    localhost: usize,
}

/// Run the scenario.
pub fn run(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    if !config.include_non_mtls {
        return;
    }
    let mut quotas = Table14Quotas {
        user_accounts: config.scaled(3),
        personal_names: config.scaled(8),
        sip: config.scaled(26),
        localhost: config.scaled(6),
    };

    outbound(config, world, em, rng, &mut quotas);
    inbound(config, world, em, rng, &mut quotas);
}

#[allow(clippy::too_many_arguments)] // a scenario-local helper, not API
fn build_sites(
    n: usize,
    public_share: f64,
    inbound: bool,
    sld_pool: &[&str],
    world: &World,
    em: &mut Emitter,
    rng: &mut impl Rng,
    quotas: &mut Table14Quotas,
) -> Vec<Site> {
    (0..n)
        .map(|_| {
            let sld = sld_pool[rng.gen_range(0..sld_pool.len())];
            let host = hostname(rng, sld);
            let ip = if inbound {
                world.plan.servers.sample(rng)
            } else {
                world.plan.misc_external.sample(rng)
            };
            let certs: Vec<Certificate> = if rng.gen_bool(public_share) {
                // Public CA mix follows real market shape: LE-heavy, and
                // rotated every ~90 days.
                let orgs = [
                    "Let's Encrypt",
                    "Let's Encrypt",
                    "DigiCert Inc",
                    "Sectigo Limited",
                    "GoDaddy.com, Inc",
                    "Amazon Trust Services",
                ];
                let ca = world.public_ca(orgs[rng.gen_range(0..orgs.len())]);
                (0..8)
                    .map(|e| {
                        let nb = world.start.add_days(e * 90 - 10);
                        let validity = (nb, nb.add_days(100));
                        em.public_server_leaf(ca, validity, &[&host, sld], Usage::Server, rng)
                    })
                    .collect()
            } else {
                // Private non-mTLS servers: the Table 14 population. They
                // rotate too (device firmware reissues), with the same CN.
                let ca =
                    world.private_ca(["NodeRunner", "intranet-ca", "DvTel"][rng.gen_range(0..3)]);
                let cn = private_server_cn(rng, quotas);
                let with_san = rng.gen_bool(0.105); // Table 14a: 10.54 %
                (0..8)
                    .map(|e| {
                        let nb = world.start.add_days(e * 90 - 10);
                        let mut spec = MintSpec::new(&ca, nb, nb.add_days(400)).cn(cn.clone());
                        if with_san {
                            let h2 = hostname(rng, "intranet-apps.net");
                            spec = spec.san_dns(&[&h2]);
                        }
                        spec.mint(rng)
                    })
                    .collect()
            };
            Site { ip, host, certs }
        })
        .collect()
}

fn outbound(
    config: &SimConfig,
    world: &World,
    em: &mut Emitter,
    rng: &mut impl Rng,
    quotas: &mut Table14Quotas,
) {
    let total = config.scaled(targets::NON_MTLS_OUTBOUND);
    // Table 2 non-mTLS outbound ports: 443 99.15 %, 993 0.44 %,
    // 8883 0.05 %, 25 0.04 %, 3128 0.03 %, tail 0.29 %.
    let ports: [(u16, f64); 6] = [
        (443, 0.9915),
        (993, 0.0044),
        (8883, 0.0005),
        (25, 0.0004),
        (3128, 0.0003),
        (8443, 0.0029),
    ];
    let slds = [
        "popular-video.com",
        "search-portal.com",
        "social-feed.com",
        "news-hub.org",
        "cdn-metrics.com",
        "shop-central.com",
        "apple.com",
        "azure.com",
        "mail-host.net",
        "stream-cdn.net",
        "git-forge.io",
        "docs-suite.com",
    ];
    let sites = build_sites(
        config.scaled(3_500),
        0.85,
        false,
        &slds,
        world,
        em,
        rng,
        quotas,
    );
    let months = Month::study_months();
    let spread = calendar::spread_over_months(total, calendar::non_mtls_month_weight);

    for k in 0..total {
        let ts = spread_ts(rng, k, &spread, &months);
        let site = &sites[rng.gen_range(0..sites.len())];
        let port = ports[pick_weighted(rng, &ports.map(|(_, w)| w))].0;
        let version = plain_version(rng);
        // Browsers resume aggressively: a quarter of cleartext repeat
        // visits are abbreviated handshakes showing no certificate.
        let resumed = version != TlsVersion::Tls13 && rng.gen_bool(0.25);
        em.connection(
            ConnSpec {
                ts,
                orig: if rng.gen_bool(0.8) {
                    world.plan.nat.sample(rng)
                } else {
                    world.plan.clients.sample(rng)
                },
                resp: site.ip,
                resp_port: port,
                version,
                sni: Some(site.host.clone()),
                server_chain: vec![&site.certs[epoch_of(ts, world.start.unix() as f64)]],
                client_chain: vec![],
                established: rng.gen_bool(0.97),
                resumed,
            },
            rng,
        );
    }
}

fn inbound(
    config: &SimConfig,
    world: &World,
    em: &mut Emitter,
    rng: &mut impl Rng,
    quotas: &mut Table14Quotas,
) {
    let total = config.scaled(targets::NON_MTLS_INBOUND);
    // Table 2 non-mTLS inbound: 443 85.18 %, 25 2.35 %, 33854 DvTel 2.26 %,
    // 8443 2.22 %, 52730 1.98 %, tail 6.01 %.
    let ports: [(u16, f64); 6] = [
        (443, 0.8518),
        (25, 0.0235),
        (33_854, 0.0226),
        (8443, 0.0222),
        (52_730, 0.0198),
        (9443, 0.0601),
    ];
    let slds = [
        "campus-main.edu",
        "univ-apps.com",
        "campus-health.org",
        "localorg-a.org",
    ];
    let sites = build_sites(
        config.scaled(2_200),
        0.80,
        true,
        &slds,
        world,
        em,
        rng,
        quotas,
    );
    let months = Month::study_months();
    let spread = calendar::spread_over_months(total, calendar::non_mtls_month_weight);

    for k in 0..total {
        let ts = spread_ts(rng, k, &spread, &months);
        let site = &sites[rng.gen_range(0..sites.len())];
        let port = ports[pick_weighted(rng, &ports.map(|(_, w)| w))].0;
        // DvTel and the unknown 52730 service hide behind private certs and
        // often no SNI.
        let sni = if port == 33_854 || port == 52_730 {
            None
        } else {
            Some(site.host.clone())
        };
        em.connection(
            ConnSpec {
                ts,
                orig: world.plan.external_clients.sample(rng),
                resp: site.ip,
                resp_port: port,
                version: plain_version(rng),
                sni,
                server_chain: vec![&site.certs[epoch_of(ts, world.start.unix() as f64)]],
                client_chain: vec![],
                established: rng.gen_bool(0.96),
                resumed: false,
            },
            rng,
        );
    }
}
