//! Expired client certificates in successfully established connections
//! (Fig. 5, §5.3.3) plus the extreme-validity populations of Fig. 4
//! (§5.3.2): 10 000–40 000-day client certs and the single 83 432-day
//! outlier associated with tmdxdev.com.

use crate::certgen::random_uuid;
use crate::certgen::{hostname, random_alnum, MintSpec, Usage};
use crate::config::SimConfig;
use crate::emit::{ConnSpec, Emitter};
use crate::scenarios::{mtls_version, pick_weighted, ts_in_window};
use crate::targets;
use crate::world::{World, APPLE_DEVICE_ISSUER};
use mtls_x509::DistinguishedName;
use rand::Rng;

/// Run the scenario.
pub fn run(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    expired_outbound_cluster(world, em, rng);
    expired_inbound(config, world, em, rng);
    long_validity(config, world, em, rng);
}

/// Fig. 5b: the tight cluster — Apple-issued client certs, expired about
/// 1 000 days at first observation, talking to apple.com; plus two
/// Microsoft ones (azure.com / azure-automation.net).
fn expired_outbound_cluster(world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    let apple_ca = &world.public_ca(APPLE_DEVICE_ISSUER).intermediate;
    // Planted verbatim (already 1/10 of the paper's 337); the cluster must
    // dominate the two Microsoft certs at every scale.
    let n_apple = targets::EXPIRED_APPLE_CLIENTS;
    let server_validity = (world.start.add_days(-30), world.start.add_days(760));
    let server_host = "gs.apple.com";
    let server_cert = em.public_server_leaf(
        world.public_ca("Apple Inc."),
        server_validity,
        &[server_host],
        Usage::Server,
        rng,
    );
    let server_ip = world.plan.apple.sample(rng);

    for _ in 0..n_apple {
        // Expired ~1000 days before the study starts (±90).
        let expiry = world.start.add_days(-(1_000 + rng.gen_range(-90..90)));
        let cert = MintSpec::new(apple_ca, expiry.add_days(-365), expiry)
            .cn(random_uuid(rng))
            .usage(Usage::Client)
            .mint(rng);
        let client_ip = world.plan.nat.sample(rng);
        let duration = rng.gen_range(30..700);
        for _ in 0..rng.gen_range(2..6) {
            em.connection(
                ConnSpec {
                    ts: ts_in_window(rng, duration),
                    orig: client_ip,
                    resp: server_ip,
                    resp_port: 443,
                    version: mtls_version(rng),
                    sni: Some(server_host.to_string()),
                    server_chain: vec![&server_cert],
                    client_chain: vec![&cert],
                    established: true,
                    resumed: false,
                },
                rng,
            );
        }
    }

    // The two Microsoft certificates.
    let ms = world.public_ca("Microsoft Corporation");
    for (i, sld) in ["azure.com", "azure-automation.net"]
        .iter()
        .enumerate()
        .take(targets::EXPIRED_MICROSOFT_CLIENTS)
    {
        let expiry = world.start.add_days(-(1_000 + i as i64 * 13));
        let cert = MintSpec::new(&ms.intermediate, expiry.add_days(-365), expiry)
            .cn("Hybrid Runbook Worker")
            .usage(Usage::Client)
            .mint(rng);
        let host = hostname(rng, sld);
        let server_cert = em.public_server_leaf(ms, server_validity, &[&host], Usage::Server, rng);
        for _ in 0..5 {
            em.connection(
                ConnSpec {
                    ts: ts_in_window(rng, 400),
                    orig: world.plan.nat.sample(rng),
                    resp: world.plan.microsoft.sample(rng),
                    resp_port: 443,
                    version: mtls_version(rng),
                    sni: Some(host.clone()),
                    server_chain: vec![&server_cert],
                    client_chain: vec![&cert],
                    established: true,
                    resumed: false,
                },
                rng,
            );
        }
    }
}

/// A campus-issued server for one inbound association.
fn mk_server(world: &World, sld: &str, rng: &mut impl Rng) -> (String, mtls_x509::Certificate) {
    let host = hostname(rng, sld);
    let cert = MintSpec::new(
        &world.campus_server_ca,
        world.start.add_days(-30),
        world.start.add_days(760),
    )
    .cn(host.clone())
    .usage(Usage::Server)
    .mint(rng);
    (host, cert)
}

/// Fig. 5a: inbound expired client certs, broadly scattered; server
/// associations VPN 45.83 %, Local Organization 32.79 %, Third Party
/// 15.38 %, other 6 %.
fn expired_inbound(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    let n = config.scaled(targets::EXPIRED_INBOUND_TOTAL);
    // Deterministic proportional allocation (Fig. 5a's mix survives any
    // scale): VPN 45.83 %, Local Organization 32.79 %, Third Party 15.38 %.
    let shares = [0.4583, 0.3279, 0.1538, 0.06];
    let mut alloc = [0usize; 4];
    let mut assigned = 0usize;
    let mut acc = 0.0;
    for (i, share) in shares.iter().enumerate() {
        acc += share / shares.iter().sum::<f64>();
        let target = ((acc * n as f64).round() as usize).min(n);
        alloc[i] = target - assigned;
        assigned = target;
    }

    // One server per association.
    let vpn = mk_server(world, "campus-vpn.net", rng);
    let localorg = mk_server(world, "localorg-a.org", rng);
    let thirdparty = mk_server(world, "vendor-cloud.com", rng);
    let other = mk_server(world, "campus-main.edu", rng);

    let order: Vec<usize> = alloc
        .iter()
        .enumerate()
        .flat_map(|(i, &count)| std::iter::repeat_n(i, count))
        .collect();
    for which in order {
        let (host, server_cert, server_ip) = match which {
            0 => (&vpn.0, &vpn.1, world.plan.vpn.sample(rng)),
            1 => (&localorg.0, &localorg.1, world.plan.servers.sample(rng)),
            2 => (&thirdparty.0, &thirdparty.1, world.plan.servers.sample(rng)),
            _ => (&other.0, &other.1, world.plan.servers.sample(rng)),
        };
        // Broad expiry scatter: 10–1400 days expired at first observation,
        // mixed public/private issuers (Fig. 5a marginals).
        let expired_days = rng.gen_range(10..1_400);
        let expiry = world.start.add_days(-expired_days);
        let cert = if rng.gen_bool(0.35) {
            let pub_ca = &world.public_cas[rng.gen_range(0..6)].intermediate;
            MintSpec::new(pub_ca, expiry.add_days(-730), expiry)
                .cn(hostname(rng, "fleet-devices.net"))
                .usage(Usage::Client)
                .mint(rng)
        } else {
            let ca = world.private_ca("");
            MintSpec::new(&ca, expiry.add_days(-730), expiry)
                .cn(random_alnum(rng, 12))
                .issuer_override(DistinguishedName::empty())
                .mint(rng)
        };
        let client_ip = world.plan.external_clients.sample(rng);
        let duration = rng.gen_range(1..700);
        for _ in 0..rng.gen_range(1..4) {
            em.connection(
                ConnSpec {
                    ts: ts_in_window(rng, duration),
                    orig: client_ip,
                    resp: server_ip,
                    resp_port: 443,
                    version: mtls_version(rng),
                    sni: Some(host.clone()),
                    server_chain: vec![server_cert],
                    client_chain: vec![&cert],
                    established: true,
                    resumed: false,
                },
                rng,
            );
        }
    }
}

/// Fig. 4's extremes: 10 000–40 000-day client certs (issuers: empty
/// 45.73 %, corporations 37.58 %, dummy 7.61 %, rest others) and the
/// 83 432-day tmdxdev.com outlier.
fn long_validity(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    let n = config.scaled(targets::VERY_LONG_VALIDITY_CLIENTS);
    let issuer_weights = [0.4573, 0.3758, 0.0761, 0.0908];

    let server_ca = world.public_ca("Let's Encrypt");
    let server_validity = (world.start.add_days(-30), world.start.add_days(760));
    // TLD mix of these certs: com 32.84 %, net 35.38 %, missing SNI 28.06 %.
    let slds = ["legacy-scada.com", "plant-metrics.net", ""];
    let sld_weights = [0.3284, 0.3538, 0.2806];

    for _ in 0..n {
        let which = pick_weighted(rng, &issuer_weights);
        let nb = world.start.add_days(-rng.gen_range(100..3_000));
        let na = nb.add_days(rng.gen_range(10_000..40_000));
        let cert = match which {
            0 => {
                let ca = world.private_ca("");
                MintSpec::new(&ca, nb, na)
                    .cn(random_alnum(rng, 12))
                    .issuer_override(DistinguishedName::empty())
                    .mint(rng)
            }
            1 => {
                let ca = world.private_ca("Blue Ridge Instruments Inc");
                MintSpec::new(&ca, nb, na)
                    .cn(random_alnum(rng, 12))
                    .mint(rng)
            }
            2 => {
                let ca = world.private_ca("Internet Widgits Pty Ltd");
                MintSpec::new(&ca, nb, na)
                    .cn(random_alnum(rng, 12))
                    .org("Internet Widgits Pty Ltd")
                    .mint(rng)
            }
            _ => {
                let ca = world.private_ca("telemetryd");
                MintSpec::new(&ca, nb, na)
                    .cn(random_alnum(rng, 12))
                    .mint(rng)
            }
        };
        let si = pick_weighted(rng, &sld_weights);
        let sld = slds[si];
        let (sni, server_cert) = if sld.is_empty() {
            let ca = world.private_ca("NodeRunner");
            (
                None,
                MintSpec::new(&ca, server_validity.0, server_validity.1)
                    .cn(random_alnum(rng, 10))
                    .mint(rng),
            )
        } else {
            let host = hostname(rng, sld);
            let c = em.public_server_leaf(server_ca, server_validity, &[&host], Usage::Server, rng);
            (Some(host), c)
        };
        em.connection(
            ConnSpec {
                ts: ts_in_window(rng, 700),
                orig: world.plan.clients.sample(rng),
                resp: world.plan.misc_external.sample(rng),
                resp_port: 443,
                version: mtls_version(rng),
                sni,
                server_chain: vec![&server_cert],
                client_chain: vec![&cert],
                established: true,
                resumed: false,
            },
            rng,
        );
    }

    // The 228-year outlier (planted verbatim).
    let ca = world.private_ca("TMDX Devices Inc");
    let nb = world.start.add_days(-500);
    let outlier = MintSpec::new(&ca, nb, nb.add_days(targets::LONGEST_VALIDITY_DAYS))
        .cn("tmdx-dev-gateway")
        .usage(Usage::Client)
        .mint(rng);
    let host = hostname(rng, "tmdxdev.com");
    let server = em.public_server_leaf(
        world.public_ca("DigiCert Inc"),
        server_validity,
        &[&host],
        Usage::Server,
        rng,
    );
    for _ in 0..3 {
        em.connection(
            ConnSpec {
                ts: ts_in_window(rng, 300),
                orig: world.plan.clients.sample(rng),
                resp: world.plan.misc_external.sample(rng),
                resp_port: 443,
                version: mtls_version(rng),
                sni: Some(host.clone()),
                server_chain: vec![&server],
                client_chain: vec![&outlier],
                established: true,
                resumed: false,
            },
            rng,
        );
    }
}
