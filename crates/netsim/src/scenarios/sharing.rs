//! Certificate sharing (Tables 5 & 6, §5.2).
//!
//! Same-connection sharing: one certificate presented by *both* endpoints
//! (Table 5's named populations; the Globus FXP bulk lives in
//! `scenarios::serials`). Cross-connection sharing: certificates that act
//! as server certs in some connections and client certs in others, spread
//! over /24 subnets with the heavy-tailed quantiles of Table 6.

use crate::certgen::{hostname, random_alnum, MintSpec, Usage};
use crate::config::SimConfig;
use crate::emit::{ConnSpec, Emitter};
use crate::scenarios::{mtls_version, pick_weighted, ts_in_window};
use crate::targets;
use crate::world::World;
use mtls_x509::Certificate;
use mtls_zeek::Ipv4;
use rand::Rng;

/// Run the scenario.
pub fn run(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    same_connection(config, world, em, rng);
    cross_connection(config, world, em, rng);
}

fn same_connection(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    for row in targets::SHARING_ROWS {
        let n_clients = config.scaled(row.clients);
        // One shared certificate per population: this is the point.
        let validity = (world.start.add_days(-30), world.start.add_days(760));
        let sni = (!row.sld.is_empty()).then(|| hostname(rng, row.sld));
        let cert: Certificate = if row.public_issuer {
            let ca = world.public_ca(row.issuer);
            let h = sni.as_deref().unwrap_or("shared.example.com");
            em.public_server_leaf(ca, validity, &[h], Usage::Both, rng)
        } else {
            let ca = world.private_ca(row.issuer);
            MintSpec::new(&ca, validity.0, validity.1)
                .cn(sni.clone().unwrap_or_else(|| random_alnum(rng, 10)))
                .usage(Usage::Both)
                .mint(rng)
        };

        let server_ip = if row.inbound {
            world.plan.servers.sample(rng)
        } else {
            world.plan.misc_external.sample(rng)
        };
        let port = if row.sld == "tablodash.com" {
            9093
        } else {
            443
        };
        for _ in 0..n_clients {
            let client_ip = if row.inbound {
                world.plan.external_clients.sample(rng)
            } else {
                world.plan.clients.sample(rng)
            };
            // A couple of connections per client inside the population's
            // duration-of-activity window.
            for _ in 0..rng.gen_range(1..=3) {
                let ts = ts_in_window(rng, row.duration_days);
                em.connection(
                    ConnSpec {
                        ts,
                        orig: client_ip,
                        resp: server_ip,
                        resp_port: port,
                        version: mtls_version(rng),
                        sni: sni.clone(),
                        server_chain: vec![&cert],
                        client_chain: vec![&cert],
                        established: true,
                        resumed: false,
                    },
                    rng,
                );
            }
        }
    }
}

/// Sample a subnet-spread count hitting Table 6's quantiles.
/// `client_role`: Client row (1 / 2 / 43 / 1851); else Server row
/// (1 / 1 / 7 / 217). Tail maxima are scaled.
fn spread_max(client_role: bool, config: &SimConfig) -> usize {
    if client_role {
        // Capped by the address plan (≤ 1 000 external /24s; paper 1,851).
        config.scaled(1_851).clamp(44, 1_000)
    } else {
        // ≤ 250 university /24s (paper 217).
        config.scaled(217).clamp(8, 250)
    }
}

fn subnet_spread(rng: &mut impl Rng, client_role: bool, config: &SimConfig) -> usize {
    let max = spread_max(client_role, config);
    let (head, mid, p99_tail, tail_share) = if client_role {
        // 50 % → 1, 25 % → 2, then up to the 43-at-p99 knee, with a small
        // far tail.
        (0.56, 0.26, 43usize, 0.004)
    } else {
        // 78 % → 1, then 2..=7 to the knee, a 0.5 % far tail.
        (0.80, 0.195, 7usize, 0.005)
    };
    let x: f64 = rng.gen();
    if x < head {
        1
    } else if x < head + mid {
        if client_role {
            2
        } else {
            rng.gen_range(2..=7)
        }
    } else if x < 1.0 - tail_share {
        if client_role {
            rng.gen_range(3..=p99_tail)
        } else {
            rng.gen_range(2..=7)
        }
    } else {
        rng.gen_range(p99_tail..=max)
    }
}

fn cross_connection(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    let n_certs = config.scaled(targets::CROSS_SHARED_CERTS);
    // §5.2.2 issuer mix: Let's Encrypt 51.58 %, DigiCert 14.34 %,
    // Sectigo 7.95 %, remainder private.
    let weights = [0.5158, 0.1434, 0.0795, 0.2613];
    let validity = (world.start.add_days(-30), world.start.add_days(760));

    // A small pooled client fleet for the server-role connections (so this
    // scenario does not flood the inbound client census), with the mixed
    // issuers Table 3's Third Party row shows.
    let pool: Vec<(mtls_zeek::Ipv4, Certificate)> = (0..config.scaled(20).max(2))
        .map(|i| {
            let cert = if i % 2 == 0 {
                let ca = &world.public_ca("Sectigo Limited").intermediate;
                MintSpec::new(ca, validity.0, validity.1)
                    .cn(hostname(rng, "partner-fleet.com"))
                    .usage(Usage::Client)
                    .mint(rng)
            } else {
                let ca = world.private_ca("AgentMesh");
                MintSpec::new(&ca, validity.0, validity.1)
                    .cn(random_alnum(rng, 12))
                    .mint(rng)
            };
            (world.plan.external_clients.sample(rng), cert)
        })
        .collect();

    for i in 0..n_certs {
        let which = pick_weighted(rng, &weights);
        let host = hostname(rng, "shared-svc.com");
        let cert = if which < 3 {
            let org = ["Let's Encrypt", "DigiCert Inc", "Sectigo Limited"][which];
            em.public_server_leaf(world.public_ca(org), validity, &[&host], Usage::Both, rng)
        } else {
            let ca = world.private_ca("MeshWorks");
            MintSpec::new(&ca, validity.0, validity.1)
                .cn(host.clone())
                .usage(Usage::Both)
                .mint(rng)
        };

        // As a server: the cert sits on hosts in `n_srv` distinct /24s.
        // The first certificate is the deterministic 100th-percentile
        // outlier (the paper's Table 6 maxima are single extremal certs).
        let n_srv = if i == 0 {
            spread_max(false, config)
        } else {
            subnet_spread(rng, false, config)
        };
        for s in 0..n_srv {
            let resp = Ipv4(world.plan.university.network.0 + ((s as u32 % 250) << 8) + 10);
            let client = &pool[rng.gen_range(0..pool.len())];
            em.connection(
                ConnSpec {
                    ts: ts_in_window(rng, 700),
                    orig: client.0,
                    resp,
                    resp_port: 443,
                    version: mtls_version(rng),
                    sni: Some(host.clone()),
                    server_chain: vec![&cert],
                    client_chain: vec![&client.1],
                    established: true,
                    resumed: false,
                },
                rng,
            );
        }

        // As a client: the cert roams across `n_cli` distinct /24s.
        let n_cli = if i == 1 {
            spread_max(true, config)
        } else {
            subnet_spread(rng, true, config)
        };
        let some_server_ca = world.private_ca("MeshWorks");
        let server = MintSpec::new(&some_server_ca, validity.0, validity.1)
            .cn(hostname(rng, "shared-svc.com"))
            .usage(Usage::Server)
            .mint(rng);
        let server_ip = world.plan.misc_external.sample(rng);
        for s in 0..n_cli {
            let orig = if s < 64 {
                Ipv4(world.plan.clients.network.0 + ((s as u32) << 8) + 20)
            } else {
                Ipv4(world.plan.external_clients.network.0 + (((s as u32 - 64) % 1_000) << 8) + 20)
            };
            em.connection(
                ConnSpec {
                    ts: ts_in_window(rng, 700),
                    orig,
                    resp: server_ip,
                    resp_port: 443,
                    version: mtls_version(rng),
                    sni: Some(server.subject().common_name().expect("cn set").to_string()),
                    server_chain: vec![&server],
                    client_chain: vec![&cert],
                    established: true,
                    resumed: false,
                },
                rng,
            );
        }
    }
}
