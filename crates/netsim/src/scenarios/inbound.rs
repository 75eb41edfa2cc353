//! Bulk inbound mutual TLS (Tables 2 & 3, the Fig. 1 inbound series).
//!
//! Iterates the joint (association, port) rows of `targets::INBOUND_ROWS`,
//! building per-association server fleets and client pools whose issuer
//! mixes reproduce Table 3, then spreads connections over the study months
//! with the health surge.

use crate::certgen::{hostname, random_alnum, MintSpec, Usage};
use crate::config::SimConfig;
use crate::emit::{ConnSpec, Emitter};
use crate::scenarios::{mtls_spread, mtls_version, pick_weighted, spread_ts};
use crate::targets;
use crate::world::World;
use mtls_x509::{Certificate, DistinguishedName};
use mtls_zeek::Ipv4;
use rand::Rng;

struct Server {
    ip: Ipv4,
    sni: Option<String>,
    cert: Certificate,
}

struct Client {
    ip: Ipv4,
    cert: Certificate,
}

/// Client issuer mix per association, as conn-level fractions:
/// (education, missing, public, corporation, others).
fn client_mix(assoc: &str) -> [f64; 5] {
    match assoc {
        // Table 3 rows (primary/secondary shares, remainder to others).
        "health" => [0.985, 0.0, 0.010, 0.0, 0.005],
        "server" => [0.0, 0.958, 0.037, 0.0, 0.005],
        "vpn" => [0.9999, 0.0, 0.0001, 0.0, 0.0],
        "localorg" => [0.0, 0.0, 0.966, 0.0132, 0.0208],
        "thirdparty" => [0.0, 0.10, 0.3725, 0.05, 0.4795],
        "globus" => [0.9383, 0.0, 0.0, 0.0, 0.0617],
        _ => [0.0, 0.8734, 0.0027, 0.0, 0.1239], // unknown
    }
}

fn association_sld(assoc: &str) -> Option<&'static str> {
    match assoc {
        "health" => Some("campus-health.org"),
        "server" => Some("campus-main.edu"),
        "vpn" => Some("campus-vpn.net"),
        "localorg" => Some("localorg-a.org"),
        "thirdparty" => Some("vendor-cloud.com"),
        "globus" => Some("globus.org"),
        _ => None,
    }
}

fn build_servers(
    assoc: &str,
    count: usize,
    world: &World,
    em: &mut Emitter,
    rng: &mut impl Rng,
) -> Vec<Server> {
    let validity = (world.start.add_days(-30), world.start.add_days(760));
    let block = match assoc {
        "health" => world.plan.health,
        "vpn" => world.plan.vpn,
        _ => world.plan.servers,
    };
    (0..count)
        .map(|_| {
            let ip = block.host(rng.gen_range(0..4000));
            let Some(sld) = association_sld(assoc) else {
                // Unknown association: no SNI, unhelpful server cert.
                let ca = world.private_ca("");
                let cert = MintSpec::new(&ca, validity.0, validity.1)
                    .cn(random_alnum(rng, 12))
                    .issuer_override(DistinguishedName::empty())
                    .mint(rng);
                return Server {
                    ip,
                    sni: None,
                    cert,
                };
            };
            let host = hostname(rng, sld);
            let names = [host.as_str()];
            let cert = match assoc {
                "localorg" => {
                    let ca = world.public_ca("Let's Encrypt");
                    em.public_server_leaf(ca, validity, &names, Usage::Server, rng)
                }
                "thirdparty" => {
                    let ca = world.public_ca("DigiCert Inc");
                    em.public_server_leaf(ca, validity, &names, Usage::Server, rng)
                }
                "globus" => {
                    MintSpec::new(&world.private_ca("Globus Online"), validity.0, validity.1)
                        .cn(&host)
                        .usage(Usage::Server)
                        .mint(rng)
                }
                _ => {
                    let ca = match assoc {
                        "health" => &world.campus_health_ca,
                        "vpn" => &world.campus_vpn_ca,
                        _ => &world.campus_server_ca,
                    };
                    MintSpec::new(ca, validity.0, validity.1)
                        .cn(&host)
                        .san_dns(&names)
                        .usage(Usage::Server)
                        .mint(rng)
                }
            };
            Server {
                ip,
                sni: Some(host),
                cert,
            }
        })
        .collect()
}

fn build_clients(
    assoc: &str,
    count: usize,
    world: &World,
    em: &mut Emitter,
    rng: &mut impl Rng,
) -> Vec<Client> {
    let validity = (world.start.add_days(-60), world.start.add_days(760));
    let mix = client_mix(assoc);
    let external = world.plan.external_clients;
    (0..count)
        .map(|_| {
            let ip = external.sample(rng);
            let which = pick_weighted(rng, &mix);
            let cert = match which {
                0 => {
                    // Education: campus-issued (health devices use the
                    // health CA; everything else the user CA).
                    let ca = if assoc == "health" {
                        &world.campus_health_ca
                    } else {
                        &world.campus_user_ca
                    };
                    let cn = em.quotas.campus_client_cn(rng);
                    let san = em.quotas.campus_client_san(rng);
                    MintSpec::new(ca, validity.0, validity.1)
                        .cn(cn)
                        .san(san)
                        .usage(Usage::Client)
                        .mint(rng)
                }
                1 => {
                    // MissingIssuer: signed, but the issuer DN is empty.
                    let ca = world.private_ca("");
                    let cn = em.quotas.generic_client_cn(rng);
                    MintSpec::new(&ca, validity.0, validity.1)
                        .cn(cn)
                        .issuer_override(DistinguishedName::empty())
                        .mint(rng)
                }
                2 => {
                    // Public: a public CA issued a client certificate.
                    let pub_ca = &world.public_cas[rng.gen_range(0..6)].intermediate;
                    MintSpec::new(pub_ca, validity.0, validity.1)
                        .cn(hostname(rng, "partner-fleet.com"))
                        .usage(Usage::Client)
                        .mint(rng)
                }
                3 => {
                    // Corporation.
                    let ca = world.private_ca("Blue Ridge Instruments Inc");
                    MintSpec::new(&ca, validity.0, validity.1)
                        .cn(em.quotas.generic_client_cn(rng))
                        .usage(Usage::Client)
                        .mint(rng)
                }
                _ => {
                    // Others: unrecognizable private issuers.
                    let orgs = ["AT&T Services", "Red Hat", "AgentMesh", "Globus Online"];
                    let ca = world.private_ca(orgs[rng.gen_range(0..orgs.len())]);
                    MintSpec::new(&ca, validity.0, validity.1)
                        .cn(em.quotas.generic_client_cn(rng))
                        .mint(rng)
                }
            };
            Client { ip, cert }
        })
        .collect()
}

/// Run the scenario.
pub fn run(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    let total = config.scaled(targets::INBOUND_MTLS_CONNS);
    let pool_total = config.scaled(targets::INBOUND_CLIENT_POOL);

    // Build per-association infrastructure once.
    let mut assoc_names: Vec<&str> = Vec::new();
    let mut servers: Vec<Vec<Server>> = Vec::new();
    let mut clients: Vec<Vec<Client>> = Vec::new();
    for (assoc, share) in targets::INBOUND_CLIENT_SHARE {
        let n_clients = ((pool_total as f64) * share).round().max(1.0) as usize;
        let n_servers = match *assoc {
            "health" => config.scaled(40),
            "server" => config.scaled(60),
            "vpn" => config.scaled(4),
            "localorg" => config.scaled(12),
            "thirdparty" => config.scaled(6),
            "globus" => config.scaled(3),
            _ => config.scaled(10),
        };
        assoc_names.push(assoc);
        servers.push(build_servers(assoc, n_servers, world, em, rng));
        clients.push(build_clients(assoc, n_clients, world, em, rng));
    }

    for row in targets::INBOUND_ROWS {
        if row.association == "unknown-fxp" {
            continue;
        }
        let idx = assoc_names
            .iter()
            .position(|a| *a == row.association)
            .expect("association built");
        let n = ((total as f64) * row.frac).round() as usize;
        // The health surge shows up in the months spread.
        let surge = row.association == "health";
        let (spread, months) = mtls_spread(n, surge);
        for k in 0..n {
            let ts = spread_ts(rng, k, &spread, &months);
            let server = &servers[idx][rng.gen_range(0..servers[idx].len())];
            let client = &clients[idx][rng.gen_range(0..clients[idx].len())];
            let port = if row.port_hi > row.port {
                rng.gen_range(row.port..=row.port_hi)
            } else {
                row.port
            };
            em.connection(
                ConnSpec {
                    ts,
                    orig: client.ip,
                    resp: server.ip,
                    resp_port: port,
                    version: mtls_version(rng),
                    sni: server.sni.clone(),
                    server_chain: vec![&server.cert],
                    client_chain: vec![&client.cert],
                    established: true,
                    resumed: false,
                },
                rng,
            );
        }
    }
}
