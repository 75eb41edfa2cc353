//! Bulk outbound mutual TLS (Table 2's outbound column, Fig. 2's flows,
//! the Fig. 1 outbound series including the Rapid7 disappearance).

use crate::calendar::{self, Month};
use crate::certgen::{hostname, random_alnum, random_uuid, MintSpec, Usage};
use crate::config::SimConfig;
use crate::emit::{ConnSpec, Emitter};
use crate::ipplan::Block;
use crate::scenarios::{mtls_version, pick_weighted, spread_ts};
use crate::targets::{self, OutboundRow};
use crate::world::{World, APPLE_DEVICE_ISSUER, AZURE_SPHERE_ISSUER};
use mtls_x509::{Certificate, DistinguishedName};
use mtls_zeek::Ipv4;
use rand::Rng;

struct Server {
    ip: Ipv4,
    host: String,
    cert: Certificate,
}

/// Which provider block and public CA serve a given SLD.
fn provider(world: &World, sld: &str) -> (Block, &'static str) {
    match sld {
        "amazonaws.com" => (world.plan.aws, "Amazon Trust Services"),
        "rapid7.com" => (world.plan.rapid7, "DigiCert Inc"),
        "gpcloudservice.com" => (world.plan.gp_cloud, "Let's Encrypt"),
        "apple.com" => (world.plan.apple, "Apple Inc."),
        "azure.com" => (world.plan.microsoft, "Microsoft Corporation"),
        "mailrelay.com" => (world.plan.misc_external, "Let's Encrypt"),
        "cdn-metrics.com" => (world.plan.misc_external, "Sectigo Limited"),
        "partner-billing.com" => (world.plan.misc_external, "Entrust, Inc."),
        "edu-exchange.org" => (world.plan.misc_external, "Let's Encrypt"),
        _ => (world.plan.misc_external, "Let's Encrypt"),
    }
}

fn private_server_org(sld: &str) -> &'static str {
    match sld {
        "splunkcloud.com" => "Splunk",
        "fireboard.io" => "FireBoard Labs",
        "iot-telemetry.net" => "NimbusTelemetry",
        _ => "UnnamedBackend",
    }
}

fn build_servers(
    row: &OutboundRow,
    count: usize,
    world: &World,
    em: &mut Emitter,
    rng: &mut impl Rng,
) -> Vec<Server> {
    let validity = (world.start.add_days(-30), world.start.add_days(760));
    let (block, pub_org) = provider(world, row.sld);
    (0..count)
        .map(|_| {
            let ip = block.host(rng.gen_range(0..60_000));
            let host = hostname(rng, row.sld);
            let cert = if row.server_public {
                let ca = world.public_ca(pub_org);
                em.public_server_leaf(ca, validity, &[&host, row.sld], Usage::Server, rng)
            } else {
                let ca = world.private_ca(private_server_org(row.sld));
                MintSpec::new(&ca, validity.0, validity.1)
                    .cn(host.clone())
                    .usage(Usage::Server)
                    .mint(rng)
            };
            Server { ip, host, cert }
        })
        .collect()
}

/// A client certificate for one of the four Fig. 2 issuer categories.
fn client_cert(
    which: usize,
    row: &OutboundRow,
    world: &World,
    em: &mut Emitter,
    rng: &mut impl Rng,
) -> Certificate {
    let validity = (world.start.add_days(-60), world.start.add_days(760));
    match which {
        0 => {
            // MissingIssuer — 37.84 % of outbound client certs (§4.2.2).
            let ca = world.private_ca("");
            MintSpec::new(&ca, validity.0, validity.1)
                .cn(em.quotas.generic_client_cn(rng))
                .issuer_override(DistinguishedName::empty())
                .mint(rng)
        }
        1 => {
            // Corporation: fleet agents with corporate private CAs.
            let orgs = [
                "Rapid7 Insight Agent CA",
                "Splunk Inc",
                "Honeywell International Inc",
                "Blue Ridge Instruments Inc",
                "Palo Alto Networks Inc",
            ];
            let ca = world.private_ca(orgs[rng.gen_range(0..orgs.len())]);
            MintSpec::new(&ca, validity.0, validity.1)
                .cn(em.quotas.generic_client_cn(rng))
                .usage(Usage::Client)
                .mint(rng)
        }
        2 => {
            // Others: unrecognizable private issuers.
            let orgs = [
                "AT&T Services",
                "Red Hat",
                "Samsung SDS",
                "AgentMesh",
                "telemetryd",
                "rcgen",
            ];
            let ca = world.private_ca(orgs[rng.gen_range(0..orgs.len())]);
            MintSpec::new(&ca, validity.0, validity.1)
                .cn(em.quotas.generic_client_cn(rng))
                .mint(rng)
        }
        _ => {
            // Public: the Table 8 client × public-CA population.
            public_client_cert(row, world, em, rng)
        }
    }
}

/// Public-CA client certificates: Azure Sphere random CNs, Apple device
/// UUIDs, Hybrid Runbook Worker, mail-ish domains, Webex, a few personal
/// names (§6.3.3).
fn public_client_cert(
    row: &OutboundRow,
    world: &World,
    em: &mut Emitter,
    rng: &mut impl Rng,
) -> Certificate {
    let validity = (world.start.add_days(-60), world.start.add_days(760));
    let (ca_org, cn): (&str, String) = match row.sld {
        "apple.com" => {
            // 60 % device-CA (issuer-recognizable), 40 % plain Apple
            // intermediate — the paper's UUID-with-uninformative-issuer
            // population (Table 9 client/public strlen=36).
            if rng.gen_bool(0.6) {
                (APPLE_DEVICE_ISSUER, random_uuid(rng))
            } else {
                ("Apple Inc.", random_uuid(rng))
            }
        }
        "azure.com" => {
            if rng.gen_bool(0.55) {
                (AZURE_SPHERE_ISSUER, random_alnum(rng, 20))
            } else {
                ("Microsoft Corporation", "Hybrid Runbook Worker".to_string())
            }
        }
        "mailrelay.com" => {
            let mail_hosts = ["smtp", "mx1", "mta-out", "mail"];
            (
                "DigiCert Inc",
                format!("{}.campus-main.edu", mail_hosts[rng.gen_range(0..4)]),
            )
        }
        _ => {
            // Misc public clients: Webex-ish domains, a few personal names.
            if em.quotas_public_personal_names > 0 {
                em.quotas_public_personal_names -= 1;
                ("Sectigo Limited", crate::certgen::person_name(rng))
            } else if rng.gen_bool(0.4) {
                (
                    "IdenTrust",
                    format!("endpoint{}.webex.com", rng.gen_range(0..50)),
                )
            } else {
                ("Entrust, Inc.", random_uuid(rng))
            }
        }
    };
    let ca = &world.public_ca(ca_org).intermediate;
    MintSpec::new(ca, validity.0, validity.1)
        .cn(cn)
        .usage(Usage::Client)
        .mint(rng)
}

/// Run the scenario.
pub fn run(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    let total = config.scaled(targets::OUTBOUND_MTLS_CONNS);
    let months = Month::study_months();

    for row in targets::OUTBOUND_ROWS {
        let n = ((total as f64) * row.frac).round() as usize;
        if n == 0 {
            continue;
        }
        let n_servers = (n / 400).clamp(1, 25);
        let servers = build_servers(row, n_servers, world, em, rng);

        // Pre-build a client fleet for this family: clients reuse their
        // certificate across connections.
        let n_clients = (n / 12).clamp(1, config.scaled(targets::OUTBOUND_CLIENT_POOL) / 4);
        let weights: Vec<f64> = row.client_mix.to_vec();
        let clients: Vec<(Ipv4, Certificate)> = (0..n_clients)
            .map(|_| {
                let ip = if rng.gen_bool(0.7) {
                    world.plan.nat.sample(rng)
                } else {
                    world.plan.clients.sample(rng)
                };
                let which = pick_weighted(rng, &weights);
                (ip, client_cert(which, row, world, em, rng))
            })
            .collect();

        // Spread over months; Rapid7 traffic ends after Oct 2023 (Fig. 1).
        let last_month = if row.ends_oct_2023 { 17 } else { 22 };
        let spread = calendar::spread_over_months(n, |i| {
            if i <= last_month {
                calendar::mtls_month_weight(i, false)
            } else {
                0.0
            }
        });
        for k in 0..n {
            let ts = spread_ts(rng, k, &spread, &months);
            let server = &servers[rng.gen_range(0..servers.len())];
            let client = &clients[rng.gen_range(0..clients.len())];
            em.connection(
                ConnSpec {
                    ts,
                    orig: client.0,
                    resp: server.ip,
                    resp_port: row.port,
                    version: mtls_version(rng),
                    sni: Some(server.host.clone()),
                    server_chain: vec![&server.cert],
                    client_chain: vec![&client.1],
                    established: true,
                    resumed: false,
                },
                rng,
            );
        }
    }
}
