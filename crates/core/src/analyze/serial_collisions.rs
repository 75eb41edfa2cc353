//! Experiment `ser1` — §5.1.2: certificates sharing the identical serial
//! number within the same issuer's scope.

use crate::corpus::{CertId, Corpus, Direction};
use crate::report::{count, Table};
use mtls_intern::{FxHashMap, FxHashSet};
use mtls_zeek::Ipv4;

/// One (issuer, serial) collision group.
#[derive(Debug, Clone)]
pub struct Group {
    pub issuer: String,
    pub serial: String,
    pub client_certs: usize,
    pub server_certs: usize,
    pub conns: usize,
    pub clients: usize,
    /// Median validity period of the colliding certs (days) — the paper
    /// notes most are < 15 days.
    pub median_validity_days: i64,
}

/// §5.1.2's statistics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Collision groups (≥ 2 certificates), largest first.
    pub groups: Vec<Group>,
    /// Clients involved in inbound / outbound connections with ≥ 1
    /// colliding endpoint.
    pub inbound_clients: usize,
    pub outbound_clients: usize,
    /// Outbound clients where *both* endpoints collide.
    pub outbound_both_clients: usize,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    // Unique mTLS certs keyed by (serial, issuer display) and sorted, so
    // each collision group is one run of two or more equal keys. Serials
    // lead because they mostly differ in their first bytes, while one
    // issuer's long display string repeats across all its certificates.
    let mut keyed: Vec<(&str, &str, CertId)> = corpus
        .live_certs()
        .filter(|cert| cert.in_mtls)
        .map(|cert| (cert.rec.serial.as_str(), cert.rec.issuer.as_str(), cert.id))
        .collect();
    keyed.sort_unstable();

    struct Acc<'c> {
        issuer: &'c str,
        serial: &'c str,
        client_certs: usize,
        server_certs: usize,
        validities: Vec<i64>,
        conns: usize,
        clients: FxHashSet<Ipv4>,
    }
    let mut accs: Vec<Acc> = Vec::new();
    // Group index of every colliding certificate, for the connection pass.
    let mut group_of: FxHashMap<CertId, usize> = FxHashMap::default();
    for run in keyed.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        if run.len() < 2 {
            continue;
        }
        let certs = || run.iter().map(|&(.., id)| corpus.cert(id));
        group_of.extend(run.iter().map(|&(.., id)| (id, accs.len())));
        accs.push(Acc {
            serial: run[0].0,
            issuer: run[0].1,
            client_certs: certs().filter(|c| c.seen_as_client).count(),
            server_certs: certs().filter(|c| c.seen_as_server).count(),
            validities: certs().map(|c| c.rec.validity_days()).collect(),
            conns: 0,
            clients: FxHashSet::default(),
        });
    }

    let mut inbound_clients: FxHashSet<Ipv4> = FxHashSet::default();
    let mut outbound_clients: FxHashSet<Ipv4> = FxHashSet::default();
    let mut outbound_both: FxHashSet<Ipv4> = FxHashSet::default();
    for conn in corpus.mtls_conns() {
        let group = |leaf: Option<CertId>| leaf.and_then(|id| group_of.get(&id).copied());
        let (s, c) = (group(conn.server_leaf), group(conn.client_leaf));
        if s.is_none() && c.is_none() {
            continue;
        }
        match conn.direction {
            Direction::Inbound => {
                inbound_clients.insert(conn.rec.orig_h);
            }
            Direction::Outbound => {
                outbound_clients.insert(conn.rec.orig_h);
                if s.is_some() && c.is_some() {
                    outbound_both.insert(conn.rec.orig_h);
                }
            }
            Direction::Transit => {}
        }
        for g in [s, c].into_iter().flatten() {
            accs[g].conns += 1;
            accs[g].clients.insert(conn.rec.orig_h);
        }
    }

    let mut groups: Vec<Group> = accs
        .into_iter()
        .map(|mut acc| {
            acc.validities.sort_unstable();
            Group {
                issuer: acc.issuer.to_owned(),
                serial: acc.serial.to_owned(),
                client_certs: acc.client_certs,
                server_certs: acc.server_certs,
                conns: acc.conns,
                clients: acc.clients.len(),
                median_validity_days: acc.validities[acc.validities.len() / 2],
            }
        })
        .collect();
    groups.sort_by(|a, b| {
        (b.client_certs + b.server_certs)
            .cmp(&(a.client_certs + a.server_certs))
            .then_with(|| a.issuer.cmp(&b.issuer))
            .then_with(|| a.serial.cmp(&b.serial))
    });

    Report {
        groups,
        inbound_clients: inbound_clients.len(),
        outbound_clients: outbound_clients.len(),
        outbound_both_clients: outbound_both.len(),
    }
}

impl Report {
    /// The collision group for (issuer-substring, serial), if any.
    pub fn group(&self, issuer_contains: &str, serial: &str) -> Option<&Group> {
        self.groups
            .iter()
            .find(|g| g.issuer.contains(issuer_contains) && g.serial == serial)
    }

    /// Render §5.1.2's findings.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Serial-number collisions within the same issuer (section 5.1.2)",
            &[
                "issuer",
                "serial",
                "client certs",
                "server certs",
                "conns",
                "clients",
                "median validity (d)",
            ],
        );
        for g in self.groups.iter().take(12) {
            t.row(vec![
                g.issuer.clone(),
                g.serial.clone(),
                count(g.client_certs),
                count(g.server_certs),
                count(g.conns),
                count(g.clients),
                g.median_validity_days.to_string(),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "clients touching collisions: inbound {} / outbound {} (both-endpoint outbound: {})\n",
            self.inbound_clients, self.outbound_clients, self.outbound_both_clients
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, T0};

    #[test]
    fn groups_by_issuer_and_serial() {
        let mut b = CorpusBuilder::new();
        // Two client certs and one server cert share serial 00 under one CA.
        for fp in ["a", "b"] {
            b.cert(
                fp,
                CertOpts {
                    issuer_org: Some("Globus Online"),
                    serial: "00",
                    cn: Some("t1"),
                    ..Default::default()
                },
            );
        }
        b.cert(
            "srv00",
            CertOpts {
                issuer_org: Some("Globus Online"),
                serial: "00",
                cn: Some("t2"),
                ..Default::default()
            },
        );
        // Same serial, *different* issuer: no collision across issuers.
        b.cert(
            "other",
            CertOpts {
                issuer_org: Some("GuardiCore"),
                serial: "00",
                cn: Some("t3"),
                ..Default::default()
            },
        );
        // Unique serial: never a collision.
        b.cert(
            "uniq",
            CertOpts {
                issuer_org: Some("Globus Online"),
                serial: "0BEEF0",
                cn: Some("t4"),
                ..Default::default()
            },
        );

        b.inbound(T0, 1, None, "srv00", "a");
        b.inbound(T0, 2, None, "srv00", "b");
        b.outbound(T0, 3, None, "uniq", "other");
        let r = run(&b.build());

        assert_eq!(r.groups.len(), 1, "one collision group");
        let g = &r.groups[0];
        assert!(g.issuer.contains("Globus Online"));
        assert_eq!(g.serial, "00");
        assert_eq!(g.client_certs, 2);
        assert_eq!(g.server_certs, 1);
        assert_eq!(g.clients, 2);
        assert_eq!(r.inbound_clients, 2);
        assert_eq!(r.outbound_clients, 0);
        assert!(r.group("GuardiCore", "00").is_none());
    }

    #[test]
    fn groups_order_by_size_then_issuer_then_serial() {
        let mut b = CorpusBuilder::new();
        let mut cert = |name: &str, issuer_org: &'static str, serial: &'static str| {
            b.cert(
                name,
                CertOpts {
                    issuer_org: Some(issuer_org),
                    serial,
                    ..Default::default()
                },
            );
        };
        cert("srv", "Server CA", "FF");
        for name in ["m1", "m2", "m3"] {
            cert(name, "Mid CA", "07");
        }
        // Three pairs tied on size: issuer order first, then serial order.
        for (name, issuer, serial) in [
            ("z1", "Zeta CA", "01"),
            ("z2", "Zeta CA", "01"),
            ("a1", "Alpha CA", "09"),
            ("a2", "Alpha CA", "09"),
            ("b1", "Alpha CA", "02"),
            ("b2", "Alpha CA", "02"),
        ] {
            cert(name, issuer, serial);
        }
        // One serial under two issuers: no group.
        cert("s1", "Alpha CA", "05");
        cert("s2", "Zeta CA", "05");
        // An excluded certificate leaves its group, with its connection.
        for name in ["e1", "e2", "e3"] {
            cert(name, "Alpha CA", "0E");
        }
        // Certificates seen only in plain TLS are not mutual-TLS ones.
        for name in ["n1", "n2", "n3"] {
            cert(name, "Alpha CA", "0A");
        }
        let mtls = [
            "m1", "m2", "m3", "z1", "z2", "a1", "a2", "b1", "b2", "s1", "s2", "e1", "e2", "e3",
            "n3",
        ];
        for (n, client) in (1..).zip(mtls) {
            b.outbound(T0, n, None, "srv", client);
        }
        for server in ["n1", "n2"] {
            b.outbound(T0, 99, None, server, "");
        }
        let r = run(&b.build_excluding(&["e3"]));

        let keys: Vec<(&str, &str, usize, usize)> = r
            .groups
            .iter()
            .map(|g| {
                (
                    g.issuer.as_str(),
                    g.serial.as_str(),
                    g.client_certs,
                    g.conns,
                )
            })
            .collect();
        assert_eq!(
            keys,
            [
                ("O=Mid CA", "07", 3, 3),
                ("O=Alpha CA", "02", 2, 2),
                ("O=Alpha CA", "09", 2, 2),
                ("O=Alpha CA", "0E", 2, 2),
                ("O=Zeta CA", "01", 2, 2),
            ]
        );
        assert_eq!(r.groups[0].clients, 3);
        assert_eq!(r.outbound_clients, 11);
    }

    #[test]
    fn both_endpoint_collisions_counted() {
        let mut b = CorpusBuilder::new();
        for fp in ["x", "y"] {
            b.cert(
                fp,
                CertOpts {
                    issuer_org: Some("ViptelaClient"),
                    serial: "024680",
                    cn: Some(if fp == "x" { "cx" } else { "cy" }),
                    ..Default::default()
                },
            );
        }
        b.outbound(T0, 7, None, "x", "y");
        let r = run(&b.build());
        assert_eq!(r.outbound_both_clients, 1);
        let g = r.group("ViptelaClient", "024680").expect("group");
        assert_eq!(g.conns, 2, "both endpoints counted");
    }
}
