//! Experiments `tab4`/`tab10` — dummy-issuer certificates in mutual TLS,
//! plus the connections where *both* endpoints present dummy-issued
//! certificates, and §5.1.1's v1 / weak-key sub-populations.

use crate::corpus::{CertId, Corpus, Direction};
use crate::report::{count, Table};
use mtls_intern::FxHashSet;
use mtls_pki::IssuerCategory;
use mtls_zeek::Ipv4;
use std::collections::{BTreeMap, HashSet};

/// Aggregate for one (issuer, side, direction).
#[derive(Debug, Clone, Default)]
pub struct Row {
    pub servers: HashSet<Ipv4>,
    pub clients: HashSet<Ipv4>,
    pub conns: usize,
    pub slds: HashSet<String>,
}

/// A both-endpoints population (Table 10).
#[derive(Debug, Clone)]
pub struct BothRow {
    pub sld: Option<String>,
    pub issuer: String,
    pub clients: usize,
    pub duration_days: i64,
}

/// Tables 4 and 10.
#[derive(Debug, Clone)]
pub struct Report {
    /// Key: (issuer org, side: "client"/"server", inbound?).
    pub rows: BTreeMap<(String, &'static str, bool), Row>,
    pub both: Vec<BothRow>,
    /// §5.1.1: dummy-issued client certs with version 1.
    pub v1_client_certs: usize,
    /// §5.1.1: dummy-issued client certs with RSA < 2048.
    pub weak_key_client_certs: usize,
}

/// Accumulator for Table 10: clients plus first/last timestamps.
type BothAcc<'c> = BTreeMap<(Option<&'c str>, &'c str), (FxHashSet<Ipv4>, f64, f64)>;

/// A [`Row`] while connections are folded in, keyed on the corpus's own
/// strings.
#[derive(Default)]
struct RowAcc<'c> {
    servers: FxHashSet<Ipv4>,
    clients: FxHashSet<Ipv4>,
    conns: usize,
    slds: FxHashSet<&'c str>,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    let mut rows: BTreeMap<(&str, &'static str, bool), RowAcc> = BTreeMap::new();
    let mut both_acc: BothAcc = BTreeMap::new();
    // The issuer organization of a dummy-issued leaf.
    let dummy_org = |leaf: Option<CertId>| {
        let cert = corpus.cert(leaf?);
        (cert.issuer.category == IssuerCategory::Dummy)
            .then(|| cert.rec.issuer_org.as_deref().unwrap_or_default())
    };

    for conn in corpus.mtls_conns() {
        if conn.direction == Direction::Transit {
            continue;
        }
        let inbound = conn.direction == Direction::Inbound;
        let server_org = dummy_org(conn.server_leaf);
        let client_org = dummy_org(conn.client_leaf);

        for (org, side) in [(client_org, "client"), (server_org, "server")] {
            let Some(org) = org else { continue };
            let row = rows.entry((org, side, inbound)).or_default();
            row.servers.insert(conn.rec.resp_h);
            row.clients.insert(conn.rec.orig_h);
            row.conns += 1;
            if let Some(sld) = conn.info.sld.as_deref() {
                row.slds.insert(sld);
            }
        }
        if let (Some(org), Some(_)) = (client_org, server_org) {
            let entry = both_acc.entry((conn.info.sld.as_deref(), org)).or_insert((
                FxHashSet::default(),
                f64::INFINITY,
                f64::NEG_INFINITY,
            ));
            entry.0.insert(conn.rec.orig_h);
            entry.1 = entry.1.min(conn.rec.ts);
            entry.2 = entry.2.max(conn.rec.ts);
        }
    }

    let rows = rows
        .into_iter()
        .map(|((org, side, inbound), acc)| {
            let row = Row {
                servers: acc.servers.into_iter().collect(),
                clients: acc.clients.into_iter().collect(),
                conns: acc.conns,
                slds: acc.slds.into_iter().map(str::to_owned).collect(),
            };
            ((org.to_owned(), side, inbound), row)
        })
        .collect();
    let mut both: Vec<BothRow> = both_acc
        .into_iter()
        .map(|((sld, issuer), (clients, first, last))| BothRow {
            sld: sld.map(str::to_owned),
            issuer: issuer.to_owned(),
            clients: clients.len(),
            duration_days: ((last - first) / 86_400.0).round() as i64,
        })
        .collect();
    both.sort_by(|a, b| {
        b.clients
            .cmp(&a.clients)
            .then_with(|| a.sld.cmp(&b.sld))
            .then_with(|| a.issuer.cmp(&b.issuer))
    });

    // §5.1.1 sub-populations over unique dummy client certs.
    let mut v1 = 0usize;
    let mut weak = 0usize;
    for cert in corpus.live_certs() {
        if cert.issuer.category == IssuerCategory::Dummy && cert.seen_as_client && cert.in_mtls {
            if cert.rec.version == 1 {
                v1 += 1;
            }
            if cert.rec.key_alg == "rsa" && cert.rec.key_length < 2048 {
                weak += 1;
            }
        }
    }

    Report {
        rows,
        both,
        v1_client_certs: v1,
        weak_key_client_certs: weak,
    }
}

impl Report {
    /// Render Tables 4 and 10.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 4: certificates with dummy issuers in mutual TLS",
            &[
                "direction",
                "side",
                "dummy issuer org",
                "servers",
                "clients",
                "conns",
                "slds",
            ],
        );
        for ((org, side, inbound), row) in &self.rows {
            let mut slds: Vec<&str> = row.slds.iter().map(|s| s.as_str()).collect();
            slds.sort();
            t.row(vec![
                if *inbound { "In." } else { "Out." }.to_string(),
                side.to_string(),
                org.clone(),
                count(row.servers.len()),
                count(row.clients.len()),
                count(row.conns),
                slds.join(" "),
            ]);
        }
        let mut s = t.render();

        let mut t2 = Table::new(
            "Table 10: dummy issuers at BOTH endpoints",
            &["sld", "issuer org", "clients", "duration (days)"],
        );
        for row in &self.both {
            t2.row(vec![
                row.sld.clone().unwrap_or_else(|| "- (missing SNI)".into()),
                row.issuer.clone(),
                row.clients.to_string(),
                row.duration_days.to_string(),
            ]);
        }
        s.push_str(&t2.render());
        s.push_str(&format!(
            "dummy client certs with v1: {} (paper 3); with RSA<2048: {} (paper 13)\n",
            self.v1_client_certs, self.weak_key_client_certs
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, DAY, T0};

    #[test]
    fn groups_sides_directions_and_subpopulations() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "srv",
            CertOpts {
                issuer_org: Some("NodeRunner"),
                ..Default::default()
            },
        );
        b.cert(
            "dummy-c",
            CertOpts {
                issuer_org: Some("Internet Widgits Pty Ltd"),
                cn: Some("blob1"),
                version: 1,
                ..Default::default()
            },
        );
        b.cert(
            "dummy-weak",
            CertOpts {
                issuer_org: Some("Unspecified"),
                cn: Some("blob2"),
                key_length: 1024,
                ..Default::default()
            },
        );
        b.cert(
            "dummy-s",
            CertOpts {
                issuer_org: Some("Acme Co"),
                cn: Some("node7.acme-fleet.com"),
                ..Default::default()
            },
        );
        b.inbound(T0, 1, Some("gw.localorg-a.org"), "srv", "dummy-c");
        b.outbound(T0, 2, Some("x.cn-registry.cn"), "srv", "dummy-weak");
        b.outbound(T0, 3, Some("node7.acme-fleet.com"), "dummy-s", "dummy-weak");
        // Both endpoints dummy, 10 days apart.
        b.outbound(T0, 4, Some("a.fireboard.io"), "dummy-s", "dummy-c");
        b.outbound(
            T0 + 10.0 * DAY,
            4,
            Some("a.fireboard.io"),
            "dummy-s",
            "dummy-c",
        );
        let r = run(&b.build());

        let key = ("Internet Widgits Pty Ltd".to_string(), "client", true);
        assert_eq!(r.rows[&key].conns, 1);
        assert!(r.rows[&key].slds.contains("localorg-a.org"));
        let out_key = ("Acme Co".to_string(), "server", false);
        assert_eq!(r.rows[&out_key].conns, 3);

        // Two both-endpoint populations: the fireboard pair and the
        // acme conn (dummy server + dummy client).
        assert_eq!(r.both.len(), 2);
        let fb = r
            .both
            .iter()
            .find(|row| row.sld.as_deref() == Some("fireboard.io"))
            .expect("fireboard row");
        assert_eq!(fb.clients, 1);
        assert_eq!(fb.duration_days, 10);

        assert_eq!(r.v1_client_certs, 1);
        assert_eq!(r.weak_key_client_certs, 1);
        assert!(r.render().contains("Table 10"));
    }

    #[test]
    fn non_dummy_certs_do_not_appear() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "s",
            CertOpts {
                issuer_org: Some("DigiCert Inc"),
                ..Default::default()
            },
        );
        b.cert(
            "c",
            CertOpts {
                issuer_org: Some("Honeywell International Inc"),
                ..Default::default()
            },
        );
        b.outbound(T0, 1, Some("x.amazonaws.com"), "s", "c");
        let r = run(&b.build());
        assert!(r.rows.is_empty());
        assert!(r.both.is_empty());
    }
}
