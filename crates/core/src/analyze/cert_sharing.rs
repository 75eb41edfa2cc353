//! Experiment `tab5` — §5.2.1: the same certificate presented by both
//! endpoints of a single connection.

use crate::corpus::{Corpus, Direction};
use crate::report::{count, Table};
use mtls_intern::FxHashSet;
use mtls_zeek::Ipv4;
use std::collections::BTreeMap;

/// One Table 5 population.
#[derive(Debug, Clone)]
pub struct Row {
    pub inbound: bool,
    pub sld: Option<String>,
    pub issuer: String,
    pub public_issuer: bool,
    pub clients: usize,
    pub conns: usize,
    pub duration_days: i64,
}

/// Table 5.
#[derive(Debug, Clone)]
pub struct Report {
    pub rows: Vec<Row>,
    pub inbound_conns: usize,
    pub outbound_conns: usize,
    /// Unique certificates involved in same-connection sharing.
    pub shared_certs: usize,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    struct Acc {
        public: bool,
        clients: FxHashSet<Ipv4>,
        conns: usize,
        first: f64,
        last: f64,
    }
    let mut acc: BTreeMap<(bool, Option<&str>, &str), Acc> = BTreeMap::new();
    let mut inbound_conns = 0usize;
    let mut outbound_conns = 0usize;
    let mut shared: FxHashSet<usize> = FxHashSet::default();

    for conn in corpus.mtls_conns() {
        if !conn.same_cert_both_ends {
            continue;
        }
        let Some(cid) = conn.server_leaf else {
            continue;
        };
        shared.insert(cid);
        let cert = corpus.cert(cid);
        let inbound = conn.direction == Direction::Inbound;
        if inbound {
            inbound_conns += 1;
        } else {
            outbound_conns += 1;
        }
        let key = (
            inbound,
            conn.info.sld.as_deref(),
            cert.rec.issuer_org.as_deref().unwrap_or_default(),
        );
        let entry = acc.entry(key).or_insert(Acc {
            public: cert.issuer.public,
            clients: FxHashSet::default(),
            conns: 0,
            first: f64::INFINITY,
            last: f64::NEG_INFINITY,
        });
        entry.clients.insert(conn.rec.orig_h);
        entry.conns += 1;
        entry.first = entry.first.min(conn.rec.ts);
        entry.last = entry.last.max(conn.rec.ts);
    }

    let mut rows: Vec<Row> = acc
        .into_iter()
        .map(|((inbound, sld, issuer), a)| Row {
            inbound,
            sld: sld.map(str::to_owned),
            issuer: issuer.to_owned(),
            public_issuer: a.public,
            clients: a.clients.len(),
            conns: a.conns,
            duration_days: ((a.last - a.first) / 86_400.0).round() as i64,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.inbound
            .cmp(&a.inbound)
            .then(b.clients.cmp(&a.clients))
            .then_with(|| a.issuer.cmp(&b.issuer))
            .then_with(|| a.sld.cmp(&b.sld))
    });

    Report {
        rows,
        inbound_conns,
        outbound_conns,
        shared_certs: shared.len(),
    }
}

impl Report {
    /// Find a row by SLD substring (or missing SNI) and issuer substring.
    pub fn row(&self, sld: Option<&str>, issuer_contains: &str) -> Option<&Row> {
        self.rows.iter().find(|r| {
            r.issuer.contains(issuer_contains)
                && match (sld, &r.sld) {
                    (None, None) => true,
                    (Some(want), Some(have)) => have.contains(want),
                    _ => false,
                }
        })
    }

    /// Render Table 5.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 5: same certificate presented by BOTH endpoints of a connection",
            &[
                "dir",
                "sld",
                "issuer org",
                "trust",
                "clients",
                "conns",
                "duration (days)",
            ],
        );
        for row in &self.rows {
            t.row(vec![
                if row.inbound { "In." } else { "Out." }.to_string(),
                row.sld.clone().unwrap_or_else(|| "- (missing SNI)".into()),
                row.issuer.clone(),
                if row.public_issuer {
                    "public"
                } else {
                    "private"
                }
                .to_string(),
                count(row.clients),
                count(row.conns),
                row.duration_days.to_string(),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "same-cert connections: inbound {} / outbound {}; unique shared certs {}\n",
            count(self.inbound_conns),
            count(self.outbound_conns),
            count(self.shared_certs)
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, DAY, T0};

    #[test]
    fn same_cert_rows_and_duration() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "shared",
            CertOpts {
                issuer_org: Some("Outset Medical"),
                cn: Some("x.tablodash.com"),
                ..Default::default()
            },
        );
        b.cert("normal-s", CertOpts::default());
        b.cert(
            "normal-c",
            CertOpts {
                cn: Some("dev1"),
                ..Default::default()
            },
        );
        b.inbound(T0, 1, Some("x.tablodash.com"), "shared", "shared");
        b.inbound(
            T0 + 100.0 * DAY,
            2,
            Some("x.tablodash.com"),
            "shared",
            "shared",
        );
        b.inbound(T0, 3, Some("y.campus-main.edu"), "normal-s", "normal-c");
        let r = run(&b.build());

        assert_eq!(r.inbound_conns, 2);
        assert_eq!(r.outbound_conns, 0);
        assert_eq!(r.shared_certs, 1);
        let row = r.row(Some("tablodash"), "Outset").expect("row");
        assert_eq!(row.clients, 2);
        assert_eq!(row.duration_days, 100);
        assert!(!row.public_issuer);
    }

    #[test]
    fn public_issuer_flag_carries() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "pubshared",
            CertOpts {
                issuer_org: Some("DigiCert Inc"),
                cn: Some("x.gpo.gov"),
                ..Default::default()
            },
        );
        b.outbound(T0, 1, Some("x.gpo.gov"), "pubshared", "pubshared");
        let r = run(&b.build());
        let row = r.row(Some("gpo.gov"), "DigiCert").expect("row");
        assert!(row.public_issuer);
        assert_eq!(r.outbound_conns, 1);
    }
}
