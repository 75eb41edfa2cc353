//! Experiment `tab3` — Table 3: inbound mutual-TLS connections, clients,
//! and client-certificate issuer categories per server association.

use crate::corpus::{Corpus, Direction, ServerAssociation};
use crate::report::{pct_f, Table};
use mtls_intern::{FxHashMap, FxHashSet};
use mtls_pki::IssuerCategory;
use mtls_zeek::Ipv4;

/// One association row.
#[derive(Debug, Clone)]
pub struct Row {
    pub association: ServerAssociation,
    pub conn_share: f64,
    pub client_share: f64,
    /// (category, share of this association's clients), descending.
    pub issuer_mix: Vec<(IssuerCategory, f64)>,
}

/// Table 3.
#[derive(Debug, Clone)]
pub struct Report {
    pub rows: Vec<Row>,
    pub total_conns: usize,
    pub total_clients: usize,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    struct Acc {
        conns: usize,
        clients: FxHashSet<Ipv4>,
        issuer_clients: FxHashMap<IssuerCategory, FxHashSet<Ipv4>>,
    }
    let mut accs: FxHashMap<ServerAssociation, Acc> = FxHashMap::default();
    let mut all_clients: FxHashSet<Ipv4> = FxHashSet::default();
    let mut total_conns = 0usize;

    for conn in corpus.mtls_conns() {
        if conn.direction != Direction::Inbound {
            continue;
        }
        total_conns += 1;
        all_clients.insert(conn.rec.orig_h);
        let acc = accs.entry(conn.association).or_insert_with(|| Acc {
            conns: 0,
            clients: FxHashSet::default(),
            issuer_clients: FxHashMap::default(),
        });
        acc.conns += 1;
        acc.clients.insert(conn.rec.orig_h);
        if let Some(cid) = conn.client_leaf {
            acc.issuer_clients
                .entry(corpus.cert(cid).issuer.category)
                .or_default()
                .insert(conn.rec.orig_h);
        }
    }

    let mut rows: Vec<Row> = ServerAssociation::ALL
        .iter()
        .filter_map(|assoc| {
            let acc = accs.get(assoc)?;
            let mut issuer_mix: Vec<(IssuerCategory, f64)> = acc
                .issuer_clients
                .iter()
                .map(|(cat, ips)| (*cat, ips.len() as f64 / acc.clients.len().max(1) as f64))
                .collect();
            issuer_mix.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("no NaN")
                    .then_with(|| a.0.cmp(&b.0))
            });
            Some(Row {
                association: *assoc,
                conn_share: acc.conns as f64 / total_conns.max(1) as f64,
                client_share: acc.clients.len() as f64 / all_clients.len().max(1) as f64,
                issuer_mix,
            })
        })
        .collect();
    rows.sort_by(|a, b| {
        b.conn_share
            .partial_cmp(&a.conn_share)
            .expect("no NaN")
            .then_with(|| a.association.cmp(&b.association))
    });

    Report {
        rows,
        total_conns,
        total_clients: all_clients.len(),
    }
}

impl Report {
    /// Row for a given association, if observed.
    pub fn row(&self, assoc: ServerAssociation) -> Option<&Row> {
        self.rows.iter().find(|r| r.association == assoc)
    }

    /// Render in Table 3's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 3: inbound mutual TLS by server association",
            &[
                "server association",
                "% conns",
                "% clients",
                "primary issuer",
                "%",
                "secondary issuer",
                "%",
            ],
        );
        for row in &self.rows {
            let primary = row.issuer_mix.first();
            let secondary = row.issuer_mix.get(1);
            t.row(vec![
                row.association.label().to_string(),
                pct_f(row.conn_share),
                pct_f(row.client_share),
                primary
                    .map(|(c, _)| c.label().to_string())
                    .unwrap_or_else(|| "-".into()),
                primary
                    .map(|(_, s)| pct_f(*s))
                    .unwrap_or_else(|| "-".into()),
                secondary
                    .map(|(c, _)| c.label().to_string())
                    .unwrap_or_else(|| "-".into()),
                secondary
                    .map(|(_, s)| pct_f(*s))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, T0};

    #[test]
    fn association_and_issuer_mix_by_clients() {
        let mut b = CorpusBuilder::new();
        b.cert("srv", CertOpts::default());
        b.cert(
            "edu",
            CertOpts {
                issuer_org: Some("Commonwealth University"),
                ..Default::default()
            },
        );
        b.cert(
            "missing",
            CertOpts {
                issuer_org: None,
                ..Default::default()
            },
        );
        // Three health clients with campus certs, one with a missing issuer.
        for n in 1..=3 {
            b.inbound(T0, n, Some("portal.campus-health.org"), "srv", "edu");
        }
        b.inbound(T0, 4, Some("portal.campus-health.org"), "srv", "missing");
        // One unknown-association conn (no SNI, unhelpful cert names on
        // both sides so the SLD fallback finds nothing).
        b.cert(
            "anon-s",
            CertOpts {
                cn: Some("blob"),
                issuer_org: None,
                ..Default::default()
            },
        );
        b.cert(
            "anon-c",
            CertOpts {
                cn: Some("blob2"),
                issuer_org: None,
                ..Default::default()
            },
        );
        b.inbound(T0, 5, None, "anon-s", "anon-c");
        let r = run(&b.build());

        let health = r
            .row(ServerAssociation::UniversityHealth)
            .expect("health row");
        assert!((health.conn_share - 4.0 / 5.0).abs() < 1e-12);
        assert!((health.client_share - 4.0 / 5.0).abs() < 1e-12);
        assert_eq!(health.issuer_mix[0].0, IssuerCategory::Education);
        assert!((health.issuer_mix[0].1 - 0.75).abs() < 1e-12);

        let unknown = r.row(ServerAssociation::Unknown).expect("unknown row");
        assert_eq!(unknown.issuer_mix[0].0, IssuerCategory::MissingIssuer);
        assert_eq!(r.total_conns, 5);
        assert_eq!(r.total_clients, 5);
    }

    #[test]
    fn outbound_conns_are_ignored() {
        let mut b = CorpusBuilder::new();
        b.cert("s", CertOpts::default());
        b.cert("c", CertOpts::default());
        b.outbound(T0, 1, Some("a.amazonaws.com"), "s", "c");
        let r = run(&b.build());
        assert_eq!(r.total_conns, 0);
        assert!(r.rows.is_empty());
    }
}
