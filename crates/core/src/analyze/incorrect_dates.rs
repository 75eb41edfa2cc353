//! Experiments `fig3`/`tab11`/`tab12` — certificates whose `notBefore`
//! does not precede `notAfter`, all observed in successfully established
//! connections.

use crate::corpus::{CertId, Corpus};
use crate::report::{count, Table};
use mtls_intern::FxHashSet;
use mtls_zeek::Ipv4;
use std::collections::BTreeMap;

/// One (issuer, side) population.
#[derive(Debug, Clone)]
pub struct Row {
    pub issuer: String,
    pub client_side: bool,
    pub sld: Option<String>,
    pub certs: usize,
    pub not_before_year: i32,
    pub not_after_year: i32,
    pub clients: usize,
    pub duration_days: i64,
}

/// Figure 3 / Tables 11–12.
#[derive(Debug, Clone)]
pub struct Report {
    pub rows: Vec<Row>,
    /// Populations with inverted dates at BOTH endpoints (Table 12):
    /// (sld, issuer, clients, duration_days).
    pub both_ends: Vec<(Option<String>, String, usize, i64)>,
    pub total_certs: usize,
}

fn year_of(unix: i64) -> i32 {
    mtls_asn1::Asn1Time::from_unix(unix).year()
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    let bad = |id: &CertId| {
        let cert = corpus.cert(*id);
        !cert.excluded && cert.rec.has_incorrect_dates()
    };

    struct Acc<'c> {
        certs: FxHashSet<usize>,
        clients: FxHashSet<Ipv4>,
        sld: Option<&'c str>,
        nb_year: i32,
        na_year: i32,
        first: f64,
        last: f64,
    }
    type BothAcc<'c> = BTreeMap<(Option<&'c str>, &'c str), (FxHashSet<Ipv4>, f64, f64)>;
    let mut rows_acc: BTreeMap<(&str, bool, &str, i32), Acc> = BTreeMap::new();
    let mut both_acc: BothAcc = BTreeMap::new();

    for conn in corpus.mtls_conns() {
        let s_bad = conn.server_leaf.filter(bad);
        let c_bad = conn.client_leaf.filter(bad);
        for (id, client_side) in [(s_bad, false), (c_bad, true)] {
            let Some(id) = id else { continue };
            let cert = corpus.cert(id);
            let key = (
                cert.rec.issuer_org.as_deref().unwrap_or_default(),
                client_side,
                conn.info.sld.as_deref().unwrap_or_default(),
                year_of(cert.rec.not_valid_before),
            );
            let acc = rows_acc.entry(key).or_insert(Acc {
                certs: FxHashSet::default(),
                clients: FxHashSet::default(),
                sld: conn.info.sld.as_deref(),
                nb_year: year_of(cert.rec.not_valid_before),
                na_year: year_of(cert.rec.not_valid_after),
                first: f64::INFINITY,
                last: f64::NEG_INFINITY,
            });
            acc.certs.insert(id);
            acc.clients.insert(conn.rec.orig_h);
            acc.first = acc.first.min(conn.rec.ts);
            acc.last = acc.last.max(conn.rec.ts);
        }
        if let (Some(_), Some(c_id)) = (s_bad, c_bad) {
            let cert = corpus.cert(c_id);
            let key = (
                conn.info.sld.as_deref(),
                cert.rec.issuer_org.as_deref().unwrap_or_default(),
            );
            let e = both_acc.entry(key).or_insert((
                FxHashSet::default(),
                f64::INFINITY,
                f64::NEG_INFINITY,
            ));
            e.0.insert(conn.rec.orig_h);
            e.1 = e.1.min(conn.rec.ts);
            e.2 = e.2.max(conn.rec.ts);
        }
    }

    let mut rows: Vec<Row> = rows_acc
        .into_iter()
        .map(|((issuer, client_side, _sld, _nb), acc)| Row {
            issuer: issuer.to_owned(),
            client_side,
            sld: acc.sld.map(str::to_owned),
            certs: acc.certs.len(),
            not_before_year: acc.nb_year,
            not_after_year: acc.na_year,
            clients: acc.clients.len(),
            duration_days: ((acc.last - acc.first) / 86_400.0).round() as i64,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.clients
            .cmp(&a.clients)
            .then_with(|| a.issuer.cmp(&b.issuer))
            .then_with(|| a.client_side.cmp(&b.client_side))
            .then_with(|| a.not_before_year.cmp(&b.not_before_year))
    });

    let both_ends: Vec<(Option<String>, String, usize, i64)> = both_acc
        .into_iter()
        .map(|((sld, issuer), (clients, first, last))| {
            (
                sld.map(str::to_owned),
                issuer.to_owned(),
                clients.len(),
                ((last - first) / 86_400.0).round() as i64,
            )
        })
        .collect();

    Report {
        rows,
        both_ends,
        total_certs: corpus
            .live_certs()
            .filter(|c| c.rec.has_incorrect_dates())
            .count(),
    }
}

impl Report {
    /// Row lookup by issuer substring and side.
    pub fn row(&self, issuer_contains: &str, client_side: bool) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.issuer.contains(issuer_contains) && r.client_side == client_side)
    }

    /// Render Fig. 3 / Tables 11–12.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 3 / Table 11: certificates with incorrect dates",
            &[
                "sld",
                "side",
                "issuer",
                "(nb, na) years",
                "certs",
                "clients",
                "duration (d)",
            ],
        );
        for row in &self.rows {
            t.row(vec![
                row.sld.clone().unwrap_or_else(|| "- (missing SNI)".into()),
                if row.client_side { "client" } else { "server" }.to_string(),
                row.issuer.clone(),
                format!("({}, {})", row.not_before_year, row.not_after_year),
                count(row.certs),
                count(row.clients),
                row.duration_days.to_string(),
            ]);
        }
        let mut s = t.render();
        let mut t2 = Table::new(
            "Table 12: incorrect dates at BOTH endpoints",
            &["sld", "issuer", "clients", "duration (d)"],
        );
        for (sld, issuer, clients, dur) in &self.both_ends {
            t2.row(vec![
                sld.clone().unwrap_or_else(|| "- (missing SNI)".into()),
                issuer.clone(),
                clients.to_string(),
                dur.to_string(),
            ]);
        }
        s.push_str(&t2.render());
        s.push_str(&format!(
            "total incorrect-date certificates: {}\n",
            self.total_certs
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, DAY, T0};

    #[test]
    fn inverted_and_identical_dates_detected() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "srv",
            CertOpts {
                issuer_org: Some("IDrive Inc Certificate Authority"),
                cn: Some("b.idrive.com"),
                not_before: T0 - 100.0 * DAY,
                not_after: T0 - 60_000.0 * DAY,
                ..Default::default()
            },
        );
        b.cert(
            "cli",
            CertOpts {
                issuer_org: Some("IDrive Inc Certificate Authority"),
                cn: Some("dev-1"),
                not_before: T0 - 200.0 * DAY,
                not_after: T0 - 63_000.0 * DAY,
                ..Default::default()
            },
        );
        // The ayoba-style identical pair.
        b.cert(
            "same",
            CertOpts {
                issuer_org: Some("OpenPGP to X.509 Bridge"),
                cn: Some("peer"),
                not_before: T0,
                not_after: T0,
                ..Default::default()
            },
        );
        b.cert("ok-s", CertOpts::default());
        b.outbound(T0, 1, Some("b.idrive.com"), "srv", "cli");
        b.outbound(T0 + 490.0 * DAY, 1, Some("b.idrive.com"), "srv", "cli");
        b.outbound(T0, 2, Some("m.ayoba.me"), "ok-s", "same");
        let r = run(&b.build());

        assert_eq!(r.total_certs, 3);
        let idrive_client = r.row("IDrive", true).expect("client row");
        assert_eq!(idrive_client.clients, 1);
        assert_eq!(idrive_client.duration_days, 490);
        assert!(r.row("IDrive", false).is_some(), "server row");
        assert!(r.row("OpenPGP", true).is_some(), "identical-timestamp row");
        // idrive.com had inverted dates at BOTH endpoints.
        assert!(r
            .both_ends
            .iter()
            .any(|(sld, issuer, ..)| sld.as_deref() == Some("idrive.com")
                && issuer.contains("IDrive")));
    }

    #[test]
    fn healthy_certs_ignored() {
        let mut b = CorpusBuilder::new();
        b.cert("s", CertOpts::default());
        b.cert(
            "c",
            CertOpts {
                cn: Some("dev"),
                ..Default::default()
            },
        );
        b.outbound(T0, 1, None, "s", "c");
        let r = run(&b.build());
        assert_eq!(r.total_certs, 0);
        assert!(r.rows.is_empty());
    }
}
