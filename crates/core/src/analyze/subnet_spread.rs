//! Experiment `tab6` — §5.2.2: certificates used as server certs in some
//! connections and client certs in *different* connections, and how many
//! /24 subnets each role spans.

use crate::analyze::quantile;
use crate::corpus::Corpus;
use crate::report::Table;
use mtls_intern::{FxHashMap, FxHashSet};

/// Table 6.
#[derive(Debug, Clone)]
pub struct Report {
    /// Certificates qualifying for §5.2.2.
    pub cross_shared_certs: usize,
    /// Quantiles (50th, 75th, 99th, 100th) of /24 counts per role.
    pub server_quantiles: [usize; 4],
    pub client_quantiles: [usize; 4],
    /// Issuer-organization mix of the cross-shared certs, descending.
    pub issuer_mix: Vec<(String, f64)>,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    // Role usage in *distinct* connections: a cert that only ever appears
    // as both ends of the same connection is §5.2.1, not §5.2.2.
    let mut server_distinct: FxHashSet<usize> = FxHashSet::default();
    let mut client_distinct: FxHashSet<usize> = FxHashSet::default();
    for conn in corpus.live_conns() {
        if conn.same_cert_both_ends {
            continue;
        }
        if let Some(id) = conn.server_leaf {
            server_distinct.insert(id);
        }
        if let Some(id) = conn.client_leaf {
            client_distinct.insert(id);
        }
    }

    let qualifying: Vec<usize> = server_distinct
        .intersection(&client_distinct)
        .copied()
        .filter(|&id| !corpus.cert(id).excluded)
        .collect();

    let mut server_counts: Vec<usize> = Vec::with_capacity(qualifying.len());
    let mut client_counts: Vec<usize> = Vec::with_capacity(qualifying.len());
    let mut issuers: FxHashMap<&str, usize> = FxHashMap::default();
    for &id in &qualifying {
        let cert = corpus.cert(id);
        server_counts.push(cert.server_subnets);
        client_counts.push(cert.client_subnets);
        *issuers
            .entry(cert.rec.issuer_org.as_deref().unwrap_or_default())
            .or_insert(0) += 1;
    }
    server_counts.sort_unstable();
    client_counts.sort_unstable();

    let q = |v: &[usize]| {
        [
            quantile(v, 0.50),
            quantile(v, 0.75),
            quantile(v, 0.99),
            quantile(v, 1.0),
        ]
    };
    let mut issuer_mix: Vec<(String, f64)> = issuers
        .into_iter()
        .map(|(org, n)| (org.to_owned(), n as f64 / qualifying.len().max(1) as f64))
        .collect();
    issuer_mix.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("no NaN")
            .then_with(|| a.0.cmp(&b.0))
    });

    Report {
        cross_shared_certs: qualifying.len(),
        server_quantiles: q(&server_counts),
        client_quantiles: q(&client_counts),
        issuer_mix,
    }
}

impl Report {
    /// Render Table 6.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 6: /24 subnets spanned by cross-shared certificates",
            &["role", "50th", "75th", "99th", "100th"],
        );
        t.row(
            std::iter::once("Server".to_string())
                .chain(self.server_quantiles.iter().map(|q| q.to_string()))
                .collect(),
        );
        t.row(
            std::iter::once("Client".to_string())
                .chain(self.client_quantiles.iter().map(|q| q.to_string()))
                .collect(),
        );
        let mut s = t.render();
        s.push_str(&format!(
            "cross-shared certificates: {}\n",
            self.cross_shared_certs
        ));
        for (org, share) in self.issuer_mix.iter().take(4) {
            s.push_str(&format!(
                "  issuer {:.1}%: {}\n",
                share * 100.0,
                if org.is_empty() { "(missing)" } else { org }
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{external, internal, CertOpts, CorpusBuilder, T0};

    #[test]
    fn same_connection_sharing_does_not_qualify() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "fxp",
            CertOpts {
                issuer_org: Some("Globus Online"),
                cn: Some("t"),
                ..Default::default()
            },
        );
        b.inbound(T0, 1, None, "fxp", "fxp"); // 5.2.1, not 5.2.2
        let r = run(&b.build());
        assert_eq!(r.cross_shared_certs, 0);
    }

    #[test]
    fn distinct_role_usage_counts_subnets() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "dual",
            CertOpts {
                issuer_org: Some("Let's Encrypt"),
                cn: Some("x.shared-svc.com"),
                san_dns: vec!["x.shared-svc.com"],
                ..Default::default()
            },
        );
        b.cert("peer-s", CertOpts::default());
        b.cert(
            "peer-c",
            CertOpts {
                cn: Some("agent1"),
                ..Default::default()
            },
        );
        // As server from two distinct /24s (distinct resp subnets).
        b.conn(
            T0,
            external(1),
            internal(0x0100),
            443,
            Some("x.shared-svc.com"),
            "dual",
            "peer-c",
        );
        b.conn(
            T0,
            external(2),
            internal(0x0200),
            443,
            Some("x.shared-svc.com"),
            "dual",
            "peer-c",
        );
        // As client from three distinct /24s (distinct orig subnets).
        for n in [0x0100u16, 0x0200, 0x0300] {
            b.conn(T0, internal(n), external(9), 443, None, "peer-s", "dual");
        }
        let r = run(&b.build());
        assert_eq!(r.cross_shared_certs, 1);
        assert_eq!(r.server_quantiles, [2, 2, 2, 2]);
        assert_eq!(r.client_quantiles, [3, 3, 3, 3]);
        assert_eq!(r.issuer_mix[0].0, "Let's Encrypt");
    }
}
