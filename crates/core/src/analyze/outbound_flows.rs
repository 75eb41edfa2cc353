//! Experiment `fig2` — Figure 2: outbound mutual-TLS flows — server TLD ×
//! server-issuer class × client-issuer category — plus §4.2.2's headline
//! statistics (top SLDs; public-server connections with missing-issuer
//! clients).

use crate::corpus::{Corpus, Direction};
use crate::report::{pct, pct_f, Table};
use mtls_intern::FxHashMap;
use mtls_pki::IssuerCategory;

/// One flow: (tld, server public?, client category) with its connection
/// count — the alluvial diagram's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    pub tld: String,
    pub server_public: bool,
    pub client_category: IssuerCategory,
    pub conns: usize,
}

/// Figure 2.
#[derive(Debug, Clone)]
pub struct Report {
    /// Outbound mTLS connections with a valid SNI (the figure's scope).
    pub total: usize,
    pub flows: Vec<Flow>,
    /// (sld, connection share), descending.
    pub top_slds: Vec<(String, f64)>,
    /// Share of public-server connections whose client cert lacks a valid
    /// issuer (paper: 45.71 %).
    pub public_server_missing_client: f64,
    /// Missing-issuer share over all outbound client-cert connections
    /// (paper: 37.84 %).
    pub missing_issuer_share: f64,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    let mut flows: FxHashMap<(&str, bool, IssuerCategory), usize> = FxHashMap::default();
    let mut slds: FxHashMap<&str, usize> = FxHashMap::default();
    let mut total = 0usize;
    let mut public_server = 0usize;
    let mut public_server_missing = 0usize;
    let mut missing = 0usize;
    let mut with_client = 0usize;

    for conn in corpus.mtls_conns() {
        if conn.direction != Direction::Outbound {
            continue;
        }
        let (Some(sid), Some(cid)) = (conn.server_leaf, conn.client_leaf) else {
            continue;
        };
        let server_public = corpus.cert(sid).issuer.public;
        let client_cat = corpus.cert(cid).issuer.category;
        with_client += 1;
        if client_cat == IssuerCategory::MissingIssuer {
            missing += 1;
        }
        if server_public {
            public_server += 1;
            if client_cat == IssuerCategory::MissingIssuer {
                public_server_missing += 1;
            }
        }
        // The figure only includes connections with a valid SNI.
        let (Some(tld), Some(sld)) = (conn.info.tld.as_deref(), conn.info.sld.as_deref()) else {
            continue;
        };
        total += 1;
        *flows.entry((tld, server_public, client_cat)).or_insert(0) += 1;
        *slds.entry(sld).or_insert(0) += 1;
    }

    let mut flows: Vec<Flow> = flows
        .into_iter()
        .map(|((tld, server_public, client_category), conns)| Flow {
            tld: tld.to_owned(),
            server_public,
            client_category,
            conns,
        })
        .collect();
    flows.sort_by(|a, b| {
        b.conns
            .cmp(&a.conns)
            .then_with(|| a.tld.cmp(&b.tld))
            .then_with(|| a.server_public.cmp(&b.server_public))
            .then_with(|| a.client_category.cmp(&b.client_category))
    });

    let mut top_slds: Vec<(String, f64)> = slds
        .into_iter()
        .map(|(sld, n)| (sld.to_owned(), n as f64 / total.max(1) as f64))
        .collect();
    top_slds.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("no NaN")
            .then_with(|| a.0.cmp(&b.0))
    });

    Report {
        total,
        flows,
        top_slds,
        public_server_missing_client: public_server_missing as f64 / public_server.max(1) as f64,
        missing_issuer_share: missing as f64 / with_client.max(1) as f64,
    }
}

impl Report {
    /// Share of a given SLD.
    pub fn sld_share(&self, sld: &str) -> f64 {
        self.top_slds
            .iter()
            .find(|(s, _)| s == sld)
            .map(|(_, share)| *share)
            .unwrap_or(0.0)
    }

    /// Render: flows plus headline stats.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 2: outbound mTLS flows (TLD x server issuer x client issuer)",
            &["tld", "server issuer", "client issuer", "conns", "%"],
        );
        for f in self.flows.iter().take(20) {
            t.row(vec![
                f.tld.clone(),
                if f.server_public { "Public" } else { "Private" }.to_string(),
                f.client_category.label().to_string(),
                f.conns.to_string(),
                pct(f.conns, self.total),
            ]);
        }
        let mut s = t.render();
        let mut t2 = Table::new("Figure 2: most prevalent SLDs", &["sld", "% conns"]);
        for (sld, share) in self.top_slds.iter().take(8) {
            t2.row(vec![sld.clone(), pct_f(*share)]);
        }
        s.push_str(&t2.render());
        s.push_str(&format!(
            "public-server conns with missing-issuer clients: {}% (paper 45.71%)\n\
             missing-issuer share of outbound client certs: {}% (paper 37.84%)\n",
            pct_f(self.public_server_missing_client),
            pct_f(self.missing_issuer_share)
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, T0};

    #[test]
    fn flows_slds_and_missing_issuer_stats() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "pub-s",
            CertOpts {
                issuer_org: Some("DigiCert Inc"),
                ..Default::default()
            },
        );
        b.cert(
            "prv-s",
            CertOpts {
                issuer_org: Some("Splunk"),
                ..Default::default()
            },
        );
        b.cert(
            "missing-c",
            CertOpts {
                issuer_org: None,
                ..Default::default()
            },
        );
        b.cert(
            "corp-c",
            CertOpts {
                issuer_org: Some("Honeywell International Inc"),
                ..Default::default()
            },
        );
        b.outbound(T0, 1, Some("x.amazonaws.com"), "pub-s", "missing-c");
        b.outbound(T0, 2, Some("y.amazonaws.com"), "pub-s", "corp-c");
        b.outbound(T0, 3, Some("z.splunkcloud.com"), "prv-s", "corp-c");
        // No SNI and no domain-like names on either side: outside the figure
        // (the corpus would otherwise fall back to certificate names).
        b.cert(
            "anon-s",
            CertOpts {
                cn: Some("gc-node"),
                issuer_org: Some("GuardiCore"),
                ..Default::default()
            },
        );
        b.cert(
            "anon-c",
            CertOpts {
                cn: Some("gc-agent"),
                issuer_org: None,
                ..Default::default()
            },
        );
        b.outbound(T0, 4, None, "anon-s", "anon-c");
        let r = run(&b.build());

        assert_eq!(r.total, 3, "missing-SNI conns outside the figure");
        assert!((r.sld_share("amazonaws.com") - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.missing_issuer_share - 2.0 / 4.0).abs() < 1e-12);
        assert_eq!(r.sld_share("splunkcloud.com"), 1.0 / 3.0);
        // public-server conns: 2, of which 1 missing-issuer client.
        assert!((r.public_server_missing_client - 0.5).abs() < 1e-12);
        // All three flows have one connection each; verify the exact set.
        assert_eq!(r.flows.len(), 3);
        assert!(r.flows.iter().all(|f| f.tld == "com" && f.conns == 1));
        assert!(r
            .flows
            .iter()
            .any(|f| f.server_public && f.client_category == IssuerCategory::MissingIssuer));
        assert!(r
            .flows
            .iter()
            .any(|f| !f.server_public && f.client_category == IssuerCategory::Corporation));
        assert!(r.render().contains("Figure 2"));
    }

    #[test]
    fn inbound_is_ignored() {
        let mut b = CorpusBuilder::new();
        b.cert("s", CertOpts::default());
        b.cert("c", CertOpts::default());
        b.inbound(T0, 1, Some("p.campus-health.org"), "s", "c");
        let r = run(&b.build());
        assert_eq!(r.total, 0);
        assert!(r.flows.is_empty());
    }
}
