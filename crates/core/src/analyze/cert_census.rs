//! Experiment `tab1` — Table 1: unique certificates total / by role / by
//! public-private, with the share used in mutual TLS.

use crate::corpus::Corpus;
use crate::report::{count, pct, Table};

/// One Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub total: usize,
    pub mtls: usize,
}

impl Row {
    fn add(&mut self, in_mtls: bool) {
        self.total += 1;
        if in_mtls {
            self.mtls += 1;
        }
    }
}

/// Table 1.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    pub all: Row,
    pub server: Row,
    pub server_public: Row,
    pub server_private: Row,
    pub client: Row,
    pub client_public: Row,
    pub client_private: Row,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    let zero = Row { total: 0, mtls: 0 };
    let mut r = Report {
        all: zero,
        server: zero,
        server_public: zero,
        server_private: zero,
        client: zero,
        client_public: zero,
        client_private: zero,
    };
    for cert in corpus.live_certs() {
        r.all.add(cert.in_mtls);
        if cert.seen_as_server {
            r.server.add(cert.in_mtls);
            if cert.issuer.public {
                r.server_public.add(cert.in_mtls);
            } else {
                r.server_private.add(cert.in_mtls);
            }
        }
        if cert.seen_as_client {
            r.client.add(cert.in_mtls);
            if cert.issuer.public {
                r.client_public.add(cert.in_mtls);
            } else {
                r.client_private.add(cert.in_mtls);
            }
        }
    }
    r
}

impl Report {
    /// Render in Table 1's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 1: unique certificates (total vs mutual TLS)",
            &["category", "total", "mTLS", "mTLS %"],
        );
        for (name, row) in [
            ("Total", self.all),
            ("Server", self.server),
            ("- Public CA", self.server_public),
            ("- Private CA", self.server_private),
            ("Client", self.client),
            ("- Public CA", self.client_public),
            ("- Private CA", self.client_private),
        ] {
            t.row(vec![
                name.to_string(),
                count(row.total),
                count(row.mtls),
                pct(row.mtls, row.total),
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
    fn counts_roles_and_trust() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "pub-srv",
            CertOpts {
                issuer_org: Some("DigiCert Inc"),
                ..Default::default()
            },
        );
        b.cert(
            "prv-srv",
            CertOpts {
                issuer_org: Some("NodeRunner"),
                ..Default::default()
            },
        );
        b.cert(
            "prv-cli",
            CertOpts {
                issuer_org: None,
                ..Default::default()
            },
        );
        b.cert(
            "dual",
            CertOpts {
                issuer_org: Some("Globus Online"),
                ..Default::default()
            },
        );
        b.inbound(T0, 1, None, "pub-srv", ""); // plain, public server
        b.inbound(T0, 2, None, "prv-srv", "prv-cli"); // mTLS
        b.inbound(T0, 3, None, "dual", "dual"); // shared both ends
        let r = run(&b.build());

        assert_eq!(r.all.total, 4);
        assert_eq!(r.all.mtls, 3); // prv-srv, prv-cli, dual
        assert_eq!(r.server.total, 3); // pub-srv, prv-srv, dual
        assert_eq!(r.server_public.total, 1);
        assert_eq!(r.server_public.mtls, 0);
        assert_eq!(r.server_private.mtls, 2);
        // dual counts under both roles, once each.
        assert_eq!(r.client.total, 2);
        assert_eq!(r.client.mtls, 2);
        assert!(r.render().contains("Table 1"));
    }

    #[test]
    fn client_only_connections_are_not_mtls() {
        let mut b = CorpusBuilder::new();
        b.cert("tun", CertOpts::default());
        b.inbound(T0, 1, None, "", "tun"); // no server chain
        let r = run(&b.build());
        assert_eq!(r.client.total, 1);
        assert_eq!(r.client.mtls, 0, "tunneling certs are outside mTLS");
    }
}
