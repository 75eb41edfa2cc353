//! Experiment `tab7` — Table 7: certificates (in mutual TLS) with
//! non-empty CN / SAN-DNS values, by role and issuer class — plus the
//! §6.1.2 scope check: how often the SAN's *other* typed slots (email, URI,
//! iPAddress) are populated at all (the paper: 99 % empty, which is why
//! the analysis focuses on SAN DNS).

use crate::corpus::Corpus;
use crate::report::{count, pct, Table};

/// One Table 7 row.
#[derive(Debug, Clone, Copy, Default)]
pub struct Row {
    pub total: usize,
    pub cn_nonempty: usize,
    pub san_nonempty: usize,
}

impl Row {
    fn add(&mut self, cn: bool, san: bool) {
        self.total += 1;
        if cn {
            self.cn_nonempty += 1;
        }
        if san {
            self.san_nonempty += 1;
        }
    }
}

/// Table 7.
#[derive(Debug, Clone, Copy, Default)]
pub struct Report {
    pub server: Row,
    pub server_public: Row,
    pub server_private: Row,
    pub client: Row,
    pub client_public: Row,
    pub client_private: Row,
    /// §6.1.2: mTLS certificates with any SAN email / URI / iPAddress —
    /// near-zero in the wild, which scopes the analysis to SAN DNS.
    pub san_email_nonempty: usize,
    pub san_uri_nonempty: usize,
    pub san_ip_nonempty: usize,
    pub total_mtls_certs: usize,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    let mut r = Report::default();
    for cert in corpus.live_certs() {
        if !cert.in_mtls {
            continue;
        }
        r.total_mtls_certs += 1;
        if !cert.rec.san_email.is_empty() {
            r.san_email_nonempty += 1;
        }
        if !cert.rec.san_uri.is_empty() {
            r.san_uri_nonempty += 1;
        }
        if !cert.rec.san_ip.is_empty() {
            r.san_ip_nonempty += 1;
        }
        let cn = cert
            .rec
            .subject_cn
            .as_deref()
            .map(|s| !s.is_empty())
            .unwrap_or(false);
        let san = !cert.rec.san_dns.is_empty();
        if cert.seen_as_server {
            r.server.add(cn, san);
            if cert.issuer.public {
                r.server_public.add(cn, san);
            } else {
                r.server_private.add(cn, san);
            }
        }
        if cert.seen_as_client {
            r.client.add(cn, san);
            if cert.issuer.public {
                r.client_public.add(cn, san);
            } else {
                r.client_private.add(cn, san);
            }
        }
    }
    r
}

impl Report {
    /// Render Table 7.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 7: non-empty CN / SAN-DNS in mutual-TLS certificates",
            &["category", "CN non-empty", "CN %", "SAN non-empty", "SAN %"],
        );
        for (name, row) in [
            ("Server certs.", self.server),
            ("- Public CA", self.server_public),
            ("- Private CA", self.server_private),
            ("Client certs.", self.client),
            ("- Public CA", self.client_public),
            ("- Private CA", self.client_private),
        ] {
            t.row(vec![
                name.to_string(),
                count(row.cn_nonempty),
                pct(row.cn_nonempty, row.total),
                count(row.san_nonempty),
                pct(row.san_nonempty, row.total),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "other SAN slots populated (of {} mTLS certs): email {}, uri {}, ip {} \
             (paper: ~99% empty, hence the SAN-DNS focus)\n",
            self.total_mtls_certs,
            self.san_email_nonempty,
            self.san_uri_nonempty,
            self.san_ip_nonempty
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, T0};

    #[test]
    fn counts_non_empty_fields_per_class() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "pub-s",
            CertOpts {
                issuer_org: Some("DigiCert Inc"),
                san_dns: vec!["a.example.com"],
                ..Default::default()
            },
        );
        b.cert(
            "prv-s",
            CertOpts {
                issuer_org: Some("NodeRunner"),
                ..Default::default()
            },
        ); // CN only
        b.cert(
            "no-cn",
            CertOpts {
                cn: None,
                issuer_org: None,
                ..Default::default()
            },
        );
        b.inbound(T0, 1, None, "pub-s", "no-cn");
        b.inbound(T0, 2, None, "prv-s", "no-cn");
        let r = run(&b.build());

        assert_eq!(r.server_public.total, 1);
        assert_eq!(r.server_public.san_nonempty, 1);
        assert_eq!(r.server_private.cn_nonempty, 1);
        assert_eq!(r.server_private.san_nonempty, 0);
        assert_eq!(r.client.total, 1);
        assert_eq!(r.client.cn_nonempty, 0, "empty CN counted as empty");
        assert!(r.render().contains("Table 7"));
    }

    #[test]
    fn non_mtls_certs_excluded() {
        let mut b = CorpusBuilder::new();
        b.cert("plain", CertOpts::default());
        b.inbound(T0, 1, None, "plain", "");
        let r = run(&b.build());
        assert_eq!(r.server.total, 0);
    }
}
