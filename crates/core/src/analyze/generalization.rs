//! Experiment `gen1` — §3.3: the dataset-generalization statistics the
//! paper uses to argue its campus is representative:
//!
//! 1. over 30 % of inbound mTLS traffic relates to device management and
//!    access control (FileWave + LDAPS);
//! 2. the public medical center accounts for 64.9 % of inbound mTLS;
//! 3. over 6 % of outbound mTLS is email (25/465/993), and over 68 % of
//!    external mTLS servers belong to popular cloud/security providers;
//! 4. TLS 1.3 (cert-invisible) is 40.86 % of all connections.

use crate::corpus::{Corpus, Direction, ServerAssociation};
use crate::report::pct_f;
use mtls_intern::FxHashSet;
use mtls_zeek::Ipv4;

/// The §3.3 summary.
#[derive(Debug, Clone)]
pub struct Report {
    /// FileWave (20017) + LDAPS (636) share of inbound mTLS connections.
    pub inbound_device_mgmt_share: f64,
    /// University-Health share of inbound mTLS connections.
    pub inbound_health_share: f64,
    /// Email-port (25/465/993) share of outbound mTLS connections.
    pub outbound_email_share: f64,
    /// Share of distinct external mTLS server IPs inside the cloud/security
    /// provider SLD set (amazonaws, rapid7, gpcloudservice, azure, apple).
    pub external_cloud_server_share: f64,
    /// TLS 1.3 share of all connections (weighted by the non-mTLS stratum).
    pub tls13_share: f64,
}

const CLOUD_SLDS: [&str; 6] = [
    "amazonaws.com",
    "rapid7.com",
    "gpcloudservice.com",
    "azure.com",
    "apple.com",
    "splunkcloud.com",
];

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    let mut inbound = 0usize;
    let mut inbound_devmgmt = 0usize;
    let mut inbound_health = 0usize;
    let mut outbound = 0usize;
    let mut outbound_email = 0usize;
    let mut external_servers: FxHashSet<Ipv4> = FxHashSet::default();
    let mut cloud_servers: FxHashSet<Ipv4> = FxHashSet::default();

    for conn in corpus.mtls_conns() {
        match conn.direction {
            Direction::Inbound => {
                inbound += 1;
                if matches!(conn.rec.resp_p, 20_017 | 636) {
                    inbound_devmgmt += 1;
                }
                if conn.association == ServerAssociation::UniversityHealth {
                    inbound_health += 1;
                }
            }
            Direction::Outbound => {
                outbound += 1;
                if matches!(conn.rec.resp_p, 25 | 465 | 993) {
                    outbound_email += 1;
                }
                let is_cloud = conn
                    .sld
                    .as_deref()
                    .map(|s| CLOUD_SLDS.contains(&s))
                    .unwrap_or(false)
                    || corpus.meta.is_cloud(conn.rec.resp_h);
                external_servers.insert(conn.rec.resp_h);
                if is_cloud {
                    cloud_servers.insert(conn.rec.resp_h);
                }
            }
            Direction::Transit => {}
        }
    }

    // TLS 1.3 share, strata-weighted like Figure 1.
    let w = corpus.meta.non_mtls_weight;
    let mut weighted_13 = 0.0;
    let mut weighted_all = 0.0;
    for conn in corpus.all_conns() {
        let weight = if conn.mtls { 1.0 } else { w };
        weighted_all += weight;
        if conn.rec.version == mtls_zeek::TlsVersion::Tls13 {
            weighted_13 += weight;
        }
    }

    Report {
        inbound_device_mgmt_share: inbound_devmgmt as f64 / inbound.max(1) as f64,
        inbound_health_share: inbound_health as f64 / inbound.max(1) as f64,
        outbound_email_share: outbound_email as f64 / outbound.max(1) as f64,
        external_cloud_server_share: cloud_servers.len() as f64
            / external_servers.len().max(1) as f64,
        tls13_share: weighted_13 / weighted_all.max(1.0),
    }
}

impl Report {
    /// Render the §3.3 bullets.
    pub fn render(&self) -> String {
        format!(
            "== Dataset generalization (section 3.3) ==\n\
             inbound mTLS on device-mgmt/access-control ports: {}% (paper: >30%)\n\
             inbound mTLS to the health system:               {}% (paper: 64.9%)\n\
             outbound mTLS on email ports:                    {}% (paper: >6%)\n\
             external mTLS servers at cloud/security slds:    {}% (paper: >68%)\n\
             TLS 1.3 share of all connections (cert-blind):   {}% (paper: 40.86%)\n",
            pct_f(self.inbound_device_mgmt_share),
            pct_f(self.inbound_health_share),
            pct_f(self.outbound_email_share),
            pct_f(self.external_cloud_server_share),
            pct_f(self.tls13_share),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{external, internal, CertOpts, CorpusBuilder, T0};

    #[test]
    fn computes_each_bullet() {
        let mut b = CorpusBuilder::new();
        b.cert("s", CertOpts::default());
        b.cert(
            "c",
            CertOpts {
                cn: Some("dev"),
                ..Default::default()
            },
        );
        // Inbound: one FileWave, one health 443.
        b.conn(
            T0,
            external(1),
            internal(1),
            20_017,
            Some("x.campus-main.edu"),
            "s",
            "c",
        );
        b.conn(
            T0,
            external(2),
            internal(1),
            443,
            Some("p.campus-health.org"),
            "s",
            "c",
        );
        // Outbound: one SMTP, one amazonaws, one misc.
        b.conn(
            T0,
            internal(1),
            external(10),
            25,
            Some("mx.mailrelay.com"),
            "s",
            "c",
        );
        b.conn(
            T0,
            internal(2),
            external(11),
            443,
            Some("e.amazonaws.com"),
            "s",
            "c",
        );
        b.conn(
            T0,
            internal(3),
            external(12),
            443,
            Some("n.devboard.com"),
            "s",
            "c",
        );
        let r = run(&b.build());

        assert!((r.inbound_device_mgmt_share - 0.5).abs() < 1e-12);
        assert!((r.inbound_health_share - 0.5).abs() < 1e-12);
        assert!((r.outbound_email_share - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.external_cloud_server_share - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.tls13_share, 0.0);
        assert!(r.render().contains("section 3.3"));
    }

    #[test]
    fn empty_corpus_is_all_zero() {
        let r = run(&CorpusBuilder::new().build());
        assert_eq!(r.inbound_health_share, 0.0);
        assert_eq!(r.tls13_share, 0.0);
    }
}
