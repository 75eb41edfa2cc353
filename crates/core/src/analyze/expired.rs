//! Experiment `fig5` — §5.3.3: expired client certificates in successfully
//! established mutual-TLS connections.

use crate::corpus::{Corpus, Direction, ServerAssociation};
use crate::report::{count, pct, Table};
use std::collections::{HashMap, HashSet};

/// One expired certificate's scatter point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Days past expiry at first observation.
    pub days_expired: i64,
    /// Duration of activity (days).
    pub activity_days: i64,
    pub public: bool,
    pub issuer_org: String,
    pub inbound: bool,
}

/// Figure 5.
#[derive(Debug, Clone)]
pub struct Report {
    pub points: Vec<Point>,
    /// Inbound expired conns per server association.
    pub inbound_assoc: Vec<(ServerAssociation, usize)>,
    /// The outbound cluster: certs 800–1 200 days expired...
    pub outbound_cluster_total: usize,
    /// ...of which Apple-issued.
    pub outbound_cluster_apple: usize,
    pub outbound_cluster_microsoft: usize,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    // Which client certs are expired at their first observation?
    let mut expired_dir: HashMap<usize, bool> = HashMap::new(); // id -> inbound?
    let mut assoc_counts: HashMap<ServerAssociation, usize> = HashMap::new();
    let mut seen: HashSet<usize> = HashSet::new();

    for conn in corpus.mtls_conns() {
        let Some(cid) = conn.client_leaf else {
            continue;
        };
        let rec = &corpus.cert(cid).rec;
        if conn.rec.ts <= rec.not_valid_after as f64 || rec.has_incorrect_dates() {
            continue;
        }
        match conn.direction {
            Direction::Inbound => {
                *assoc_counts.entry(conn.association).or_insert(0) += 1;
                expired_dir.entry(cid).or_insert(true);
            }
            Direction::Outbound => {
                expired_dir.entry(cid).or_insert(false);
            }
            Direction::Transit => {}
        }
        seen.insert(cid);
    }

    let mut points = Vec::with_capacity(seen.len());
    let mut cluster_total = 0usize;
    let mut cluster_apple = 0usize;
    let mut cluster_ms = 0usize;
    for cid in seen {
        let cert = corpus.cert(cid);
        let inbound = expired_dir.get(&cid).copied().unwrap_or(false);
        let days_expired =
            ((cert.first_seen - cert.rec.not_valid_after as f64) / 86_400.0).round() as i64;
        let issuer_org = cert.rec.issuer_org.clone().unwrap_or_default();
        if !inbound && (800..=1_200).contains(&days_expired) {
            cluster_total += 1;
            if issuer_org.contains("Apple") {
                cluster_apple += 1;
            }
            if issuer_org.contains("Microsoft") {
                cluster_ms += 1;
            }
        }
        points.push(Point {
            days_expired,
            activity_days: cert.activity_days(),
            public: cert.issuer.public,
            issuer_org,
            inbound,
        });
    }

    points.sort_by(|a, b| {
        b.days_expired
            .cmp(&a.days_expired)
            .then_with(|| a.issuer_org.cmp(&b.issuer_org))
            .then_with(|| a.activity_days.cmp(&b.activity_days))
    });
    let mut inbound_assoc: Vec<(ServerAssociation, usize)> = assoc_counts.into_iter().collect();
    inbound_assoc.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    Report {
        points,
        inbound_assoc,
        outbound_cluster_total: cluster_total,
        outbound_cluster_apple: cluster_apple,
        outbound_cluster_microsoft: cluster_ms,
    }
}

impl Report {
    /// Render Figure 5's summaries.
    pub fn render(&self) -> String {
        let total_in = self.points.iter().filter(|p| p.inbound).count();
        let total_out = self.points.len() - total_in;
        let mut s = format!(
            "== Figure 5: expired client certificates in established mTLS ==\n\
             expired client certs: inbound {} / outbound {}\n",
            count(total_in),
            count(total_out)
        );
        let conn_total: usize = self.inbound_assoc.iter().map(|(_, n)| n).sum();
        let mut t = Table::new(
            "Figure 5a: inbound expired-cert connections by association",
            &["association", "conns", "%"],
        );
        for (assoc, n) in &self.inbound_assoc {
            t.row(vec![
                assoc.label().to_string(),
                count(*n),
                pct(*n, conn_total),
            ]);
        }
        s.push_str(&t.render());
        let out_points: Vec<(f64, f64, char)> = self
            .points
            .iter()
            .filter(|p| !p.inbound)
            .map(|p| {
                let mark = if p.issuer_org.contains("Apple") {
                    'a'
                } else if p.issuer_org.contains("Microsoft") {
                    'm'
                } else if p.public {
                    'o'
                } else {
                    '.'
                };
                (p.days_expired as f64, p.activity_days as f64, mark)
            })
            .collect();
        s.push_str(&crate::report_ascii::scatter(
            "Figure 5b (chart): outbound expired client certs (a=Apple, m=Microsoft)",
            &out_points,
            "days expired at first observation",
            "duration of activity (days)",
            60,
            10,
        ));
        s.push_str(&format!(
            "Figure 5b cluster (~1000 days expired, outbound): {} certs, {} Apple, {} Microsoft\n\
             (paper: 339-cert cluster, 337 Apple, 2 Microsoft)\n",
            self.outbound_cluster_total,
            self.outbound_cluster_apple,
            self.outbound_cluster_microsoft
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, DAY, T0};

    #[test]
    fn detects_expired_clients_and_the_apple_cluster() {
        let mut b = CorpusBuilder::new();
        b.cert("srv", CertOpts::default());
        // Expired ~1000 days before first observation, Apple-issued.
        b.cert(
            "apple",
            CertOpts {
                cn: Some("u1"),
                issuer_org: Some("Apple Inc."),
                not_before: T0 - 1_365.0 * DAY,
                not_after: T0 - 1_000.0 * DAY,
                ..Default::default()
            },
        );
        // Freshly valid cert: not in scope.
        b.cert(
            "valid",
            CertOpts {
                cn: Some("u2"),
                ..Default::default()
            },
        );
        // Inbound expired cert at the VPN.
        b.cert(
            "vpn-cli",
            CertOpts {
                cn: Some("u3"),
                issuer_org: None,
                not_before: T0 - 400.0 * DAY,
                not_after: T0 - 50.0 * DAY,
                ..Default::default()
            },
        );
        b.outbound(T0, 1, Some("gs.apple.com"), "srv", "apple");
        b.outbound(T0 + 90.0 * DAY, 1, Some("gs.apple.com"), "srv", "apple");
        b.outbound(T0, 2, Some("x.amazonaws.com"), "srv", "valid");
        b.inbound(T0, 3, Some("vpn.campus-vpn.net"), "srv", "vpn-cli");
        let r = run(&b.build());

        assert_eq!(r.points.len(), 2);
        let apple = r
            .points
            .iter()
            .find(|p| p.issuer_org.contains("Apple"))
            .expect("apple point");
        assert_eq!(apple.days_expired, 1_000);
        assert_eq!(apple.activity_days, 90);
        assert!(!apple.inbound);
        assert_eq!(r.outbound_cluster_total, 1);
        assert_eq!(r.outbound_cluster_apple, 1);
        assert_eq!(r.inbound_assoc[0].0, ServerAssociation::UniversityVpn);
    }

    #[test]
    fn inverted_dates_are_not_expired() {
        let mut b = CorpusBuilder::new();
        b.cert("srv", CertOpts::default());
        b.cert(
            "weird",
            CertOpts {
                cn: Some("w"),
                not_before: T0,
                not_after: T0 - 60_000.0 * DAY, // year ~1850
                ..Default::default()
            },
        );
        b.outbound(T0, 1, None, "srv", "weird");
        let r = run(&b.build());
        assert!(r.points.is_empty(), "Figure 3 population, not Figure 5");
    }
}
