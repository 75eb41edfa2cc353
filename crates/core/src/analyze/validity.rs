//! Experiment `fig4` — §5.3.2: validity periods of client certificates in
//! mutual TLS, by issuer category, including the extreme tail.

use crate::corpus::Corpus;
use crate::report::{count, Table};
use mtls_pki::IssuerCategory;
use std::collections::HashMap;

/// Histogram buckets in days.
pub const BUCKETS: [(i64, i64, &str); 8] = [
    (0, 30, "<=30"),
    (31, 90, "31-90"),
    (91, 398, "91-398"),
    (399, 825, "399-825"),
    (826, 3_650, "826-3650"),
    (3_651, 9_999, "3651-9999"),
    (10_000, 40_000, "10000-40000"),
    (40_001, i64::MAX, ">40000"),
];

/// Figure 4.
#[derive(Debug, Clone)]
pub struct Report {
    /// bucket -> (public count, private count) for inbound/outbound pooled.
    pub histogram: Vec<(String, usize, usize)>,
    /// Certificates with 10 000–40 000-day validity (paper: 7 911).
    pub very_long: usize,
    /// Issuer-category mix of the very-long population.
    pub very_long_categories: Vec<(IssuerCategory, f64)>,
    /// The maximum validity and its issuer organization.
    pub max_days: i64,
    pub max_issuer: String,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    let mut hist: Vec<(String, usize, usize)> = BUCKETS
        .iter()
        .map(|(_, _, label)| (label.to_string(), 0usize, 0usize))
        .collect();
    let mut very_long = 0usize;
    let mut cats: HashMap<IssuerCategory, usize> = HashMap::new();
    let mut max_days = 0i64;
    let mut max_issuer = String::new();

    for cert in corpus.live_certs() {
        if !cert.seen_as_client || !cert.in_mtls || cert.rec.has_incorrect_dates() {
            continue;
        }
        let days = cert.rec.validity_days();
        for (i, (lo, hi, _)) in BUCKETS.iter().enumerate() {
            if days >= *lo && days <= *hi {
                if cert.issuer.public {
                    hist[i].1 += 1;
                } else {
                    hist[i].2 += 1;
                }
                break;
            }
        }
        if (10_000..=40_000).contains(&days) {
            very_long += 1;
            *cats.entry(cert.issuer.category).or_insert(0) += 1;
        }
        if days > max_days {
            max_days = days;
            max_issuer = cert.rec.issuer_org.clone().unwrap_or_default();
        }
    }

    let mut very_long_categories: Vec<(IssuerCategory, f64)> = cats
        .into_iter()
        .map(|(c, n)| (c, n as f64 / very_long.max(1) as f64))
        .collect();
    very_long_categories.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("no NaN")
            .then_with(|| a.0.cmp(&b.0))
    });

    Report {
        histogram: hist,
        very_long,
        very_long_categories,
        max_days,
        max_issuer,
    }
}

impl Report {
    /// Render Figure 4's distribution.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 4: client-certificate validity periods (mutual TLS)",
            &["days", "public CA", "private CA"],
        );
        for (label, public, private) in &self.histogram {
            t.row(vec![label.clone(), count(*public), count(*private)]);
        }
        let mut s = t.render();
        s.push_str(&crate::report_ascii::bar_chart(
            "Figure 4 (chart): private-CA client-cert validity (days)",
            &self
                .histogram
                .iter()
                .map(|(label, _, private)| (label.clone(), *private))
                .collect::<Vec<_>>(),
            40,
        ));
        s.push_str(&format!(
            "10000-40000-day certs: {} (paper 7,911 at full scale)\n",
            count(self.very_long)
        ));
        for (cat, share) in self.very_long_categories.iter().take(4) {
            s.push_str(&format!("  {:.1}% {}\n", share * 100.0, cat.label()));
        }
        s.push_str(&format!(
            "max validity: {} days, issuer {:?} (paper: 83,432 days)\n",
            count(self.max_days.max(0) as usize),
            self.max_issuer
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, DAY, T0};

    #[test]
    fn buckets_long_tail_and_max() {
        let mut b = CorpusBuilder::new();
        b.cert("srv", CertOpts::default());
        b.cert(
            "short",
            CertOpts {
                cn: Some("d1"),
                issuer_org: None,
                not_before: T0,
                not_after: T0 + 14.0 * DAY,
                ..Default::default()
            },
        );
        b.cert(
            "year",
            CertOpts {
                cn: Some("d2"),
                issuer_org: Some("DigiCert Inc"),
                not_before: T0,
                not_after: T0 + 397.0 * DAY,
                ..Default::default()
            },
        );
        b.cert(
            "decade",
            CertOpts {
                cn: Some("d3"),
                issuer_org: Some("Blue Ridge Instruments Inc"),
                not_before: T0,
                not_after: T0 + 20_000.0 * DAY,
                ..Default::default()
            },
        );
        b.cert(
            "extreme",
            CertOpts {
                cn: Some("d4"),
                issuer_org: Some("TMDX Devices Inc"),
                not_before: T0,
                not_after: T0 + 83_432.0 * DAY,
                ..Default::default()
            },
        );
        b.cert(
            "inverted",
            CertOpts {
                cn: Some("d5"),
                issuer_org: None,
                not_before: T0,
                not_after: T0 - DAY,
                ..Default::default()
            },
        );
        for (n, fp) in ["short", "year", "decade", "extreme", "inverted"]
            .iter()
            .enumerate()
        {
            b.outbound(T0, n as u16 + 1, None, "srv", fp);
        }
        let r = run(&b.build());

        let bucket = |label: &str| {
            r.histogram
                .iter()
                .find(|(l, ..)| l == label)
                .map(|(_, pu, pr)| (*pu, *pr))
                .expect("bucket")
        };
        assert_eq!(bucket("<=30"), (0, 1));
        assert_eq!(bucket("91-398"), (1, 0)); // public
        assert_eq!(bucket("10000-40000"), (0, 1));
        assert_eq!(bucket(">40000"), (0, 1));
        assert_eq!(r.very_long, 1);
        assert_eq!(r.very_long_categories[0].0, IssuerCategory::Corporation);
        assert_eq!(r.max_days, 83_432);
        assert!(r.max_issuer.contains("TMDX"));
        // Inverted-date certs are excluded from the distribution.
        let total: usize = r.histogram.iter().map(|(_, a, b)| a + b).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn server_only_certs_are_out_of_scope() {
        let mut b = CorpusBuilder::new();
        b.cert("srv", CertOpts::default());
        b.cert(
            "cli",
            CertOpts {
                cn: Some("d"),
                ..Default::default()
            },
        );
        b.outbound(T0, 1, None, "srv", "cli");
        let r = run(&b.build());
        let total: usize = r.histogram.iter().map(|(_, a, b)| a + b).sum();
        assert_eq!(total, 1, "only the client cert counts in Figure 4");
    }
}
