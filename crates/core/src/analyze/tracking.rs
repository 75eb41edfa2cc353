//! Experiment `ext2` — client-certificate user tracking.
//!
//! The paper's related work (Foppe et al., PETS 2018; Wachs et al., TMA
//! 2017 — its refs \[16\] and \[44\]) shows that a network observer can track a
//! user by the client certificate they keep presenting: the certificate is
//! sent in clear (pre-1.3), is globally unique, and outlives IP churn. This
//! analyzer quantifies that exposure on the corpus: for each client
//! certificate, how long the observation window is (trackability duration),
//! across how many distinct source addresses and /24 networks it roamed
//! (linkability across locations), and whether its CN/SAN already carries
//! the user's identity (the worst case: tracking plus identification).

use crate::analyze::{quantile, TextMemo};
use crate::corpus::Corpus;
use crate::report::{count, pct, Table};
use mtls_classify::InfoType;
use mtls_zeek::Fp;

/// One trackable certificate.
#[derive(Debug, Clone)]
pub struct TrackedCert {
    pub fingerprint: Fp,
    /// Days between first and last observation.
    pub window_days: i64,
    /// Distinct source IPs it was presented from.
    pub source_ips: usize,
    /// Distinct /24s it was presented from.
    pub source_subnets: usize,
    /// Whether CN/SAN directly identifies a person (name / account / email).
    pub identifies_user: bool,
}

/// The tracking exposure report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Client certificates observed in ≥ 2 connections (trackable at all).
    pub trackable: usize,
    /// Of those, observed over ≥ 30 days.
    pub long_lived: usize,
    /// Of those, roaming across ≥ 2 /24s (cross-location linkage).
    pub roaming: usize,
    /// Trackable *and* carrying direct identity in CN/SAN.
    pub identified: usize,
    /// Quantiles (50/90/99th) of the tracking window in days.
    pub window_quantiles: [usize; 3],
    /// The worst offenders, longest window first.
    pub worst: Vec<TrackedCert>,
}

/// Run the analyzer over mutual-TLS client certificates.
pub fn run(corpus: &Corpus) -> Report {
    let mut tracked: Vec<TrackedCert> = Vec::new();
    let mut memo = TextMemo::new();
    for cert in corpus.live_certs() {
        if !cert.seen_as_client || !cert.in_mtls || cert.conns < 2 {
            continue;
        }
        let ctx = cert.issuer.classify_context(cert.rec.issuer_org.as_deref());
        let identifies_user = cert
            .rec
            .subject_cn
            .iter()
            .chain(cert.rec.san_dns.iter())
            .any(|s| {
                matches!(
                    memo.classify(s, ctx),
                    InfoType::PersonalName | InfoType::UserAccount | InfoType::Email
                )
            });
        tracked.push(TrackedCert {
            fingerprint: cert.rec.fingerprint,
            window_days: cert.activity_days(),
            source_ips: cert.client_ips,
            source_subnets: cert.client_subnets,
            identifies_user,
        });
    }

    let mut windows: Vec<usize> = tracked
        .iter()
        .map(|t| t.window_days.max(0) as usize)
        .collect();
    windows.sort_unstable();
    let window_quantiles = [
        quantile(&windows, 0.50),
        quantile(&windows, 0.90),
        quantile(&windows, 0.99),
    ];
    let long_lived = tracked.iter().filter(|t| t.window_days >= 30).count();
    let roaming = tracked.iter().filter(|t| t.source_subnets >= 2).count();
    let identified = tracked.iter().filter(|t| t.identifies_user).count();

    let mut worst = tracked.clone();
    worst.sort_by(|a, b| {
        b.identifies_user
            .cmp(&a.identifies_user)
            .then(b.window_days.cmp(&a.window_days))
            .then_with(|| a.fingerprint.cmp(&b.fingerprint))
    });
    worst.truncate(10);

    Report {
        trackable: tracked.len(),
        long_lived,
        roaming,
        identified,
        window_quantiles,
        worst,
    }
}

impl Report {
    /// Render the exposure summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "== Client-certificate tracking exposure (ext2; cf. paper refs [16],[44]) ==\n\
             trackable client certs (>=2 conns): {}\n\
             observed >= 30 days: {} ({}%)\n\
             roaming across >= 2 /24s: {} ({}%)\n\
             trackable AND identifying the user in CN/SAN: {} ({}%)\n\
             tracking-window days (50/90/99th): {} / {} / {}\n",
            count(self.trackable),
            count(self.long_lived),
            pct(self.long_lived, self.trackable),
            count(self.roaming),
            pct(self.roaming, self.trackable),
            count(self.identified),
            pct(self.identified, self.trackable),
            self.window_quantiles[0],
            self.window_quantiles[1],
            self.window_quantiles[2],
        );
        let mut t = Table::new(
            "Worst tracking exposures",
            &[
                "fingerprint (prefix)",
                "window (d)",
                "ips",
                "/24s",
                "identifies user",
            ],
        );
        for w in &self.worst {
            t.row(vec![
                w.fingerprint.as_str()[..16].to_string(),
                w.window_days.to_string(),
                w.source_ips.to_string(),
                w.source_subnets.to_string(),
                if w.identifies_user { "YES" } else { "no" }.to_string(),
            ]);
        }
        s.push_str(&t.render());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{external, internal, CertOpts, CorpusBuilder, DAY, T0};

    #[test]
    fn measures_windows_roaming_and_identity() {
        let mut b = CorpusBuilder::new();
        b.cert("srv", CertOpts::default());
        // A named user tracked for 200 days across two /24s.
        b.cert(
            "named",
            CertOpts {
                cn: Some("John Smith"),
                issuer_org: Some("Commonwealth University"),
                ..Default::default()
            },
        );
        b.conn(T0, external(0x0101), internal(9), 443, None, "srv", "named");
        b.conn(
            T0 + 200.0 * DAY,
            external(0x0201),
            internal(9),
            443,
            None,
            "srv",
            "named",
        );
        // An anonymous device seen twice in one day from one address.
        b.cert(
            "anon",
            CertOpts {
                cn: Some("f3a9c2d1"),
                issuer_org: None,
                ..Default::default()
            },
        );
        b.conn(T0, external(0x0301), internal(9), 443, None, "srv", "anon");
        b.conn(
            T0 + 3_600.0,
            external(0x0301),
            internal(9),
            443,
            None,
            "srv",
            "anon",
        );
        // A single-connection cert: not trackable.
        b.cert(
            "oneshot",
            CertOpts {
                cn: Some("x"),
                ..Default::default()
            },
        );
        b.conn(
            T0,
            external(0x0401),
            internal(9),
            443,
            None,
            "srv",
            "oneshot",
        );
        let r = run(&b.build());

        assert_eq!(r.trackable, 2);
        assert_eq!(r.long_lived, 1);
        assert_eq!(r.roaming, 1);
        assert_eq!(r.identified, 1);
        assert_eq!(r.worst[0].window_days, 200);
        assert!(r.worst[0].identifies_user);
        assert!(r.render().contains("tracking exposure"));
    }

    #[test]
    fn user_accounts_count_as_identity() {
        let mut b = CorpusBuilder::new();
        b.cert("srv", CertOpts::default());
        b.cert(
            "acct",
            CertOpts {
                cn: Some("hd7gr"),
                issuer_org: Some("Commonwealth University"),
                ..Default::default()
            },
        );
        b.conn(T0, external(1), internal(9), 443, None, "srv", "acct");
        b.conn(T0 + DAY, external(1), internal(9), 443, None, "srv", "acct");
        let r = run(&b.build());
        assert_eq!(r.identified, 1);
    }
}
