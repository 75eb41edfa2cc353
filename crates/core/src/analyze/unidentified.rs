//! Experiment `tab9` — Table 9: sub-classification of *unidentified* CN
//! strings into non-random, issuer-recognizable random, and random strings
//! of the characteristic lengths 8/32/36.

use crate::analyze::TextMemo;
use crate::corpus::Corpus;
use crate::report::{pct, Table};
use mtls_classify::{classify, classify_random, InfoType, RandomClass};
use std::collections::HashMap;

/// Which Table 9 column a certificate falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Col {
    ServerPrivateCn,
    ClientPublicCn,
    ClientPrivateCn,
    ClientPrivateSan,
}

impl Col {
    /// Header label.
    pub fn label(self) -> &'static str {
        match self {
            Col::ServerPrivateCn => "server/private CN",
            Col::ClientPublicCn => "client/public CN",
            Col::ClientPrivateCn => "client/private CN",
            Col::ClientPrivateSan => "client/private SAN",
        }
    }

    pub const ALL: [Col; 4] = [
        Col::ServerPrivateCn,
        Col::ClientPublicCn,
        Col::ClientPrivateCn,
        Col::ClientPrivateSan,
    ];
}

/// Table 9.
#[derive(Debug, Clone)]
pub struct Report {
    /// (column, class) -> count.
    pub counts: HashMap<(Col, RandomClass), usize>,
    pub totals: HashMap<Col, usize>,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    let mut counts: HashMap<(Col, RandomClass), usize> = HashMap::new();
    let mut totals: HashMap<Col, usize> = HashMap::new();
    // The random class of an unidentified string, `None` for the others.
    let mut memo = TextMemo::new();

    for cert in corpus.live_certs() {
        // Match Table 8's slice: mutual-TLS certs excluding the shared
        // (dual-role) population, which Table 13 covers.
        if !cert.in_mtls || cert.dual_role() {
            continue;
        }
        let ctx = cert.issuer.classify_context(cert.rec.issuer_org.as_deref());
        let recognizable = cert.issuer.recognizable;
        let mut tally = |col: Col, text| {
            let class = memo.get(text, (ctx.issuer_is_campus, recognizable), || {
                (classify(text, ctx) == InfoType::Unidentified)
                    .then(|| classify_random(text, recognizable))
            });
            let Some(class) = class else {
                return;
            };
            *counts.entry((col, class)).or_insert(0) += 1;
            *totals.entry(col).or_insert(0) += 1;
        };
        if let Some(cn) = cert.rec.subject_cn.as_deref() {
            if cert.seen_as_server && !cert.issuer.public {
                tally(Col::ServerPrivateCn, cn);
            }
            if cert.seen_as_client && cert.issuer.public {
                tally(Col::ClientPublicCn, cn);
            }
            if cert.seen_as_client && !cert.issuer.public {
                tally(Col::ClientPrivateCn, cn);
            }
        }
        if cert.seen_as_client && !cert.issuer.public {
            for san in &cert.rec.san_dns {
                tally(Col::ClientPrivateSan, san);
            }
        }
    }

    Report { counts, totals }
}

impl Report {
    /// Share of a class within a column.
    pub fn share(&self, col: Col, class: RandomClass) -> f64 {
        let n = self.counts.get(&(col, class)).copied().unwrap_or(0);
        n as f64 / self.totals.get(&col).copied().unwrap_or(0).max(1) as f64
    }

    /// Render Table 9.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 9: unidentified strings — random vs non-random",
            &[
                "class",
                "server/private CN",
                "client/public CN",
                "client/private CN",
                "client/private SAN",
            ],
        );
        for class in RandomClass::ALL {
            let mut row = vec![class.label().to_string()];
            for col in Col::ALL {
                let n = self.counts.get(&(col, class)).copied().unwrap_or(0);
                let total = self.totals.get(&col).copied().unwrap_or(0);
                row.push(if total == 0 {
                    "-".into()
                } else {
                    format!("{}%", pct(n, total))
                });
            }
            t.row(row);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, T0};

    #[test]
    fn classifies_random_strings_by_column() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "srv-hex8",
            CertOpts {
                issuer_org: Some("WebRTC"),
                cn: Some("f3a9c2d1"),
                ..Default::default()
            },
        );
        b.cert(
            "cli-campus",
            CertOpts {
                issuer_org: Some("Commonwealth University"),
                cn: Some("f3a9c2d17b604e5d"),
                ..Default::default()
            },
        );
        b.cert(
            "cli-hex32",
            CertOpts {
                issuer_org: None,
                cn: Some("f3a9c2d17b604e5df3a9c2d17b604e5d"),
                ..Default::default()
            },
        );
        b.cert(
            "cli-word",
            CertOpts {
                issuer_org: None,
                cn: Some("__transfer__"),
                ..Default::default()
            },
        );
        b.inbound(T0, 1, None, "srv-hex8", "cli-campus");
        b.inbound(T0, 2, None, "srv-hex8", "cli-hex32");
        b.inbound(T0, 3, None, "srv-hex8", "cli-word");
        let r = run(&b.build());

        assert!((r.share(Col::ServerPrivateCn, RandomClass::RandomLen8) - 1.0).abs() < 1e-12);
        // Campus issuer is recognizable -> "by Issuer" regardless of shape.
        assert_eq!(
            r.counts
                .get(&(Col::ClientPrivateCn, RandomClass::RandomByIssuer)),
            Some(&1)
        );
        assert_eq!(
            r.counts
                .get(&(Col::ClientPrivateCn, RandomClass::RandomLen32)),
            Some(&1)
        );
        assert_eq!(
            r.counts
                .get(&(Col::ClientPrivateCn, RandomClass::NonRandom)),
            Some(&1)
        );
        assert_eq!(r.totals[&Col::ClientPrivateCn], 3);
        assert!(r.render().contains("Table 9"));
    }

    #[test]
    fn identified_strings_do_not_appear() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "srv",
            CertOpts {
                issuer_org: Some("NodeRunner"),
                cn: Some("host.example.com"),
                ..Default::default()
            },
        );
        b.cert(
            "cli",
            CertOpts {
                issuer_org: None,
                cn: Some("John Smith"),
                ..Default::default()
            },
        );
        b.inbound(T0, 1, None, "srv", "cli");
        let r = run(&b.build());
        assert!(
            r.totals.is_empty(),
            "domains and names are not unidentified"
        );
    }
}
