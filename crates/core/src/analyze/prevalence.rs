//! Experiment `fig1` — Figure 1: percentage of TLS connections using
//! mutual TLS, monthly, May 2022 – March 2024.
//!
//! Non-mTLS records are a sampled stratum; their weight
//! (`MetaKnowledge::non_mtls_weight`) scales them back to population size
//! before shares are computed (DESIGN.md §1).

use crate::corpus::{Corpus, Direction};
use crate::report::{pct_f, Table};
use mtls_intern::FxHashMap;

/// One month of the series.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthRow {
    pub label: String,
    pub mtls_in: usize,
    pub mtls_out: usize,
    pub non_mtls_raw: usize,
    /// Weighted mutual-TLS share of all TLS connections.
    pub share: f64,
}

/// The Figure 1 series.
#[derive(Debug, Clone)]
pub struct Report {
    pub months: Vec<MonthRow>,
    pub share_start: f64,
    pub share_end: f64,
}

/// (year, month) of a Unix timestamp.
fn month_of(ts: f64) -> (i32, u32) {
    let (y, m, ..) = mtls_asn1::Asn1Time::from_unix(ts as i64).to_civil();
    (y, m)
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    let w = corpus.meta.non_mtls_weight;
    #[derive(Default)]
    struct Acc {
        mtls_in: usize,
        mtls_out: usize,
        non: usize,
    }
    let mut by_month: FxHashMap<(i32, u32), Acc> = FxHashMap::default();
    // All connections count here: interception filtering excludes
    // *certificates* from certificate analyses, not traffic from traffic
    // volume (the intercepted flows are real TLS connections).
    for conn in corpus.all_conns() {
        let acc = by_month.entry(month_of(conn.rec.ts)).or_default();
        if conn.mtls {
            match conn.direction {
                Direction::Inbound => acc.mtls_in += 1,
                _ => acc.mtls_out += 1,
            }
        } else {
            acc.non += 1;
        }
    }
    let mut months: Vec<MonthRow> = by_month
        .into_iter()
        .map(|((y, m), acc)| {
            let mtls = (acc.mtls_in + acc.mtls_out) as f64;
            let total = mtls + w * acc.non as f64;
            MonthRow {
                label: format!("{y:04}-{m:02}"),
                mtls_in: acc.mtls_in,
                mtls_out: acc.mtls_out,
                non_mtls_raw: acc.non,
                share: if total > 0.0 { mtls / total } else { 0.0 },
            }
        })
        .collect();
    // Label order, which is (year, month) order for years 0-9999.
    months.sort_unstable_by(|a, b| a.label.cmp(&b.label));
    let share_start = months.first().map(|m| m.share).unwrap_or(0.0);
    let share_end = months.last().map(|m| m.share).unwrap_or(0.0);
    Report {
        months,
        share_start,
        share_end,
    }
}

impl Report {
    /// The growth factor over the window.
    pub fn growth(&self) -> f64 {
        if self.share_start > 0.0 {
            self.share_end / self.share_start
        } else {
            0.0
        }
    }

    /// Render the monthly series.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 1: mutual-TLS share of TLS connections (monthly)",
            &[
                "month",
                "mTLS in",
                "mTLS out",
                "non-mTLS (sampled)",
                "mTLS share %",
            ],
        );
        for m in &self.months {
            t.row(vec![
                m.label.clone(),
                m.mtls_in.to_string(),
                m.mtls_out.to_string(),
                m.non_mtls_raw.to_string(),
                pct_f(m.share),
            ]);
        }
        let mut s = t.render();
        s.push_str(&crate::report_ascii::line_chart(
            "Figure 1 (chart): mTLS share %, May 2022 - Mar 2024",
            &self
                .months
                .iter()
                .map(|m| (m.label.clone(), m.share * 100.0))
                .collect::<Vec<_>>(),
            10,
        ));
        s.push_str(&format!(
            "start {} end {} (paper: 1.99% -> 3.61%)\n",
            pct_f(self.share_start),
            pct_f(self.share_end)
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, DAY, T0};

    #[test]
    fn monthly_series_and_weighting() {
        let mut b = CorpusBuilder::new();
        b.cert("s", CertOpts::default());
        b.cert("c", CertOpts::default());
        // Month 1: one mTLS inbound, one plain conn (weight 10).
        b.inbound(T0 + DAY, 1, Some("x.campus-main.edu"), "s", "c");
        b.inbound(T0 + 2.0 * DAY, 2, Some("x.campus-main.edu"), "s", "");
        // Month 2 (32 days later): two mTLS outbound, one plain.
        b.outbound(T0 + 32.0 * DAY, 3, Some("a.amazonaws.com"), "s", "c");
        b.outbound(T0 + 33.0 * DAY, 4, Some("a.amazonaws.com"), "s", "c");
        b.outbound(T0 + 34.0 * DAY, 5, Some("a.amazonaws.com"), "s", "");
        let report = run(&b.build());

        assert_eq!(report.months.len(), 2);
        let m1 = &report.months[0];
        assert_eq!(m1.label, "2022-05");
        assert_eq!((m1.mtls_in, m1.mtls_out, m1.non_mtls_raw), (1, 0, 1));
        // share = 1 / (1 + 10*1)
        assert!((m1.share - 1.0 / 11.0).abs() < 1e-12);
        let m2 = &report.months[1];
        assert_eq!((m2.mtls_in, m2.mtls_out, m2.non_mtls_raw), (0, 2, 1));
        assert!((m2.share - 2.0 / 12.0).abs() < 1e-12);
        assert!(report.growth() > 1.0);
    }

    #[test]
    fn empty_corpus_is_harmless() {
        let report = run(&CorpusBuilder::new().build());
        assert!(report.months.is_empty());
        assert_eq!(report.share_start, 0.0);
        assert_eq!(report.growth(), 0.0);
        assert!(report.render().contains("Figure 1"));
    }
}
