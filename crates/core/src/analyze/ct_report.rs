//! Experiment `ct1` — Certificate Transparency verification & gossip.
//!
//! Summarizes what the proof-carrying preprocessing stage
//! ([`crate::pipeline::interception`]) concluded: how many logs and signed
//! tree heads the gossip vantage points observed, which logs failed to
//! prove consistency (split views), how many CT entries survived
//! verification, and how many SCT-stripped certificates were excluded.
//! Against simulated corpora the planted ground truth
//! (`MetaKnowledge::ct_forked_logs`) additionally yields the detector's
//! precision and recall; both are `-` on clean corpora, where the planted
//! and detected sets are empty.

use crate::corpus::Corpus;
use crate::report::{count, Table};

/// The CT verification summary plus detection quality vs. ground truth.
#[derive(Debug, Clone)]
pub struct Report {
    pub summary: crate::corpus::CtSummary,
    /// Planted forked log ids (ground truth; empty on clean corpora).
    pub planted_forks: Vec<String>,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    Report {
        summary: corpus.ct.clone(),
        planted_forks: corpus.meta.ct_forked_logs.clone(),
    }
}

impl Report {
    /// Detected split views that were genuinely planted.
    pub fn true_positives(&self) -> usize {
        self.summary
            .split_view_logs
            .iter()
            .filter(|id| self.planted_forks.contains(id))
            .count()
    }

    /// Share of planted forks detected (`None` when nothing was planted).
    pub fn recall(&self) -> Option<f64> {
        if self.planted_forks.is_empty() {
            return None;
        }
        Some(self.true_positives() as f64 / self.planted_forks.len() as f64)
    }

    /// Share of detections that were planted (`None` with no detections).
    pub fn precision(&self) -> Option<f64> {
        if self.summary.split_view_logs.is_empty() {
            return None;
        }
        Some(self.true_positives() as f64 / self.summary.split_view_logs.len() as f64)
    }

    /// Render the summary table.
    pub fn render(&self) -> String {
        let s = &self.summary;
        let ratio = |v: Option<f64>| match v {
            Some(x) => format!("{:.0}%", x * 100.0),
            None => "-".to_string(),
        };
        let mut t = Table::new(
            "Preprocessing: CT verification & gossip (experiment ct1)",
            &["metric", "value"],
        );
        t.row(vec![
            "filter mode".into(),
            if s.proofs_mode {
                "proof-carrying (gossip evidence)".into()
            } else {
                "legacy (bare issuer comparison)".into()
            },
        ]);
        t.row(vec!["logs observed".into(), count(s.logs_observed)]);
        t.row(vec!["signed tree heads".into(), count(s.sths_observed)]);
        t.row(vec![
            "STH signature failures".into(),
            count(s.signature_failures),
        ]);
        t.row(vec![
            "consistency proofs verified".into(),
            count(s.consistency_verified),
        ]);
        t.row(vec![
            "consistency proofs failed".into(),
            count(s.consistency_failed),
        ]);
        t.row(vec![
            "split views detected".into(),
            count(s.split_view_logs.len()),
        ]);
        t.row(vec![
            "planted forks (ground truth)".into(),
            count(self.planted_forks.len()),
        ]);
        t.row(vec!["fork recall".into(), ratio(self.recall())]);
        t.row(vec!["fork precision".into(), ratio(self.precision())]);
        t.row(vec![
            "CT entries verified".into(),
            count(s.entries_verified),
        ]);
        t.row(vec![
            "CT entries rejected".into(),
            count(s.entries_rejected),
        ]);
        t.row(vec![
            "inclusion proofs verified".into(),
            count(s.inclusion_proofs_verified),
        ]);
        t.row(vec![
            "inclusion proofs failed".into(),
            count(s.inclusion_proofs_failed),
        ]);
        t.row(vec![
            "SCT-stripped certs excluded".into(),
            count(s.stripped_certs),
        ]);
        t.row(vec![
            "SCT-stripped conns excluded".into(),
            count(s.stripped_conns),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CtSummary;

    fn report(planted: &[&str], detected: &[&str]) -> Report {
        Report {
            summary: CtSummary {
                proofs_mode: true,
                split_view_logs: detected.iter().map(|s| s.to_string()).collect(),
                ..CtSummary::default()
            },
            planted_forks: planted.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn clean_corpus_has_no_ratios() {
        let r = report(&[], &[]);
        assert_eq!(r.recall(), None);
        assert_eq!(r.precision(), None);
        let text = r.render();
        assert!(text.contains("fork recall"));
        assert!(text.contains('-'));
    }

    #[test]
    fn perfect_detection_is_100_percent_both_ways() {
        let r = report(&["aa"], &["aa"]);
        assert_eq!(r.recall(), Some(1.0));
        assert_eq!(r.precision(), Some(1.0));
        assert!(r.render().contains("100%"));
    }

    #[test]
    fn misses_and_false_alarms_show_up() {
        let r = report(&["aa", "bb"], &["aa", "cc"]);
        assert_eq!(r.recall(), Some(0.5));
        assert_eq!(r.precision(), Some(0.5));
    }

    #[test]
    fn legacy_mode_renders_as_such() {
        let r = Report {
            summary: CtSummary::default(),
            planted_forks: vec![],
        };
        assert!(r.render().contains("legacy (bare issuer comparison)"));
    }
}
