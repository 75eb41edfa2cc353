//! Sinks: an owned [`Snapshot`] of everything recorded, rendered three
//! ways — a human-readable run summary (appended to the report), a
//! machine-readable `metrics.json`, and a flat `metrics.tsv`.
//!
//! Every rendering is deterministic for a given set of recorded values:
//! span rows come out in name-sorted pre-order (see
//! `SpanTree::rows`), counters/gauges/histograms
//! in name order. The JSON schema is pinned by a golden-file test
//! (`tests/golden.rs`); bump [`SCHEMA_VERSION`] when changing it.

use crate::metrics::HistogramSnapshot;
use crate::span::SpanRow;

/// Version stamp written into `metrics.json` (`schema_version`).
pub const SCHEMA_VERSION: u32 = 1;

/// An owned, deterministic snapshot of one [`Obs`](crate::Obs) session.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Span rows in name-sorted pre-order.
    pub spans: Vec<SpanRow>,
    /// `(name, value)` in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` in name order.
    pub gauges: Vec<(String, i64)>,
    /// Histograms in name order, non-empty buckets only.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a microsecond wall time at a human scale (µs → ms → s).
fn fmt_micros(micros: u64) -> String {
    if micros < 1_000 {
        format!("{micros}µs")
    } else if micros < 1_000_000 {
        format!("{:.1}ms", micros as f64 / 1_000.0)
    } else {
        format!("{:.2}s", micros as f64 / 1_000_000.0)
    }
}

/// Thousands separator for counts.
fn group_digits(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

impl Snapshot {
    /// The human-readable run summary: the span tree with counts, totals,
    /// and each top-level tree's share, then counters and gauges. Appended
    /// to the report by `repro --metrics`.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str("== Run metrics ==\n");
        // Root totals, for the share column: each subtree is measured
        // against its own root.
        let mut root_total = 0u64;
        let header = format!(
            "{:<52}  {:>7}  {:>10}  {:>10}  {:>6}\n",
            "span", "count", "total", "mean", "share"
        );
        out.push_str(&header);
        out.push_str(&"-".repeat(header.len() - 1));
        out.push('\n');
        for row in &self.spans {
            if row.depth == 0 {
                root_total = row.total_micros;
            }
            let label = format!("{}{}", "  ".repeat(row.depth), row.name);
            let mean = row.total_micros.checked_div(row.count).unwrap_or(0);
            let share = if root_total == 0 {
                "-".to_string()
            } else {
                format!(
                    "{:.1}%",
                    100.0 * row.total_micros as f64 / root_total as f64
                )
            };
            out.push_str(&format!(
                "{:<52}  {:>7}  {:>10}  {:>10}  {:>6}\n",
                label,
                row.count,
                fmt_micros(row.total_micros),
                fmt_micros(mean),
                share
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {:<50} {}\n", name, group_digits(*value)));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\ngauges:\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<50} {value}\n"));
            }
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "\nhistogram {} (n={}, sum={}):\n",
                h.name,
                group_digits(h.count),
                group_digits(h.sum)
            ));
            let peak = h.buckets.iter().map(|b| b.n).max().unwrap_or(1).max(1);
            for b in &h.buckets {
                let bar = "#".repeat(((b.n * 40).div_ceil(peak)) as usize);
                out.push_str(&format!(
                    "  [{:>12}, {:>12})  {:>8}  {bar}\n",
                    b.lo,
                    if b.hi == u64::MAX {
                        "inf".to_string()
                    } else {
                        b.hi.to_string()
                    },
                    group_digits(b.n)
                ));
            }
        }
        out
    }

    /// The machine-readable JSON document (`metrics.json`). Key order and
    /// row order are deterministic; schema changes must bump
    /// [`SCHEMA_VERSION`] and update the golden-file test.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));

        out.push_str("  \"spans\": [\n");
        for (i, row) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"path\": \"{}\", \"name\": \"{}\", \"depth\": {}, \"count\": {}, \
                 \"total_micros\": {}, \"min_micros\": {}, \"max_micros\": {}}}{}\n",
                json_escape(&row.path),
                json_escape(&row.name),
                row.depth,
                row.count,
                row.total_micros,
                row.min_micros,
                row.max_micros,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    \"{}\": {}",
                if i == 0 { "" } else { "," },
                json_escape(name),
                value
            ));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    \"{}\": {}",
                if i == 0 { "" } else { "," },
                json_escape(name),
                value
            ));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                if i == 0 { "" } else { "," },
                json_escape(&h.name),
                h.count,
                h.sum
            ));
            for (j, b) in h.buckets.iter().enumerate() {
                out.push_str(&format!(
                    "{}{{\"lo\": {}, \"hi\": {}, \"n\": {}}}",
                    if j == 0 { "" } else { ", " },
                    b.lo,
                    b.hi,
                    b.n
                ));
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push_str("}\n");
        out
    }

    /// The flat TSV rendering (`metrics.tsv`): one row per span, counter,
    /// gauge, and histogram bucket, with a `kind` discriminator column.
    pub fn to_tsv(&self) -> String {
        let mut out =
            String::from("kind\tname\tvalue\tcount\ttotal_micros\tmin_micros\tmax_micros\n");
        for row in &self.spans {
            out.push_str(&format!(
                "span\t{}\t-\t{}\t{}\t{}\t{}\n",
                row.path, row.count, row.total_micros, row.min_micros, row.max_micros
            ));
        }
        for (name, value) in &self.counters {
            out.push_str(&format!("counter\t{name}\t{value}\t-\t-\t-\t-\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge\t{name}\t{value}\t-\t-\t-\t-\n"));
        }
        for h in &self.histograms {
            for b in &h.buckets {
                out.push_str(&format!(
                    "histogram\t{}[{},{})\t{}\t{}\t-\t-\t-\n",
                    h.name, b.lo, b.hi, b.n, h.count
                ));
            }
        }
        out
    }

    /// Counter value by name, if recorded (test and heartbeat helper).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Span row by slash-joined path, if present.
    pub fn span(&self, path: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.path == path)
    }
}
