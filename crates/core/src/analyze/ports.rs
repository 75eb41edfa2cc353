//! Experiment `tab2` — Table 2: prominent server ports / services, split
//! by direction and by mutual-vs-plain TLS.

use crate::corpus::{Corpus, Direction};
use crate::report::{pct, Table};
use mtls_intern::FxHashMap;

/// A port group: single ports, plus the Globus 50000–51000 range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PortGroup {
    Port(u16),
    GlobusRange,
}

impl PortGroup {
    fn of(port: u16) -> PortGroup {
        if (50_000..=51_000).contains(&port) {
            PortGroup::GlobusRange
        } else {
            PortGroup::Port(port)
        }
    }

    /// Display string.
    pub fn label(self) -> String {
        match self {
            PortGroup::Port(p) => p.to_string(),
            PortGroup::GlobusRange => "50000-51000".to_string(),
        }
    }

    /// IANA-style service guess (the paper's annotation column).
    pub fn service(self) -> &'static str {
        match self {
            PortGroup::Port(443) => "HTTPS",
            PortGroup::Port(8443) => "HTTPS",
            PortGroup::Port(25) => "SMTP",
            PortGroup::Port(465) => "SMTPS",
            PortGroup::Port(993) => "IMAPS",
            PortGroup::Port(636) => "LDAPS",
            PortGroup::Port(8883) => "MQTT over TLS",
            PortGroup::Port(20017) => "Corp.-FileWave",
            PortGroup::Port(9093) => "Corp.-Outset Medical",
            PortGroup::Port(9997) => "Corp.-Splunk",
            PortGroup::Port(33_854) => "Corp.-DvTel",
            PortGroup::Port(3128) => "Corp.-Miscellaneous",
            PortGroup::Port(52_730) => "Univ.-Unknown",
            PortGroup::GlobusRange => "Corp.-Globus",
            PortGroup::Port(_) => "-",
        }
    }
}

/// Ranked ports for one (direction, mtls) cell.
#[derive(Debug, Clone)]
pub struct RankedPorts {
    pub total: usize,
    /// (group, connections), descending.
    pub ranked: Vec<(PortGroup, usize)>,
}

impl RankedPorts {
    /// Share of a specific group.
    pub fn share(&self, group: PortGroup) -> f64 {
        let n = self
            .ranked
            .iter()
            .find(|(g, _)| *g == group)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        if self.total == 0 {
            0.0
        } else {
            n as f64 / self.total as f64
        }
    }
}

/// Table 2.
#[derive(Debug, Clone)]
pub struct Report {
    pub inbound_mtls: RankedPorts,
    pub outbound_mtls: RankedPorts,
    pub inbound_plain: RankedPorts,
    pub outbound_plain: RankedPorts,
}

fn rank(counts: FxHashMap<PortGroup, usize>) -> RankedPorts {
    let total = counts.values().sum();
    let mut ranked: Vec<(PortGroup, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    RankedPorts { total, ranked }
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    let mut cells: [FxHashMap<PortGroup, usize>; 4] = Default::default();
    for conn in corpus.live_conns() {
        let idx = match (conn.direction, conn.mtls) {
            (Direction::Inbound, true) => 0,
            (Direction::Outbound, true) => 1,
            (Direction::Inbound, false) => 2,
            (Direction::Outbound, false) => 3,
            (Direction::Transit, _) => continue,
        };
        *cells[idx]
            .entry(PortGroup::of(conn.rec.resp_p))
            .or_insert(0) += 1;
    }
    let [a, b, c, d] = cells;
    Report {
        inbound_mtls: rank(a),
        outbound_mtls: rank(b),
        inbound_plain: rank(c),
        outbound_plain: rank(d),
    }
}

impl Report {
    /// Render all four cells, top five each.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, cell) in [
            ("inbound, mutual TLS", &self.inbound_mtls),
            ("outbound, mutual TLS", &self.outbound_mtls),
            ("inbound, without mutual TLS", &self.inbound_plain),
            ("outbound, without mutual TLS", &self.outbound_plain),
        ] {
            let mut t = Table::new(
                &format!("Table 2: top server ports ({name})"),
                &["rank", "port", "%", "service"],
            );
            for (i, (group, n)) in cell.ranked.iter().take(5).enumerate() {
                t.row(vec![
                    (i + 1).to_string(),
                    group.label(),
                    pct(*n, cell.total),
                    group.service().to_string(),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{external, internal, CertOpts, CorpusBuilder, T0};

    #[test]
    fn ranks_ports_per_cell_and_groups_globus_range() {
        let mut b = CorpusBuilder::new();
        b.cert("s", CertOpts::default());
        b.cert("c", CertOpts::default());
        for port in [443, 443, 443, 20017, 20017, 50_123, 50_999] {
            b.conn(T0, external(1), internal(1), port, None, "s", "c");
        }
        b.conn(T0, external(1), internal(1), 25, None, "s", ""); // plain inbound
        b.conn(T0, internal(1), external(1), 443, None, "s", "c"); // mTLS outbound
        let r = run(&b.build());

        assert_eq!(r.inbound_mtls.total, 7);
        assert_eq!(r.inbound_mtls.ranked[0].0, PortGroup::Port(443));
        assert_eq!(r.inbound_mtls.ranked[0].1, 3);
        // The two 50xxx ports fold into one group.
        assert!((r.inbound_mtls.share(PortGroup::GlobusRange) - 2.0 / 7.0).abs() < 1e-12);
        assert_eq!(r.inbound_plain.total, 1);
        assert_eq!(r.outbound_mtls.total, 1);
        assert_eq!(PortGroup::GlobusRange.service(), "Corp.-Globus");
        assert_eq!(PortGroup::Port(20017).service(), "Corp.-FileWave");
    }

    #[test]
    fn share_of_absent_port_is_zero() {
        let r = run(&CorpusBuilder::new().build());
        assert_eq!(r.inbound_mtls.share(PortGroup::Port(443)), 0.0);
    }
}
