//! Experiments `tab8`/`tab13`/`tab14` — information types in CN and SAN.
//!
//! Classifies the CN string and every SAN-DNS string of each certificate
//! with `mtls-classify`, bucketing by role × issuer class. Per the paper:
//! Table 8 covers mutual-TLS certificates *excluding* those shared by
//! server and client (analyzed separately in Table 13), Table 14 covers
//! server certificates from plain TLS.

use crate::analyze::TextMemo;
use crate::corpus::{CertInfo, Corpus};
use crate::report::{count, pct, Table};
use mtls_classify::InfoType;
use std::collections::HashMap;

/// Which certificate population to analyze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// Mutual-TLS certs, excluding dual-role (shared) ones — Table 8.
    Mtls,
    /// Certificates shared by server and client — Table 13.
    SharedCerts,
    /// Server certificates from non-mutual TLS — Table 14.
    NonMtlsServers,
}

/// Counts for one (role, public/private) column pair.
#[derive(Debug, Clone, Default)]
pub struct Column {
    pub cn_total: usize,
    pub san_total: usize,
    pub cn: HashMap<InfoType, usize>,
    /// A SAN may contain several types; a cert counts once per type.
    pub san: HashMap<InfoType, usize>,
}

/// Population cell: server/client × public/private.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cell {
    ServerPublic,
    ServerPrivate,
    ClientPublic,
    ClientPrivate,
}

impl Cell {
    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Cell::ServerPublic => "server x public CA",
            Cell::ServerPrivate => "server x private CA",
            Cell::ClientPublic => "client x public CA",
            Cell::ClientPrivate => "client x private CA",
        }
    }

    pub const ALL: [Cell; 4] = [
        Cell::ServerPublic,
        Cell::ServerPrivate,
        Cell::ClientPublic,
        Cell::ClientPrivate,
    ];
}

/// Table 8 / 13 / 14.
#[derive(Debug, Clone)]
pub struct Report {
    pub slice: Slice,
    pub columns: HashMap<Cell, Column>,
}

// `run` indexes its counts by `Cell as usize` and `InfoType as usize` and
// reads them back in `ALL` order, so each `ALL` lists its enum in
// declaration order.
const _: () = {
    let mut i = 0;
    while i < InfoType::ALL.len() {
        assert!(InfoType::ALL[i] as usize == i);
        i += 1;
    }
    let mut i = 0;
    while i < Cell::ALL.len() {
        assert!(Cell::ALL[i] as usize == i);
        i += 1;
    }
};

fn in_slice(slice: Slice, cert: &CertInfo) -> bool {
    match slice {
        Slice::Mtls => cert.in_mtls && !cert.dual_role(),
        Slice::SharedCerts => cert.in_mtls && cert.dual_role(),
        Slice::NonMtlsServers => cert.in_non_mtls_server,
    }
}

/// Run the analyzer.
pub fn run(corpus: &Corpus, slice: Slice) -> Report {
    /// One column's counts, by `InfoType as usize`.
    #[derive(Default)]
    struct Counts {
        cn_total: usize,
        san_total: usize,
        cn: [usize; InfoType::ALL.len()],
        san: [usize; InfoType::ALL.len()],
    }
    let mut counts: [Counts; 4] = Default::default();
    let mut memo = TextMemo::new();

    for cert in corpus.live_certs() {
        if !in_slice(slice, &cert) {
            continue;
        }
        let ctx = cert.issuer.classify_context(cert.rec.issuer_org.as_deref());
        let (server, client) = if cert.issuer.public {
            (Cell::ServerPublic, Cell::ClientPublic)
        } else {
            (Cell::ServerPrivate, Cell::ClientPrivate)
        };
        let cells = match slice {
            // Table 13 groups only by issuer class (shared certs are by
            // definition both roles); reuse the server cells.
            Slice::NonMtlsServers | Slice::SharedCerts => [Some(server), None],
            Slice::Mtls => [
                cert.seen_as_server.then_some(server),
                cert.seen_as_client.then_some(client),
            ],
        };

        let cn = cert
            .rec
            .subject_cn
            .as_deref()
            .filter(|s| !s.is_empty())
            .map(|cn| memo.classify(cn, ctx));
        // A SAN may contain several types; a cert counts once per type.
        let mut san = [false; InfoType::ALL.len()];
        for name in &cert.rec.san_dns {
            san[memo.classify(name, ctx) as usize] = true;
        }
        for cell in cells.into_iter().flatten() {
            let col = &mut counts[cell as usize];
            if let Some(ty) = cn {
                col.cn_total += 1;
                col.cn[ty as usize] += 1;
            }
            if !cert.rec.san_dns.is_empty() {
                col.san_total += 1;
                for (n, seen) in col.san.iter_mut().zip(san) {
                    *n += usize::from(seen);
                }
            }
        }
    }

    let present = |by_type: [usize; InfoType::ALL.len()]| -> HashMap<InfoType, usize> {
        InfoType::ALL
            .into_iter()
            .zip(by_type)
            .filter(|&(_, n)| n > 0)
            .collect()
    };
    let columns = Cell::ALL
        .into_iter()
        .zip(counts)
        .map(|(cell, c)| {
            let column = Column {
                cn_total: c.cn_total,
                san_total: c.san_total,
                cn: present(c.cn),
                san: present(c.san),
            };
            (cell, column)
        })
        .collect();
    Report { slice, columns }
}

impl Report {
    /// Count + share of an info type in a column's CN field.
    pub fn cn_share(&self, cell: Cell, ty: InfoType) -> (usize, f64) {
        let col = &self.columns[&cell];
        let n = col.cn.get(&ty).copied().unwrap_or(0);
        (n, n as f64 / col.cn_total.max(1) as f64)
    }

    /// Count + share of an info type in a column's SAN field.
    pub fn san_share(&self, cell: Cell, ty: InfoType) -> (usize, f64) {
        let col = &self.columns[&cell];
        let n = col.san.get(&ty).copied().unwrap_or(0);
        (n, n as f64 / col.san_total.max(1) as f64)
    }

    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let title = match self.slice {
            Slice::Mtls => "Table 8: information types in CN/SAN (mutual TLS)",
            Slice::SharedCerts => "Table 13: information types in shared certificates",
            Slice::NonMtlsServers => "Table 14: information types in non-mTLS server certs",
        };
        let mut out = String::new();
        for cell in Cell::ALL {
            let col = &self.columns[&cell];
            if col.cn_total == 0 && col.san_total == 0 {
                continue;
            }
            let mut t = Table::new(
                &format!("{title} — {}", cell.label()),
                &["type", "CN num", "CN %", "SAN num", "SAN %"],
            );
            for ty in InfoType::ALL {
                let cn = col.cn.get(&ty).copied().unwrap_or(0);
                let san = col.san.get(&ty).copied().unwrap_or(0);
                if cn == 0 && san == 0 {
                    continue;
                }
                t.row(vec![
                    ty.label().to_string(),
                    count(cn),
                    pct(cn, col.cn_total),
                    count(san),
                    pct(san, col.san_total),
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
    use crate::testutil::{CertOpts, CorpusBuilder, T0};

    fn corpus() -> crate::corpus::Corpus {
        let mut b = CorpusBuilder::new();
        b.cert(
            "pub-s",
            CertOpts {
                issuer_org: Some("DigiCert Inc"),
                cn: Some("a.example.com"),
                san_dns: vec!["a.example.com"],
                ..Default::default()
            },
        );
        b.cert(
            "webrtc-s",
            CertOpts {
                issuer_org: Some("WebRTC"),
                cn: Some("WebRTC"),
                ..Default::default()
            },
        );
        b.cert(
            "name-c",
            CertOpts {
                issuer_org: Some("Commonwealth University"),
                cn: Some("John Smith"),
                ..Default::default()
            },
        );
        b.cert(
            "acct-c",
            CertOpts {
                issuer_org: Some("Commonwealth University"),
                cn: Some("hd7gr"),
                ..Default::default()
            },
        );
        b.cert(
            "shared",
            CertOpts {
                issuer_org: Some("Globus Online"),
                cn: Some("__transfer__"),
                ..Default::default()
            },
        );
        b.cert(
            "plain-s",
            CertOpts {
                issuer_org: Some("NodeRunner"),
                cn: Some("hmpp"),
                ..Default::default()
            },
        );
        b.inbound(T0, 1, None, "pub-s", "name-c");
        b.inbound(T0, 2, None, "webrtc-s", "acct-c");
        b.inbound(T0, 3, None, "shared", "shared"); // dual role
        b.inbound(T0, 4, None, "plain-s", ""); // non-mTLS server
        b.build()
    }

    #[test]
    fn mtls_slice_classifies_and_excludes_shared() {
        let r = run(&corpus(), Slice::Mtls);
        let (n, share) = r.cn_share(Cell::ServerPublic, InfoType::Domain);
        assert_eq!((n, share), (1, 1.0));
        let (n, _) = r.cn_share(Cell::ServerPrivate, InfoType::OrgProduct);
        assert_eq!(n, 1, "WebRTC CN");
        let (names, _) = r.cn_share(Cell::ClientPrivate, InfoType::PersonalName);
        let (accts, _) = r.cn_share(Cell::ClientPrivate, InfoType::UserAccount);
        assert_eq!((names, accts), (1, 1));
        // The shared cert is NOT here.
        let (unident, _) = r.cn_share(Cell::ServerPrivate, InfoType::Unidentified);
        assert_eq!(unident, 0);
    }

    #[test]
    fn shared_slice_holds_dual_role_certs() {
        let r = run(&corpus(), Slice::SharedCerts);
        let (n, share) = r.cn_share(Cell::ServerPrivate, InfoType::Unidentified);
        assert_eq!((n, share), (1, 1.0), "__transfer__ lands in Table 13");
    }

    #[test]
    fn non_mtls_slice_holds_plain_servers() {
        let r = run(&corpus(), Slice::NonMtlsServers);
        let (n, _) = r.cn_share(Cell::ServerPrivate, InfoType::Unidentified);
        assert_eq!(n, 1, "hmpp lands in Table 14");
        let (pub_n, _) = r.cn_share(Cell::ServerPublic, InfoType::Domain);
        assert_eq!(pub_n, 0, "pub-s was mTLS, not plain");
    }

    #[test]
    fn san_multi_type_counts_once_per_type() {
        let mut b = CorpusBuilder::new();
        b.cert(
            "multi",
            CertOpts {
                issuer_org: Some("NodeRunner"),
                cn: Some("x"),
                san_dns: vec!["a.example.com", "b.example.com", "John Smith"],
                ..Default::default()
            },
        );
        b.cert(
            "cli",
            CertOpts {
                cn: Some("d"),
                ..Default::default()
            },
        );
        b.inbound(T0, 1, None, "multi", "cli");
        let r = run(&b.build(), Slice::Mtls);
        let (dom, _) = r.san_share(Cell::ServerPrivate, InfoType::Domain);
        let (per, _) = r.san_share(Cell::ServerPrivate, InfoType::PersonalName);
        assert_eq!(dom, 1, "two domain SANs count the cert once");
        assert_eq!(per, 1);
    }
}
