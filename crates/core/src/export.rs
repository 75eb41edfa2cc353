//! Machine-readable export: one TSV file per experiment, suitable for
//! plotting the paper's figures (gnuplot/matplotlib/vega all ingest TSV).

use crate::ingest::IngestDiagnostics;
use crate::pipeline::PipelineOutput;
use mtls_obs::{Obs, SpanId};
use mtls_zeek::ERROR_KINDS;
use std::io::Write;
use std::path::Path;

/// Write one TSV file and return the number of bytes written (header and
/// rows, one trailing newline each) for the export byte counters.
fn write_file(
    dir: &Path,
    name: &str,
    header: &str,
    rows: Vec<Vec<String>>,
) -> std::io::Result<u64> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(dir.join(name))?);
    let mut bytes = header.len() as u64 + 1;
    writeln!(f, "{header}")?;
    for row in rows {
        let line = row.join("\t");
        bytes += line.len() as u64 + 1;
        writeln!(f, "{line}")?;
    }
    Ok(bytes)
}

/// Write every experiment's data under `dir` (created if missing).
pub fn write_tsv(out: &PipelineOutput, dir: &Path) -> std::io::Result<()> {
    write_tsv_obs(out, dir, &Obs::noop(), None)
}

/// [`write_tsv`] with observability: an `export` span under `parent` plus
/// file and byte counters.
pub fn write_tsv_obs(
    out: &PipelineOutput,
    dir: &Path,
    obs: &Obs,
    parent: Option<SpanId>,
) -> std::io::Result<()> {
    let span = obs.span(parent, "export");
    let mut files = 0u64;
    let mut bytes = 0u64;
    let mut track = |written: u64| {
        files += 1;
        bytes += written;
    };
    std::fs::create_dir_all(dir)?;

    track(write_file(
        dir,
        "fig1_prevalence.tsv",
        "month\tmtls_in\tmtls_out\tnon_mtls_sampled\tmtls_share",
        out.fig1
            .months
            .iter()
            .map(|m| {
                vec![
                    m.label.clone(),
                    m.mtls_in.to_string(),
                    m.mtls_out.to_string(),
                    m.non_mtls_raw.to_string(),
                    format!("{:.6}", m.share),
                ]
            })
            .collect(),
    )?);

    track(write_file(
        dir,
        "tab1_census.tsv",
        "category\ttotal\tmtls",
        [
            ("total", out.tab1.all),
            ("server", out.tab1.server),
            ("server_public", out.tab1.server_public),
            ("server_private", out.tab1.server_private),
            ("client", out.tab1.client),
            ("client_public", out.tab1.client_public),
            ("client_private", out.tab1.client_private),
        ]
        .iter()
        .map(|(name, row)| {
            vec![
                name.to_string(),
                row.total.to_string(),
                row.mtls.to_string(),
            ]
        })
        .collect(),
    )?);

    let port_rows = |cell: &crate::analyze::ports::RankedPorts, label: &str| {
        cell.ranked
            .iter()
            .map(|(group, n)| {
                vec![
                    label.to_string(),
                    group.label(),
                    n.to_string(),
                    format!("{:.6}", *n as f64 / cell.total.max(1) as f64),
                ]
            })
            .collect::<Vec<_>>()
    };
    let mut rows = port_rows(&out.tab2.inbound_mtls, "inbound_mtls");
    rows.extend(port_rows(&out.tab2.outbound_mtls, "outbound_mtls"));
    rows.extend(port_rows(&out.tab2.inbound_plain, "inbound_plain"));
    rows.extend(port_rows(&out.tab2.outbound_plain, "outbound_plain"));
    track(write_file(
        dir,
        "tab2_ports.tsv",
        "cell\tport\tconns\tshare",
        rows,
    )?);

    track(write_file(
        dir,
        "tab3_inbound.tsv",
        "association\tconn_share\tclient_share\tprimary_issuer\tprimary_share",
        out.tab3
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.association.label().to_string(),
                    format!("{:.6}", r.conn_share),
                    format!("{:.6}", r.client_share),
                    r.issuer_mix
                        .first()
                        .map(|(c, _)| c.label().to_string())
                        .unwrap_or_default(),
                    r.issuer_mix
                        .first()
                        .map(|(_, s)| format!("{s:.6}"))
                        .unwrap_or_default(),
                ]
            })
            .collect(),
    )?);

    track(write_file(
        dir,
        "fig2_flows.tsv",
        "tld\tserver_issuer\tclient_issuer\tconns",
        out.fig2
            .flows
            .iter()
            .map(|f| {
                vec![
                    f.tld.clone(),
                    if f.server_public { "public" } else { "private" }.to_string(),
                    f.client_category.label().to_string(),
                    f.conns.to_string(),
                ]
            })
            .collect(),
    )?);

    track(write_file(
        dir,
        "ser1_collisions.tsv",
        "issuer\tserial\tclient_certs\tserver_certs\tconns\tclients\tmedian_validity_days",
        out.ser1
            .groups
            .iter()
            .map(|g| {
                vec![
                    g.issuer.clone(),
                    g.serial.clone(),
                    g.client_certs.to_string(),
                    g.server_certs.to_string(),
                    g.conns.to_string(),
                    g.clients.to_string(),
                    g.median_validity_days.to_string(),
                ]
            })
            .collect(),
    )?);

    track(write_file(
        dir,
        "fig3_incorrect_dates.tsv",
        "sld\tside\tissuer\tnot_before_year\tnot_after_year\tcerts\tclients\tduration_days",
        out.fig3
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.sld.clone().unwrap_or_default(),
                    if r.client_side { "client" } else { "server" }.to_string(),
                    r.issuer.clone(),
                    r.not_before_year.to_string(),
                    r.not_after_year.to_string(),
                    r.certs.to_string(),
                    r.clients.to_string(),
                    r.duration_days.to_string(),
                ]
            })
            .collect(),
    )?);

    track(write_file(
        dir,
        "fig4_validity.tsv",
        "bucket_days\tpublic\tprivate",
        out.fig4
            .histogram
            .iter()
            .map(|(label, public, private)| {
                vec![label.clone(), public.to_string(), private.to_string()]
            })
            .collect(),
    )?);

    track(write_file(
        dir,
        "fig5_expired.tsv",
        "days_expired\tactivity_days\tpublic\tinbound\tissuer",
        out.fig5
            .points
            .iter()
            .map(|p| {
                vec![
                    p.days_expired.to_string(),
                    p.activity_days.to_string(),
                    p.public.to_string(),
                    p.inbound.to_string(),
                    p.issuer_org.clone(),
                ]
            })
            .collect(),
    )?);

    track(write_file(
        dir,
        "ext1_audit.tsv",
        "violation\tconnections",
        out.ext1
            .by_violation
            .iter()
            .map(|(v, n)| vec![v.label().to_string(), n.to_string()])
            .collect(),
    )?);

    track(write_file(
        dir,
        "gen1_generalization.tsv",
        "metric\tmeasured\tpaper",
        vec![
            vec![
                "inbound_device_mgmt_share".into(),
                format!("{:.6}", out.gen1.inbound_device_mgmt_share),
                ">0.30".into(),
            ],
            vec![
                "inbound_health_share".into(),
                format!("{:.6}", out.gen1.inbound_health_share),
                "0.649".into(),
            ],
            vec![
                "outbound_email_share".into(),
                format!("{:.6}", out.gen1.outbound_email_share),
                ">0.06".into(),
            ],
            vec![
                "external_cloud_server_share".into(),
                format!("{:.6}", out.gen1.external_cloud_server_share),
                ">0.68".into(),
            ],
            vec![
                "tls13_share".into(),
                format!("{:.6}", out.gen1.tls13_share),
                "0.4086".into(),
            ],
        ],
    )?);

    track(write_file(
        dir,
        "ext2_tracking.tsv",
        "fingerprint\twindow_days\tsource_ips\tsource_subnets\tidentifies_user",
        out.ext2
            .worst
            .iter()
            .map(|t| {
                vec![
                    t.fingerprint.to_string(),
                    t.window_days.to_string(),
                    t.source_ips.to_string(),
                    t.source_subnets.to_string(),
                    t.identifies_user.to_string(),
                ]
            })
            .collect(),
    )?);

    span.finish();
    if obs.enabled() {
        obs.counter_add("export.files", files);
        obs.counter_add("export.bytes", bytes);
    }
    Ok(())
}

/// Write the ingest accounting as `ingest_diagnostics.tsv` under `dir`
/// (created if missing): one row per shard, a `(meta.cloud_nets)` row for
/// skipped meta entries, a `(ct.log)` row for skipped CT lines, and a
/// `(total)` row with the corpus-wide sums.
pub fn write_ingest_tsv(diag: &IngestDiagnostics, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut header = String::from("shard\tmode\trows_parsed\tbytes_read");
    for kind in ERROR_KINDS {
        header.push('\t');
        header.push_str(kind.label());
    }
    header.push_str("\tquarantined\twall_micros");

    let mode = diag.mode.label().to_string();
    let mut rows: Vec<Vec<String>> = diag
        .stats
        .shards
        .iter()
        .map(|d| {
            let mut row = vec![
                d.shard.clone(),
                mode.clone(),
                d.rows_parsed.to_string(),
                d.bytes_read.to_string(),
            ];
            row.extend(d.skipped.iter().map(u64::to_string));
            row.push(
                d.quarantined
                    .as_ref()
                    .map(|q| q.kind.label().to_string())
                    .unwrap_or_else(|| "-".into()),
            );
            row.push(d.wall_micros.to_string());
            row
        })
        .collect();

    // The sidecar files' skips, each as one row under the error kind it
    // is: a malformed meta entry is a field-level failure, a `ct.log` line
    // without its three fields a column-count failure.
    let sidecars = [
        (
            "(meta.cloud_nets)",
            "bad_field",
            diag.meta_entries_skipped,
            diag.meta_micros,
        ),
        (
            "(ct.log)",
            "column_count",
            diag.ct_lines_skipped,
            diag.ct_micros,
        ),
    ];
    let sidecar_skips =
        |label: &str| -> u64 { sidecars.iter().filter(|s| s.1 == label).map(|s| s.2).sum() };
    for (name, kind, skipped, micros) in sidecars {
        if skipped == 0 {
            continue;
        }
        let mut row = vec![name.to_string(), mode.clone(), "0".into(), "0".into()];
        row.extend(ERROR_KINDS.iter().map(|k| {
            if k.label() == kind {
                skipped.to_string()
            } else {
                "0".to_string()
            }
        }));
        row.push("-".to_string());
        row.push(micros.to_string());
        rows.push(row);
    }

    let mut total = vec![
        "(total)".to_string(),
        mode,
        diag.stats.rows_parsed.to_string(),
        diag.stats.bytes_read.to_string(),
    ];
    total.extend(ERROR_KINDS.iter().map(|kind| {
        let per_shard: u64 = diag.stats.shards.iter().map(|d| d.skipped_of(*kind)).sum();
        (per_shard + sidecar_skips(kind.label())).to_string()
    }));
    total.push(diag.stats.shards_quarantined.to_string());
    total.push(diag.total_micros.to_string());
    rows.push(total);

    write_file(dir, "ingest_diagnostics.tsv", &header, rows).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, T0};
    use crate::{pipeline, Corpus};

    fn tiny_output() -> PipelineOutput {
        let mut b = CorpusBuilder::new();
        b.cert("s", CertOpts::default());
        b.cert(
            "c",
            CertOpts {
                cn: Some("dev"),
                ..Default::default()
            },
        );
        b.inbound(T0, 1, Some("x.campus-health.org"), "s", "c");
        let corpus: Corpus = b.build();
        // Assemble a PipelineOutput by running each analyzer directly.
        use crate::analyze as a;
        pipeline::PipelineOutput {
            fig1: a::prevalence::run(&corpus),
            tab1: a::cert_census::run(&corpus),
            tab2: a::ports::run(&corpus),
            tab3: a::inbound::run(&corpus),
            fig2: a::outbound_flows::run(&corpus),
            tab4: a::dummy_issuers::run(&corpus),
            ser1: a::serial_collisions::run(&corpus),
            tab5: a::cert_sharing::run(&corpus),
            tab6: a::subnet_spread::run(&corpus),
            fig3: a::incorrect_dates::run(&corpus),
            fig4: a::validity::run(&corpus),
            fig5: a::expired::run(&corpus),
            tab7: a::cn_san_usage::run(&corpus),
            tab8: a::info_types::run(&corpus, a::info_types::Slice::Mtls),
            tab9: a::unidentified::run(&corpus),
            tab13: a::info_types::run(&corpus, a::info_types::Slice::SharedCerts),
            tab14: a::info_types::run(&corpus, a::info_types::Slice::NonMtlsServers),
            pre1: a::interception_report::run(&corpus),
            ct1: a::ct_report::run(&corpus),
            ext1: a::audit::run(&corpus),
            ext2: a::tracking::run(&corpus),
            gen1: a::generalization::run(&corpus),
            corpus,
        }
    }

    #[test]
    fn writes_every_tsv() {
        let out = tiny_output();
        let dir = std::env::temp_dir().join(format!("mtlscope-export-{}", std::process::id()));
        write_tsv(&out, &dir).expect("export");
        for name in [
            "fig1_prevalence.tsv",
            "tab1_census.tsv",
            "tab2_ports.tsv",
            "tab3_inbound.tsv",
            "fig2_flows.tsv",
            "ser1_collisions.tsv",
            "fig3_incorrect_dates.tsv",
            "fig4_validity.tsv",
            "fig5_expired.tsv",
            "ext1_audit.tsv",
            "ext2_tracking.tsv",
            "gen1_generalization.tsv",
        ] {
            let text = std::fs::read_to_string(dir.join(name)).expect(name);
            assert!(text.lines().count() >= 1, "{name} has a header");
            assert!(text.lines().next().expect("header").contains('\t'));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writes_ingest_diagnostics_tsv() {
        use mtls_zeek::{IngestMode, ShardDiag, TsvError};
        let mut shard = ShardDiag::new("ssl.2022-05.log");
        shard.rows_parsed = 7;
        shard.bytes_read = 1_000;
        shard.record_skip(
            &TsvError::ColumnCount {
                line: 3,
                expected: 11,
                got: 2,
            },
            40,
            3,
            b"bad\trow",
        );
        let mut diag = IngestDiagnostics {
            mode: IngestMode::Lenient,
            meta_entries_skipped: 2,
            ct_lines_skipped: 3,
            ct_micros: 55,
            ..IngestDiagnostics::default()
        };
        diag.stats.absorb(shard);

        let dir = std::env::temp_dir().join(format!("mtlscope-export-diag-{}", std::process::id()));
        write_ingest_tsv(&diag, &dir).expect("export");
        let text = std::fs::read_to_string(dir.join("ingest_diagnostics.tsv")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("shard\tmode\trows_parsed\tbytes_read\tcolumn_count"));
        // Shard row, meta row, ct.log row, and the total row (which folds
        // all three in).
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("ssl.2022-05.log\tlenient\t7\t1000\t1\t0"));
        assert!(lines[2].starts_with("(meta.cloud_nets)\tlenient\t0\t0\t0\t2"));
        assert!(lines[3].starts_with("(ct.log)\tlenient\t0\t0\t3\t0"));
        assert!(lines[3].ends_with("\t-\t55"));
        assert!(lines[4].starts_with("(total)\tlenient\t7\t1000\t4\t2"));
        // Every skip the rendered ledger counts lands in the total row.
        let total_skips: u64 = lines[4]
            .split('\t')
            .skip(4)
            .take(ERROR_KINDS.len())
            .map(|f| f.parse::<u64>().unwrap())
            .sum();
        assert_eq!(
            total_skips,
            diag.stats.rows_skipped + diag.meta_entries_skipped + diag.ct_lines_skipped
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
