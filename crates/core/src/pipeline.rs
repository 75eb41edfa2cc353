//! End-to-end pipeline: interception filtering → corpus → all analyzers.
//!
//! Every entry point runs one body (`run`): build the corpus, run the
//! analyzers, assemble [`PipelineOutput`]. The analyzers are one table,
//! `ANALYZERS`, of `(span name, job)` pairs, run in order on the
//! caller's thread. Every directory load hands the pipeline the same
//! [`AnalysisInputs`] (see [`crate::ingest::load_dir`]), windowed or not.

use crate::analyze;
use crate::analyze::info_types::Slice;
use crate::corpus::{CertId, Corpus, CtSummary, FpIndex, MetaKnowledge};
use crate::stream::StreamParts;
use mtls_intern::{FxHashMap, FxHashSet};
use mtls_obs::{Obs, SpanId};
use mtls_pki::{CtLog, GossipBundle};
use mtls_zeek::{Fp, SslRecord, X509Record};

/// Everything the pipeline consumes.
#[derive(Clone)]
pub struct AnalysisInputs {
    pub ssl: Vec<SslRecord>,
    pub x509: Vec<X509Record>,
    pub ct: CtLog,
    /// STH/proof evidence exchanged by the gossip vantage points. An empty
    /// bundle selects the legacy bare-issuer filter; a populated one makes
    /// preprocessing demand verifiable CT evidence ([`interception`]).
    pub gossip: GossipBundle,
    pub meta: MetaKnowledge,
}

impl AnalysisInputs {
    /// Adapt a simulator output.
    pub fn from_sim(out: mtls_netsim::SimOutput) -> AnalysisInputs {
        AnalysisInputs {
            meta: MetaKnowledge::from_sim(&out.meta),
            ssl: out.ssl,
            x509: out.x509,
            ct: out.ct,
            gossip: out.gossip,
        }
    }
}

/// The interception filter (§3.2.1): a server-leaf certificate is an
/// interception *candidate* when its issuer is not publicly trusted and the
/// CT log knows the certificate's domain under a *different* issuer. An
/// issuer is labelled interception (the paper's manual-investigation step)
/// when it has ≥ `MIN_CERTS` certificates and ≥ 80 % of them are
/// candidates. Returns (excluded fingerprints, interception issuer list).
///
/// The filter finds server leaves through the corpus's [`FpIndex`]: each
/// `x509.log` row is a server leaf when any connection presents its
/// fingerprint first, and every row counts toward its own issuer, so a
/// fingerprint on two rows counts under both rows' issuers.
///
/// With gossip evidence the stage is proof-carrying: it first audits the
/// evidence ([`mtls_pki::SplitViewDetector`]), runs the filter over the
/// index of the entries the evidence supports
/// ([`mtls_pki::CtAudit::trusted_index`]) instead of whatever the
/// (possibly equivocating) log *claims*, and finally flags SCT-stripped
/// twins of logged certificates. Without it (a capture with no
/// `ct_gossip.log`) the same body runs over the log's own index.
pub mod interception {
    use super::*;
    use mtls_pki::{CtIndex, SplitViewDetector};
    use std::borrow::Cow;

    pub(crate) const MIN_CERTS: usize = 3;
    pub(crate) const CANDIDATE_SHARE: f64 = 0.8;

    /// The per-certificate half of the filter: is this certificate's
    /// domain known to CT under a *different* issuer? Shared with the
    /// serve verdict path ([`crate::verdict`]) so the two calls can never
    /// diverge. The caller is responsible for the issuer-level gating
    /// (public issuers and empty orgs are out of scope).
    pub fn is_candidate(cert: &X509Record, ct: &CtIndex) -> bool {
        cert.san_dns
            .iter()
            .chain(cert.subject_cn.iter())
            .any(|domain| ct.contains_domain(domain) && !ct.domain_has_issuer(domain, &cert.issuer))
    }

    /// Run the filter over the log's own index (no gossip evidence) with
    /// the paper's thresholds. The excluded fingerprints are ready for
    /// [`Corpus::build`].
    pub fn filter(
        ssl: &[SslRecord],
        x509: &[X509Record],
        ct: &CtLog,
        meta: &MetaKnowledge,
    ) -> (FxHashSet<Fp>, Vec<String>) {
        filter_with(ssl, x509, ct, meta, MIN_CERTS, CANDIDATE_SHARE)
    }

    /// Run the filter with explicit thresholds (ablation: the decision is
    /// insensitive to the exact cutoffs because genuine middlebox issuers
    /// are ~100 % candidates while real CAs are ~0 %).
    pub fn filter_with(
        ssl: &[SslRecord],
        x509: &[X509Record],
        ct: &CtLog,
        meta: &MetaKnowledge,
        min_certs: usize,
        candidate_share: f64,
    ) -> (FxHashSet<Fp>, Vec<String>) {
        let no_gossip = GossipBundle::default();
        let fp_index = FpIndex::new(x509);
        let (excluded, issuers, _) = run(
            ssl,
            x509,
            &fp_index,
            ct,
            &no_gossip,
            meta,
            (min_certs, candidate_share),
        );
        let excluded = x509
            .iter()
            .zip(excluded)
            .filter_map(|(cert, excluded)| excluded.then_some(cert.fingerprint))
            .collect();
        (excluded, issuers)
    }

    /// The one filter body: gossip audit (when evidence is present), one
    /// pass over the server leaves against the trusted index, issuer
    /// aggregation. Returns the combined exclusion marks (interception +
    /// stripped) by the id `fp_index` resolves each fingerprint to, the
    /// interception issuer list, and the [`CtSummary`] for the `ct1`
    /// report.
    pub(crate) fn run(
        ssl: &[SslRecord],
        x509: &[X509Record],
        fp_index: &FpIndex,
        ct: &CtLog,
        gossip: &GossipBundle,
        meta: &MetaKnowledge,
        (min_certs, candidate_share): (usize, f64),
    ) -> (Vec<bool>, Vec<String>, CtSummary) {
        // Connections presenting each certificate as their server leaf.
        let mut served = vec![0usize; x509.len()];
        for id in ssl
            .iter()
            .filter_map(|rec| fp_index.get(x509, rec.cert_chain_fps.first()?))
        {
            served[id] += 1;
        }
        let audit = (!gossip.is_empty()).then(|| SplitViewDetector::audit(gossip));
        let (trusted, stats) = match &audit {
            Some(audit) => audit.trusted_index(ct, gossip),
            None => (Cow::Borrowed(ct.index()), Default::default()),
        };

        // Private issuers: each issuer's server leaves and the candidates
        // among them. Public issuers, with gossip evidence only: SCT-strip
        // detection — a middlebox that strips SCTs forwards a certificate
        // whose *exact* FQDN trusted CT knows under the same issuer, yet
        // the precise fingerprint was never logged. Exact-domain matching
        // only: wildcard/SLD matches would flag unrelated unlogged
        // renewals sharing a registered domain.
        let mut per_issuer: FxHashMap<&str, (usize, Vec<CertId>)> = FxHashMap::default();
        let mut stripped: FxHashSet<CertId> = FxHashSet::default();
        for (row, cert) in x509.iter().enumerate() {
            let id = fp_index.resolve(row);
            if served[id] == 0 {
                continue;
            }
            if meta.issuer_is_public(cert.issuer_org.as_deref()) {
                if audit.is_some()
                    && cert.san_dns.iter().chain(cert.subject_cn.iter()).any(|d| {
                        trusted.exact_domain_has_issuer(d, &cert.issuer)
                            && !trusted.exact_domain_has_fingerprint(d, &cert.fingerprint)
                    })
                {
                    stripped.insert(id);
                }
                continue;
            }
            let Some(org) = cert.issuer_org.as_deref() else {
                continue; // empty issuers are a different pathology
            };
            let (total, candidates) = per_issuer.entry(org).or_default();
            *total += 1;
            if is_candidate(cert, &trusted) {
                candidates.push(id);
            }
        }
        let mut excluded = vec![false; x509.len()];
        let issuers = aggregate(per_issuer, min_certs, candidate_share, &mut excluded);
        let Some(audit) = audit else {
            return (excluded, issuers, CtSummary::default());
        };

        let stripped_conns = stripped.iter().map(|&id| served[id]).sum();
        for &id in &stripped {
            excluded[id] = true;
        }

        let sum = |f: fn(&mtls_pki::gossip::LogAudit) -> usize| -> usize {
            audit.logs.iter().map(f).sum()
        };
        let summary = CtSummary {
            proofs_mode: true,
            logs_observed: audit.logs.len(),
            sths_observed: sum(|l| l.sths),
            signature_failures: sum(|l| l.signature_failures),
            consistency_verified: sum(|l| l.consistency_verified),
            consistency_failed: sum(|l| l.consistency_failed),
            split_view_logs: audit.split_view_log_ids(),
            entries_verified: stats.entries_verified,
            entries_rejected: stats.entries_rejected,
            inclusion_proofs_verified: stats.inclusion_proofs_verified,
            inclusion_proofs_failed: stats.inclusion_proofs_failed,
            stripped_certs: stripped.len(),
            stripped_conns,
        };
        (excluded, issuers, summary)
    }

    /// The issuer decision: an issuer with ≥ `min_certs` server leaves of
    /// which ≥ `candidate_share` are candidates is interception, and its
    /// candidates are marked in `excluded`. Returns the sorted issuers.
    fn aggregate(
        per_issuer: FxHashMap<&str, (usize, Vec<CertId>)>,
        min_certs: usize,
        candidate_share: f64,
        excluded: &mut [bool],
    ) -> Vec<String> {
        let mut issuers = Vec::new();
        for (org, (total, candidates)) in per_issuer {
            if total >= min_certs && (candidates.len() as f64) / (total as f64) >= candidate_share {
                issuers.push(org.to_string());
                for id in candidates {
                    excluded[id] = true;
                }
            }
        }
        issuers.sort();
        issuers
    }
}

/// Every report the pipeline produces (one per experiment in DESIGN.md §3).
pub struct PipelineOutput {
    pub corpus: Corpus,
    pub fig1: analyze::prevalence::Report,
    pub tab1: analyze::cert_census::Report,
    pub tab2: analyze::ports::Report,
    pub tab3: analyze::inbound::Report,
    pub fig2: analyze::outbound_flows::Report,
    pub tab4: analyze::dummy_issuers::Report,
    pub ser1: analyze::serial_collisions::Report,
    pub tab5: analyze::cert_sharing::Report,
    pub tab6: analyze::subnet_spread::Report,
    pub fig3: analyze::incorrect_dates::Report,
    pub fig4: analyze::validity::Report,
    pub fig5: analyze::expired::Report,
    pub tab7: analyze::cn_san_usage::Report,
    pub tab8: analyze::info_types::Report,
    pub tab9: analyze::unidentified::Report,
    pub tab13: analyze::info_types::Report,
    pub tab14: analyze::info_types::Report,
    pub pre1: analyze::interception_report::Report,
    /// CT verification & gossip summary (experiment `ct1`).
    pub ct1: analyze::ct_report::Report,
    /// Extension experiments (DESIGN.md §3: ext1/ext2).
    pub ext1: analyze::audit::Report,
    pub ext2: analyze::tracking::Report,
    /// §3.3 dataset-generalization summary.
    pub gen1: analyze::generalization::Report,
}

impl PipelineOutput {
    /// Render every report in paper order.
    pub fn render_all(&self) -> String {
        let mut out = String::new();
        for section in [
            self.pre1.render(),
            self.ct1.render(),
            self.fig1.render(),
            self.tab1.render(),
            self.tab2.render(),
            self.tab3.render(),
            self.fig2.render(),
            self.tab4.render(),
            self.ser1.render(),
            self.tab5.render(),
            self.tab6.render(),
            self.fig3.render(),
            self.fig4.render(),
            self.fig5.render(),
            self.tab7.render(),
            self.tab8.render(),
            self.tab9.render(),
            self.tab13.render(),
            self.tab14.render(),
            self.ext1.render(),
            self.ext2.render(),
            self.gen1.render(),
        ] {
            out.push_str(&section);
            out.push('\n');
        }
        out
    }
}

/// Interception filter → joined corpus from batch inputs, with the
/// `interception_filter` and `corpus_build` spans under `parent`, plus the
/// corpus-size gauges (certs, connections, distinct fingerprints under
/// the `corpus.interned_strings` name) and interception counters.
pub fn build_corpus_obs(inputs: AnalysisInputs, obs: &Obs, parent: Option<SpanId>) -> Corpus {
    let AnalysisInputs {
        ssl,
        x509,
        ct,
        gossip,
        meta,
    } = inputs;
    build_corpus_from(ssl, x509, meta, &ct, &gossip, obs, parent)
}

/// The one corpus build behind every pipeline entry point. The
/// interception filter runs over the whole loaded window (it needs the
/// global issuer/CT view, which no single epoch has), then the join. One
/// [`FpIndex`], built under the filter's span, serves both.
/// Spans and gauges are the same for every caller, so a metrics consumer
/// sees one schema.
fn build_corpus_from(
    ssl: Vec<SslRecord>,
    x509: Vec<X509Record>,
    meta: MetaKnowledge,
    ct: &CtLog,
    gossip: &GossipBundle,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Corpus {
    let (fp_index, (excluded, issuers, ct_summary)) =
        obs.time(parent, "interception_filter", || {
            let fp_index = FpIndex::new(&x509);
            let filtered = interception::run(
                &ssl,
                &x509,
                &fp_index,
                ct,
                gossip,
                &meta,
                (interception::MIN_CERTS, interception::CANDIDATE_SHARE),
            );
            (fp_index, filtered)
        });
    let mut corpus = obs.time(parent, "corpus_build", || {
        Corpus::join(ssl, x509, fp_index, &excluded, meta, issuers)
    });
    corpus.ct = ct_summary;
    record_corpus_metrics(obs, &corpus);
    corpus
}

/// The corpus-level counters and gauges (one metric schema regardless of
/// how the corpus was constructed).
fn record_corpus_metrics(obs: &Obs, corpus: &Corpus) {
    if !obs.enabled() {
        return;
    }
    obs.counter_add(
        "interception.issuers_flagged",
        corpus.interception_issuers.len() as u64,
    );
    obs.counter_add("interception.certs_excluded", corpus.excluded_certs as u64);
    let s = &corpus.ct;
    obs.counter_add("ct.proofs_mode", s.proofs_mode as u64);
    obs.counter_add("ct.logs_observed", s.logs_observed as u64);
    obs.counter_add("ct.sths_observed", s.sths_observed as u64);
    obs.counter_add("ct.sth_signature_failures", s.signature_failures as u64);
    obs.counter_add(
        "ct.consistency_proofs_verified",
        s.consistency_verified as u64,
    );
    obs.counter_add("ct.consistency_proofs_failed", s.consistency_failed as u64);
    obs.counter_add("ct.split_views_detected", s.split_view_logs.len() as u64);
    obs.counter_add("ct.entries_verified", s.entries_verified as u64);
    obs.counter_add("ct.entries_rejected", s.entries_rejected as u64);
    obs.counter_add(
        "ct.inclusion_proofs_verified",
        s.inclusion_proofs_verified as u64,
    );
    obs.counter_add(
        "ct.inclusion_proofs_failed",
        s.inclusion_proofs_failed as u64,
    );
    obs.counter_add("ct.stripped_certs_excluded", s.stripped_certs as u64);
    obs.counter_add("ct.stripped_conns_excluded", s.stripped_conns as u64);
    obs.gauge_set("corpus.certs", corpus.certs.len() as i64);
    obs.gauge_set("corpus.conns", corpus.conns.len() as i64);
    // Named for the fingerprint interner the join index replaced; the
    // value is still the number of distinct fingerprints indexed.
    obs.gauge_set("corpus.interned_strings", corpus.fp_index.len() as i64);
    obs.gauge_set("corpus.dangling_fps", corpus.dangling_fps as i64);
}

/// One slot per analyzer. Each [`ANALYZERS`] job fills its own slot;
/// [`assemble`] empties them into [`PipelineOutput`].
#[derive(Default)]
struct Slots {
    fig1: Option<analyze::prevalence::Report>,
    tab1: Option<analyze::cert_census::Report>,
    tab2: Option<analyze::ports::Report>,
    tab3: Option<analyze::inbound::Report>,
    fig2: Option<analyze::outbound_flows::Report>,
    tab4: Option<analyze::dummy_issuers::Report>,
    ser1: Option<analyze::serial_collisions::Report>,
    tab5: Option<analyze::cert_sharing::Report>,
    tab6: Option<analyze::subnet_spread::Report>,
    fig3: Option<analyze::incorrect_dates::Report>,
    fig4: Option<analyze::validity::Report>,
    fig5: Option<analyze::expired::Report>,
    tab7: Option<analyze::cn_san_usage::Report>,
    tab8: Option<analyze::info_types::Report>,
    tab9: Option<analyze::unidentified::Report>,
    tab13: Option<analyze::info_types::Report>,
    tab14: Option<analyze::info_types::Report>,
    ext1: Option<analyze::audit::Report>,
    ext2: Option<analyze::tracking::Report>,
    gen1: Option<analyze::generalization::Report>,
}

/// Run one analyzer over the corpus into its slot.
type Job = fn(&Corpus, &mut Slots);

/// The analyzer schedule, in paper order: each job runs under the span
/// `pipeline/analyze/<name>`. This is the only list of analyzers;
/// `crates/core/tests/repro_cli.rs` takes the span paths `repro --metrics`
/// must record from an in-process run, not from a copy of the names.
static ANALYZERS: [(&str, Job); 20] = [
    ("prevalence", |c, s| {
        s.fig1 = Some(analyze::prevalence::run(c))
    }),
    ("cert_census", |c, s| {
        s.tab1 = Some(analyze::cert_census::run(c))
    }),
    ("ports", |c, s| s.tab2 = Some(analyze::ports::run(c))),
    ("inbound", |c, s| s.tab3 = Some(analyze::inbound::run(c))),
    ("outbound_flows", |c, s| {
        s.fig2 = Some(analyze::outbound_flows::run(c))
    }),
    ("dummy_issuers", |c, s| {
        s.tab4 = Some(analyze::dummy_issuers::run(c))
    }),
    ("serial_collisions", |c, s| {
        s.ser1 = Some(analyze::serial_collisions::run(c))
    }),
    ("cert_sharing", |c, s| {
        s.tab5 = Some(analyze::cert_sharing::run(c))
    }),
    ("subnet_spread", |c, s| {
        s.tab6 = Some(analyze::subnet_spread::run(c))
    }),
    ("incorrect_dates", |c, s| {
        s.fig3 = Some(analyze::incorrect_dates::run(c))
    }),
    ("validity", |c, s| s.fig4 = Some(analyze::validity::run(c))),
    ("expired", |c, s| s.fig5 = Some(analyze::expired::run(c))),
    ("cn_san_usage", |c, s| {
        s.tab7 = Some(analyze::cn_san_usage::run(c))
    }),
    ("info_types_mtls", |c, s| {
        s.tab8 = Some(analyze::info_types::run(c, Slice::Mtls))
    }),
    ("unidentified", |c, s| {
        s.tab9 = Some(analyze::unidentified::run(c))
    }),
    ("info_types_shared_certs", |c, s| {
        s.tab13 = Some(analyze::info_types::run(c, Slice::SharedCerts))
    }),
    ("info_types_non_mtls_servers", |c, s| {
        s.tab14 = Some(analyze::info_types::run(c, Slice::NonMtlsServers))
    }),
    ("audit", |c, s| s.ext1 = Some(analyze::audit::run(c))),
    ("tracking", |c, s| s.ext2 = Some(analyze::tracking::run(c))),
    ("generalization", |c, s| {
        s.gen1 = Some(analyze::generalization::run(c))
    }),
];

/// Run every [`ANALYZERS`] job in table order on the caller's thread,
/// each under its own span inside one `analyze` span.
fn analyze_all(corpus: &Corpus, obs: &Obs, parent: Option<SpanId>) -> Slots {
    let analyze_span = obs.span(parent, "analyze");
    let aid = analyze_span.id();
    let mut slots = Slots::default();
    for (name, job) in &ANALYZERS {
        obs.time(aid, name, || job(corpus, &mut slots));
    }
    analyze_span.finish();
    slots
}

/// Key result sizes of every report, exported as gauges so a metrics
/// consumer can sanity-check a run without parsing the rendered tables.
/// Gauges (not counters): they are corpus facts, identical whichever
/// entry point ran — which is exactly what the entry-point equivalence
/// tests lean on.
fn record_report_gauges(obs: &Obs, out: &PipelineOutput) {
    if !obs.enabled() {
        return;
    }
    let g = |name: &str, v: usize| obs.gauge_set(name, v as i64);
    g("analyze.prevalence.months", out.fig1.months.len());
    g("analyze.cert_census.certs", out.tab1.all.total);
    g("analyze.inbound.conns", out.tab3.total_conns);
    g("analyze.outbound_flows.conns", out.fig2.total);
    g("analyze.serial_collisions.groups", out.ser1.groups.len());
    g("analyze.cert_sharing.shared_certs", out.tab5.shared_certs);
    g(
        "analyze.subnet_spread.cross_shared_certs",
        out.tab6.cross_shared_certs,
    );
    g("analyze.incorrect_dates.certs", out.fig3.total_certs);
    g("analyze.validity.very_long", out.fig4.very_long);
    g("analyze.expired.points", out.fig5.points.len());
    g("analyze.audit.flagged_conns", out.ext1.flagged_conns);
    g("analyze.tracking.trackable", out.ext2.trackable);
    g("analyze.interception.issuers", out.pre1.issuers.len());
    g(
        "analyze.interception.excluded_certs",
        out.pre1.excluded_certs,
    );
}

/// Fill [`PipelineOutput`] from the analyzer slots. The interception and
/// CT reports run here, under the `assemble` span, because they read
/// corpus-level preprocessing state, not analyzer output.
fn assemble(corpus: Corpus, s: Slots, obs: &Obs, parent: Option<SpanId>) -> PipelineOutput {
    let (pre1, ct1) = obs.time(parent, "assemble", || {
        (
            analyze::interception_report::run(&corpus),
            analyze::ct_report::run(&corpus),
        )
    });
    fn take<T>(slot: Option<T>) -> T {
        slot.expect("every analyzer job ran")
    }
    PipelineOutput {
        fig1: take(s.fig1),
        tab1: take(s.tab1),
        tab2: take(s.tab2),
        tab3: take(s.tab3),
        fig2: take(s.fig2),
        tab4: take(s.tab4),
        ser1: take(s.ser1),
        tab5: take(s.tab5),
        tab6: take(s.tab6),
        fig3: take(s.fig3),
        fig4: take(s.fig4),
        fig5: take(s.fig5),
        tab7: take(s.tab7),
        tab8: take(s.tab8),
        tab9: take(s.tab9),
        tab13: take(s.tab13),
        tab14: take(s.tab14),
        pre1,
        ct1,
        ext1: take(s.ext1),
        ext2: take(s.ext2),
        gen1: take(s.gen1),
        corpus,
    }
}

/// The one pipeline body behind every entry point: a `pipeline` span
/// under `parent` holding `build`'s corpus spans, the `analyze` span with
/// one child per analyzer, and the `assemble` span; then the per-report
/// gauges.
fn run(
    obs: &Obs,
    parent: Option<SpanId>,
    build: impl FnOnce(Option<SpanId>) -> Corpus,
) -> PipelineOutput {
    let pipeline_span = obs.span(parent, "pipeline");
    let pid = pipeline_span.id();
    let corpus = build(pid);
    let slots = analyze_all(&corpus, obs, pid);
    let out = assemble(corpus, slots, obs, pid);
    pipeline_span.finish();
    record_report_gauges(obs, &out);
    out
}

/// Run the full pipeline: the reference every other entry point matches
/// byte for byte.
pub fn run_pipeline(inputs: AnalysisInputs) -> PipelineOutput {
    run_pipeline_obs(inputs, &Obs::noop(), None)
}

/// [`run_pipeline`] with observability: a `pipeline` span under `parent`
/// containing the corpus-construction spans, an `analyze` span with one
/// child per analyzer, the `assemble` span, and per-report result gauges.
/// The analyzers run one at a time on the caller's thread.
pub fn run_pipeline_obs(
    inputs: AnalysisInputs,
    obs: &Obs,
    parent: Option<SpanId>,
) -> PipelineOutput {
    run(obs, parent, |pid| build_corpus_obs(inputs, obs, pid))
}

/// The same run as [`run_pipeline_obs`]. Kept for the benchmark
/// (`mtlsbench`), which calls it by this name; the next change to the
/// benchmark removes it. DESIGN §4 decision 1 records why there is no
/// analyzer thread pool.
pub fn run_pipeline_parallel_obs(
    inputs: AnalysisInputs,
    obs: &Obs,
    parent: Option<SpanId>,
) -> PipelineOutput {
    run_pipeline_obs(inputs, obs, parent)
}

/// [`run_pipeline_obs`] over [`StreamParts`] and a borrowed CT log. Kept
/// for the benchmark (`mtlsbench`), which calls it by this name; the next
/// change to the benchmark removes it.
pub fn run_pipeline_streamed_parallel_obs(
    parts: StreamParts,
    ct: &CtLog,
    gossip: &GossipBundle,
    obs: &Obs,
    parent: Option<SpanId>,
) -> PipelineOutput {
    run(obs, parent, |pid| {
        build_corpus_from(parts.ssl, parts.x509, parts.meta, ct, gossip, obs, pid)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{external, fp, internal, meta, T0};
    use mtls_zeek::{SslRecord, TlsVersion, X509Record};

    fn x509(name: &str, issuer_org: &str, cn: &str) -> X509Record {
        X509Record {
            ts: T0,
            fingerprint: fp(name),
            version: 3,
            serial: "01".into(),
            subject: format!("CN={cn}"),
            issuer: format!("O={issuer_org}"),
            issuer_org: Some(issuer_org.into()),
            subject_cn: Some(cn.into()),
            not_valid_before: 0,
            not_valid_after: i64::MAX / 2,
            key_alg: "rsa".into(),
            key_length: 2048,
            sig_alg: "sha256WithRSAEncryption".into(),
            san_dns: vec![cn.into()],
            san_email: vec![],
            san_uri: vec![],
            san_ip: vec![],
            basic_constraints_ca: false,
        }
    }

    fn conn(server: &str) -> SslRecord {
        SslRecord {
            ts: T0,
            uid: format!("C{server}"),
            orig_h: internal(5),
            orig_p: 40_000,
            resp_h: external(5),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: None,
            established: true,
            cert_chain_fps: vec![fp(server)],
            client_cert_chain_fps: vec![],
        }
    }

    /// A CT log where `popular.example.com` is known under DigiCert.
    fn ct_with_real_site() -> CtLog {
        let mut ct = CtLog::new();
        use mtls_asn1::Asn1Time;
        use mtls_crypto::Keypair;
        use mtls_pki::CertificateAuthority;
        use mtls_x509::{CertificateBuilder, DistinguishedName, GeneralName};
        let ca = CertificateAuthority::new_root(
            b"ct-digicert",
            DistinguishedName::builder()
                .organization("DigiCert Inc")
                .build(),
            Asn1Time::from_ymd(2022, 5, 1),
        );
        let key = Keypair::from_seed(b"site");
        let real = ca.issue(
            CertificateBuilder::new()
                .subject(
                    DistinguishedName::builder()
                        .common_name("popular.example.com")
                        .build(),
                )
                .san(vec![GeneralName::Dns("popular.example.com".into())])
                .validity(
                    Asn1Time::from_ymd(2022, 5, 1),
                    Asn1Time::from_ymd(2025, 5, 1),
                )
                .subject_key(key.key_id()),
        );
        ct.submit(&real);
        ct
    }

    #[test]
    fn interception_filter_flags_ct_mismatched_private_issuers() {
        let ct = ct_with_real_site();
        // Three proxy certs for the CT-known domain: flagged.
        let x509s = vec![
            x509("p1", "ProxyGuard CA", "popular.example.com"),
            x509("p2", "ProxyGuard CA", "popular.example.com"),
            x509("p3", "ProxyGuard CA", "popular.example.com"),
            // A private CA for a domain CT never saw: spared.
            x509("ok1", "Intranet CA", "internal.corp-only.com"),
            x509("ok2", "Intranet CA", "internal2.corp-only.com"),
            x509("ok3", "Intranet CA", "internal3.corp-only.com"),
        ];
        let ssl: Vec<SslRecord> = ["p1", "p2", "p3", "ok1", "ok2", "ok3"]
            .iter()
            .map(|name| conn(name))
            .collect();
        let (excluded, issuers) = interception::filter(&ssl, &x509s, &ct, &meta());
        assert_eq!(issuers, vec!["ProxyGuard CA".to_string()]);
        assert_eq!(excluded.len(), 3);
        assert!(excluded.contains(&fp("p1")) && !excluded.contains(&fp("ok1")));
    }

    #[test]
    fn public_issuers_and_small_issuers_are_never_flagged() {
        let ct = ct_with_real_site();
        // A *public* CA reissuing the domain (renewal) must not be flagged,
        // nor a private issuer with fewer than MIN_CERTS certificates.
        let x509s = vec![
            x509("d1", "DigiCert Inc", "popular.example.com"),
            x509("d2", "Let's Encrypt", "popular.example.com"),
            x509("tiny", "OneOff Proxy CA", "popular.example.com"),
        ];
        let ssl: Vec<SslRecord> = ["d1", "d2", "tiny"].iter().map(|n| conn(n)).collect();
        let (excluded, issuers) = interception::filter(&ssl, &x509s, &ct, &meta());
        assert!(excluded.is_empty(), "{excluded:?}");
        assert!(issuers.is_empty(), "{issuers:?}");
    }

    /// `x509.log` may repeat a fingerprint. Here "dup" is a candidate row
    /// under ProxyGuard CA and, later, a plain row under Intranet CA. The
    /// filter counts both rows, each under its own issuer; the join keeps
    /// the last row; and the excluded fingerprint excludes both rows.
    #[test]
    fn a_repeated_fingerprint_counts_every_row_and_joins_the_last() {
        let x509s = vec![
            x509("p1", "ProxyGuard CA", "popular.example.com"),
            x509("p2", "ProxyGuard CA", "popular.example.com"),
            x509("dup", "ProxyGuard CA", "popular.example.com"),
            x509("dup", "Intranet CA", "internal.corp-only.com"),
            x509("ok1", "Intranet CA", "internal1.corp-only.com"),
            x509("ok2", "Intranet CA", "internal2.corp-only.com"),
        ];
        let ssl: Vec<SslRecord> = ["p1", "p2", "dup", "ok1", "ok2"]
            .iter()
            .map(|name| conn(name))
            .collect();
        let inputs = AnalysisInputs {
            ssl: ssl.clone(),
            x509: x509s.clone(),
            ct: ct_with_real_site(),
            gossip: GossipBundle::default(),
            meta: meta(),
        };

        // Each issuer holds three rows, "dup" counted under both: with no
        // share required, each is flagged up to three certificates.
        for min_certs in 1..=4 {
            let (_, issuers) =
                interception::filter_with(&ssl, &x509s, &inputs.ct, &meta(), min_certs, 0.0);
            let want: Vec<String> = if min_certs <= 3 {
                vec!["Intranet CA".into(), "ProxyGuard CA".into()]
            } else {
                vec![]
            };
            assert_eq!(issuers, want, "min_certs {min_certs}");
        }
        let (excluded, issuers) = interception::filter(&ssl, &x509s, &inputs.ct, &meta());
        assert_eq!(issuers, vec!["ProxyGuard CA".to_string()]);
        let mut excluded: Vec<Fp> = excluded.into_iter().collect();
        excluded.sort();
        let mut want = vec![fp("p1"), fp("p2"), fp("dup")];
        want.sort();
        assert_eq!(excluded, want);

        let corpus = build_corpus_obs(inputs, &Obs::noop(), None);
        assert_eq!(
            corpus.interception_issuers,
            vec!["ProxyGuard CA".to_string()]
        );
        assert_eq!(corpus.cert_by_fp(&fp("dup")), Some(3));
        let excluded_rows: Vec<bool> = corpus.certs.iter().map(|c| c.excluded).collect();
        assert_eq!(excluded_rows, [true, true, true, true, false, false]);
        assert_eq!(corpus.excluded_certs, 4);
        let dup_conn = &corpus.conns[2];
        assert_eq!(dup_conn.server_leaf, Some(3));
        assert!(dup_conn.excluded);
        assert_eq!(corpus.live_conns().count(), 2);
    }
}
