//! End-to-end pipeline: interception filtering → corpus → all analyzers.
//!
//! Every entry point runs one body ([`run`]): build the corpus, run the
//! analyzers, assemble [`PipelineOutput`]. The analyzers are one table,
//! [`ANALYZERS`], of `(span name, job)` pairs, run in order on the
//! caller's thread. Every directory load hands the pipeline the same
//! [`AnalysisInputs`] (see [`crate::ingest::load_dir`]), windowed or not.

use crate::analyze;
use crate::analyze::info_types::Slice;
use crate::corpus::{Corpus, CtSummary, MetaKnowledge};
use crate::stream::StreamParts;
use mtls_intern::{FxHashMap, FxHashSet, Interner, Symbol};
use mtls_obs::{Obs, SpanId};
use mtls_pki::{CtLog, GossipBundle};
use mtls_zeek::{SslRecord, X509Record};

/// Everything the pipeline consumes.
#[derive(Clone)]
pub struct AnalysisInputs {
    pub ssl: Vec<SslRecord>,
    pub x509: Vec<X509Record>,
    pub ct: CtLog,
    /// STH/proof evidence exchanged by the gossip vantage points. An empty
    /// bundle selects the legacy bare-issuer filter; a populated one makes
    /// preprocessing demand verifiable CT evidence ([`ctverify`]).
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
pub mod interception {
    use super::*;

    pub(crate) const MIN_CERTS: usize = 3;
    pub(crate) const CANDIDATE_SHARE: f64 = 0.8;

    /// The per-certificate half of the filter: is this certificate's
    /// domain known to CT under a *different* issuer? Shared with the
    /// serve verdict path ([`crate::verdict`]) so the two calls can never
    /// diverge. The caller is responsible for the issuer-level gating
    /// (public issuers and empty orgs are out of scope).
    pub fn is_candidate(cert: &X509Record, ct: &CtLog) -> bool {
        cert.san_dns
            .iter()
            .chain(cert.subject_cn.iter())
            .any(|domain| ct.contains_domain(domain) && !ct.domain_has_issuer(domain, &cert.issuer))
    }

    /// Run the filter with the paper's thresholds. Excluded fingerprints
    /// come back as symbols in `interner`, ready for [`Corpus::build`].
    pub fn filter(
        ssl: &[SslRecord],
        x509: &[X509Record],
        ct: &CtLog,
        meta: &MetaKnowledge,
        interner: &mut Interner,
    ) -> (FxHashSet<Symbol>, Vec<String>) {
        filter_with(ssl, x509, ct, meta, MIN_CERTS, CANDIDATE_SHARE, interner)
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
        interner: &mut Interner,
    ) -> (FxHashSet<Symbol>, Vec<String>) {
        aggregate(ssl, x509, meta, min_certs, candidate_share, interner, |c| {
            is_candidate(c, ct)
        })
    }

    /// The issuer-aggregation half, generic over the per-certificate
    /// candidate predicate so the legacy (bare [`CtLog`]) and verified
    /// ([`super::ctverify`]) paths share one body and can never drift.
    pub(crate) fn aggregate(
        ssl: &[SslRecord],
        x509: &[X509Record],
        meta: &MetaKnowledge,
        min_certs: usize,
        candidate_share: f64,
        interner: &mut Interner,
        is_cand: impl Fn(&X509Record) -> bool,
    ) -> (FxHashSet<Symbol>, Vec<String>) {
        // Which fingerprints are used as server leaves?
        let server_fps = server_leaf_fps(ssl);

        // Per private issuer: total server certs and candidate certs.
        let mut per_issuer: FxHashMap<&str, (usize, usize, Vec<Symbol>)> = FxHashMap::default();
        for cert in x509 {
            if !server_fps.contains(cert.fingerprint.as_str()) {
                continue;
            }
            if meta.issuer_is_public(cert.issuer_org.as_deref()) {
                continue;
            }
            let Some(org) = cert.issuer_org.as_deref() else {
                continue; // empty issuers are a different pathology
            };
            let candidate = is_cand(cert);
            let fp_sym = if candidate {
                Some(interner.intern(&cert.fingerprint))
            } else {
                None
            };
            let entry = per_issuer.entry(org).or_insert((0, 0, Vec::new()));
            entry.0 += 1;
            if let Some(sym) = fp_sym {
                entry.1 += 1;
                entry.2.push(sym);
            }
        }

        let mut excluded = FxHashSet::default();
        let mut issuers = Vec::new();
        for (org, (total, candidates, fps)) in per_issuer {
            if total >= min_certs && (candidates as f64) / (total as f64) >= candidate_share {
                issuers.push(org.to_string());
                excluded.extend(fps);
            }
        }
        issuers.sort();
        (excluded, issuers)
    }

    /// Fingerprints presented as server leaves anywhere in the capture.
    pub(crate) fn server_leaf_fps(ssl: &[SslRecord]) -> FxHashSet<&str> {
        let mut server_fps: FxHashSet<&str> = FxHashSet::default();
        for rec in ssl {
            if let Some(fp) = rec.cert_chain_fps.first() {
                server_fps.insert(fp);
            }
        }
        server_fps
    }
}

/// The proof-carrying §3.2 preprocessing stage. Instead of comparing the
/// observed issuer against whatever the (possibly equivocating) CT log
/// *claims*, it first audits the gossip evidence
/// ([`mtls_pki::SplitViewDetector`]), narrows the log to entries the
/// evidence supports ([`mtls_pki::VerifiedCt`]), runs the interception
/// filter over that verified view, and finally flags SCT-stripped twins of
/// logged certificates.
pub mod ctverify {
    use super::*;
    use mtls_pki::{SplitViewDetector, VerifiedCt};

    /// Is this certificate's domain known to *verified* CT under a
    /// different issuer? The verified twin of
    /// [`interception::is_candidate`].
    pub fn is_candidate_verified(cert: &X509Record, ct: &VerifiedCt) -> bool {
        cert.san_dns
            .iter()
            .chain(cert.subject_cn.iter())
            .any(|domain| ct.contains_domain(domain) && !ct.domain_has_issuer(domain, &cert.issuer))
    }

    /// Run the full verified filter: gossip audit → entry verification →
    /// issuer aggregation → SCT-strip detection. Returns the combined
    /// exclusion set (interception + stripped), the interception issuer
    /// list, and the [`CtSummary`] for the `ct1` report.
    pub fn filter(
        ssl: &[SslRecord],
        x509: &[X509Record],
        ct: &CtLog,
        gossip: &GossipBundle,
        meta: &MetaKnowledge,
        interner: &mut Interner,
    ) -> (FxHashSet<Symbol>, Vec<String>, CtSummary) {
        let audit = SplitViewDetector::audit(gossip);
        let (verified, stats) = VerifiedCt::build(ct, &audit, gossip);

        let (mut excluded, issuers) = interception::aggregate(
            ssl,
            x509,
            meta,
            interception::MIN_CERTS,
            interception::CANDIDATE_SHARE,
            interner,
            |cert| is_candidate_verified(cert, &verified),
        );

        // SCT-strip detection: a middlebox that strips SCTs forwards a
        // certificate whose *exact* FQDN verified CT knows under the same
        // (public) issuer — yet the precise fingerprint was never logged.
        // Exact-domain matching only: wildcard/SLD matches would flag
        // unrelated unlogged renewals sharing a registered domain.
        let server_fps = interception::server_leaf_fps(ssl);
        let mut stripped_syms: FxHashSet<Symbol> = FxHashSet::default();
        let mut stripped_fps: FxHashSet<&str> = FxHashSet::default();
        for cert in x509 {
            if !server_fps.contains(cert.fingerprint.as_str()) {
                continue;
            }
            if !meta.issuer_is_public(cert.issuer_org.as_deref()) {
                continue;
            }
            let is_stripped = cert.san_dns.iter().chain(cert.subject_cn.iter()).any(|d| {
                verified.exact_domain_has_issuer(d, &cert.issuer)
                    && !verified.exact_domain_has_fingerprint(d, &cert.fingerprint)
            });
            if is_stripped {
                stripped_syms.insert(interner.intern(&cert.fingerprint));
                stripped_fps.insert(cert.fingerprint.as_str());
            }
        }
        let stripped_conns = ssl
            .iter()
            .filter(|rec| {
                rec.cert_chain_fps
                    .first()
                    .is_some_and(|fp| stripped_fps.contains(fp.as_str()))
            })
            .count();
        excluded.extend(stripped_syms.iter().copied());

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
            stripped_certs: stripped_syms.len(),
            stripped_conns,
        };
        (excluded, issuers, summary)
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

/// Interception filter → interned corpus from batch inputs, with the
/// `interception_filter` and `corpus_build` spans under `parent`, plus the
/// corpus-size gauges (certs, connections, interned strings) and
/// interception counters.
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
/// global issuer/CT view, which no single epoch has), then the join, both
/// on a fresh interner. Spans and gauges are the same for every caller,
/// so a metrics consumer sees one schema.
fn build_corpus_from(
    ssl: Vec<SslRecord>,
    x509: Vec<X509Record>,
    meta: MetaKnowledge,
    ct: &CtLog,
    gossip: &GossipBundle,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Corpus {
    let mut interner = Interner::with_capacity(x509.len());
    let (excluded, issuers, ct_summary) = obs.time(parent, "interception_filter", || {
        run_ct_filter(&ssl, &x509, ct, gossip, &meta, &mut interner)
    });
    let mut corpus = obs.time(parent, "corpus_build", || {
        Corpus::build(ssl, x509, meta, &excluded, issuers, interner)
    });
    corpus.ct = ct_summary;
    record_corpus_metrics(obs, &corpus);
    corpus
}

/// Filter dispatch for [`build_corpus_from`]: with
/// gossip evidence the proof-carrying [`ctverify`] stage runs, without it
/// the legacy bare-issuer comparison (so file sets and captures that carry
/// no `ct_gossip.log` behave exactly as before).
fn run_ct_filter(
    ssl: &[SslRecord],
    x509: &[X509Record],
    ct: &CtLog,
    gossip: &GossipBundle,
    meta: &MetaKnowledge,
    interner: &mut Interner,
) -> (FxHashSet<Symbol>, Vec<String>, CtSummary) {
    if gossip.is_empty() {
        let (excluded, issuers) = interception::filter(ssl, x509, ct, meta, interner);
        (excluded, issuers, CtSummary::default())
    } else {
        ctverify::filter(ssl, x509, ct, gossip, meta, interner)
    }
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
    obs.gauge_set("corpus.interned_strings", corpus.interner().len() as i64);
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
/// `ci/check_metrics.py` keeps a copy of the names, and a test checks it
/// against the spans a run records.
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
    use crate::testutil::{external, internal, meta, T0};
    use mtls_zeek::{SslRecord, TlsVersion, X509Record};

    fn x509(fp: &str, issuer_org: &str, cn: &str) -> X509Record {
        X509Record {
            ts: T0,
            fingerprint: fp.into(),
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

    fn conn(server_fp: &str) -> SslRecord {
        SslRecord {
            ts: T0,
            uid: format!("C{server_fp}"),
            orig_h: internal(5),
            orig_p: 40_000,
            resp_h: external(5),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: None,
            established: true,
            cert_chain_fps: vec![server_fp.into()],
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
            .map(|fp| conn(fp))
            .collect();
        let mut interner = Interner::new();
        let (excluded, issuers) = interception::filter(&ssl, &x509s, &ct, &meta(), &mut interner);
        assert_eq!(issuers, vec!["ProxyGuard CA".to_string()]);
        assert_eq!(excluded.len(), 3);
        let has = |fp: &str| interner.get(fp).is_some_and(|sym| excluded.contains(&sym));
        assert!(has("p1") && !has("ok1"));
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
        let ssl: Vec<SslRecord> = ["d1", "d2", "tiny"].iter().map(|fp| conn(fp)).collect();
        let mut interner = Interner::new();
        let (excluded, issuers) = interception::filter(&ssl, &x509s, &ct, &meta(), &mut interner);
        assert!(excluded.is_empty(), "{excluded:?}");
        assert!(issuers.is_empty(), "{issuers:?}");
    }

    fn sim_inputs(seed: u64) -> AnalysisInputs {
        AnalysisInputs::from_sim(mtls_netsim::generate(&mtls_netsim::SimConfig {
            seed,
            scale: 0.005,
            ..Default::default()
        }))
    }

    /// `ci/check_metrics.py` gates the `run/pipeline/analyze/<name>` span
    /// paths from its own copy of the analyzer names (`ANALYZERS`). That
    /// copy must name exactly the spans a run records.
    #[test]
    fn ci_analyzer_list_matches_the_recorded_spans() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/check_metrics.py");
        let script = std::fs::read_to_string(path).expect("read ci/check_metrics.py");
        let (_, list) = script
            .split_once("\nANALYZERS = [")
            .expect("check_metrics.py defines ANALYZERS");
        let (list, _) = list.split_once(']').expect("ANALYZERS list is closed");
        let mut ci: Vec<&str> = list.split('"').skip(1).step_by(2).collect();
        ci.sort_unstable();

        let obs = Obs::new();
        run_pipeline_obs(sim_inputs(1302), &obs, None);
        let recorded: Vec<String> = obs
            .snapshot()
            .spans
            .into_iter()
            .filter_map(|row| Some(row.path.strip_prefix("pipeline/analyze/")?.to_string()))
            .collect();
        assert_eq!(recorded, ci, "ci/check_metrics.py ANALYZERS has drifted");
    }
}
