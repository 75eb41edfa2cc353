//! The analysis corpus: the joined, enriched view of one log collection.

use crate::columns::{cert_flag, conn_flag, CertColumns, ConnColumns, NO_CERT};
use mtls_classify::extract_domain;
use mtls_intern::{FxBuildHasher, FxHashMap, FxHashSet, Interner, Symbol};
use mtls_pki::{classify_issuer_org, IssuerCategory};
use mtls_zeek::{Ipv4, SslRecord, X509Record};

/// Traffic direction relative to the university border.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Responder inside the university network.
    Inbound,
    /// Originator inside the university network.
    Outbound,
    /// Neither endpoint internal (routing artifacts; excluded from
    /// direction-specific tables).
    Transit,
}

/// The paper's inbound server associations (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServerAssociation {
    UniversityHealth,
    UniversityServer,
    UniversityVpn,
    LocalOrganization,
    ThirdPartyService,
    Globus,
    Unknown,
}

impl ServerAssociation {
    /// Label as in Table 3.
    pub fn label(self) -> &'static str {
        match self {
            ServerAssociation::UniversityHealth => "University Health",
            ServerAssociation::UniversityServer => "University Server",
            ServerAssociation::UniversityVpn => "University VPN",
            ServerAssociation::LocalOrganization => "Local Organization",
            ServerAssociation::ThirdPartyService => "Third Party Services",
            ServerAssociation::Globus => "Globus",
            ServerAssociation::Unknown => "Unknown",
        }
    }

    /// All variants in Table 3 order.
    pub const ALL: [ServerAssociation; 7] = [
        ServerAssociation::UniversityHealth,
        ServerAssociation::UniversityServer,
        ServerAssociation::UniversityVpn,
        ServerAssociation::LocalOrganization,
        ServerAssociation::ThirdPartyService,
        ServerAssociation::Globus,
        ServerAssociation::Unknown,
    ];
}

/// Index of a deduplicated certificate in the corpus.
pub type CertId = usize;

/// The connection-derived aggregates of one certificate, factored out of
/// [`CertInfo`] as a *mergeable partial state*: the identity is
/// [`CertAgg::default`], one `ssl.log` chain reference folds in via
/// [`CertAgg::observe`], and two partials built from disjoint connection
/// sets combine via [`CertAgg::merge`]. Every field is a commutative
/// monoid (OR for the role flags, min/max for the timestamps, sum for the
/// counter, union for the sets), so observing a connection stream in any
/// grouping — one batch pass, or per-month partials merged later by the
/// streaming [`CorpusBuilder`](crate::stream::CorpusBuilder) — produces
/// identical state. `Corpus::build` itself accumulates through this type,
/// which is what makes the batch and streaming paths semantically one
/// implementation.
#[derive(Debug, Clone)]
pub struct CertAgg {
    pub seen_as_server: bool,
    pub seen_as_client: bool,
    pub in_mtls: bool,
    pub in_client_only: bool,
    pub in_non_mtls_server: bool,
    /// Min/max connection timestamp; the `±INFINITY` identities survive
    /// only for certificates no connection ever referenced (see
    /// [`CertInfo::activity_days`]).
    pub first_seen: f64,
    pub last_seen: f64,
    pub conns: usize,
    pub client_ips: FxHashSet<Ipv4>,
    pub server_subnets: FxHashSet<Ipv4>,
    pub client_subnets: FxHashSet<Ipv4>,
}

impl Default for CertAgg {
    fn default() -> CertAgg {
        CertAgg {
            seen_as_server: false,
            seen_as_client: false,
            in_mtls: false,
            in_client_only: false,
            in_non_mtls_server: false,
            first_seen: f64::INFINITY,
            last_seen: f64::NEG_INFINITY,
            conns: 0,
            client_ips: FxHashSet::default(),
            server_subnets: FxHashSet::default(),
            client_subnets: FxHashSet::default(),
        }
    }
}

impl CertAgg {
    /// Fold in one chain reference from `rec` (`as_server` says which
    /// chain the fingerprint sat in).
    pub fn observe(&mut self, rec: &SslRecord, as_server: bool) {
        let mtls = rec.is_mutual_tls();
        if as_server {
            self.seen_as_server = true;
            self.server_subnets.insert(rec.resp_h.subnet24());
            if !mtls {
                self.in_non_mtls_server = true;
            }
        } else {
            self.seen_as_client = true;
            self.client_subnets.insert(rec.orig_h.subnet24());
        }
        if mtls {
            self.in_mtls = true;
        }
        if rec.is_client_only() && !as_server {
            self.in_client_only = true;
        }
        self.first_seen = self.first_seen.min(rec.ts);
        self.last_seen = self.last_seen.max(rec.ts);
        self.conns += 1;
        self.client_ips.insert(rec.orig_h);
    }

    /// Combine another partial into this one (commutative, associative).
    pub fn merge(&mut self, other: CertAgg) {
        self.seen_as_server |= other.seen_as_server;
        self.seen_as_client |= other.seen_as_client;
        self.in_mtls |= other.in_mtls;
        self.in_client_only |= other.in_client_only;
        self.in_non_mtls_server |= other.in_non_mtls_server;
        self.first_seen = self.first_seen.min(other.first_seen);
        self.last_seen = self.last_seen.max(other.last_seen);
        self.conns += other.conns;
        self.client_ips.extend(other.client_ips);
        self.server_subnets.extend(other.server_subnets);
        self.client_subnets.extend(other.client_subnets);
    }

    /// Rough retained heap of this partial (for the streaming footprint
    /// gauge); deterministic for given contents.
    pub fn approx_heap_bytes(&self) -> usize {
        (self.client_ips.len() + self.server_subnets.len() + self.client_subnets.len())
            * std::mem::size_of::<Ipv4>()
    }
}

/// One certificate with everything the analyzers ask about.
#[derive(Debug, Clone)]
pub struct CertInfo {
    pub rec: X509Record,
    /// Public-CA verdict (root-store membership of the issuer).
    pub public: bool,
    /// Issuer category per §4.2.
    pub category: IssuerCategory,
    /// Whether the issuer string names a recognizable generator (campus
    /// CAs, Azure Sphere, Apple device CA) — Table 9's "by Issuer".
    pub issuer_recognizable: bool,
    /// Roles observed across all connections.
    pub seen_as_server: bool,
    pub seen_as_client: bool,
    /// Used in at least one mutual-TLS connection.
    pub in_mtls: bool,
    /// Present in a client-only connection (no server chain).
    pub in_client_only: bool,
    /// Present in at least one non-mutual connection as server cert.
    pub in_non_mtls_server: bool,
    /// First/last connection timestamps (duration of activity).
    pub first_seen: f64,
    pub last_seen: f64,
    /// Connection count.
    pub conns: usize,
    /// Distinct client IPs that presented or received this certificate.
    pub client_ips: FxHashSet<Ipv4>,
    /// Distinct /24s where the cert appeared as a server / as a client.
    pub server_subnets: FxHashSet<Ipv4>,
    pub client_subnets: FxHashSet<Ipv4>,
    /// Excluded as TLS interception in preprocessing.
    pub excluded: bool,
}

impl CertInfo {
    /// Duration of activity in days (paper §5 definition).
    ///
    /// A certificate present in `x509.log` but referenced by no connection
    /// keeps the `first_seen = +INF` / `last_seen = -INF` aggregate
    /// identities; the subtraction used to produce `-INF`, which the
    /// saturating `as i64` cast turned into `i64::MIN` — a sentinel that
    /// leaked into duration tables as a real value. Never-connected
    /// certificates have no activity window, so this reports 0 for them
    /// (and the §5 duration analyzers additionally exclude them, see
    /// [`CertInfo::ever_connected`]).
    pub fn activity_days(&self) -> i64 {
        if !self.ever_connected() {
            return 0;
        }
        ((self.last_seen - self.first_seen) / 86_400.0).round() as i64
    }

    /// Whether any connection referenced this certificate (i.e. the
    /// min/max/set aggregates left their identity values).
    pub fn ever_connected(&self) -> bool {
        self.conns > 0
    }

    /// Install the merged connection aggregates.
    pub(crate) fn apply_agg(&mut self, agg: CertAgg) {
        self.seen_as_server = agg.seen_as_server;
        self.seen_as_client = agg.seen_as_client;
        self.in_mtls = agg.in_mtls;
        self.in_client_only = agg.in_client_only;
        self.in_non_mtls_server = agg.in_non_mtls_server;
        self.first_seen = agg.first_seen;
        self.last_seen = agg.last_seen;
        self.conns = agg.conns;
        self.client_ips = agg.client_ips;
        self.server_subnets = agg.server_subnets;
        self.client_subnets = agg.client_subnets;
    }

    /// Shared by server and client endpoints (in any connections).
    pub fn dual_role(&self) -> bool {
        self.seen_as_server && self.seen_as_client
    }
}

/// One connection with derived attributes.
#[derive(Debug, Clone)]
pub struct ConnInfo {
    pub rec: SslRecord,
    pub direction: Direction,
    pub mtls: bool,
    /// Leaf certificates (dedup ids), if chains were visible.
    pub server_leaf: Option<CertId>,
    pub client_leaf: Option<CertId>,
    /// Registered domain of the SNI (or of cert names when SNI absent).
    pub sld: Option<String>,
    pub tld: Option<String>,
    /// Inbound server association.
    pub association: ServerAssociation,
    /// Both endpoints presented the identical certificate.
    pub same_cert_both_ends: bool,
    /// Connection touches an interception-excluded certificate.
    pub excluded: bool,
}

/// Out-of-band analysis knowledge (the paper had all of this too).
#[derive(Debug, Clone)]
pub struct MetaKnowledge {
    pub university_net: (Ipv4, u8),
    pub campus_issuer_orgs: Vec<String>,
    pub public_ca_orgs: Vec<String>,
    pub health_slds: Vec<String>,
    pub university_slds: Vec<String>,
    pub vpn_slds: Vec<String>,
    pub localorg_slds: Vec<String>,
    pub globus_slds: Vec<String>,
    /// Publicly published provider prefixes (§3.3 attribution).
    pub cloud_nets: Vec<(Ipv4, u8)>,
    pub non_mtls_weight: f64,
    /// Ground truth: hex log ids the simulator deliberately forked (empty
    /// on clean corpora and on real captures — it exists so the split-view
    /// detector's recall is measurable, experiment `ct1`).
    pub ct_forked_logs: Vec<String>,
}

impl MetaKnowledge {
    /// Build from the simulator's metadata.
    pub fn from_sim(meta: &mtls_netsim::SimMeta) -> MetaKnowledge {
        MetaKnowledge {
            university_net: meta.university_net,
            campus_issuer_orgs: meta.campus_issuer_orgs.clone(),
            public_ca_orgs: meta.public_ca_orgs.clone(),
            health_slds: meta.health_slds.clone(),
            university_slds: meta.university_slds.clone(),
            vpn_slds: meta.vpn_slds.clone(),
            localorg_slds: meta.localorg_slds.clone(),
            globus_slds: meta.globus_slds.clone(),
            cloud_nets: meta.cloud_nets.clone(),
            non_mtls_weight: meta.non_mtls_weight,
            ct_forked_logs: meta.ct_forked_logs.clone(),
        }
    }

    /// Whether an address sits in a known provider prefix.
    pub fn is_cloud(&self, ip: Ipv4) -> bool {
        self.cloud_nets
            .iter()
            .any(|(net, p)| ip.in_subnet(*net, *p))
    }

    fn is_internal(&self, ip: Ipv4) -> bool {
        ip.in_subnet(self.university_net.0, self.university_net.1)
    }

    /// Traffic direction of one connection relative to the border.
    pub(crate) fn direction_of(&self, rec: &SslRecord) -> Direction {
        match (self.is_internal(rec.orig_h), self.is_internal(rec.resp_h)) {
            (true, _) => Direction::Outbound,
            (false, true) => Direction::Inbound,
            (false, false) => Direction::Transit,
        }
    }

    /// Root-store membership test on an issuer organization.
    pub fn issuer_is_public(&self, issuer_org: Option<&str>) -> bool {
        match issuer_org {
            Some(org) => self.public_ca_orgs.iter().any(|p| p == org),
            None => false,
        }
    }

    /// Campus-CA test (user accounts, Education shortcuts).
    pub fn issuer_is_campus(&self, issuer_org: Option<&str>) -> bool {
        match issuer_org {
            Some(org) => self.campus_issuer_orgs.iter().any(|p| p == org),
            None => false,
        }
    }

    fn association_for(&self, sld: Option<&str>) -> ServerAssociation {
        let Some(sld) = sld else {
            return ServerAssociation::Unknown;
        };
        let has = |v: &[String]| v.iter().any(|s| s == sld);
        if has(&self.health_slds) {
            ServerAssociation::UniversityHealth
        } else if has(&self.university_slds) {
            ServerAssociation::UniversityServer
        } else if has(&self.vpn_slds) {
            ServerAssociation::UniversityVpn
        } else if has(&self.localorg_slds) {
            ServerAssociation::LocalOrganization
        } else if has(&self.globus_slds) {
            ServerAssociation::Globus
        } else {
            ServerAssociation::ThirdPartyService
        }
    }
}

/// What the CT verification stage concluded, attached to the corpus by the
/// pipeline (default-empty when the legacy bare-issuer filter ran — i.e.
/// when no gossip evidence accompanied the input).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CtSummary {
    /// Whether the proof-carrying filter ran (gossip evidence present).
    pub proofs_mode: bool,
    /// Distinct logs the gossip observations cover.
    pub logs_observed: usize,
    /// Signed tree heads observed across all vantage points.
    pub sths_observed: usize,
    /// STHs whose signature did not verify against the log key.
    pub signature_failures: usize,
    /// Adjacent STH pairs proven consistent / failed.
    pub consistency_verified: usize,
    pub consistency_failed: usize,
    /// Hex log ids flagged as split views.
    pub split_view_logs: Vec<String>,
    /// CT entries accepted / rejected by the verification stage.
    pub entries_verified: usize,
    pub entries_rejected: usize,
    /// Per-entry inclusion proofs that verified / failed (only nonzero
    /// when a split view forced entry-level salvage).
    pub inclusion_proofs_verified: usize,
    pub inclusion_proofs_failed: usize,
    /// Certificates / connections excluded as SCT-stripping.
    pub stripped_certs: usize,
    pub stripped_conns: usize,
}

/// Static (connection-independent) classification of one `x509.log` row:
/// the public-CA verdict, the issuer category, and the recognizable-
/// generator flag. One implementation shared by [`Corpus::build`] and the
/// serve verdict path ([`crate::verdict`]), so the two can never drift.
pub fn classify_cert(meta: &MetaKnowledge, rec: &X509Record) -> (bool, IssuerCategory, bool) {
    let public = meta.issuer_is_public(rec.issuer_org.as_deref())
        // The paper also accepts issuers whose *own* chain is
        // anchored; the display-string membership stands in for it.
        || meta
            .public_ca_orgs
            .iter()
            .any(|p| rec.issuer.contains(p.as_str()));
    let category = classify_issuer_org(rec.issuer_org.as_deref(), public);
    let issuer_recognizable = meta.issuer_is_campus(rec.issuer_org.as_deref())
        || rec
            .issuer_org
            .as_deref()
            .map(|o| {
                o.contains("Azure Sphere")
                    || o.contains("Apple iPhone Device")
                    || o.contains("AT&T")
                    || o.contains("Red Hat")
                    || o.contains("Samsung")
            })
            .unwrap_or(false);
    (public, category, issuer_recognizable)
}

/// The fully joined corpus.
pub struct Corpus {
    pub certs: Vec<CertInfo>,
    pub conns: Vec<ConnInfo>,
    pub meta: MetaKnowledge,
    /// Fingerprint symbol → certificate, keyed into [`Corpus::interner`].
    /// String-based callers go through [`Corpus::cert_by_fp`].
    pub fp_index: FxHashMap<Symbol, CertId>,
    /// The interner the fingerprint symbols live in (shared with the
    /// interception filter that ran before the build).
    interner: Interner,
    /// Interception issuers identified during preprocessing.
    pub interception_issuers: Vec<String>,
    /// CT verification summary (default-empty under the legacy filter;
    /// populated by the pipeline when gossip evidence was present).
    pub ct: CtSummary,
    /// Count of certificates excluded as interception.
    pub excluded_certs: usize,
    /// Chain references in ssl.log whose fingerprint has no x509.log row.
    /// Nonzero when lenient ingest skipped unparseable certificates (the
    /// simulator's `malformed_certs` scenario plants these); the affected
    /// connections keep `server_leaf`/`client_leaf` as `None`.
    pub dangling_fp_refs: u64,
    /// Distinct fingerprints behind [`Corpus::dangling_fp_refs`].
    pub dangling_fps: usize,
    /// Up to eight sample dangling fingerprints for diagnostics.
    pub dangling_samples: Vec<String>,
    /// Columnar projection of the hot per-certificate fields, indexed by
    /// [`CertId`]. Built once after the join; the analyzers scan these
    /// instead of striding through [`CertInfo`] rows.
    pub cert_cols: CertColumns,
    /// Columnar projection of the hot per-connection fields, parallel to
    /// [`Corpus::conns`].
    pub conn_cols: ConnColumns,
}

impl Corpus {
    /// Join and enrich. `excluded_fps` comes from the interception filter
    /// and its symbols must belong to `interner` (pass a fresh
    /// [`Interner`] with an empty exclusion set when filtering is off).
    ///
    /// Takes the records by value: every record is *moved* into its
    /// `CertInfo`/`ConnInfo` slot, so the corpus build allocates no second
    /// copy of the log strings it was just handed by the parser.
    pub fn build(
        ssl: Vec<SslRecord>,
        x509: Vec<X509Record>,
        meta: MetaKnowledge,
        excluded_fps: &FxHashSet<Symbol>,
        interception_issuers: Vec<String>,
        interner: Interner,
    ) -> Corpus {
        Corpus::build_inner(
            ssl,
            x509,
            meta,
            excluded_fps,
            interception_issuers,
            interner,
            None,
        )
    }

    /// [`Corpus::build`] fed with *precomputed* per-fingerprint connection
    /// aggregates — the streaming engine's finish path. The `partials` map
    /// holds the fold of every epoch's [`CertAgg`] partial (symbols keyed
    /// into `interner`); the connection walk then only joins, taints, and
    /// counts dangling references instead of re-observing every chain
    /// reference. Aggregates for fingerprints without an `x509.log` row
    /// (dangling) are dropped, exactly as the inline path never creates
    /// them.
    pub fn build_with_partials(
        ssl: Vec<SslRecord>,
        x509: Vec<X509Record>,
        meta: MetaKnowledge,
        excluded_fps: &FxHashSet<Symbol>,
        interception_issuers: Vec<String>,
        interner: Interner,
        partials: FxHashMap<Symbol, CertAgg>,
    ) -> Corpus {
        Corpus::build_inner(
            ssl,
            x509,
            meta,
            excluded_fps,
            interception_issuers,
            interner,
            Some(partials),
        )
    }

    fn build_inner(
        ssl: Vec<SslRecord>,
        x509: Vec<X509Record>,
        meta: MetaKnowledge,
        excluded_fps: &FxHashSet<Symbol>,
        interception_issuers: Vec<String>,
        mut interner: Interner,
        partials: Option<FxHashMap<Symbol, CertAgg>>,
    ) -> Corpus {
        let mut fp_index: FxHashMap<Symbol, CertId> =
            FxHashMap::with_capacity_and_hasher(x509.len(), FxBuildHasher);
        let mut certs: Vec<CertInfo> = Vec::with_capacity(x509.len());
        for rec in x509 {
            let (public, category, issuer_recognizable) = classify_cert(&meta, &rec);
            let fp_sym = interner.intern(&rec.fingerprint);
            let excluded = excluded_fps.contains(&fp_sym);
            fp_index.insert(fp_sym, certs.len());
            certs.push(CertInfo {
                rec,
                public,
                category,
                issuer_recognizable,
                seen_as_server: false,
                seen_as_client: false,
                in_mtls: false,
                in_client_only: false,
                in_non_mtls_server: false,
                first_seen: f64::INFINITY,
                last_seen: f64::NEG_INFINITY,
                conns: 0,
                client_ips: FxHashSet::default(),
                server_subnets: FxHashSet::default(),
                client_subnets: FxHashSet::default(),
                excluded,
            });
        }

        // Fingerprint lookups from here on are read-only: an Fx hash of
        // the string once, then integer-keyed map hits.
        let interner = interner;
        let lookup = |fp: &String| interner.get(fp).and_then(|sym| fp_index.get(&sym)).copied();

        // Connection aggregates live in a dense arena parallel to `certs`.
        // With precomputed partials (streaming finish) the merged state is
        // translated in up front and the connection walk below skips the
        // per-reference observe; otherwise the walk folds each reference
        // into the arena through the very same `CertAgg::observe`.
        let precomputed = partials.is_some();
        let mut aggs: Vec<CertAgg> = vec![CertAgg::default(); certs.len()];
        if let Some(partials) = partials {
            for (sym, agg) in partials {
                if let Some(&cid) = fp_index.get(&sym) {
                    aggs[cid].merge(agg);
                }
            }
        }

        let mut conns: Vec<ConnInfo> = Vec::with_capacity(ssl.len());
        let mut dangling_fp_refs = 0u64;
        let mut dangling_seen: FxHashSet<String> = FxHashSet::default();
        let mut dangling_samples: Vec<String> = Vec::new();
        for rec in ssl {
            let direction = meta.direction_of(&rec);
            let mtls = rec.is_mutual_tls();
            let server_leaf = rec.cert_chain_fps.first().and_then(lookup);
            let client_leaf = rec.client_cert_chain_fps.first().and_then(lookup);

            // SLD/TLD: from SNI, falling back to certificate names (§4.2).
            let mut domain = rec.server_name.as_deref().and_then(extract_domain);
            if domain.is_none() {
                if let Some(cid) = server_leaf {
                    let cert = &certs[cid];
                    domain = cert
                        .rec
                        .san_dns
                        .iter()
                        .chain(cert.rec.subject_cn.iter())
                        .find_map(|name| extract_domain(name));
                }
            }
            if domain.is_none() {
                if let Some(cid) = client_leaf {
                    let cert = &certs[cid];
                    domain = cert
                        .rec
                        .san_dns
                        .iter()
                        .chain(cert.rec.subject_cn.iter())
                        .find_map(|name| extract_domain(name));
                }
            }
            let sld = domain.as_ref().map(|d| d.registered_domain());
            let tld = domain.as_ref().map(|d| d.tld.clone());
            let association = if direction == Direction::Inbound {
                meta.association_for(sld.as_deref())
            } else {
                ServerAssociation::Unknown
            };
            let same_cert_both_ends =
                mtls && rec.cert_chain_fps.first() == rec.client_cert_chain_fps.first();
            let mut excluded = false;

            // Update certificate aggregates (join, taint, dangling; the
            // observe itself is skipped when the state came premerged).
            for (fp, as_server) in rec
                .cert_chain_fps
                .iter()
                .map(|f| (f, true))
                .chain(rec.client_cert_chain_fps.iter().map(|f| (f, false)))
            {
                if let Some(cid) = lookup(fp) {
                    if certs[cid].excluded {
                        excluded = true;
                    }
                    if !precomputed {
                        aggs[cid].observe(&rec, as_server);
                    }
                } else {
                    dangling_fp_refs += 1;
                    if dangling_seen.insert(fp.clone()) && dangling_samples.len() < 8 {
                        dangling_samples.push(fp.clone());
                    }
                }
            }

            conns.push(ConnInfo {
                rec,
                direction,
                mtls,
                server_leaf,
                client_leaf,
                sld,
                tld,
                association,
                same_cert_both_ends,
                excluded,
            });
        }

        // Install the merged aggregates; the columnar projection below
        // reads the final flags, so this must land first.
        for (info, agg) in certs.iter_mut().zip(aggs) {
            info.apply_agg(agg);
        }

        let excluded_certs = certs.iter().filter(|c| c.excluded).count();

        // Project the hot fields into dense columns. The cert flags are
        // only final after the connection loop above (roles and mTLS
        // participation accumulate per connection), so this runs last.
        let mut cert_cols = CertColumns {
            validity_days: Vec::with_capacity(certs.len()),
            not_valid_after: Vec::with_capacity(certs.len()),
            category: Vec::with_capacity(certs.len()),
            flags: Vec::with_capacity(certs.len()),
        };
        for c in &certs {
            cert_cols.validity_days.push(c.rec.validity_days());
            cert_cols.not_valid_after.push(c.rec.not_valid_after);
            cert_cols.category.push(c.category);
            let mut flags = 0u8;
            if c.public {
                flags |= cert_flag::PUBLIC;
            }
            if c.excluded {
                flags |= cert_flag::EXCLUDED;
            }
            if c.seen_as_client {
                flags |= cert_flag::SEEN_AS_CLIENT;
            }
            if c.in_mtls {
                flags |= cert_flag::IN_MTLS;
            }
            if c.rec.has_incorrect_dates() {
                flags |= cert_flag::INCORRECT_DATES;
            }
            cert_cols.flags.push(flags);
        }
        let mut conn_cols = ConnColumns {
            direction: Vec::with_capacity(conns.len()),
            resp_p: Vec::with_capacity(conns.len()),
            ts: Vec::with_capacity(conns.len()),
            client_leaf: Vec::with_capacity(conns.len()),
            flags: Vec::with_capacity(conns.len()),
        };
        for c in &conns {
            conn_cols.direction.push(c.direction);
            conn_cols.resp_p.push(c.rec.resp_p);
            conn_cols.ts.push(c.rec.ts);
            conn_cols
                .client_leaf
                .push(c.client_leaf.map_or(NO_CERT, |id| id as u32));
            let mut flags = 0u8;
            if c.excluded {
                flags |= conn_flag::EXCLUDED;
            }
            if c.mtls {
                flags |= conn_flag::MTLS;
            }
            conn_cols.flags.push(flags);
        }

        Corpus {
            certs,
            conns,
            meta,
            fp_index,
            interner,
            interception_issuers,
            ct: CtSummary::default(),
            excluded_certs,
            dangling_fp_refs,
            dangling_fps: dangling_seen.len(),
            dangling_samples,
            cert_cols,
            conn_cols,
        }
    }

    /// Resolve a fingerprint string to its certificate, if present.
    pub fn cert_by_fp(&self, fp: &str) -> Option<CertId> {
        self.interner
            .get(fp)
            .and_then(|sym| self.fp_index.get(&sym))
            .copied()
    }

    /// The interner backing [`Corpus::fp_index`].
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Certificates that survive interception filtering.
    pub fn live_certs(&self) -> impl Iterator<Item = &CertInfo> {
        self.certs.iter().filter(|c| !c.excluded)
    }

    /// Connections that survive interception filtering.
    pub fn live_conns(&self) -> impl Iterator<Item = &ConnInfo> {
        self.conns.iter().filter(|c| !c.excluded)
    }

    /// Mutual-TLS connections (live).
    pub fn mtls_conns(&self) -> impl Iterator<Item = &ConnInfo> {
        self.live_conns().filter(|c| c.mtls)
    }

    /// Look up a certificate.
    pub fn cert(&self, id: CertId) -> &CertInfo {
        &self.certs[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build with interception filtering off.
    fn build_unfiltered(ssl: &[SslRecord], x509: &[X509Record], meta: MetaKnowledge) -> Corpus {
        Corpus::build(
            ssl.to_vec(),
            x509.to_vec(),
            meta,
            &FxHashSet::default(),
            vec![],
            Interner::new(),
        )
    }

    fn meta() -> MetaKnowledge {
        MetaKnowledge {
            university_net: (Ipv4::new(172, 29, 0, 0), 16),
            campus_issuer_orgs: vec!["Commonwealth University".into()],
            public_ca_orgs: vec!["DigiCert Inc".into()],
            health_slds: vec!["campus-health.org".into()],
            university_slds: vec!["campus-main.edu".into()],
            vpn_slds: vec!["campus-vpn.net".into()],
            localorg_slds: vec!["localorg-a.org".into()],
            globus_slds: vec!["globus.org".into()],
            cloud_nets: vec![(Ipv4::new(18, 204, 0, 0), 16)],
            non_mtls_weight: 40.0,
            ct_forked_logs: vec![],
        }
    }

    fn x509(fp: &str, issuer_org: Option<&str>) -> X509Record {
        X509Record {
            ts: 0.0,
            fingerprint: fp.into(),
            version: 3,
            serial: "01".into(),
            subject: "CN=test".into(),
            issuer: issuer_org.map(|o| format!("O={o}")).unwrap_or_default(),
            issuer_org: issuer_org.map(str::to_owned),
            subject_cn: Some("test".into()),
            not_valid_before: 0,
            not_valid_after: 86_400 * 365,
            key_alg: "rsa".into(),
            key_length: 2048,
            sig_alg: "sha256WithRSAEncryption".into(),
            san_dns: vec![],
            san_email: vec![],
            san_uri: vec![],
            san_ip: vec![],
            basic_constraints_ca: false,
        }
    }

    fn conn(
        orig: Ipv4,
        resp: Ipv4,
        sni: Option<&str>,
        server_fp: &str,
        client_fp: Option<&str>,
    ) -> SslRecord {
        SslRecord {
            ts: 1_651_363_200.0,
            uid: "C1".into(),
            orig_h: orig,
            orig_p: 50_000,
            resp_h: resp,
            resp_p: 443,
            version: mtls_zeek::TlsVersion::Tls12,
            server_name: sni.map(str::to_owned),
            established: true,
            cert_chain_fps: vec![server_fp.to_string()],
            client_cert_chain_fps: client_fp.map(|f| vec![f.to_string()]).unwrap_or_default(),
        }
    }

    #[test]
    fn directions_and_associations() {
        let internal = Ipv4::new(172, 29, 10, 5);
        let external = Ipv4::new(98, 100, 1, 1);
        let certs = vec![
            x509("aa", Some("Commonwealth University")),
            x509("bb", None),
        ];
        let ssl = vec![
            conn(
                external,
                internal,
                Some("portal.campus-health.org"),
                "aa",
                Some("bb"),
            ),
            conn(
                internal,
                external,
                Some("x.amazonaws.com"),
                "aa",
                Some("bb"),
            ),
        ];
        let corpus = build_unfiltered(&ssl, &certs, meta());
        assert_eq!(corpus.conns[0].direction, Direction::Inbound);
        assert_eq!(
            corpus.conns[0].association,
            ServerAssociation::UniversityHealth
        );
        assert_eq!(corpus.conns[0].sld.as_deref(), Some("campus-health.org"));
        assert_eq!(corpus.conns[1].direction, Direction::Outbound);
        assert_eq!(corpus.conns[1].sld.as_deref(), Some("amazonaws.com"));
        assert!(corpus.conns[0].mtls);
    }

    #[test]
    fn issuer_categories_and_public() {
        let certs = vec![
            x509("aa", Some("DigiCert Inc")),
            x509("bb", Some("Commonwealth University")),
            x509("cc", None),
            x509("dd", Some("Internet Widgits Pty Ltd")),
        ];
        let corpus = build_unfiltered(&[], &certs, meta());
        assert!(corpus.certs[0].public);
        assert_eq!(corpus.certs[0].category, IssuerCategory::Public);
        assert_eq!(corpus.certs[1].category, IssuerCategory::Education);
        assert!(corpus.certs[1].issuer_recognizable);
        assert_eq!(corpus.certs[2].category, IssuerCategory::MissingIssuer);
        assert_eq!(corpus.certs[3].category, IssuerCategory::Dummy);
    }

    #[test]
    fn same_cert_both_ends_detected() {
        let internal = Ipv4::new(172, 29, 20, 5);
        let external = Ipv4::new(98, 100, 1, 1);
        let certs = vec![x509("aa", Some("Globus Online"))];
        let ssl = vec![conn(external, internal, None, "aa", Some("aa"))];
        let corpus = build_unfiltered(&ssl, &certs, meta());
        assert!(corpus.conns[0].same_cert_both_ends);
        assert!(corpus.certs[0].dual_role());
        assert_eq!(corpus.conns[0].association, ServerAssociation::Unknown);
    }

    #[test]
    fn activity_span_accumulates() {
        let internal = Ipv4::new(172, 29, 20, 5);
        let external = Ipv4::new(98, 100, 1, 1);
        let certs = vec![x509("aa", None), x509("bb", None)];
        let mut c1 = conn(external, internal, None, "aa", Some("bb"));
        let mut c2 = c1.clone();
        c1.ts = 1_000_000.0;
        c2.ts = 1_000_000.0 + 86_400.0 * 100.0;
        let corpus = build_unfiltered(&[c1, c2], &certs, meta());
        assert_eq!(corpus.certs[0].activity_days(), 100);
        assert_eq!(corpus.certs[0].conns, 2);
    }

    #[test]
    fn never_connected_certs_report_zero_activity_not_sentinel() {
        // Regression: a cert with an x509 row but no referencing connection
        // keeps the ±INFINITY aggregate identities; activity_days() used to
        // compute (-INF - +INF) and saturate to i64::MIN.
        let certs = vec![x509("aa", None), x509("bb", None)];
        let internal = Ipv4::new(172, 29, 20, 5);
        let external = Ipv4::new(98, 100, 1, 1);
        // Only "aa" is ever referenced; "bb" stays connection-less.
        let ssl = vec![conn(external, internal, None, "aa", None)];
        let corpus = build_unfiltered(&ssl, &certs, meta());
        let untouched = &corpus.certs[1];
        assert!(!untouched.ever_connected());
        assert_eq!(untouched.first_seen, f64::INFINITY);
        assert_eq!(untouched.last_seen, f64::NEG_INFINITY);
        assert_eq!(untouched.activity_days(), 0);
        assert!(corpus.certs[0].ever_connected());
        assert_eq!(corpus.certs[0].activity_days(), 0); // one conn, same day
    }

    #[test]
    fn premerged_partials_reproduce_the_inline_build() {
        // Build the same corpus twice: once with the inline observe path,
        // once with CertAgg partials accumulated per-connection-group and
        // merged (the streaming finish path). Every aggregate must match.
        let internal = Ipv4::new(172, 29, 20, 5);
        let external = Ipv4::new(98, 100, 1, 1);
        let certs = vec![x509("aa", None), x509("bb", None), x509("idle", None)];
        let mut c1 = conn(external, internal, None, "aa", Some("bb"));
        let mut c2 = conn(internal, external, None, "aa", None);
        let mut c3 = conn(external, internal, None, "dangling", Some("bb"));
        c1.ts = 1_000_000.0;
        c2.ts = 1_000_000.0 + 86_400.0 * 30.0;
        c3.ts = 1_000_000.0 + 86_400.0 * 61.0;
        let ssl = vec![c1, c2, c3];

        let inline = build_unfiltered(&ssl, &certs, meta());

        // Partials: split the connections into two "epochs", fold each
        // separately, then merge — exercising observe + merge + translate.
        let mut interner = Interner::new();
        let mut fold = |recs: &[SslRecord]| {
            let mut agg: FxHashMap<Symbol, CertAgg> = FxHashMap::default();
            for rec in recs {
                for (fp, as_server) in rec
                    .cert_chain_fps
                    .iter()
                    .map(|f| (f, true))
                    .chain(rec.client_cert_chain_fps.iter().map(|f| (f, false)))
                {
                    agg.entry(interner.intern(fp))
                        .or_default()
                        .observe(rec, as_server);
                }
            }
            agg
        };
        let mut merged = fold(&ssl[..1]);
        for (sym, agg) in fold(&ssl[1..]) {
            merged.entry(sym).or_default().merge(agg);
        }
        let streamed = Corpus::build_with_partials(
            ssl.clone(),
            certs.clone(),
            meta(),
            &FxHashSet::default(),
            vec![],
            interner,
            merged,
        );

        assert_eq!(streamed.certs.len(), inline.certs.len());
        for (a, b) in inline.certs.iter().zip(streamed.certs.iter()) {
            assert_eq!(a.seen_as_server, b.seen_as_server);
            assert_eq!(a.seen_as_client, b.seen_as_client);
            assert_eq!(a.in_mtls, b.in_mtls);
            assert_eq!(a.in_client_only, b.in_client_only);
            assert_eq!(a.in_non_mtls_server, b.in_non_mtls_server);
            assert_eq!(a.first_seen, b.first_seen);
            assert_eq!(a.last_seen, b.last_seen);
            assert_eq!(a.conns, b.conns);
            assert_eq!(a.client_ips, b.client_ips);
            assert_eq!(a.server_subnets, b.server_subnets);
            assert_eq!(a.client_subnets, b.client_subnets);
        }
        // Dangling accounting comes from the connection walk either way.
        assert_eq!(streamed.dangling_fp_refs, inline.dangling_fp_refs);
        assert_eq!(streamed.dangling_samples, inline.dangling_samples);
        // The never-connected cert keeps identity aggregates in both.
        assert_eq!(streamed.certs[2].activity_days(), 0);
        // Columns mirror the same final flags.
        assert_eq!(streamed.cert_cols.flags, inline.cert_cols.flags);
        assert_eq!(streamed.conn_cols.flags, inline.conn_cols.flags);
    }

    #[test]
    fn dangling_fingerprints_are_counted_not_joined() {
        let internal = Ipv4::new(172, 29, 20, 5);
        let external = Ipv4::new(98, 100, 1, 1);
        let certs = vec![x509("aa", None)];
        // "skipped1" has no x509 row (lenient ingest dropped it); it is
        // referenced twice across two connections.
        let ssl = vec![
            conn(external, internal, None, "skipped1", Some("aa")),
            conn(external, internal, None, "skipped1", Some("aa")),
        ];
        let corpus = build_unfiltered(&ssl, &certs, meta());
        assert_eq!(corpus.dangling_fp_refs, 2);
        assert_eq!(corpus.dangling_fps, 1);
        assert_eq!(corpus.dangling_samples, vec!["skipped1".to_string()]);
        // The connection still joins on the side that parsed.
        assert_eq!(corpus.conns[0].server_leaf, None);
        assert_eq!(corpus.conns[0].client_leaf, Some(0));
        // A fully-joined corpus reports zero.
        let clean = build_unfiltered(
            &[conn(external, internal, None, "aa", None)],
            &certs,
            meta(),
        );
        assert_eq!(clean.dangling_fp_refs, 0);
        assert_eq!(clean.dangling_fps, 0);
    }

    #[test]
    fn excluded_certs_taint_connections() {
        let internal = Ipv4::new(172, 29, 20, 5);
        let external = Ipv4::new(98, 100, 1, 1);
        let certs = vec![
            x509("aa", Some("NetGuard Inspection CA 1")),
            x509("bb", None),
        ];
        let ssl = vec![conn(
            internal,
            external,
            Some("x.popular-video.com"),
            "aa",
            None,
        )];
        let mut interner = Interner::new();
        let excluded: FxHashSet<Symbol> = [interner.intern("aa")].into_iter().collect();
        let corpus = Corpus::build(
            ssl,
            certs,
            meta(),
            &excluded,
            vec!["NetGuard Inspection CA 1".into()],
            interner,
        );
        assert!(corpus.conns[0].excluded);
        assert_eq!(corpus.excluded_certs, 1);
        assert_eq!(corpus.live_conns().count(), 0);
        assert_eq!(corpus.live_certs().count(), 1);
        // The exclusion also lands in the dense columns.
        assert!(corpus.cert_cols.has(0, cert_flag::EXCLUDED));
        assert!(corpus.conn_cols.has(0, conn_flag::EXCLUDED));
    }

    #[test]
    fn columns_mirror_row_structs() {
        let internal = Ipv4::new(172, 29, 10, 5);
        let external = Ipv4::new(98, 100, 1, 1);
        let mut inverted = x509("cc", Some("IDrive Inc"));
        inverted.not_valid_before = 1_000_000;
        inverted.not_valid_after = 999_999;
        let certs = vec![x509("aa", Some("DigiCert Inc")), x509("bb", None), inverted];
        let ssl = vec![
            conn(
                external,
                internal,
                Some("a.campus-health.org"),
                "aa",
                Some("bb"),
            ),
            conn(internal, external, None, "aa", None),
            conn(external, internal, None, "aa", Some("cc")),
        ];
        let corpus = build_unfiltered(&ssl, &certs, meta());

        assert_eq!(corpus.cert_cols.len(), corpus.certs.len());
        for (id, c) in corpus.certs.iter().enumerate() {
            assert_eq!(corpus.cert_cols.validity_days[id], c.rec.validity_days());
            assert_eq!(corpus.cert_cols.not_valid_after[id], c.rec.not_valid_after);
            assert_eq!(corpus.cert_cols.category[id], c.category);
            assert_eq!(corpus.cert_cols.has(id, cert_flag::PUBLIC), c.public);
            assert_eq!(corpus.cert_cols.has(id, cert_flag::EXCLUDED), c.excluded);
            assert_eq!(
                corpus.cert_cols.has(id, cert_flag::SEEN_AS_CLIENT),
                c.seen_as_client
            );
            assert_eq!(corpus.cert_cols.has(id, cert_flag::IN_MTLS), c.in_mtls);
            assert_eq!(
                corpus.cert_cols.has(id, cert_flag::INCORRECT_DATES),
                c.rec.has_incorrect_dates()
            );
        }
        assert_eq!(corpus.conn_cols.len(), corpus.conns.len());
        for (i, c) in corpus.conns.iter().enumerate() {
            assert_eq!(corpus.conn_cols.direction[i], c.direction);
            assert_eq!(corpus.conn_cols.resp_p[i], c.rec.resp_p);
            assert_eq!(corpus.conn_cols.ts[i], c.rec.ts);
            assert_eq!(corpus.conn_cols.has(i, conn_flag::MTLS), c.mtls);
            assert_eq!(corpus.conn_cols.has(i, conn_flag::EXCLUDED), c.excluded);
            match c.client_leaf {
                Some(id) => assert_eq!(corpus.conn_cols.client_leaf[i], id as u32),
                None => assert_eq!(corpus.conn_cols.client_leaf[i], NO_CERT),
            }
            assert_eq!(corpus.conn_cols.is_live_mtls(i), !c.excluded && c.mtls);
        }
    }
}
