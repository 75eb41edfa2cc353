//! The analysis corpus: the joined, enriched view of one log collection.

use mtls_classify::{extract_domain, ClassifyContext};
use mtls_intern::{contains_short, FxBuildHasher, FxHashMap, FxHashSet};
use mtls_pki::{classify_org, IssuerCategory, OrgClass};
use mtls_zeek::{Fp, Ipv4, SslRecord, X509Record};
use std::ops::Deref;
use std::sync::Arc;

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

/// Index of a certificate in the corpus: its row in `x509.log`.
pub type CertId = usize;

/// What the join derived about one certificate: everything the analyzers
/// ask about beyond its `x509.log` row. [`Corpus::certs`]`[id]` describes
/// [`Corpus::x509`]`[id]`; [`Cert`] pairs the two.
#[derive(Debug, Clone)]
pub struct CertInfo {
    /// What the issuer fields say: public verdict, §4.2 category, Table
    /// 9's "by Issuer" flag, campus CA, dummy default.
    pub issuer: IssuerFacts,
    /// Roles observed across all connections.
    pub seen_as_server: bool,
    pub seen_as_client: bool,
    /// Used in at least one mutual-TLS connection.
    pub in_mtls: bool,
    /// Present in at least one non-mutual connection as server cert.
    pub in_non_mtls_server: bool,
    /// First/last connection timestamps (duration of activity).
    pub first_seen: f64,
    pub last_seen: f64,
    /// Connection count.
    pub conns: usize,
    /// Number of distinct client IPs that presented or received this
    /// certificate.
    pub client_ips: usize,
    /// Number of distinct /24s where the cert appeared as a server / as a
    /// client.
    pub server_subnets: usize,
    pub client_subnets: usize,
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

    /// Fold in one chain reference from `rec` to certificate `id`
    /// (`as_server` says which chain the fingerprint sat in). Every field
    /// is an OR, a min/max, a sum or a distinct count, so the result does
    /// not depend on row order. `seen` holds the (certificate, role,
    /// address) keys already counted.
    fn observe(&mut self, id: CertId, rec: &SslRecord, as_server: bool, seen: &mut SeenAddrs) {
        let mtls = rec.is_mutual_tls();
        if as_server {
            self.seen_as_server = true;
            self.server_subnets +=
                usize::from(seen.insert((id, AddrRole::ServerSubnet, rec.resp_h.subnet24())));
            if !mtls {
                self.in_non_mtls_server = true;
            }
        } else {
            self.seen_as_client = true;
            self.client_subnets +=
                usize::from(seen.insert((id, AddrRole::ClientSubnet, rec.orig_h.subnet24())));
        }
        if mtls {
            self.in_mtls = true;
        }
        self.first_seen = self.first_seen.min(rec.ts);
        self.last_seen = self.last_seen.max(rec.ts);
        self.conns += 1;
        self.client_ips += usize::from(seen.insert((id, AddrRole::ClientIp, rec.orig_h)));
    }

    /// Shared by server and client endpoints (in any connections).
    pub fn dual_role(&self) -> bool {
        self.seen_as_server && self.seen_as_client
    }
}

/// Which distinct count of [`CertInfo`] an address key counts toward.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum AddrRole {
    ClientIp,
    ServerSubnet,
    ClientSubnet,
}

/// The (certificate, role, address) keys [`Corpus::build`] has counted.
type SeenAddrs = FxHashSet<(CertId, AddrRole, Ipv4)>;

/// A connection's registered domain: (sld, tld).
type Domain = (Arc<str>, Arc<str>);

/// [`extract_domain`] once per distinct name for one [`Corpus::build`]:
/// SNIs and certificate names repeat across connections, so each distinct
/// string is split and lowercased once and its connections share the
/// result.
#[derive(Default)]
struct DomainMemo {
    names: FxHashMap<Box<str>, Option<Domain>>,
    /// The fallback domain of an SNI-less connection depends only on the
    /// leaf certificate: its first SAN DNS name or CN that is a domain.
    certs: FxHashMap<CertId, Option<Domain>>,
}

impl DomainMemo {
    fn name(&mut self, name: &str) -> Option<Domain> {
        if let Some(domain) = self.names.get(name) {
            return domain.clone();
        }
        let domain = extract_domain(name).map(|d| (d.registered_domain().into(), d.tld.into()));
        self.names.insert(name.into(), domain.clone());
        domain
    }

    fn cert(&mut self, id: CertId, rec: &X509Record) -> Option<Domain> {
        if let Some(domain) = self.certs.get(&id) {
            return domain.clone();
        }
        let domain = rec
            .san_dns
            .iter()
            .chain(rec.subject_cn.iter())
            .find_map(|name| self.name(name));
        self.certs.insert(id, domain.clone());
        domain
    }
}

/// What the join derived about one connection. [`Corpus::conns`]`[j]`
/// describes [`Corpus::ssl`]`[j]`; [`Conn`] pairs the two.
#[derive(Debug, Clone)]
pub struct ConnInfo {
    pub direction: Direction,
    pub mtls: bool,
    /// Leaf certificates (dedup ids), if chains were visible.
    pub server_leaf: Option<CertId>,
    pub client_leaf: Option<CertId>,
    /// Registered domain of the SNI (or of cert names when SNI absent),
    /// shared by every connection whose name gives the same domain.
    pub sld: Option<Arc<str>>,
    pub tld: Option<Arc<str>>,
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

/// Issuer organizations whose certificates carry generated CN/SAN strings
/// the issuer makes recognizable (Table 9's "Random - by Issuer").
const RECOGNIZABLE_GENERATORS: &[&str] = &[
    "Azure Sphere",
    "Apple iPhone Device",
    "AT&T",
    "Red Hat",
    "Samsung",
];

/// Static (connection-independent) facts about one `x509.log` row's
/// issuer. One implementation, [`issuer_facts`], shared by
/// [`Corpus::build`] and the serve verdict path ([`crate::verdict`]), so
/// the two can never drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuerFacts {
    /// Public-CA verdict (root-store membership of the issuer).
    pub public: bool,
    /// Issuer category per §4.2.
    pub category: IssuerCategory,
    /// Whether the issuer string names a recognizable generator (campus
    /// CAs, Azure Sphere, Apple device CA) — Table 9's "by Issuer".
    pub recognizable: bool,
    /// Issued by a campus CA (user accounts count only then, §6.1.1).
    pub campus: bool,
    /// The issuer organization fuzzily matches a software default
    /// ([`mtls_pki::issuercat::is_dummy_org`]), public issuers included.
    pub dummy: bool,
}

impl IssuerFacts {
    /// The classifier context for the CN/SAN strings of a row whose issuer
    /// organization is `issuer_org`.
    pub fn classify_context<'a>(&self, issuer_org: Option<&'a str>) -> ClassifyContext<'a> {
        ClassifyContext {
            issuer_org,
            issuer_is_campus: self.campus,
        }
    }
}

/// Classify one `x509.log` row's issuer fields, normalizing the issuer
/// organization once.
pub fn issuer_facts(meta: &MetaKnowledge, rec: &X509Record) -> IssuerFacts {
    let org = rec.issuer_org.as_deref();
    let public = meta.issuer_is_public(org)
        // The paper also accepts issuers whose *own* chain is
        // anchored; the display-string membership stands in for it.
        || meta
            .public_ca_orgs
            .iter()
            .any(|p| contains_short(&rec.issuer, p));
    let OrgClass { category, dummy } = classify_org(org, public);
    let campus = meta.issuer_is_campus(org);
    let recognizable =
        campus || org.is_some_and(|o| RECOGNIZABLE_GENERATORS.iter().any(|g| contains_short(o, g)));
    IssuerFacts {
        public,
        category,
        recognizable,
        campus,
        dummy,
    }
}

/// Fingerprint → certificate over one `x509.log`, built once per corpus
/// and shared by the interception filter and the join. A fingerprint the
/// log repeats resolves to its last row.
///
/// An open-addressing table of row ids, probed linearly and at most half
/// full: a slot's key is its row's fingerprint, read from the rows the
/// caller passes in, so the table holds 4 bytes per slot instead of a
/// copy of every 64-digit key.
#[derive(Debug)]
pub struct FpIndex {
    /// Row id + 1 per occupied slot, 0 when empty; the length is a power
    /// of two.
    slots: Vec<u32>,
    /// Distinct fingerprints indexed.
    distinct: usize,
    /// Each row whose fingerprint a later row repeats → the last row with
    /// that fingerprint. Empty unless the log repeats a fingerprint.
    repeated: FxHashMap<CertId, CertId>,
}

impl FpIndex {
    /// Index `x509`, row `id` as certificate `id`.
    pub fn new(x509: &[X509Record]) -> FpIndex {
        assert!(
            x509.len() < u32::MAX as usize,
            "an x509.log of {} rows overflows the 32-bit row ids",
            x509.len()
        );
        let mut index = FpIndex {
            slots: vec![0; (2 * x509.len()).next_power_of_two().max(2)],
            distinct: 0,
            repeated: FxHashMap::default(),
        };
        for (id, rec) in x509.iter().enumerate() {
            let slot = Self::slot(&index.slots, x509, &rec.fingerprint);
            match index.slots[slot] {
                0 => index.distinct += 1,
                earlier => {
                    index.repeated.insert(earlier as usize - 1, id);
                }
            }
            index.slots[slot] = id as u32 + 1;
        }
        // A fingerprint on three or more rows chained each row to the
        // next; point every earlier row at the last.
        let slots = &index.slots;
        for (&row, last) in index.repeated.iter_mut() {
            *last = slots[Self::slot(slots, x509, &x509[row].fingerprint)] as usize - 1;
        }
        index
    }

    /// The slot of `slots` holding `fp`, or the empty slot where it would
    /// go.
    fn slot(slots: &[u32], x509: &[X509Record], fp: &Fp) -> usize {
        let mut hasher = mtls_intern::FxHasher::default();
        std::hash::Hash::hash(fp, &mut hasher);
        let mask = slots.len() - 1;
        // The top bits of an Fx hash are its best mixed.
        let mut slot =
            (std::hash::Hasher::finish(&hasher) >> (64 - slots.len().trailing_zeros())) as usize;
        loop {
            match slots[slot] {
                0 => return slot,
                row if x509[row as usize - 1].fingerprint == *fp => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The certificate a fingerprint names, if `x509` (the rows this index
    /// was built over) has a row for it.
    #[inline]
    pub fn get(&self, x509: &[X509Record], fp: &Fp) -> Option<CertId> {
        match self.slots[Self::slot(&self.slots, x509, fp)] {
            0 => None,
            row => Some(row as usize - 1),
        }
    }

    /// The certificate row `row`'s fingerprint resolves to: `row` itself
    /// unless a later row repeats its fingerprint.
    #[inline]
    pub fn resolve(&self, row: CertId) -> CertId {
        self.repeated.get(&row).copied().unwrap_or(row)
    }

    /// Distinct fingerprints indexed.
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// Whether no fingerprint is indexed.
    pub fn is_empty(&self) -> bool {
        self.distinct == 0
    }
}

/// One certificate as the analyzers read it: its `x509.log` row and what
/// the join derived, which it derefs to.
#[derive(Debug, Clone, Copy)]
pub struct Cert<'c> {
    pub id: CertId,
    pub rec: &'c X509Record,
    pub info: &'c CertInfo,
}

impl Deref for Cert<'_> {
    type Target = CertInfo;

    fn deref(&self) -> &CertInfo {
        self.info
    }
}

/// One connection as the analyzers read it: its `ssl.log` row and what
/// the join derived, which it derefs to.
#[derive(Debug, Clone, Copy)]
pub struct Conn<'c> {
    pub rec: &'c SslRecord,
    pub info: &'c ConnInfo,
}

impl Deref for Conn<'_> {
    type Target = ConnInfo;

    fn deref(&self) -> &ConnInfo {
        self.info
    }
}

/// The fully joined corpus: the rows as the loader built them, and beside
/// each row what the join derived about it.
pub struct Corpus {
    /// The `x509.log` rows; row `id` is certificate `id`.
    pub x509: Vec<X509Record>,
    /// The `ssl.log` rows.
    pub ssl: Vec<SslRecord>,
    /// `certs[id]` describes `x509[id]`.
    pub certs: Vec<CertInfo>,
    /// `conns[j]` describes `ssl[j]`.
    pub conns: Vec<ConnInfo>,
    pub meta: MetaKnowledge,
    /// Fingerprint → certificate: one entry per distinct x509.log
    /// fingerprint (a repeated row keeps the last one).
    pub fp_index: FpIndex,
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
    pub dangling_samples: Vec<Fp>,
}

impl Corpus {
    /// Join and enrich. `excluded_fps` comes from the interception filter
    /// (pass an empty set when filtering is off).
    ///
    /// Takes the records by value and keeps them where they are: the join
    /// writes only a [`CertInfo`]/[`ConnInfo`] beside each row, so it
    /// copies no row and no log string it was handed by the parser.
    pub fn build(
        ssl: Vec<SslRecord>,
        x509: Vec<X509Record>,
        meta: MetaKnowledge,
        excluded_fps: &FxHashSet<Fp>,
        interception_issuers: Vec<String>,
    ) -> Corpus {
        let fp_index = FpIndex::new(&x509);
        let mut excluded = vec![false; x509.len()];
        for id in excluded_fps.iter().filter_map(|fp| fp_index.get(&x509, fp)) {
            excluded[id] = true;
        }
        Corpus::join(ssl, x509, fp_index, &excluded, meta, interception_issuers)
    }

    /// [`Corpus::build`] over an index of `x509` built already.
    /// `excluded[id]` marks each certificate the filter excluded, by the
    /// id `fp_index` resolves its fingerprint to; every row with that
    /// fingerprint is excluded.
    pub(crate) fn join(
        ssl: Vec<SslRecord>,
        x509: Vec<X509Record>,
        fp_index: FpIndex,
        excluded: &[bool],
        meta: MetaKnowledge,
        interception_issuers: Vec<String>,
    ) -> Corpus {
        // `issuer_facts` once per distinct (issuer_org, issuer) pair: it
        // reads nothing else of the row, and a CA's rows all repeat it.
        let mut certs: Vec<CertInfo> = {
            let mut memo: FxHashMap<(Option<&str>, &str), IssuerFacts> = FxHashMap::default();
            x509.iter()
                .enumerate()
                .map(|(id, rec)| CertInfo {
                    issuer: *memo
                        .entry((rec.issuer_org.as_deref(), rec.issuer.as_str()))
                        .or_insert_with(|| issuer_facts(&meta, rec)),
                    seen_as_server: false,
                    seen_as_client: false,
                    in_mtls: false,
                    in_non_mtls_server: false,
                    first_seen: f64::INFINITY,
                    last_seen: f64::NEG_INFINITY,
                    conns: 0,
                    client_ips: 0,
                    server_subnets: 0,
                    client_subnets: 0,
                    excluded: excluded[fp_index.resolve(id)],
                })
                .collect()
        };

        let mut dangling_fp_refs = 0u64;
        let mut dangling_seen: FxHashSet<Fp> = FxHashSet::default();
        let mut dangling_samples: Vec<Fp> = Vec::new();
        // The distinct-address keys behind the `CertInfo` counts; dropped
        // when the build returns.
        let mut seen_addrs = SeenAddrs::with_capacity_and_hasher(ssl.len(), FxBuildHasher);
        // Fold every certificate of one chain of `rec` (one index probe
        // per reference); returns the leaf's id and whether any
        // certificate of the chain is excluded.
        let mut fold_chain = |rec: &SslRecord, chain: &[Fp], as_server: bool| {
            let mut leaf = None;
            let mut excluded = false;
            for (pos, fp) in chain.iter().enumerate() {
                if let Some(id) = fp_index.get(&x509, fp) {
                    excluded |= certs[id].excluded;
                    certs[id].observe(id, rec, as_server, &mut seen_addrs);
                    if pos == 0 {
                        leaf = Some(id);
                    }
                } else {
                    dangling_fp_refs += 1;
                    if dangling_seen.insert(*fp) && dangling_samples.len() < 8 {
                        dangling_samples.push(*fp);
                    }
                }
            }
            (leaf, excluded)
        };
        let mut conns: Vec<ConnInfo> = Vec::with_capacity(ssl.len());
        let mut domains = DomainMemo::default();
        for rec in &ssl {
            let (server_leaf, server_excluded) = fold_chain(rec, &rec.cert_chain_fps, true);
            let (client_leaf, client_excluded) = fold_chain(rec, &rec.client_cert_chain_fps, false);
            let direction = meta.direction_of(rec);
            let mtls = rec.is_mutual_tls();

            // SLD/TLD: from SNI, falling back to certificate names (§4.2).
            let domain = rec
                .server_name
                .as_deref()
                .and_then(|name| domains.name(name))
                .or_else(|| server_leaf.and_then(|id| domains.cert(id, &x509[id])))
                .or_else(|| client_leaf.and_then(|id| domains.cert(id, &x509[id])));
            let (sld, tld) = domain.unzip();
            let association = if direction == Direction::Inbound {
                meta.association_for(sld.as_deref())
            } else {
                ServerAssociation::Unknown
            };
            conns.push(ConnInfo {
                direction,
                mtls,
                server_leaf,
                client_leaf,
                sld,
                tld,
                association,
                same_cert_both_ends: mtls
                    && rec.cert_chain_fps.first() == rec.client_cert_chain_fps.first(),
                excluded: server_excluded || client_excluded,
            });
        }

        let excluded_certs = certs.iter().filter(|c| c.excluded).count();

        Corpus {
            x509,
            ssl,
            certs,
            conns,
            meta,
            fp_index,
            interception_issuers,
            ct: CtSummary::default(),
            excluded_certs,
            dangling_fp_refs,
            dangling_fps: dangling_seen.len(),
            dangling_samples,
        }
    }

    /// Resolve a fingerprint to its certificate, if present.
    pub fn cert_by_fp(&self, fp: &Fp) -> Option<CertId> {
        self.fp_index.get(&self.x509, fp)
    }

    /// Every certificate, in id order.
    pub fn all_certs(&self) -> impl Iterator<Item = Cert<'_>> {
        self.x509
            .iter()
            .zip(&self.certs)
            .enumerate()
            .map(|(id, (rec, info))| Cert { id, rec, info })
    }

    /// Certificates that survive interception filtering.
    pub fn live_certs(&self) -> impl Iterator<Item = Cert<'_>> {
        self.all_certs().filter(|c| !c.excluded)
    }

    /// Every connection, in `ssl.log` order.
    pub fn all_conns(&self) -> impl Iterator<Item = Conn<'_>> {
        self.ssl
            .iter()
            .zip(&self.conns)
            .map(|(rec, info)| Conn { rec, info })
    }

    /// Connections that survive interception filtering.
    pub fn live_conns(&self) -> impl Iterator<Item = Conn<'_>> {
        self.all_conns().filter(|c| !c.excluded)
    }

    /// Mutual-TLS connections (live).
    pub fn mtls_conns(&self) -> impl Iterator<Item = Conn<'_>> {
        self.live_conns().filter(|c| c.mtls)
    }

    /// Look up a certificate.
    pub fn cert(&self, id: CertId) -> Cert<'_> {
        Cert {
            id,
            rec: &self.x509[id],
            info: &self.certs[id],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fp;

    /// Build with interception filtering off.
    fn build_unfiltered(ssl: &[SslRecord], x509: &[X509Record], meta: MetaKnowledge) -> Corpus {
        Corpus::build(
            ssl.to_vec(),
            x509.to_vec(),
            meta,
            &FxHashSet::default(),
            vec![],
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

    fn x509(name: &str, issuer_org: Option<&str>) -> X509Record {
        X509Record {
            ts: 0.0,
            fingerprint: fp(name),
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
            cert_chain_fps: vec![fp(server_fp)],
            client_cert_chain_fps: client_fp.map(|f| vec![fp(f)]).unwrap_or_default(),
        }
    }

    /// Every fingerprint resolves to its last row, across table sizes and
    /// a fingerprint on three rows; an unknown one resolves to nothing.
    #[test]
    fn fp_index_resolves_every_fingerprint_to_its_last_row() {
        for n in [0usize, 1, 2, 3, 7, 64, 1000] {
            let mut rows: Vec<X509Record> = (0..n).map(|i| x509(&format!("c{i}"), None)).collect();
            if n >= 3 {
                rows.push(x509("c0", None));
                rows.push(x509("c1", None));
                rows.push(x509("c0", None));
            }
            let index = FpIndex::new(&rows);
            assert_eq!(index.len(), n);
            for (row, rec) in rows.iter().enumerate() {
                let last = rows.iter().rposition(|r| r.fingerprint == rec.fingerprint);
                assert_eq!(index.get(&rows, &rec.fingerprint), last, "n {n} row {row}");
                assert_eq!(Some(index.resolve(row)), last, "n {n} row {row}");
            }
            assert_eq!(index.get(&rows, &fp("absent")), None);
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

    /// Each connection's memoized domain equals `extract_domain` over that
    /// row alone: an SNI repeated in mixed case, padded and with a trailing
    /// dot, an SNI that is no domain, and no SNI, each over a server leaf
    /// whose names hold a domain, a client leaf whose CN does, or neither.
    #[test]
    fn memoized_domains_equal_the_per_row_extraction() {
        let internal = Ipv4::new(172, 29, 10, 5);
        let external = Ipv4::new(98, 100, 1, 1);
        let mut named = x509("named", None);
        named.san_dns = vec!["not a domain".into(), "Api.Example.co.uk".into()];
        let mut client = x509("client", None);
        client.subject_cn = Some("device.Campus-Main.edu.".into());
        let certs = vec![named, client, x509("nameless", None)];
        let mut ssl = Vec::new();
        for sni in [
            Some("www.Example.com"),
            Some(" WWW.example.COM. "),
            Some("www.example.com"),
            Some("www.example.com"),
            Some("not a domain"),
            None,
        ] {
            for (server, client) in [
                ("named", Some("client")),
                ("nameless", Some("client")),
                ("nameless", None),
            ] {
                ssl.push(conn(external, internal, sni, server, client));
            }
        }
        let corpus = build_unfiltered(&ssl, &certs, meta());

        let leaf_domain = |chain: &[Fp]| {
            let cert = certs
                .iter()
                .find(|c| chain.first() == Some(&c.fingerprint))?;
            cert.san_dns
                .iter()
                .chain(cert.subject_cn.iter())
                .find_map(|name| extract_domain(name))
        };
        for (conn, rec) in corpus.conns.iter().zip(&ssl) {
            let want = rec
                .server_name
                .as_deref()
                .and_then(extract_domain)
                .or_else(|| leaf_domain(&rec.cert_chain_fps))
                .or_else(|| leaf_domain(&rec.client_cert_chain_fps));
            assert_eq!(
                (conn.sld.as_deref(), conn.tld.as_deref()),
                (
                    want.as_ref().map(|d| d.registered_domain()).as_deref(),
                    want.as_ref().map(|d| d.tld.as_str())
                ),
                "{:?}",
                rec.server_name
            );
        }
        let slds: FxHashSet<Option<&str>> = corpus.conns.iter().map(|c| c.sld.as_deref()).collect();
        assert_eq!(slds.len(), 4, "{slds:?}");
        // The two rows with the same SNI share one domain.
        let (first, second) = (&corpus.conns[6], &corpus.conns[9]);
        assert!(Arc::ptr_eq(
            first.sld.as_ref().expect("domain"),
            second.sld.as_ref().expect("domain")
        ));
    }

    /// Over a generated corpus, where each (issuer_org, issuer) pair
    /// repeats across many rows, every certificate's memoized facts equal
    /// `issuer_facts` of its own row.
    #[test]
    fn memoized_issuer_facts_equal_each_rows_own() {
        let sim = mtls_netsim::generate(&mtls_netsim::SimConfig {
            seed: 7,
            scale: 0.02,
            ..mtls_netsim::SimConfig::default()
        });
        let meta = MetaKnowledge::from_sim(&sim.meta);
        let corpus = Corpus::build(
            sim.ssl,
            sim.x509,
            meta.clone(),
            &FxHashSet::default(),
            vec![],
        );
        let pairs: FxHashSet<(Option<&str>, &str)> = corpus
            .x509
            .iter()
            .map(|rec| (rec.issuer_org.as_deref(), rec.issuer.as_str()))
            .collect();
        assert!(pairs.len() * 10 < corpus.certs.len(), "{}", pairs.len());
        for cert in corpus.all_certs() {
            assert_eq!(
                cert.issuer,
                issuer_facts(&meta, cert.rec),
                "{:?}",
                cert.rec.issuer
            );
        }
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
        assert!(corpus.certs[0].issuer.public);
        assert_eq!(corpus.certs[0].issuer.category, IssuerCategory::Public);
        assert_eq!(corpus.certs[1].issuer.category, IssuerCategory::Education);
        assert!(corpus.certs[1].issuer.recognizable);
        assert_eq!(
            corpus.certs[2].issuer.category,
            IssuerCategory::MissingIssuer
        );
        assert_eq!(corpus.certs[3].issuer.category, IssuerCategory::Dummy);
    }

    /// `issuer_facts` as the separate passes it replaced computed it:
    /// `str::contains` scans, `classify_org`'s category, and `is_dummy_org`
    /// on the trimmed organization (what the audit's dummy rule ran).
    fn reference_facts(meta: &MetaKnowledge, rec: &X509Record) -> IssuerFacts {
        let org = rec.issuer_org.as_deref();
        let public = meta.issuer_is_public(org)
            || meta
                .public_ca_orgs
                .iter()
                .any(|p| rec.issuer.contains(p.as_str()));
        let campus = meta.issuer_is_campus(org);
        IssuerFacts {
            public,
            category: mtls_pki::classify_org(org, public).category,
            recognizable: campus
                || org.is_some_and(|o| {
                    [
                        "Azure Sphere",
                        "Apple iPhone Device",
                        "AT&T",
                        "Red Hat",
                        "Samsung",
                    ]
                    .iter()
                    .any(|g| o.contains(g))
                }),
            campus,
            dummy: org
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .is_some_and(mtls_pki::issuercat::is_dummy_org),
        }
    }

    /// `org` with `edits` pseudo-random single-byte edits drawn from `seed`.
    fn edited(org: &str, edits: usize, mut seed: u64) -> String {
        let mut b: Vec<u8> = org.bytes().collect();
        for _ in 0..edits {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let pos = (seed >> 33) as usize % (b.len() + 1);
            let ch = b"xQ .-7"[(seed >> 13) as usize % 6];
            match seed % 3 {
                0 => b.insert(pos, ch),
                1 if pos < b.len() => {
                    b.remove(pos);
                }
                _ if pos < b.len() => b[pos] = ch,
                _ => b.push(ch),
            }
        }
        String::from_utf8(b).expect("ASCII edits of ASCII")
    }

    use proptest::{prop_assert, prop_assert_eq};

    proptest::proptest! {
        #[test]
        fn facts_equal_the_separate_passes_near_every_dummy_default(
            which in proptest::prelude::any::<usize>(),
            edits in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
            public in proptest::prelude::any::<bool>(),
            pad in "[ ,.]{0,2}",
        ) {
            let dummies = mtls_pki::issuercat::DUMMY_ORGS;
            let org = format!("{pad}{}{pad}", edited(dummies[which % dummies.len()], edits, seed));
            let mut rec = x509("aa", Some(&org));
            if public {
                // The DN names a public CA, so the issuer is public while
                // its organization is a default string.
                rec.issuer = format!("O={org}, OU=DigiCert Inc");
            }
            let m = meta();
            let facts = issuer_facts(&m, &rec);
            prop_assert_eq!(facts.public, public);
            prop_assert_eq!(facts.dummy, mtls_pki::issuercat::is_dummy_org(org.trim()), "{:?}", org);
            prop_assert_eq!(facts, reference_facts(&m, &rec), "{:?}", org);
            if edits == 0 {
                prop_assert!(facts.dummy, "{:?}", org);
            }
        }

        #[test]
        fn facts_equal_the_separate_passes_on_any_issuer(
            org in "\\PC{0,30}",
            issuer in "\\PC{0,30}",
            present in proptest::prelude::any::<bool>(),
        ) {
            let mut rec = x509("aa", present.then_some(org.as_str()));
            rec.issuer = issuer;
            let m = meta();
            prop_assert_eq!(issuer_facts(&m, &rec), reference_facts(&m, &rec));
        }
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
        assert_eq!(corpus.dangling_samples, vec![fp("skipped1")]);
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
        let excluded: FxHashSet<Fp> = [fp("aa")].into_iter().collect();
        let corpus = Corpus::build(
            ssl,
            certs,
            meta(),
            &excluded,
            vec!["NetGuard Inspection CA 1".into()],
        );
        assert!(corpus.conns[0].excluded);
        assert_eq!(corpus.excluded_certs, 1);
        assert_eq!(corpus.live_conns().count(), 0);
        assert_eq!(corpus.live_certs().count(), 1);
    }

    #[test]
    fn distinct_counts_equal_sets_over_the_raw_rows() {
        let a = Ipv4::new(98, 100, 1, 1);
        let a_neighbour = Ipv4::new(98, 100, 1, 2); // same /24 as `a`
        let b = Ipv4::new(203, 0, 113, 9);
        let internal = Ipv4::new(172, 29, 10, 5);
        let internal2 = Ipv4::new(172, 29, 11, 5);
        let certs = vec![
            x509("srv", Some("DigiCert Inc")),
            x509("cli", None),
            x509("dual", None),
            x509("mitm", Some("NetGuard Inspection CA 1")),
            x509("int", None),
        ];
        let mut chained = conn(a, internal, None, "srv", Some("cli"));
        chained.cert_chain_fps.push(fp("int"));
        let ssl = vec![
            chained,
            // `a` again, then its /24 neighbour.
            conn(a, internal, None, "srv", Some("cli")),
            conn(a_neighbour, internal2, None, "srv", Some("cli")),
            // "dual" serves here and is a client below.
            conn(b, internal, None, "dual", Some("cli")),
            conn(internal, b, None, "srv", Some("dual")),
            // "gone" has no x509 row.
            conn(b, internal, None, "gone", Some("dual")),
            // "mitm" is excluded; its counts still fold.
            conn(internal, b, None, "mitm", None),
            conn(internal2, b, None, "mitm", None),
        ];
        let excluded: FxHashSet<Fp> = [fp("mitm")].into_iter().collect();
        let corpus = Corpus::build(ssl.clone(), certs, meta(), &excluded, vec![]);
        assert_eq!(corpus.dangling_fps, 1);
        assert!(corpus.certs[2].dual_role());
        assert!(corpus.certs[3].excluded);

        for cert in corpus.all_certs() {
            let fp = &cert.rec.fingerprint;
            let as_server = |r: &&SslRecord| r.cert_chain_fps.contains(fp);
            let as_client = |r: &&SslRecord| r.client_cert_chain_fps.contains(fp);
            let ips: FxHashSet<Ipv4> = ssl
                .iter()
                .filter(|r| as_server(r) || as_client(r))
                .map(|r| r.orig_h)
                .collect();
            let server: FxHashSet<Ipv4> = ssl
                .iter()
                .filter(as_server)
                .map(|r| r.resp_h.subnet24())
                .collect();
            let client: FxHashSet<Ipv4> = ssl
                .iter()
                .filter(as_client)
                .map(|r| r.orig_h.subnet24())
                .collect();
            assert_eq!(
                (cert.client_ips, cert.server_subnets, cert.client_subnets),
                (ips.len(), server.len(), client.len()),
                "{fp}"
            );
        }
        // Four rows carry "cli" from three addresses in two /24s.
        let cli = &corpus.certs[1];
        assert_eq!(cli.conns, 4);
        assert_eq!((cli.client_ips, cli.client_subnets), (3, 2));
        let dual = &corpus.certs[2];
        assert_eq!((dual.server_subnets, dual.client_subnets), (1, 2));
    }
}
