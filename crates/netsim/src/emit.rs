//! The emitter: drives each scenario-specified connection through the
//! `mtls-tlssim` handshake simulator and passive monitor, then records what
//! the monitor observed as Zeek log records. Certificates are interned by
//! SHA-256 fingerprint, exactly like Zeek's x509 dedup.

use crate::calendar::Month;
use crate::certgen::{MintSpec, Usage};
use crate::config::SimConfig;
use crate::scenarios::ContentQuotas;
use crate::targets;
use crate::world::{PublicCa, World};
use mtls_asn1::Asn1Time;
use mtls_crypto::{sha256, Fp};
use mtls_pki::ctlog::CtEntry;
use mtls_pki::gossip::{CtObservation, GossipBundle, Vantage};
use mtls_pki::CtLog;
use mtls_tlssim::{observe, simulate_handshake, HandshakeConfig};
use mtls_x509::{Certificate, GeneralName, KeyAlgorithm, Version};
use mtls_zeek::{Ipv4, SslRecord, TlsVersion, X509Record};
use rand::Rng;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// One connection, as a scenario specifies it.
pub struct ConnSpec<'a> {
    pub ts: f64,
    pub orig: Ipv4,
    pub resp: Ipv4,
    pub resp_port: u16,
    pub version: TlsVersion,
    pub sni: Option<String>,
    pub server_chain: Vec<&'a Certificate>,
    pub client_chain: Vec<&'a Certificate>,
    pub established: bool,
    /// Session resumption: no certificates visible (see `mtls-tlssim`).
    pub resumed: bool,
}

/// Like [`ConnSpec`] but with certificate chains as raw DER blobs, for the
/// `malformed` scenario: endpoints on a real network can and do present
/// bytes that are not well-formed certificates, and the wire protocol
/// carries them opaquely either way.
pub struct RawConnSpec {
    pub ts: f64,
    pub orig: Ipv4,
    pub resp: Ipv4,
    pub resp_port: u16,
    pub version: TlsVersion,
    pub sni: Option<String>,
    pub server_chain: Vec<Vec<u8>>,
    pub client_chain: Vec<Vec<u8>>,
    pub established: bool,
    pub resumed: bool,
}

/// Accounting for certificate blobs that reached the monitor but did not
/// parse: the emitter logs the connection (Zeek logs the handshake either
/// way) and skips the x509 row, like Zeek's parse-failure path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MalformedStats {
    /// Distinct certificate blobs skipped (by fingerprint).
    pub certs_skipped: u64,
    /// Up to eight sample fingerprints of skipped blobs, first-seen order.
    pub sample_fps: Vec<Fp>,
}

/// Out-of-band metadata the analysis pipeline needs (the paper's analogue:
/// the university's subnet list, campus CA names, and collection window).
#[derive(Debug, Clone, PartialEq)]
pub struct SimMeta {
    /// University network (internal/external split).
    pub university_net: (Ipv4, u8),
    /// Campus CA issuer organizations (Education + user-account check).
    pub campus_issuer_orgs: Vec<String>,
    /// Organizations of CAs present in the four root programs — the
    /// analysis pipeline's stand-in for consulting NSS/Apple/Microsoft/
    /// CCADB root stores.
    pub public_ca_orgs: Vec<String>,
    /// SLD → inbound server association hints (the paper built these from
    /// university knowledge).
    pub health_slds: Vec<String>,
    pub university_slds: Vec<String>,
    pub vpn_slds: Vec<String>,
    pub localorg_slds: Vec<String>,
    pub globus_slds: Vec<String>,
    /// Publicly published cloud/security-provider prefixes (AWS et al.
    /// publish their ranges) — §3.3's external-server attribution.
    pub cloud_nets: Vec<(Ipv4, u8)>,
    /// Stratified-sampling weight for non-mTLS records (Fig. 1 shares).
    pub non_mtls_weight: f64,
    /// Generation parameters, for provenance.
    pub seed: u64,
    pub scale: f64,
    /// Hex log ids of CT logs the simulation deliberately forked (ground
    /// truth for the split-view detector's recall table; empty on clean
    /// corpora).
    pub ct_forked_logs: Vec<String>,
}

/// The complete simulation product.
#[derive(Debug, Clone)]
pub struct SimOutput {
    pub ssl: Vec<SslRecord>,
    pub x509: Vec<X509Record>,
    /// The CT log *as the campus border observed it* — identical to the
    /// honest log unless the equivocation scenario forked it.
    pub ct: CtLog,
    /// STHs and proofs exchanged between the gossip vantage points.
    pub gossip: GossipBundle,
    pub meta: SimMeta,
    /// Certificates that failed to parse and were skipped (empty unless the
    /// `malformed` scenario is enabled).
    pub malformed: MalformedStats,
}

/// Collects records during generation.
pub struct Emitter {
    ssl: Vec<SslRecord>,
    x509: Vec<X509Record>,
    seen: HashMap<[u8; 32], ()>,
    /// The honest CT log; only [`Emitter::public_server_leaf`] writes it.
    ct: CtLog,
    /// Shared CN/SAN content quotas (Tables 8–9), drawn down by scenarios.
    pub quotas: ContentQuotas,
    /// Remaining public-CA client certificates that get a personal name
    /// (the paper's 133, §6.3.3).
    pub quotas_public_personal_names: usize,
    uid_counter: u64,
    config: SimConfig,
    malformed: MalformedStats,
    /// Fabricated entries an equivocating log serves *only* to the campus
    /// border (spliced into the honest sequence at [`Emitter::finish`]).
    ct_fork_entries: Vec<CtEntry>,
    /// Log sizes at which the campus border snapshotted an STH mid-run.
    ct_campus_observations: Vec<u64>,
}

impl Emitter {
    /// Fresh emitter.
    pub fn new(config: &SimConfig) -> Emitter {
        Emitter {
            ssl: Vec::new(),
            x509: Vec::new(),
            seen: HashMap::new(),
            ct: CtLog::new(),
            quotas: ContentQuotas::new(config),
            quotas_public_personal_names: config.scaled(targets::CLIENT_PUBLIC_PERSONAL_NAMES),
            uid_counter: 0,
            config: config.clone(),
            malformed: MalformedStats::default(),
            ct_fork_entries: Vec::new(),
            ct_campus_observations: Vec::new(),
        }
    }

    /// Emit one connection: simulate the handshake bytes, run the passive
    /// monitor over them, and log what the monitor saw.
    pub fn connection(&mut self, spec: ConnSpec<'_>, rng: &mut impl Rng) {
        self.connection_raw(
            RawConnSpec {
                ts: spec.ts,
                orig: spec.orig,
                resp: spec.resp,
                resp_port: spec.resp_port,
                version: spec.version,
                sni: spec.sni,
                server_chain: spec.server_chain.iter().map(|c| c.to_der()).collect(),
                client_chain: spec.client_chain.iter().map(|c| c.to_der()).collect(),
                established: spec.established,
                resumed: spec.resumed,
            },
            rng,
        );
    }

    /// [`Emitter::connection`] over raw DER chains. Blobs that fail to
    /// parse still flow through the handshake and are fingerprinted in
    /// `ssl.log`, but get no `x509.log` row (counted in
    /// [`SimOutput::malformed`]).
    pub fn connection_raw(&mut self, spec: RawConnSpec, rng: &mut impl Rng) {
        // Clamp into the collection window (scenario arithmetic may land a
        // reissued certificate's last connection a day past March 31 2024).
        let ts = spec.ts.clamp(1_651_363_200.0, 1_711_843_199.0);
        let cfg = HandshakeConfig {
            version: spec.version,
            sni: spec.sni.clone(),
            server_chain: spec.server_chain,
            request_client_cert: !spec.client_chain.is_empty(),
            client_chain: spec.client_chain,
            established: spec.established,
            resumed: spec.resumed,
            random_seed: rng.gen(),
        };
        let transcript = simulate_handshake(&cfg);
        let obs = observe(&transcript).expect("simulated stream is TLS");

        let cert_chain_fps = self.intern_chain(&obs.server_cert_ders, ts);
        let client_cert_chain_fps = self.intern_chain(&obs.client_cert_ders, ts);

        self.uid_counter += 1;
        self.ssl.push(SslRecord {
            ts,
            uid: format!("C{:08x}", self.uid_counter),
            orig_h: spec.orig,
            orig_p: rng.gen_range(32_768..61_000),
            resp_h: spec.resp,
            resp_p: spec.resp_port,
            version: obs.version.unwrap_or(spec.version),
            server_name: obs.sni,
            established: obs.established,
            cert_chain_fps,
            client_cert_chain_fps,
        });
    }

    /// Mint a server leaf from a public CA's issuing intermediate and log
    /// it to CT. This is the only way into the honest log, and the rule it
    /// carries is DESIGN §1's: publicly trusted CAs log the server leaves
    /// they issue, so the interception filter's CT join sees every one.
    /// Public-CA client-only leaves are minted through `MintSpec` and are
    /// not logged. The leaf's CN is `names[0]` and its SAN dNSNames are
    /// `names`; `usage` is `Server`, or `Both` for a shared certificate.
    pub fn public_server_leaf(
        &mut self,
        ca: &PublicCa,
        validity: (Asn1Time, Asn1Time),
        names: &[&str],
        usage: Usage,
        rng: &mut impl Rng,
    ) -> Certificate {
        let leaf = self.unlogged_public_server_leaf(ca, validity, names, usage, rng);
        self.ct.submit(&leaf);
        leaf
    }

    /// [`Emitter::public_server_leaf`] without the CT submission: the one
    /// public server leaf that breaks the logging rule on purpose, the
    /// SCT-strip scenario's twin of a logged certificate.
    pub fn unlogged_public_server_leaf(
        &self,
        ca: &PublicCa,
        (not_before, not_after): (Asn1Time, Asn1Time),
        names: &[&str],
        usage: Usage,
        rng: &mut impl Rng,
    ) -> Certificate {
        MintSpec::new(&ca.intermediate, not_before, not_after)
            .cn(names[0])
            .san_dns(names)
            .usage(usage)
            .mint(rng)
    }

    /// Record that the campus border monitor fetched an STH at this point
    /// in the run (i.e. at the log's current size). The matching signed
    /// tree heads are minted in [`Emitter::finish`].
    pub fn observe_campus_sth(&mut self) {
        self.ct_campus_observations.push(self.ct.len() as u64);
    }

    /// Plant an equivocating view: these fabricated entries will appear in
    /// the CT log *as served to the campus border*, spliced into the middle
    /// of the honest sequence, while the external monitor keeps seeing the
    /// honest log. Ground truth is recorded in `SimMeta::ct_forked_logs`.
    pub fn plant_ct_fork(&mut self, entries: Vec<CtEntry>) {
        self.ct_fork_entries.extend(entries);
    }

    fn intern_chain(&mut self, ders: &[Vec<u8>], ts: f64) -> Vec<Fp> {
        let mut fps = Vec::with_capacity(ders.len());
        for der in ders {
            let digest = sha256(der);
            let fp = Fp::from_digest(&digest);
            if self.seen.insert(digest, ()).is_none() {
                // Zeek's parse-failure path: the connection log keeps the
                // fingerprint, the x509 log gets no row, nothing crashes.
                match Certificate::from_der(der) {
                    Ok(cert) => self.x509.push(to_x509_record(&cert, fp, ts)),
                    Err(_) => {
                        self.malformed.certs_skipped += 1;
                        if self.malformed.sample_fps.len() < 8 {
                            self.malformed.sample_fps.push(fp);
                        }
                    }
                }
            }
            fps.push(fp);
        }
        fps
    }

    /// Number of connections emitted so far.
    pub fn connections(&self) -> usize {
        self.ssl.len()
    }

    /// Compute the strata weight and package the output.
    pub fn finish(mut self, world: &World) -> SimOutput {
        // Stable output order: by timestamp, then uid (scenarios run in
        // sequence, so raw order is scenario-grouped otherwise).
        self.ssl.sort_by(|a, b| {
            a.ts.partial_cmp(&b.ts)
                .expect("no NaN ts")
                .then(a.uid.cmp(&b.uid))
        });
        self.x509.sort_by(|a, b| {
            a.ts.partial_cmp(&b.ts)
                .expect("no NaN ts")
                .then(a.fingerprint.cmp(&b.fingerprint))
        });

        // Calibrate the non-mTLS strata weight so the first month's mTLS
        // share lands on the paper's 1.99 % (Fig. 1).
        let first = Month {
            year: 2022,
            month: 5,
        };
        let mut mtls_m1 = 0usize;
        let mut non_m1 = 0usize;
        for rec in &self.ssl {
            if Month::of_ts(rec.ts) == first {
                if rec.is_mutual_tls() {
                    mtls_m1 += 1;
                } else {
                    non_m1 += 1;
                }
            }
        }
        let s = targets::MTLS_SHARE_START;
        let non_mtls_weight = if non_m1 == 0 {
            1.0
        } else {
            (mtls_m1 as f64) * (1.0 - s) / (s * non_m1 as f64)
        };

        // CT gossip: mint the signed tree heads each vantage point saw.
        // Everything here is derived from the log contents — no RNG — so
        // enabling gossip never perturbs the calibrated record streams.
        const CT_T0: u64 = 1_651_363_200;
        let honest = self.ct;
        let forked = !self.ct_fork_entries.is_empty();
        let campus = if forked {
            // Splice the fabricated entries into the middle of the honest
            // sequence: the forked view shares a prefix with the honest one
            // (early STHs agree) but every root from the splice point on
            // diverges, so no consistency proof can reconcile the heads.
            let mut campus = CtLog::new();
            let at = honest.entries().len() / 2;
            for entry in &honest.entries()[..at] {
                campus.submit_entry(entry.clone());
            }
            for entry in &self.ct_fork_entries {
                campus.submit_entry(entry.clone());
            }
            for entry in &honest.entries()[at..] {
                campus.submit_entry(entry.clone());
            }
            campus
        } else {
            honest.clone()
        };

        let mut observations = Vec::new();
        for (i, &size) in self.ct_campus_observations.iter().enumerate() {
            if let Some(sth) = campus.sth_at(size, CT_T0 + 1 + i as u64) {
                observations.push(CtObservation {
                    vantage: Vantage::CampusBorder,
                    sth,
                });
            }
        }
        observations.push(CtObservation {
            vantage: Vantage::CampusBorder,
            sth: campus.sth(CT_T0 + 100),
        });
        observations.push(CtObservation {
            vantage: Vantage::ExternalMonitor,
            sth: honest.sth(CT_T0 + 101),
        });

        // Consistency proofs for every adjacent pair of observed sizes,
        // from whichever view can produce one. The auditor replays them
        // against the observed roots; a forked head's proof fails against
        // the honest root, which is exactly the split-view signal.
        let mut sizes: Vec<u64> = observations.iter().map(|o| o.sth.tree_size).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let mut consistency_proofs = Vec::new();
        for pair in sizes.windows(2) {
            for view in [&honest, &campus] {
                if let Some(proof) = view.prove_consistency(pair[0], pair[1]) {
                    if !consistency_proofs.contains(&proof) {
                        consistency_proofs.push(proof);
                    }
                }
            }
        }

        // Under a fork, ship inclusion proofs for every honest entry
        // against the external monitor's head, keyed by leaf hash, so the
        // analysis can salvage genuinely-logged entries from the split
        // view instead of distrusting the whole log.
        let mut entry_proofs = Vec::new();
        if forked {
            if let Some(proofs) = honest.prove_all_inclusions(honest.len() as u64) {
                for (entry, proof) in honest.entries().iter().zip(proofs) {
                    entry_proofs.push((CtLog::leaf_hash(entry), proof));
                }
            }
        }

        let gossip = GossipBundle {
            observations,
            consistency_proofs,
            entry_proofs,
            log_keys: vec![campus.keypair().clone()],
        };
        let ct_forked_logs = if forked {
            vec![campus.log_id().to_hex()]
        } else {
            Vec::new()
        };

        let meta = SimMeta {
            university_net: (
                world.plan.university.network,
                world.plan.university.prefix_len,
            ),
            campus_issuer_orgs: world.campus_issuer_orgs(),
            public_ca_orgs: world.public_cas.iter().map(|c| c.org.to_string()).collect(),
            health_slds: vec!["campus-health.org".into(), "health-portal.com".into()],
            university_slds: vec!["campus-main.edu".into(), "univ-apps.com".into()],
            vpn_slds: vec!["campus-vpn.net".into()],
            localorg_slds: vec!["localorg-a.org".into(), "civic-services.gov".into()],
            globus_slds: vec!["globus.org".into()],
            cloud_nets: vec![
                (world.plan.aws.network, world.plan.aws.prefix_len),
                (world.plan.rapid7.network, world.plan.rapid7.prefix_len),
                (world.plan.gp_cloud.network, world.plan.gp_cloud.prefix_len),
                (world.plan.apple.network, world.plan.apple.prefix_len),
                (
                    world.plan.microsoft.network,
                    world.plan.microsoft.prefix_len,
                ),
            ],
            non_mtls_weight,
            seed: self.config.seed,
            scale: self.config.scale,
            ct_forked_logs,
        };
        SimOutput {
            ssl: self.ssl,
            x509: self.x509,
            ct: campus,
            gossip,
            meta,
            malformed: self.malformed,
        }
    }
}

/// Convert a parsed certificate with fingerprint `fp` into its Zeek
/// x509.log row.
pub fn to_x509_record(cert: &Certificate, fp: Fp, ts: f64) -> X509Record {
    let (key_alg, key_length) = match cert.public_key().algorithm {
        KeyAlgorithm::Rsa { bits } => ("rsa", bits),
        KeyAlgorithm::EcdsaP256 => ("ecdsa", 256),
    };
    let mut san_dns = Vec::new();
    let mut san_email = Vec::new();
    let mut san_uri = Vec::new();
    let mut san_ip = Vec::new();
    for name in cert.subject_alt_names() {
        match &name {
            GeneralName::Dns(d) => san_dns.push(d.clone()),
            GeneralName::Email(e) => san_email.push(e.clone()),
            GeneralName::Uri(u) => san_uri.push(u.clone()),
            GeneralName::Ip(_) => {
                if let Some(text) = name.ip_display() {
                    san_ip.push(text);
                }
            }
            GeneralName::Other(..) => {}
        }
    }
    X509Record {
        ts,
        fingerprint: fp,
        version: match cert.version() {
            Version::V1 => 1,
            Version::V3 => 3,
        },
        serial: cert.serial().to_hex(),
        subject: cert.subject().to_display_string(),
        issuer: cert.issuer().to_display_string(),
        issuer_org: cert.issuer().organization().map(str::to_owned),
        subject_cn: cert.subject().common_name().map(str::to_owned),
        not_valid_before: cert.not_before().unix(),
        not_valid_after: cert.not_after().unix(),
        key_alg: Cow::Borrowed(key_alg),
        key_length,
        sig_alg: Cow::Borrowed(match cert.signature_algorithm() {
            mtls_x509::SignatureAlgorithm::Sha256WithRsa => "sha256WithRSAEncryption",
            mtls_x509::SignatureAlgorithm::Sha1WithRsa => "sha1WithRSAEncryption",
            mtls_x509::SignatureAlgorithm::EcdsaWithSha256 => "ecdsa-with-SHA256",
            mtls_x509::SignatureAlgorithm::Md5WithRsa => "md5WithRSAEncryption",
        }),
        san_dns,
        san_email,
        san_uri,
        san_ip,
        basic_constraints_ca: cert.is_ca(),
    }
}

impl SimOutput {
    /// Write the corpus as files: `ssl.log`, `x509.log`, `ct.log`,
    /// `meta.tsv` — the on-disk form the file-based pipeline consumes.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut ssl = std::io::BufWriter::new(std::fs::File::create(dir.join("ssl.log"))?);
        mtls_zeek::write_ssl_log(&mut ssl, &self.ssl)?;
        let mut x509 = std::io::BufWriter::new(std::fs::File::create(dir.join("x509.log"))?);
        mtls_zeek::write_x509_log(&mut x509, &self.x509)?;
        self.write_meta(dir)
    }

    /// Like [`SimOutput::write_to_dir`] but with Zeek-style monthly log
    /// rotation (`ssl.2022-05.log`, …), as a real 23-month collection would
    /// be stored.
    pub fn write_to_dir_rotated(&self, dir: &Path) -> std::io::Result<()> {
        mtls_zeek::write_monthly(dir, &self.ssl, &self.x509)?;
        self.write_meta(dir)
    }

    fn write_meta(&self, dir: &Path) -> std::io::Result<()> {
        // CT log: one (domain, issuer, fingerprint) triple per line, so the
        // interception filter works when the pipeline runs from files.
        let mut ct = std::io::BufWriter::new(std::fs::File::create(dir.join("ct.log"))?);
        for entry in self.ct.entries() {
            writeln!(
                ct,
                "{}\t{}\t{}",
                entry.domain, entry.issuer_display, entry.fingerprint
            )?;
        }

        // Gossip bundle: STHs, consistency proofs, inclusion proofs and
        // the (simulator-only) log signing keys, one record per line.
        std::fs::write(dir.join("ct_gossip.log"), self.gossip.to_tsv())?;

        let mut meta = std::io::BufWriter::new(std::fs::File::create(dir.join("meta.tsv"))?);
        let m = &self.meta;
        writeln!(
            meta,
            "university_net\t{}/{}",
            m.university_net.0, m.university_net.1
        )?;
        writeln!(
            meta,
            "campus_issuer_orgs\t{}",
            m.campus_issuer_orgs.join("|")
        )?;
        writeln!(meta, "public_ca_orgs\t{}", m.public_ca_orgs.join("|"))?;
        writeln!(meta, "health_slds\t{}", m.health_slds.join("|"))?;
        writeln!(meta, "university_slds\t{}", m.university_slds.join("|"))?;
        writeln!(meta, "vpn_slds\t{}", m.vpn_slds.join("|"))?;
        writeln!(meta, "localorg_slds\t{}", m.localorg_slds.join("|"))?;
        writeln!(meta, "globus_slds\t{}", m.globus_slds.join("|"))?;
        writeln!(
            meta,
            "cloud_nets\t{}",
            m.cloud_nets
                .iter()
                .map(|(net, p)| format!("{net}/{p}"))
                .collect::<Vec<_>>()
                .join("|")
        )?;
        writeln!(meta, "non_mtls_weight\t{}", m.non_mtls_weight)?;
        writeln!(meta, "seed\t{}", m.seed)?;
        writeln!(meta, "scale\t{}", m.scale)?;
        if !m.ct_forked_logs.is_empty() {
            writeln!(meta, "ct_forked_logs\t{}", m.ct_forked_logs.join("|"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtls_pki::CertificateAuthority;
    use mtls_x509::DistinguishedName;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn connection_interns_certs_once() {
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let world = World::build(&cfg);
        let mut em = Emitter::new(&cfg);
        let t0 = Asn1Time::from_ymd(2022, 6, 1);
        let ca = CertificateAuthority::new_root(
            b"e",
            DistinguishedName::builder().organization("E").build(),
            t0,
        );
        let server = MintSpec::new(&ca, t0, t0.add_days(90))
            .cn("s.example.com")
            .mint(&mut rng);
        let client = MintSpec::new(&ca, t0, t0.add_days(90))
            .cn("c-device")
            .mint(&mut rng);

        for i in 0..5 {
            em.connection(
                ConnSpec {
                    ts: t0.unix() as f64 + i as f64,
                    orig: Ipv4::new(10, 0, 0, 1),
                    resp: Ipv4::new(10, 0, 0, 2),
                    resp_port: 443,
                    version: TlsVersion::Tls12,
                    sni: Some("s.example.com".into()),
                    server_chain: vec![&server],
                    client_chain: vec![&client],
                    established: true,
                    resumed: false,
                },
                &mut rng,
            );
        }
        let out = em.finish(&world);
        assert_eq!(out.ssl.len(), 5);
        assert_eq!(out.x509.len(), 2, "certs interned once");
        assert!(out.ssl.iter().all(|r| r.is_mutual_tls()));
        assert_eq!(
            out.x509[0].ts,
            t0.unix() as f64,
            "first-seen timestamp kept"
        );
    }

    #[test]
    fn tls13_connections_log_no_certs() {
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(2);
        let world = World::build(&cfg);
        let mut em = Emitter::new(&cfg);
        let t0 = Asn1Time::from_ymd(2022, 6, 1);
        let ca = CertificateAuthority::new_root(
            b"e2",
            DistinguishedName::builder().organization("E2").build(),
            t0,
        );
        let server = MintSpec::new(&ca, t0, t0.add_days(90))
            .cn("h.example.com")
            .mint(&mut rng);
        em.connection(
            ConnSpec {
                ts: t0.unix() as f64,
                orig: Ipv4::new(10, 0, 0, 1),
                resp: Ipv4::new(10, 0, 0, 2),
                resp_port: 443,
                version: TlsVersion::Tls13,
                sni: Some("h.example.com".into()),
                server_chain: vec![&server],
                client_chain: vec![],
                established: true,
                resumed: false,
            },
            &mut rng,
        );
        let out = em.finish(&world);
        assert_eq!(out.ssl[0].version, TlsVersion::Tls13);
        assert!(out.ssl[0].cert_chain_fps.is_empty());
        assert!(out.x509.is_empty());
    }

    #[test]
    fn write_to_dir_round_trips_logs() {
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let world = World::build(&cfg);
        let mut em = Emitter::new(&cfg);
        let t0 = Asn1Time::from_ymd(2022, 7, 1);
        let ca = CertificateAuthority::new_root(
            b"e3",
            DistinguishedName::builder().organization("E3").build(),
            t0,
        );
        let server = MintSpec::new(&ca, t0, t0.add_days(30))
            .cn("w.example.com")
            .mint(&mut rng);
        em.connection(
            ConnSpec {
                ts: t0.unix() as f64,
                orig: Ipv4::new(10, 9, 9, 9),
                resp: Ipv4::new(10, 8, 8, 8),
                resp_port: 8443,
                version: TlsVersion::Tls12,
                sni: None,
                server_chain: vec![&server],
                client_chain: vec![],
                established: true,
                resumed: false,
            },
            &mut rng,
        );
        let out = em.finish(&world);
        let dir = std::env::temp_dir().join(format!("mtlscope-emit-test-{}", std::process::id()));
        out.write_to_dir(&dir).unwrap();
        let ssl = mtls_zeek::read_ssl_log(std::io::BufReader::new(
            std::fs::File::open(dir.join("ssl.log")).unwrap(),
        ))
        .unwrap();
        let x509 = mtls_zeek::read_x509_log(std::io::BufReader::new(
            std::fs::File::open(dir.join("x509.log")).unwrap(),
        ))
        .unwrap();
        assert_eq!(ssl, out.ssl);
        assert_eq!(x509, out.x509);
        std::fs::remove_dir_all(&dir).ok();
    }
}
