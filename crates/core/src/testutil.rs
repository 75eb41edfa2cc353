//! Test support: a fluent builder for small synthetic corpora so each
//! analyzer can be unit-tested against hand-written scenarios, and a
//! deterministic fault-injection harness ([`faults`]) for exercising the
//! lenient ingest path from integration tests.
//!
//! Compiled into the library (not `#[cfg(test)]`) so the workspace-level
//! integration tests and benches can drive the same harness; production
//! code never calls it.

use crate::corpus::{Corpus, MetaKnowledge};
use mtls_zeek::{Fp, Ipv4, SslRecord, TlsVersion, X509Record};

/// The study's first day, as a float timestamp.
pub const T0: f64 = 1_651_363_200.0;

/// One day in seconds.
pub const DAY: f64 = 86_400.0;

/// Standard test meta: university = 172.29/16, one campus CA, DigiCert and
/// Let's Encrypt as the public roster.
pub fn meta() -> MetaKnowledge {
    MetaKnowledge {
        university_net: (Ipv4::new(172, 29, 0, 0), 16),
        campus_issuer_orgs: vec!["Commonwealth University".into()],
        public_ca_orgs: vec![
            "DigiCert Inc".into(),
            "Let's Encrypt".into(),
            "Sectigo Limited".into(),
            "Apple Inc.".into(),
        ],
        health_slds: vec!["campus-health.org".into()],
        university_slds: vec!["campus-main.edu".into()],
        vpn_slds: vec!["campus-vpn.net".into()],
        localorg_slds: vec!["localorg-a.org".into()],
        globus_slds: vec!["globus.org".into()],
        cloud_nets: vec![(Ipv4::new(18, 204, 0, 0), 16)],
        non_mtls_weight: 10.0,
        ct_forked_logs: vec![],
    }
}

/// The fingerprint of the certificate a test calls `name`: the SHA-256
/// of the name, so every test certificate has a real, distinct one.
pub fn fp(name: &str) -> Fp {
    Fp::of(name.as_bytes())
}

/// An internal (university) IP with the given low bits.
pub fn internal(n: u16) -> Ipv4 {
    Ipv4::new(172, 29, (n >> 8) as u8, (n & 0xFF).max(1) as u8)
}

/// An external IP with the given low bits.
pub fn external(n: u16) -> Ipv4 {
    Ipv4::new(98, 100, (n >> 8) as u8, (n & 0xFF).max(1) as u8)
}

/// Fluent corpus builder.
#[derive(Default)]
pub struct CorpusBuilder {
    certs: Vec<X509Record>,
    ssl: Vec<SslRecord>,
    uid: u64,
}

/// Options for a test certificate.
pub struct CertOpts {
    pub issuer_org: Option<&'static str>,
    pub cn: Option<&'static str>,
    pub san_dns: Vec<&'static str>,
    pub serial: &'static str,
    pub not_before: f64,
    pub not_after: f64,
    pub version: u8,
    pub key_length: u16,
}

impl Default for CertOpts {
    fn default() -> Self {
        CertOpts {
            issuer_org: Some("SomeOrg Inc"),
            cn: Some("host.example.com"),
            san_dns: vec![],
            serial: "0A",
            not_before: T0 - 30.0 * DAY,
            not_after: T0 + 730.0 * DAY,
            version: 3,
            key_length: 2048,
        }
    }
}

impl CorpusBuilder {
    pub fn new() -> CorpusBuilder {
        CorpusBuilder::default()
    }

    /// Register a certificate named `name` (its fingerprint is
    /// [`fp`]`(name)`).
    pub fn cert(&mut self, name: &str, opts: CertOpts) -> &mut Self {
        self.certs.push(X509Record {
            ts: T0,
            fingerprint: fp(name),
            version: opts.version,
            serial: opts.serial.to_string(),
            subject: opts.cn.map(|c| format!("CN={c}")).unwrap_or_default(),
            issuer: opts
                .issuer_org
                .map(|o| format!("O={o}"))
                .unwrap_or_default(),
            issuer_org: opts.issuer_org.map(str::to_owned),
            subject_cn: opts.cn.map(str::to_owned),
            not_valid_before: opts.not_before as i64,
            not_valid_after: opts.not_after as i64,
            key_alg: "rsa".into(),
            key_length: opts.key_length,
            sig_alg: "sha256WithRSAEncryption".into(),
            san_dns: opts.san_dns.iter().map(|s| s.to_string()).collect(),
            san_email: vec![],
            san_uri: vec![],
            san_ip: vec![],
            basic_constraints_ca: false,
        });
        self
    }

    /// Add a connection whose chains are the certificates named
    /// `server`/`client`; `""` means "no chain".
    #[allow(clippy::too_many_arguments)]
    pub fn conn(
        &mut self,
        ts: f64,
        orig: Ipv4,
        resp: Ipv4,
        port: u16,
        sni: Option<&str>,
        server: &str,
        client: &str,
    ) -> &mut Self {
        let chain = |name: &str| {
            if name.is_empty() {
                vec![]
            } else {
                vec![fp(name)]
            }
        };
        self.uid += 1;
        self.ssl.push(SslRecord {
            ts,
            uid: format!("T{:06}", self.uid),
            orig_h: orig,
            orig_p: 40_000,
            resp_h: resp,
            resp_p: port,
            version: TlsVersion::Tls12,
            server_name: sni.map(str::to_owned),
            established: true,
            cert_chain_fps: chain(server),
            client_cert_chain_fps: chain(client),
        });
        self
    }

    /// Inbound mTLS convenience (external client → internal server, 443).
    pub fn inbound(
        &mut self,
        ts: f64,
        client_n: u16,
        sni: Option<&str>,
        sfp: &str,
        cfp: &str,
    ) -> &mut Self {
        self.conn(ts, external(client_n), internal(10), 443, sni, sfp, cfp)
    }

    /// Outbound mTLS convenience (internal client → external server, 443).
    pub fn outbound(
        &mut self,
        ts: f64,
        client_n: u16,
        sni: Option<&str>,
        sfp: &str,
        cfp: &str,
    ) -> &mut Self {
        self.conn(ts, internal(client_n), external(10), 443, sni, sfp, cfp)
    }

    /// Build the corpus (no interception exclusions).
    pub fn build(&self) -> Corpus {
        self.build_excluding(&[])
    }

    /// Build the corpus with the certificates named in `excluded`
    /// excluded as interception.
    pub fn build_excluding(&self, excluded: &[&str]) -> Corpus {
        Corpus::build(
            self.ssl.clone(),
            self.certs.clone(),
            meta(),
            &excluded.iter().map(|name| fp(name)).collect(),
            vec![],
        )
    }
}

/// Deterministic on-disk fault injection for ingest tests.
///
/// Each helper mutates one written Zeek log file in place, targeting a
/// specific data line by index (comment/header lines starting with `#` are
/// not counted), so a test knows exactly which rows a lenient load must
/// skip and which error kind each skip classifies as. All helpers panic on
/// I/O failure or an out-of-range line index — they are test scaffolding,
/// not production code.
pub mod faults {
    use std::path::Path;

    /// Rewrite `path`, applying `edit` to the `nth` (0-based) data line.
    /// The line is passed without its trailing newline; whatever `edit`
    /// leaves in the buffer is written back, newline restored.
    fn edit_nth_data_line(path: &Path, nth: usize, edit: impl Fn(&mut Vec<u8>)) {
        let bytes = std::fs::read(path).expect("read log for fault injection");
        let mut out = Vec::with_capacity(bytes.len() + 8);
        let mut seen = 0usize;
        let mut hit = false;
        for chunk in bytes.split_inclusive(|&b| b == b'\n') {
            let (line, nl): (&[u8], &[u8]) = match chunk.split_last() {
                Some((b'\n', rest)) => (rest, b"\n"),
                _ => (chunk, b""),
            };
            if !line.is_empty() && line[0] != b'#' {
                if seen == nth {
                    let mut edited = line.to_vec();
                    edit(&mut edited);
                    out.extend_from_slice(&edited);
                    out.extend_from_slice(nl);
                    seen += 1;
                    hit = true;
                    continue;
                }
                seen += 1;
            }
            out.extend_from_slice(chunk);
        }
        assert!(hit, "no data line {nth} in {}", path.display());
        std::fs::write(path, out).expect("write faulted log");
    }

    /// Corrupt the shard's `#fields` header so both readers reject the
    /// whole file (`BadHeader`; lenient mode quarantines it).
    pub fn corrupt_header(path: &Path) {
        let text = std::fs::read_to_string(path).expect("read log for fault injection");
        assert!(
            text.contains("#fields\t"),
            "{} has no #fields",
            path.display()
        );
        std::fs::write(path, text.replace("#fields\t", "#fields\tbogus_column\t"))
            .expect("write faulted log");
    }

    /// Truncate the `nth` data line at its first tab, leaving a single
    /// column (`ColumnCount` skip).
    pub fn truncate_line(path: &Path, nth: usize) {
        edit_nth_data_line(path, nth, |line| {
            if let Some(tab) = line.iter().position(|&b| b == b'\t') {
                line.truncate(tab);
            }
        });
    }

    /// Splice a raw `0xFF` byte into the middle of the `nth` data line,
    /// making the whole line invalid UTF-8 (`NonUtf8` skip).
    pub fn inject_non_utf8(path: &Path, nth: usize) {
        edit_nth_data_line(path, nth, |line| {
            line.insert(line.len() / 2, 0xFF);
        });
    }

    /// Overwrite the first byte of the `nth` data line's leading field (the
    /// timestamp in both schemas) with a non-numeric byte (`BadField` skip).
    pub fn flip_field_byte(path: &Path, nth: usize) {
        edit_nth_data_line(path, nth, |line| {
            assert!(!line.is_empty());
            line[0] = b'x';
        });
    }
}
