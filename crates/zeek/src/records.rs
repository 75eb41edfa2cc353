//! The two log record types of the paper's dataset.

use crate::ip::Ipv4;
use mtls_crypto::Fp;
use std::borrow::Cow;

/// Negotiated TLS protocol version, as Zeek prints it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TlsVersion {
    Tls10,
    Tls11,
    Tls12,
    /// Certificates are encrypted and invisible to a passive monitor — the
    /// paper's 40.86 % blind spot (§3.3).
    Tls13,
}

impl TlsVersion {
    /// Zeek's `version` string.
    pub fn zeek_name(self) -> &'static str {
        match self {
            TlsVersion::Tls10 => "TLSv10",
            TlsVersion::Tls11 => "TLSv11",
            TlsVersion::Tls12 => "TLSv12",
            TlsVersion::Tls13 => "TLSv13",
        }
    }

    /// Parse Zeek's `version` string.
    pub fn from_zeek_name(s: &str) -> Option<TlsVersion> {
        match s {
            "TLSv10" => Some(TlsVersion::Tls10),
            "TLSv11" => Some(TlsVersion::Tls11),
            "TLSv12" => Some(TlsVersion::Tls12),
            "TLSv13" => Some(TlsVersion::Tls13),
            _ => None,
        }
    }

    /// Whether certificates are visible to a passive monitor.
    pub fn certs_visible(self) -> bool {
        !matches!(self, TlsVersion::Tls13)
    }
}

impl std::fmt::Display for TlsVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.zeek_name())
    }
}

/// One `ssl.log` record: a TLS connection observed at the border.
#[derive(Debug, Clone, PartialEq)]
pub struct SslRecord {
    /// Connection start, Unix seconds.
    pub ts: f64,
    /// Zeek connection UID.
    pub uid: String,
    /// Originator (client) endpoint.
    pub orig_h: Ipv4,
    pub orig_p: u16,
    /// Responder (server) endpoint.
    pub resp_h: Ipv4,
    pub resp_p: u16,
    /// Negotiated version.
    pub version: TlsVersion,
    /// SNI from the ClientHello, if present.
    pub server_name: Option<String>,
    /// Whether the handshake completed.
    pub established: bool,
    /// Server certificate chain fingerprints (leaf first); empty under
    /// TLS 1.3 or when no certificate was sent.
    pub cert_chain_fps: Vec<Fp>,
    /// Client certificate chain fingerprints (leaf first); non-empty means
    /// the connection used mutual TLS.
    pub client_cert_chain_fps: Vec<Fp>,
}

impl SslRecord {
    /// The paper's mutual-TLS predicate: both chains present (§3.2.1).
    pub fn is_mutual_tls(&self) -> bool {
        !self.cert_chain_fps.is_empty() && !self.client_cert_chain_fps.is_empty()
    }

    /// A client chain with no server chain (the paper attributes these to
    /// university tunneling services; they are *not* counted as mTLS).
    pub fn is_client_only(&self) -> bool {
        self.cert_chain_fps.is_empty() && !self.client_cert_chain_fps.is_empty()
    }
}

/// One `x509.log` record: a certificate observed in some TLS handshake.
/// The default is an empty row, the starting point of a record that
/// [`crate::X509Rows::next_into`] refills row after row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct X509Record {
    /// First-seen timestamp, Unix seconds.
    pub ts: f64,
    /// SHA-256 fingerprint — the join key from `ssl.log`.
    pub fingerprint: Fp,
    /// Certificate version (1 or 3).
    pub version: u8,
    /// Serial number, uppercase hex as Zeek prints it.
    pub serial: String,
    /// Subject DN display string.
    pub subject: String,
    /// Issuer DN display string.
    pub issuer: String,
    /// Issuer organization (`O=`), if present — the categorization input.
    pub issuer_org: Option<String>,
    /// Subject CN, if present.
    pub subject_cn: Option<String>,
    /// notBefore / notAfter, Unix seconds (notBefore may exceed notAfter in
    /// the misconfigured population the paper studies).
    pub not_valid_before: i64,
    pub not_valid_after: i64,
    /// Key algorithm ("rsa" / "ecdsa") and length in bits. The parser
    /// borrows a static string for the names it knows and owns any other.
    pub key_alg: Cow<'static, str>,
    pub key_length: u16,
    /// Declared signature algorithm name (static when the parser knows
    /// it, owned otherwise).
    pub sig_alg: Cow<'static, str>,
    /// SAN dNSName entries.
    pub san_dns: Vec<String>,
    /// SAN rfc822Name entries.
    pub san_email: Vec<String>,
    /// SAN URI entries.
    pub san_uri: Vec<String>,
    /// SAN iPAddress entries (dotted-quad / colon-hex text).
    pub san_ip: Vec<String>,
    /// Whether BasicConstraints marks this certificate as a CA.
    pub basic_constraints_ca: bool,
}

impl X509Record {
    /// Validity period in whole days (negative when dates are inverted).
    pub fn validity_days(&self) -> i64 {
        (self.not_valid_after - self.not_valid_before) / 86_400
    }

    /// The paper's §5.3.1 misconfiguration predicate (`notBefore` does not
    /// precede `notAfter`; equality counts — Fig. 3's one identical pair).
    pub fn has_incorrect_dates(&self) -> bool {
        self.not_valid_before >= self.not_valid_after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssl(server_fps: &[&str], client_fps: &[&str]) -> SslRecord {
        let fps = |names: &[&str]| names.iter().map(|n| Fp::of(n.as_bytes())).collect();
        SslRecord {
            ts: 1.5e9,
            uid: "CUid1".into(),
            orig_h: Ipv4::new(10, 1, 2, 3),
            orig_p: 55000,
            resp_h: Ipv4::new(93, 184, 216, 34),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: Some("example.org".into()),
            established: true,
            cert_chain_fps: fps(server_fps),
            client_cert_chain_fps: fps(client_fps),
        }
    }

    #[test]
    fn mutual_tls_predicate() {
        assert!(ssl(&["s"], &["c"]).is_mutual_tls());
        assert!(!ssl(&["s"], &[]).is_mutual_tls());
        assert!(!ssl(&[], &["c"]).is_mutual_tls());
        assert!(ssl(&[], &["c"]).is_client_only());
        assert!(!ssl(&["s"], &["c"]).is_client_only());
    }

    #[test]
    fn version_names_round_trip() {
        for v in [
            TlsVersion::Tls10,
            TlsVersion::Tls11,
            TlsVersion::Tls12,
            TlsVersion::Tls13,
        ] {
            assert_eq!(TlsVersion::from_zeek_name(v.zeek_name()), Some(v));
        }
        assert_eq!(TlsVersion::from_zeek_name("SSLv3"), None);
    }

    #[test]
    fn tls13_hides_certs() {
        assert!(!TlsVersion::Tls13.certs_visible());
        assert!(TlsVersion::Tls12.certs_visible());
    }

    #[test]
    fn x509_date_predicates() {
        let mut rec = X509Record {
            ts: 0.0,
            fingerprint: Fp::of(b"ab"),
            version: 3,
            serial: "00".into(),
            subject: "CN=x".into(),
            issuer: "O=y".into(),
            issuer_org: Some("y".into()),
            subject_cn: Some("x".into()),
            not_valid_before: 0,
            not_valid_after: 86_400 * 14,
            key_alg: "rsa".into(),
            key_length: 2048,
            sig_alg: "sha256WithRSAEncryption".into(),
            san_dns: vec![],
            san_email: vec![],
            san_uri: vec![],
            san_ip: vec![],
            basic_constraints_ca: false,
        };
        assert_eq!(rec.validity_days(), 14);
        assert!(!rec.has_incorrect_dates());
        rec.not_valid_before = rec.not_valid_after + 1;
        assert!(rec.has_incorrect_dates());
    }
}
