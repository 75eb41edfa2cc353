//! The certificate itself: TBS structure, signing envelope, DER round-trip,
//! fingerprints, and the predicates the measurement pipeline relies on.

use crate::ext::{parse_san_extension, Extension};
use crate::name::DistinguishedName;
use crate::san::GeneralName;
use crate::spki::PublicKeyInfo;
use crate::{oids, Error, Result};
use mtls_asn1::{Asn1Time, DerReader, DerWriter, Oid, Tag};
use mtls_crypto::{sha256, KeyRegistry, Signature};

/// X.509 version. v2 never occurs in the reproduced dataset and is folded
/// into v3 handling on parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Version 1 — no extensions. The paper flags v1 certificates behind
    /// dummy issuers as a security concern (§5.1.1).
    V1,
    /// Version 3 — may carry extensions.
    V3,
}

/// A certificate serial number: unsigned big-endian magnitude bytes exactly
/// as issued (so the dummy values `00`, `01`, `024680`, `03E8` from §5.1.2
/// are representable and compare the way the paper counts collisions).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SerialNumber(Vec<u8>);

impl SerialNumber {
    /// From magnitude bytes. Leading zero octets are stripped (DER
    /// canonical form) so values compare the way they appear on the wire;
    /// zero itself is kept as a single `00` octet.
    pub fn new(bytes: &[u8]) -> SerialNumber {
        let start = bytes.iter().take_while(|&&b| b == 0).count();
        if start == bytes.len() {
            SerialNumber(vec![0])
        } else {
            SerialNumber(bytes[start..].to_vec())
        }
    }

    /// From an even-length uppercase/lowercase hex string.
    pub fn from_hex(s: &str) -> Option<SerialNumber> {
        mtls_crypto::hex::decode(s).map(SerialNumber)
    }

    /// Magnitude bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Zeek-style uppercase hex (e.g. `00`, `03E8`, `024680`).
    pub fn to_hex(&self) -> String {
        if self.0.is_empty() {
            "00".to_string()
        } else {
            mtls_crypto::hex::encode_upper(&self.0)
        }
    }
}

/// The declared signature algorithm. The actual tag is simsig (see
/// `mtls-crypto`); the declared algorithm is carried so algorithm-strength
/// analysis matches real-world data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignatureAlgorithm {
    Sha256WithRsa,
    Sha1WithRsa,
    EcdsaWithSha256,
    Md5WithRsa,
}

impl SignatureAlgorithm {
    /// The OID for this algorithm.
    pub fn oid(self) -> &'static Oid {
        match self {
            SignatureAlgorithm::Sha256WithRsa => oids::sha256_with_rsa(),
            SignatureAlgorithm::Sha1WithRsa => oids::sha1_with_rsa(),
            SignatureAlgorithm::EcdsaWithSha256 => oids::ecdsa_with_sha256(),
            SignatureAlgorithm::Md5WithRsa => oids::md5_with_rsa(),
        }
    }

    /// Reverse mapping; `None` for unknown OIDs.
    pub fn from_oid(oid: &Oid) -> Option<SignatureAlgorithm> {
        if oid == oids::sha256_with_rsa() {
            Some(SignatureAlgorithm::Sha256WithRsa)
        } else if oid == oids::sha1_with_rsa() {
            Some(SignatureAlgorithm::Sha1WithRsa)
        } else if oid == oids::ecdsa_with_sha256() {
            Some(SignatureAlgorithm::EcdsaWithSha256)
        } else if oid == oids::md5_with_rsa() {
            Some(SignatureAlgorithm::Md5WithRsa)
        } else {
            None
        }
    }

    /// Whether the hash is broken/deprecated (SHA-1, MD5).
    pub fn is_deprecated(self) -> bool {
        matches!(
            self,
            SignatureAlgorithm::Sha1WithRsa | SignatureAlgorithm::Md5WithRsa
        )
    }

    fn encode(self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.oid(self.oid());
            w.null();
        });
    }

    fn decode(r: &mut DerReader<'_>) -> Result<SignatureAlgorithm> {
        let mut seq = r.read_sequence()?;
        let oid = seq.read_oid()?;
        if !seq.is_empty() {
            seq.read_null()?;
        }
        SignatureAlgorithm::from_oid(&oid).ok_or(Error::Der(mtls_asn1::Error::BadOid))
    }
}

/// SHA-256 over the full certificate DER — the dedup key used throughout the
/// pipeline (Zeek's `x509.fingerprint` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u8; 32]);

impl Fingerprint {
    /// The fingerprint as Zeek logs it: 64 lowercase hex digits.
    pub fn to_fp(self) -> mtls_crypto::Fp {
        mtls_crypto::Fp::from_digest(&self.0)
    }
}

/// A parsed (or freshly built) X.509 certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    pub(crate) version: Version,
    pub(crate) serial: SerialNumber,
    pub(crate) signature_algorithm: SignatureAlgorithm,
    pub(crate) issuer: DistinguishedName,
    pub(crate) not_before: Asn1Time,
    pub(crate) not_after: Asn1Time,
    pub(crate) subject: DistinguishedName,
    pub(crate) public_key: PublicKeyInfo,
    pub(crate) extensions: Vec<Extension>,
    pub(crate) signature: Signature,
    /// Cached DER of the whole certificate (source of fingerprints).
    pub(crate) der: Vec<u8>,
    /// Cached DER of the TBS portion (what the signature covers).
    pub(crate) tbs_der: Vec<u8>,
}

impl Certificate {
    // --- accessors -------------------------------------------------------

    pub fn version(&self) -> Version {
        self.version
    }

    pub fn serial(&self) -> &SerialNumber {
        &self.serial
    }

    pub fn signature_algorithm(&self) -> SignatureAlgorithm {
        self.signature_algorithm
    }

    pub fn issuer(&self) -> &DistinguishedName {
        &self.issuer
    }

    pub fn subject(&self) -> &DistinguishedName {
        &self.subject
    }

    pub fn not_before(&self) -> Asn1Time {
        self.not_before
    }

    pub fn not_after(&self) -> Asn1Time {
        self.not_after
    }

    pub fn public_key(&self) -> &PublicKeyInfo {
        &self.public_key
    }

    pub fn extensions(&self) -> &[Extension] {
        &self.extensions
    }

    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The full certificate DER.
    pub fn to_der(&self) -> Vec<u8> {
        self.der.clone()
    }

    /// The DER bytes the signature covers.
    pub fn tbs_der(&self) -> &[u8] {
        &self.tbs_der
    }

    /// SHA-256 fingerprint of the certificate DER.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint(sha256(&self.der))
    }

    // --- derived queries ---------------------------------------------------

    /// The SubjectAltName entries, if the extension is present and parses.
    pub fn subject_alt_names(&self) -> Vec<GeneralName> {
        self.extensions
            .iter()
            .find(|e| &e.oid == oids::subject_alt_name())
            .and_then(|e| parse_san_extension(&e.value).ok())
            .unwrap_or_default()
    }

    /// SAN dNSName strings only (the type the paper's Table 8 focuses on).
    pub fn san_dns(&self) -> Vec<String> {
        self.subject_alt_names()
            .into_iter()
            .filter_map(|n| n.as_dns().map(str::to_owned))
            .collect()
    }

    /// The SubjectKeyIdentifier bytes, if the extension is present.
    pub fn subject_key_identifier(&self) -> Option<Vec<u8>> {
        self.extensions
            .iter()
            .find(|e| &e.oid == oids::subject_key_identifier())
            .and_then(|e| crate::ext::parse_ski_extension(&e.value).ok())
    }

    /// The AuthorityKeyIdentifier bytes, if present (keyIdentifier form).
    pub fn authority_key_identifier(&self) -> Option<Vec<u8>> {
        self.extensions
            .iter()
            .find(|e| &e.oid == oids::authority_key_identifier())
            .and_then(|e| crate::ext::parse_aki_extension(&e.value).ok())
            .flatten()
    }

    /// Whether the BasicConstraints extension marks this as a CA.
    pub fn is_ca(&self) -> bool {
        self.extensions
            .iter()
            .find(|e| &e.oid == oids::basic_constraints())
            .and_then(|e| crate::ext::BasicConstraints::from_value(&e.value).ok())
            .map(|bc| bc.ca)
            .unwrap_or(false)
    }

    /// Issuer DN == subject DN (textual self-signedness; the private-CA
    /// world the paper measures is full of these).
    pub fn is_self_issued(&self) -> bool {
        self.issuer == self.subject
    }

    /// `notBefore` does not precede `notAfter` — the misconfiguration class
    /// of the paper's §5.3.1 / Figure 3 (which includes one certificate
    /// whose two timestamps are identical, so equality counts).
    pub fn has_incorrect_dates(&self) -> bool {
        self.not_before >= self.not_after
    }

    /// Validity period in whole days (negative for incorrect dates).
    pub fn validity_days(&self) -> i64 {
        self.not_before.days_until(self.not_after)
    }

    /// Whether the certificate is expired at `at`.
    pub fn is_expired_at(&self, at: Asn1Time) -> bool {
        at > self.not_after
    }

    /// Whether `at` falls in the validity window (inclusive).
    pub fn is_valid_at(&self, at: Asn1Time) -> bool {
        at >= self.not_before && at <= self.not_after
    }

    /// Verify the simsig tag over the TBS bytes against the registry entry
    /// for `signer_key`. See `mtls-crypto::simsig` for the trust model.
    pub fn verify_signature(&self, registry: &KeyRegistry, signer_key: mtls_crypto::KeyId) -> bool {
        registry.verify(signer_key, &self.tbs_der, &self.signature)
    }

    // --- DER ---------------------------------------------------------------

    /// Assemble and sign; used by the builder. `signer` signs the TBS bytes.
    #[allow(clippy::too_many_arguments)] // mirrors the TBSCertificate fields
    pub(crate) fn assemble(
        version: Version,
        serial: SerialNumber,
        signature_algorithm: SignatureAlgorithm,
        issuer: DistinguishedName,
        not_before: Asn1Time,
        not_after: Asn1Time,
        subject: DistinguishedName,
        public_key: PublicKeyInfo,
        extensions: Vec<Extension>,
        signer: &mtls_crypto::Keypair,
    ) -> Certificate {
        let mut tbs = DerWriter::with_capacity(512);
        tbs.sequence(|w| {
            if version == Version::V3 {
                w.explicit(0, |w| w.integer_i64(2));
            }
            w.integer_bytes(serial.as_bytes());
            signature_algorithm.encode(w);
            issuer.encode(w);
            w.sequence(|w| {
                w.time(not_before);
                w.time(not_after);
            });
            subject.encode(w);
            public_key.encode(w);
            if version == Version::V3 && !extensions.is_empty() {
                w.explicit(3, |w| {
                    w.sequence(|w| {
                        for ext in &extensions {
                            ext.encode(w);
                        }
                    });
                });
            }
        });
        let tbs_der = tbs.finish();
        let signature = signer.sign(&tbs_der);

        let mut outer = DerWriter::with_capacity(tbs_der.len() + 96);
        outer.sequence(|w| {
            w.raw(&tbs_der);
            signature_algorithm.encode(w);
            w.bit_string(signature.as_bytes());
        });
        let der = outer.finish();

        Certificate {
            version,
            serial,
            signature_algorithm,
            issuer,
            not_before,
            not_after,
            subject,
            public_key,
            extensions,
            signature,
            der,
            tbs_der,
        }
    }

    /// Parse a certificate from DER.
    pub fn from_der(der: &[u8]) -> Result<Certificate> {
        let mut top = DerReader::new(der);
        let mut cert_seq = top.read_sequence()?;
        top.expect_end()?;

        let tbs_der = cert_seq.read_raw_tlv()?.to_vec();
        let mut tbs_outer = DerReader::new(&tbs_der);
        let mut tbs = tbs_outer.read_sequence()?;

        let version = match tbs.read_optional_explicit(0)? {
            Some(mut v) => match v.read_integer_i64()? {
                0 => Version::V1,
                1 | 2 => Version::V3,
                other => return Err(Error::BadVersion(other)),
            },
            None => Version::V1,
        };
        let serial = SerialNumber(tbs.read_integer_unsigned()?.to_vec());
        let signature_algorithm = SignatureAlgorithm::decode(&mut tbs)?;
        let issuer = DistinguishedName::decode(&mut tbs)?;
        let mut validity = tbs.read_sequence()?;
        let not_before = validity.read_time()?;
        let not_after = validity.read_time()?;
        validity.expect_end()?;
        let subject = DistinguishedName::decode(&mut tbs)?;
        let public_key = PublicKeyInfo::decode(&mut tbs)?;

        let mut extensions = Vec::new();
        if tbs.peek_tag() == Some(Tag::context_constructed(3)) {
            let mut wrapper = tbs.read_explicit(3)?;
            let mut ext_seq = wrapper.read_sequence()?;
            while !ext_seq.is_empty() {
                extensions.push(Extension::decode(&mut ext_seq)?);
            }
            wrapper.expect_end()?;
        }
        tbs.expect_end()?;

        let outer_alg = SignatureAlgorithm::decode(&mut cert_seq)?;
        let sig_bits = cert_seq.read_bit_string()?;
        cert_seq.expect_end()?;
        let signature = Signature::from_bytes(sig_bits).ok_or(Error::BadSignature)?;

        // RFC 5280 requires the inner and outer algorithm to agree; real
        // parsers reject mismatches and so do we.
        if outer_alg != signature_algorithm {
            return Err(Error::Der(mtls_asn1::Error::UnexpectedTag {
                expected: 0x30,
                got: 0x30,
            }));
        }

        Ok(Certificate {
            version,
            serial,
            signature_algorithm,
            issuer,
            not_before,
            not_after,
            subject,
            public_key,
            extensions,
            signature,
            der: der.to_vec(),
            tbs_der,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use mtls_crypto::Keypair;

    fn simple_cert() -> Certificate {
        let ca = Keypair::from_seed(b"ca");
        let leaf = Keypair::from_seed(b"leaf");
        CertificateBuilder::new()
            .serial(&[0x0A, 0x0B])
            .issuer(DistinguishedName::builder().organization("Test CA").build())
            .subject(
                DistinguishedName::builder()
                    .common_name("unit.example")
                    .build(),
            )
            .validity(
                Asn1Time::from_ymd(2023, 1, 1),
                Asn1Time::from_ymd(2024, 1, 1),
            )
            .san(vec![GeneralName::Dns("unit.example".into())])
            .subject_key(leaf.key_id())
            .sign(&ca)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let cert = simple_cert();
        let parsed = Certificate::from_der(&cert.to_der()).unwrap();
        assert_eq!(parsed, cert);
        assert_eq!(parsed.fingerprint(), cert.fingerprint());
    }

    #[test]
    fn signature_verifies_and_tamper_fails() {
        let ca = Keypair::from_seed(b"ca");
        let cert = simple_cert();
        let mut reg = KeyRegistry::new();
        reg.register(ca.clone());
        assert!(cert.verify_signature(&reg, ca.key_id()));

        // Flip a byte inside the TBS region and re-parse: tag must fail.
        let mut der = cert.to_der();
        // locate some byte well inside TBS (header is 4-8 bytes).
        der[20] ^= 0xFF;
        if let Ok(tampered) = Certificate::from_der(&der) {
            assert!(!tampered.verify_signature(&reg, ca.key_id()));
        }
    }

    #[test]
    fn v1_certificate_round_trips_without_extensions() {
        let ca = Keypair::from_seed(b"v1ca");
        let leaf = Keypair::from_seed(b"v1leaf");
        let cert = CertificateBuilder::new()
            .version(Version::V1)
            .serial(&[0x01])
            .issuer(
                DistinguishedName::builder()
                    .organization("Internet Widgits Pty Ltd")
                    .build(),
            )
            .subject(DistinguishedName::builder().common_name("old").build())
            .validity(
                Asn1Time::from_ymd(2020, 1, 1),
                Asn1Time::from_ymd(2030, 1, 1),
            )
            .subject_key(leaf.key_id())
            .sign(&ca);
        let parsed = Certificate::from_der(&cert.to_der()).unwrap();
        assert_eq!(parsed.version(), Version::V1);
        assert!(parsed.extensions().is_empty());
    }

    #[test]
    fn incorrect_dates_are_representable() {
        let ca = Keypair::from_seed(b"idrive");
        let leaf = Keypair::from_seed(b"idrive-leaf");
        // IDrive: notBefore 2019, notAfter 1849 (Table 12).
        let cert = CertificateBuilder::new()
            .serial(&[0x77])
            .issuer(
                DistinguishedName::builder()
                    .organization("IDrive Inc Certificate Authority")
                    .build(),
            )
            .subject(
                DistinguishedName::builder()
                    .common_name("backup-client")
                    .build(),
            )
            .validity(
                Asn1Time::from_ymd(2019, 8, 2),
                Asn1Time::from_ymd(1849, 10, 24),
            )
            .subject_key(leaf.key_id())
            .sign(&ca);
        let parsed = Certificate::from_der(&cert.to_der()).unwrap();
        assert!(parsed.has_incorrect_dates());
        assert!(parsed.validity_days() < 0);
        assert_eq!(parsed.not_after().year(), 1849);
    }

    #[test]
    fn serial_hex_forms() {
        assert_eq!(SerialNumber::new(&[0x00]).to_hex(), "00");
        assert_eq!(SerialNumber::new(&[0x03, 0xE8]).to_hex(), "03E8");
        assert_eq!(SerialNumber::new(&[0x02, 0x46, 0x80]).to_hex(), "024680");
        assert_eq!(
            SerialNumber::from_hex("024680").unwrap(),
            SerialNumber::new(&[0x02, 0x46, 0x80])
        );
        assert!(SerialNumber::from_hex("0x!").is_none());
    }

    #[test]
    fn dummy_serial_00_round_trips() {
        // DER encodes 0 as a single zero byte; ensure the parse maps back
        // to the canonical "00" hex the collision analysis groups by.
        let ca = Keypair::from_seed(b"globus");
        let leaf = Keypair::from_seed(b"globus-leaf");
        let cert = CertificateBuilder::new()
            .serial(&[0x00])
            .issuer(
                DistinguishedName::builder()
                    .organization("Globus Online")
                    .common_name("FXP DCAU Cert")
                    .build(),
            )
            .subject(DistinguishedName::builder().common_name("transfer").build())
            .validity(
                Asn1Time::from_ymd(2023, 1, 1),
                Asn1Time::from_ymd(2023, 1, 15),
            )
            .subject_key(leaf.key_id())
            .sign(&ca);
        let parsed = Certificate::from_der(&cert.to_der()).unwrap();
        assert_eq!(parsed.serial().to_hex(), "00");
    }

    #[test]
    fn expiry_predicates() {
        let cert = simple_cert();
        assert!(cert.is_valid_at(Asn1Time::from_ymd(2023, 6, 1)));
        assert!(cert.is_expired_at(Asn1Time::from_ymd(2024, 6, 1)));
        assert!(!cert.is_valid_at(Asn1Time::from_ymd(2022, 6, 1)));
        assert!(!cert.is_expired_at(Asn1Time::from_ymd(2023, 6, 1)));
    }

    #[test]
    fn deprecated_algorithms_flagged() {
        assert!(SignatureAlgorithm::Sha1WithRsa.is_deprecated());
        assert!(SignatureAlgorithm::Md5WithRsa.is_deprecated());
        assert!(!SignatureAlgorithm::Sha256WithRsa.is_deprecated());
    }

    #[test]
    fn garbage_rejected() {
        assert!(Certificate::from_der(&[0x30, 0x03, 1, 2, 3]).is_err());
        assert!(Certificate::from_der(&[]).is_err());
    }
}
