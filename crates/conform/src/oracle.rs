//! Differential oracles over every public parse entry point.
//!
//! Each [`EntryPoint`] feeds the input to one parser and classifies the
//! result as an [`Outcome`]. Three properties are checked on every call:
//!
//! 1. **No panic** — parsers must return `Err` on malformed input, never
//!    unwind. Every entry runs under `catch_unwind`.
//! 2. **Round-trip** — an accepted value re-encodes either to the exact
//!    input bytes ([`Outcome::Identical`]) or to a canonical form that
//!    parses back to an equal value ([`Outcome::Canonicalized`]). Entries
//!    over canonical-only DER types (booleans, integers, OIDs, raw TLV
//!    structure…) are held to the stricter byte-identity bar: accepting a
//!    non-canonical encoding there is itself a strictness bug.
//! 3. **Determinism** — every entry runs twice per input and both runs
//!    (including strict-vs-lenient pairs) must agree.
//!
//! Only [`Outcome::Panic`] and [`Outcome::Divergence`] are bugs; rejection
//! is the expected fate of most mutants.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mtls_asn1::{Asn1Time, DerReader, DerWriter, Oid};
use mtls_pki::crl::{CertificateRevocationList, RevokedEntry};
use mtls_x509::{
    BasicConstraints, Certificate, DistinguishedName, ExtendedKeyUsage, Extension, GeneralName,
    KeyUsage, PublicKeyInfo, SerialNumber, SignatureAlgorithm, Version,
};

/// What one entry point did with one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The parser returned `Err` — the normal fate of a mutant.
    Rejected,
    /// Parsed, and re-encoding reproduced the input byte for byte.
    Identical,
    /// Parsed; re-encoding produced different bytes that parse back to an
    /// equal value (the parser tolerates a non-canonical form).
    Canonicalized,
    /// The parser unwound. Always a bug.
    Panic(String),
    /// A differential property failed (round-trip value drift, parse
    /// nondeterminism, strict/lenient disagreement). Always a bug.
    Divergence(String),
}

impl Outcome {
    /// The outcome indicates a bug in the parser stack.
    pub fn is_bug(&self) -> bool {
        matches!(self, Outcome::Panic(_) | Outcome::Divergence(_))
    }

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Rejected => "rejected",
            Outcome::Identical => "identical",
            Outcome::Canonicalized => "canonicalized",
            Outcome::Panic(_) => "panic",
            Outcome::Divergence(_) => "divergence",
        }
    }
}

/// One named parse entry point.
pub struct EntryPoint {
    pub name: &'static str,
    pub run: fn(&[u8]) -> Outcome,
}

/// Every public parse entry point the harness exercises, spanning the
/// `mtls-asn1` primitives, the `mtls-x509` certificate model, and the
/// `mtls-pki` CRL parser.
pub const ENTRY_POINTS: &[EntryPoint] = &[
    EntryPoint {
        name: "asn1/tlv_walk",
        run: ep_tlv_walk,
    },
    EntryPoint {
        name: "asn1/boolean",
        run: ep_boolean,
    },
    EntryPoint {
        name: "asn1/integer_i64",
        run: ep_integer_i64,
    },
    EntryPoint {
        name: "asn1/integer_unsigned",
        run: ep_integer_unsigned,
    },
    EntryPoint {
        name: "asn1/bit_string",
        run: ep_bit_string,
    },
    EntryPoint {
        name: "asn1/octet_string",
        run: ep_octet_string,
    },
    EntryPoint {
        name: "asn1/null",
        run: ep_null,
    },
    EntryPoint {
        name: "asn1/oid",
        run: ep_oid,
    },
    EntryPoint {
        name: "asn1/oid_content",
        run: ep_oid_content,
    },
    EntryPoint {
        name: "asn1/enumerated",
        run: ep_enumerated,
    },
    EntryPoint {
        name: "asn1/string",
        run: ep_string,
    },
    EntryPoint {
        name: "asn1/string_lossy",
        run: ep_string_lossy,
    },
    EntryPoint {
        name: "asn1/strict_vs_lossy_string",
        run: ep_strict_vs_lossy,
    },
    EntryPoint {
        name: "asn1/time",
        run: ep_time,
    },
    EntryPoint {
        name: "asn1/utc_time_content",
        run: ep_utc_time_content,
    },
    EntryPoint {
        name: "asn1/generalized_time_content",
        run: ep_generalized_time_content,
    },
    EntryPoint {
        name: "x509/certificate",
        run: ep_certificate,
    },
    EntryPoint {
        name: "x509/distinguished_name",
        run: ep_distinguished_name,
    },
    EntryPoint {
        name: "x509/extension",
        run: ep_extension,
    },
    EntryPoint {
        name: "x509/basic_constraints",
        run: ep_basic_constraints,
    },
    EntryPoint {
        name: "x509/key_usage",
        run: ep_key_usage,
    },
    EntryPoint {
        name: "x509/extended_key_usage",
        run: ep_extended_key_usage,
    },
    EntryPoint {
        name: "x509/subject_alt_name",
        run: ep_subject_alt_name,
    },
    EntryPoint {
        name: "x509/general_name",
        run: ep_general_name,
    },
    EntryPoint {
        name: "x509/ski",
        run: ep_ski,
    },
    EntryPoint {
        name: "x509/aki",
        run: ep_aki,
    },
    EntryPoint {
        name: "x509/spki",
        run: ep_spki,
    },
    EntryPoint {
        name: "pki/crl",
        run: ep_crl,
    },
    EntryPoint {
        name: "pki/sth",
        run: ep_sth,
    },
    EntryPoint {
        name: "pki/inclusion_proof",
        run: ep_inclusion_proof,
    },
    EntryPoint {
        name: "pki/consistency_proof",
        run: ep_consistency_proof,
    },
    EntryPoint {
        name: "tlssim/record_stream",
        run: ep_record_stream,
    },
    EntryPoint {
        name: "tlssim/handshake_envelope",
        run: ep_handshake_envelope,
    },
    EntryPoint {
        name: "tlssim/client_hello",
        run: ep_client_hello,
    },
    EntryPoint {
        name: "tlssim/server_hello",
        run: ep_server_hello,
    },
    EntryPoint {
        name: "tlssim/certificate_body",
        run: ep_certificate_body,
    },
    EntryPoint {
        name: "tlssim/observe_rechunk",
        run: ep_observe_rechunk,
    },
];

/// Run every entry point on one input, each under panic protection and the
/// run-twice determinism check.
pub fn run_case(input: &[u8]) -> Vec<(&'static str, Outcome)> {
    ENTRY_POINTS
        .iter()
        .map(|ep| (ep.name, run_protected(ep.run, input)))
        .collect()
}

fn run_protected(f: fn(&[u8]) -> Outcome, input: &[u8]) -> Outcome {
    let first = catch_unwind(AssertUnwindSafe(|| f(input)));
    let second = catch_unwind(AssertUnwindSafe(|| f(input)));
    match (first, second) {
        (Ok(a), Ok(b)) if a == b => a,
        (Ok(a), Ok(b)) => Outcome::Divergence(format!(
            "nondeterministic outcome: {} then {}",
            a.label(),
            b.label()
        )),
        (Err(p), _) | (_, Err(p)) => Outcome::Panic(panic_text(p)),
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// The differential core.
// ---------------------------------------------------------------------------

/// Parse twice (value determinism), re-encode, re-parse (value round-trip).
fn differential<T, P, E>(input: &[u8], parse: P, encode: E) -> Outcome
where
    T: PartialEq,
    P: Fn(&[u8]) -> Option<T>,
    E: Fn(&T) -> Vec<u8>,
{
    let Some(v1) = parse(input) else {
        return Outcome::Rejected;
    };
    match parse(input) {
        Some(v) if v == v1 => {}
        _ => {
            return Outcome::Divergence(
                "parsing the same bytes twice gave different values".to_string(),
            )
        }
    }
    let reencoded = encode(&v1);
    match parse(&reencoded) {
        None => return Outcome::Divergence("re-encoded value failed to parse".to_string()),
        Some(v2) if v2 != v1 => {
            return Outcome::Divergence("value changed across re-encode/re-parse".to_string())
        }
        Some(_) => {}
    }
    if reencoded == input {
        Outcome::Identical
    } else {
        Outcome::Canonicalized
    }
}

/// [`differential`] for canonical-only types, where the strict reader must
/// reject every encoding other than the one the writer produces. A
/// `Canonicalized` verdict there means a non-canonical input slipped
/// through — a strictness bug, reported as divergence.
fn differential_exact<T, P, E>(input: &[u8], parse: P, encode: E) -> Outcome
where
    T: PartialEq,
    P: Fn(&[u8]) -> Option<T>,
    E: Fn(&T) -> Vec<u8>,
{
    match differential(input, parse, encode) {
        Outcome::Canonicalized => {
            Outcome::Divergence("strict reader accepted a non-canonical encoding".to_string())
        }
        other => other,
    }
}

// ---------------------------------------------------------------------------
// asn1 primitives.
// ---------------------------------------------------------------------------

/// Walk the whole input as a DER TLV tree and re-emit it. The strict
/// reader enforces minimal lengths, so anything it accepts must re-emit
/// byte-identically.
fn ep_tlv_walk(input: &[u8]) -> Outcome {
    fn walk(data: &[u8], depth: usize, out: &mut DerWriter) -> bool {
        if depth > 64 {
            return false;
        }
        let mut r = DerReader::new(data);
        while !r.is_empty() {
            let Ok((tag, content)) = r.read_any() else {
                return false;
            };
            if tag.is_constructed() {
                let mut inner = DerWriter::new();
                if !walk(content, depth + 1, &mut inner) {
                    return false;
                }
                out.tlv(tag, &inner.finish());
            } else {
                out.tlv(tag, content);
            }
        }
        true
    }
    if input.is_empty() {
        return Outcome::Rejected;
    }
    let mut w = DerWriter::new();
    if !walk(input, 0, &mut w) {
        return Outcome::Rejected;
    }
    if w.finish() == input {
        Outcome::Identical
    } else {
        Outcome::Divergence("strict TLV walk re-emitted different bytes".to_string())
    }
}

fn ep_boolean(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let v = r.read_boolean().ok()?;
            r.expect_end().ok()?;
            Some(v)
        },
        |v| {
            let mut w = DerWriter::new();
            w.boolean(*v);
            w.finish()
        },
    )
}

fn ep_integer_i64(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let v = r.read_integer_i64().ok()?;
            r.expect_end().ok()?;
            Some(v)
        },
        |v| {
            let mut w = DerWriter::new();
            w.integer_i64(*v);
            w.finish()
        },
    )
}

fn ep_integer_unsigned(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let v = r.read_integer_unsigned().ok()?.to_vec();
            r.expect_end().ok()?;
            Some(v)
        },
        |v| {
            let mut w = DerWriter::new();
            w.integer_bytes(v);
            w.finish()
        },
    )
}

fn ep_bit_string(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let v = r.read_bit_string().ok()?.to_vec();
            r.expect_end().ok()?;
            Some(v)
        },
        |v| {
            let mut w = DerWriter::new();
            w.bit_string(v);
            w.finish()
        },
    )
}

fn ep_octet_string(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let v = r.read_octet_string().ok()?.to_vec();
            r.expect_end().ok()?;
            Some(v)
        },
        |v| {
            let mut w = DerWriter::new();
            w.octet_string(v);
            w.finish()
        },
    )
}

fn ep_null(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| {
            let mut r = DerReader::new(b);
            r.read_null().ok()?;
            r.expect_end().ok()?;
            Some(())
        },
        |()| {
            let mut w = DerWriter::new();
            w.null();
            w.finish()
        },
    )
}

fn ep_oid(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let v = r.read_oid().ok()?;
            r.expect_end().ok()?;
            Some(v)
        },
        |v| {
            let mut w = DerWriter::new();
            w.oid(v);
            w.finish()
        },
    )
}

/// OID *content* octets (no tag/length): `Oid::from_der_content` is fully
/// strict — non-minimal base-128 arcs and arc overflow are rejected — so
/// accepted content must rebuild identically.
fn ep_oid_content(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| Oid::from_der_content(b).ok(),
        |v| v.to_der_content(),
    )
}

fn ep_enumerated(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let v = r.read_enumerated().ok()?;
            r.expect_end().ok()?;
            Some(v)
        },
        |v| {
            let mut w = DerWriter::new();
            w.enumerated(*v);
            w.finish()
        },
    )
}

/// Strict string reader (UTF8String / PrintableString / IA5String). The
/// re-encode is always UTF8String, so PrintableString and IA5String inputs
/// legitimately canonicalize.
fn ep_string(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let v = r.read_string().ok()?.to_string();
            r.expect_end().ok()?;
            Some(v)
        },
        |v| {
            let mut w = DerWriter::new();
            w.utf8_string(v);
            w.finish()
        },
    )
}

/// Lenient string reader (adds T61String as Latin-1 and BMPString as
/// UTF-16BE). Legacy encodings canonicalize to UTF8String.
fn ep_string_lossy(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let v = r.read_string_lossy().ok()?.into_owned();
            r.expect_end().ok()?;
            Some(v)
        },
        |v| {
            let mut w = DerWriter::new();
            w.utf8_string(v);
            w.finish()
        },
    )
}

/// Strict-vs-lenient agreement: on the tags both readers handle they must
/// produce the same text, and the strict reader must never accept what the
/// lenient one rejects.
fn ep_strict_vs_lossy(input: &[u8]) -> Outcome {
    let strict = {
        let mut r = DerReader::new(input);
        match r.read_string() {
            Ok(s) if r.expect_end().is_ok() => Some(s.to_string()),
            _ => None,
        }
    };
    let lossy = {
        let mut r = DerReader::new(input);
        match r.read_string_lossy() {
            Ok(s) if r.expect_end().is_ok() => Some(s.into_owned()),
            _ => None,
        }
    };
    match (strict, lossy) {
        (Some(a), Some(b)) if a == b => Outcome::Identical,
        (Some(_), Some(_)) => {
            Outcome::Divergence("strict and lossy string readers disagree on value".to_string())
        }
        (Some(_), None) => Outcome::Divergence(
            "strict reader accepts an input the lossy reader rejects".to_string(),
        ),
        // Lossy-only acceptance is the point of the lenient reader.
        (None, Some(_)) => Outcome::Canonicalized,
        (None, None) => Outcome::Rejected,
    }
}

/// `read_time` (UTCTime or GeneralizedTime TLV). The writer picks UTCTime
/// for 1950–2049, so a GeneralizedTime input in that range canonicalizes.
fn ep_time(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let v = r.read_time().ok()?;
            r.expect_end().ok()?;
            Some(v)
        },
        |v| {
            let mut w = DerWriter::new();
            w.time(*v);
            w.finish()
        },
    )
}

/// UTCTime content octets. Parsed values land in 1950–2049, where
/// `to_der_string` always picks the UTCTime form back.
fn ep_utc_time_content(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| Asn1Time::parse_utc_time(b).ok(),
        |v| v.to_der_string().0.into_bytes(),
    )
}

/// GeneralizedTime content octets, re-encoded through an explicit
/// 4-digit-year format (bypassing `to_der_string`'s UTCTime switch).
fn ep_generalized_time_content(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| Asn1Time::parse_generalized_time(b).ok(),
        |v| {
            let (y, mo, d, h, mi, s) = v.to_civil();
            format!("{y:04}{mo:02}{d:02}{h:02}{mi:02}{s:02}Z").into_bytes()
        },
    )
}

// ---------------------------------------------------------------------------
// x509.
// ---------------------------------------------------------------------------

/// A value projection of [`Certificate`] for round-trip equality.
/// `Certificate`'s own `PartialEq` covers the cached DER, which would make
/// every canonicalization look like a value change.
#[derive(PartialEq)]
struct CertProj {
    version: Version,
    serial: SerialNumber,
    algorithm: SignatureAlgorithm,
    issuer: DistinguishedName,
    not_before: Asn1Time,
    not_after: Asn1Time,
    subject: DistinguishedName,
    public_key: PublicKeyInfo,
    extensions: Vec<Extension>,
    signature: Vec<u8>,
}

fn cert_project(c: &Certificate) -> CertProj {
    CertProj {
        version: c.version(),
        serial: c.serial().clone(),
        algorithm: c.signature_algorithm(),
        issuer: c.issuer().clone(),
        not_before: c.not_before(),
        not_after: c.not_after(),
        subject: c.subject().clone(),
        public_key: *c.public_key(),
        extensions: c.extensions().to_vec(),
        signature: c.signature().as_bytes().to_vec(),
    }
}

/// Mirror of `Certificate::assemble`, with one deliberate difference: the
/// parser reads a `[3]` extensions block regardless of the version marker,
/// so the projection re-emits extensions whenever they are non-empty (a v1
/// certificate carrying extensions canonicalizes instead of diverging).
fn cert_encode(p: &CertProj) -> Vec<u8> {
    fn alg(w: &mut DerWriter, a: SignatureAlgorithm) {
        w.sequence(|w| {
            w.oid(a.oid());
            w.null();
        });
    }
    let mut tbs = DerWriter::new();
    tbs.sequence(|w| {
        if p.version == Version::V3 {
            w.explicit(0, |w| w.integer_i64(2));
        }
        w.integer_bytes(p.serial.as_bytes());
        alg(w, p.algorithm);
        p.issuer.encode(w);
        w.sequence(|w| {
            w.time(p.not_before);
            w.time(p.not_after);
        });
        p.subject.encode(w);
        p.public_key.encode(w);
        if !p.extensions.is_empty() {
            w.explicit(3, |w| {
                w.sequence(|w| {
                    for ext in &p.extensions {
                        ext.encode(w);
                    }
                });
            });
        }
    });
    let tbs = tbs.finish();
    let mut w = DerWriter::new();
    w.sequence(|w| {
        w.raw(&tbs);
        alg(w, p.algorithm);
        w.bit_string(&p.signature);
    });
    w.finish()
}

fn ep_certificate(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| {
            let c = Certificate::from_der(b).ok()?;
            // Exercise every derived accessor for panic coverage; their
            // values are either covered by the projection or pure queries.
            let _ = c.fingerprint().to_fp();
            let _ = c.serial().to_hex();
            let _ = c.subject_alt_names();
            let _ = c.san_dns();
            let _ = c.subject_key_identifier();
            let _ = c.authority_key_identifier();
            let _ = c.is_ca();
            let _ = c.is_self_issued();
            let _ = c.has_incorrect_dates();
            let _ = c.validity_days();
            let _ = c.issuer().to_display_string();
            let _ = c.subject().to_display_string();
            Some(cert_project(&c))
        },
        cert_encode,
    )
}

fn ep_distinguished_name(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let dn = DistinguishedName::decode(&mut r).ok()?;
            r.expect_end().ok()?;
            let _ = dn.to_display_string();
            Some(dn)
        },
        |dn| {
            let mut w = DerWriter::new();
            dn.encode(&mut w);
            w.finish()
        },
    )
}

fn ep_extension(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let ext = Extension::decode(&mut r).ok()?;
            r.expect_end().ok()?;
            Some(ext)
        },
        |ext| {
            let mut w = DerWriter::new();
            ext.encode(&mut w);
            w.finish()
        },
    )
}

/// BasicConstraints inner value. `from_value` accepts `ca: false` with a
/// pathLenConstraint, which `to_extension` cannot express, so the harness
/// carries its own faithful encoder.
fn ep_basic_constraints(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| BasicConstraints::from_value(b).ok(),
        |bc| {
            let mut w = DerWriter::new();
            w.sequence(|w| {
                if bc.ca {
                    w.boolean(true);
                }
                if let Some(n) = bc.path_len {
                    w.integer_i64(i64::from(n));
                }
            });
            w.finish()
        },
    )
}

/// KeyUsage inner value. The model keeps two bits, so inputs with other
/// bits set canonicalize down to the modelled pair by design.
fn ep_key_usage(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| KeyUsage::from_value(b).ok(),
        |ku| {
            let mut bits: u8 = 0;
            if ku.digital_signature {
                bits |= 0b1000_0000;
            }
            if ku.key_encipherment {
                bits |= 0b0010_0000;
            }
            let mut w = DerWriter::new();
            w.bit_string(&[bits]);
            w.finish()
        },
    )
}

fn ep_extended_key_usage(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| ExtendedKeyUsage::from_value(b).ok(),
        |eku| eku.to_extension().value,
    )
}

fn ep_subject_alt_name(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| mtls_x509::san::decode_san(b).ok(),
        |names| mtls_x509::san::encode_san(names),
    )
}

fn ep_general_name(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let gn = GeneralName::decode(&mut r).ok()?;
            r.expect_end().ok()?;
            Some(gn)
        },
        |gn| {
            let mut w = DerWriter::new();
            gn.encode(&mut w);
            w.finish()
        },
    )
}

fn ep_ski(input: &[u8]) -> Outcome {
    differential_exact(
        input,
        |b| mtls_x509::ext::parse_ski_extension(b).ok(),
        |id| {
            let mut w = DerWriter::new();
            w.octet_string(id);
            w.finish()
        },
    )
}

/// AuthorityKeyIdentifier inner value. The parser ignores the optional
/// issuer/serial fields, so values carrying them canonicalize.
fn ep_aki(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| mtls_x509::ext::parse_aki_extension(b).ok(),
        |id| {
            let mut w = DerWriter::new();
            w.sequence(|w| {
                if let Some(id) = id {
                    w.context_primitive(0, id);
                }
            });
            w.finish()
        },
    )
}

fn ep_spki(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| {
            let mut r = DerReader::new(b);
            let info = PublicKeyInfo::decode(&mut r).ok()?;
            r.expect_end().ok()?;
            Some(info)
        },
        |info| {
            let mut w = DerWriter::new();
            info.encode(&mut w);
            w.finish()
        },
    )
}

// ---------------------------------------------------------------------------
// pki.
// ---------------------------------------------------------------------------

/// Value projection of a CRL: the parser discards the version marker, the
/// algorithm identifiers, and the signature, so the projection covers
/// exactly what it keeps.
#[derive(PartialEq)]
struct CrlProj {
    issuer: DistinguishedName,
    this_update: Asn1Time,
    next_update: Asn1Time,
    entries: Vec<RevokedEntry>,
}

/// Mirror of `CrlBuilder::sign`'s layout with a placeholder signature (the
/// parser has no signature accessor, so the projection cannot preserve it;
/// every accepted CRL therefore canonicalizes at worst).
fn crl_encode(p: &CrlProj) -> Vec<u8> {
    let sig_alg = Oid::new(&[1, 2, 840, 113549, 1, 1, 11]);
    let reason_code = Oid::new(&[2, 5, 29, 21]);
    let mut tbs = DerWriter::new();
    tbs.sequence(|w| {
        w.integer_i64(1);
        w.sequence(|w| {
            w.oid(&sig_alg);
            w.null();
        });
        p.issuer.encode(w);
        w.time(p.this_update);
        w.time(p.next_update);
        if !p.entries.is_empty() {
            w.sequence(|w| {
                for e in &p.entries {
                    w.sequence(|w| {
                        w.integer_bytes(e.serial.as_bytes());
                        w.time(e.revoked_at);
                        w.sequence(|w| {
                            w.sequence(|w| {
                                w.oid(&reason_code);
                                let mut inner = DerWriter::new();
                                inner.enumerated(e.reason.code());
                                w.octet_string(&inner.finish());
                            });
                        });
                    });
                }
            });
        }
    });
    let tbs = tbs.finish();
    let mut w = DerWriter::new();
    w.sequence(|w| {
        w.raw(&tbs);
        w.sequence(|w| {
            w.oid(&sig_alg);
            w.null();
        });
        w.bit_string(&[0u8; 32]);
    });
    w.finish()
}

fn ep_crl(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| {
            let crl = CertificateRevocationList::from_der(b).ok()?;
            let _ = crl.is_stale(crl.next_update());
            let _ = crl.is_revoked(&SerialNumber::new(&[1]));
            Some(CrlProj {
                issuer: crl.issuer().clone(),
                this_update: crl.this_update(),
                next_update: crl.next_update(),
                entries: crl.entries().to_vec(),
            })
        },
        crl_encode,
    )
}

/// CT signed tree head, a fixed-length strict wire format: every accepted
/// input must re-serialize byte-identically.
fn ep_sth(input: &[u8]) -> Outcome {
    differential_exact(input, mtls_pki::SignedTreeHead::from_bytes, |sth| {
        sth.to_bytes()
    })
}

/// CT inclusion proof (version || log id || sizes || path). The parser is
/// exact-length and bounds the path, so round-trips are byte-identical.
fn ep_inclusion_proof(input: &[u8]) -> Outcome {
    differential_exact(input, mtls_pki::InclusionProof::from_bytes, |p| {
        p.to_bytes()
    })
}

/// CT consistency proof, same strict framing as the inclusion proof.
fn ep_consistency_proof(input: &[u8]) -> Outcome {
    differential_exact(input, mtls_pki::ConsistencyProof::from_bytes, |p| {
        p.to_bytes()
    })
}

// ---------------------------------------------------------------------------
// tlssim: the streaming record layer and handshake message parsers.
// ---------------------------------------------------------------------------

/// Everything the streaming stack extracts from one byte stream: the
/// record sequence, the reassembled handshake messages, and the terminal
/// error state of each layer. Two chunkings of the same bytes must agree
/// on all of it.
#[derive(PartialEq, Debug)]
struct StreamTrace {
    records: Vec<(u8, Vec<u8>)>,
    messages: Vec<(u8, Vec<u8>)>,
    record_error: Option<mtls_tlssim::WireError>,
    message_error: Option<mtls_tlssim::WireError>,
}

fn stream_trace<'a>(chunks: impl Iterator<Item = &'a [u8]>) -> StreamTrace {
    use mtls_tlssim::stream::{Reassembler, HANDSHAKE, RECORD};
    let mut records = Reassembler::new(RECORD);
    let mut messages = Reassembler::new(HANDSHAKE);
    let mut trace = StreamTrace {
        records: Vec::new(),
        messages: Vec::new(),
        record_error: None,
        message_error: None,
    };
    for chunk in chunks {
        records.push(chunk);
        // Both reassemblers are dead-on-error: bytes pushed after death
        // never change what was already extracted.
        while let Ok(Some(record)) = records.next_item() {
            let payload = &record[RECORD.len..];
            trace.records.push((record[0], payload.to_vec()));
            if record[0] == mtls_tlssim::ContentType::Handshake.byte() {
                messages.push(payload);
                while let Ok(Some(msg)) = messages.next_item() {
                    let body = &msg[HANDSHAKE.len..];
                    trace.messages.push((msg[0], body.to_vec()));
                }
            }
        }
    }
    trace.record_error = records.error();
    trace.message_error = messages.error();
    trace
}

/// The streaming record reader + handshake reassembler, checked for
/// re-chunk equivalence: the extracted record/message sequences and the
/// terminal error state must be identical whether the bytes arrive whole,
/// one at a time, or in ragged 7-byte chunks. This is the oracle form of
/// the monitor's cross-record-reassembly bugfix.
fn ep_record_stream(input: &[u8]) -> Outcome {
    let whole = stream_trace(std::iter::once(input));
    let trickle = stream_trace(input.chunks(1));
    let ragged = stream_trace(input.chunks(7));
    if whole != trickle || whole != ragged {
        return Outcome::Divergence(
            "record stream extraction depends on chunk boundaries".to_string(),
        );
    }
    if whole.records.is_empty() {
        return Outcome::Rejected;
    }
    if whole.record_error.is_some() || whole.message_error.is_some() {
        // Records were extracted before the stream died: accepted prefix,
        // rejected remainder — report by the terminal state.
        return Outcome::Rejected;
    }
    Outcome::Identical
}

/// The `msg_type | u24 len | body` handshake envelope. The parser
/// tolerates trailing bytes after the body, so a re-encode can shrink the
/// input (canonicalize); accepted envelopes must round-trip by value.
fn ep_handshake_envelope(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| {
            let (t, body) = mtls_tlssim::msgs::parse_envelope(b).ok()?;
            Some((t, body.to_vec()))
        },
        |(t, body)| mtls_tlssim::msgs::handshake_envelope(*t, body),
    )
}

/// ClientHello body parser. The 32-byte random is not part of the parsed
/// value, so the re-encode pins it to zero and compares by value. The
/// legacy_version field saturates at TLS 1.2 on encode (RFC 8446 wire
/// rule), so the comparison projects the parsed value the same way: a
/// degenerate wire legacy of 1.3 canonicalizes instead of diverging.
fn ep_client_hello(input: &[u8]) -> Outcome {
    use mtls_zeek::TlsVersion;
    differential(
        input,
        |b| {
            let mut ch = mtls_tlssim::msgs::ClientHello::parse(b).ok()?;
            ch.legacy_version = ch.legacy_version.min(TlsVersion::Tls12);
            Some(ch)
        },
        |ch| ch.encode(&[0u8; 32]),
    )
}

/// ServerHello body parser, same value-projection as the ClientHello.
fn ep_server_hello(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| mtls_tlssim::msgs::ServerHello::parse(b).ok(),
        |sh| sh.encode(&[0u8; 32]),
    )
}

/// Certificate message body: `u24 total | (u24 len | DER)*`. The chain
/// blobs are opaque here — this exercises only the framing.
fn ep_certificate_body(input: &[u8]) -> Outcome {
    differential(
        input,
        |b| mtls_tlssim::msgs::parse_certificate_body(b).ok(),
        |chain| mtls_tlssim::msgs::encode_certificate_body(chain),
    )
}

/// Passive observation must not depend on how a capture was chunked into
/// transcript records: the same bytes as one client-direction record and
/// as a 3-byte-chunked record sequence must observe identically (or fail
/// identically).
fn ep_observe_rechunk(input: &[u8]) -> Outcome {
    use mtls_tlssim::{observe, Direction, TranscriptRecord};
    let whole = vec![TranscriptRecord {
        direction: Direction::ClientToServer,
        bytes: input.to_vec(),
    }];
    let chunked: Vec<TranscriptRecord> = input
        .chunks(3)
        .map(|c| TranscriptRecord {
            direction: Direction::ClientToServer,
            bytes: c.to_vec(),
        })
        .collect();
    match (observe(&whole), observe(&chunked)) {
        (Ok(a), Ok(b)) if a == b => Outcome::Identical,
        (Err(a), Err(b)) if a == b => Outcome::Rejected,
        _ => Outcome::Divergence("observation depends on transcript chunk boundaries".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtls_asn1::Tag;

    fn outcome_of(name: &str, input: &[u8]) -> Outcome {
        let ep = ENTRY_POINTS.iter().find(|e| e.name == name).unwrap();
        run_protected(ep.run, input)
    }

    #[test]
    fn entry_point_names_are_unique() {
        let mut names: Vec<_> = ENTRY_POINTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ENTRY_POINTS.len());
    }

    #[test]
    fn canonical_primitives_round_trip_identically() {
        let mut w = DerWriter::new();
        w.boolean(true);
        assert_eq!(outcome_of("asn1/boolean", &w.finish()), Outcome::Identical);

        let mut w = DerWriter::new();
        w.integer_i64(-123_456);
        assert_eq!(
            outcome_of("asn1/integer_i64", &w.finish()),
            Outcome::Identical
        );

        let mut w = DerWriter::new();
        w.oid(&Oid::new(&[1, 2, 840, 113549, 1, 1, 11]));
        let der = w.finish();
        assert_eq!(outcome_of("asn1/oid", &der), Outcome::Identical);
        assert_eq!(
            outcome_of("asn1/oid_content", &der[2..]),
            Outcome::Identical
        );
        assert_eq!(outcome_of("asn1/tlv_walk", &der), Outcome::Identical);
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for input in [
            &b""[..],
            &[0x30][..],
            &[0x02, 0x05, 0x01][..],
            &[0xFF; 40][..],
        ] {
            for ep in ENTRY_POINTS {
                let outcome = run_protected(ep.run, input);
                assert!(
                    !outcome.is_bug(),
                    "{} on {:02x?}: {:?}",
                    ep.name,
                    input,
                    outcome
                );
            }
        }
    }

    #[test]
    fn legacy_string_encodings_canonicalize() {
        // T61String "ü" (Latin-1 0xFC): strict rejects, lossy accepts.
        let input = [0x14, 0x01, 0xFC];
        assert_eq!(outcome_of("asn1/string", &input), Outcome::Rejected);
        assert_eq!(
            outcome_of("asn1/string_lossy", &input),
            Outcome::Canonicalized
        );
        assert_eq!(
            outcome_of("asn1/strict_vs_lossy_string", &input),
            Outcome::Canonicalized
        );
        // Plain UTF8String is identical under the lossy reader too.
        let mut w = DerWriter::new();
        w.utf8_string("plain");
        let der = w.finish();
        assert_eq!(outcome_of("asn1/string_lossy", &der), Outcome::Identical);
        assert_eq!(
            outcome_of("asn1/strict_vs_lossy_string", &der),
            Outcome::Identical
        );
    }

    #[test]
    fn generalized_time_in_utc_range_canonicalizes() {
        let mut w = DerWriter::new();
        w.tlv(Tag::GENERALIZED_TIME, b"20230101120000Z");
        assert_eq!(outcome_of("asn1/time", &w.finish()), Outcome::Canonicalized);
        assert_eq!(
            outcome_of("asn1/utc_time_content", b"230101120000Z"),
            Outcome::Identical
        );
        assert_eq!(
            outcome_of("asn1/generalized_time_content", b"21570101120000Z"),
            Outcome::Identical
        );
    }

    #[test]
    fn basic_constraints_non_ca_with_path_len_canonicalizes_not_diverges() {
        // ca absent (DEFAULT FALSE) + pathLenConstraint: `to_extension`
        // cannot express this, the harness encoder must.
        let mut w = DerWriter::new();
        w.sequence(|w| w.integer_i64(3));
        assert_eq!(
            outcome_of("x509/basic_constraints", &w.finish()),
            Outcome::Identical
        );
    }

    #[test]
    fn streaming_entry_points_accept_a_real_client_flight() {
        use mtls_tlssim::msgs::{handshake_envelope, ClientHello, HS_CLIENT_HELLO};
        use mtls_tlssim::wire::{version_bytes, write_fragmented, ContentType};
        use mtls_zeek::TlsVersion;

        let ch = ClientHello {
            legacy_version: TlsVersion::Tls12,
            sni: Some("oracle.conform.example".to_string()),
            supported_versions: vec![],
        };
        // The re-encode pins the random to zero, so a nonzero random
        // canonicalizes and a zero random round-trips byte-identically.
        assert_eq!(
            outcome_of("tlssim/client_hello", &ch.encode(&[0x11; 32])),
            Outcome::Canonicalized
        );
        let body = ch.encode(&[0u8; 32]);
        assert_eq!(outcome_of("tlssim/client_hello", &body), Outcome::Identical);

        let env = handshake_envelope(HS_CLIENT_HELLO, &body);
        assert_eq!(
            outcome_of("tlssim/handshake_envelope", &env),
            Outcome::Identical
        );

        let mut flight = Vec::with_capacity(env.len() + 16);
        write_fragmented(
            &mut flight,
            ContentType::Handshake,
            version_bytes(TlsVersion::Tls12),
            &env,
        );
        assert_eq!(
            outcome_of("tlssim/record_stream", &flight),
            Outcome::Identical
        );
    }

    #[test]
    fn streaming_entry_points_reject_garbage_without_diverging() {
        // Garbage never panics and never produces a chunk-dependent trace.
        for input in [&b""[..], &b"\x00"[..], &b"not a tls record at all"[..]] {
            for name in ["tlssim/record_stream", "tlssim/observe_rechunk"] {
                match outcome_of(name, input) {
                    Outcome::Rejected | Outcome::Identical => {}
                    other => panic!("{name} on garbage: {other:?}"),
                }
            }
        }
        assert_eq!(
            outcome_of("tlssim/certificate_body", b"\x00\x00\x00"),
            Outcome::Identical
        );
    }
}
