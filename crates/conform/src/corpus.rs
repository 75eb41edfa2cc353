//! Golden seed corpus for the mutation campaign.
//!
//! Seeds are minted through the same `netsim::certgen` / `mtls-pki` paths
//! the simulator uses, so every structural variant the pipeline can meet
//! (v1 certs, empty issuers, generalized-time validity, CRLs with and
//! without entries, legacy string encodings) is represented. Everything is
//! derived from fixed seeds — the corpus is bit-identical across runs.

use mtls_asn1::{Asn1Time, DerWriter, Oid, Tag};
use mtls_netsim::certgen::{MintSpec, Serial, Usage};
use mtls_pki::crl::{CrlBuilder, RevocationReason};
use mtls_pki::CertificateAuthority;
use mtls_x509::{oids, DistinguishedName, KeyAlgorithm, SerialNumber, Version};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build the full golden corpus: `(name, der_bytes)` pairs.
pub fn golden_seeds() -> Vec<(&'static str, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(0x636f_6e66);
    let t0 = Asn1Time::from_ymd(2022, 6, 1);
    let ca = CertificateAuthority::new_root(
        b"conform-root",
        DistinguishedName::builder()
            .organization("Conformance Harness CA")
            .common_name("conform-root")
            .build(),
        t0,
    );
    let mut seeds: Vec<(&'static str, Vec<u8>)> = Vec::new();

    // A fully-featured v3 leaf: SAN, EKU, SKI/AKI, org + CN.
    let full = MintSpec::new(&ca, t0, t0.add_days(365))
        .cn("unit.conform.example")
        .org("Conformance Org")
        .san_dns(&["unit.conform.example", "alt.conform.example"])
        .usage(Usage::Both)
        .mint(&mut rng);
    seeds.push(("cert_v3_full", full.to_der().to_vec()));

    // Structural variants the paper's corpus contains.
    seeds.push((
        "cert_v1",
        MintSpec::new(&ca, t0, t0.add_days(365))
            .cn("legacy.example")
            .version(Version::V1)
            .mint(&mut rng)
            .to_der()
            .to_vec(),
    ));
    seeds.push((
        "cert_expired",
        MintSpec::new(&ca, t0.add_days(-700), t0.add_days(-300))
            .cn("expired.example")
            .usage(Usage::Server)
            .mint(&mut rng)
            .to_der()
            .to_vec(),
    ));
    seeds.push((
        "cert_serial_zero",
        MintSpec::new(&ca, t0, t0.add_days(14))
            .cn("dummy-serial.example")
            .serial(Serial::Fixed(vec![0x00]))
            .usage(Usage::Client)
            .mint(&mut rng)
            .to_der()
            .to_vec(),
    ));
    seeds.push((
        "cert_ecdsa",
        MintSpec::new(&ca, t0, t0.add_days(90))
            .cn("ec.example")
            .key(KeyAlgorithm::EcdsaP256)
            .mint(&mut rng)
            .to_der()
            .to_vec(),
    ));
    seeds.push((
        "cert_empty_issuer",
        MintSpec::new(&ca, t0, t0.add_days(90))
            .cn("missing-issuer.example")
            .issuer_override(DistinguishedName::empty())
            .mint(&mut rng)
            .to_der()
            .to_vec(),
    ));
    // Validity outside the UTCTime window on both ends (GeneralizedTime).
    seeds.push((
        "cert_generalized_time",
        MintSpec::new(
            &ca,
            Asn1Time::from_ymd(1948, 1, 1),
            Asn1Time::from_ymd(2157, 1, 1),
        )
        .cn("longlived.example")
        .mint(&mut rng)
        .to_der()
        .to_vec(),
    ));
    seeds.push(("cert_ca", ca.certificate().to_der().to_vec()));

    // CRLs: empty and populated.
    seeds.push((
        "crl_empty",
        CrlBuilder::new(t0, t0.add_days(7))
            .sign(&ca)
            .to_der()
            .to_vec(),
    ));
    seeds.push((
        "crl_entries",
        CrlBuilder::new(t0, t0.add_days(7))
            .revoke(
                SerialNumber::new(&[0x10]),
                t0,
                RevocationReason::KeyCompromise,
            )
            .revoke(
                SerialNumber::new(&[0xAB, 0xCD]),
                t0.add_days(1),
                RevocationReason::Superseded,
            )
            .sign(&ca)
            .to_der()
            .to_vec(),
    ));

    // CT gossip wire formats, minted from a small log so the mutation
    // engine corrupts genuine STHs and proofs, not hand-rolled bytes.
    {
        let mut log = mtls_pki::CtLog::with_key_seed(b"conform-ct-log");
        log.submit(&full);
        log.submit(ca.certificate());
        seeds.push(("ct_sth", log.sth(1_651_363_200).to_bytes()));
        seeds.push((
            "ct_inclusion_proof",
            log.prove_inclusion(0, log.len() as u64)
                .expect("inclusion proof")
                .to_bytes(),
        ));
        seeds.push((
            "ct_consistency_proof",
            log.prove_consistency(1, log.len() as u64)
                .expect("consistency proof")
                .to_bytes(),
        ));
    }

    // A DN carrying the legacy string encodings (T61 Latin-1, BMP
    // UTF-16BE) that only the lossy reader accepts.
    let mut w = DerWriter::new();
    w.sequence(|w| {
        w.set(|w| {
            w.sequence(|w| {
                w.oid(oids::common_name());
                w.tlv(Tag::T61_STRING, &[b'M', 0xFC, b'n', b'z']);
            });
        });
        w.set(|w| {
            w.sequence(|w| {
                w.oid(oids::organization());
                w.tlv(Tag::BMP_STRING, &[0x00, b'A', 0x30, 0x42]);
            });
        });
    });
    seeds.push(("dn_legacy_strings", w.finish()));

    // The full cert's extensions, both as whole envelopes and as bare
    // inner values (the `*_from_value` parse entry points).
    for ext in full.extensions() {
        let value_name = if &ext.oid == oids::basic_constraints() {
            "ext_value_basic_constraints"
        } else if &ext.oid == oids::key_usage() {
            "ext_value_key_usage"
        } else if &ext.oid == oids::ext_key_usage() {
            "ext_value_eku"
        } else if &ext.oid == oids::subject_alt_name() {
            "ext_value_san"
        } else if &ext.oid == oids::subject_key_identifier() {
            "ext_value_ski"
        } else if &ext.oid == oids::authority_key_identifier() {
            "ext_value_aki"
        } else {
            "ext_value_other"
        };
        seeds.push((value_name, ext.value.clone()));
        let mut w = DerWriter::new();
        ext.encode(&mut w);
        seeds.push(("ext_envelope", w.finish()));
    }

    // Primitive TLVs so the asn1-level entry points see accepting inputs.
    seeds.push(("prim_boolean", {
        let mut w = DerWriter::new();
        w.boolean(true);
        w.finish()
    }));
    seeds.push(("prim_integer", {
        let mut w = DerWriter::new();
        w.integer_i64(0x0123_4567_89AB);
        w.finish()
    }));
    seeds.push(("prim_integer_padded", {
        let mut w = DerWriter::new();
        w.integer_bytes(&[0x80, 0x00, 0x01]);
        w.finish()
    }));
    seeds.push(("prim_oid", {
        let mut w = DerWriter::new();
        w.oid(&Oid::new(&[1, 3, 6, 1, 4, 1, 311, 21, 7]));
        w.finish()
    }));
    seeds.push(("prim_null", {
        let mut w = DerWriter::new();
        w.null();
        w.finish()
    }));
    seeds.push(("prim_bit_string", {
        let mut w = DerWriter::new();
        w.bit_string(&[0xAA; 8]);
        w.finish()
    }));
    seeds.push(("prim_octet_string", {
        let mut w = DerWriter::new();
        w.octet_string(b"conformance");
        w.finish()
    }));
    seeds.push(("prim_enumerated", {
        let mut w = DerWriter::new();
        w.enumerated(4);
        w.finish()
    }));
    seeds.push(("prim_printable", {
        let mut w = DerWriter::new();
        w.printable_string("Conformance Lab");
        w.finish()
    }));
    seeds.push(("prim_utf8", {
        let mut w = DerWriter::new();
        w.utf8_string("smoke \u{2713}");
        w.finish()
    }));
    seeds.push(("prim_utc_time", {
        let mut w = DerWriter::new();
        w.tlv(Tag::UTC_TIME, b"230101120000Z");
        w.finish()
    }));
    seeds.push(("prim_generalized_time", {
        let mut w = DerWriter::new();
        w.tlv(Tag::GENERALIZED_TIME, b"21570101120000Z");
        w.finish()
    }));
    // Raw time contents (no TLV) for the *_content entry points.
    seeds.push(("time_content_utc", b"230101120000Z".to_vec()));
    seeds.push(("time_content_generalized", b"21570101120000Z".to_vec()));

    // Framed handshake bytes for the tlssim entry points: real record
    // streams the mutation engine can corrupt at every layer (record
    // header, fragmentation boundary, envelope, message body).
    {
        use mtls_tlssim::msgs::{
            encode_certificate_body, encode_certificate_request_body, handshake_envelope,
            ClientHello, ServerHello, HS_CERTIFICATE, HS_CERTIFICATE_REQUEST, HS_CLIENT_HELLO,
            HS_SERVER_HELLO, HS_SERVER_HELLO_DONE,
        };
        use mtls_tlssim::wire::{write_fragmented, ContentType};
        use mtls_tlssim::TlsVersion;

        let chain: Vec<Vec<u8>> = vec![full.to_der().to_vec(), ca.certificate().to_der().to_vec()];

        let ch = ClientHello {
            legacy_version: TlsVersion::Tls12,
            sni: Some("unit.conform.example".to_string()),
            supported_versions: Vec::new(),
        }
        .encode(&[0x42; 32]);
        seeds.push(("hs_client_hello_body", ch.clone()));

        let mut buf = Vec::with_capacity(1 << 12);
        write_fragmented(
            &mut buf,
            ContentType::Handshake,
            [3, 3],
            &handshake_envelope(HS_CLIENT_HELLO, &ch),
        );
        seeds.push(("hs_client_flight_records", buf));

        // The server flight: four messages in one fragmented record
        // stream, with a certificate chain spanning the 2^14 boundary
        // territory the record-layer bugfixes guard.
        let mut flight = handshake_envelope(
            HS_SERVER_HELLO,
            &ServerHello {
                version: TlsVersion::Tls12,
            }
            .encode(&[0x24; 32]),
        );
        flight.extend(handshake_envelope(
            HS_CERTIFICATE,
            &encode_certificate_body(&chain),
        ));
        flight.extend(handshake_envelope(
            HS_CERTIFICATE_REQUEST,
            &encode_certificate_request_body(),
        ));
        flight.extend(handshake_envelope(HS_SERVER_HELLO_DONE, &[]));
        let mut buf = Vec::with_capacity(flight.len() + 64);
        write_fragmented(&mut buf, ContentType::Handshake, [3, 3], &flight);
        seeds.push(("hs_server_flight_records", buf));

        seeds.push((
            "hs_server_hello_body",
            ServerHello {
                version: TlsVersion::Tls12,
            }
            .encode(&[0x24; 32]),
        ));
        seeds.push(("hs_certificate_body", encode_certificate_body(&chain)));
        seeds.push((
            "hs_certificate_envelope",
            handshake_envelope(HS_CERTIFICATE, &encode_certificate_body(&chain)),
        ));
    }

    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{run_case, Outcome};

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(golden_seeds(), golden_seeds());
    }

    #[test]
    fn corpus_covers_every_structural_family() {
        let seeds = golden_seeds();
        for name in [
            "cert_v3_full",
            "cert_v1",
            "cert_generalized_time",
            "cert_ca",
            "crl_empty",
            "crl_entries",
            "dn_legacy_strings",
            "ext_value_san",
            "ext_value_eku",
            "time_content_utc",
            "ct_sth",
            "ct_inclusion_proof",
            "ct_consistency_proof",
        ] {
            assert!(seeds.iter().any(|(n, _)| *n == name), "missing {name}");
        }
    }

    #[test]
    fn golden_seeds_trigger_no_oracle_bug() {
        for (name, bytes) in golden_seeds() {
            for (entry, outcome) in run_case(&bytes) {
                assert!(
                    !outcome.is_bug(),
                    "{entry} on golden seed {name}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn golden_certs_round_trip_identically() {
        let seeds = golden_seeds();
        for name in [
            "cert_v3_full",
            "cert_v1",
            "cert_ca",
            "cert_generalized_time",
        ] {
            let (_, bytes) = seeds.iter().find(|(n, _)| *n == name).unwrap();
            let cert_outcome = run_case(bytes)
                .into_iter()
                .find(|(e, _)| *e == "x509/certificate")
                .unwrap()
                .1;
            assert_eq!(cert_outcome, Outcome::Identical, "{name}");
        }
    }

    #[test]
    fn golden_ct_wire_seeds_round_trip_identically() {
        let seeds = golden_seeds();
        for (name, entry) in [
            ("ct_sth", "pki/sth"),
            ("ct_inclusion_proof", "pki/inclusion_proof"),
            ("ct_consistency_proof", "pki/consistency_proof"),
        ] {
            let (_, bytes) = seeds.iter().find(|(n, _)| *n == name).unwrap();
            let outcome = run_case(bytes)
                .into_iter()
                .find(|(e, _)| *e == entry)
                .unwrap()
                .1;
            assert_eq!(outcome, Outcome::Identical, "{name}");
        }
    }
}
