//! Checked-in regression fixtures for every bug class the conformance
//! harness surfaced, plus a bounded campaign smoke.
//!
//! Each fixture is the literal malformed input that used to trigger a
//! panic or a silent wrong value; the assertion pins the fixed behaviour
//! (clean rejection). If one of these starts parsing again, a strictness
//! fix has regressed.

use mtls_asn1::{Asn1Time, DerReader, DerWriter, Oid};
use mtls_conform::{run_campaign, run_case, run_tsv_campaign, Outcome};
use mtls_x509::{BasicConstraints, PublicKeyInfo};

/// Sign characters inside UTCTime content: `str::parse::<i64>` accepts a
/// leading `+`, so `+30101120000Z` used to parse as a valid year instead
/// of being rejected (time.rs now demands ASCII digits only).
#[test]
fn utc_time_with_sign_is_rejected() {
    for content in [&b"+30101120000Z"[..], b"23+101120000Z", b" 30101120000Z"] {
        assert!(Asn1Time::parse_utc_time(content).is_err(), "{content:?}");
        // And through the TLV reader.
        let mut w = DerWriter::new();
        w.tlv(mtls_asn1::Tag::UTC_TIME, content);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert!(r.read_time().is_err());
    }
}

/// Same family for GeneralizedTime (15-byte content).
#[test]
fn generalized_time_with_sign_is_rejected() {
    for content in [
        &b"+0230101120000Z"[..],
        b"2023+101120000Z",
        b"20230101120 00Z",
    ] {
        assert!(
            Asn1Time::parse_generalized_time(content).is_err(),
            "{content:?}"
        );
    }
}

/// `Oid::new` used to panic on invalid arc structure; `Oid::try_new`
/// returns the error instead and `new` delegates to it.
#[test]
fn invalid_oid_arcs_are_errors_not_panics() {
    assert!(Oid::try_new(&[]).is_err());
    assert!(Oid::try_new(&[1]).is_err());
    assert!(Oid::try_new(&[3, 1]).is_err(), "first arc must be 0..=2");
    assert!(
        Oid::try_new(&[0, 40]).is_err(),
        "second arc must be < 40 under 0/1"
    );
    assert!(Oid::try_new(&[2, 840, 113549]).is_ok());
}

/// BasicConstraints pathLenConstraint outside `u8`: a bare `as u8` cast
/// wrapped 256 to 0 and -1 to 255; the parser now rejects both.
#[test]
fn basic_constraints_path_len_out_of_range_rejected() {
    let fixture = |n: i64| {
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.boolean(true);
            w.integer_i64(n);
        });
        w.finish()
    };
    assert!(BasicConstraints::from_value(&fixture(256)).is_err());
    assert!(BasicConstraints::from_value(&fixture(-1)).is_err());
    let ok = BasicConstraints::from_value(&fixture(255)).unwrap();
    assert_eq!(ok.path_len, Some(255));
}

/// SubjectPublicKeyInfo with a key blob of 8192+ bytes: `(len * 8) as u16`
/// wrapped to 0 bits, misreporting key strength; now rejected.
#[test]
fn oversized_spki_rejected_not_bit_wrapped() {
    let mut w = DerWriter::new();
    w.sequence(|w| {
        w.sequence(|w| {
            w.oid(mtls_x509::oids::rsa_encryption());
            w.null();
        });
        w.bit_string(&vec![0u8; 8192]);
    });
    let der = w.finish();
    let mut r = DerReader::new(&der);
    assert!(PublicKeyInfo::decode(&mut r).is_err());
    // The oracle agrees: rejected, not divergent.
    let outcome = run_case(&der)
        .into_iter()
        .find(|(e, _)| *e == "x509/spki")
        .unwrap()
        .1;
    assert_eq!(outcome, Outcome::Rejected);
}

/// DER length fields wider than 4 bytes (and the indefinite form 0x80)
/// must be rejected by the strict reader — both shapes the mutation
/// engine plants constantly.
#[test]
fn oversized_and_indefinite_lengths_rejected() {
    // 85 = long form, 5 length bytes.
    let five_byte_len = [0x04, 0x85, 0x00, 0x00, 0x00, 0x00, 0x01, 0xAA];
    let mut r = DerReader::new(&five_byte_len);
    assert!(r.read_octet_string().is_err());
    let indefinite = [0x30, 0x80, 0x05, 0x00, 0x00, 0x00];
    let mut r = DerReader::new(&indefinite);
    assert!(r.read_sequence().is_err());
    for (entry, outcome) in run_case(&indefinite) {
        assert!(!outcome.is_bug(), "{entry}: {outcome:?}");
    }
}

/// Bounded campaign smoke mirroring the CI `conform` run at debug-friendly
/// size: zero panics, zero divergences, real acceptance coverage, and a
/// report whose rows add up.
#[test]
fn bounded_campaign_is_clean() {
    let report = run_campaign(1, 500);
    let tsv = report.to_tsv();
    assert_eq!(report.panics(), 0, "{tsv}");
    assert_eq!(report.divergences(), 0, "{tsv}");
    assert!(report.accepted() > 0);
    assert!(report.rejected() > 0);
    assert_eq!(report.per_entry.len(), mtls_conform::ENTRY_POINTS.len());

    // The rendered report: its `entry` rows sum to its `evaluations` row,
    // and a clean campaign renders no `finding` row.
    let evaluations: u64 = tsv
        .lines()
        .find_map(|l| l.strip_prefix("evaluations\t"))
        .expect("evaluations row")
        .parse()
        .unwrap();
    let entry_total: u64 = tsv
        .lines()
        .filter_map(|l| l.strip_prefix("entry\t"))
        .flat_map(|l| l.split('\t').skip(1).map(|n| n.parse::<u64>().unwrap()))
        .sum();
    assert_eq!(entry_total, evaluations, "{tsv}");
    assert_eq!(evaluations, report.evaluations());
    assert!(
        report.evaluations() > report.mutants,
        "every mutant hits every entry point"
    );
    assert!(report.findings.is_empty());
    assert!(!tsv.lines().any(|l| l.starts_with("finding\t")), "{tsv}");

    // The TSV-shard campaign: every mutant runs through both ingest modes.
    let shards = run_tsv_campaign(1, 200);
    assert!(!shards.has_bugs(), "{shards:?}");
    assert!(shards.accepted > 0);
    assert!(shards.evaluations >= 2 * shards.mutants, "{shards:?}");
}
