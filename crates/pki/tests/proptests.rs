//! Property tests for the PKI substrate: CRLs round-trip for arbitrary
//! entry sets, policies never panic and are monotone (strict flags ⊇
//! enterprise flags for the shared rule set), and issuer categorization is
//! total.

use mtls_asn1::Asn1Time;
use mtls_crypto::Keypair;
use mtls_pki::crl::{CertificateRevocationList, CrlBuilder, RevocationReason};
use mtls_pki::{classify_org, CertificateAuthority, ValidationPolicy};
use mtls_x509::{CertificateBuilder, DistinguishedName, KeyAlgorithm, SerialNumber, Version};
use proptest::prelude::*;

fn t0() -> Asn1Time {
    Asn1Time::from_ymd(2023, 1, 1)
}

fn arb_reason() -> impl Strategy<Value = RevocationReason> {
    prop_oneof![
        Just(RevocationReason::Unspecified),
        Just(RevocationReason::KeyCompromise),
        Just(RevocationReason::CaCompromise),
        Just(RevocationReason::AffiliationChanged),
        Just(RevocationReason::Superseded),
        Just(RevocationReason::CessationOfOperation),
        Just(RevocationReason::CertificateHold),
        Just(RevocationReason::PrivilegeWithdrawn),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn crl_round_trips(
        entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..12), 0i64..700, arb_reason()),
            0..40,
        ),
        validity_days in 1i64..30,
    ) {
        let ca = CertificateAuthority::new_root(
            b"prop-crl-ca",
            DistinguishedName::builder().organization("Prop CRL Org").build(),
            t0(),
        );
        let mut builder = CrlBuilder::new(t0(), t0().add_days(validity_days));
        for (serial, day, reason) in &entries {
            builder = builder.revoke(SerialNumber::new(serial), t0().add_days(*day), *reason);
        }
        let crl = builder.sign(&ca);
        let parsed = CertificateRevocationList::from_der(&crl.to_der()).unwrap();
        prop_assert_eq!(&parsed, &crl);
        // Every entry is findable by its canonical serial; with duplicate
        // serials in the input, the first entry wins (RFC 5280 lists each
        // certificate once).
        let mut first: std::collections::HashMap<Vec<u8>, RevocationReason> = Default::default();
        for (serial, _, reason) in &entries {
            let canonical = SerialNumber::new(serial).as_bytes().to_vec();
            first.entry(canonical).or_insert(*reason);
        }
        for (serial, expected) in &first {
            let hit = parsed.is_revoked(&SerialNumber::new(serial));
            prop_assert!(hit.is_some());
            prop_assert_eq!(hit.map(|e| e.reason), Some(*expected));
        }
    }

    #[test]
    fn crl_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = CertificateRevocationList::from_der(&bytes);
    }

    #[test]
    fn policy_never_panics_and_lax_accepts(
        nb_days in -40_000i64..40_000,
        len_days in -40_000i64..90_000,
        bits_sel in 0usize..3,
        v1 in any::<bool>(),
        empty_issuer in any::<bool>(),
        shared in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let signer = Keypair::from_seed(&seed.to_le_bytes());
        let key = Keypair::from_seed(&seed.wrapping_add(1).to_le_bytes());
        let nb = t0().add_days(nb_days);
        let issuer = if empty_issuer {
            DistinguishedName::empty()
        } else {
            DistinguishedName::builder().organization("Prop Org Inc").build()
        };
        let cert = CertificateBuilder::new()
            .version(if v1 { Version::V1 } else { Version::V3 })
            .issuer(issuer)
            .validity(nb, nb.add_days(len_days))
            .key_algorithm([
                KeyAlgorithm::Rsa { bits: 1024 },
                KeyAlgorithm::Rsa { bits: 2048 },
                KeyAlgorithm::EcdsaP256,
            ][bits_sel])
            .subject_key(key.key_id())
            .sign(&signer);

        for policy in [ValidationPolicy::strict(), ValidationPolicy::enterprise(), ValidationPolicy::lax()] {
            let violations = policy.evaluate(&cert, t0(), shared, None);
            // No duplicates.
            let mut dedup = violations.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), violations.len());
        }
        prop_assert!(ValidationPolicy::lax().accepts(&cert, t0(), shared, None));
        // Enterprise's rule set is a subset of strict's: anything enterprise
        // flags, strict flags too.
        let ent = ValidationPolicy::enterprise().evaluate(&cert, t0(), shared, None);
        let strict = ValidationPolicy::strict().evaluate(&cert, t0(), shared, None);
        for v in &ent {
            // strict uses a tighter max validity, so ExcessiveValidity can
            // differ only in strict's favour; everything else must carry.
            prop_assert!(strict.contains(v), "{v:?} flagged by enterprise but not strict");
        }
    }

    #[test]
    fn any_prefix_proves_consistent_with_any_extension(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..96),
        cut_a in any::<u64>(),
        cut_b in any::<u64>(),
    ) {
        use mtls_pki::merkle::{leaf_hash, verify_consistency, verify_inclusion, MerkleTree};

        let mut tree = MerkleTree::new();
        for leaf in &leaves {
            tree.push(leaf_hash(leaf));
        }
        let n = tree.size();
        // Any prefix size m <= k <= n: PROOF(m, D[k]) links MTH(D[m]) to
        // MTH(D[k]) — the tree never disowns its own history.
        let k = cut_a % n + 1;
        let m = cut_b % (k + 1);
        let old_root = tree.root_at(m).unwrap();
        let new_root = tree.root_at(k).unwrap();
        let proof = tree.consistency_proof(m, k).unwrap();
        prop_assert!(verify_consistency(m, k, &old_root, &new_root, &proof));
        // A corrupted path must not verify (empty proofs only arise for
        // the trivial prefixes, which need no path to corrupt).
        if let Some(h) = proof.first() {
            let mut bad = proof.clone();
            bad[0] = {
                let mut b = *h;
                b[0] ^= 1;
                b
            };
            prop_assert!(!verify_consistency(m, k, &old_root, &new_root, &bad));
        }
        // And every leaf of the prefix is provably included in it.
        if k > 0 {
            let i = cut_a % k;
            let ipr = tree.inclusion_proof(i, k).unwrap();
            prop_assert!(verify_inclusion(&leaf_hash(&leaves[i as usize]), i, k, &ipr, &new_root));
        }
    }

    #[test]
    fn sth_and_proof_parsers_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        use mtls_pki::{ConsistencyProof, InclusionProof, SignedTreeHead};
        let _ = SignedTreeHead::from_bytes(&bytes);
        let _ = InclusionProof::from_bytes(&bytes);
        let _ = ConsistencyProof::from_bytes(&bytes);
    }

    #[test]
    fn issuer_classification_is_total_and_stable(org in "\\PC{0,60}") {
        let a = classify_org(Some(&org), false).category;
        let b = classify_org(Some(&org), false).category;
        prop_assert_eq!(a, b);
        // Public verdict always wins.
        prop_assert_eq!(
            classify_org(Some(&org), true).category,
            mtls_pki::IssuerCategory::Public
        );
    }
}
