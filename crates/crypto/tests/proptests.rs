//! Property tests: the one-shot SHA-256 path, the run-time dispatched core
//! and the table-driven hex codec must be byte-identical to their reference
//! counterparts on adversarial input — message lengths straddling the
//! 55/56/64-byte padding boundaries and empty blobs.

use mtls_crypto::{hex, sha256, sha256_scalar, Sha256};
use proptest::prelude::*;

// Lengths biased toward the padding decision points (55 fits one block,
// 56 forces two; 64 is an exact block) plus uniform tails.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(55usize),
        Just(56usize),
        Just(57usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(119usize),
        Just(128usize),
        0usize..300,
    ]
}

fn arb_msg() -> impl Strategy<Value = Vec<u8>> {
    (arb_len(), any::<u64>()).prop_map(|(len, seed)| {
        // Cheap deterministic fill; content doesn't matter for padding
        // coverage, length does.
        (0..len)
            .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 13) as u8)
            .collect()
    })
}

fn streaming_ref(msg: &[u8], split: usize) -> [u8; 32] {
    let mut h = Sha256::new();
    let split = split.min(msg.len());
    h.update(&msg[..split]);
    h.update(&msg[split..]);
    h.finalize()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn oneshot_matches_streaming(msg in arb_msg(), split in 0usize..300) {
        prop_assert_eq!(sha256(&msg), streaming_ref(&msg, split));
    }

    #[test]
    fn dispatched_matches_scalar_core(msg in arb_msg()) {
        prop_assert_eq!(sha256(&msg), sha256_scalar(&msg));
    }

    #[test]
    fn hex_round_trips(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(hex::decode(&hex::encode(&bytes)).unwrap(), bytes.clone());
        prop_assert_eq!(hex::decode(&hex::encode_upper(&bytes)).unwrap(), bytes);
    }

    #[test]
    fn hex_decode_never_panics(s in "[ -~]{0,40}") {
        let ok = hex::decode(&s).is_some();
        let expected = s.len().is_multiple_of(2) && s.bytes().all(|b| b.is_ascii_hexdigit());
        prop_assert_eq!(ok, expected);
    }
}
