//! HMAC-SHA256 (RFC 2104), validated against RFC 4231 test vectors.

use crate::sha256::{compress, Core, Sha256};

const BLOCK: usize = 64;

/// Compute `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    hmac_with(compress, key, message)
}

/// [`hmac_sha256`] on a given compression core.
fn hmac_with(core: Core, key: &[u8], message: &[u8]) -> [u8; 32] {
    // Keys longer than the block size are hashed first.
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        let mut h = Sha256::with_core(core);
        h.update(key);
        key_block[..32].copy_from_slice(&h.finalize());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0u8; BLOCK];
    let mut opad = [0u8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
    }

    let mut inner = Sha256::with_core(core);
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::with_core(core);
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::sha256::tests::cores;

    /// One RFC 4231 vector through the dispatched path and through each
    /// core this host can run, called directly.
    fn assert_vector(key: &[u8], msg: &[u8], want: &str) {
        assert_eq!(hex::encode(&hmac_sha256(key, msg)), want, "dispatched");
        for (name, core) in cores() {
            assert_eq!(hex::encode(&hmac_with(core, key, msg)), want, "{name} core");
        }
    }

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case_1() {
        assert_vector(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_vector(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        assert_vector(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        assert_vector(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        assert_vector(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn different_keys_produce_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
