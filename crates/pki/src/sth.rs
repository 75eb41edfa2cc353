//! Signed tree heads and proof wire formats for the CT subsystem.
//!
//! Every structure has one canonical byte encoding (version byte, 32-byte
//! log id, big-endian integers, fixed-width hash path) so the conform
//! harness can hold `from_bytes`/`to_bytes` to *byte identity*: any input
//! that parses must re-encode to exactly itself. Parsers reject rather
//! than panic — trailing bytes, short buffers, impossible sizes and
//! over-long paths are all `None`.
//!
//! Signatures are the simulator's HMAC-based simsig scheme
//! (`mtls_crypto::simsig`); the signed portion of an STH is its encoding
//! minus the signature, i.e. the first [`STH_SIGNED_LEN`] bytes.

use mtls_crypto::{KeyId, KeyRegistry, Signature};

/// Wire format version for all three structures.
pub const WIRE_VERSION: u8 = 1;
/// Longest accepted audit path (a 64-level tree covers any `u64` size).
pub const MAX_INCLUSION_PATH: usize = 64;
/// Consistency paths carry up to two flanks of the tree.
pub const MAX_CONSISTENCY_PATH: usize = 128;
/// Bytes of an encoded STH covered by its signature.
pub const STH_SIGNED_LEN: usize = 1 + 32 + 8 + 8 + 32;
/// Total encoded STH length (signed portion + 32-byte signature).
pub const STH_LEN: usize = STH_SIGNED_LEN + 32;

/// A signed tree head: the log's commitment, at `timestamp`, to the root
/// of its first `tree_size` leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedTreeHead {
    pub log_id: KeyId,
    pub tree_size: u64,
    pub timestamp: u64,
    pub root: [u8; 32],
    pub signature: Signature,
}

impl SignedTreeHead {
    /// The bytes the log signs (everything but the signature).
    pub fn signed_bytes(
        log_id: &KeyId,
        tree_size: u64,
        timestamp: u64,
        root: &[u8; 32],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(STH_SIGNED_LEN);
        out.push(WIRE_VERSION);
        out.extend_from_slice(&log_id.0);
        out.extend_from_slice(&tree_size.to_be_bytes());
        out.extend_from_slice(&timestamp.to_be_bytes());
        out.extend_from_slice(root);
        out
    }

    /// Canonical encoding ([`STH_LEN`] bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            SignedTreeHead::signed_bytes(&self.log_id, self.tree_size, self.timestamp, &self.root);
        out.extend_from_slice(self.signature.as_bytes());
        out
    }

    /// Strict decode: exact length, known version.
    pub fn from_bytes(bytes: &[u8]) -> Option<SignedTreeHead> {
        if bytes.len() != STH_LEN || bytes[0] != WIRE_VERSION {
            return None;
        }
        let mut log_id = [0u8; 32];
        log_id.copy_from_slice(&bytes[1..33]);
        let tree_size = u64::from_be_bytes(bytes[33..41].try_into().ok()?);
        let timestamp = u64::from_be_bytes(bytes[41..49].try_into().ok()?);
        let mut root = [0u8; 32];
        root.copy_from_slice(&bytes[49..81]);
        let mut sig = [0u8; 32];
        sig.copy_from_slice(&bytes[81..113]);
        Some(SignedTreeHead {
            log_id: KeyId(log_id),
            tree_size,
            timestamp,
            root,
            signature: Signature(sig),
        })
    }

    /// Check the signature against a registry of known log keys.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        let msg =
            SignedTreeHead::signed_bytes(&self.log_id, self.tree_size, self.timestamp, &self.root);
        registry.verify(self.log_id, &msg, &self.signature)
    }
}

/// An audit path binding one leaf to an STH of `tree_size` leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionProof {
    pub log_id: KeyId,
    pub tree_size: u64,
    pub leaf_index: u64,
    pub path: Vec<[u8; 32]>,
}

/// A consistency path between two STHs of the same log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyProof {
    pub log_id: KeyId,
    pub old_size: u64,
    pub new_size: u64,
    pub path: Vec<[u8; 32]>,
}

/// Shared layout of the two proof encodings:
/// `ver(1) || log_id(32) || a(8) || b(8) || count(2) || count * hash(32)`.
fn encode_proof(log_id: &KeyId, a: u64, b: u64, path: &[[u8; 32]]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 32 + 8 + 8 + 2 + 32 * path.len());
    out.push(WIRE_VERSION);
    out.extend_from_slice(&log_id.0);
    out.extend_from_slice(&a.to_be_bytes());
    out.extend_from_slice(&b.to_be_bytes());
    out.extend_from_slice(&(path.len() as u16).to_be_bytes());
    for h in path {
        out.extend_from_slice(h);
    }
    out
}

fn decode_proof(bytes: &[u8], max_path: usize) -> Option<(KeyId, u64, u64, Vec<[u8; 32]>)> {
    if bytes.len() < 51 || bytes[0] != WIRE_VERSION {
        return None;
    }
    let mut log_id = [0u8; 32];
    log_id.copy_from_slice(&bytes[1..33]);
    let a = u64::from_be_bytes(bytes[33..41].try_into().ok()?);
    let b = u64::from_be_bytes(bytes[41..49].try_into().ok()?);
    let count = u16::from_be_bytes(bytes[49..51].try_into().ok()?) as usize;
    if count > max_path || bytes.len() != 51 + 32 * count {
        return None;
    }
    let mut path = Vec::with_capacity(count);
    for chunk in bytes[51..].chunks_exact(32) {
        let mut h = [0u8; 32];
        h.copy_from_slice(chunk);
        path.push(h);
    }
    Some((KeyId(log_id), a, b, path))
}

impl InclusionProof {
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_proof(&self.log_id, self.tree_size, self.leaf_index, &self.path)
    }

    /// Strict decode: exact length, `leaf_index < tree_size`, path at most
    /// [`MAX_INCLUSION_PATH`] hashes.
    pub fn from_bytes(bytes: &[u8]) -> Option<InclusionProof> {
        let (log_id, tree_size, leaf_index, path) = decode_proof(bytes, MAX_INCLUSION_PATH)?;
        if leaf_index >= tree_size {
            return None;
        }
        Some(InclusionProof {
            log_id,
            tree_size,
            leaf_index,
            path,
        })
    }

    /// Does this path place the leaf whose [`crate::merkle::leaf_hash`]
    /// is `leaf_hash` in the tree `sth` commits to?
    pub fn verify(&self, leaf_hash: &[u8; 32], sth: &SignedTreeHead) -> bool {
        self.log_id == sth.log_id
            && self.tree_size == sth.tree_size
            && crate::merkle::verify_inclusion(
                leaf_hash,
                self.leaf_index,
                self.tree_size,
                &self.path,
                &sth.root,
            )
    }
}

impl ConsistencyProof {
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_proof(&self.log_id, self.old_size, self.new_size, &self.path)
    }

    /// Strict decode: exact length, `old_size <= new_size`, path at most
    /// [`MAX_CONSISTENCY_PATH`] hashes.
    pub fn from_bytes(bytes: &[u8]) -> Option<ConsistencyProof> {
        let (log_id, old_size, new_size, path) = decode_proof(bytes, MAX_CONSISTENCY_PATH)?;
        if old_size > new_size {
            return None;
        }
        Some(ConsistencyProof {
            log_id,
            old_size,
            new_size,
            path,
        })
    }

    /// Does this path prove `old` is a prefix of `new`?
    pub fn verify(&self, old: &SignedTreeHead, new: &SignedTreeHead) -> bool {
        self.log_id == old.log_id
            && self.log_id == new.log_id
            && self.old_size == old.tree_size
            && self.new_size == new.tree_size
            && crate::merkle::verify_consistency(
                self.old_size,
                self.new_size,
                &old.root,
                &new.root,
                &self.path,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtls_crypto::Keypair;

    fn sample_sth() -> SignedTreeHead {
        let kp = Keypair::from_seed(b"sth-test-log");
        let root = [7u8; 32];
        let msg = SignedTreeHead::signed_bytes(&kp.key_id(), 42, 1_700_000_000, &root);
        SignedTreeHead {
            log_id: kp.key_id(),
            tree_size: 42,
            timestamp: 1_700_000_000,
            root,
            signature: kp.sign(&msg),
        }
    }

    #[test]
    fn sth_round_trips_and_verifies() {
        let sth = sample_sth();
        let bytes = sth.to_bytes();
        assert_eq!(bytes.len(), STH_LEN);
        let back = SignedTreeHead::from_bytes(&bytes).unwrap();
        assert_eq!(back, sth);
        assert_eq!(back.to_bytes(), bytes);

        let kp = Keypair::from_seed(b"sth-test-log");
        let mut registry = KeyRegistry::new();
        registry.register(kp);
        assert!(sth.verify(&registry));
        // Tampering with any signed field breaks the signature.
        let mut tampered = sth.clone();
        tampered.tree_size += 1;
        assert!(!tampered.verify(&registry));
        assert!(!sth.verify(&KeyRegistry::new()));
    }

    #[test]
    fn sth_decode_rejects_wrong_shapes() {
        let bytes = sample_sth().to_bytes();
        assert!(SignedTreeHead::from_bytes(&bytes[..STH_LEN - 1]).is_none());
        let mut long = bytes.clone();
        long.push(0);
        assert!(SignedTreeHead::from_bytes(&long).is_none());
        let mut badver = bytes;
        badver[0] = 9;
        assert!(SignedTreeHead::from_bytes(&badver).is_none());
    }

    #[test]
    fn proofs_round_trip_byte_identically() {
        let p = InclusionProof {
            log_id: KeyId([3u8; 32]),
            tree_size: 10,
            leaf_index: 4,
            path: vec![[1u8; 32], [2u8; 32]],
        };
        let bytes = p.to_bytes();
        let back = InclusionProof::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_bytes(), bytes);

        let c = ConsistencyProof {
            log_id: KeyId([3u8; 32]),
            old_size: 4,
            new_size: 10,
            path: vec![[9u8; 32]],
        };
        let bytes = c.to_bytes();
        let back = ConsistencyProof::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn proof_decode_rejects_impossible_shapes() {
        let p = InclusionProof {
            log_id: KeyId([0u8; 32]),
            tree_size: 8,
            leaf_index: 3,
            path: vec![[0u8; 32]; 3],
        };
        let good = p.to_bytes();
        // leaf_index >= tree_size
        let bad = InclusionProof {
            leaf_index: 8,
            ..p.clone()
        };
        assert!(InclusionProof::from_bytes(&bad.to_bytes()).is_none());
        // Truncated / padded / count lies about the payload.
        assert!(InclusionProof::from_bytes(&good[..good.len() - 1]).is_none());
        let mut long = good.clone();
        long.push(0);
        assert!(InclusionProof::from_bytes(&long).is_none());
        let mut misc = good;
        misc[50] = 99;
        assert!(InclusionProof::from_bytes(&misc).is_none());
        // old_size > new_size
        let c = ConsistencyProof {
            log_id: KeyId([0u8; 32]),
            old_size: 9,
            new_size: 3,
            path: vec![],
        };
        assert!(ConsistencyProof::from_bytes(&c.to_bytes()).is_none());
    }
}
