//! RFC 6962 Merkle hash trees for the Certificate Transparency log.
//!
//! The tree is append-only over opaque leaf byte strings. Hashing follows
//! RFC 6962 §2.1 on our own `mtls_crypto::sha256`:
//!
//! * leaf hash `= SHA-256(0x00 || leaf)`;
//! * node hash `= SHA-256(0x01 || left || right)`;
//! * `MTH(D[n])` splits at `k`, the largest power of two `< n`.
//!
//! [`MerkleTree`] produces roots for any prefix size (every signed tree
//! head is a snapshot of a prefix), audit paths ([`MerkleTree::inclusion_proof`])
//! and consistency paths ([`MerkleTree::consistency_proof`]).
//!
//! The verifiers ([`verify_inclusion`], [`verify_consistency`]) are pure
//! functions over bytes — the RFC 9162 §2.1.3.2 / §2.1.4.2 iterative
//! algorithms — and share no state with the tree, so a vantage point can
//! check a proof knowing nothing but two tree heads.

use mtls_crypto::{sha256, Sha256};

/// Domain-separation prefix for leaf hashes (RFC 6962 §2.1).
const LEAF_PREFIX: u8 = 0x00;
/// Domain-separation prefix for interior-node hashes.
const NODE_PREFIX: u8 = 0x01;

/// `SHA-256(0x00 || leaf)`.
pub fn leaf_hash(leaf: &[u8]) -> [u8; 32] {
    leaf_hash_of(&[leaf])
}

/// [`leaf_hash`] of the concatenation of `parts`, streamed into the hash
/// without building the leaf.
pub fn leaf_hash_of(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

/// `SHA-256(0x01 || left || right)`.
pub fn node_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut buf = [0u8; 65];
    buf[0] = NODE_PREFIX;
    buf[1..33].copy_from_slice(left);
    buf[33..65].copy_from_slice(right);
    sha256(&buf)
}

/// Root of the empty tree: `SHA-256("")` (RFC 6962 §2.1).
pub fn empty_root() -> [u8; 32] {
    sha256(&[])
}

/// Largest power of two strictly less than `n` (`n >= 2`).
fn split_point(n: u64) -> u64 {
    debug_assert!(n >= 2);
    let mut k = 1u64;
    while k * 2 < n {
        k *= 2;
    }
    k
}

/// An append-only RFC 6962 Merkle tree over leaf hashes.
///
/// Stores one 32-byte hash per leaf; roots and proofs are recomputed on
/// demand by recursion over subranges (`O(n)` hashing per query), which is
/// plenty for proof generation at simulation scale — verification, the hot
/// side, is `O(log n)`.
#[derive(Debug, Clone, Default)]
pub struct MerkleTree {
    leaves: Vec<[u8; 32]>,
}

impl MerkleTree {
    pub fn new() -> MerkleTree {
        MerkleTree::default()
    }

    /// Append a leaf by its [`leaf_hash`].
    pub fn push(&mut self, leaf_hash: [u8; 32]) {
        self.leaves.push(leaf_hash);
    }

    /// Number of leaves.
    pub fn size(&self) -> u64 {
        self.leaves.len() as u64
    }

    /// Root over all leaves.
    pub fn root(&self) -> [u8; 32] {
        self.root_at(self.size()).expect("size() is in range")
    }

    /// `MTH` of the first `n` leaves — the root a signed tree head of size
    /// `n` commits to. `None` when `n` exceeds the tree.
    pub fn root_at(&self, n: u64) -> Option<[u8; 32]> {
        if n > self.size() {
            return None;
        }
        if n == 0 {
            return Some(empty_root());
        }
        Some(self.subtree_root(0, n))
    }

    /// Root of leaves `[lo, hi)`; `hi > lo`.
    fn subtree_root(&self, lo: u64, hi: u64) -> [u8; 32] {
        let n = hi - lo;
        if n == 1 {
            return self.leaves[lo as usize];
        }
        let k = split_point(n);
        let left = self.subtree_root(lo, lo + k);
        let right = self.subtree_root(lo + k, hi);
        node_hash(&left, &right)
    }

    /// RFC 6962 `PATH(m, D[n])`: audit path for leaf `index` within the
    /// prefix tree of size `tree_size`. `None` when out of range.
    pub fn inclusion_proof(&self, index: u64, tree_size: u64) -> Option<Vec<[u8; 32]>> {
        if tree_size > self.size() || index >= tree_size {
            return None;
        }
        let mut path = Vec::new();
        self.path(index, 0, tree_size, &mut path);
        Some(path)
    }

    /// Audit paths for *every* leaf of the prefix tree of `tree_size`
    /// leaves, in one `O(n log n)` pass (the per-leaf
    /// [`MerkleTree::inclusion_proof`] recomputes subtree roots and is
    /// `O(n)` each — quadratic over a whole log).
    pub fn inclusion_proofs(&self, tree_size: u64) -> Option<Vec<Vec<[u8; 32]>>> {
        if tree_size > self.size() {
            return None;
        }
        let mut proofs = vec![Vec::new(); tree_size as usize];
        if tree_size > 0 {
            self.all_paths(0, tree_size, &mut proofs);
        }
        Some(proofs)
    }

    fn all_paths(&self, lo: u64, hi: u64, proofs: &mut [Vec<[u8; 32]>]) -> [u8; 32] {
        let n = hi - lo;
        if n == 1 {
            return self.leaves[lo as usize];
        }
        let k = split_point(n);
        let left = self.all_paths(lo, lo + k, proofs);
        let right = self.all_paths(lo + k, hi, proofs);
        // On the way out of the recursion: deepest siblings were appended
        // first, so each path stays in leaf-to-root order.
        for p in &mut proofs[lo as usize..(lo + k) as usize] {
            p.push(right);
        }
        for p in &mut proofs[(lo + k) as usize..hi as usize] {
            p.push(left);
        }
        node_hash(&left, &right)
    }

    fn path(&self, m: u64, lo: u64, hi: u64, out: &mut Vec<[u8; 32]>) {
        let n = hi - lo;
        if n == 1 {
            return;
        }
        let k = split_point(n);
        if m < k {
            self.path(m, lo, lo + k, out);
            out.push(self.subtree_root(lo + k, hi));
        } else {
            self.path(m - k, lo + k, hi, out);
            out.push(self.subtree_root(lo, lo + k));
        }
    }

    /// RFC 6962 `PROOF(m, D[n])`: consistency path between the prefix
    /// trees of sizes `old` and `new`. `None` when `old > new` or `new`
    /// exceeds the tree. The proof for `old == 0` or `old == new` is empty.
    pub fn consistency_proof(&self, old: u64, new: u64) -> Option<Vec<[u8; 32]>> {
        if new > self.size() || old > new {
            return None;
        }
        if old == 0 || old == new {
            return Some(Vec::new());
        }
        let mut path = Vec::new();
        self.subproof(old, 0, new, true, &mut path);
        Some(path)
    }

    fn subproof(&self, m: u64, lo: u64, hi: u64, known: bool, out: &mut Vec<[u8; 32]>) {
        let n = hi - lo;
        if m == n {
            if !known {
                out.push(self.subtree_root(lo, hi));
            }
            return;
        }
        let k = split_point(n);
        if m <= k {
            self.subproof(m, lo, lo + k, known, out);
            out.push(self.subtree_root(lo + k, hi));
        } else {
            self.subproof(m - k, lo + k, hi, false, out);
            out.push(self.subtree_root(lo, lo + k));
        }
    }
}

/// Verify an RFC 9162 §2.1.3.2 inclusion proof: does the leaf whose
/// [`leaf_hash`] is `leaf_hash` sit at `leaf_index` in the tree of
/// `tree_size` leaves whose root is `root`? Pure over bytes; rejects
/// malformed paths (wrong length for the index/size pair) rather than
/// panicking.
pub fn verify_inclusion(
    leaf_hash: &[u8; 32],
    leaf_index: u64,
    tree_size: u64,
    proof: &[[u8; 32]],
    root: &[u8; 32],
) -> bool {
    if leaf_index >= tree_size {
        return false;
    }
    let mut fnode = leaf_index;
    let mut snode = tree_size - 1;
    let mut r = *leaf_hash;
    for p in proof {
        if snode == 0 {
            return false;
        }
        if fnode & 1 == 1 || fnode == snode {
            r = node_hash(p, &r);
            if fnode & 1 == 0 {
                while fnode & 1 == 0 && fnode != 0 {
                    fnode >>= 1;
                    snode >>= 1;
                }
            }
        } else {
            r = node_hash(&r, p);
        }
        fnode >>= 1;
        snode >>= 1;
    }
    snode == 0 && r == *root
}

/// Verify an RFC 9162 §2.1.4.2 consistency proof: is the tree of
/// `old_size` leaves with root `old_root` a prefix of the tree of
/// `new_size` leaves with root `new_root`?
///
/// Edge cases per the RFC: the empty tree (`old_size == 0`) is a prefix of
/// everything (proof must be empty), and `old_size == new_size` demands an
/// empty proof and equal roots.
pub fn verify_consistency(
    old_size: u64,
    new_size: u64,
    old_root: &[u8; 32],
    new_root: &[u8; 32],
    proof: &[[u8; 32]],
) -> bool {
    if old_size > new_size {
        return false;
    }
    if old_size == new_size {
        return proof.is_empty() && old_root == new_root;
    }
    if old_size == 0 {
        return proof.is_empty();
    }

    let mut fnode = old_size - 1;
    let mut snode = new_size - 1;
    while fnode & 1 == 1 {
        fnode >>= 1;
        snode >>= 1;
    }
    let mut rest = proof.iter();
    let (mut fr, mut sr) = if fnode != 0 {
        match rest.next() {
            Some(p) => (*p, *p),
            None => return false,
        }
    } else {
        (*old_root, *old_root)
    };
    for p in rest {
        if snode == 0 {
            return false;
        }
        if fnode & 1 == 1 || fnode == snode {
            fr = node_hash(p, &fr);
            sr = node_hash(p, &sr);
            while fnode & 1 == 0 && fnode != 0 {
                fnode >>= 1;
                snode >>= 1;
            }
        } else {
            sr = node_hash(&sr, p);
        }
        fnode >>= 1;
        snode >>= 1;
    }
    snode == 0 && fr == *old_root && sr == *new_root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_of(n: u64) -> MerkleTree {
        let mut t = MerkleTree::new();
        for i in 0..n {
            t.push(leaf_hash(format!("leaf-{i}").as_bytes()));
        }
        t
    }

    #[test]
    fn empty_tree_root_is_sha256_of_nothing() {
        assert_eq!(tree_of(0).root(), sha256(&[]));
    }

    #[test]
    fn rfc6962_shape_small_trees() {
        // Root of a 1-leaf tree is the leaf hash; of a 2-leaf tree the
        // node hash of the two leaf hashes.
        let t = tree_of(2);
        let l0 = leaf_hash(b"leaf-0");
        let l1 = leaf_hash(b"leaf-1");
        assert_eq!(t.root_at(1), Some(l0));
        assert_eq!(t.root_at(2), Some(node_hash(&l0, &l1)));
        // A 3-leaf tree splits 2|1.
        let t = tree_of(3);
        let l2 = leaf_hash(b"leaf-2");
        assert_eq!(t.root(), node_hash(&node_hash(&l0, &l1), &l2));
    }

    #[test]
    fn all_inclusion_proofs_verify_up_to_64() {
        for n in 1..=64u64 {
            let t = tree_of(n);
            let root = t.root();
            let batch = t.inclusion_proofs(n).unwrap();
            for i in 0..n {
                let proof = t.inclusion_proof(i, n).unwrap();
                assert_eq!(batch[i as usize], proof, "batch path ({i}, {n})");
                let leaf = format!("leaf-{i}");
                assert!(
                    verify_inclusion(&leaf_hash(leaf.as_bytes()), i, n, &proof, &root),
                    "inclusion({i}, {n}) failed"
                );
                // The same proof must not place a different leaf there.
                assert!(!verify_inclusion(
                    &leaf_hash(b"leaf-x"),
                    i,
                    n,
                    &proof,
                    &root
                ));
            }
        }
    }

    #[test]
    fn every_prefix_proves_consistent_with_every_extension_up_to_64() {
        // The acceptance-criteria property, exhaustively: for all
        // m <= n <= 64, PROOF(m, D[n]) verifies against MTH(D[m]), MTH(D[n]).
        let t = tree_of(64);
        for n in 1..=64u64 {
            let new_root = t.root_at(n).unwrap();
            for m in 0..=n {
                let old_root = t.root_at(m).unwrap();
                let proof = t.consistency_proof(m, n).unwrap();
                assert!(
                    verify_consistency(m, n, &old_root, &new_root, &proof),
                    "consistency({m}, {n}) failed"
                );
            }
        }
    }

    #[test]
    fn forked_prefix_fails_consistency() {
        // Two trees sharing no history: consistency must fail for all
        // non-trivial (m, n) pairs.
        let honest = tree_of(16);
        let mut forked = MerkleTree::new();
        for i in 0..16u64 {
            forked.push(leaf_hash(format!("evil-{i}").as_bytes()));
        }
        for m in 1..=16u64 {
            let old_root = honest.root_at(m).unwrap();
            let proof = forked.consistency_proof(m, 16).unwrap();
            assert!(!verify_consistency(
                m,
                16,
                &old_root,
                &forked.root(),
                &proof
            ));
        }
    }

    #[test]
    fn corrupted_proofs_fail() {
        let t = tree_of(13);
        let root = t.root();
        let mut proof = t.inclusion_proof(5, 13).unwrap();
        proof[0][0] ^= 1;
        assert!(!verify_inclusion(
            &leaf_hash(b"leaf-5"),
            5,
            13,
            &proof,
            &root
        ));
        // Truncated and extended paths fail too.
        let good = t.inclusion_proof(5, 13).unwrap();
        assert!(!verify_inclusion(
            &leaf_hash(b"leaf-5"),
            5,
            13,
            &good[..good.len() - 1],
            &root
        ));
        let mut long = good.clone();
        long.push([0u8; 32]);
        assert!(!verify_inclusion(
            &leaf_hash(b"leaf-5"),
            5,
            13,
            &long,
            &root
        ));

        let old_root = t.root_at(7).unwrap();
        let mut cproof = t.consistency_proof(7, 13).unwrap();
        cproof[1][31] ^= 0x80;
        assert!(!verify_consistency(7, 13, &old_root, &root, &cproof));
    }

    #[test]
    fn equal_sizes_and_empty_prefix_edge_cases() {
        let t = tree_of(9);
        let r = t.root();
        assert!(verify_consistency(9, 9, &r, &r, &[]));
        assert!(!verify_consistency(9, 9, &r, &r, &[[0u8; 32]]));
        let other = tree_of(10).root();
        assert!(!verify_consistency(9, 9, &r, &other, &[]));
        assert!(verify_consistency(0, 9, &empty_root(), &r, &[]));
        assert!(!verify_consistency(10, 9, &r, &r, &[]));
    }
}
