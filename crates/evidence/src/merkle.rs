//! The fleet epoch accumulator: a Merkle tree over the chain heads of
//! every managed device at an epoch boundary.
//!
//! Leaf and inner hashing are domain-separated (`0x00` / `0x01`
//! prefixes) so an inner node can never be replayed as a leaf; an odd
//! node at any level is promoted, not duplicated, so no leaf can appear
//! under two proofs.

use sage_crypto::canon::{self, CanonError, Reader};
use sage_crypto::Sha256;

/// One device's contribution to an epoch: its name, chain head, and the
/// sequence number that head seals.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EpochLeaf {
    /// Device name (the service's stable identifier).
    pub device: String,
    /// The device's evidence-chain head at the epoch boundary.
    pub head: [u8; 32],
    /// Chain sequence number the head corresponds to.
    pub seq: u64,
}

impl EpochLeaf {
    /// The leaf hash: `SHA-256(0x00 ‖ canonical(device, head, seq))`.
    pub fn hash(&self) -> [u8; 32] {
        let mut bytes = Vec::with_capacity(self.device.len() + 48);
        canon::put_str(&mut bytes, &self.device);
        canon::put_fixed(&mut bytes, &self.head);
        canon::put_u64(&mut bytes, self.seq);
        let mut h = Sha256::new();
        h.update(&[0x00]);
        h.update(&bytes);
        h.finalize()
    }

    /// Canonical encoding (snapshot / report transport).
    pub fn encode(&self, out: &mut Vec<u8>) {
        canon::put_str(out, &self.device);
        canon::put_fixed(out, &self.head);
        canon::put_u64(out, self.seq);
    }

    /// Decodes one leaf from a [`Reader`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<EpochLeaf, CanonError> {
        Ok(EpochLeaf {
            device: r.str()?,
            head: r.fixed::<32>()?,
            seq: r.u64()?,
        })
    }
}

fn inner_hash(hasher: &mut Sha256, left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    hasher.update(&[0x01]);
    hasher.update(left);
    hasher.update(right);
    hasher.finalize_reset()
}

/// Every level of an epoch's Merkle tree, leaf hashes first and the
/// root last, built once so inclusion proofs are O(log n) reads instead
/// of whole-tree rebuilds. Same hashing as the rest of this module:
/// `0x00`-tagged leaves, `0x01`-tagged inner nodes, odd nodes promoted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EpochTree {
    /// `levels[0]` is the leaf hashes; each next level pairs the one
    /// below; the last level holds the single root (empty tree: no
    /// levels).
    levels: Vec<Vec<[u8; 32]>>,
}

impl EpochTree {
    /// Hashes `leaves` (in the given order; the service sorts by device
    /// name so the root is order-canonical) and builds every level.
    pub fn new(leaves: &[EpochLeaf]) -> EpochTree {
        let mut level: Vec<[u8; 32]> = leaves.iter().map(EpochLeaf::hash).collect();
        let mut levels = Vec::new();
        let mut hasher = Sha256::new();
        while level.len() > 1 {
            let next = level
                .chunks(2)
                .map(|pair| match pair {
                    [l, r] => inner_hash(&mut hasher, l, r),
                    [odd] => *odd, // promoted, not duplicated
                    _ => unreachable!("chunks(2)"),
                })
                .collect();
            levels.push(std::mem::replace(&mut level, next));
        }
        if !level.is_empty() {
            levels.push(level);
        }
        EpochTree { levels }
    }

    /// The epoch root. An empty leaf set has the domain-tagged empty
    /// root.
    pub fn root(&self) -> [u8; 32] {
        match self.levels.last() {
            Some(top) => top[0],
            None => {
                let mut h = Sha256::new();
                h.update(b"sage-evidence-empty-epoch");
                h.finalize()
            }
        }
    }

    /// The inclusion proof for leaf `index`: one kept sibling per level
    /// (none where the node is an odd one promoted).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn prove(&self, index: usize) -> InclusionProof {
        let leaf_count = self.levels.first().map_or(0, Vec::len);
        assert!(index < leaf_count, "leaf index out of bounds");
        let mut pos = index;
        let mut steps = Vec::with_capacity(self.levels.len());
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = pos ^ 1;
            if let Some(hash) = level.get(sibling) {
                steps.push(ProofStep {
                    sibling: *hash,
                    sibling_on_left: sibling < pos,
                });
            }
            pos /= 2;
        }
        InclusionProof { steps }
    }
}

/// Computes the epoch root over `leaves` (see [`EpochTree::new`] for
/// the ordering and [`EpochTree::root`] for the empty case).
pub fn epoch_root(leaves: &[EpochLeaf]) -> [u8; 32] {
    EpochTree::new(leaves).root()
}

/// One step of an inclusion proof: the sibling hash and which side it
/// sits on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProofStep {
    /// The sibling node's hash.
    pub sibling: [u8; 32],
    /// True when the sibling is on the left (our node is the right child).
    pub sibling_on_left: bool,
}

/// A Merkle inclusion proof for one leaf under an epoch root.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct InclusionProof {
    /// Bottom-up sibling path.
    pub steps: Vec<ProofStep>,
}

impl InclusionProof {
    /// Canonical encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        canon::put_u32(out, self.steps.len() as u32);
        for s in &self.steps {
            canon::put_fixed(out, &s.sibling);
            canon::put_u8(out, s.sibling_on_left as u8);
        }
    }

    /// Decodes a proof from a [`Reader`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<InclusionProof, CanonError> {
        let n = r.u32()? as usize;
        let mut steps = Vec::with_capacity(n.min(r.remaining() / 33 + 1));
        for _ in 0..n {
            let sibling = r.fixed::<32>()?;
            let side = r.u8()?;
            if side > 1 {
                return Err(CanonError::BadTag {
                    field: "proof side",
                    value: side,
                });
            }
            steps.push(ProofStep {
                sibling,
                sibling_on_left: side == 1,
            });
        }
        Ok(InclusionProof { steps })
    }
}

/// Builds the inclusion proof for `leaves[index]` (a one-shot
/// [`EpochTree::prove`]; keep the tree to prove more than one leaf).
///
/// # Panics
///
/// Panics if `index` is out of bounds.
pub fn prove_inclusion(leaves: &[EpochLeaf], index: usize) -> InclusionProof {
    EpochTree::new(leaves).prove(index)
}

/// Verifies that `leaf` is included under `root` via `proof`.
pub fn verify_inclusion(leaf: &EpochLeaf, proof: &InclusionProof, root: &[u8; 32]) -> bool {
    let mut acc = leaf.hash();
    let mut hasher = Sha256::new();
    for step in &proof.steps {
        acc = if step.sibling_on_left {
            inner_hash(&mut hasher, &step.sibling, &acc)
        } else {
            inner_hash(&mut hasher, &acc, &step.sibling)
        };
    }
    acc == *root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<EpochLeaf> {
        (0..n)
            .map(|i| EpochLeaf {
                device: format!("gpu-{i}"),
                head: [i as u8; 32],
                seq: i as u64 * 3,
            })
            .collect()
    }

    #[test]
    fn every_leaf_proves_for_all_fleet_sizes() {
        for n in 1..=9 {
            let leaves = fleet(n);
            let root = epoch_root(&leaves);
            for i in 0..n {
                let proof = prove_inclusion(&leaves, i);
                assert!(
                    verify_inclusion(&leaves[i], &proof, &root),
                    "fleet {n}, leaf {i}"
                );
            }
        }
    }

    #[test]
    fn wrong_leaf_or_root_rejects() {
        let leaves = fleet(5);
        let root = epoch_root(&leaves);
        let proof = prove_inclusion(&leaves, 2);
        // Proof for leaf 2 must not validate leaf 3.
        assert!(!verify_inclusion(&leaves[3], &proof, &root));
        // Nor against a different fleet's root.
        let other_root = epoch_root(&fleet(4));
        assert!(!verify_inclusion(&leaves[2], &proof, &other_root));
        // A mutated head fails.
        let mut mutated = leaves[2].clone();
        mutated.head[0] ^= 1;
        assert!(!verify_inclusion(&mutated, &proof, &root));
    }

    #[test]
    fn leaf_and_inner_domains_are_separated() {
        // A two-leaf root's preimage reinterpreted as a leaf must not
        // produce the same hash (0x00 vs 0x01 prefix).
        let leaves = fleet(2);
        let root = epoch_root(&leaves);
        let single = EpochLeaf {
            device: "gpu-0".into(),
            head: leaves[0].head,
            seq: leaves[0].seq,
        };
        assert_ne!(root, single.hash());
    }

    #[test]
    fn empty_epoch_has_stable_root() {
        assert_eq!(epoch_root(&[]), epoch_root(&[]));
        assert_ne!(epoch_root(&[]), epoch_root(&fleet(1)));
    }

    #[test]
    fn proof_codec_round_trips() {
        let leaves = fleet(7);
        let proof = prove_inclusion(&leaves, 4);
        let mut bytes = Vec::new();
        proof.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let decoded = InclusionProof::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, proof);

        let mut lb = Vec::new();
        leaves[4].encode(&mut lb);
        let mut r = Reader::new(&lb);
        assert_eq!(EpochLeaf::decode_from(&mut r).unwrap(), leaves[4]);
    }
}
