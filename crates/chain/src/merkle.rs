//! Monero's Merkle tree hash (`tree_hash` from the CryptoNote reference
//! code).
//!
//! Unlike Bitcoin's pad-to-power-of-two construction, Monero hashes the
//! *overhang* first: for `n` leaves it finds the largest power of two
//! `p ≤ n`, leaves the first `2p − n` hashes untouched, pairs up the rest,
//! and then reduces the resulting exactly-`p` hashes as a perfect binary
//! tree. The root commits to the Coinbase transaction as leaf 0 — the fact
//! §4.2's attribution hinges on ("we could never by accident see a Merkle
//! tree root of another miner in the PoW input").

use minedig_primitives::Hash32;

fn hash_pair(a: &Hash32, b: &Hash32) -> Hash32 {
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(&a.0);
    buf[32..].copy_from_slice(&b.0);
    Hash32::keccak(&buf)
}

/// Computes the Monero tree hash of the given leaf hashes.
///
/// Panics on an empty slice: every block has at least its Coinbase, so an
/// empty tree is a logic error upstream.
///
/// ```
/// use minedig_chain::merkle::tree_hash;
/// use minedig_primitives::Hash32;
///
/// let leaves = vec![Hash32::keccak(b"coinbase"), Hash32::keccak(b"tx1")];
/// let root = tree_hash(&leaves);
/// // Changing the Coinbase leaf changes the root — the property block
/// // attribution relies on.
/// let other = tree_hash(&[Hash32::keccak(b"other pool"), leaves[1]]);
/// assert_ne!(root, other);
/// ```
pub fn tree_hash(hashes: &[Hash32]) -> Hash32 {
    match hashes.len() {
        0 => panic!("tree_hash of zero transactions"),
        1 => hashes[0],
        2 => hash_pair(&hashes[0], &hashes[1]),
        n => {
            // Largest power of two <= n.
            let mut cnt = n.next_power_of_two();
            if cnt > n {
                cnt /= 2;
            }
            // First 2*cnt - n hashes pass through; the rest pair up.
            let untouched = 2 * cnt - n;
            let mut level: Vec<Hash32> = Vec::with_capacity(cnt);
            level.extend_from_slice(&hashes[..untouched]);
            let mut i = untouched;
            while i < n {
                level.push(hash_pair(&hashes[i], &hashes[i + 1]));
                i += 2;
            }
            debug_assert_eq!(level.len(), cnt);
            // Reduce the perfect tree.
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len() / 2);
                for pair in level.chunks_exact(2) {
                    next.push(hash_pair(&pair[0], &pair[1]));
                }
                level = next;
            }
            level[0]
        }
    }
}

/// Convenience: tree hash over a Coinbase hash plus other tx hashes, in
/// block order (Coinbase first).
pub fn block_tree_hash(coinbase: Hash32, tx_hashes: &[Hash32]) -> Hash32 {
    let mut leaves = Vec::with_capacity(1 + tx_hashes.len());
    leaves.push(coinbase);
    leaves.extend_from_slice(tx_hashes);
    tree_hash(&leaves)
}

/// The Coinbase's Merkle path: leaf 0's right-hand siblings, bottom-up,
/// in the tree [`tree_hash`] builds over `[coinbase, tx_hashes..]`.
///
/// Leaf 0 always passes the overhang step untouched, so its first
/// sibling may be an overhang pair hash; each later sibling is the root
/// of the next subtree to its right. None of them depends on the
/// Coinbase, so a pool computes the path once per tip and then prices a
/// template refresh at log₂ n pair hashes ([`root_from_path`]) instead
/// of n − 1.
///
/// ```
/// use minedig_chain::merkle::{block_tree_hash, coinbase_path, root_from_path};
/// use minedig_primitives::Hash32;
///
/// let txs: Vec<Hash32> = (0..12u64).map(|i| Hash32::keccak(&i.to_le_bytes())).collect();
/// let path = coinbase_path(&txs);
/// assert_eq!(path.len(), 3); // 13 leaves: a perfect tree of 8 after the overhang
/// let cb = Hash32::keccak(b"coinbase");
/// assert_eq!(root_from_path(cb, &path), block_tree_hash(cb, &txs));
/// ```
pub fn coinbase_path(tx_hashes: &[Hash32]) -> Vec<Hash32> {
    let n = 1 + tx_hashes.len();
    if n <= 2 {
        return tx_hashes.to_vec();
    }
    let cnt = 1usize << n.ilog2();
    // Positions 1..cnt of the perfect tree's bottom level: the other
    // untouched leaves, then the overhang pairs.
    let untouched = 2 * cnt - n;
    let mut level: Vec<Hash32> = Vec::with_capacity(cnt - 1);
    level.extend_from_slice(&tx_hashes[..untouched - 1]);
    for pair in tx_hashes[untouched - 1..].chunks_exact(2) {
        level.push(hash_pair(&pair[0], &pair[1]));
    }
    // Leaf 0's sibling subtrees hold 1, 2, 4, … cnt/2 of those positions.
    let mut path = Vec::with_capacity(cnt.ilog2() as usize);
    let mut rest = &mut level[..];
    let mut size = 1;
    while !rest.is_empty() {
        let (subtree, tail) = rest.split_at_mut(size);
        path.push(reduce_perfect(subtree));
        rest = tail;
        size *= 2;
    }
    path
}

/// The Merkle root of a block whose Coinbase hashes to `coinbase`, from
/// that Coinbase's [`coinbase_path`].
pub fn root_from_path(coinbase: Hash32, path: &[Hash32]) -> Hash32 {
    path.iter()
        .fold(coinbase, |node, sibling| hash_pair(&node, sibling))
}

/// Root of a perfect binary tree over `hashes` (a power of two long),
/// reduced in place.
fn reduce_perfect(hashes: &mut [Hash32]) -> Hash32 {
    let mut len = hashes.len();
    while len > 1 {
        for j in 0..len / 2 {
            hashes[j] = hash_pair(&hashes[2 * j], &hashes[2 * j + 1]);
        }
        len /= 2;
    }
    hashes[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaf(i: u64) -> Hash32 {
        Hash32::keccak(&i.to_le_bytes())
    }

    fn leaves(n: usize) -> Vec<Hash32> {
        (0..n as u64).map(leaf).collect()
    }

    #[test]
    fn single_leaf_is_identity() {
        let l = leaf(0);
        assert_eq!(tree_hash(&[l]), l);
    }

    #[test]
    fn two_leaves_hash_pair() {
        let (a, b) = (leaf(0), leaf(1));
        let mut buf = [0u8; 64];
        buf[..32].copy_from_slice(&a.0);
        buf[32..].copy_from_slice(&b.0);
        assert_eq!(tree_hash(&[a, b]), Hash32::keccak(&buf));
    }

    #[test]
    fn three_leaves_overhang_structure() {
        // n=3: p=2, untouched=1 -> level = [h0, H(h1,h2)], root = H(h0, H(h1,h2)).
        let ls = leaves(3);
        let inner = tree_hash(&[ls[1], ls[2]]);
        assert_eq!(tree_hash(&ls), tree_hash(&[ls[0], inner]));
    }

    #[test]
    fn five_leaves_overhang_structure() {
        // n=5: p=4, untouched=3 -> [h0,h1,h2,H(h3,h4)] then perfect tree.
        let ls = leaves(5);
        let h34 = tree_hash(&[ls[3], ls[4]]);
        let expect = tree_hash(&[tree_hash(&[ls[0], ls[1]]), tree_hash(&[ls[2], h34])]);
        assert_eq!(tree_hash(&ls), expect);
    }

    #[test]
    #[should_panic(expected = "zero transactions")]
    fn empty_panics() {
        let _ = tree_hash(&[]);
    }

    #[test]
    fn root_depends_on_every_leaf() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33] {
            let base = leaves(n);
            let root = tree_hash(&base);
            for i in 0..n {
                let mut tampered = base.clone();
                tampered[i] = leaf(1000 + i as u64);
                assert_ne!(tree_hash(&tampered), root, "n={n} leaf={i}");
            }
        }
    }

    #[test]
    fn root_depends_on_order() {
        let mut ls = leaves(6);
        let root = tree_hash(&ls);
        ls.swap(0, 5);
        assert_ne!(tree_hash(&ls), root);
    }

    #[test]
    fn block_tree_hash_puts_coinbase_first() {
        let cb = leaf(99);
        let txs = leaves(3);
        let mut all = vec![cb];
        all.extend_from_slice(&txs);
        assert_eq!(block_tree_hash(cb, &txs), tree_hash(&all));
    }

    proptest! {
        #[test]
        fn coinbase_change_always_changes_root(n in 1usize..40, salt in any::<u64>()) {
            let mut ls = leaves(n);
            let root = tree_hash(&ls);
            ls[0] = leaf(salt.wrapping_add(1_000_000));
            prop_assume!(ls[0] != leaf(0));
            prop_assert_ne!(tree_hash(&ls), root);
        }

        #[test]
        fn deterministic(n in 1usize..64) {
            let ls = leaves(n);
            prop_assert_eq!(tree_hash(&ls), tree_hash(&ls));
        }

        #[test]
        fn coinbase_path_reproduces_tree_hash(others in 0usize..=300, salt in any::<u64>()) {
            let cb = leaf(salt);
            let txs: Vec<Hash32> = (0..others as u64).map(|i| leaf(i ^ 0x5eed)).collect();
            let mut all = vec![cb];
            all.extend_from_slice(&txs);
            prop_assert_eq!(root_from_path(cb, &coinbase_path(&txs)), tree_hash(&all));
        }
    }

    #[test]
    fn coinbase_path_matches_tree_hash_at_powers_of_two_and_neighbours() {
        let mut sizes = vec![1usize, 2, 3];
        for k in 2..=9 {
            sizes.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for n in sizes {
            let txs = leaves(n - 1);
            let path = coinbase_path(&txs);
            assert_eq!(path.len(), n.ilog2() as usize, "n={n}");
            for salt in [7u64, 1 << 40] {
                let cb = leaf(salt);
                let mut all = vec![cb];
                all.extend_from_slice(&txs);
                assert_eq!(root_from_path(cb, &path), tree_hash(&all), "n={n}");
            }
        }
    }
}
