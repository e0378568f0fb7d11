//! Pool backends: independent template builders.
//!
//! §4.2: *"We found that we never obtain more than 8 different PoW inputs
//! [per endpoint]. Coinhive currently operates 32 mining endpoints […]
//! when we connect to all of them […] we observe at most 128 different PoW
//! inputs per block. While this suggests that there are two endpoints per
//! backend system…"*
//!
//! Model: each backend builds its own block template for the current tip,
//! with a backend-specific Coinbase extra nonce (hence a distinct Merkle
//! root), and refreshes the template every 15 s, up to 8 versions while
//! the height lasts. Two endpoints map onto each backend. 16 backends × 8
//! template versions = the paper's ≤128 distinct blobs per height.

use minedig_chain::block::{Block, BlockHeader};
use minedig_chain::netsim::TipInfo;
use minedig_chain::tx::{MinerTag, Transaction};
use minedig_primitives::Hash32;

/// A single backend's template builder.
#[derive(Clone, Debug)]
pub struct Backend {
    /// Backend index within the pool.
    pub index: u16,
    /// Pool-wide Coinbase recipient tag.
    pub pool_tag: MinerTag,
    /// Seed mixed into per-version extra nonces.
    pub seed: u64,
}

impl Backend {
    /// Coinbase extra bytes for a template version at a height: the
    /// backend id, the version, and deterministic entropy. Distinct per
    /// (backend, height, version), which is what fans the Merkle roots
    /// out.
    pub fn extra_nonce(&self, height: u64, version: u32) -> Vec<u8> {
        let mut input = Vec::with_capacity(24);
        input.extend_from_slice(&self.seed.to_le_bytes());
        input.extend_from_slice(&height.to_le_bytes());
        input.extend_from_slice(&self.index.to_le_bytes());
        input.extend_from_slice(&version.to_le_bytes());
        let h = Hash32::keccak(&input);
        let mut extra = Vec::with_capacity(11);
        extra.push(self.index as u8);
        extra.push((self.index >> 8) as u8);
        extra.push(version as u8);
        extra.extend_from_slice(&h.0[..8]);
        extra
    }

    /// The Coinbase of `version` of the current tip's template: the only
    /// transaction that differs between backends and versions, so the
    /// only one a template refresh has to hash.
    pub fn coinbase(&self, tip: &TipInfo, version: u32) -> Transaction {
        Transaction::coinbase(
            tip.height,
            tip.reward,
            self.pool_tag,
            self.extra_nonce(tip.height, version),
        )
    }

    /// Builds the template for `version` of the current tip. `timestamp`
    /// should be the virtual time of the refresh that produced this
    /// version; the block keeps it even if mined later (matching how real
    /// pool jobs carry the template's timestamp, not the solve time).
    pub fn template(&self, tip: &TipInfo, version: u32, timestamp: u64) -> Block {
        Block {
            header: BlockHeader {
                major_version: 7,
                minor_version: 7,
                timestamp,
                prev_id: tip.prev_id,
                nonce: 0,
            },
            miner_tx: self.coinbase(tip, version),
            txs: tip.mempool.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tip() -> TipInfo {
        TipInfo {
            height: 100,
            prev_id: Hash32::keccak(b"tip"),
            prev_timestamp: 1_000_000,
            reward: 4_400_000_000_000,
            difficulty: 55_400_000_000,
            mempool: vec![
                Transaction::transfer(Hash32::keccak(b"a")),
                Transaction::transfer(Hash32::keccak(b"b")),
            ],
        }
    }

    fn backend(i: u16) -> Backend {
        Backend {
            index: i,
            pool_tag: MinerTag::from_label("coinhive"),
            seed: 42,
        }
    }

    #[test]
    fn different_backends_different_roots() {
        let t = tip();
        let a = backend(0).template(&t, 0, 1_000_010);
        let b = backend(1).template(&t, 0, 1_000_010);
        assert_ne!(a.merkle_root(), b.merkle_root());
        // But both claim the same reward for the same recipient.
        assert_eq!(a.miner_tx.coinbase_reward(), b.miner_tx.coinbase_reward());
        assert_eq!(a.miner_tx.coinbase_miner(), b.miner_tx.coinbase_miner());
    }

    #[test]
    fn different_versions_different_roots() {
        let t = tip();
        let b = backend(3);
        let roots: Vec<Hash32> = (0..8)
            .map(|v| b.template(&t, v, 1_000_000 + v as u64 * 15).merkle_root())
            .collect();
        for i in 0..roots.len() {
            for j in 0..i {
                assert_ne!(roots[i], roots[j], "versions {i} and {j} collide");
            }
        }
    }

    #[test]
    fn template_is_deterministic() {
        let t = tip();
        let b = backend(5);
        assert_eq!(b.template(&t, 2, 999), b.template(&t, 2, 999));
    }

    #[test]
    fn sixteen_backends_times_eight_versions_are_all_distinct() {
        // The paper's 128-blob bound comes from this structure.
        let t = tip();
        let mut roots = std::collections::HashSet::new();
        for i in 0..16u16 {
            for v in 0..8u32 {
                roots.insert(backend(i).template(&t, v, 1_000_000).merkle_root());
            }
        }
        assert_eq!(roots.len(), 128);
    }

    #[test]
    fn extra_nonce_encodes_backend_and_version() {
        let e = backend(0x0102).extra_nonce(7, 3);
        assert_eq!(e[0], 0x02);
        assert_eq!(e[1], 0x01);
        assert_eq!(e[2], 3);
        assert_eq!(e.len(), 11);
    }
}
