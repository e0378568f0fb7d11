//! In-memory validated chain store.
//!
//! `append` validates structure only (prev link, Coinbase shape,
//! reward): block discovery is sampled by the statistical network
//! simulator instead of ground out hash by hash, so no block a program
//! appends carries real PoW. A block's own PoW is checked with
//! [`Block::pow_valid`].

use crate::block::Block;
use crate::difficulty::DifficultyTracker;
use crate::emission::base_reward;
use crate::tx::TxKind;
use minedig_pow::Difficulty;
use minedig_primitives::Hash32;

/// Chain validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The block's `prev_id` does not reference the current tip.
    BadPrevId {
        /// What the block referenced.
        got: Hash32,
        /// The actual tip id.
        expected: Hash32,
    },
    /// First transaction is not a Coinbase, or a Coinbase appears later.
    BadCoinbase,
    /// Coinbase height does not equal the block's height.
    BadCoinbaseHeight {
        /// Height in the Coinbase.
        got: u64,
        /// Expected chain height.
        expected: u64,
    },
    /// Coinbase reward does not match the emission schedule.
    BadReward {
        /// Claimed reward.
        got: u64,
        /// Emission-schedule reward.
        expected: u64,
    },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::BadPrevId { got, expected } => {
                write!(f, "bad prev id {got} (expected {expected})")
            }
            ChainError::BadCoinbase => f.write_str("first tx must be the only Coinbase"),
            ChainError::BadCoinbaseHeight { got, expected } => {
                write!(f, "coinbase height {got} (expected {expected})")
            }
            ChainError::BadReward { got, expected } => {
                write!(f, "coinbase reward {got} (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// An append-only, validated block chain.
pub struct Chain {
    blocks: Vec<Block>,
    /// The last block's id, computed once when it was appended.
    tip_id: Hash32,
    tracker: DifficultyTracker,
    supply: u64,
}

impl Chain {
    /// Creates an empty chain starting from the given already-generated
    /// supply (atomic units). Use [`crate::emission::supply_mid_2018`] to
    /// anchor a simulation in the paper's observation window.
    pub fn new(initial_supply: u64) -> Chain {
        Chain {
            blocks: Vec::new(),
            tip_id: Hash32::ZERO,
            tracker: DifficultyTracker::new(),
            supply: initial_supply,
        }
    }

    /// Pre-seeds the difficulty window with `n` synthetic blocks at the
    /// given difficulty ending at `start_time`, so a simulation starts at
    /// a historical difficulty instead of bootstrapping from 1. Only the
    /// retarget state is affected; no blocks are stored.
    pub fn seed_difficulty(&mut self, start_time: u64, difficulty: Difficulty, n: usize) {
        let interval = crate::TARGET_BLOCK_TIME;
        let span = interval * n as u64;
        let first = start_time.saturating_sub(span);
        for i in 0..n as u64 {
            self.tracker.push(first + i * interval, difficulty);
        }
    }

    /// Current chain height (number of stored blocks).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Id of the tip block, or `Hash32::ZERO` for an empty chain.
    pub fn tip_id(&self) -> Hash32 {
        self.tip_id
    }

    /// The tip block, if any.
    pub fn tip(&self) -> Option<&Block> {
        self.blocks.last()
    }

    /// Block at the given height.
    pub fn block_at(&self, height: u64) -> Option<&Block> {
        self.blocks.get(height as usize)
    }

    /// Already-generated supply in atomic units.
    pub fn supply(&self) -> u64 {
        self.supply
    }

    /// Reward the next block's Coinbase must claim.
    pub fn next_reward(&self) -> u64 {
        base_reward(self.supply)
    }

    /// Difficulty the next block must satisfy.
    pub fn next_difficulty(&self) -> Difficulty {
        self.tracker.next_difficulty()
    }

    /// Iterates over all stored blocks in height order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Validates and appends a block.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        if block.header.prev_id != self.tip_id {
            return Err(ChainError::BadPrevId {
                got: block.header.prev_id,
                expected: self.tip_id,
            });
        }
        if !block.miner_tx.is_coinbase() || block.txs.iter().any(|t| t.is_coinbase()) {
            return Err(ChainError::BadCoinbase);
        }
        let height = self.height();
        if let TxKind::Coinbase { height: h, .. } = block.miner_tx.kind {
            if h != height {
                return Err(ChainError::BadCoinbaseHeight {
                    got: h,
                    expected: height,
                });
            }
        }
        let expected_reward = self.next_reward();
        let got_reward = block.miner_tx.coinbase_reward().unwrap_or(0);
        if got_reward != expected_reward {
            return Err(ChainError::BadReward {
                got: got_reward,
                expected: expected_reward,
            });
        }
        let difficulty = self.next_difficulty();
        self.tracker.push(block.header.timestamp, difficulty);
        self.supply += got_reward;
        self.tip_id = block.id();
        self.blocks.push(block);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockHeader;
    use crate::tx::{MinerTag, Transaction};

    fn make_block(chain: &Chain, ts: u64, miner: &str) -> Block {
        Block {
            header: BlockHeader {
                major_version: 7,
                minor_version: 7,
                timestamp: ts,
                prev_id: chain.tip_id(),
                nonce: 0,
            },
            miner_tx: Transaction::coinbase(
                chain.height(),
                chain.next_reward(),
                MinerTag::from_label(miner),
                vec![],
            ),
            txs: vec![Transaction::transfer(Hash32::keccak(&ts.to_le_bytes()))],
        }
    }

    #[test]
    fn append_chain_of_blocks() {
        let mut chain = Chain::new(0);
        for i in 0..10 {
            let b = make_block(&chain, 1000 + i * 120, "solo");
            chain.append(b).unwrap();
        }
        assert_eq!(chain.height(), 10);
        assert_eq!(chain.block_at(9).map(Block::id), Some(chain.tip_id()));
    }

    #[test]
    fn tip_id_is_the_last_appended_blocks_id() {
        let mut chain = Chain::new(0);
        assert_eq!(chain.tip_id(), Hash32::ZERO);
        for i in 0..10 {
            let block = make_block(&chain, 1000 + i * 120, "solo");
            chain.append(block).unwrap();
            assert_eq!(
                Some(chain.tip_id()),
                chain.tip().map(Block::id),
                "block {i}"
            );
            let tip = chain.tip_id();
            let mut fork = make_block(&chain, 2000 + i, "solo");
            fork.header.prev_id = Hash32::keccak(b"fork");
            assert!(chain.append(fork).is_err());
            let mut bad_reward = make_block(&chain, 2000 + i, "solo");
            bad_reward.miner_tx = Transaction::coinbase(
                chain.height(),
                chain.next_reward() + 1,
                MinerTag::from_label("x"),
                vec![],
            );
            assert!(chain.append(bad_reward).is_err());
            assert_eq!(chain.tip_id(), tip, "a rejected append moved the tip");
        }
    }

    #[test]
    fn rejects_wrong_prev() {
        let mut chain = Chain::new(0);
        chain.append(make_block(&chain, 1000, "solo")).unwrap();
        let mut bad = make_block(&chain, 1120, "solo");
        bad.header.prev_id = Hash32::keccak(b"fork");
        assert!(matches!(
            chain.append(bad),
            Err(ChainError::BadPrevId { .. })
        ));
    }

    #[test]
    fn rejects_wrong_reward() {
        let mut chain = Chain::new(0);
        let mut bad = make_block(&chain, 1000, "solo");
        bad.miner_tx = Transaction::coinbase(
            0,
            chain.next_reward() + 1,
            MinerTag::from_label("x"),
            vec![],
        );
        assert!(matches!(
            chain.append(bad),
            Err(ChainError::BadReward { .. })
        ));
    }

    #[test]
    fn rejects_wrong_coinbase_height() {
        let mut chain = Chain::new(0);
        let mut bad = make_block(&chain, 1000, "solo");
        bad.miner_tx =
            Transaction::coinbase(5, chain.next_reward(), MinerTag::from_label("x"), vec![]);
        assert!(matches!(
            chain.append(bad),
            Err(ChainError::BadCoinbaseHeight { .. })
        ));
    }

    #[test]
    fn rejects_transfer_as_miner_tx() {
        let mut chain = Chain::new(0);
        let mut bad = make_block(&chain, 1000, "solo");
        bad.miner_tx = Transaction::transfer(Hash32::ZERO);
        assert!(matches!(chain.append(bad), Err(ChainError::BadCoinbase)));
    }

    #[test]
    fn rejects_second_coinbase_in_tx_list() {
        let mut chain = Chain::new(0);
        let mut bad = make_block(&chain, 1000, "solo");
        bad.txs.push(Transaction::coinbase(
            0,
            1,
            MinerTag::from_label("smuggled"),
            vec![],
        ));
        assert!(matches!(chain.append(bad), Err(ChainError::BadCoinbase)));
    }

    #[test]
    fn supply_grows_by_rewards() {
        let mut chain = Chain::new(crate::emission::supply_mid_2018());
        let before = chain.supply();
        let reward = chain.next_reward();
        chain.append(make_block(&chain, 1000, "solo")).unwrap();
        assert_eq!(chain.supply(), before + reward);
    }

    #[test]
    fn seeded_difficulty_is_respected() {
        let mut chain = Chain::new(0);
        chain.seed_difficulty(1_524_700_800, 55_400_000_000, 720);
        let d = chain.next_difficulty();
        let ratio = d as f64 / 55_400_000_000.0;
        assert!((0.95..1.1).contains(&ratio), "ratio {ratio}");
    }
}
