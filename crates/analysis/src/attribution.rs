//! Block attribution: match a new block's Merkle root against the blob
//! cluster observed for its previous-block pointer.

use minedig_chain::block::Block;
use minedig_primitives::Hash32;
use std::collections::BTreeSet;

/// A block attributed to the observed pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttributedBlock {
    /// Chain height.
    pub height: u64,
    /// Block id.
    pub block_id: Hash32,
    /// Block timestamp (template time).
    pub timestamp: u64,
    /// Time the block was accepted (driver-supplied, for calendars).
    pub found_at: u64,
    /// Coinbase reward in atomic units.
    pub reward: u64,
}

/// Attribution bookkeeping.
#[derive(Debug, Default)]
pub struct Attributor {
    /// Blocks proven to be pool-mined.
    pub attributed: Vec<AttributedBlock>,
    /// Blocks judged against an observed cluster that did not match —
    /// genuinely other miners' blocks.
    pub unmatched: u64,
    /// Blocks judged with no cluster available (observation gaps:
    /// outages, startup, missed heights). These say nothing about who
    /// mined the block, so they are not counted in `unmatched`.
    pub gaps: u64,
}

impl Attributor {
    /// Creates an empty attributor.
    pub fn new() -> Attributor {
        Attributor::default()
    }

    /// Judges one accepted block against the cluster observed for its
    /// prev pointer (if any). Returns true if attributed.
    pub fn judge(
        &mut self,
        block: &Block,
        found_at: u64,
        cluster: Option<&BTreeSet<Hash32>>,
    ) -> bool {
        let Some(roots) = cluster else {
            self.gaps += 1;
            return false;
        };
        let matched = roots.contains(&block.merkle_root());
        if matched {
            self.attributed.push(AttributedBlock {
                height: block
                    .miner_tx
                    .kind
                    .clone()
                    .coinbase_height()
                    .unwrap_or_default(),
                block_id: block.id(),
                timestamp: block.header.timestamp,
                found_at,
                reward: block.miner_tx.coinbase_reward().unwrap_or(0),
            });
        } else {
            self.unmatched += 1;
        }
        matched
    }
}

/// Helper: extract the Coinbase height from a tx kind.
trait CoinbaseHeight {
    fn coinbase_height(self) -> Option<u64>;
}

impl CoinbaseHeight for minedig_chain::tx::TxKind {
    fn coinbase_height(self) -> Option<u64> {
        match self {
            minedig_chain::tx::TxKind::Coinbase { height, .. } => Some(height),
            minedig_chain::tx::TxKind::Transfer { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minedig_chain::block::BlockHeader;
    use minedig_chain::tx::{MinerTag, Transaction};

    fn block(extra: Vec<u8>) -> Block {
        Block {
            header: BlockHeader {
                major_version: 7,
                minor_version: 7,
                timestamp: 1_000,
                prev_id: Hash32::keccak(b"prev"),
                nonce: 5,
            },
            miner_tx: Transaction::coinbase(42, 999, MinerTag::from_label("pool"), extra),
            txs: vec![Transaction::transfer(Hash32::keccak(b"t"))],
        }
    }

    #[test]
    fn matching_root_attributes() {
        let b = block(vec![1]);
        let mut cluster = BTreeSet::new();
        cluster.insert(b.merkle_root());
        cluster.insert(Hash32::keccak(b"unrelated"));
        let mut a = Attributor::new();
        assert!(a.judge(&b, 1_060, Some(&cluster)));
        assert_eq!(a.attributed.len(), 1);
        assert_eq!(a.attributed[0].height, 42);
        assert_eq!(a.attributed[0].reward, 999);
        assert_eq!(a.attributed[0].found_at, 1_060);
    }

    #[test]
    fn non_matching_root_does_not_attribute() {
        // A block whose Coinbase extra differs from every observed
        // template — i.e. another miner's block.
        let other = block(vec![2]);
        let mut cluster = BTreeSet::new();
        cluster.insert(block(vec![1]).merkle_root());
        let mut a = Attributor::new();
        assert!(!a.judge(&other, 1_060, Some(&cluster)));
        assert_eq!(a.unmatched, 1);
        assert!(a.attributed.is_empty());
    }

    #[test]
    fn missing_cluster_counts_as_gap_not_unmatched() {
        // Regression: a judge with no cluster used to land in
        // `unmatched`, conflating "we weren't watching" with "another
        // miner won" and deflating the share.
        let mut a = Attributor::new();
        assert!(!a.judge(&block(vec![1]), 1_060, None));
        assert_eq!(a.gaps, 1);
        assert_eq!(a.unmatched, 0);
    }
}
