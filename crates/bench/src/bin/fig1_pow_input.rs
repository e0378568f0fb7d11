//! Figure 1: the Monero PoW input, dissected on a worked example.
//!
//! Builds a real block (Coinbase + transfers), prints the hashing blob
//! field by field, verifies the Merkle linkage and mines it at a toy
//! difficulty with the real CryptoNight-style hash.

use minedig_chain::blob::HashingBlob;
use minedig_chain::block::{Block, BlockHeader};
use minedig_chain::merkle::block_tree_hash;
use minedig_chain::tx::{MinerTag, Transaction};
use minedig_pow::Variant;
use minedig_primitives::{configured, read_env, to_hex, Hash32};

fn main() {
    // No knobs: every MINEDIG_* variable is refused.
    let _ = configured(read_env(&[]));
    println!("Figure 1 — Monero blockchain and PoW mining input\n");

    let txs: Vec<Transaction> = (0..4u64)
        .map(|i| Transaction::transfer(Hash32::keccak(&i.to_le_bytes())))
        .collect();
    let mut block = Block {
        header: BlockHeader {
            major_version: 7,
            minor_version: 7,
            timestamp: 1_526_342_400,
            prev_id: Hash32::keccak(b"previous block"),
            nonce: 0,
        },
        miner_tx: Transaction::coinbase(
            1_600_000,
            4_480_000_000_000,
            MinerTag::from_label("coinhive"),
            vec![0x01, 0x02],
        ),
        txs,
    };

    let blob = block.hashing_blob();
    println!("Block header (PoW input fields):");
    println!("  maj: {}", blob.major_version);
    println!("  min: {}", blob.minor_version);
    println!("  ts:  {} (unix)", blob.timestamp);
    println!("  prev: {}", blob.prev_id);
    println!("  nonce: {:#010x}  <- ??? (what miners search)", blob.nonce);
    println!("  merkle_root: {}", blob.merkle_root);
    println!(
        "  num_tx: {} (Coinbase + {} transfers)",
        blob.tx_count,
        block.txs.len()
    );

    let bytes = blob.to_bytes();
    println!(
        "\nSerialized hashing blob ({} bytes):\n  {}",
        bytes.len(),
        to_hex(&bytes)
    );

    // Verify the Merkle linkage the attribution methodology relies on.
    let tx_hashes: Vec<Hash32> = block.txs.iter().map(|t| t.hash()).collect();
    let recomputed = block_tree_hash(block.miner_tx.hash(), &tx_hashes);
    assert_eq!(recomputed, blob.merkle_root);
    println!("\nMerkle root recomputed from Coinbase + transactions: MATCH");
    println!("  (the Coinbase leaf names the miner — this is what makes");
    println!("   \u{a7}4.2's block-to-pool attribution sound)");

    // Round-trip the blob like the paper's observer does.
    let parsed = HashingBlob::parse(&bytes).expect("blob parses");
    assert_eq!(parsed, blob);
    println!("Blob wire-format round-trip: OK");

    // Mine at a toy difficulty with the real slow hash.
    let difficulty = 64;
    let attempts = block
        .mine(Variant::Test, difficulty, 1_000_000)
        .expect("mineable");
    println!(
        "\nMined at difficulty {difficulty} with the CryptoNight-style hash: nonce {:#010x} after {attempts} attempts",
        block.header.nonce
    );
    println!("  PoW hash: {}", block.pow_hash(Variant::Test));
    println!("  expected attempts ≈ difficulty = {difficulty}");
    println!("\nBlock id: {}", block.id());
}
