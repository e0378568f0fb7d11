#![warn(missing_docs)]
//! A Coinhive-style Monero mining pool and its miner client.
//!
//! §4 of the paper dissects Coinhive: a pool that hands PoW jobs to
//! browser miners authenticated by a per-customer token, keeps 30 % of the
//! block reward, operates 32 WebSocket endpoints backed by (apparently) 16
//! backend systems each serving up to 8 distinct PoW inputs per block
//! height, and — as the authors discovered while building a non-browser
//! resolver — XORs a fixed value at a fixed offset into the job blob as a
//! countermeasure against using the web miner outside the Coinhive
//! environment (§4.1, footnote 3). This crate implements all of that:
//!
//! * [`protocol`] — the JSON job protocol (auth / job / submit / accept),
//! * [`obfuscation`] — the XOR-at-fixed-offset blob countermeasure,
//! * [`backend`] — per-backend block templates with distinct Coinbase
//!   extra nonces (the reason Merkle roots differ per backend),
//! * [`pool`] — the pool service: template management, job issuance, share
//!   validation, and the `TemplateSource` integration that makes netsim
//!   blocks consistent with served jobs,
//! * [`accounting`] — pro-rata share accounting with the 70/30 split,
//! * [`miner`] — the client: authenticates, de-obfuscates, grinds nonces,
//!   submits shares (the paper's §4.1 resolver replicates exactly this).

pub mod accounting;
pub mod backend;
pub mod miner;
pub mod obfuscation;
pub mod pool;
pub mod protocol;

pub use miner::MinerClient;
pub use pool::{Pool, PoolConfig};
pub use protocol::{ClientMsg, Job, ServerMsg, Token};
