//! # minedig
//!
//! A Rust reproduction of **“Digging into Browser-based Crypto Mining”**
//! (Jan Rüth, Torsten Zimmermann, Konrad Wolsing, Oliver Hohlfeld —
//! IMC 2018), built as a workspace of substrates plus the paper's three
//! methodologies. This umbrella crate re-exports every subsystem; see
//! `DESIGN.md` for the architecture and the per-experiment index, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! * [`primitives`] — Keccak/SHA-3, SHA-256, varints, deterministic RNG,
//!   statistics.
//! * [`pow`] — CryptoNight-style memory-hard proof of work.
//! * [`chain`] — Monero-style blockchain (blocks, tree-hash, difficulty,
//!   emission) and the statistical network simulator.
//! * [`net`] — JSON, WebSocket-style framing, channel and TCP transports.
//! * [`pool`] — the Coinhive-style pool (backends, job protocol, XOR blob
//!   obfuscation, 70/30 accounting) and miner client.
//! * [`wasm`] — a WebAssembly encoder and decoder, the ~160-build miner
//!   corpus, and the static SHA-256 and instruction-mix fingerprint with
//!   its signature database and memo; no module is ever run.
//! * [`browser`] — the instrumented headless-browser simulator with the
//!   paper's page-load policy.
//! * [`web`] — the calibrated synthetic web (zones, categories, miner
//!   deployment, page synthesis, churn).
//! * [`nocoin`] — the Adblock-Plus filter engine with a NoCoin snapshot.
//! * [`shortlink`] — the cnhv.co-style link-forwarding service and its
//!   enumeration/resolution tooling.
//! * [`analysis`] — pool-to-block attribution, estimators and calendars.
//! * [`core`] — the paper's pipelines as a public API.

pub use minedig_analysis as analysis;
pub use minedig_browser as browser;
pub use minedig_chain as chain;
pub use minedig_core as core;
pub use minedig_net as net;
pub use minedig_nocoin as nocoin;
pub use minedig_pool as pool;
pub use minedig_pow as pow;
pub use minedig_primitives as primitives;
pub use minedig_shortlink as shortlink;
pub use minedig_wasm as wasm;
pub use minedig_web as web;
