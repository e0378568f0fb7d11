#![warn(missing_docs)]
//! The §4.2 analysis: associating blocks in a privacy-preserving
//! blockchain with a mining pool, and the economics built on top.
//!
//! Methodology (quoted from the paper): connect to every pool endpoint
//! and request fresh PoW inputs continuously; *"we cluster the PoW inputs
//! by the pointer to the previous (at time of reception, most recent)
//! block"*; when a new block appears, *"if the transactions in that block
//! form a Merkle tree whose root is equal to that in the PoW input, we
//! can be sure that the PoW input was the one that was used to mine the
//! block"* — the Coinbase leaf makes cross-pool collisions impossible.
//!
//! * [`poller`] — the endpoint observer (handles the pool's XOR blob
//!   obfuscation, records distinct blobs per previous-block pointer and
//!   outage gaps),
//! * [`attribution`] — the prev-pointer clustering and Merkle-root match,
//! * [`estimate`] — difficulty→hashrate, pool share, user-count bounds
//!   (20–100 H/s per client) and XMR revenue accounting,
//! * [`calendar`] — the Figure 5 day×hour block matrix,
//! * [`economics`] — XMR→USD conversion, the 70/30 split, per-site
//!   revenue arithmetic (the paper's feasibility discussion),
//! * [`scenario`] — a turnkey §4.2 world: rest-of-network actor + the
//!   instrumented Coinhive-style pool + observer + attributor wired into
//!   the chain netsim, with diurnal/holiday/outage modulation.

pub mod attribution;
pub mod calendar;
pub mod economics;
pub mod estimate;
pub mod poller;
pub mod scenario;

pub use attribution::{AttributedBlock, Attributor};
pub use calendar::BlockCalendar;
pub use poller::Observer;
pub use scenario::{run_scenario, ScenarioConfig, ScenarioResult};
