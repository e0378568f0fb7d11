#![warn(missing_docs)]
//! The Coinhive short-link forwarding service (§4.1) and the research
//! tooling the paper built around it.
//!
//! `cnhv.co/<id>` links release their destination only after the visitor's
//! browser has computed (and the pool has credited) a creator-configured
//! number of hashes. The paper enumerated the whole ID space (increasing
//! alphanumeric IDs, 1,709,203 live links as of Feb 2018), extracted each
//! link's creator token and hash requirement, and resolved the cheap ones
//! with a standalone miner. This crate implements all four pieces:
//!
//! * [`ids`] — the bijective `[a-z0-9]{1,4}`-style ID scheme (increasing
//!   assignment is what made enumeration possible),
//! * [`model`] — the calibrated link-creation model: a heavy-tailed user
//!   base (one user owns ⅓ of all links, ten own 85 %), per-user hash
//!   requirement policies (the 512-hash spike, the 2^8–2^16 body, the
//!   10^19 misconfiguration tail) and destination URL preferences,
//! * [`service`] — the service itself: link table, visit documents
//!   (creator token + required hashes — exactly what the paper scraped),
//!   and hash-count-gated redirect release,
//! * [`enumerate`] — the researcher's ID-space walk producing the Fig 3 /
//!   Fig 4 datasets (biased and user-bias-removed),
//! * [`campaign`] — the same walk as a resumable campaign on any
//!   backend, keeping a 16-byte [`Sighting`] per live link,
//! * [`probe`] — the transport abstraction under the walk: probes can
//!   fail (distinctly from finding a dead ID), faults are injected on a
//!   seeded schedule, and retries follow the shared
//!   [`minedig_primitives::retry::RetryPolicy`],
//! * [`resolve`] — the non-browser resolver: real PoW through the pool's
//!   miner client (including the XOR de-obfuscation) or an accounted fast
//!   path for bulk studies.

pub mod campaign;
pub mod enumerate;
pub mod ids;
pub mod model;
pub mod probe;
pub mod resolve;
pub mod service;

pub use campaign::{EnumCampaign, EnumCampaignOutput, Sighting, WalkCounts, WalkLedger};
pub use ids::{code_to_index, index_to_code};
pub use model::{LinkPopulation, LinkRecord, ModelConfig};
pub use probe::{FaultyProber, LinkProber, ProbeError, ProbePolicy};
pub use service::{ShortlinkService, VisitDoc};
