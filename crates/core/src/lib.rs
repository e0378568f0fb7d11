#![warn(missing_docs)]
//! `minedig-core`: the paper's methodology as a clean public API.
//!
//! *Digging into Browser-based Crypto Mining* (Rüth et al., IMC 2018)
//! makes three measurements; this crate exposes each as a pipeline over
//! the workspace's substrates:
//!
//! * [`scan`] — §3's prevalence measurements: the zgrab + NoCoin static
//!   scan over whole zones and the instrumented-browser scan with Wasm
//!   fingerprinting, plus the cross-tabulation showing how much the block
//!   list misses (Fig 2, Tables 1–3),
//! * [`campaign`] — the two scans as checkpointable campaigns, runnable
//!   on any execution backend and bit-identical to the sequential pass,
//! * [`attribute`] — §4.2's blockchain attribution with paper-calibrated
//!   scenario presets (Fig 5, Table 6),
//! * [`shortlink_study`] — §4.1's enumeration/resolution study of the
//!   link-forwarding service (Figs 3–4, Tables 4–5),
//! * [`report`] — paper-vs-measured comparison tables and simple text
//!   renderings of figure series (used by the `minedig-bench` binaries
//!   and recorded in EXPERIMENTS.md).
//!
//! ## Quickstart
//!
//! ```
//! use minedig_core::scan::{build_reference_db, chrome_scan};
//! use minedig_web::{Population, Zone};
//!
//! // A miniature .org zone (tiny clean sample for the doctest).
//! let population = Population::generate(Zone::Org, 7, 5);
//! let db = build_reference_db(0.7);
//! let outcome = chrome_scan(&population, &db, 7);
//! // The fingerprint approach finds far more miners than the list.
//! assert!(outcome.miner_wasm_domains > outcome.blocked_by_nocoin);
//! ```

pub mod attribute;
pub mod campaign;
pub mod report;
pub mod scan;
pub mod shortlink_study;

pub use campaign::{ChromeCampaign, ZgrabCampaign};
pub use report::Comparison;
pub use scan::{
    build_reference_db, chrome_scan, chrome_scan_with, zgrab_scan, zgrab_scan_with,
    ChromeScanOutcome, FetchModel, FetchStats, ZgrabScanOutcome,
};
pub use shortlink_study::{run_study, StudyConfig};
