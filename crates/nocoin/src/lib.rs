#![warn(missing_docs)]
//! The NoCoin detection pipeline: HTML script extraction, an
//! Adblock-Plus-syntax filter engine, and a NoCoin-style rule snapshot.
//!
//! §3.1 of the paper downloads landing pages, extracts `<script>` tags
//! with lxml and matches them against the public NoCoin block list —
//! "regular expressions to detect and subsequently block mining code
//! using common ad blockers". This crate reproduces the whole pipeline:
//!
//! * [`extract`] — a tolerant HTML tokenizer that pulls script tags out of
//!   (possibly truncated) landing pages, standing in for lxml; it borrows
//!   from the page and jumps between `<` bytes,
//! * [`filter`] — Adblock-Plus blocking-rule syntax (`||host^`, anchors,
//!   `*` wildcards, `^` separators, `$` options) and URL matching that
//!   allocates nothing and stays polynomial however many `*`s a rule has,
//! * [`list`] — a bundled snapshot of 2018-era NoCoin rules, each tagged
//!   with the mining service it targets (the Figure 2 legend),
//! * [`engine`] — applies a rule list to a fetched page and reports hits,
//!   testing each URL only against the rules its tokens select through an
//!   Adblock Plus keyword index.

pub mod engine;
pub mod extract;
pub mod filter;
pub mod list;

pub use engine::{FilterHit, NoCoinEngine};
pub use filter::Rule;
