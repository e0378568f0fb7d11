#![warn(missing_docs)]
//! The §3.2 Wasm toolchain: encoder, decoder, miner-corpus generator and
//! the paper's fingerprinting method. It reads code and never runs it.
//!
//! §3.2 of the paper classifies Wasm statically: *"we build signatures
//! from the Wasm code by combining (in a strict order) and then hashing
//! the contained functions with SHA256 [...] features e.g., comprise the
//! number of XOR, shift or load operations which we found to be quite
//! distinctive"*. To run that methodology for real we implement the
//! relevant slice of the WebAssembly 1.0 binary format:
//!
//! * [`opcode`] — the integer/memory/control instruction subset miners use
//!   (Cryptonight kernels are integer and memory heavy; no floats needed),
//! * [`module`] — module building, binary encoding and parsing (type,
//!   function, memory, export and code sections; LEB128 throughout),
//! * [`corpus`] — a generator producing the ~160 structurally distinct
//!   miner builds the paper catalogued, plus benign Wasm,
//! * [`fingerprint`] — ordered-function SHA-256 signatures plus the
//!   instruction-mix feature vector,
//! * [`sigdb`] — the signature database mapping fingerprints to miner
//!   families (exact hash first, feature-similarity fallback),
//! * [`cache`] — the content-addressed fingerprint memo a scan shares
//!   across its workers.

pub mod cache;
pub mod corpus;
pub mod fingerprint;
pub mod module;
pub mod opcode;
pub mod sigdb;

pub use cache::FingerprintCache;
pub use fingerprint::{fingerprint, fingerprint_with, Fingerprint};
pub use module::{Module, ModuleBuilder};
pub use sigdb::{MinerFamily, SignatureDb};
