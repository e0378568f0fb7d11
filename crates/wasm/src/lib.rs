#![warn(missing_docs)]
//! A WebAssembly binary toolchain: encoder, parser, validator, interpreter,
//! miner-corpus generator, and the paper's fingerprinting method.
//!
//! §3.2 of the paper rests on Wasm mechanics: *"we build signatures from
//! the Wasm code by combining (in a strict order) and then hashing the
//! contained functions with SHA256 [...] features e.g., comprise the
//! number of XOR, shift or load operations which we found to be quite
//! distinctive"*. To run that methodology for real we implement the
//! relevant slice of the WebAssembly 1.0 binary format:
//!
//! * [`opcode`] — the integer/memory/control instruction subset miners use
//!   (Cryptonight kernels are integer and memory heavy; no floats needed),
//! * [`module`] — module building, binary encoding and parsing (type,
//!   function, memory, export and code sections; LEB128 throughout),
//! * [`validate`] — stack-discipline validation of function bodies,
//! * [`interp`] — a fueled interpreter (used to prove corpus modules are
//!   executable and by the browser simulator to "run" miner kernels),
//! * [`corpus`] — a generator producing the ~160 structurally distinct
//!   miner builds the paper catalogued, plus benign Wasm,
//! * [`fingerprint`] — ordered-function SHA-256 signatures plus the
//!   instruction-mix feature vector,
//! * [`sigdb`] — the signature database mapping fingerprints to miner
//!   families (exact hash first, feature-similarity fallback).

pub mod cache;
pub mod corpus;
pub mod fingerprint;
pub mod interp;
pub mod module;
pub mod opcode;
pub mod sigdb;
pub mod validate;

pub use cache::FingerprintCache;
pub use fingerprint::{fingerprint, fingerprint_with, Fingerprint};
pub use module::{Module, ModuleBuilder};
pub use sigdb::{MinerFamily, SignatureDb};
