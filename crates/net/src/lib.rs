#![warn(missing_docs)]
//! Networking substrate: a WebSocket-style frame codec, a minimal JSON
//! implementation, and transports.
//!
//! The systems the paper measures talk JSON over WebSockets: the Coinhive
//! miner authenticates with a user token and receives PoW jobs, and the
//! paper's observer connects to all 32 pool endpoints requesting jobs every
//! 500 ms (§4.2). This crate provides those mechanics:
//!
//! * [`json`] — a small, total JSON encoder/decoder (implemented in-repo to
//!   keep the workspace within its approved dependency set),
//! * [`wsframe`] — RFC 6455-style frame encoding/decoding (FIN/opcode,
//!   client masking, 7/16/64-bit lengths) used on the TCP path,
//! * [`fault`] — a fault-injecting [`transport::Transport`] decorator
//!   driven by a seeded, reproducible fault schedule (chaos testing),
//! * [`transport`] — the blocking [`transport::Transport`] trait with an
//!   in-process crossbeam channel implementation (deterministic tests),
//! * [`tcp`] — real `std::net` sockets: a thread-per-connection server and
//!   a client transport speaking [`wsframe`] over TCP. Per the project's
//!   networking guides, the workload (few dozen connections, CPU-bound
//!   payloads) is served best by plain threads rather than an async
//!   runtime.

pub mod fault;
pub mod json;
pub mod tcp;
pub mod transport;
pub mod wsframe;

pub use fault::{FaultStats, FaultyTransport};
pub use json::Value;
pub use transport::{channel_pair, ChannelTransport, DeadlineTransport, Transport, TransportError};
