#![warn(missing_docs)]
//! A deterministic headless-browser simulator with the §3.2 capture.
//!
//! §3.2 of the paper instruments a stock Chrome via the DevTools protocol
//! "to capture all Websocket communication and to dump all detected Wasm
//! code", with a precise page-load policy: *"we wait for the page's load
//! event and set a 2 s timer on every DOM change but wait no longer than
//! additional 5 s before we mark the page as loaded completely. In case of
//! no load event, we wait no longer than 15 s to mark the website as timed
//! out. We further save the first 65 kB of the final HTML."*
//!
//! This crate reproduces that sensor: pages are HTML plus *declared
//! script behaviours* (what each script does when executed — inject
//! another script, compile a Wasm module, open a WebSocket to a pool
//! backend, mutate the DOM, …). A virtual-time event loop executes the
//! behaviours under the completion policy and keeps what the scan
//! classifies a page by: the final HTML, the Wasm dumps and the
//! WebSocket endpoints the page opened.

pub mod loader;
pub mod page;

pub use loader::{load_page, Capture, LoadOutcome, LoadPolicy};
pub use page::{Page, ScriptBehavior, ScriptEffect, ScriptRef};
