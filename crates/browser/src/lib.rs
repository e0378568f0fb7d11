#![warn(missing_docs)]
//! A deterministic headless-browser simulator with DevTools-style
//! instrumentation.
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
//! another script, compile a Wasm module and start mining against a
//! WebSocket backend, mutate the DOM, …). A virtual-time event loop
//! executes the behaviours and records DevTools-style events; the capture
//! (final HTML, Wasm dumps, WebSocket log) is exactly what the paper's
//! measurement pipeline consumes.

pub mod devtools;
pub mod loader;
pub mod page;

pub use devtools::{Capture, DevtoolsEvent};
pub use loader::{load_page, LoadPolicy};
pub use page::{Page, ScriptBehavior, ScriptEffect, ScriptRef};
