//! The page model: HTML plus declared script behaviours.
//!
//! We do not implement a JavaScript engine; what matters to the paper's
//! pipeline is the *observable effect* of each script (does it inject
//! another script? compile Wasm? open a WebSocket to a pool?). Pages are
//! therefore HTML (scanned exactly like the real crawler scans it) plus a
//! behaviour table keyed by script identity. The synthetic web generator
//! (`minedig-web`) produces both halves consistently.

use std::collections::HashMap;

/// Identifies a script within a page.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ScriptRef {
    /// External script by (unresolved) `src` attribute.
    Src(String),
    /// Inline script by occurrence index.
    Inline(usize),
}

/// What a script does when executed.
#[derive(Clone, Debug, PartialEq)]
pub enum ScriptEffect {
    /// Appends a new `<script src=...>` to the document (dynamic loader —
    /// invisible to the static zgrab scan, visible to the browser).
    InjectScript {
        /// The injected script's src.
        src: String,
    },
    /// Compiles a Wasm module and starts mining against a pool endpoint:
    /// emits a WasmCompiled dump plus WebSocket traffic.
    StartMiner {
        /// The miner's Wasm binary.
        wasm: Vec<u8>,
        /// Pool WebSocket URL.
        ws_url: String,
        /// Site key / token sent in the auth message.
        token: String,
        /// Interval between submit frames, ms.
        submit_interval_ms: u64,
    },
    /// Compiles (and optionally runs) a Wasm module without any network
    /// activity — benign Wasm like codecs and games.
    InstantiateWasm {
        /// The module binary.
        wasm: Vec<u8>,
    },
    /// Opens a WebSocket and exchanges canned frames (non-mining apps).
    OpenWebSocket {
        /// Endpoint URL.
        url: String,
        /// Text frames sent by the page.
        frames: Vec<String>,
    },
    /// Mutates the DOM repeatedly (spinners, ads, hydration) — this is
    /// what keeps the paper's 2 s DOM-quiet timer resetting.
    MutateDom {
        /// Number of mutations.
        times: u32,
        /// Interval between mutations, ms.
        interval_ms: u64,
    },
    /// An explicit user opt-in dialog — Authedmine's model. A crawler
    /// never grants consent, so only the dialog's DOM mutation is
    /// visible and the miner behind it never starts.
    ConsentGated,
}

/// A script's declared behaviour.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScriptBehavior {
    /// Execution delay after the script is fetched/reached, ms.
    pub delay_ms: u64,
    /// Effects, executed in order at the script's execution time.
    pub effects: Vec<ScriptEffect>,
}

/// A page: domain, HTML and behaviours.
#[derive(Clone, Debug, Default)]
pub struct Page {
    /// The domain the page was served from.
    pub domain: String,
    /// Raw HTML as fetched.
    pub html: String,
    /// Whether the page ever fires a load event (dead pages time out).
    pub fires_load_event: bool,
    /// Behaviour table.
    pub behaviors: HashMap<ScriptRef, ScriptBehavior>,
}

impl Page {
    /// A minimal page with the given HTML that loads normally. An owned
    /// `String` moves into the page; a `&str` is copied.
    pub fn new(domain: &str, html: impl Into<String>) -> Page {
        Page {
            domain: domain.to_string(),
            html: html.into(),
            fires_load_event: true,
            behaviors: HashMap::new(),
        }
    }

    /// Attaches a behaviour to a script.
    pub fn with_behavior(mut self, script: ScriptRef, behavior: ScriptBehavior) -> Page {
        self.behaviors.insert(script, behavior);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_builder() {
        let p = Page::new("example.com", "<html></html>").with_behavior(
            ScriptRef::Src("a.js".into()),
            ScriptBehavior {
                delay_ms: 10,
                effects: vec![ScriptEffect::MutateDom {
                    times: 3,
                    interval_ms: 100,
                }],
            },
        );
        assert!(p.fires_load_event);
        assert_eq!(p.behaviors.len(), 1);
        assert!(p.behaviors.contains_key(&ScriptRef::Src("a.js".into())));
    }

    #[test]
    fn script_refs_are_distinct() {
        assert_ne!(ScriptRef::Src("a.js".into()), ScriptRef::Inline(0));
        assert_ne!(ScriptRef::Inline(0), ScriptRef::Inline(1));
    }
}
