//! The page-load event loop with the paper's completion policy.
//!
//! A Wasm module a page compiles is dumped, not run: the §3 classifier
//! fingerprints the modules DevTools captured and never reads what their
//! code computes.

use crate::page::{Page, ScriptEffect, ScriptRef};
use minedig_nocoin::extract::extract_script_tags;
use minedig_primitives::DetRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// DOM-quiet window after the last mutation (§3.2: 2 s).
const DOM_QUIET_MS: u64 = 2_000;
/// Maximum additional wait after the load event (§3.2: 5 s).
const POST_LOAD_CAP_MS: u64 = 5_000;
/// Hard timeout when no load event fires (§3.2: 15 s).
const TIMEOUT_MS: u64 = 15_000;
/// Bytes of final HTML to keep (§3.2: 65 kB).
const FINAL_HTML_BYTES: usize = 65_536;
/// Cap on dynamically injected scripts (loop guard).
const MAX_INJECTED_SCRIPTS: u32 = 32;

/// How a page load ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadOutcome {
    /// Load event plus DOM-quiet (or the +5 s cap) — "loaded completely".
    Loaded,
    /// No load event within the 15 s budget — "timed out".
    TimedOut,
}

/// What §3.2 keeps of one page load: the scan classifies the page by its
/// final HTML, its Wasm dumps and the WebSocket endpoints it opened.
#[derive(Clone, Debug)]
pub struct Capture {
    /// How the load ended.
    pub outcome: LoadOutcome,
    /// Virtual time at which the page was declared done, ms.
    pub finished_at_ms: u64,
    /// Dumped Wasm modules, in compile order.
    pub wasm_dumps: Vec<Vec<u8>>,
    /// First 65 kB of the final (post-execution) HTML.
    pub final_html: String,
    /// WebSocket endpoint URLs, in open order.
    websockets: Vec<String>,
}

impl Capture {
    /// The WebSocket endpoint URLs the page opened, in open order.
    pub fn websocket_urls(&self) -> &[String] {
        &self.websockets
    }

    /// Whether any Wasm was compiled.
    pub fn has_wasm(&self) -> bool {
        !self.wasm_dumps.is_empty()
    }
}

/// Page-load policy. The completion rule and the HTML budget are the
/// paper's §3.2 constants; only the latency seed varies.
#[derive(Clone, Debug)]
pub struct LoadPolicy {
    /// Seed for simulated network latencies.
    pub seed: u64,
}

impl Default for LoadPolicy {
    fn default() -> Self {
        LoadPolicy { seed: 0xb70 }
    }
}

#[derive(Debug)]
enum Action {
    ExecScript(ScriptRef),
    ExecInjected(String),
    Mutation { remaining: u32, interval_ms: u64 },
    FireLoad,
}

struct Sim {
    rng: DetRng,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    actions: Vec<Action>,
    seq: u64,
    wasm_dumps: Vec<Vec<u8>>,
    websockets: Vec<String>,
    injected_html: String,
    injected_count: u32,
    load_at: Option<u64>,
    last_dom_ms: Option<u64>,
}

impl Sim {
    fn schedule(&mut self, at_ms: u64, action: Action) {
        let idx = self.actions.len();
        self.actions.push(action);
        self.queue.push(Reverse((at_ms, self.seq, idx)));
        self.seq += 1;
    }

    /// The time at which the page would be considered done given current
    /// state, if no further events arrive.
    fn candidate_finish(&self) -> u64 {
        match self.load_at {
            Some(load) => {
                // The 2 s quiet timer starts at the load event and resets
                // on every DOM change; the total post-load wait is capped
                // at 5 s (§3.2).
                let dom_quiet = self
                    .last_dom_ms
                    .map(|dom| dom + DOM_QUIET_MS)
                    .unwrap_or(0)
                    .max(load + DOM_QUIET_MS);
                dom_quiet.min(load + POST_LOAD_CAP_MS)
            }
            None => TIMEOUT_MS,
        }
    }

    fn run_effects(&mut self, effects: &[ScriptEffect], now: u64) {
        for effect in effects {
            match effect {
                ScriptEffect::InjectScript { src } => {
                    if self.injected_count >= MAX_INJECTED_SCRIPTS {
                        continue;
                    }
                    self.injected_count += 1;
                    self.injected_html
                        .push_str(&format!("<script src=\"{src}\"></script>"));
                    self.last_dom_ms = Some(now);
                    let latency = self.fetch_latency();
                    self.schedule(now + latency, Action::ExecInjected(src.clone()));
                }
                ScriptEffect::InstantiateWasm { wasm } => self.wasm_dumps.push(wasm.clone()),
                ScriptEffect::OpenWebSocket { url } => self.websockets.push(url.clone()),
                ScriptEffect::MutateDom { times, interval_ms } => {
                    if *times > 0 {
                        self.schedule(
                            now + interval_ms,
                            Action::Mutation {
                                remaining: *times,
                                interval_ms: *interval_ms,
                            },
                        );
                    }
                }
                ScriptEffect::ConsentGated => self.last_dom_ms = Some(now),
            }
        }
    }

    fn fetch_latency(&mut self) -> u64 {
        30 + (self.rng.exponential(1.0 / 60.0) as u64).min(1_500)
    }
}

/// Loads a page under the given policy, returning the capture.
///
/// Every action the loop runs is due no later than the finish line (the
/// loop stops at the first one past it), so the capture holds exactly
/// what the page did before it was marked done.
pub fn load_page(page: &Page, policy: &LoadPolicy) -> Capture {
    let mut sim = Sim {
        rng: DetRng::seed(policy.seed).derive(format_args!("browser.load.{}", page.domain)),
        queue: BinaryHeap::new(),
        actions: Vec::new(),
        seq: 0,
        wasm_dumps: Vec::new(),
        websockets: Vec::new(),
        injected_html: String::new(),
        injected_count: 0,
        load_at: None,
        last_dom_ms: None,
    };

    // Parse the document and schedule initial scripts.
    let tags = extract_script_tags(&page.html);
    let mut inline_idx = 0usize;
    let mut last_initial_exec = 0u64;
    for tag in &tags {
        let (script_ref, base_time) = match &tag.src {
            Some(src) => (ScriptRef::Src(src.clone()), sim.fetch_latency()),
            None => {
                let r = ScriptRef::Inline(inline_idx);
                inline_idx += 1;
                (r, 5)
            }
        };
        let delay = page
            .behaviors
            .get(&script_ref)
            .map(|b| b.delay_ms)
            .unwrap_or(0);
        let exec_at = base_time + delay;
        last_initial_exec = last_initial_exec.max(exec_at);
        sim.schedule(exec_at, Action::ExecScript(script_ref));
    }

    if page.fires_load_event {
        sim.schedule(last_initial_exec + 20, Action::FireLoad);
    }

    // Event loop.
    let hard_limit = TIMEOUT_MS;
    let mut finished_at = None;
    while let Some(Reverse((t, _, idx))) = sim.queue.pop() {
        // Stop if the page is already "done" before this event.
        let f = sim.candidate_finish();
        if t > f || t > hard_limit {
            finished_at = Some(f.min(hard_limit));
            break;
        }
        let action = std::mem::replace(&mut sim.actions[idx], Action::FireLoad);
        match action {
            Action::ExecScript(script_ref) => {
                if let Some(behavior) = page.behaviors.get(&script_ref) {
                    sim.run_effects(&behavior.effects, t);
                }
            }
            Action::ExecInjected(src) => {
                if let Some(behavior) = page.behaviors.get(&ScriptRef::Src(src)) {
                    sim.run_effects(&behavior.effects, t);
                }
            }
            Action::Mutation {
                remaining,
                interval_ms,
            } => {
                sim.last_dom_ms = Some(t);
                if remaining > 1 {
                    sim.schedule(
                        t + interval_ms,
                        Action::Mutation {
                            remaining: remaining - 1,
                            interval_ms,
                        },
                    );
                }
            }
            Action::FireLoad => sim.load_at = Some(t),
        }
    }
    let finished_at = finished_at.unwrap_or_else(|| sim.candidate_finish().min(hard_limit));
    let outcome = if sim.load_at.is_some() {
        LoadOutcome::Loaded
    } else {
        LoadOutcome::TimedOut
    };

    // Final HTML: fetched document plus dynamically injected tags,
    // truncated to the §3.2 byte budget on a char boundary.
    let mut final_html = page.html.clone();
    final_html.push_str(&sim.injected_html);
    let final_html = truncate_on_char_boundary(final_html, FINAL_HTML_BYTES);

    Capture {
        outcome,
        finished_at_ms: finished_at,
        wasm_dumps: sim.wasm_dumps,
        final_html,
        websockets: sim.websockets,
    }
}

fn truncate_on_char_boundary(mut s: String, max_bytes: usize) -> String {
    if s.len() <= max_bytes {
        return s;
    }
    let mut cut = max_bytes;
    while cut > 0 && !s.is_char_boundary(cut) {
        cut -= 1;
    }
    s.truncate(cut);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::ScriptBehavior;
    use minedig_wasm::corpus::{default_profiles, generate_module};
    use minedig_wasm::module::Module;

    fn miner_wasm() -> Vec<u8> {
        let profiles = default_profiles();
        generate_module(&profiles[0], 0, 42).encode()
    }

    /// A miner's effects: compile its module, then open the pool socket.
    fn start_miner(ws_url: &str) -> Vec<ScriptEffect> {
        vec![
            ScriptEffect::InstantiateWasm { wasm: miner_wasm() },
            ScriptEffect::OpenWebSocket { url: ws_url.into() },
        ]
    }

    fn miner_page() -> Page {
        let html = r#"<html><head>
            <script src="https://coinhive.com/lib/coinhive.min.js"></script>
        </head><body>content</body></html>"#;
        Page::new("miner.example", html).with_behavior(
            ScriptRef::Src("https://coinhive.com/lib/coinhive.min.js".into()),
            ScriptBehavior {
                delay_ms: 50,
                effects: start_miner("wss://ws001.coinhive.com/proxy"),
            },
        )
    }

    #[test]
    fn clean_page_loads_without_artifacts() {
        let page = Page::new("clean.example", "<html><p>hello</p></html>");
        let cap = load_page(&page, &LoadPolicy::default());
        assert_eq!(cap.outcome, LoadOutcome::Loaded);
        assert!(!cap.has_wasm());
        assert!(cap.websocket_urls().is_empty());
    }

    #[test]
    fn miner_page_produces_wasm_and_ws_traffic() {
        let cap = load_page(&miner_page(), &LoadPolicy::default());
        assert_eq!(cap.outcome, LoadOutcome::Loaded);
        assert!(cap.has_wasm());
        assert_eq!(cap.websocket_urls(), ["wss://ws001.coinhive.com/proxy"]);
        // The dump is a parseable Wasm module.
        assert!(Module::parse(&cap.wasm_dumps[0]).is_ok());
    }

    #[test]
    fn dynamic_injection_is_visible_in_final_html_only() {
        // A loader page whose static HTML has no miner reference — the
        // pattern that makes zgrab-only scans miss miners.
        let html = r#"<html><script>/* innocent-looking bootstrap */</script></html>"#;
        let page = Page::new("loader.example", html)
            .with_behavior(
                ScriptRef::Inline(0),
                ScriptBehavior {
                    delay_ms: 10,
                    effects: vec![ScriptEffect::InjectScript {
                        src: "https://coinhive.com/lib/coinhive.min.js".into(),
                    }],
                },
            )
            .with_behavior(
                ScriptRef::Src("https://coinhive.com/lib/coinhive.min.js".into()),
                ScriptBehavior {
                    delay_ms: 0,
                    effects: start_miner("wss://ws002.coinhive.com/proxy"),
                },
            );
        assert!(!page.html.contains("coinhive.com"));
        let cap = load_page(&page, &LoadPolicy::default());
        assert!(cap.final_html.contains("coinhive.com/lib/coinhive.min.js"));
        assert!(cap.has_wasm());
    }

    #[test]
    fn sockets_are_reported_in_open_order_until_the_finish_line() {
        // The inline script opens a socket and injects b.js, which opens
        // the second one later. c.js would open a third at 16 s, but its
        // delay also holds the load event past 15 s, so the page times
        // out first.
        let html = r#"<script>boot()</script><script src="c.js"></script>"#;
        let open = |url: &str| ScriptEffect::OpenWebSocket { url: url.into() };
        let script = |delay_ms, effects| ScriptBehavior { delay_ms, effects };
        let inject = ScriptEffect::InjectScript { src: "b.js".into() };
        let page = Page::new("sockets.example", html)
            .with_behavior(
                ScriptRef::Inline(0),
                script(0, vec![open("wss://z.example/first"), inject]),
            )
            .with_behavior(
                ScriptRef::Src("b.js".into()),
                script(0, vec![open("wss://a.example/second")]),
            )
            .with_behavior(
                ScriptRef::Src("c.js".into()),
                script(16_000, vec![open("wss://late.example/")]),
            );
        let cap = load_page(&page, &LoadPolicy::default());
        assert_eq!(cap.outcome, LoadOutcome::TimedOut);
        assert_eq!(cap.finished_at_ms, 15_000);
        assert_eq!(
            cap.websocket_urls(),
            ["wss://z.example/first", "wss://a.example/second"]
        );
    }

    #[test]
    fn no_load_event_times_out_at_15s() {
        let mut page = Page::new("dead.example", "<html></html>");
        page.fires_load_event = false;
        let cap = load_page(&page, &LoadPolicy::default());
        assert_eq!(cap.outcome, LoadOutcome::TimedOut);
        assert_eq!(cap.finished_at_ms, 15_000);
    }

    #[test]
    fn dom_mutations_extend_wait_but_cap_at_5s() {
        // A page that mutates the DOM every second, forever (until cap).
        let page = Page::new("busy.example", "<html><script>spin()</script></html>").with_behavior(
            ScriptRef::Inline(0),
            ScriptBehavior {
                delay_ms: 0,
                effects: vec![ScriptEffect::MutateDom {
                    times: 100,
                    interval_ms: 1_000,
                }],
            },
        );
        let cap = load_page(&page, &LoadPolicy::default());
        assert_eq!(cap.outcome, LoadOutcome::Loaded);
        // The inline script, the page's only one, runs at 5 ms, and the
        // load event fires 20 ms after it. Mutations every 1 s keep
        // resetting the 2 s timer, so the +5 s cap decides.
        let load_at = 5 + 20;
        assert_eq!(cap.finished_at_ms, load_at + 5_000);
    }

    #[test]
    fn quiet_page_finishes_quickly() {
        let page = Page::new("quiet.example", "<html><p>static</p></html>");
        let cap = load_page(&page, &LoadPolicy::default());
        assert!(
            cap.finished_at_ms < 3_000,
            "finished {}",
            cap.finished_at_ms
        );
    }

    #[test]
    fn final_html_is_truncated_to_65kb() {
        let big_body = "x".repeat(100_000);
        let page = Page::new("big.example", format!("<html>{big_body}</html>"));
        let cap = load_page(&page, &LoadPolicy::default());
        assert_eq!(cap.final_html.len(), 65_536);
    }

    #[test]
    fn injection_loop_is_capped() {
        // a.js injects a.js injects a.js … must terminate via the cap.
        let page = Page::new("loop.example", r#"<script src="a.js"></script>"#).with_behavior(
            ScriptRef::Src("a.js".into()),
            ScriptBehavior {
                delay_ms: 0,
                effects: vec![ScriptEffect::InjectScript { src: "a.js".into() }],
            },
        );
        let cap = load_page(&page, &LoadPolicy::default());
        assert_eq!(cap.outcome, LoadOutcome::Loaded);
        assert!(cap.final_html.matches("a.js").count() <= 40);
    }

    #[test]
    fn consent_gated_effect_renders_only_its_dialog() {
        // A bootstrap injects the opt-in script, so the dialog renders
        // when a.js arrives, after the load event at 25 ms.
        let page = |effects| {
            Page::new("authed.example", "<script>boot()</script>")
                .with_behavior(
                    ScriptRef::Inline(0),
                    ScriptBehavior {
                        delay_ms: 0,
                        effects: vec![ScriptEffect::InjectScript { src: "a.js".into() }],
                    },
                )
                .with_behavior(
                    ScriptRef::Src("a.js".into()),
                    ScriptBehavior {
                        delay_ms: 0,
                        effects,
                    },
                )
        };
        let dialog = page(vec![ScriptEffect::ConsentGated]);
        let cap = load_page(&dialog, &LoadPolicy::default());
        assert!(!cap.has_wasm(), "no consent, no mining");
        assert!(cap.websocket_urls().is_empty());
        // Without the dialog the page is quiet 2 s after its load event.
        // The dialog's DOM change restarts the 2 s timer later.
        let quiet = load_page(&page(vec![]), &LoadPolicy::default());
        assert_eq!(quiet.finished_at_ms, 25 + 2_000);
        assert!(
            cap.finished_at_ms > quiet.finished_at_ms,
            "finished {}",
            cap.finished_at_ms
        );
    }

    #[test]
    fn deterministic_capture() {
        let a = load_page(&miner_page(), &LoadPolicy::default());
        let b = load_page(&miner_page(), &LoadPolicy::default());
        assert_eq!(a.websocket_urls(), b.websocket_urls());
        assert_eq!(a.finished_at_ms, b.finished_at_ms);
        assert_eq!(a.wasm_dumps, b.wasm_dumps);
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        let s = "é".repeat(100); // 2 bytes each
        let t = truncate_on_char_boundary(s, 33);
        assert_eq!(t.len(), 32);
        assert!(t.chars().all(|c| c == 'é'));
    }
}
