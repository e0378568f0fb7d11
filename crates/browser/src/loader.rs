//! The page-load event loop with the paper's completion policy.

use crate::devtools::{Capture, DevtoolsEvent, FrameDirection, LoadOutcome};
use crate::page::{Page, ScriptBehavior, ScriptEffect, ScriptRef};
use minedig_nocoin::extract::extract_script_tags;
use minedig_primitives::{DetRng, Hash32};
use minedig_wasm::interp::{Instance, Val};
use minedig_wasm::module::Module;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Page-load policy. Defaults are the paper's §3.2 parameters.
#[derive(Clone, Debug)]
pub struct LoadPolicy {
    /// DOM-quiet window after the last mutation (2 s).
    pub dom_quiet_ms: u64,
    /// Maximum additional wait after the load event (5 s).
    pub post_load_cap_ms: u64,
    /// Hard timeout when no load event fires (15 s).
    pub timeout_ms: u64,
    /// Bytes of final HTML to keep (65 kB).
    pub final_html_bytes: usize,
    /// Cap on dynamically injected scripts (loop guard).
    pub max_injected_scripts: u32,
    /// Fuel for executing compiled Wasm (instructions).
    pub wasm_fuel: u64,
    /// Whether the simulated visitor grants consent dialogs (Authedmine).
    /// Crawlers — including the paper's — never do; interactive visits
    /// might.
    pub grant_consent: bool,
    /// Seed for simulated network latencies.
    pub seed: u64,
}

impl Default for LoadPolicy {
    fn default() -> Self {
        LoadPolicy {
            dom_quiet_ms: 2_000,
            post_load_cap_ms: 5_000,
            timeout_ms: 15_000,
            final_html_bytes: 65_536,
            max_injected_scripts: 32,
            wasm_fuel: 200_000,
            grant_consent: false,
            seed: 0xb70,
        }
    }
}

#[derive(Debug)]
enum Action {
    ExecScript(ScriptRef),
    ExecInjected(String),
    Mutation { remaining: u32, interval_ms: u64 },
    MinerSubmit { url: String, interval_ms: u64 },
    ConsentedEffect(ScriptEffect),
    FireLoad,
}

struct Sim<'a> {
    policy: &'a LoadPolicy,
    rng: DetRng,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    actions: Vec<Action>,
    seq: u64,
    events: Vec<DevtoolsEvent>,
    wasm_dumps: Vec<Vec<u8>>,
    injected_html: String,
    injected_count: u32,
    load_at: Option<u64>,
    last_dom_ms: Option<u64>,
}

impl<'a> Sim<'a> {
    fn schedule(&mut self, at_ms: u64, action: Action) {
        let idx = self.actions.len();
        self.actions.push(action);
        self.queue.push(Reverse((at_ms, self.seq, idx)));
        self.seq += 1;
    }

    fn dom_mutation(&mut self, at_ms: u64) {
        self.last_dom_ms = Some(at_ms);
        self.events.push(DevtoolsEvent::DomMutation { at_ms });
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
                    .map(|dom| dom + self.policy.dom_quiet_ms)
                    .unwrap_or(0)
                    .max(load + self.policy.dom_quiet_ms);
                dom_quiet.min(load + self.policy.post_load_cap_ms)
            }
            None => self.policy.timeout_ms,
        }
    }

    fn compile_wasm(&mut self, bytes: &[u8], at_ms: u64) {
        let id = Hash32::keccak(bytes);
        let dump_index = self.wasm_dumps.len();
        self.wasm_dumps.push(bytes.to_vec());
        self.events.push(DevtoolsEvent::WasmCompiled {
            dump_index,
            size: bytes.len(),
            id,
            at_ms,
        });
        // Actually execute the module's first export, as the page would.
        if let Ok(module) = Module::parse(bytes) {
            if let Some(export) = module.exports.first().map(|e| e.name.clone()) {
                let needs_arg = module
                    .export_func(&export)
                    .and_then(|i| module.func_type(i))
                    .map(|t| t.params.len())
                    .unwrap_or(0);
                let mut inst = Instance::new(module);
                let mut fuel = self.policy.wasm_fuel;
                let args: Vec<Val> = (0..needs_arg).map(|_| Val::I32(1)).collect();
                let _ = inst.invoke(&export, &args, &mut fuel);
            }
        }
    }

    fn run_effects(&mut self, behavior: &ScriptBehavior, now: u64) {
        for effect in &behavior.effects {
            match effect {
                ScriptEffect::InjectScript { src } => {
                    if self.injected_count >= self.policy.max_injected_scripts {
                        continue;
                    }
                    self.injected_count += 1;
                    self.injected_html
                        .push_str(&format!("<script src=\"{src}\"></script>"));
                    self.dom_mutation(now);
                    let latency = self.fetch_latency();
                    self.schedule(now + latency, Action::ExecInjected(src.clone()));
                }
                ScriptEffect::StartMiner {
                    wasm,
                    ws_url,
                    token,
                    submit_interval_ms,
                } => {
                    self.compile_wasm(&wasm.clone(), now);
                    self.events.push(DevtoolsEvent::WebSocketCreated {
                        url: ws_url.clone(),
                        at_ms: now,
                    });
                    self.events.push(DevtoolsEvent::WebSocketFrame {
                        url: ws_url.clone(),
                        direction: FrameDirection::Sent,
                        payload: format!("{{\"type\":\"auth\",\"token\":\"{token}\"}}"),
                        at_ms: now,
                    });
                    self.events.push(DevtoolsEvent::WebSocketFrame {
                        url: ws_url.clone(),
                        direction: FrameDirection::Received,
                        payload: "{\"type\":\"authed\",\"hashes\":0}".to_string(),
                        at_ms: now + 1,
                    });
                    self.events.push(DevtoolsEvent::WebSocketFrame {
                        url: ws_url.clone(),
                        direction: FrameDirection::Received,
                        payload:
                            "{\"type\":\"job\",\"job_id\":\"j1\",\"blob\":\"…\",\"difficulty\":16}"
                                .to_string(),
                        at_ms: now + 2,
                    });
                    self.schedule(
                        now + submit_interval_ms,
                        Action::MinerSubmit {
                            url: ws_url.clone(),
                            interval_ms: *submit_interval_ms,
                        },
                    );
                }
                ScriptEffect::InstantiateWasm { wasm } => {
                    self.compile_wasm(&wasm.clone(), now);
                }
                ScriptEffect::OpenWebSocket { url, frames } => {
                    self.events.push(DevtoolsEvent::WebSocketCreated {
                        url: url.clone(),
                        at_ms: now,
                    });
                    for (i, f) in frames.iter().enumerate() {
                        self.events.push(DevtoolsEvent::WebSocketFrame {
                            url: url.clone(),
                            direction: FrameDirection::Sent,
                            payload: f.clone(),
                            at_ms: now + i as u64,
                        });
                    }
                }
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
                ScriptEffect::ConsentGated { inner } => {
                    // The opt-in dialog renders either way.
                    self.dom_mutation(now);
                    if self.policy.grant_consent {
                        // The simulated user reads and clicks after ~600 ms.
                        self.schedule(now + 600, Action::ConsentedEffect((**inner).clone()));
                    }
                }
            }
        }
    }

    fn fetch_latency(&mut self) -> u64 {
        30 + (self.rng.exponential(1.0 / 60.0) as u64).min(1_500)
    }
}

/// Loads a page under the given policy, returning the capture.
pub fn load_page(page: &Page, policy: &LoadPolicy) -> Capture {
    let mut sim = Sim {
        policy,
        rng: DetRng::seed(policy.seed).derive(&format!("browser.load.{}", page.domain)),
        queue: BinaryHeap::new(),
        actions: Vec::new(),
        seq: 0,
        events: Vec::new(),
        wasm_dumps: Vec::new(),
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
            Some(src) => {
                let latency = sim.fetch_latency();
                sim.events.push(DevtoolsEvent::ScriptLoaded {
                    url: src.clone(),
                    at_ms: latency,
                });
                (ScriptRef::Src(src.clone()), latency)
            }
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
    let hard_limit = policy.timeout_ms;
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
                if let Some(behavior) = page.behaviors.get(&script_ref).cloned() {
                    sim.run_effects(&behavior, t);
                }
            }
            Action::ExecInjected(src) => {
                let script_ref = ScriptRef::Src(src);
                if let Some(behavior) = page.behaviors.get(&script_ref).cloned() {
                    sim.run_effects(&behavior, t);
                }
            }
            Action::Mutation {
                remaining,
                interval_ms,
            } => {
                sim.dom_mutation(t);
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
            Action::MinerSubmit { url, interval_ms } => {
                sim.events.push(DevtoolsEvent::WebSocketFrame {
                    url: url.clone(),
                    direction: FrameDirection::Sent,
                    payload: "{\"type\":\"submit\",\"job_id\":\"j1\",\"nonce\":0,\"result\":\"…\"}"
                        .to_string(),
                    at_ms: t,
                });
                sim.events.push(DevtoolsEvent::WebSocketFrame {
                    url: url.clone(),
                    direction: FrameDirection::Received,
                    payload: "{\"type\":\"hash_accepted\",\"hashes\":16}".to_string(),
                    at_ms: t + 1,
                });
                if t + interval_ms <= hard_limit {
                    sim.schedule(t + interval_ms, Action::MinerSubmit { url, interval_ms });
                }
            }
            Action::ConsentedEffect(effect) => {
                let behavior = ScriptBehavior {
                    delay_ms: 0,
                    effects: vec![effect],
                };
                sim.run_effects(&behavior, t);
            }
            Action::FireLoad => {
                sim.load_at = Some(t);
                sim.events.push(DevtoolsEvent::LoadEvent { at_ms: t });
            }
        }
    }
    let finished_at = finished_at.unwrap_or_else(|| sim.candidate_finish().min(hard_limit));
    let outcome = if sim.load_at.is_some() {
        LoadOutcome::Loaded
    } else {
        LoadOutcome::TimedOut
    };

    // Final HTML: fetched document plus dynamically injected tags,
    // truncated to the policy's byte budget on a char boundary.
    let mut final_html = page.html.clone();
    final_html.push_str(&sim.injected_html);
    let final_html = truncate_on_char_boundary(final_html, policy.final_html_bytes);

    // Drop events recorded past the finish line (the real capture stops
    // when the page is marked done).
    let mut events = sim.events;
    events.retain(|e| event_time(e) <= finished_at);
    events.sort_by_key(event_time);

    Capture {
        domain: page.domain.clone(),
        outcome,
        finished_at_ms: finished_at,
        events,
        wasm_dumps: sim.wasm_dumps,
        final_html,
    }
}

fn event_time(e: &DevtoolsEvent) -> u64 {
    match e {
        DevtoolsEvent::ScriptLoaded { at_ms, .. }
        | DevtoolsEvent::WasmCompiled { at_ms, .. }
        | DevtoolsEvent::WebSocketCreated { at_ms, .. }
        | DevtoolsEvent::WebSocketFrame { at_ms, .. }
        | DevtoolsEvent::DomMutation { at_ms }
        | DevtoolsEvent::LoadEvent { at_ms } => *at_ms,
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
    use minedig_wasm::corpus::{default_profiles, generate_module};

    fn miner_wasm() -> Vec<u8> {
        let profiles = default_profiles();
        generate_module(&profiles[0], 0, 42).encode()
    }

    fn miner_page() -> Page {
        let html = r#"<html><head>
            <script src="https://coinhive.com/lib/coinhive.min.js"></script>
        </head><body>content</body></html>"#;
        Page::new("miner.example", html).with_behavior(
            ScriptRef::Src("https://coinhive.com/lib/coinhive.min.js".into()),
            ScriptBehavior {
                delay_ms: 50,
                effects: vec![ScriptEffect::StartMiner {
                    wasm: miner_wasm(),
                    ws_url: "wss://ws001.coinhive.com/proxy".into(),
                    token: "SITEKEY123".into(),
                    submit_interval_ms: 800,
                }],
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
        assert_eq!(cap.websocket_urls(), vec!["wss://ws001.coinhive.com/proxy"]);
        assert!(cap.frame_count(FrameDirection::Sent) >= 2); // auth + ≥1 submit
        assert!(cap.frame_count(FrameDirection::Received) >= 2);
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
                    effects: vec![ScriptEffect::StartMiner {
                        wasm: miner_wasm(),
                        ws_url: "wss://ws002.coinhive.com/proxy".into(),
                        token: "KEY".into(),
                        submit_interval_ms: 700,
                    }],
                },
            );
        assert!(!page.html.contains("coinhive.com"));
        let cap = load_page(&page, &LoadPolicy::default());
        assert!(cap.final_html.contains("coinhive.com/lib/coinhive.min.js"));
        assert!(cap.has_wasm());
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
        let load_at = cap
            .events
            .iter()
            .find_map(|e| match e {
                DevtoolsEvent::LoadEvent { at_ms } => Some(*at_ms),
                _ => None,
            })
            .unwrap();
        // Mutations every 1 s keep resetting the 2 s timer, so the +5 s
        // cap decides.
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
    fn consent_gated_effect_dormant_by_default() {
        let page = Page::new("authed.example", r#"<script src="a.js"></script>"#).with_behavior(
            ScriptRef::Src("a.js".into()),
            ScriptBehavior {
                delay_ms: 0,
                effects: vec![ScriptEffect::ConsentGated {
                    inner: Box::new(ScriptEffect::StartMiner {
                        wasm: miner_wasm(),
                        ws_url: "wss://ws.authedmine.com/proxy".into(),
                        token: "K".into(),
                        submit_interval_ms: 500,
                    }),
                }],
            },
        );
        let cap = load_page(&page, &LoadPolicy::default());
        assert!(!cap.has_wasm(), "no consent, no mining");
        assert!(cap.websocket_urls().is_empty());
        // But the dialog rendered (a DOM mutation happened).
        assert!(cap
            .events
            .iter()
            .any(|e| matches!(e, DevtoolsEvent::DomMutation { .. })));

        // An opted-in visit mines.
        let consenting = LoadPolicy {
            grant_consent: true,
            ..LoadPolicy::default()
        };
        let cap = load_page(&page, &consenting);
        assert!(cap.has_wasm(), "consent granted, mining starts");
        assert_eq!(cap.websocket_urls(), vec!["wss://ws.authedmine.com/proxy"]);
    }

    #[test]
    fn deterministic_capture() {
        let a = load_page(&miner_page(), &LoadPolicy::default());
        let b = load_page(&miner_page(), &LoadPolicy::default());
        assert_eq!(a.events.len(), b.events.len());
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
