//! Bench regression gate: compares a freshly emitted `BENCH_*.json`
//! against a committed baseline and fails when any wall-clock number
//! regressed past a threshold.
//!
//! ```text
//! bench_check <baseline.json> <current.json> [threshold]
//! ```
//!
//! Every numeric field whose key ends in `secs` is compared at the same
//! JSON path; the run fails when `current > baseline * threshold`
//! (default 2.0 — generous on purpose: CI runners are noisy, and the
//! gate exists to catch order-of-magnitude rot, not jitter). Fields
//! present on only one side are reported but never fail the gate, so
//! adding a workload does not require regenerating every baseline.

use minedig_net::json::Value;
use minedig_primitives::{configured, read_env};

/// Default regression threshold: current may take up to 2× baseline.
const DEFAULT_THRESHOLD: f64 = 2.0;

struct Gate {
    threshold: f64,
    compared: u32,
    regressions: Vec<String>,
}

impl Gate {
    /// Walks `baseline` and `current` in lockstep, comparing every
    /// numeric `*secs` leaf reachable through matching object keys and
    /// array indices.
    fn walk(&mut self, path: &str, baseline: &Value, current: &Value) {
        match (baseline, current) {
            (Value::Obj(b), Value::Obj(c)) => {
                for (key, bv) in b {
                    let child = format!("{path}/{key}");
                    match c.get(key) {
                        Some(cv) => self.walk(&child, bv, cv),
                        None => println!("note: {child} missing from current run"),
                    }
                }
                for key in c.keys().filter(|k| !b.contains_key(*k)) {
                    println!("note: {path}/{key} has no baseline yet");
                }
            }
            (Value::Arr(b), Value::Arr(c)) => {
                if b.len() != c.len() {
                    println!(
                        "note: {path} length changed ({} baseline vs {} current)",
                        b.len(),
                        c.len()
                    );
                }
                for (i, (bv, cv)) in b.iter().zip(c.iter()).enumerate() {
                    self.walk(&format!("{path}[{i}]"), bv, cv);
                }
            }
            _ => {
                let key_is_secs = path.rsplit('/').next().unwrap_or("").ends_with("secs");
                if !key_is_secs {
                    return;
                }
                let (Some(b), Some(c)) = (baseline.as_f64(), current.as_f64()) else {
                    return;
                };
                self.compared += 1;
                // Sub-millisecond baselines are pure noise at CI
                // resolution; hold them to an absolute floor instead.
                let allowed = (b * self.threshold).max(0.005);
                if c > allowed {
                    self.regressions.push(format!(
                        "{path}: {c:.4}s vs baseline {b:.4}s (allowed {allowed:.4}s)"
                    ));
                }
            }
        }
    }
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Value::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn main() {
    // No knobs: every MINEDIG_* variable is refused.
    let _ = configured(read_env(&[]));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(baseline_path), Some(current_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: bench_check <baseline.json> <current.json> [threshold]");
        std::process::exit(2);
    };
    let threshold = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD);

    let baseline = load(baseline_path);
    let current = load(current_path);
    let mut gate = Gate {
        threshold,
        compared: 0,
        regressions: Vec::new(),
    };
    gate.walk("", &baseline, &current);

    println!(
        "{}: {} wall-clock fields compared against {} at {threshold}x",
        current_path, gate.compared, baseline_path
    );
    if gate.compared == 0 {
        eprintln!("error: no comparable *secs fields — wrong file pair?");
        std::process::exit(2);
    }
    if !gate.regressions.is_empty() {
        eprintln!("bench regressions detected:");
        for r in &gate.regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
    println!("no regressions");
}
