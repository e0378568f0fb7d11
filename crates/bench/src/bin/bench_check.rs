//! Bench regression gate: compares a freshly emitted `BENCH_*.json`
//! against a committed baseline and fails when any wall-clock number
//! regressed past a threshold or any deterministic count changed.
//!
//! ```text
//! bench_check <baseline.json> <current.json>
//! ```
//!
//! Every numeric field whose key ends in `secs` is compared at the same
//! JSON path; the run fails when `current > baseline * 2` (generous on
//! purpose: CI runners are noisy, and the gate exists to catch
//! order-of-magnitude rot, not jitter). Any other number of arguments,
//! or a file that cannot be read or parsed, exits with status 2 before
//! any comparison. The counts
//! a seeded run reproduces exactly ([`COUNT_KEYS`]: items, checkpoints,
//! bytes written, crashes, items redone) must equal the baseline's, and
//! a count the baseline has but the run lacks fails too. Other fields
//! present on only one side are reported but never fail the gate, so
//! adding a workload does not require regenerating every baseline.

use minedig_net::json::Value;
use minedig_primitives::{configured, read_env};

/// Regression threshold: current may take up to 2× baseline.
const THRESHOLD: f64 = 2.0;

/// Keys of the counts a seeded run reproduces exactly.
const COUNT_KEYS: [&str; 5] = [
    "items",
    "checkpoints",
    "bytes_written",
    "crashes",
    "items_redone",
];

#[derive(Default)]
struct Gate {
    compared: u32,
    counts: u32,
    regressions: Vec<String>,
}

/// The key a JSON path ends in.
fn key_of(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or("")
}

impl Gate {
    /// Walks `baseline` and `current` in lockstep, comparing every
    /// numeric `*secs` leaf and every count leaf reachable through
    /// matching object keys and array indices.
    fn walk(&mut self, path: &str, baseline: &Value, current: &Value) {
        match (baseline, current) {
            (Value::Obj(b), Value::Obj(c)) => {
                for (key, bv) in b {
                    let child = format!("{path}/{key}");
                    match c.get(key) {
                        Some(cv) => self.walk(&child, bv, cv),
                        None => self.missing(&child, bv),
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
                for (i, bv) in b.iter().enumerate().skip(c.len()) {
                    self.missing(&format!("{path}[{i}]"), bv);
                }
            }
            _ if COUNT_KEYS.contains(&key_of(path)) => {
                self.counts += 1;
                match (baseline.as_u64(), current.as_u64()) {
                    (Some(b), Some(c)) if b == c => {}
                    (Some(b), Some(c)) => self.regressions.push(format!(
                        "{path}: {c} vs baseline {b} (counts must match exactly)"
                    )),
                    _ => self
                        .regressions
                        .push(format!("{path}: not a count on both sides")),
                }
            }
            _ => {
                if !key_of(path).ends_with("secs") {
                    return;
                }
                let (Some(b), Some(c)) = (baseline.as_f64(), current.as_f64()) else {
                    return;
                };
                self.compared += 1;
                // Sub-millisecond baselines are pure noise at CI
                // resolution; hold them to an absolute floor instead.
                let allowed = (b * THRESHOLD).max(0.005);
                if c > allowed {
                    self.regressions.push(format!(
                        "{path}: {c:.4}s vs baseline {b:.4}s (allowed {allowed:.4}s)"
                    ));
                }
            }
        }
    }

    /// Reports a baseline field the current run lacks: a note, or a
    /// regression for every count it holds.
    fn missing(&mut self, path: &str, baseline: &Value) {
        match baseline {
            Value::Obj(b) => {
                for (key, bv) in b {
                    self.missing(&format!("{path}/{key}"), bv);
                }
            }
            Value::Arr(b) => {
                for (i, bv) in b.iter().enumerate() {
                    self.missing(&format!("{path}[{i}]"), bv);
                }
            }
            _ if COUNT_KEYS.contains(&key_of(path)) => {
                self.counts += 1;
                self.regressions
                    .push(format!("{path}: missing from current run"));
            }
            _ => println!("note: {path} missing from current run"),
        }
    }
}

const USAGE: &str = "usage: bench_check <baseline.json> <current.json>";

/// Exits with status 2 after printing `message`.
fn refuse(message: &str) -> ! {
    eprintln!("bench_check: {message}");
    std::process::exit(2);
}

/// The JSON in the file at `path`; a file that cannot be read or parsed
/// is refused, naming the argument (`role`) and the path.
fn load(role: &str, path: &str) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| refuse(&format!("{role} {path:?}: {e}")));
    Value::parse(&text).unwrap_or_else(|e| refuse(&format!("{role} {path:?}: not JSON: {e}")))
}

fn main() {
    // No knobs: every MINEDIG_* variable is refused.
    let _ = configured(read_env(&[]));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        refuse(USAGE)
    };
    let baseline = load("baseline", baseline_path);
    let current = load("current", current_path);

    let mut gate = Gate::default();
    gate.walk("", &baseline, &current);

    println!(
        "{}: {} wall-clock fields compared against {} at {THRESHOLD}x, {} counts exactly",
        current_path, gate.compared, baseline_path, gate.counts
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate's verdict on `current` against `baseline`: the fields it
    /// compared (wall-clock, counts) and its regressions.
    fn gate(baseline: &str, current: &str) -> (u32, u32, Vec<String>) {
        let mut gate = Gate::default();
        gate.walk(
            "",
            &Value::parse(baseline).unwrap(),
            &Value::parse(current).unwrap(),
        );
        (gate.compared, gate.counts, gate.regressions)
    }

    const BASE: &str = r#"{"workloads": [{"name": "w", "items": 40256, "runs": [
        {"every": 16, "secs": 0.1, "checkpoints": 2517, "bytes_written": 517523,
         "crashes": 2, "items_redone": 15}]}]}"#;

    #[test]
    fn equal_counts_and_times_within_the_threshold_pass() {
        let (secs, counts, regressions) = gate(BASE, BASE);
        assert_eq!((secs, counts), (1, 5));
        assert!(regressions.is_empty(), "{regressions:?}");
        let slower = BASE.replace("0.1,", "0.19,");
        assert!(gate(BASE, &slower).2.is_empty());
    }

    #[test]
    fn a_changed_count_fails_whichever_way_it_moves() {
        for (from, to) in [
            ("517523", "517524"),
            ("517523", "517522"),
            ("40256", "40255"),
            ("\"crashes\": 2", "\"crashes\": 3"),
            ("\"items_redone\": 15", "\"items_redone\": 0"),
            ("2517", "2516"),
        ] {
            let run = BASE.replace(from, to);
            let (_, _, regressions) = gate(BASE, &run);
            assert_eq!(regressions.len(), 1, "{from} -> {to}: {regressions:?}");
            assert!(regressions[0].contains("exactly"), "{regressions:?}");
        }
        let (_, _, regressions) = gate(BASE, &BASE.replace("40256", "\"40256\""));
        assert_eq!(
            regressions,
            ["/workloads[0]/items: not a count on both sides"]
        );
    }

    #[test]
    fn a_count_missing_from_the_run_fails() {
        let run = BASE.replace("\"bytes_written\": 517523,", "");
        let (_, counts, regressions) = gate(BASE, &run);
        assert_eq!(counts, 5);
        assert_eq!(
            regressions,
            ["/workloads[0]/runs[0]/bytes_written: missing from current run"]
        );
        // A whole run or workload gone takes its counts with it.
        let (_, _, regressions) = gate(BASE, r#"{"workloads": [{"name": "w", "runs": []}]}"#);
        assert_eq!(regressions.len(), 5, "{regressions:?}");
        let (_, _, regressions) = gate(BASE, r#"{"workloads": []}"#);
        assert_eq!(regressions.len(), 5, "{regressions:?}");
    }

    #[test]
    fn fields_only_the_run_has_and_other_numbers_never_fail() {
        let run = BASE
            .replace("\"every\": 16", "\"every\": 17, \"snapshot_bytes\": 9")
            .replace("\"name\": \"w\"", "\"name\": \"v\", \"new_count\": 1");
        assert!(gate(BASE, &run).2.is_empty());
        let extra = BASE.replace("\"crashes\": 2,", "\"crashes\": 2, \"items_lost\": 4,");
        assert!(gate(BASE, &extra).2.is_empty());
    }

    #[test]
    fn a_time_past_the_threshold_fails() {
        let (_, _, regressions) = gate(BASE, &BASE.replace("0.1,", "0.21,"));
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("secs"), "{regressions:?}");
    }
}
