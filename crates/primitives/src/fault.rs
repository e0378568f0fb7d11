//! Deterministic fault injection: seeded, keyed fault schedules.
//!
//! A [`FaultPlan`] decides, as a pure function of `(seed, operation
//! key, attempt)`, whether a fault is injected into an operation and
//! which kind. Campaign code keys operations by stable entity names —
//! domain for fetches, short-link code for probes, `(endpoint, sweep)`
//! for polls — the same trick the rest of the workspace uses for
//! per-entity randomness, so a fault schedule is invariant under
//! sharding, scan order, and retry interleaving. That is what lets the
//! chaos proptests demand *bit-identical* campaign output across shard
//! counts under any schedule.
//!
//! Faulty operations are either **transient** (the fault clears after a
//! bounded number of attempts, drawn per key from
//! `1..=max_transient_attempts`) or **permanent** (every attempt
//! faults, forever). With `permanent_prob == 0` a retry policy allowing
//! more than `max_transient_attempts` attempts is *guaranteed* to
//! outlast every fault — the basis of the fault-free-equivalence
//! invariant.

use crate::rng::DetRng;

/// The kinds of fault a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The message (or response) is silently lost.
    Drop,
    /// Delivery succeeds but is late by `ms` milliseconds.
    Delay {
        /// Added latency in milliseconds.
        ms: u64,
    },
    /// The connection is torn down; subsequent operations fail with
    /// `Closed` until the caller reconnects.
    Disconnect,
    /// The payload is delivered corrupted.
    Garble,
    /// The operation hangs until the caller's timeout fires.
    Stall,
}

/// Shape of a fault schedule: how often faults strike and how they mix.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that an operation key is faulty at all.
    pub fault_prob: f64,
    /// Given a faulty key, probability the fault is permanent (never
    /// clears, regardless of attempts).
    pub permanent_prob: f64,
    /// Transient faults clear after between 1 and this many faulted
    /// attempts (drawn per key). A retry policy with strictly more
    /// attempts than this always outlasts every transient fault.
    pub max_transient_attempts: u32,
    /// Relative weights of `[Drop, Delay, Disconnect, Garble, Stall]`.
    pub kind_weights: [f64; 5],
}

/// Mean injected latency for `Delay` faults, in milliseconds.
const MEAN_DELAY_MS: u64 = 40;

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            fault_prob: 0.2,
            permanent_prob: 0.0,
            max_transient_attempts: 2,
            kind_weights: [1.0; 5],
        }
    }
}

/// A seeded, deterministic fault schedule.
///
/// `decide` is a pure function: the same `(seed, config, key, attempt)`
/// always yields the same verdict, on any shard, in any order.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    /// `DetRng::seed(seed).derive("fault")`, derived once: every key's
    /// stream derives from it.
    root: DetRng,
}

/// Two plans are equal when their seeds and configurations are; the
/// root stream follows from the seed.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &FaultPlan) -> bool {
        self.seed == other.seed && self.config == other.config
    }
}

/// Environment variable naming the fault seed for chaos runs.
pub const FAULT_SEED_ENV: &str = "MINEDIG_FAULT_SEED";

impl FaultPlan {
    /// A plan with the given seed and the default (transient-only) mix.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan::with_config(seed, FaultConfig::default())
    }

    /// A plan with an explicit configuration.
    pub fn with_config(seed: u64, config: FaultConfig) -> FaultPlan {
        FaultPlan {
            seed,
            config,
            root: DetRng::seed(seed).derive("fault"),
        }
    }

    /// A transient-only plan: every fault clears within
    /// `max_transient_attempts`, so retries can always win.
    pub fn transient_only(seed: u64, fault_prob: f64) -> FaultPlan {
        FaultPlan::with_config(
            seed,
            FaultConfig {
                fault_prob,
                permanent_prob: 0.0,
                ..FaultConfig::default()
            },
        )
    }

    /// The default-config plan seeded by [`FAULT_SEED_ENV`] through
    /// `lookup`: `None` when unset, and an error naming the variable for
    /// a value that is not a whole number.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Option<FaultPlan>, String> {
        let seed = crate::parse_var(lookup, FAULT_SEED_ENV, "a whole number", |_: &u64| true)?;
        Ok(seed.map(FaultPlan::new))
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Attempts guaranteed to outlast any transient fault of this plan:
    /// size retry policies with at least this many attempts to make
    /// fault-free equivalence unconditional.
    pub fn attempts_to_clear(&self) -> u32 {
        self.config.max_transient_attempts.saturating_add(1)
    }

    /// The fault injected into the `attempt`-th try (zero-based) of the
    /// operation named `key`, or `None` for a clean attempt.
    pub fn decide(&self, key: &str, attempt: u32) -> Option<Fault> {
        let mut rng = self.root.derive(key);
        if !rng.chance(self.config.fault_prob) {
            return None;
        }
        let permanent = rng.chance(self.config.permanent_prob);
        let clears_after = 1 + rng.gen_range(u64::from(self.config.max_transient_attempts.max(1)));
        if !permanent && u64::from(attempt) >= clears_after {
            return None;
        }
        let kind = rng.weighted_index(&self.config.kind_weights);
        Some(match kind {
            0 => Fault::Drop,
            1 => Fault::Delay {
                ms: 1 + rng.gen_range(MEAN_DELAY_MS * 2),
            },
            2 => Fault::Disconnect,
            3 => Fault::Garble,
            _ => Fault::Stall,
        })
    }

    /// True if `key` faults on every attempt forever (a permanent
    /// fault): retries cannot recover this operation.
    pub fn is_permanent(&self, key: &str) -> bool {
        self.decide(key, u32::MAX).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_pure_and_seed_sensitive() {
        let a = FaultPlan::new(11);
        let b = FaultPlan::new(11);
        let c = FaultPlan::new(12);
        let mut differs = false;
        for i in 0..200 {
            let key = format!("op.{i}");
            assert_eq!(a.decide(&key, 0), b.decide(&key, 0));
            assert_eq!(a.decide(&key, 3), b.decide(&key, 3));
            if a.decide(&key, 0) != c.decide(&key, 0) {
                differs = true;
            }
        }
        assert!(differs, "seeds 11 and 12 produced identical schedules");
    }

    /// Reference `decide`: derives the key's stream from the seed in
    /// two steps on every call.
    fn decide_rederiving(plan: &FaultPlan, key: &str, attempt: u32) -> Option<Fault> {
        let config = plan.config();
        let mut rng = DetRng::seed(plan.seed()).derive("fault").derive(key);
        if !rng.chance(config.fault_prob) {
            return None;
        }
        let permanent = rng.chance(config.permanent_prob);
        let clears_after = 1 + rng.gen_range(u64::from(config.max_transient_attempts.max(1)));
        if !permanent && u64::from(attempt) >= clears_after {
            return None;
        }
        Some(match rng.weighted_index(&config.kind_weights) {
            0 => Fault::Drop,
            1 => Fault::Delay {
                ms: 1 + rng.gen_range(MEAN_DELAY_MS * 2),
            },
            2 => Fault::Disconnect,
            3 => Fault::Garble,
            _ => Fault::Stall,
        })
    }

    #[test]
    fn decide_matches_the_rederiving_construction() {
        let mixed = FaultConfig {
            fault_prob: 0.6,
            permanent_prob: 0.3,
            max_transient_attempts: 3,
            kind_weights: [1.0, 2.0, 0.5, 1.0, 3.0],
        };
        for plan in [
            FaultPlan::new(0),
            FaultPlan::new(5),
            FaultPlan::with_config(2018, mixed),
        ] {
            for i in 0..2_000 {
                let key = format!("probe.k{i}");
                for attempt in [0, 1, 2, 3, 7, u32::MAX] {
                    assert_eq!(
                        plan.decide(&key, attempt),
                        decide_rederiving(&plan, &key, attempt),
                        "seed {} key {key} attempt {attempt}",
                        plan.seed()
                    );
                }
            }
        }
    }

    #[test]
    fn plans_are_equal_by_seed_and_config() {
        assert_eq!(FaultPlan::new(3), FaultPlan::new(3).clone());
        assert_ne!(FaultPlan::new(3), FaultPlan::new(4));
        assert_ne!(FaultPlan::new(3), FaultPlan::transient_only(3, 0.5));
    }

    #[test]
    fn fault_rate_tracks_probability() {
        let plan = FaultPlan::transient_only(5, 0.3);
        let faulty = (0..10_000)
            .filter(|i| plan.decide(&format!("k{i}"), 0).is_some())
            .count();
        assert!((2_600..3_400).contains(&faulty), "faulty {faulty}");
    }

    #[test]
    fn transient_faults_clear_within_the_bound() {
        let plan = FaultPlan::transient_only(6, 1.0);
        let bound = plan.attempts_to_clear();
        for i in 0..500 {
            let key = format!("k{i}");
            assert!(plan.decide(&key, 0).is_some(), "attempt 0 must fault");
            assert!(
                plan.decide(&key, bound).is_none(),
                "fault on {key} survived past the clearing bound"
            );
            assert!(!plan.is_permanent(&key));
        }
    }

    #[test]
    fn faults_do_not_reappear_after_clearing() {
        let plan = FaultPlan::transient_only(7, 1.0);
        for i in 0..200 {
            let key = format!("k{i}");
            let mut cleared = false;
            for attempt in 0..8 {
                match plan.decide(&key, attempt) {
                    Some(_) => assert!(!cleared, "fault on {key} reappeared"),
                    None => cleared = true,
                }
            }
            assert!(cleared);
        }
    }

    #[test]
    fn permanent_faults_never_clear() {
        let plan = FaultPlan::with_config(
            8,
            FaultConfig {
                fault_prob: 1.0,
                permanent_prob: 1.0,
                ..FaultConfig::default()
            },
        );
        for i in 0..100 {
            let key = format!("k{i}");
            for attempt in [0, 1, 10, 1_000, u32::MAX] {
                assert!(plan.decide(&key, attempt).is_some());
            }
            assert!(plan.is_permanent(&key));
        }
    }

    #[test]
    fn kind_weights_select_kinds() {
        let only = |idx: usize| {
            let mut w = [0.0; 5];
            w[idx] = 1.0;
            FaultPlan::with_config(
                9,
                FaultConfig {
                    fault_prob: 1.0,
                    kind_weights: w,
                    ..FaultConfig::default()
                },
            )
        };
        assert_eq!(only(0).decide("k", 0), Some(Fault::Drop));
        assert!(matches!(only(1).decide("k", 0), Some(Fault::Delay { ms }) if ms > 0));
        assert_eq!(only(2).decide("k", 0), Some(Fault::Disconnect));
        assert_eq!(only(3).decide("k", 0), Some(Fault::Garble));
        assert_eq!(only(4).decide("k", 0), Some(Fault::Stall));
    }

    #[test]
    fn seed_parses_whole_numbers_and_rejects_the_rest() {
        let seed = |v: Option<&str>| {
            FaultPlan::parse(|_| v.map(String::from)).map(|plan| plan.map(|p| p.seed()))
        };
        assert_eq!(seed(None), Ok(None));
        assert_eq!(seed(Some("0")), Ok(Some(0)));
        assert_eq!(seed(Some(" 17 ")), Ok(Some(17)));
        for bad in ["abc", "-3", "1.5", ""] {
            let err = seed(Some(bad)).expect_err(bad);
            assert!(err.contains(FAULT_SEED_ENV), "{err}");
        }
    }
}
