//! Unified retry/backoff layer with a transient-vs-permanent error
//! taxonomy.
//!
//! Every campaign path in the workspace (zone-scan fetches, short-link
//! probes, pool-endpoint polls) retries transient failures through the
//! same [`RetryPolicy`]: bounded attempts, exponential backoff with
//! deterministic jitter, and an overall deadline. Backoff is virtual:
//! [`retry`] sums it into [`RetryOutcome::waited_ms`] and checks the
//! deadline against that sum, so retry-heavy test suites and chaos
//! proptests run instantly while still exercising the deadline logic.
//!
//! Determinism contract: jitter is drawn from a caller-supplied
//! [`DetRng`](crate::DetRng), which campaign code derives per stable
//! entity key (domain name, link code, endpoint id) — never from scan
//! order — so retry schedules are bit-identical across shard counts.
//! The stream is derived only when a loop first backs off, so the
//! first-try successes that make up a fault-free campaign never pay for
//! it.

use crate::rng::DetRng;

/// Whether an error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The operation may succeed if repeated (timeout, dropped frame,
    /// garbled payload, closed connection that can be re-established).
    Transient,
    /// Retrying cannot help (semantic refusals, invalid requests).
    Permanent,
}

/// Errors that know their own [`ErrorClass`].
pub trait Retryable {
    /// Classifies the error as transient (retry) or permanent (give up).
    fn error_class(&self) -> ErrorClass;
}

/// Retry policy: attempt budget, exponential backoff, jitter, deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in milliseconds.
    pub base_delay_ms: u64,
    /// Backoff cap; the exponential curve saturates here.
    pub max_delay_ms: u64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Overall deadline in milliseconds from the first attempt; `None`
    /// means attempts alone bound the loop. A backoff that would
    /// overshoot the deadline aborts the loop immediately.
    pub deadline_ms: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 50,
            max_delay_ms: 2_000,
            jitter: 0.2,
            deadline_ms: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt, no backoff.
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
            jitter: 0.0,
            deadline_ms: None,
        }
    }

    /// A policy with `max_attempts` attempts and default backoff shape.
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// A copy of the policy whose overall deadline is tightened to at
    /// most `deadline_ms` (an existing tighter deadline wins). This is
    /// how the health layer's adaptive latency tracker feeds observed
    /// virtual latencies back into retry budgets: a deadline can only
    /// shrink, and it is consulted exclusively before a backoff sleep,
    /// so a probe that succeeds without retrying is never affected.
    pub fn tightened(&self, deadline_ms: u64) -> RetryPolicy {
        RetryPolicy {
            deadline_ms: Some(self.deadline_ms.map_or(deadline_ms, |d| d.min(deadline_ms))),
            ..self.clone()
        }
    }

    /// Backoff before attempt `attempt` (1-based count of attempts
    /// already made), with deterministic jitter drawn from `rng`.
    pub fn backoff_ms(&self, attempt: u32, rng: &mut DetRng) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_delay_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_delay_ms.max(self.base_delay_ms));
        if raw == 0 || self.jitter <= 0.0 {
            return raw;
        }
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * rng.f64();
        ((raw as f64 * factor).round() as u64).max(1)
    }
}

/// Why a retry loop gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GiveUp {
    /// The last error was permanent; retrying could not help.
    Permanent,
    /// The attempt budget was exhausted on transient errors.
    Exhausted,
    /// The next backoff would overshoot the overall deadline.
    DeadlineExceeded,
}

/// Terminal failure of a retry loop: the last error plus why the loop
/// stopped retrying.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryError<E> {
    /// The error returned by the final attempt.
    pub error: E,
    /// Why no further attempt was made.
    pub give_up: GiveUp,
}

/// Outcome of [`retry`]: the result plus effort accounting.
#[derive(Debug, Clone)]
pub struct RetryOutcome<T, E> {
    /// Final result: success, or the last error with a give-up reason.
    pub result: Result<T, RetryError<E>>,
    /// Attempts actually issued (≥ 1).
    pub attempts: u32,
    /// Total backoff waited through, in virtual milliseconds.
    pub waited_ms: u64,
}

impl<T, E> RetryOutcome<T, E> {
    /// Retries issued beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Runs `op` under `policy`, backing off in virtual time between
/// attempts.
///
/// `op` receives the zero-based attempt index — fault plans key their
/// schedule on it. Transient errors are retried until the policy's
/// attempt budget or deadline runs out; a permanent error stops the
/// loop immediately. Jitter is drawn from the stream `jitter` returns,
/// which is called once, on the first backoff — never when the first
/// attempt succeeds or the loop gives up without backing off. Two calls
/// with equal `(policy, jitter stream, error sequence)` produce
/// identical schedules.
pub fn retry<T, E: Retryable>(
    policy: &RetryPolicy,
    jitter: impl FnOnce() -> DetRng,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> RetryOutcome<T, E> {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempts = 0u32;
    let mut waited_ms = 0u64;
    let mut jitter = Some(jitter);
    let mut rng: Option<DetRng> = None;
    loop {
        let result = op(attempts);
        attempts += 1;
        let error = match result {
            Ok(value) => {
                return RetryOutcome {
                    result: Ok(value),
                    attempts,
                    waited_ms,
                }
            }
            Err(e) => e,
        };
        let give_up = if error.error_class() == ErrorClass::Permanent {
            Some(GiveUp::Permanent)
        } else if attempts >= max_attempts {
            Some(GiveUp::Exhausted)
        } else {
            None
        };
        if let Some(give_up) = give_up {
            return RetryOutcome {
                result: Err(RetryError { error, give_up }),
                attempts,
                waited_ms,
            };
        }
        let rng =
            rng.get_or_insert_with(|| jitter.take().expect("taken only while rng is unset")());
        let backoff = policy.backoff_ms(attempts, rng);
        if let Some(deadline) = policy.deadline_ms {
            if waited_ms.saturating_add(backoff) > deadline {
                return RetryOutcome {
                    result: Err(RetryError {
                        error,
                        give_up: GiveUp::DeadlineExceeded,
                    }),
                    attempts,
                    waited_ms,
                };
            }
        }
        waited_ms = waited_ms.saturating_add(backoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TestError {
        Flaky,
        Fatal,
    }

    impl Retryable for TestError {
        fn error_class(&self) -> ErrorClass {
            match self {
                TestError::Flaky => ErrorClass::Transient,
                TestError::Fatal => ErrorClass::Permanent,
            }
        }
    }

    fn flaky_until(n: u32) -> impl FnMut(u32) -> Result<u32, TestError> {
        move |attempt| {
            if attempt >= n {
                Ok(attempt)
            } else {
                Err(TestError::Flaky)
            }
        }
    }

    #[test]
    fn succeeds_first_try_without_waiting() {
        let out = retry(&RetryPolicy::default(), || DetRng::seed(1), flaky_until(0));
        assert_eq!(out.retries(), 0);
        assert_eq!(out.result.unwrap(), 0);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.waited_ms, 0);
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let out = retry(
            &RetryPolicy::attempts(5),
            || DetRng::seed(2),
            flaky_until(3),
        );
        assert_eq!(out.result.unwrap(), 3);
        assert_eq!(out.attempts, 4);
        assert!(out.waited_ms > 0);
    }

    #[test]
    fn zero_retries_policy_gives_up_on_first_transient() {
        let out = retry(
            &RetryPolicy::no_retries(),
            || DetRng::seed(3),
            flaky_until(1),
        );
        let err = out.result.unwrap_err();
        assert_eq!(err.give_up, GiveUp::Exhausted);
        assert_eq!(err.error, TestError::Flaky);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.waited_ms, 0);
    }

    #[test]
    fn permanent_error_short_circuits() {
        let out = retry(
            &RetryPolicy::attempts(10),
            || DetRng::seed(4),
            |_: u32| -> Result<(), TestError> { Err(TestError::Fatal) },
        );
        let err = out.result.unwrap_err();
        assert_eq!(err.give_up, GiveUp::Permanent);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.waited_ms, 0);
    }

    #[test]
    fn attempt_budget_is_exhausted_on_persistent_transients() {
        let out = retry(
            &RetryPolicy::attempts(3),
            || DetRng::seed(5),
            flaky_until(u32::MAX),
        );
        assert_eq!(out.result.unwrap_err().give_up, GiveUp::Exhausted);
        assert_eq!(out.attempts, 3);
    }

    #[test]
    fn jitter_stream_is_derived_only_on_the_first_backoff() {
        let derived = std::cell::Cell::new(0u32);
        let jitter = || {
            derived.set(derived.get() + 1);
            DetRng::seed(10)
        };
        let policy = RetryPolicy::attempts(5);
        let out = retry(&policy, jitter, flaky_until(0));
        assert_eq!(out.attempts, 1);
        assert_eq!(derived.get(), 0, "first-try success");
        let out = retry(&policy, jitter, |_: u32| Err::<(), _>(TestError::Fatal));
        assert_eq!(out.result.unwrap_err().give_up, GiveUp::Permanent);
        assert_eq!(derived.get(), 0, "permanent failure");
        let out = retry(&policy, jitter, flaky_until(3));
        assert_eq!(out.retries(), 3);
        assert_eq!(derived.get(), 1, "three backoffs, one stream");
        // The backoffs are the derived stream's draws, in order.
        let mut rng = DetRng::seed(10);
        let expected: u64 = (1..=3).map(|a| policy.backoff_ms(a, &mut rng)).sum();
        assert_eq!(out.waited_ms, expected);
    }

    #[test]
    fn deadline_expiry_mid_backoff_aborts_before_sleeping() {
        // base 100ms, no jitter: backoffs 100, 200, 400… with a 250ms
        // deadline the loop runs attempts at t=0, 100, then sees the
        // 200ms backoff would land at t=300 > 250 and gives up at t=100.
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 100,
            max_delay_ms: 10_000,
            jitter: 0.0,
            deadline_ms: Some(250),
        };
        let out = retry(&policy, || DetRng::seed(6), flaky_until(u32::MAX));
        assert_eq!(out.result.unwrap_err().give_up, GiveUp::DeadlineExceeded);
        assert_eq!(out.attempts, 2);
        assert_eq!(out.waited_ms, 100);
    }

    #[test]
    fn backoff_is_exponential_capped_and_jitter_free_when_disabled() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 50,
            max_delay_ms: 300,
            jitter: 0.0,
            deadline_ms: None,
        };
        let mut rng = DetRng::seed(7);
        let delays: Vec<u64> = (1..=5).map(|a| policy.backoff_ms(a, &mut rng)).collect();
        assert_eq!(delays, vec![50, 100, 200, 300, 300]);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 100,
            max_delay_ms: 100,
            jitter: 0.5,
            deadline_ms: None,
        };
        let a: Vec<u64> = {
            let mut rng = DetRng::seed(8);
            (1..=20).map(|n| policy.backoff_ms(n, &mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = DetRng::seed(8);
            (1..=20).map(|n| policy.backoff_ms(n, &mut rng)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&d| (50..=150).contains(&d)), "{a:?}");
        assert!(a.iter().any(|&d| d != 100));
    }

    #[test]
    fn tightened_deadlines_only_shrink() {
        let open = RetryPolicy::default();
        assert_eq!(open.tightened(500).deadline_ms, Some(500));
        let capped = RetryPolicy {
            deadline_ms: Some(200),
            ..RetryPolicy::default()
        };
        assert_eq!(capped.tightened(500).deadline_ms, Some(200));
        assert_eq!(capped.tightened(50).deadline_ms, Some(50));
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow_backoff() {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay_ms: u64::MAX / 2,
            max_delay_ms: u64::MAX,
            jitter: 0.0,
            deadline_ms: None,
        };
        let mut rng = DetRng::seed(9);
        // Saturates instead of overflowing.
        let d = policy.backoff_ms(64, &mut rng);
        assert!(d >= u64::MAX / 2);
    }
}
