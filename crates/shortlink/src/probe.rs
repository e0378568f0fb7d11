//! Probing abstraction for the enumeration campaign, with fault
//! injection and retries.
//!
//! The sequential walk and the enumeration campaign are written against
//! [`LinkProber`], which makes the transport explicit: a probe can find
//! a live link, find a dead ID, or *fail* — and a failure is a
//! transport artifact, not evidence about the ID space. Keeping those
//! outcomes distinct is what stops a burst of transient failures from
//! truncating the dead-run stop heuristic (§4.1 fought exactly this
//! with `cnhv.co` throttling).
//!
//! Faults are keyed by link code, so a schedule is invariant under
//! sharding and window size, and retries are driven by the shared
//! [`RetryPolicy`] with per-code deterministic jitter.

use crate::service::{ShortlinkService, VisitDoc};
use minedig_primitives::fault::{Fault, FaultPlan};
use minedig_primitives::retry::{retry, ErrorClass, RetryPolicy, Retryable};
use minedig_primitives::rng::DetRng;

/// Transport-level probe failure. Every kind is transient-capable: a
/// "permanent" outage is simply a fault that never clears, surfacing as
/// retry exhaustion rather than a distinct error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeError {
    /// The probe (or its response) timed out.
    Timeout,
    /// The connection was torn down mid-probe.
    Closed,
    /// The response arrived corrupted.
    Garbled,
}

impl Retryable for ProbeError {
    fn error_class(&self) -> ErrorClass {
        ErrorClass::Transient
    }
}

/// Something that can probe a short-link code.
pub trait LinkProber: Sync {
    /// Probes `code`: `Ok(Some)` is a live link, `Ok(None)` a dead ID,
    /// `Err` a transport failure. `attempt` is the zero-based retry
    /// index, which fault plans key their schedule on.
    fn probe(&self, code: &str, attempt: u32) -> Result<Option<VisitDoc>, ProbeError>;
}

/// The service itself never fails at the transport level.
impl LinkProber for ShortlinkService {
    fn probe(&self, code: &str, _attempt: u32) -> Result<Option<VisitDoc>, ProbeError> {
        Ok(self.visit(code))
    }
}

/// A [`LinkProber`] decorator injecting deterministic faults keyed by
/// link code.
pub struct FaultyProber<'a, P: LinkProber> {
    inner: &'a P,
    plan: FaultPlan,
}

impl<'a, P: LinkProber> FaultyProber<'a, P> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: &'a P, plan: FaultPlan) -> FaultyProber<'a, P> {
        FaultyProber { inner, plan }
    }
}

impl<P: LinkProber> LinkProber for FaultyProber<'_, P> {
    fn probe(&self, code: &str, attempt: u32) -> Result<Option<VisitDoc>, ProbeError> {
        match self.plan.decide(format_args!("probe.{code}"), attempt) {
            None => self.inner.probe(code, attempt),
            // Latency alone does not change the observed document.
            Some(Fault::Delay) => self.inner.probe(code, attempt),
            Some(Fault::Drop) | Some(Fault::Stall) => Err(ProbeError::Timeout),
            Some(Fault::Disconnect) => Err(ProbeError::Closed),
            Some(Fault::Garble) => Err(ProbeError::Garbled),
        }
    }
}

/// How the enumerator retries failed probes.
#[derive(Debug, Clone, Default)]
pub struct ProbePolicy {
    /// Retry policy applied per code.
    pub retry: RetryPolicy,
    /// Seed for the per-code backoff jitter streams.
    pub jitter_seed: u64,
}

impl ProbePolicy {
    /// A policy sized to outlast every transient fault of `plan`, making
    /// the enumeration provably fault-free-equivalent.
    pub fn outlasting(plan: &FaultPlan) -> ProbePolicy {
        ProbePolicy {
            retry: RetryPolicy::attempts(plan.attempts_to_clear()),
            jitter_seed: plan.seed(),
        }
    }
}

/// Probes `code` under the policy's retry budget. Returns the final
/// verdict plus the number of retries spent (0 on first-try success).
pub fn probe_with_retry<P: LinkProber>(
    prober: &P,
    code: &str,
    policy: &ProbePolicy,
) -> (Result<Option<VisitDoc>, ProbeError>, u32) {
    let jitter = || DetRng::seed(policy.jitter_seed).derive(format_args!("probe.jitter.{code}"));
    let outcome = retry(&policy.retry, jitter, |attempt| prober.probe(code, attempt));
    let retries = outcome.retries();
    (outcome.result, retries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::index_to_code;
    use crate::model::{LinkPopulation, LinkRecord};
    use minedig_primitives::fault::FaultConfig;

    fn tiny_service() -> ShortlinkService {
        ShortlinkService::new(LinkPopulation {
            links: vec![LinkRecord {
                index: 0,
                token_id: 1,
                required_hashes: 64,
                target_domain: "dest.example".into(),
                path_hash: 0,
                target_categories: Default::default(),
            }],
            users: 1,
        })
    }

    #[test]
    fn service_prober_is_infallible() {
        let s = tiny_service();
        assert!(matches!(s.probe(&index_to_code(0), 0), Ok(Some(_))));
        assert!(matches!(s.probe(&index_to_code(9), 0), Ok(None)));
    }

    #[test]
    fn retries_outlast_transient_faults() {
        let s = tiny_service();
        let plan = FaultPlan::transient_only(3, 1.0);
        let prober = FaultyProber::new(&s, plan.clone());
        let policy = ProbePolicy::outlasting(&plan);
        let (result, retries) = probe_with_retry(&prober, &index_to_code(0), &policy);
        assert!(matches!(result, Ok(Some(_))), "{result:?}");
        assert!(retries > 0, "p=1.0 faults must force at least one retry");
    }

    #[test]
    fn permanent_faults_exhaust_into_an_error() {
        let s = tiny_service();
        let plan = FaultPlan::with_config(
            4,
            FaultConfig {
                fault_prob: 1.0,
                permanent_prob: 1.0,
                ..FaultConfig::default()
            },
        );
        let prober = FaultyProber::new(&s, plan);
        let (result, retries) =
            probe_with_retry(&prober, &index_to_code(0), &ProbePolicy::default());
        assert!(result.is_err());
        assert_eq!(retries, 3, "default policy = 4 attempts");
    }
}
