//! Fault-injecting transport wrapper for chaos testing.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and injects message
//! drops, delivery delays, disconnects, garbled payloads, and stalls on
//! the reproducible schedule of a seeded
//! [`FaultPlan`](minedig_primitives::fault::FaultPlan). Operations are
//! keyed `"{label}.send.{n}"` / `"{label}.recv.{n}"` by sequence
//! number, so two transports with the same plan and label experience
//! byte-identical fault schedules — the property the unit tests pin
//! down and the chaos suites build on.

use crate::transport::{Transport, TransportError};
use minedig_primitives::fault::{Fault, FaultPlan};
use minedig_primitives::rng::DetRng;
use std::time::Duration;

/// Per-kind counters of the faults a [`FaultyTransport`] injected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages silently lost (send) or discarded in flight (recv).
    pub drops: u64,
    /// Messages delivered late.
    pub delays: u64,
    /// Total injected latency in milliseconds.
    pub delayed_ms: u64,
    /// Connection teardowns injected.
    pub disconnects: u64,
    /// Payloads delivered corrupted.
    pub garbles: u64,
    /// Operations that hung until the caller's timeout.
    pub stalls: u64,
    /// Times the caller re-established the connection.
    pub reconnects: u64,
}

impl FaultStats {
    /// Total faults injected (reconnects are recoveries, not faults).
    pub fn injected(&self) -> u64 {
        self.drops + self.delays + self.disconnects + self.garbles + self.stalls
    }
}

/// A [`Transport`] decorator that injects deterministic faults.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    /// `DetRng::seed(plan.seed()).derive("garble")`, derived once: each
    /// garbled payload's stream derives from it by operation key.
    garble_root: DetRng,
    label: String,
    send_seq: u64,
    recv_seq: u64,
    disconnected: bool,
    stats: FaultStats,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the given plan. `label` namespaces this
    /// transport's operations within the plan (e.g. the endpoint id).
    pub fn new(inner: T, plan: FaultPlan, label: &str) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            garble_root: DetRng::seed(plan.seed()).derive("garble"),
            plan,
            label: label.to_string(),
            send_seq: 0,
            recv_seq: 0,
            disconnected: false,
            stats: FaultStats::default(),
        }
    }

    /// Counters of the faults injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// True while an injected disconnect is in force.
    pub fn is_disconnected(&self) -> bool {
        self.disconnected
    }

    /// Clears an injected disconnect, modelling the caller
    /// re-establishing the connection.
    pub fn reconnect(&mut self) {
        if self.disconnected {
            self.disconnected = false;
            self.stats.reconnects += 1;
        }
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn garble(&self, key: &str, payload: &[u8]) -> Vec<u8> {
        // Corruption is keyed like the fault itself, so a garbled
        // payload is reproducible byte-for-byte.
        let mut rng = self.garble_root.derive(key);
        payload
            .iter()
            .map(|&b| b ^ (1 + rng.gen_range(255)) as u8)
            .collect()
    }

    fn send_inner(
        &mut self,
        message: &[u8],
        timeout: Option<Duration>,
    ) -> Result<(), TransportError> {
        if self.disconnected {
            return Err(TransportError::Closed);
        }
        let key = format!("{}.send.{}", self.label, self.send_seq);
        self.send_seq += 1;
        let fault = self.plan.decide(&key, 0);
        let deliver = |me: &mut Self, payload: &[u8]| match timeout {
            Some(t) => me.inner.send_timeout(payload, t),
            None => me.inner.send(payload),
        };
        match fault {
            None => deliver(self, message),
            Some(Fault::Drop) => {
                self.stats.drops += 1;
                Ok(())
            }
            Some(Fault::Delay { ms }) => {
                self.stats.delays += 1;
                self.stats.delayed_ms += ms;
                deliver(self, message)
            }
            Some(Fault::Disconnect) => {
                self.disconnected = true;
                self.stats.disconnects += 1;
                Err(TransportError::Closed)
            }
            Some(Fault::Garble) => {
                self.stats.garbles += 1;
                let garbled = self.garble(&key, message);
                deliver(self, &garbled)
            }
            Some(Fault::Stall) => {
                self.stats.stalls += 1;
                Err(TransportError::Timeout)
            }
        }
    }

    fn recv_inner(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>, TransportError> {
        if self.disconnected {
            return Err(TransportError::Closed);
        }
        let key = format!("{}.recv.{}", self.label, self.recv_seq);
        self.recv_seq += 1;
        let fault = self.plan.decide(&key, 0);
        let deliver = |me: &mut Self| match timeout {
            Some(t) => me.inner.recv_timeout(t),
            None => me.inner.recv(),
        };
        match fault {
            None => deliver(self),
            Some(Fault::Drop) => {
                // The response is consumed in flight and lost; the
                // caller observes a timeout.
                self.stats.drops += 1;
                let _ = deliver(self)?;
                Err(TransportError::Timeout)
            }
            Some(Fault::Delay { ms }) => {
                self.stats.delays += 1;
                self.stats.delayed_ms += ms;
                deliver(self)
            }
            Some(Fault::Disconnect) => {
                self.disconnected = true;
                self.stats.disconnects += 1;
                Err(TransportError::Closed)
            }
            Some(Fault::Garble) => {
                self.stats.garbles += 1;
                let payload = deliver(self)?;
                Ok(self.garble(&key, &payload))
            }
            Some(Fault::Stall) => {
                self.stats.stalls += 1;
                Err(TransportError::Timeout)
            }
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, message: &[u8]) -> Result<(), TransportError> {
        self.send_inner(message, None)
    }

    fn send_timeout(&mut self, message: &[u8], timeout: Duration) -> Result<(), TransportError> {
        self.send_inner(message, Some(timeout))
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.recv_inner(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.recv_inner(Some(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_pair;
    use minedig_primitives::fault::FaultConfig;

    fn only(kind: usize, seed: u64) -> FaultPlan {
        let mut kind_weights = [0.0; 5];
        kind_weights[kind] = 1.0;
        FaultPlan::with_config(
            seed,
            FaultConfig {
                fault_prob: 1.0,
                kind_weights,
                ..FaultConfig::default()
            },
        )
    }

    #[test]
    fn no_faults_is_a_transparent_wrapper() {
        let (a, mut b) = channel_pair();
        let plan = FaultPlan::transient_only(1, 0.0);
        let mut a = FaultyTransport::new(a, plan, "t");
        a.send(b"hello").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        b.send(b"world").unwrap();
        assert_eq!(a.recv().unwrap(), b"world");
        assert_eq!(a.stats().injected(), 0);
    }

    #[test]
    fn drop_loses_the_message_silently() {
        let (a, mut b) = channel_pair();
        let mut a = FaultyTransport::new(a, only(0, 2), "t");
        a.send(b"gone").unwrap();
        assert_eq!(a.stats().drops, 1);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(5)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn drop_on_recv_consumes_and_times_out() {
        let (a, mut b) = channel_pair();
        let mut a = FaultyTransport::new(a, only(0, 3), "t");
        b.send(b"eaten").unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        );
        assert_eq!(a.stats().drops, 1);
    }

    #[test]
    fn delay_delivers_late_but_intact() {
        let (a, mut b) = channel_pair();
        let mut a = FaultyTransport::new(a, only(1, 4), "t");
        a.send(b"late").unwrap();
        assert_eq!(b.recv().unwrap(), b"late");
        assert_eq!(a.stats().delays, 1);
        assert!(a.stats().delayed_ms > 0);
    }

    #[test]
    fn disconnect_closes_until_reconnect() {
        let (a, mut b) = channel_pair();
        let mut a = FaultyTransport::new(a, only(2, 5), "t");
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
        assert!(a.is_disconnected());
        // Every operation fails while down, with no new faults drawn.
        assert_eq!(
            a.recv_timeout(Duration::from_millis(1)),
            Err(TransportError::Closed)
        );
        assert_eq!(a.stats().disconnects, 1);
        a.reconnect();
        assert!(!a.is_disconnected());
        assert_eq!(a.stats().reconnects, 1);
        // The next send draws a fresh (here: also Disconnect) decision,
        // proving the wrapper is live again rather than wedged.
        let _ = a.send(b"y");
        drop(b.recv_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn garble_corrupts_deterministically() {
        let run = || {
            let (a, mut b) = channel_pair();
            let mut a = FaultyTransport::new(a, only(3, 6), "t");
            a.send(b"payload").unwrap();
            b.recv().unwrap()
        };
        let first = run();
        assert_ne!(first, b"payload".to_vec());
        assert_eq!(first.len(), 7);
        assert_eq!(first, run(), "garbling must be reproducible");
        // The stream is the one derived from the seed in two steps.
        let mut rng = DetRng::seed(6).derive("garble").derive("t.send.0");
        let expected: Vec<u8> = b"payload"
            .iter()
            .map(|&b| b ^ (1 + rng.gen_range(255)) as u8)
            .collect();
        assert_eq!(first, expected);
    }

    #[test]
    fn stall_times_out_without_consuming() {
        let (a, mut b) = channel_pair();
        let mut a = FaultyTransport::new(a, only(4, 7), "t");
        b.send(b"still there").unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(5)),
            Err(TransportError::Timeout)
        );
        assert_eq!(a.stats().stalls, 1);
        // A clean plan sees the message still queued.
        let inner = a.into_inner();
        let mut clean = FaultyTransport::new(inner, FaultPlan::transient_only(7, 0.0), "t2");
        assert_eq!(clean.recv().unwrap(), b"still there");
    }

    #[test]
    fn schedule_is_deterministic_by_seed_and_label() {
        let schedule = |seed: u64, label: &str| {
            let (a, _b) = channel_pair();
            let mut a = FaultyTransport::new(a, FaultPlan::transient_only(seed, 0.5), label);
            let mut outcomes = Vec::new();
            for i in 0..100u32 {
                let r = a.send(&i.to_le_bytes());
                outcomes.push(r.is_ok());
                a.reconnect();
            }
            (outcomes, a.stats().clone())
        };
        let (o1, s1) = schedule(42, "endpoint-0");
        let (o2, s2) = schedule(42, "endpoint-0");
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        let (o3, _) = schedule(43, "endpoint-0");
        let (o4, _) = schedule(42, "endpoint-1");
        assert_ne!(o1, o3, "different seed must reshuffle the schedule");
        assert_ne!(o1, o4, "different label must reshuffle the schedule");
        assert!(s1.injected() > 0, "p=0.5 over 100 ops must inject faults");
    }
}
