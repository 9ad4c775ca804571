//! Seeded fault injection for channels.
//!
//! Wraps any service and misbehaves per a [`FaultPolicy`]: drop the
//! request (caller sees a timeout after the configured deadline), delay
//! it, reject it outright, or disconnect permanently after N calls.
//! Faults are drawn from a private SplitMix64 stream, so a given seed
//! produces the same fault sequence on every run and platform — the
//! fault stream deliberately does not depend on the `rand` crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use diesel_util::Mutex;

use crate::{Endpoint, NetError, Result, Service};
use diesel_util::clock::Clock;

/// What to inject and how often. Probabilities are checked in order:
/// disconnect, reject, drop, delay; at most one fault fires per call.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPolicy {
    /// RNG seed; same seed ⇒ same fault sequence.
    pub seed: u64,
    /// Probability a call is rejected immediately.
    pub reject_prob: f64,
    /// Probability a call is dropped: the caller burns `drop_timeout_ns`
    /// on the clock and gets [`NetError::Timeout`].
    pub drop_prob: f64,
    /// Clock time charged to a dropped call before it times out.
    pub drop_timeout_ns: u64,
    /// Probability a call is delayed by `delay_ns` before dispatch.
    pub delay_prob: f64,
    /// Injected delay, in nanoseconds.
    pub delay_ns: u64,
    /// After this many calls, every call fails [`NetError::Disconnected`].
    pub disconnect_after: Option<u64>,
}

impl Default for FaultPolicy {
    /// No faults (but still deterministic with seed 0).
    fn default() -> Self {
        FaultPolicy {
            seed: 0,
            reject_prob: 0.0,
            drop_prob: 0.0,
            drop_timeout_ns: 50_000_000,
            delay_prob: 0.0,
            delay_ns: 0,
            disconnect_after: None,
        }
    }
}

impl FaultPolicy {
    /// A policy that only drops requests with probability `p`.
    pub fn drops(seed: u64, p: f64, timeout_ns: u64) -> Self {
        FaultPolicy { seed, drop_prob: p, drop_timeout_ns: timeout_ns, ..Default::default() }
    }

    /// A policy that disconnects permanently after `n` calls.
    pub fn disconnects_after(n: u64) -> Self {
        FaultPolicy { disconnect_after: Some(n), ..Default::default() }
    }
}

// SplitMix64: tiny, seedable, and identical everywhere. Kept private to
// this crate so fault sequences can't shift under us if the workspace's
// `rand` changes.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Middleware injecting faults per a [`FaultPolicy`].
pub struct FaultChannel<S> {
    inner: S,
    policy: FaultPolicy,
    rng: Mutex<SplitMix64>,
    calls: AtomicU64,
    clock: Arc<dyn Clock>,
}

impl<S> FaultChannel<S> {
    /// Wrap `inner`; injected waits (drops, delays) use `clock`.
    pub fn new(inner: S, policy: FaultPolicy, clock: Arc<dyn Clock>) -> Self {
        let rng = Mutex::named("net.fault_rng", SplitMix64(policy.seed));
        FaultChannel { inner, policy, rng, calls: AtomicU64::new(0), clock }
    }

    /// Calls seen so far (faulted or not).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<Req, Resp, S: Service<Req, Resp>> Service<Req, Resp> for FaultChannel<S> {
    fn call(&self, req: Req) -> Result<Resp> {
        let endpoint = self.inner.endpoint();
        let n = self.calls.fetch_add(1, Ordering::SeqCst);
        if let Some(limit) = self.policy.disconnect_after {
            if n >= limit {
                return Err(NetError::Disconnected { endpoint });
            }
        }
        // Draw all three rolls every call so the stream position depends
        // only on the call count, not on which faults fired.
        let (reject, dropped, delayed) = {
            let mut rng = self.rng.lock();
            (rng.next_f64(), rng.next_f64(), rng.next_f64())
        };
        if reject < self.policy.reject_prob {
            return Err(NetError::Rejected { endpoint, reason: "injected fault".into() });
        }
        if dropped < self.policy.drop_prob {
            self.clock.sleep_ns(self.policy.drop_timeout_ns);
            return Err(NetError::Timeout { endpoint, after_ns: self.policy.drop_timeout_ns });
        }
        if delayed < self.policy.delay_prob {
            self.clock.sleep_ns(self.policy.delay_ns);
        }
        self.inner.call(req)
    }

    fn endpoint(&self) -> Endpoint {
        self.inner.endpoint()
    }
}

impl<S> std::fmt::Debug for FaultChannel<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultChannel").field("policy", &self.policy).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectChannel;
    use diesel_util::clock::MockClock;

    fn echo() -> DirectChannel<impl Fn(u64) -> Result<u64>> {
        DirectChannel::new(Endpoint::new("svc", 0), |x: u64| Ok(x))
    }

    fn run_pattern(policy: FaultPolicy, n: u64) -> Vec<bool> {
        let chan = FaultChannel::new(echo(), policy, Arc::new(MockClock::new()));
        (0..n).map(|i| chan.call(i).is_err()).collect()
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let p = FaultPolicy::drops(42, 0.5, 1_000);
        assert_eq!(run_pattern(p.clone(), 300), run_pattern(p, 300));
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_pattern(FaultPolicy::drops(1, 0.5, 1_000), 300);
        let b = run_pattern(FaultPolicy::drops(2, 0.5, 1_000), 300);
        assert_ne!(a, b);
    }

    #[test]
    fn drop_rate_is_roughly_honored_and_charges_the_clock() {
        let clock = Arc::new(MockClock::new());
        let chan = FaultChannel::new(echo(), FaultPolicy::drops(7, 0.3, 1_000), clock.clone());
        let mut drops = 0u64;
        for i in 0..1000 {
            match chan.call(i) {
                Err(NetError::Timeout { after_ns, .. }) => {
                    assert_eq!(after_ns, 1_000);
                    drops += 1;
                }
                Err(e) => panic!("unexpected error {e:?}"),
                Ok(v) => assert_eq!(v, i),
            }
        }
        assert!((200..400).contains(&drops), "drop rate off: {drops}/1000");
        assert_eq!(clock.now_ns(), drops * 1_000, "each drop charged its timeout");
        assert_eq!(chan.calls(), 1000);
    }

    #[test]
    fn disconnect_after_is_permanent() {
        let chan = FaultChannel::new(
            echo(),
            FaultPolicy::disconnects_after(3),
            Arc::new(MockClock::new()),
        );
        for i in 0..3 {
            assert_eq!(chan.call(i).unwrap(), i);
        }
        for i in 0..5 {
            let err = chan.call(i).unwrap_err();
            assert_eq!(err, NetError::Disconnected { endpoint: Endpoint::new("svc", 0) });
        }
    }

    #[test]
    fn rejects_and_delays() {
        let clock = Arc::new(MockClock::new());
        let policy = FaultPolicy { seed: 9, reject_prob: 1.0, ..Default::default() };
        let chan = FaultChannel::new(echo(), policy, clock.clone());
        assert!(matches!(chan.call(1).unwrap_err(), NetError::Rejected { .. }));

        let policy = FaultPolicy { seed: 9, delay_prob: 1.0, delay_ns: 777, ..Default::default() };
        let chan = FaultChannel::new(echo(), policy, clock.clone());
        assert_eq!(chan.call(5).unwrap(), 5);
        assert_eq!(clock.now_ns(), 777);
    }
}
