//! Bounded retry with exponential backoff.
//!
//! Retries only errors where a retry can help ([`crate::NetError::is_retryable`],
//! i.e. timeouts — the reply may simply have been lost). Backoff waits go
//! through the injected [`Clock`], so tests drive the schedule with a
//! [`MockClock`](diesel_util::clock::MockClock) and never sleep for real.

use std::sync::Arc;

use diesel_obs::trace;

use crate::stats::EndpointMetrics;
use crate::{Endpoint, Result, Service};
use diesel_util::clock::Clock;

/// When and how much to back off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in nanoseconds.
    pub base_backoff_ns: u64,
    /// Multiplier applied per subsequent retry.
    pub multiplier: u32,
    /// Backoff ceiling, in nanoseconds.
    pub max_backoff_ns: u64,
}

impl RetryPolicy {
    /// No retries: fail on the first error.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, base_backoff_ns: 0, multiplier: 1, max_backoff_ns: 0 }
    }

    /// The wait before retry number `retry` (0-based), capped.
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        let factor = (self.multiplier as u64).saturating_pow(retry);
        self.base_backoff_ns.saturating_mul(factor).min(self.max_backoff_ns)
    }
}

impl Default for RetryPolicy {
    /// 3 attempts, 1 ms doubling backoff capped at 100 ms.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ns: 1_000_000,
            multiplier: 2,
            max_backoff_ns: 100_000_000,
        }
    }
}

/// Middleware that re-issues retryable failed calls per a [`RetryPolicy`].
pub struct Retry<S> {
    inner: S,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    metrics: Option<EndpointMetrics>,
}

impl<S> Retry<S> {
    /// Wrap `inner`; backoff waits use `clock`.
    pub fn new(inner: S, policy: RetryPolicy, clock: Arc<dyn Clock>) -> Self {
        Retry { inner, policy, clock, metrics: None }
    }

    /// Count retry attempts into `metrics` (the endpoint's registry
    /// cells).
    pub fn with_metrics(mut self, metrics: EndpointMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

impl<Req: Clone, Resp, S: Service<Req, Resp>> Service<Req, Resp> for Retry<S> {
    fn call(&self, req: Req) -> Result<Resp> {
        let mut retry = 0;
        loop {
            // Each attempt is its own sibling span (`attempt=1..k`)
            // under the caller's context; backoff waits sit between
            // attempts, outside any attempt span.
            let out = {
                let _attempt = if trace::active() {
                    let n = (retry + 1).to_string();
                    trace::span("net.attempt", &[("attempt", n.as_str())])
                } else {
                    trace::SpanGuard::default()
                };
                self.inner.call(req.clone())
            };
            match out {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_retryable() && retry + 1 < self.policy.max_attempts => {
                    if let Some(metrics) = &self.metrics {
                        metrics.record_retry();
                    }
                    self.clock.sleep_ns(self.policy.backoff_ns(retry));
                    retry += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn endpoint(&self) -> Endpoint {
        self.inner.endpoint()
    }
}

impl<S> std::fmt::Debug for Retry<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Retry").field("policy", &self.policy).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectChannel;
    use crate::NetError;
    use diesel_util::clock::MockClock;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn flaky(fail_first: u32) -> (DirectChannel<impl Fn(u32) -> Result<u32>>, Arc<AtomicU32>) {
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let chan = DirectChannel::new(Endpoint::new("flaky", 0), move |x: u32| {
            if c.fetch_add(1, Ordering::SeqCst) < fail_first {
                Err(NetError::Timeout { endpoint: Endpoint::new("flaky", 0), after_ns: 10 })
            } else {
                Ok(x)
            }
        });
        (chan, calls)
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff_ns: 1_000,
            multiplier: 2,
            max_backoff_ns: 10_000,
        };
        assert_eq!(p.backoff_ns(0), 1_000);
        assert_eq!(p.backoff_ns(1), 2_000);
        assert_eq!(p.backoff_ns(2), 4_000);
        assert_eq!(p.backoff_ns(3), 8_000);
        assert_eq!(p.backoff_ns(4), 10_000); // capped
        assert_eq!(p.backoff_ns(30), 10_000);
    }

    #[test]
    fn succeeds_after_transient_timeouts() {
        let (inner, calls) = flaky(2);
        let clock = Arc::new(MockClock::new());
        let reg = diesel_obs::Registry::new(clock.clone());
        let metrics = EndpointMetrics::new(&reg, &Endpoint::new("flaky", 0));
        let chan =
            Retry::new(inner, RetryPolicy::default(), clock.clone()).with_metrics(metrics.clone());
        assert_eq!(chan.call(5).unwrap(), 5);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(metrics.retries(), 2);
        // Backoffs waited on the mock clock: 1 ms then 2 ms.
        assert_eq!(clock.now_ns(), 3_000_000);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let (inner, calls) = flaky(u32::MAX);
        let clock = Arc::new(MockClock::new());
        let chan = Retry::new(inner, RetryPolicy::default(), clock);
        let err = chan.call(1).unwrap_err();
        assert!(err.is_retryable(), "final error is the last timeout");
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn non_retryable_errors_fail_immediately() {
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let inner = DirectChannel::new(Endpoint::new("gone", 3), move |_: ()| -> Result<()> {
            c.fetch_add(1, Ordering::SeqCst);
            Err(NetError::Disconnected { endpoint: Endpoint::new("gone", 3) })
        });
        let clock = Arc::new(MockClock::new());
        let chan = Retry::new(inner, RetryPolicy::default(), clock.clone());
        assert!(!chan.call(()).unwrap_err().is_retryable());
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(clock.now_ns(), 0, "no backoff happened");
    }

    #[test]
    fn attempts_trace_as_sibling_spans() {
        use diesel_obs::{trace, Registry, Tracer};
        let (inner, _) = flaky(2);
        let clock = Arc::new(MockClock::new());
        let registry = Arc::new(Registry::new(clock.clone()));
        let tracer = Tracer::enabled(&registry);
        let chan = Retry::new(inner, RetryPolicy::default(), clock);
        let _t = trace::install_tracer(&tracer);
        {
            let _root = trace::span("client.read", &[]);
            assert_eq!(chan.call(5).unwrap(), 5);
        }
        let spans = tracer.drain();
        let root = spans.iter().find(|s| s.name == "client.read").unwrap();
        let attempts: Vec<_> = spans.iter().filter(|s| s.name == "net.attempt").collect();
        assert_eq!(attempts.len(), 3, "two timeouts then a success");
        for (i, a) in attempts.iter().enumerate() {
            assert_eq!(a.parent, Some(root.id), "attempts are siblings under the root");
            assert_eq!(a.labels, vec![("attempt".to_owned(), (i + 1).to_string())]);
        }
    }

    #[test]
    fn policy_none_means_single_attempt() {
        let (inner, calls) = flaky(u32::MAX);
        let chan = Retry::new(inner, RetryPolicy::none(), Arc::new(MockClock::new()));
        assert!(chan.call(1).is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
