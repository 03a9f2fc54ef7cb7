//! Shared bounded-backoff-with-jitter retry.
//!
//! Two callers share it: the service's `submit_with_retry` admission
//! loop and the cluster transport's RPC retransmission. This module is
//! the one implementation: a [`BackoffPolicy`] describing the bound and
//! delay curve, a [`Backoff`] iterator-style state machine over it, and a
//! [`retry`] driver that separates *retryable* from *fatal* errors via
//! [`Retry`].
//!
//! Delays follow truncated exponential backoff (`initial · 2ⁿ`, capped at
//! `max`) with deterministic downward jitter: each delay is scaled by
//! `1 − jitter·u` with `u ∈ [0, 1)` drawn from a seeded SplitMix64 stream.
//! Jitter only ever *shortens* a delay, so tests can still bound total wait
//! time from above, and equal seeds reproduce equal schedules — the same
//! discipline the chaos testkit uses.

use std::time::Duration;

use tdfs_graph::rng::Rng;

/// Bound and delay curve for a retry loop.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// Retries *after* the first attempt.
    pub max_retries: u32,
    /// Delay before the first retry.
    pub initial: Duration,
    /// Delay cap; doubling stops here.
    pub max: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by `1 − jitter·u`
    /// with uniform `u ∈ [0, 1)`. Zero disables jitter.
    pub jitter: f64,
    /// Seed for the jitter stream; equal seeds give equal schedules.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_retries: 4,
            initial: Duration::from_millis(1),
            max: Duration::from_millis(50),
            jitter: 0.25,
            seed: 0x7df5_0b0c_9e3e_11d7,
        }
    }
}

impl BackoffPolicy {
    /// Policy with the given bound and delay curve (default jitter).
    pub fn new(max_retries: u32, initial: Duration, max: Duration) -> Self {
        BackoffPolicy {
            max_retries,
            initial,
            max,
            ..BackoffPolicy::default()
        }
    }

    /// Disables jitter (exact nominal delays).
    pub fn no_jitter(mut self) -> Self {
        self.jitter = 0.0;
        self
    }

    /// Replaces the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Starts a fresh backoff state machine over this policy.
    pub fn start(&self) -> Backoff {
        Backoff {
            initial: self.initial,
            max: self.max,
            max_retries: self.max_retries,
            attempt: 0,
            jitter: self.jitter.clamp(0.0, 1.0),
            rng: Rng::seed_from_u64(self.seed),
        }
    }
}

/// Backoff state for one retry loop: tracks the attempt index and hands out
/// the next (jittered) delay until the policy's bound is exhausted.
#[derive(Debug, Clone)]
pub struct Backoff {
    initial: Duration,
    max: Duration,
    max_retries: u32,
    attempt: u32,
    jitter: f64,
    rng: Rng,
}

impl Backoff {
    /// Zero-based index of the attempt about to run: 0 for the first try,
    /// `n` for the `n`th retry.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Delay to wait before the next retry, or `None` when the policy's
    /// retry bound is exhausted. Advances the attempt counter.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.max_retries {
            return None;
        }
        // initial · 2ⁿ, saturating, capped at max.
        let exp = self.attempt.min(32);
        let nominal = self
            .initial
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(self.max);
        self.attempt += 1;
        if self.jitter <= 0.0 || nominal.is_zero() {
            return Some(nominal);
        }
        let scale = 1.0 - self.jitter * self.rng.gen_f64();
        Some(nominal.mul_f64(scale))
    }

    /// [`Backoff::next_delay`] plus the sleep itself: sleeps the delay (when
    /// nonzero) and reports `true`, or reports `false` when exhausted.
    pub fn sleep(&mut self) -> bool {
        match self.next_delay() {
            Some(d) => {
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
                true
            }
            None => false,
        }
    }
}

/// One attempt's verdict inside [`retry`].
#[derive(Debug)]
pub enum Retry<T, E> {
    /// Success — stop and return the value.
    Done(T),
    /// Transient failure — back off and try again (the error is returned if
    /// the bound is exhausted).
    Again(E),
    /// Permanent failure — stop immediately without consuming the bound.
    Fatal(E),
}

/// Drives `op` under `policy` until it reports [`Retry::Done`],
/// [`Retry::Fatal`], or the retry bound is exhausted. `op` receives the
/// zero-based attempt index (so call sites can count resubmissions without
/// keeping their own counter).
pub fn retry<T, E>(policy: &BackoffPolicy, mut op: impl FnMut(u32) -> Retry<T, E>) -> Result<T, E> {
    let mut backoff = policy.start();
    loop {
        match op(backoff.attempt()) {
            Retry::Done(v) => return Ok(v),
            Retry::Fatal(e) => return Err(e),
            Retry::Again(e) => {
                if !backoff.sleep() {
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_without_retries() {
        let result: Result<u32, ()> = retry(&BackoffPolicy::default(), |attempt| {
            assert_eq!(attempt, 0);
            Retry::Done(7)
        });
        assert_eq!(result, Ok(7));
    }

    #[test]
    fn retries_then_succeeds() {
        let policy = BackoffPolicy::new(5, Duration::ZERO, Duration::ZERO);
        let mut calls = 0;
        let result: Result<u32, &str> = retry(&policy, |attempt| {
            calls += 1;
            if attempt < 3 {
                Retry::Again("busy")
            } else {
                Retry::Done(attempt)
            }
        });
        assert_eq!(result, Ok(3));
        assert_eq!(calls, 4);
    }

    #[test]
    fn exhaustion_returns_last_error() {
        let policy = BackoffPolicy::new(2, Duration::ZERO, Duration::ZERO);
        let mut calls = 0;
        let result: Result<(), u32> = retry(&policy, |attempt| {
            calls += 1;
            Retry::Again(attempt)
        });
        // First attempt + 2 retries = 3 calls; last error carries attempt 2.
        assert_eq!(calls, 3);
        assert_eq!(result, Err(2));
    }

    #[test]
    fn fatal_stops_immediately() {
        let policy = BackoffPolicy::new(10, Duration::ZERO, Duration::ZERO);
        let mut calls = 0;
        let result: Result<(), &str> = retry(&policy, |_| {
            calls += 1;
            Retry::Fatal("bad request")
        });
        assert_eq!(calls, 1);
        assert_eq!(result, Err("bad request"));
    }

    #[test]
    fn delays_double_and_cap() {
        let policy =
            BackoffPolicy::new(6, Duration::from_millis(10), Duration::from_millis(40)).no_jitter();
        let mut b = policy.start();
        let delays: Vec<u64> = std::iter::from_fn(|| b.next_delay())
            .map(|d| d.as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![10, 20, 40, 40, 40, 40]);
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn jitter_only_shortens_and_is_deterministic() {
        let policy = BackoffPolicy::new(8, Duration::from_millis(10), Duration::from_millis(80))
            .with_seed(42);
        let collect = |p: &BackoffPolicy| {
            let mut b = p.start();
            std::iter::from_fn(|| b.next_delay()).collect::<Vec<_>>()
        };
        let a = collect(&policy);
        let b = collect(&policy);
        assert_eq!(a, b, "equal seeds must give equal schedules");
        let nominal = collect(&policy.clone().no_jitter());
        for (j, n) in a.iter().zip(&nominal) {
            assert!(j <= n, "jitter must only shorten delays: {j:?} > {n:?}");
            // 25% jitter keeps at least 75% of the nominal delay.
            assert!(j.as_secs_f64() >= n.as_secs_f64() * 0.75 - 1e-9);
        }
        assert!(a != nominal, "some delay should actually be jittered");
    }

    #[test]
    fn attempt_index_is_passed_through() {
        let policy = BackoffPolicy::new(3, Duration::ZERO, Duration::ZERO);
        let mut seen = Vec::new();
        let _: Result<(), ()> = retry(&policy, |attempt| {
            seen.push(attempt);
            Retry::Again(())
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
