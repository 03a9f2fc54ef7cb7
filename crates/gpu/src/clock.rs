//! Timeout clock.
//!
//! The timeout mechanism needs a monotone `now()` (paper Fig. 5: "time
//! flows one way"). The real clock wraps `std::time::Instant`; the mock
//! clock is an atomic counter tests can advance deterministically to
//! force timeouts at exact tree positions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotonic nanosecond clock, cheap to clone and share across warps.
#[derive(Clone, Debug)]
pub enum Clock {
    /// Wall clock relative to a shared epoch.
    Real(Instant),
    /// Deterministic test clock; `now_ns` returns the stored value.
    Mock(Arc<AtomicU64>),
}

impl Clock {
    /// A real wall clock starting now.
    pub fn real() -> Self {
        Clock::Real(Instant::now())
    }

    /// A mock clock starting at 0.
    pub fn mock() -> Self {
        Clock::Mock(Arc::new(AtomicU64::new(0)))
    }

    /// Current time in nanoseconds since the clock epoch.
    ///
    /// A real clock's read is `Instant::elapsed`, about 51 ns on a 2-core
    /// x86-64 KVM host, where the paper's `clock64` is a register read. A
    /// hot loop must gate it on work done instead of reading it per
    /// step, as the engine's τ test does (`tdfs_core::engine::TAU_WINDOW`).
    ///
    /// Under the `chaos` feature the `gpu.clock.storm` fault point skews
    /// the reading forward by a fixed amount per injection — a "straggler
    /// storm" that makes in-flight DFS walks look slow enough to trip the
    /// paper's timeout decomposition without any wall-clock waiting. The
    /// skew is cumulative (injection counts only grow), so the clock stays
    /// monotone.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        let t = match self {
            Clock::Real(epoch) => epoch.elapsed().as_nanos() as u64,
            Clock::Mock(t) => t.load(Ordering::Relaxed),
        };
        self.storm_skew(t)
    }

    #[cfg(feature = "chaos")]
    fn storm_skew(&self, t: u64) -> u64 {
        // Forward skew applied per injection: 10 ms, comfortably past
        // every preset timeout threshold.
        const CLOCK_STORM_NS: u64 = 10_000_000;
        // Every reading is a hit; the installed script decides which hits
        // add skew. Reading the cumulative injection count (rather than a
        // per-call delta) keeps concurrent readers consistent.
        let _ = crate::chaos_inject!("gpu.clock.storm");
        let fired = ::tdfs_testkit::fault::injections("gpu.clock.storm");
        t.saturating_add(fired.saturating_mul(CLOCK_STORM_NS))
    }

    #[cfg(not(feature = "chaos"))]
    #[inline(always)]
    fn storm_skew(&self, t: u64) -> u64 {
        t
    }

    /// Advances a mock clock by `ns`. Panics on a real clock.
    pub fn advance(&self, ns: u64) {
        match self {
            Clock::Mock(t) => {
                t.fetch_add(ns, Ordering::Relaxed);
            }
            Clock::Real(_) => panic!("cannot advance a real clock"),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::real()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_monotone() {
        let c = Clock::real();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn mock_clock_advances() {
        let c = Clock::mock();
        assert_eq!(c.now_ns(), 0);
        c.advance(50);
        assert_eq!(c.now_ns(), 50);
        let c2 = c.clone();
        c2.advance(10);
        assert_eq!(c.now_ns(), 60, "clones share the same time source");
    }

    #[test]
    #[should_panic(expected = "cannot advance")]
    fn real_clock_cannot_advance() {
        Clock::real().advance(1);
    }
}
