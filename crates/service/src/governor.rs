//! The overload governor: cross-query resource control.
//!
//! The engine bounds *per-warp* memory (paged stacks); this module
//! bounds the *service*: N concurrent heavy queries must degrade
//! gracefully instead of collectively exhausting memory or starving the
//! queue. Three cooperating mechanisms, all configured through
//! [`GovernorConfig`] and all **off by default** (the unloaded path pays
//! nothing):
//!
//! 1. **Memory budget + suspension.** With `memory_budget_pages` set,
//!    every query runs its paged arena against a per-query scope of one
//!    global [`tdfs_core::MemoryBudget`] (heap-spill growth is charged
//!    as overdraft page-equivalents, so the pressure signal sees the
//!    true footprint). When global pressure crosses
//!    `suspend_high_water`, the governor snapshot-suspends the
//!    *heaviest* in-flight durable query — the crash-consistent
//!    checkpoint is taken first, then shard leases are revoked and the
//!    workers park — and resumes it when pressure falls below
//!    `resume_low_water`. Suspension costs no correctness: revoked
//!    shards never publish, so the resumed query completes to the exact
//!    count.
//! 2. **Cost-aware admission + queue aging.** With `cost_per_ms` set, a
//!    cheap plan-free estimate ([`estimate_cost`]) is scaled by current
//!    load and compared against the request's deadline at submit time;
//!    an unmeetable deadline is rejected up front
//!    ([`crate::Rejected::DeadlineUnmeetable`]) instead of burning a
//!    worker on a doomed query. Independently, queued queries whose
//!    deadline has already expired are shed by the governor before they
//!    ever occupy a worker, and a CoDel-style sojourn rule
//!    ([`ShedPolicy::Sojourn`]) sheds the *newest low-priority* queued
//!    work under sustained overload.
//! 3. **Brownout.** A `Breaker` watches recent outcomes; when the
//!    failure/shed ratio spikes it opens, rejecting new non-critical
//!    work ([`crate::Rejected::BrownedOut`]) while in-flight and
//!    high-priority queries proceed, and half-opens after a cooldown to
//!    probe recovery. Mid-flight deadline hits and sheds on the durable
//!    path return partial results with an **exact** lower bound from
//!    the ack ledger (see [`crate::PartialResult`]), never a guess.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use tdfs_graph::GraphView;

/// Scheduling priority of a query. Under overload the governor sheds
/// `Low` work first and an open circuit breaker admits only `High`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Best-effort: first to be shed, rejected during brownout.
    Low,
    /// Default: kept under queue pressure, rejected during brownout.
    #[default]
    Normal,
    /// Critical: admitted even while the breaker is open.
    High,
}

/// Queue-shedding policy under sustained overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Only deadline-expired queued queries are shed (always on).
    #[default]
    None,
    /// CoDel-style: once the *oldest* queued query has waited longer
    /// than `target` continuously for at least `target`, shed the
    /// newest `Low`-priority queued query each governor tick until
    /// sojourn recovers. Shedding newest-first preserves the work the
    /// service has already waited on (oldest entries are closest to
    /// running).
    Sojourn {
        /// Acceptable queue sojourn.
        target: Duration,
    },
}

/// Circuit-breaker thresholds (brownout control).
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Master switch; `false` (default) disables state tracking.
    pub enabled: bool,
    /// Sliding outcome-window length.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Bad-outcome (failure/shed/deadline) fraction that opens it.
    pub trip_ratio: f64,
    /// Time spent open before half-opening to probe recovery.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            window: 32,
            min_samples: 8,
            trip_ratio: 0.5,
            cooldown: Duration::from_millis(100),
        }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal admission.
    #[default]
    Closed,
    /// Brownout: only [`Priority::High`] submissions are admitted.
    Open,
    /// Probing: admission is normal; the next bad outcome re-opens,
    /// the next good one closes.
    HalfOpen,
}

/// Sliding-window circuit breaker (see [`BreakerConfig`]). Pure state
/// machine: the service feeds it outcomes and ticks, and reads the
/// state at admission.
#[derive(Debug)]
pub(crate) struct Breaker {
    cfg: BreakerConfig,
    window: VecDeque<bool>,
    state: BreakerState,
    opened_at: Option<Instant>,
}

impl Breaker {
    pub(crate) fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            window: VecDeque::new(),
            state: BreakerState::Closed,
            opened_at: None,
        }
    }

    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// Feeds one finished-query outcome. Returns `true` on a state
    /// change.
    pub(crate) fn record(&mut self, bad: bool, now: Instant) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        match self.state {
            BreakerState::Closed => {
                self.window.push_back(bad);
                while self.window.len() > self.cfg.window.max(1) {
                    self.window.pop_front();
                }
                let bads = self.window.iter().filter(|&&b| b).count();
                if self.window.len() >= self.cfg.min_samples.max(1)
                    && bads as f64 >= self.cfg.trip_ratio * self.window.len() as f64
                {
                    self.open(now);
                    return true;
                }
                false
            }
            BreakerState::HalfOpen => {
                if bad {
                    self.open(now);
                } else {
                    self.state = BreakerState::Closed;
                    self.window.clear();
                    self.opened_at = None;
                }
                true
            }
            // Outcomes finishing while open are in-flight stragglers;
            // they don't inform recovery (no new work was admitted).
            BreakerState::Open => false,
        }
    }

    /// Cooldown check. Returns `true` when Open half-opens.
    pub(crate) fn tick(&mut self, now: Instant) -> bool {
        if self.state == BreakerState::Open
            && self
                .opened_at
                .is_some_and(|t| now.duration_since(t) >= self.cfg.cooldown)
        {
            self.state = BreakerState::HalfOpen;
            return true;
        }
        false
    }

    fn open(&mut self, now: Instant) {
        self.state = BreakerState::Open;
        self.window.clear();
        self.opened_at = Some(now);
    }
}

/// Overload-governor knobs (see module docs). The default configuration
/// disables every mechanism: no budget, no cost gating, no sojourn
/// shedding, breaker off.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Global page budget shared by all concurrently executing queries
    /// (8 KB pages, the arena granularity). `None` = unlimited; queries
    /// run exactly as without a governor.
    pub memory_budget_pages: Option<usize>,
    /// Budget pressure (`in_use / capacity`, >1 under spill overdraft)
    /// at or above which the heaviest in-flight durable query is
    /// snapshot-suspended.
    pub suspend_high_water: f64,
    /// Pressure at or below which suspended queries resume (one per
    /// tick). Must be below the high water or suspension flaps.
    pub resume_low_water: f64,
    /// Queue-shedding policy under sustained overload.
    pub shed_policy: ShedPolicy,
    /// Cost-model speed for deadline-aware admission, in
    /// [`estimate_cost`] units per millisecond. `None` disables the
    /// gate.
    pub cost_per_ms: Option<u64>,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Governor scan cadence (deadline sheds, pressure checks, breaker
    /// cooldown).
    pub tick: Duration,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            memory_budget_pages: None,
            suspend_high_water: 0.9,
            resume_low_water: 0.7,
            shed_policy: ShedPolicy::None,
            cost_per_ms: None,
            breaker: BreakerConfig::default(),
            tick: Duration::from_millis(2),
        }
    }
}

impl GovernorConfig {
    /// Whether any mechanism needs the background governor thread.
    pub(crate) fn needs_thread(&self) -> bool {
        self.memory_budget_pages.is_some()
            || self.shed_policy != ShedPolicy::None
            || self.breaker.enabled
            || self.deadline_sheds()
    }

    /// Queue scanning for expired deadlines is tied to any active
    /// mechanism (a fully-default governor leaves the check to the
    /// workers, at dequeue).
    fn deadline_sheds(&self) -> bool {
        self.memory_budget_pages.is_some()
            || self.shed_policy != ShedPolicy::None
            || self.breaker.enabled
    }
}

/// Cheap plan-free cost estimate of a `k`-vertex pattern query against
/// `graph`: the admitted initial-task space (`arcs`) times the expected
/// per-level candidate fanout (`avg_degree / num_labels`, at least 1)
/// compounded over the remaining `k − 2` levels, times `k` for
/// per-vertex work. Saturating; the absolute scale is meaningless — it
/// only has to *order* queries and track a per-host
/// [`GovernorConfig::cost_per_ms`] calibration.
pub fn estimate_cost<V: GraphView + ?Sized>(graph: &V, k: usize) -> u64 {
    let arcs = graph.num_arcs() as u64;
    if arcs == 0 || k < 2 {
        return k as u64;
    }
    let avg_degree = arcs / graph.num_vertices().max(1) as u64;
    let fanout = (avg_degree / graph.num_labels().max(1) as u64).max(1);
    let mut cost = arcs;
    for _ in 0..k.saturating_sub(2) {
        cost = cost.saturating_mul(fanout);
    }
    cost.saturating_mul(k as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfs_graph::GraphBuilder;

    fn breaker(enabled: bool) -> Breaker {
        Breaker::new(BreakerConfig {
            enabled,
            window: 8,
            min_samples: 4,
            trip_ratio: 0.5,
            cooldown: Duration::from_millis(10),
        })
    }

    #[test]
    fn breaker_trips_on_bad_ratio_and_recovers() {
        let mut b = breaker(true);
        let t0 = Instant::now();
        for _ in 0..3 {
            assert!(!b.record(true, t0), "below min_samples");
        }
        assert!(b.record(true, t0), "4th bad outcome trips");
        assert_eq!(b.state(), BreakerState::Open);
        // Outcomes while open are ignored; cooldown half-opens.
        assert!(!b.record(false, t0));
        assert!(!b.tick(t0 + Duration::from_millis(5)));
        assert!(b.tick(t0 + Duration::from_millis(20)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A good probe closes; a bad one would re-open.
        assert!(b.record(false, t0 + Duration::from_millis(21)));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_reopens_on_bad_probe() {
        let mut b = breaker(true);
        let t0 = Instant::now();
        for _ in 0..4 {
            b.record(true, t0);
        }
        b.tick(t0 + Duration::from_millis(20));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.record(true, t0 + Duration::from_millis(21)));
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let mut b = breaker(false);
        let t0 = Instant::now();
        for _ in 0..100 {
            assert!(!b.record(true, t0));
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn mixed_outcomes_below_ratio_stay_closed() {
        let mut b = breaker(true);
        let t0 = Instant::now();
        for i in 0..50 {
            assert!(!b.record(i % 4 == 0, t0), "1/4 bad stays closed");
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cost_estimate_orders_by_size_and_depth() {
        let mut small = GraphBuilder::new();
        for v in 1..10u32 {
            small.push_edge(0, v);
        }
        let small = small.build();
        let mut big = GraphBuilder::new();
        for u in 0..40u32 {
            for v in (u + 1)..40 {
                big.push_edge(u, v);
            }
        }
        let big = big.build();
        assert!(estimate_cost(&big, 3) > estimate_cost(&small, 3));
        assert!(estimate_cost(&big, 5) > estimate_cost(&big, 3));
        // Labels shrink candidate sets, and with them the estimate.
        let labeled = big.clone().with_labels((0..40).map(|v| v % 8).collect());
        assert!(estimate_cost(&labeled, 4) < estimate_cost(&big, 4));
        // Degenerate inputs don't panic.
        let empty = GraphBuilder::new().num_vertices(0).build();
        assert_eq!(estimate_cost(&empty, 3), 3);
    }

    #[test]
    fn default_governor_is_inert() {
        let g = GovernorConfig::default();
        assert!(!g.needs_thread());
        assert!(g.resume_low_water < g.suspend_high_water);
    }
}
