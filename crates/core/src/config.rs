//! Matcher configuration and the paper's system presets.
//!
//! One engine, four personalities: the behavioural differences the paper
//! documents between T-DFS, STMatch, EGSM and PBE are encoded as
//! configuration knobs so the comparison benchmarks (Figs. 9–11) measure
//! exactly those differences inside one framework — the same methodology
//! the paper uses for its Fig. 11 strategy study.

use std::time::Duration;

use tdfs_mem::{MemoryBudget, OverflowPolicy};
use tdfs_query::plan::PlanOptions;

use crate::cancel::CancelFlag;

/// Default timeout threshold `τ` (paper §IV: 10 ms).
pub const DEFAULT_TAU: Duration = Duration::from_millis(10);

/// Default fanout threshold for the EGSM-style new-kernel strategy
/// (paper example: 1024; scaled to our graph sizes).
pub const DEFAULT_FANOUT_THRESHOLD: usize = 256;

/// Default device-memory budget for the PBE-style BFS engine.
pub const DEFAULT_BFS_BUDGET: usize = 64 << 20;

/// Load-balancing strategy (paper Fig. 11's four contenders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// T-DFS: timeout decomposition into the lock-free `Q_task`.
    /// `tau = None` disables decomposition — the paper's "No Steal"
    /// (`τ = ∞`).
    Timeout {
        /// Straggler threshold; `None` = never decompose.
        tau: Option<Duration>,
    },
    /// STMatch: idle warps lock a victim warp's stack and take half of
    /// the shallowest unprocessed level.
    HalfSteal,
    /// EGSM: a fanout larger than the threshold dispatches a child
    /// "kernel" (fresh workers with newly allocated stacks).
    NewKernel {
        /// Fanout above which a child kernel is launched.
        fanout_threshold: usize,
    },
    /// PBE: BFS level-synchronous expansion under a memory budget with
    /// count-then-fill batching.
    Bfs {
        /// Device-memory budget in bytes for materialized partials.
        budget_bytes: usize,
    },
    /// The paper's future-work hybrid (§V): BFS while the next level
    /// fits in the budget, then DFS over the materialized frontier.
    Hybrid {
        /// Device-memory budget for the BFS phase's subgraph buffers.
        budget_bytes: usize,
        /// Timeout threshold for the DFS phase (effective only while the
        /// switch-over prefix is queue-encodable).
        tau: Option<Duration>,
    },
}

/// DFS-stack backing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackConfig {
    /// T-DFS paged stacks over a shared arena.
    Paged {
        /// Arena capacity in 8 KB pages (shared by all warps).
        arena_pages: usize,
        /// Page-table length per level (paper default 40).
        table_len: usize,
        /// Degrade levels to a heap spill when the arena is exhausted
        /// (reported in [`crate::RunStats::pages_spilled`]) instead of
        /// failing the run with `OutOfPages`.
        spill: bool,
    },
    /// Fixed-capacity array per level.
    Array {
        /// Capacity per level.
        capacity: ArrayCapacity,
        /// Behaviour on overflow.
        policy: OverflowPolicy,
    },
}

/// Capacity rule for array stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayCapacity {
    /// `d_max` of the data graph — correct but wasteful (Tables V–VIII).
    DMax,
    /// A fixed element count (STMatch default: 4096 — incorrect on
    /// skewed graphs unless paired with `OverflowPolicy::Error`).
    Fixed(usize),
}

/// Full matcher configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatcherConfig {
    /// Worker warps per device (default: available parallelism).
    pub num_warps: usize,
    /// Load-balancing strategy.
    pub strategy: Strategy,
    /// Stack backing store.
    pub stack: StackConfig,
    /// Plan options (symmetry breaking, intersection reuse).
    pub plan: PlanOptions,
    /// Fuse the injectivity check into candidate consumption (T-DFS).
    /// `false` models STMatch's separate set-difference pass.
    pub fused_injectivity: bool,
    /// Fuse the leaf level (`level + 1 == k`) into the final
    /// intersection: candidates are counted/emitted straight out of the
    /// lanes instead of being materialized into `stack[k-1]` and walked
    /// in a second pass. Default on for every preset; `false` restores
    /// the paper-faithful materialize-then-consume leaf for ablation.
    pub fused_leaf: bool,
    /// Run edge filtering on the host with a single thread before the
    /// kernel (STMatch), instead of in-warp during chunk fetch (T-DFS).
    pub host_edge_filter: bool,
    /// Model EGSM's Cuckoo-trie candidate index: every neighbor-list
    /// access pays two extra memory indirections.
    pub ct_index: bool,
    /// Initial-task chunk size (paper default 8).
    pub chunk_size: usize,
    /// `Q_task` capacity in tasks.
    pub queue_capacity: usize,
    /// Abort the run after this budget, surfacing
    /// [`crate::engine::EngineError::TimeLimit`] — the analogue of the
    /// paper's ">1000 s ⇒ T" reporting convention (Fig. 11).
    pub time_limit: Option<Duration>,
    /// Cooperative cancellation token, observed at the engines' periodic
    /// deadline-poll sites. Unlike `time_limit`, a cancelled run returns
    /// `Ok` with the partial count and [`crate::RunStats::cancelled`]
    /// set. `None` = not cancellable.
    pub cancel: Option<CancelFlag>,
    /// Cross-run page-accounting handle: when set, the run's paged
    /// arena charges every page (and heap-spill page-equivalent)
    /// against it, so an external governor sees this run's memory
    /// pressure and can bound it. `None` = standalone accounting.
    /// Compared by identity, like [`cancel`](Self::cancel).
    pub memory_budget: Option<MemoryBudget>,
    /// Run intersections on the AVX2 vector lane kernels when the host
    /// supports them (`tdfs_gpu::simd::available`, decided at run time
    /// on every x86-64 build). The kernels are bit-identical
    /// to the scalar lanes in output *and* stats, so this knob trades
    /// nothing but speed; `false` pins the scalar oracle path
    /// (A-B benchmarking, differential tests).
    pub simd: bool,
}

impl MatcherConfig {
    /// The T-DFS configuration: timeout stealing, paged stacks, all
    /// optimizations on.
    pub fn tdfs() -> Self {
        Self {
            num_warps: default_warps(),
            strategy: Strategy::Timeout {
                tau: Some(DEFAULT_TAU),
            },
            stack: StackConfig::Paged {
                arena_pages: 8192,
                table_len: 40,
                spill: true,
            },
            plan: PlanOptions::default(),
            fused_injectivity: true,
            fused_leaf: true,
            host_edge_filter: false,
            ct_index: false,
            chunk_size: tdfs_gpu::device::DEFAULT_CHUNK_SIZE,
            queue_capacity: tdfs_gpu::device::DEFAULT_QUEUE_CAPACITY,
            time_limit: None,
            cancel: None,
            memory_budget: None,
            simd: true,
        }
    }

    /// T-DFS with array stacks (the Table VI/VIII "Array-based" row).
    pub fn tdfs_array() -> Self {
        Self {
            stack: StackConfig::Array {
                capacity: ArrayCapacity::DMax,
                policy: OverflowPolicy::Error,
            },
            ..Self::tdfs()
        }
    }

    /// T-DFS with work stealing disabled (`τ = ∞`, Fig. 11 "No Steal").
    pub fn no_steal() -> Self {
        Self {
            strategy: Strategy::Timeout { tau: None },
            ..Self::tdfs()
        }
    }

    /// The STMatch model: half stealing with stack locks, `d_max` array
    /// stacks, separate injectivity pass, host-side edge filtering.
    pub fn stmatch_like() -> Self {
        Self {
            strategy: Strategy::HalfSteal,
            stack: StackConfig::Array {
                capacity: ArrayCapacity::DMax,
                policy: OverflowPolicy::Error,
            },
            fused_injectivity: false,
            host_edge_filter: true,
            ..Self::tdfs()
        }
    }

    /// The EGSM model: new-kernel splitting, CT-index indirection, no
    /// automorphism-based symmetry breaking.
    pub fn egsm_like() -> Self {
        Self {
            strategy: Strategy::NewKernel {
                fanout_threshold: DEFAULT_FANOUT_THRESHOLD,
            },
            stack: StackConfig::Array {
                capacity: ArrayCapacity::DMax,
                policy: OverflowPolicy::Error,
            },
            plan: PlanOptions {
                symmetry_breaking: false,
                intersection_reuse: true,
            },
            ct_index: true,
            ..Self::tdfs()
        }
    }

    /// The hybrid BFS→DFS engine (paper §V future work).
    pub fn hybrid() -> Self {
        Self {
            strategy: Strategy::Hybrid {
                budget_bytes: DEFAULT_BFS_BUDGET,
                tau: Some(DEFAULT_TAU),
            },
            ..Self::tdfs()
        }
    }

    /// The PBE model: BFS expansion with pipelined batching under a
    /// memory budget.
    pub fn pbe_like() -> Self {
        Self {
            strategy: Strategy::Bfs {
                budget_bytes: DEFAULT_BFS_BUDGET,
            },
            ..Self::tdfs()
        }
    }

    /// Overrides the timeout threshold (Tables II–III sweep). Panics if
    /// the strategy is not `Timeout`.
    pub fn with_tau(mut self, tau: Option<Duration>) -> Self {
        match &mut self.strategy {
            Strategy::Timeout { tau: t } => *t = tau,
            other => panic!("with_tau on non-timeout strategy {other:?}"),
        }
        self
    }

    /// Sets the per-run time budget.
    pub fn with_time_limit(mut self, limit: Option<Duration>) -> Self {
        self.time_limit = limit;
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Whether the attached cancellation token (if any) has been raised.
    #[inline]
    pub fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }

    /// Overrides the warp count.
    pub fn with_warps(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.num_warps = n;
        self
    }

    /// Toggles leaf-level fusion (ablation / A-B benchmarking).
    pub fn with_fused_leaf(mut self, fused: bool) -> Self {
        self.fused_leaf = fused;
        self
    }

    /// Toggles the vector lane kernels (see [`simd`](Self::simd)).
    pub fn with_simd(mut self, simd: bool) -> Self {
        self.simd = simd;
        self
    }
}

impl Default for MatcherConfig {
    fn default() -> Self {
        Self::tdfs()
    }
}

/// Default warp count: the machine's available parallelism.
pub fn default_warps() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_the_paper_says() {
        let t = MatcherConfig::tdfs();
        let s = MatcherConfig::stmatch_like();
        let e = MatcherConfig::egsm_like();
        let p = MatcherConfig::pbe_like();

        assert!(matches!(t.strategy, Strategy::Timeout { tau: Some(_) }));
        assert!(matches!(t.stack, StackConfig::Paged { .. }));
        assert!(t.fused_injectivity && !t.host_edge_filter && !t.ct_index);

        assert!(matches!(s.strategy, Strategy::HalfSteal));
        assert!(!s.fused_injectivity && s.host_edge_filter);
        assert!(s.plan.symmetry_breaking);

        assert!(matches!(e.strategy, Strategy::NewKernel { .. }));
        assert!(e.ct_index && !e.plan.symmetry_breaking);

        assert!(matches!(p.strategy, Strategy::Bfs { .. }));
    }

    #[test]
    fn no_steal_is_infinite_tau() {
        assert!(matches!(
            MatcherConfig::no_steal().strategy,
            Strategy::Timeout { tau: None }
        ));
    }

    #[test]
    fn with_tau_sets() {
        let c = MatcherConfig::tdfs().with_tau(Some(Duration::from_millis(1)));
        assert!(matches!(
            c.strategy,
            Strategy::Timeout { tau: Some(t) } if t == Duration::from_millis(1)
        ));
    }

    #[test]
    #[should_panic(expected = "with_tau")]
    fn with_tau_rejects_other_strategies() {
        let _ = MatcherConfig::stmatch_like().with_tau(None);
    }

    #[test]
    fn default_is_tdfs() {
        assert_eq!(MatcherConfig::default(), MatcherConfig::tdfs());
    }
}
