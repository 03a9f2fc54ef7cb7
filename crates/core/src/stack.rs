//! Per-warp DFS stacks (paper Fig. 3).
//!
//! A warp's stack has one level per matching position; `stack[level]`
//! holds the candidate vertices for `u_level`, `size[level]` their count
//! and `iter[level]` the cursor — here the candidate payload lives in a
//! [`LevelStore`] (paged or array) and the cursors in [`WarpStack`].

use std::sync::Arc;

use tdfs_mem::{ArrayLevel, LevelStore, MemoryBudget, OverflowPolicy, PageArena, PagedLevel};

use crate::config::{ArrayCapacity, MatcherConfig, StackConfig};

/// Runtime factory for stack levels, resolved from [`StackConfig`]
/// against a concrete data graph (array capacity may be `d_max`).
pub enum StackFactory {
    /// Fixed-capacity array levels.
    Array {
        /// Elements per level.
        capacity: usize,
        /// Overflow behaviour.
        policy: OverflowPolicy,
    },
    /// Paged levels over a shared arena.
    Paged {
        /// The shared page arena (one per device).
        arena: Arc<PageArena>,
        /// Page-table length per level.
        table_len: usize,
        /// Whether levels degrade to a heap spill on arena exhaustion.
        spill: bool,
    },
}

impl StackFactory {
    /// Resolves a [`StackConfig`] for a graph with maximum degree
    /// `d_max`, allocating the shared arena for paged stacks.
    pub fn resolve(cfg: &StackConfig, d_max: usize) -> Self {
        Self::resolve_budgeted(cfg, d_max, None)
    }

    /// The factory a run under `cfg` uses on a graph of maximum degree
    /// `d_max`: `cfg`'s stack layout, with its memory budget scope
    /// charged for every arena page.
    pub fn for_config(cfg: &MatcherConfig, d_max: usize) -> Self {
        Self::resolve_budgeted(&cfg.stack, d_max, cfg.memory_budget.clone())
    }

    /// Like [`resolve`](Self::resolve), but a paged arena additionally
    /// charges every page against `budget` (e.g. a per-query scope of a
    /// service-wide budget): a denied charge behaves exactly like arena
    /// exhaustion. Ignored for array stacks, whose reservation is fixed
    /// up front.
    pub fn resolve_budgeted(cfg: &StackConfig, d_max: usize, budget: Option<MemoryBudget>) -> Self {
        match *cfg {
            StackConfig::Array { capacity, policy } => StackFactory::Array {
                capacity: match capacity {
                    ArrayCapacity::DMax => d_max.max(1),
                    ArrayCapacity::Fixed(n) => n,
                },
                policy,
            },
            StackConfig::Paged {
                arena_pages,
                table_len,
                spill,
            } => StackFactory::Paged {
                arena: Arc::new(PageArena::with_budget(arena_pages, budget)),
                table_len,
                spill,
            },
        }
    }

    /// Bytes reserved per array level (0 for paged — paged usage is read
    /// off the arena's peak instead).
    pub fn array_bytes_per_level(&self) -> usize {
        match self {
            StackFactory::Array { capacity, .. } => capacity * 4,
            StackFactory::Paged { .. } => 0,
        }
    }

    /// The shared arena, when paged.
    pub fn arena(&self) -> Option<&Arc<PageArena>> {
        match self {
            StackFactory::Paged { arena, .. } => Some(arena),
            StackFactory::Array { .. } => None,
        }
    }
}

/// One warp's stack: `k` candidate levels plus cursors.
pub struct WarpStack<L: LevelStore> {
    /// Candidate storage per matching position.
    pub levels: Vec<L>,
    /// `iter[level]` — next candidate position to consume.
    pub iters: Vec<usize>,
}

impl WarpStack<ArrayLevel> {
    /// Builds an array-backed stack from the factory.
    pub fn new_array(factory: &StackFactory, k: usize) -> Self {
        match factory {
            StackFactory::Array { capacity, policy } => Self {
                levels: (0..k)
                    .map(|_| ArrayLevel::new(*capacity, *policy))
                    .collect(),
                iters: vec![0; k],
            },
            StackFactory::Paged { .. } => panic!("factory is paged"),
        }
    }
}

impl WarpStack<PagedLevel> {
    /// Builds a paged stack from the factory.
    pub fn new_paged(factory: &StackFactory, k: usize) -> Self {
        match factory {
            StackFactory::Paged {
                arena,
                table_len,
                spill,
            } => Self {
                levels: (0..k)
                    .map(|_| {
                        PagedLevel::with_table_len(arena.clone(), *table_len).with_spill(*spill)
                    })
                    .collect(),
                iters: vec![0; k],
            },
            StackFactory::Array { .. } => panic!("factory is array"),
        }
    }
}

impl WarpStack<ArrayLevel> {
    /// Candidates silently dropped across all levels.
    pub fn truncated_array(&self) -> u64 {
        self.levels.iter().map(|l| l.truncated()).sum()
    }
}

impl WarpStack<PagedLevel> {
    /// Page faults served across all levels.
    pub fn page_faults_paged(&self) -> u64 {
        self.levels.iter().map(|l| l.page_faults()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_array_dmax() {
        let f = StackFactory::resolve(
            &StackConfig::Array {
                capacity: ArrayCapacity::DMax,
                policy: OverflowPolicy::Error,
            },
            500,
        );
        match &f {
            StackFactory::Array { capacity, .. } => assert_eq!(*capacity, 500),
            _ => panic!(),
        }
        assert_eq!(f.array_bytes_per_level(), 2000);
        assert!(f.arena().is_none());
        let s = WarpStack::new_array(&f, 5);
        assert_eq!(s.levels.len(), 5);
        assert_eq!(s.iters, vec![0; 5]);
    }

    #[test]
    fn resolve_paged_shares_arena() {
        let f = StackFactory::resolve(
            &StackConfig::Paged {
                arena_pages: 16,
                table_len: 4,
                spill: false,
            },
            500,
        );
        let arena = f.arena().unwrap().clone();
        let mut s1 = WarpStack::new_paged(&f, 3);
        let mut s2 = WarpStack::new_paged(&f, 3);
        s1.levels[0].push(1).unwrap();
        s2.levels[0].push(2).unwrap();
        assert_eq!(arena.pages_in_use(), 2, "both stacks draw from one arena");
        assert_eq!(s1.page_faults_paged(), 1);
    }

    #[test]
    fn resolve_budgeted_charges_scope() {
        let budget = MemoryBudget::new(64);
        let f = StackFactory::resolve_budgeted(
            &StackConfig::Paged {
                arena_pages: 16,
                table_len: 4,
                spill: false,
            },
            500,
            Some(budget.scoped()),
        );
        let mut s = WarpStack::new_paged(&f, 3);
        s.levels[0].push(1).unwrap();
        assert_eq!(budget.in_use_pages(), 1, "arena page charged upstream");
        s.levels[0].release();
        assert_eq!(budget.in_use_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "factory is paged")]
    fn mismatched_factory_panics() {
        let f = StackFactory::resolve(
            &StackConfig::Paged {
                arena_pages: 4,
                table_len: 2,
                spill: false,
            },
            10,
        );
        let _ = WarpStack::new_array(&f, 2);
    }
}
