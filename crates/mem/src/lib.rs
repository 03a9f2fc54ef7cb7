//! # tdfs-mem
//!
//! Paged-memory substrate for T-DFS — the stand-in for the Ouroboros GPU
//! memory manager the paper integrates (§III "Dynamic Stack Space
//! Allocation").
//!
//! - [`arena`] — [`arena::PageArena`]: one preallocated slab divided into
//!   fixed-size pages (8 KB default) handed out through a lock-free
//!   free list, with in-use/peak accounting;
//! - [`level`] — the [`level::LevelStore`] abstraction over one DFS-stack
//!   level plus the `d_max`-capacity [`level::ArrayLevel`] baseline
//!   (including STMatch's fixed-4096 truncating mode that produces the
//!   wrong counts the paper reports);
//! - [`paged`] — [`paged::PagedLevel`]: a page-table-backed level with
//!   on-demand page allocation (paper Algorithm 5 / Fig. 6).

pub mod arena;
pub mod budget;
pub mod level;
pub mod paged;

/// `chaos_inject!("name")` is `true` when the named fault point should
/// take its failure path; compile-time `false` (and thus folded away)
/// without the `chaos` feature. Bind the result with `let` before using
/// it in a larger boolean expression (clippy `nonminimal_bool`).
#[cfg(feature = "chaos")]
macro_rules! chaos_inject {
    ($name:literal) => {
        ::tdfs_testkit::fault::fire($name) == ::tdfs_testkit::fault::Outcome::Inject
    };
}
#[cfg(not(feature = "chaos"))]
macro_rules! chaos_inject {
    ($name:literal) => {
        false
    };
}

pub(crate) use chaos_inject;

pub use arena::{PageArena, PageId, PAGE_BYTES, PAGE_INTS};
pub use budget::MemoryBudget;
pub use level::{ArrayLevel, LevelStore, OverflowPolicy, StackError};
pub use paged::{PagedLevel, DEFAULT_PAGE_TABLE_LEN};
