//! Page-table-backed stack levels (paper Algorithm 5 / Fig. 6).
//!
//! Each level is logically a list of pages recorded in a small
//! fixed-size page table (40 entries × 8 KB = 320 KB per level by
//! default). Entries start as *null* and are filled on demand: when a
//! write crosses into a missing page, a page is requested from the
//! shared [`PageArena`] — the model's analogue of the leader-thread
//! page-fault path in Algorithm 5. Page-fault counts are tracked so the
//! experiments can report allocation activity.
//!
//! ## Spill-to-heap degradation
//!
//! A level created with [`PagedLevel::with_spill`] does not fail when the
//! arena runs out of pages mid-fill: from the first failed page request
//! onward it appends to a private heap buffer instead ("spilling"), so
//! reads see one contiguous logical level — a paged prefix followed by
//! the spilled tail. This trades the arena's bounded-memory guarantee for
//! forward progress, which is the right call for a serving system: an
//! engine run that transiently overshoots the arena degrades (and
//! reports [`PagedLevel::spill_events`] / [`PagedLevel::spilled`] so the
//! overshoot is visible in `RunStats`) rather than aborting the query.
//! The spill is abandoned at the next `clear`/`release`, returning the
//! level to pure paged operation.

use std::sync::Arc;

use crate::arena::{PageArena, PageId, PAGE_INTS};
use crate::level::{LevelStore, StackError};

/// Default page-table length (paper: "40 addresses by default").
pub const DEFAULT_PAGE_TABLE_LEN: usize = 40;

const NULL_PAGE: PageId = PageId::MAX;

/// One paged stack level: a private page table over the shared arena.
///
/// The level exclusively owns every page recorded in its table between
/// allocation and [`release`](PagedLevel::release)/drop, which is what
/// makes the unsafe arena accessors sound here.
pub struct PagedLevel {
    arena: Arc<PageArena>,
    table: Vec<PageId>,
    len: usize,
    page_faults: u64,
    /// High-water mark of pages simultaneously held by this level.
    peak_pages: usize,
    /// Page backing the current write position (hot-path cache so a push
    /// within a page skips the table lookup).
    write_page: PageId,
    /// Whether arena exhaustion degrades to the heap spill instead of
    /// returning [`StackError::OutOfPages`].
    spill_enabled: bool,
    /// Logical index of the first spilled element; [`NOT_SPILLING`]
    /// while the level is purely paged.
    spill_start: usize,
    /// The spilled tail: logical elements `spill_start..len`.
    spill: Vec<u32>,
    /// Times this level entered spill mode (at most one per clear cycle).
    spill_events: u64,
    /// Elements written to the spill since creation.
    spilled_total: u64,
    /// Page-equivalents of the current spill charged to the arena's
    /// budget (when one is attached), so heap-spill growth shows up as
    /// memory pressure alongside real arena pages.
    spill_pages_charged: usize,
}

const NOT_SPILLING: usize = usize::MAX;

impl PagedLevel {
    /// Creates an empty level with the default page-table length.
    pub fn new(arena: Arc<PageArena>) -> Self {
        Self::with_table_len(arena, DEFAULT_PAGE_TABLE_LEN)
    }

    /// Creates an empty level holding up to `table_len × PAGE_INTS`
    /// candidates.
    pub fn with_table_len(arena: Arc<PageArena>, table_len: usize) -> Self {
        assert!(table_len >= 1);
        Self {
            arena,
            table: vec![NULL_PAGE; table_len],
            len: 0,
            page_faults: 0,
            peak_pages: 0,
            write_page: NULL_PAGE,
            spill_enabled: false,
            spill_start: NOT_SPILLING,
            spill: Vec::new(),
            spill_events: 0,
            spilled_total: 0,
            spill_pages_charged: 0,
        }
    }

    /// Charges the spill tail to the arena budget in page-equivalents
    /// (unchecked: a spill cannot be refused mid-fill, only observed).
    #[inline]
    fn sync_spill_charge(&mut self) {
        let need = self.spill.len().div_ceil(PAGE_INTS);
        if need > self.spill_pages_charged {
            if let Some(budget) = self.arena.budget() {
                budget.charge_unchecked(need - self.spill_pages_charged);
            }
            self.spill_pages_charged = need;
        }
    }

    /// Returns the spill's budget charge (on clear/release).
    fn drop_spill_charge(&mut self) {
        if self.spill_pages_charged > 0 {
            if let Some(budget) = self.arena.budget() {
                budget.release(self.spill_pages_charged);
            }
            self.spill_pages_charged = 0;
        }
    }

    /// Enables or disables spill-to-heap degradation (see the module
    /// docs); builder-style, used by the stack factory.
    pub fn with_spill(mut self, enabled: bool) -> Self {
        self.spill_enabled = enabled;
        self
    }

    /// Whether the level is currently in spill mode.
    pub fn is_spilling(&self) -> bool {
        self.spill_start != NOT_SPILLING
    }

    /// Length of the paged prefix (everything below the spill point).
    #[inline]
    fn paged_len(&self) -> usize {
        self.len.min(self.spill_start)
    }

    /// Maximum number of candidates the level can hold.
    pub fn capacity(&self) -> usize {
        self.table.len() * PAGE_INTS
    }

    /// Pages currently held.
    pub fn pages_held(&self) -> usize {
        self.table.iter().filter(|&&p| p != NULL_PAGE).count()
    }

    /// Returns every held page to the arena (called between tasks only if
    /// shrinking is desired; the paper finds releasing unnecessary).
    pub fn release(&mut self) {
        for slot in self.table.iter_mut() {
            if *slot != NULL_PAGE {
                self.arena.free_page(*slot);
                *slot = NULL_PAGE;
            }
        }
        self.len = 0;
        self.write_page = NULL_PAGE;
        self.spill_start = NOT_SPILLING;
        self.spill = Vec::new();
        self.drop_spill_charge();
    }

    /// The paper's optional shrink policy: "assume we have n pages in a
    /// stack level, then we expand new candidates into this level, if it
    /// uses no more than n/4 pages, then we can free the last n/2 pages".
    pub fn shrink(&mut self) {
        let held = self.pages_held();
        let used = self.paged_len().div_ceil(PAGE_INTS);
        if held >= 2 && used * 4 <= held {
            let keep = held - held / 2;
            let mut seen = 0usize;
            for slot in self.table.iter_mut() {
                if *slot != NULL_PAGE {
                    seen += 1;
                    if seen > keep {
                        if *slot == self.write_page {
                            self.write_page = NULL_PAGE;
                        }
                        self.arena.free_page(*slot);
                        *slot = NULL_PAGE;
                    }
                }
            }
        }
    }

    #[inline]
    fn ensure_page(&mut self, page_idx: usize) -> Result<PageId, StackError> {
        let slot = self.table[page_idx];
        if slot != NULL_PAGE {
            return Ok(slot);
        }
        // Algorithm 5 lines 3–9: leader requests a new page and records
        // it in the table.
        let page = self.arena.alloc_page().ok_or(StackError::OutOfPages)?;
        self.table[page_idx] = page;
        self.page_faults += 1;
        self.peak_pages = self.peak_pages.max(self.pages_held());
        Ok(page)
    }
}

impl Drop for PagedLevel {
    fn drop(&mut self) {
        self.release();
    }
}

impl LevelStore for PagedLevel {
    fn clear(&mut self) {
        // Pages stay allocated — the paper keeps them ("we find this to
        // be not necessary … the memory space occupied by all the pages
        // is very small even without page releasing").
        self.len = 0;
        // The first page may already exist; re-prime the write cache so
        // the next push takes the slow path and finds it.
        self.write_page = NULL_PAGE;
        // A spill does not survive its fill: the next fill retries the
        // arena (pressure may have passed). The buffer keeps its
        // capacity so repeated spills don't reallocate.
        self.spill_start = NOT_SPILLING;
        self.spill.clear();
        self.drop_spill_charge();
    }

    fn push(&mut self, v: u32) -> Result<(), StackError> {
        // Degraded mode: every write after the first failed page request
        // goes to the heap tail.
        if self.spill_start != NOT_SPILLING {
            self.spill.push(v);
            self.spilled_total += 1;
            self.len += 1;
            self.sync_spill_charge();
            return Ok(());
        }
        let pos = self.len;
        let offset = pos % PAGE_INTS;
        // Hot path: still inside the cached write page.
        if offset != 0 && self.write_page != NULL_PAGE {
            // SAFETY: the level exclusively owns `write_page`.
            unsafe {
                self.arena.page_mut(self.write_page)[offset] = v;
            }
            self.len = pos + 1;
            return Ok(());
        }
        if pos >= self.capacity() {
            return Err(StackError::LevelOverflow {
                capacity: self.capacity(),
            });
        }
        let page = match self.ensure_page(pos / PAGE_INTS) {
            Ok(page) => page,
            Err(StackError::OutOfPages) if self.spill_enabled => {
                // Graceful degradation: enter spill mode at this element
                // instead of failing the fill.
                self.spill_start = pos;
                self.spill_events += 1;
                self.spill.push(v);
                self.spilled_total += 1;
                self.len = pos + 1;
                self.sync_spill_charge();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        self.write_page = page;
        // SAFETY: the level exclusively owns `page` (allocated above or
        // earlier by this level and not freed until release/drop).
        unsafe {
            self.arena.page_mut(page)[offset] = v;
        }
        self.len = pos + 1;
        Ok(())
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if i >= self.spill_start {
            return self.spill[i - self.spill_start];
        }
        let page = self.table[i / PAGE_INTS];
        debug_assert_ne!(page, NULL_PAGE);
        // SAFETY: page owned by this level; index bounded by len.
        unsafe { self.arena.page(page)[i % PAGE_INTS] }
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(&[u32])) {
        let mut remaining = self.paged_len();
        let mut page_idx = 0usize;
        while remaining > 0 {
            let page = self.table[page_idx];
            debug_assert_ne!(page, NULL_PAGE);
            let take = remaining.min(PAGE_INTS);
            // SAFETY: page owned by this level; prefix of length `take`
            // was initialized by push.
            let slice = unsafe { &self.arena.page(page)[..take] };
            f(slice);
            remaining -= take;
            page_idx += 1;
        }
        if !self.spill.is_empty() {
            f(&self.spill);
        }
    }

    /// Page faults (on-demand allocations) since creation.
    fn page_faults(&self) -> u64 {
        self.page_faults
    }

    /// Times the level entered spill mode since creation.
    fn spill_events(&self) -> u64 {
        self.spill_events
    }

    /// Elements written to the heap spill since creation.
    fn spilled(&self) -> u64 {
        self.spilled_total
    }
}

impl std::fmt::Debug for PagedLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedLevel")
            .field("len", &self.len)
            .field("pages_held", &self.pages_held())
            .field("capacity", &self.capacity())
            .field("spilling", &self.is_spilling())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(pages: usize) -> Arc<PageArena> {
        Arc::new(PageArena::new(pages))
    }

    #[test]
    fn push_get_within_one_page() {
        let mut l = PagedLevel::with_table_len(arena(4), 2);
        for v in 0..100 {
            l.push(v).unwrap();
        }
        assert_eq!(l.len(), 100);
        assert_eq!(l.get(0), 0);
        assert_eq!(l.get(99), 99);
        assert_eq!(l.pages_held(), 1);
        assert_eq!(l.page_faults(), 1);
    }

    #[test]
    fn cross_page_boundary() {
        let mut l = PagedLevel::with_table_len(arena(4), 3);
        let n = PAGE_INTS + 10;
        for v in 0..n as u32 {
            l.push(v).unwrap();
        }
        assert_eq!(l.pages_held(), 2);
        assert_eq!(l.get(PAGE_INTS - 1), (PAGE_INTS - 1) as u32);
        assert_eq!(l.get(PAGE_INTS), PAGE_INTS as u32);
        assert_eq!(l.to_vec(), (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_are_per_page() {
        let mut l = PagedLevel::with_table_len(arena(4), 3);
        let n = 2 * PAGE_INTS + 5;
        for v in 0..n as u32 {
            l.push(v).unwrap();
        }
        let mut sizes = Vec::new();
        l.for_each_chunk(&mut |c| sizes.push(c.len()));
        assert_eq!(sizes, vec![PAGE_INTS, PAGE_INTS, 5]);
    }

    #[test]
    fn clear_keeps_pages() {
        let a = arena(4);
        let mut l = PagedLevel::with_table_len(a.clone(), 2);
        for v in 0..10 {
            l.push(v).unwrap();
        }
        l.clear();
        assert_eq!(l.len(), 0);
        assert_eq!(l.pages_held(), 1, "pages retained across clear");
        assert_eq!(a.pages_in_use(), 1);
        // Refill without new page faults.
        for v in 0..10 {
            l.push(v).unwrap();
        }
        assert_eq!(l.page_faults(), 1);
    }

    #[test]
    fn drop_releases_pages() {
        let a = arena(4);
        {
            let mut l = PagedLevel::with_table_len(a.clone(), 2);
            l.push(1).unwrap();
            assert_eq!(a.pages_in_use(), 1);
        }
        assert_eq!(a.pages_in_use(), 0);
    }

    #[test]
    fn capacity_overflow() {
        let mut l = PagedLevel::with_table_len(arena(4), 1);
        for v in 0..PAGE_INTS as u32 {
            l.push(v).unwrap();
        }
        assert!(matches!(l.push(0), Err(StackError::LevelOverflow { .. })));
    }

    #[test]
    fn arena_exhaustion_surfaces() {
        let a = arena(1);
        let mut l1 = PagedLevel::with_table_len(a.clone(), 2);
        let mut l2 = PagedLevel::with_table_len(a, 2);
        l1.push(1).unwrap();
        assert_eq!(l2.push(2), Err(StackError::OutOfPages));
    }

    #[test]
    fn spill_degrades_instead_of_failing() {
        let a = arena(1);
        let mut l = PagedLevel::with_table_len(a.clone(), 3).with_spill(true);
        let n = PAGE_INTS + 10;
        for v in 0..n as u32 {
            l.push(v).unwrap();
        }
        assert!(l.is_spilling());
        assert_eq!(l.spill_events(), 1);
        assert_eq!(l.spilled(), 10);
        assert_eq!(l.pages_held(), 1, "only the page the arena could supply");
        // Reads span the paged prefix and the spilled tail seamlessly.
        assert_eq!(l.get(PAGE_INTS - 1), (PAGE_INTS - 1) as u32);
        assert_eq!(l.get(PAGE_INTS), PAGE_INTS as u32);
        assert_eq!(l.to_vec(), (0..n as u32).collect::<Vec<_>>());
        let mut sizes = Vec::new();
        l.for_each_chunk(&mut |c| sizes.push(c.len()));
        assert_eq!(sizes, vec![PAGE_INTS, 10]);
    }

    #[test]
    fn spill_resets_on_clear_and_release() {
        let a = arena(1);
        let mut l = PagedLevel::with_table_len(a.clone(), 3).with_spill(true);
        for v in 0..(PAGE_INTS + 5) as u32 {
            l.push(v).unwrap();
        }
        assert!(l.is_spilling());
        l.clear();
        assert!(!l.is_spilling(), "clear abandons the spill");
        // Refill within one page: the retained page absorbs it, no spill.
        for v in 0..10u32 {
            l.push(v).unwrap();
        }
        assert!(!l.is_spilling());
        assert_eq!(l.spill_events(), 1);
        l.release();
        assert_eq!(a.pages_in_use(), 0);
        assert!(!l.is_spilling());
    }

    #[test]
    fn spill_disabled_still_errors() {
        let a = arena(1);
        let mut hog = PagedLevel::with_table_len(a.clone(), 2);
        hog.push(1).unwrap();
        let mut l = PagedLevel::with_table_len(a, 2);
        assert_eq!(l.push(2), Err(StackError::OutOfPages));
    }

    #[test]
    fn shrink_policy_frees_half() {
        let a = arena(8);
        let mut l = PagedLevel::with_table_len(a.clone(), 8);
        // Fill 4 pages, then shrink with only a handful of live entries.
        for v in 0..(4 * PAGE_INTS) as u32 {
            l.push(v).unwrap();
        }
        assert_eq!(l.pages_held(), 4);
        l.clear();
        for v in 0..10u32 {
            l.push(v).unwrap(); // uses 1 page ≤ 4/4
        }
        l.shrink();
        assert_eq!(l.pages_held(), 2, "n/2 pages freed");
        assert_eq!(l.to_vec().len(), 10);
    }

    #[test]
    fn spill_charges_budget_overdraft_and_releases() {
        use crate::budget::MemoryBudget;
        let global = MemoryBudget::new(1);
        let a = Arc::new(PageArena::with_budget(4, Some(global.scoped())));
        let mut l = PagedLevel::with_table_len(a.clone(), 4).with_spill(true);
        // 1 page fits the budget; the second page's charge is denied so
        // the level enters spill and overdrafts page-equivalents.
        for v in 0..(2 * PAGE_INTS) as u32 {
            l.push(v).unwrap();
        }
        assert!(l.is_spilling());
        assert_eq!(l.spilled(), PAGE_INTS as u64);
        assert_eq!(
            global.in_use_pages(),
            2,
            "1 arena page + 1 spill page-equivalent"
        );
        assert!(global.pressure() > 1.0, "spill visible as overdraft");
        // One more entry tips the spill into a second page-equivalent.
        l.push(0).unwrap();
        assert_eq!(global.in_use_pages(), 3);
        l.clear();
        assert_eq!(global.in_use_pages(), 1, "spill charge dropped on clear");
        l.release();
        assert_eq!(global.in_use_pages(), 0);
        assert_eq!(a.pages_in_use(), 0);
        assert_eq!(global.peak_pages(), 3);
    }

    #[test]
    fn release_resets_everything() {
        let a = arena(4);
        let mut l = PagedLevel::with_table_len(a.clone(), 2);
        for v in 0..10 {
            l.push(v).unwrap();
        }
        l.release();
        assert_eq!(l.len(), 0);
        assert_eq!(l.pages_held(), 0);
        assert_eq!(a.pages_in_use(), 0);
        // Level is reusable after release.
        l.push(5).unwrap();
        assert_eq!(l.get(0), 5);
    }
}
