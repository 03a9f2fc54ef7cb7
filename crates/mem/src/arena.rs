//! The preallocated page arena (Ouroboros stand-in).
//!
//! Ouroboros (the paper's ref. 48) "takes a large preallocated space in
//! the device memory at the beginning, cuts the space into smaller
//! blocks … and allocates and frees block spaces to user programs on
//! demand while taking care of thread contention". The arena reproduces that contract
//! at the page granularity T-DFS uses (8 KB pages): one slab, a lock-free
//! Treiber free list of page indices (tagged to defeat ABA), and
//! in-use / peak accounting for the memory experiments (Tables V & VII).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::budget::MemoryBudget;

/// Page size in 32-bit integers (8 KB, the paper's default).
pub const PAGE_INTS: usize = 2048;
/// Page size in bytes.
pub const PAGE_BYTES: usize = PAGE_INTS * 4;

/// Index of a page within the arena.
pub type PageId = u32;

const NIL: u32 = u32::MAX;

/// A fixed pool of pages with lock-free alloc/free.
///
/// Page *contents* are deliberately unsynchronized: a page is exclusively
/// owned by whoever allocated it until it is freed, and the free-list CAS
/// (AcqRel) orders any prior writes before the next owner's reads. The
/// safe wrapper enforcing that ownership discipline is
/// [`crate::paged::PagedLevel`].
pub struct PageArena {
    data: UnsafeCell<Box<[u32]>>,
    /// `next[i]` links the free list.
    next: Box<[AtomicU32]>,
    /// Tagged head: upper 32 bits ABA generation, lower 32 bits page id.
    head: AtomicU64,
    in_use: AtomicU32,
    peak: AtomicU32,
    allocs: AtomicU64,
    failed_allocs: AtomicU64,
    /// Optional cross-arena accounting: every held page is charged here,
    /// and a denied charge fails the allocation exactly like exhaustion.
    budget: Option<MemoryBudget>,
}

// SAFETY: all shared mutation goes through atomics except page contents,
// whose exclusive ownership is transferred through the free-list CAS
// (Release on free, Acquire on alloc).
unsafe impl Sync for PageArena {}
unsafe impl Send for PageArena {}

impl PageArena {
    /// Preallocates an arena of `num_pages` pages.
    pub fn new(num_pages: usize) -> Self {
        Self::with_budget(num_pages, None)
    }

    /// Preallocates an arena whose page allocations are additionally
    /// charged against `budget` (e.g. a per-query scope of a service
    /// global): a denied charge fails the allocation exactly like arena
    /// exhaustion, so callers degrade down their existing spill /
    /// `OutOfPages` paths.
    pub fn with_budget(num_pages: usize, budget: Option<MemoryBudget>) -> Self {
        assert!(num_pages >= 1 && num_pages < NIL as usize);
        let data = vec![0u32; num_pages * PAGE_INTS].into_boxed_slice();
        let next: Box<[AtomicU32]> = (0..num_pages as u32)
            .map(|i| AtomicU32::new(if i + 1 < num_pages as u32 { i + 1 } else { NIL }))
            .collect();
        Self {
            data: UnsafeCell::new(data),
            next,
            head: AtomicU64::new(0), // tag 0, page 0
            in_use: AtomicU32::new(0),
            peak: AtomicU32::new(0),
            allocs: AtomicU64::new(0),
            failed_allocs: AtomicU64::new(0),
            budget,
        }
    }

    /// The attached cross-arena budget, if any.
    pub fn budget(&self) -> Option<&MemoryBudget> {
        self.budget.as_ref()
    }

    /// Arena capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.next.len()
    }

    /// Pages currently allocated.
    pub fn pages_in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed) as usize
    }

    /// High-water mark of allocated pages — the paged-stack memory figure
    /// reported by the Table V/VII experiments.
    pub fn peak_pages(&self) -> usize {
        self.peak.load(Ordering::Relaxed) as usize
    }

    /// Restarts the high-water mark at the pages now in use, so an arena
    /// reused across runs reports each run's peak alone.
    pub fn restart_peak(&self) {
        self.peak
            .store(self.in_use.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Peak allocated bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_pages() * PAGE_BYTES
    }

    /// Total successful allocations.
    pub fn total_allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Allocation attempts that failed because the arena was exhausted.
    pub fn total_failed_allocs(&self) -> u64 {
        self.failed_allocs.load(Ordering::Relaxed)
    }

    /// Pops a page off the free list. `None` when exhausted.
    pub fn alloc_page(&self) -> Option<PageId> {
        // Fault point: report the arena exhausted regardless of actual
        // occupancy, driving callers down the same path as a real OOM
        // (paged levels degrade to their heap spill).
        let forced_oom = crate::chaos_inject!("mem.arena.oom");
        if forced_oom {
            self.failed_allocs.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if let Some(budget) = &self.budget {
            if !budget.try_charge(1) {
                self.failed_allocs.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        loop {
            let head = self.head.load(Ordering::Acquire);
            let page = head as u32;
            if page == NIL {
                if let Some(budget) = &self.budget {
                    budget.release(1);
                }
                self.failed_allocs.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let next = self.next[page as usize].load(Ordering::Acquire);
            let tag = (head >> 32).wrapping_add(1);
            let new_head = (tag << 32) | next as u64;
            if self
                .head
                .compare_exchange_weak(head, new_head, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let now = self.in_use.fetch_add(1, Ordering::Relaxed) + 1;
                self.peak.fetch_max(now, Ordering::Relaxed);
                self.allocs.fetch_add(1, Ordering::Relaxed);
                return Some(page);
            }
        }
    }

    /// Returns a page to the free list.
    ///
    /// The caller must own `page` (allocated and not yet freed); freeing
    /// twice corrupts the free list, so [`crate::paged::PagedLevel`] is
    /// the only intended caller.
    pub fn free_page(&self, page: PageId) {
        debug_assert!((page as usize) < self.next.len());
        // Uncount the page before it is back on the free list: once it is
        // there another thread can pop and count it, and counting it
        // twice would let `in_use` (and the peak) exceed the arena. The
        // push's release CAS on `head`, paired with the popper's acquire,
        // orders this decrement before that thread's increment.
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        loop {
            let head = self.head.load(Ordering::Acquire);
            self.next[page as usize].store(head as u32, Ordering::Relaxed);
            let tag = (head >> 32).wrapping_add(1);
            let new_head = (tag << 32) | page as u64;
            if self
                .head
                .compare_exchange_weak(head, new_head, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if let Some(budget) = &self.budget {
                    budget.release(1);
                }
                return;
            }
        }
    }

    /// Immutable view of a page's contents.
    ///
    /// # Safety
    /// The caller must own `page` via [`Self::alloc_page`] and must not
    /// hold a mutable view of it.
    #[inline]
    pub unsafe fn page(&self, page: PageId) -> &[u32] {
        let data = &*self.data.get();
        let start = page as usize * PAGE_INTS;
        &data[start..start + PAGE_INTS]
    }

    /// Mutable view of a page's contents.
    ///
    /// # Safety
    /// The caller must own `page` via [`Self::alloc_page`]; no other view
    /// of the same page may exist concurrently.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn page_mut(&self, page: PageId) -> &mut [u32] {
        let data = &mut *self.data.get();
        let start = page as usize * PAGE_INTS;
        &mut data[start..start + PAGE_INTS]
    }
}

impl std::fmt::Debug for PageArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageArena")
            .field("capacity_pages", &self.capacity_pages())
            .field("in_use", &self.pages_in_use())
            .field("peak", &self.peak_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn alloc_until_exhaustion() {
        let a = PageArena::new(4);
        let mut pages = HashSet::new();
        for _ in 0..4 {
            assert!(pages.insert(a.alloc_page().unwrap()), "pages unique");
        }
        assert_eq!(a.alloc_page(), None);
        assert_eq!(a.pages_in_use(), 4);
        assert_eq!(a.total_failed_allocs(), 1);
    }

    #[test]
    fn free_then_realloc() {
        let a = PageArena::new(2);
        let p0 = a.alloc_page().unwrap();
        let p1 = a.alloc_page().unwrap();
        a.free_page(p0);
        let p2 = a.alloc_page().unwrap();
        assert_eq!(p2, p0, "LIFO free list reuses the freed page");
        a.free_page(p1);
        a.free_page(p2);
        assert_eq!(a.pages_in_use(), 0);
        assert_eq!(a.peak_pages(), 2);
    }

    #[test]
    fn page_contents_roundtrip() {
        let a = PageArena::new(2);
        let p = a.alloc_page().unwrap();
        unsafe {
            let s = a.page_mut(p);
            s[0] = 42;
            s[PAGE_INTS - 1] = 7;
        }
        unsafe {
            assert_eq!(a.page(p)[0], 42);
            assert_eq!(a.page(p)[PAGE_INTS - 1], 7);
        }
    }

    #[test]
    fn concurrent_alloc_free_unique_ownership() {
        let a = Arc::new(PageArena::new(64));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u32 {
                    let p = loop {
                        if let Some(p) = a.alloc_page() {
                            break p;
                        }
                        std::thread::yield_now();
                    };
                    // Exclusive ownership: write a signature, verify it
                    // survives until we free.
                    let sig = t * 1_000_000 + i;
                    unsafe {
                        a.page_mut(p)[0] = sig;
                        a.page_mut(p)[PAGE_INTS - 1] = sig;
                    }
                    std::hint::spin_loop();
                    unsafe {
                        assert_eq!(a.page(p)[0], sig);
                        assert_eq!(a.page(p)[PAGE_INTS - 1], sig);
                    }
                    a.free_page(p);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.pages_in_use(), 0);
        assert!(a.peak_pages() <= 64);
        assert_eq!(a.total_allocs(), 8 * 2_000);
    }

    #[test]
    fn restart_peak_starts_from_pages_in_use() {
        let a = PageArena::new(4);
        let p0 = a.alloc_page().unwrap();
        let p1 = a.alloc_page().unwrap();
        a.free_page(p1);
        assert_eq!(a.peak_pages(), 2);
        a.restart_peak();
        assert_eq!(a.peak_pages(), 1);
        a.free_page(p0);
        a.restart_peak();
        assert_eq!(a.peak_pages(), 0);
    }

    #[test]
    fn stats_bytes() {
        let a = PageArena::new(3);
        let _p = a.alloc_page().unwrap();
        assert_eq!(a.peak_bytes(), PAGE_BYTES);
    }
}
