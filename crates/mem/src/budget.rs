//! Cross-query memory budgets.
//!
//! A [`MemoryBudget`] is a shared page-accounting handle. One *global*
//! budget (finite capacity) represents the device's total arena
//! allowance; each query charges against a *scope* — a child budget with
//! unlimited local capacity whose charges forward to the global parent —
//! so the service can read both total pressure (global `in_use` vs
//! `capacity`) and per-query weight (scope `in_use`) from the same
//! accounting.
//!
//! Two charging modes, matching the two ways a paged stack consumes
//! memory:
//!
//! - [`try_charge`](MemoryBudget::try_charge) — bounded: fails when the
//!   global capacity would be exceeded. [`crate::PageArena`] uses it per
//!   page, so arena allocations beyond the budget fail exactly like
//!   arena exhaustion and flow down the existing spill/`OutOfPages`
//!   paths.
//! - [`charge_unchecked`](MemoryBudget::charge_unchecked) — unbounded:
//!   always succeeds, possibly driving `in_use` past `capacity`
//!   (overdraft). [`crate::PagedLevel`] charges its heap-spill tail this
//!   way in page-equivalents, so spill growth is *visible* as pressure
//!   even though it cannot be refused mid-fill. Keeping the overdraft
//!   bounded is the job of whoever watches the budget (the service's
//!   overload governor suspends the heaviest query).
//!
//! Like `CancelFlag`, budgets compare by identity so they can live
//! inside structurally-comparable configuration types.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared page-accounting handle (see module docs). Cloning yields a
/// handle to the *same* accounting.
#[derive(Clone)]
pub struct MemoryBudget(Arc<Inner>);

struct Inner {
    /// `usize::MAX` = unlimited (pure tracking, never denies).
    capacity: usize,
    in_use: AtomicUsize,
    peak: AtomicUsize,
    denied: AtomicU64,
    parent: Option<MemoryBudget>,
}

impl MemoryBudget {
    /// A budget that denies charges past `capacity_pages`.
    pub fn new(capacity_pages: usize) -> Self {
        Self::build(capacity_pages, None)
    }

    /// A tracking-only budget that never denies.
    pub fn unlimited() -> Self {
        Self::build(usize::MAX, None)
    }

    fn build(capacity: usize, parent: Option<MemoryBudget>) -> Self {
        Self(Arc::new(Inner {
            capacity,
            in_use: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            denied: AtomicU64::new(0),
            parent,
        }))
    }

    /// A child scope: unlimited local capacity, every charge forwarded
    /// to (and bounded by) this budget. Use one scope per query to read
    /// per-query weight off shared global accounting.
    pub fn scoped(&self) -> MemoryBudget {
        Self::build(usize::MAX, Some(self.clone()))
    }

    /// Charges `pages` if every budget up the parent chain stays within
    /// capacity; on denial nothing is charged anywhere.
    pub fn try_charge(&self, pages: usize) -> bool {
        // Fault point: deny the charge regardless of occupancy, driving
        // callers down the same degradation path as real pressure.
        let forced = crate::chaos_inject!("mem.budget.denied");
        if forced || !self.charge_local(pages) {
            self.0.denied.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if let Some(parent) = &self.0.parent {
            if !parent.try_charge(pages) {
                self.release_local(pages);
                self.0.denied.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    /// Charges `pages` unconditionally, through the whole chain —
    /// `in_use` may exceed `capacity` (overdraft; see module docs).
    pub fn charge_unchecked(&self, pages: usize) {
        self.force_local(pages);
        if let Some(parent) = &self.0.parent {
            parent.charge_unchecked(pages);
        }
    }

    /// Releases `pages` through the whole chain.
    pub fn release(&self, pages: usize) {
        self.release_local(pages);
        if let Some(parent) = &self.0.parent {
            parent.release(pages);
        }
    }

    fn charge_local(&self, pages: usize) -> bool {
        if self.0.capacity == usize::MAX {
            self.force_local(pages);
            return true;
        }
        let mut cur = self.0.in_use.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(pages) {
                Some(n) if n <= self.0.capacity => n,
                _ => return false,
            };
            match self.0.in_use.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.0.peak.fetch_max(next, Ordering::Relaxed);
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    fn force_local(&self, pages: usize) {
        let now = self.0.in_use.fetch_add(pages, Ordering::AcqRel) + pages;
        self.0.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn release_local(&self, pages: usize) {
        let prev = self.0.in_use.fetch_sub(pages, Ordering::AcqRel);
        debug_assert!(prev >= pages, "budget release underflow");
    }

    /// [`charge_unchecked`](Self::charge_unchecked) for a byte-sized
    /// resident structure: charges `bytes` rounded up to whole
    /// page-equivalents ([`PAGE_BYTES`](crate::PAGE_BYTES)), so
    /// heap-resident state competes for the same device allowance as
    /// arena pages (overdraft allowed; see module docs).
    pub fn charge_bytes_unchecked(&self, bytes: usize) {
        self.charge_unchecked(Self::pages_for(bytes));
    }

    /// Releases the page-equivalents previously charged for `bytes`.
    /// Callers must release the *same byte figure* they charged —
    /// rounding happens per call, not cumulatively.
    pub fn release_bytes(&self, bytes: usize) {
        self.release(Self::pages_for(bytes));
    }

    /// Page-equivalents for `bytes`, rounded up.
    pub fn pages_for(bytes: usize) -> usize {
        bytes.div_ceil(crate::arena::PAGE_BYTES)
    }

    /// Capacity in pages (`usize::MAX` = unlimited).
    pub fn capacity_pages(&self) -> usize {
        self.0.capacity
    }

    /// Pages currently charged (may exceed capacity under overdraft).
    pub fn in_use_pages(&self) -> usize {
        self.0.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of charged pages.
    pub fn peak_pages(&self) -> usize {
        self.0.peak.load(Ordering::Relaxed)
    }

    /// Charges denied (here or by a parent).
    pub fn denied(&self) -> u64 {
        self.0.denied.load(Ordering::Relaxed)
    }

    /// `in_use / capacity`, the governor's pressure signal; `0.0` for
    /// unlimited budgets. Exceeds `1.0` under spill overdraft.
    pub fn pressure(&self) -> f64 {
        if self.0.capacity == usize::MAX || self.0.capacity == 0 {
            return 0.0;
        }
        self.in_use_pages() as f64 / self.0.capacity as f64
    }
}

/// Identity comparison, like `CancelFlag`: handles are equal iff they
/// share the accounting. Keeps configuration types structurally
/// comparable.
impl PartialEq for MemoryBudget {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for MemoryBudget {}

impl fmt::Debug for MemoryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryBudget")
            .field("capacity", &self.0.capacity)
            .field("in_use", &self.in_use_pages())
            .field("peak", &self.peak_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_charge_and_release() {
        let b = MemoryBudget::new(4);
        assert!(b.try_charge(3));
        assert!(!b.try_charge(2), "3 + 2 > 4 denied");
        assert!(b.try_charge(1));
        assert_eq!(b.in_use_pages(), 4);
        assert_eq!(b.denied(), 1);
        b.release(4);
        assert_eq!(b.in_use_pages(), 0);
        assert_eq!(b.peak_pages(), 4);
    }

    #[test]
    fn scope_forwards_to_parent() {
        let global = MemoryBudget::new(4);
        let a = global.scoped();
        let b = global.scoped();
        assert!(a.try_charge(3));
        assert!(!b.try_charge(2), "parent capacity binds all scopes");
        assert_eq!(b.in_use_pages(), 0, "denied charge rolled back locally");
        assert!(b.try_charge(1));
        assert_eq!(global.in_use_pages(), 4);
        assert_eq!(a.in_use_pages(), 3);
        a.release(3);
        b.release(1);
        assert_eq!(global.in_use_pages(), 0);
    }

    #[test]
    fn overdraft_is_visible_as_pressure() {
        let global = MemoryBudget::new(2);
        let scope = global.scoped();
        assert!(scope.try_charge(2));
        scope.charge_unchecked(3);
        assert_eq!(global.in_use_pages(), 5);
        assert!(global.pressure() > 1.0);
        scope.release(5);
        assert_eq!(global.in_use_pages(), 0);
        assert_eq!(global.peak_pages(), 5);
    }

    #[test]
    fn unlimited_never_denies() {
        let b = MemoryBudget::unlimited();
        assert!(b.try_charge(usize::MAX / 2));
        assert_eq!(b.pressure(), 0.0);
        b.release(usize::MAX / 2);
    }

    #[test]
    fn byte_charges_round_up_to_page_equivalents() {
        use crate::arena::PAGE_BYTES;
        let b = MemoryBudget::new(3);
        assert_eq!(MemoryBudget::pages_for(0), 0);
        assert_eq!(MemoryBudget::pages_for(1), 1);
        assert_eq!(MemoryBudget::pages_for(PAGE_BYTES), 1);
        assert_eq!(MemoryBudget::pages_for(PAGE_BYTES + 1), 2);
        b.charge_bytes_unchecked(PAGE_BYTES + 1); // 2 pages
        b.charge_bytes_unchecked(2 * PAGE_BYTES); // overdraft to 4
        assert_eq!(b.in_use_pages(), 4);
        b.release_bytes(PAGE_BYTES + 1);
        b.release_bytes(2 * PAGE_BYTES);
        assert_eq!(b.in_use_pages(), 0);
    }

    #[test]
    fn identity_equality() {
        let a = MemoryBudget::new(1);
        let b = a.clone();
        let c = MemoryBudget::new(1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
