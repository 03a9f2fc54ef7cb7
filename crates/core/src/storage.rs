//! Plumbing between the storage tier and the engine-side memory
//! accounting.
//!
//! `tdfs-graph` stays dependency-free, so its mmap decode cache
//! ([`tdfs_graph::MmapGraph`]) accounts resident bytes through the
//! abstract [`CacheCharge`] hook rather than naming `MemoryBudget`.
//! [`BudgetCharge`] is the one adapter between the two worlds: decoded
//! adjacency segments charge the same budget the paged stacks, delta
//! overlays and spill tails already report into, so the service's
//! governor sees one unified pressure signal whether memory goes to
//! matching state or to the on-disk graph's working set.
//!
//! Charges are *unchecked* (overdraft), matching the spill-tail
//! precedent: a decode the engines are already committed to cannot be
//! refused mid-query — bounding the cache is the job of the cache's own
//! capacity plus the governor watching the pressure.

use std::sync::Arc;

use tdfs_graph::{CacheCharge, MapOptions};
use tdfs_mem::MemoryBudget;

/// [`CacheCharge`] adapter over a [`MemoryBudget`] (see module docs).
#[derive(Debug, Clone)]
pub struct BudgetCharge(MemoryBudget);

impl BudgetCharge {
    /// Adapts `budget`; clones share the same accounting.
    pub fn new(budget: MemoryBudget) -> Self {
        BudgetCharge(budget)
    }
}

impl CacheCharge for BudgetCharge {
    fn charge(&self, bytes: usize) {
        self.0.charge_bytes_unchecked(bytes);
    }

    fn release(&self, bytes: usize) {
        self.0.release_bytes(bytes);
    }
}

/// [`MapOptions`] wired to charge decode-cache residency against
/// `budget`, with the cache capacity capped at `cache_bytes`.
pub fn budgeted_map_options(budget: &MemoryBudget, cache_bytes: usize) -> MapOptions {
    MapOptions {
        cache_bytes: Some(cache_bytes),
        charge: Some(Arc::new(BudgetCharge::new(budget.clone())) as Arc<dyn CacheCharge>),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfs_graph::{write_container_file, GraphBuilder, GraphView, MmapGraph};
    use tdfs_mem::PAGE_BYTES;

    #[test]
    fn decode_cache_residency_is_visible_on_the_budget() {
        let dir = tdfs_testkit::TempDir::new("tdfs-core-storage").unwrap();
        let mut b = GraphBuilder::new();
        for v in 0..63u32 {
            b.push_edge(v, v + 1);
        }
        let g = b.build();
        let path = dir.join("g.tdfsgrph");
        write_container_file(&g, &path).unwrap();

        let budget = MemoryBudget::new(1024);
        {
            let m =
                MmapGraph::open_with(&path, &budgeted_map_options(&budget, PAGE_BYTES)).unwrap();
            for v in 0..64u32 {
                assert_eq!(m.neighbors(v), g.neighbors(v));
            }
            let stats = m.cache_stats();
            assert!(stats.resident_bytes > 0);
            // Rounding is per charge, so pages ≥ page-equivalents of the
            // byte total; any residency must be visible as pressure.
            assert!(
                budget.in_use_pages()
                    >= MemoryBudget::pages_for(stats.resident_bytes + stats.graveyard_bytes)
            );
            assert!(budget.in_use_pages() > 0, "decode residency is visible");
        }
        assert_eq!(budget.in_use_pages(), 0, "drop releases every charge");
    }
}
