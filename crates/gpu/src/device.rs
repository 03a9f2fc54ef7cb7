//! Device abstraction and multi-device partitioning.
//!
//! A device groups `num_warps` warps, owns one shared [`TaskQueue`] and
//! one chunked initial-task cursor ("every idle warp will obtain the next
//! available chunk of initial tasks … the default chunk size is 8",
//! paper §III). Multi-GPU execution partitions the initial edges
//! round-robin: "the *i*-th edge is assigned to the
//! (*i* mod NUM_GPU)-th GPU" (§IV-E).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::queue::TaskQueue;

/// Default initial-task chunk size (paper: 8).
pub const DEFAULT_CHUNK_SIZE: usize = 8;

/// Default task-queue capacity in tasks. The paper uses 1 M tasks (3 M
/// integers / 12 MB) and observes that the queue-first idle policy keeps
/// the queue far below capacity; our laptop-scale default is 16 Ki tasks
/// (192 KB), still orders of magnitude above observed peaks, and the
/// queue-full fallback path is exercised by tests regardless.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1 << 14;

/// One simulated GPU.
pub struct Device {
    /// Device index within its group.
    pub id: usize,
    /// Number of devices in the group (round-robin stride).
    pub group_size: usize,
    /// Warps launched on this device.
    pub num_warps: usize,
    /// Initial-task chunk size.
    pub chunk_size: usize,
    /// The device's shared lock-free task queue.
    pub queue: TaskQueue,
    cursor: AtomicUsize,
}

impl Device {
    /// Creates a standalone device (group of one).
    pub fn new(num_warps: usize) -> Self {
        Self::in_group(0, 1, num_warps, DEFAULT_CHUNK_SIZE, DEFAULT_QUEUE_CAPACITY)
    }

    /// Creates a device within a group.
    pub fn in_group(
        id: usize,
        group_size: usize,
        num_warps: usize,
        chunk_size: usize,
        queue_capacity: usize,
    ) -> Self {
        assert!(group_size >= 1 && id < group_size);
        assert!(num_warps >= 1 && chunk_size >= 1);
        Self {
            id,
            group_size,
            num_warps,
            chunk_size,
            queue: TaskQueue::new(queue_capacity),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Number of initial tasks (edges) owned by this device out of
    /// `total` global ones under round-robin assignment.
    pub fn local_task_count(&self, total: usize) -> usize {
        let full = total / self.group_size;
        let extra = usize::from(self.id < total % self.group_size);
        full + extra
    }

    /// Claims the next chunk of local initial-task indices, or `None`
    /// when this device's partition is exhausted. Thread-safe; called by
    /// idle warps.
    pub fn next_chunk(&self, total: usize) -> Option<Range<usize>> {
        let local_total = self.local_task_count(total);
        let start = self.cursor.fetch_add(self.chunk_size, Ordering::Relaxed);
        if start >= local_total {
            None
        } else {
            Some(start..(start + self.chunk_size).min(local_total))
        }
    }

    /// Maps a local task index to the global edge index.
    #[inline]
    pub fn global_index(&self, local: usize) -> usize {
        local * self.group_size + self.id
    }

    /// Rewinds the initial-task cursor and restarts the queue's counters
    /// and peak, so the next run on this device reports what a fresh
    /// device would. The queue must be empty, as every run that ends
    /// cleanly leaves it.
    pub fn reset(&self) {
        self.cursor.store(0, Ordering::Relaxed);
        self.queue.restart_counters();
    }
}

/// A group of devices processing one job (paper Fig. 12: 1–4 GPUs).
pub struct DeviceGroup {
    /// The member devices.
    pub devices: Vec<Device>,
}

impl DeviceGroup {
    /// Creates `n` devices with `num_warps` warps each.
    pub fn new(n: usize, num_warps: usize) -> Self {
        Self::with_config(n, num_warps, DEFAULT_CHUNK_SIZE, DEFAULT_QUEUE_CAPACITY)
    }

    /// Creates a group with explicit chunk size and queue capacity.
    pub fn with_config(
        n: usize,
        num_warps: usize,
        chunk_size: usize,
        queue_capacity: usize,
    ) -> Self {
        assert!(n >= 1);
        let devices = (0..n)
            .map(|id| Device::in_group(id, n, num_warps, chunk_size, queue_capacity))
            .collect();
        Self { devices }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the group is empty (never true: constructor requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn chunks_cover_partition_exactly_once() {
        let d = Device::in_group(1, 3, 4, 8, 16);
        let total = 103;
        let mut seen = Vec::new();
        while let Some(r) = d.next_chunk(total) {
            for local in r {
                seen.push(d.global_index(local));
            }
        }
        // Device 1 of 3 owns indices ≡ 1 (mod 3).
        let expect: Vec<usize> = (0..total).filter(|i| i % 3 == 1).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn group_partitions_are_disjoint_and_complete() {
        let g = DeviceGroup::with_config(4, 2, 5, 16);
        let total = 57;
        let mut all = HashSet::new();
        for d in &g.devices {
            while let Some(r) = d.next_chunk(total) {
                for local in r {
                    assert!(all.insert(d.global_index(local)), "duplicate assignment");
                }
            }
        }
        assert_eq!(all.len(), total);
    }

    #[test]
    fn local_count_balanced() {
        let g = DeviceGroup::new(4, 1);
        let counts: Vec<usize> = g.devices.iter().map(|d| d.local_task_count(10)).collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
        assert_eq!(counts.iter().sum::<usize>(), 10);
    }

    #[test]
    fn concurrent_chunk_claims_disjoint() {
        let d = std::sync::Arc::new(Device::new(4));
        let total = 10_000;
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                while let Some(r) = d.next_chunk(total) {
                    mine.extend(r);
                }
                mine
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn reset_restarts_cursor() {
        let d = Device::new(1);
        assert!(d.next_chunk(4).is_some());
        while d.next_chunk(4).is_some() {}
        assert!(d.queue.enqueue(crate::queue::Task::pair(1, 2)));
        assert!(d.queue.dequeue().is_some());
        d.reset();
        assert_eq!(d.next_chunk(4), Some(0..4));
        assert_eq!(d.queue.total_enqueued(), 0);
        assert_eq!(d.queue.total_dequeued(), 0);
        assert_eq!(d.queue.peak_tasks(), 0);
        // The ring keeps working across the restart.
        assert!(d.queue.enqueue(crate::queue::Task::pair(3, 4)));
        assert_eq!(d.queue.dequeue(), Some(crate::queue::Task::pair(3, 4)));
    }
}
