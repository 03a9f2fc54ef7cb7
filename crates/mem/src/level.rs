//! Stack-level storage abstraction and the array baseline.
//!
//! A DFS stack in the engine is `k` levels; each level stores the
//! candidate vertices for one matching position (Fig. 3 of the paper).
//! [`LevelStore`] abstracts how a level's payload is held so the engine
//! can run identically over the paged design (T-DFS) and the
//! `d_max`-capacity array design the paper compares against in
//! Tables V–VIII.

/// Error raised when a level cannot hold more candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// The paged arena ran out of pages.
    OutOfPages,
    /// A fixed-capacity array level overflowed (policy
    /// [`OverflowPolicy::Error`]).
    LevelOverflow {
        /// The configured capacity that was exceeded.
        capacity: usize,
    },
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackError::OutOfPages => write!(f, "page arena exhausted"),
            StackError::LevelOverflow { capacity } => {
                write!(f, "stack level overflow (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for StackError {}

/// What a fixed-capacity level does when full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Fail loudly (the correct behaviour; requires capacity `d_max`).
    #[default]
    Error,
    /// Silently drop the overflowing candidates — STMatch's fixed-4096
    /// behaviour, which the paper shows "finds 2 million more matchings
    /// than the correct number" on Pokec/P3 (sic: produces wrong counts).
    Truncate,
}

/// One stack level's storage.
pub trait LevelStore {
    /// Removes all candidates (keeps backing memory).
    fn clear(&mut self);

    /// Appends a candidate.
    fn push(&mut self, v: u32) -> Result<(), StackError>;

    /// Number of stored candidates.
    fn len(&self) -> usize;

    /// Whether the level is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidate at position `i < len()`.
    fn get(&self, i: usize) -> u32;

    /// Visits the stored candidates as maximal contiguous slices, in
    /// order (one slice for arrays; per-page slices for paged levels).
    /// This is the warp-intersection input path for reuse sources.
    fn for_each_chunk(&self, f: &mut dyn FnMut(&[u32]));

    /// Candidates silently dropped by this level (truncating arrays).
    fn truncated(&self) -> u64 {
        0
    }

    /// Page faults (on-demand page allocations) served by this level.
    fn page_faults(&self) -> u64 {
        0
    }

    /// Times this level degraded to a heap spill.
    fn spill_events(&self) -> u64 {
        0
    }

    /// Candidates written to a heap spill instead of the level's pages.
    fn spilled(&self) -> u64 {
        0
    }

    /// Copies the contents into a vector (diagnostics/tests).
    fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_chunk(&mut |c| out.extend_from_slice(c));
        out
    }
}

/// The `d_max`-capacity array level — the baseline design of Fig. 3 where
/// "the stack space can be preallocated … having k levels with each level
/// having the capacity to hold `d_max` elements".
#[derive(Debug)]
pub struct ArrayLevel {
    buf: Vec<u32>,
    capacity: usize,
    policy: OverflowPolicy,
    truncated: u64,
}

impl ArrayLevel {
    /// Creates a level with the given fixed capacity, preallocated.
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            policy,
            truncated: 0,
        }
    }

    /// Shortens the level to `new_len` candidates (used by the half-steal
    /// baseline when a thief removes the stolen tail). No-op if the level
    /// is already shorter.
    pub fn truncate(&mut self, new_len: usize) {
        self.buf.truncate(new_len);
    }
}

impl LevelStore for ArrayLevel {
    fn clear(&mut self) {
        self.buf.clear();
    }

    fn push(&mut self, v: u32) -> Result<(), StackError> {
        if self.buf.len() == self.capacity {
            return match self.policy {
                OverflowPolicy::Error => Err(StackError::LevelOverflow {
                    capacity: self.capacity,
                }),
                OverflowPolicy::Truncate => {
                    self.truncated += 1;
                    Ok(())
                }
            };
        }
        self.buf.push(v);
        Ok(())
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn get(&self, i: usize) -> u32 {
        self.buf[i]
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(&[u32])) {
        if !self.buf.is_empty() {
            f(&self.buf);
        }
    }

    /// Candidates dropped under [`OverflowPolicy::Truncate`].
    fn truncated(&self) -> u64 {
        self.truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_push_get() {
        let mut l = ArrayLevel::new(4, OverflowPolicy::Error);
        for v in [3, 1, 4] {
            l.push(v).unwrap();
        }
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(1), 1);
        assert_eq!(l.to_vec(), vec![3, 1, 4]);
        l.clear();
        assert!(l.is_empty());
    }

    #[test]
    fn array_overflow_error() {
        let mut l = ArrayLevel::new(2, OverflowPolicy::Error);
        l.push(1).unwrap();
        l.push(2).unwrap();
        assert_eq!(l.push(3), Err(StackError::LevelOverflow { capacity: 2 }));
    }

    #[test]
    fn array_overflow_truncate_counts_drops() {
        let mut l = ArrayLevel::new(2, OverflowPolicy::Truncate);
        for v in 0..5 {
            l.push(v).unwrap();
        }
        assert_eq!(l.len(), 2);
        assert_eq!(l.truncated(), 3);
    }

    #[test]
    fn chunks_single_slice() {
        let mut l = ArrayLevel::new(8, OverflowPolicy::Error);
        for v in 0..5 {
            l.push(v).unwrap();
        }
        let mut chunks = 0;
        l.for_each_chunk(&mut |c| {
            chunks += 1;
            assert_eq!(c.len(), 5);
        });
        assert_eq!(chunks, 1);
    }
}
