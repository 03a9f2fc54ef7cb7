//! Host vector lanes for the warp kernels, plus the locality primitives
//! that go with them (software prefetch, dispatch telemetry).
//!
//! The scalar kernels in [`crate::warp`] model a warp's 32 lanes with a
//! loop; this module executes the same lane semantics with real AVX2
//! vector instructions, 8 × u32 per step, behind the `simd` cargo
//! feature. Dispatch is strictly additive:
//!
//! - compile-time: without the `simd` feature nothing here emits vector
//!   code and [`available`] is a constant `false`;
//! - run-time: with the feature on, [`available`] checks AVX2 once with
//!   `is_x86_feature_detected!` (and honors a `TDFS_NO_SIMD` environment
//!   override so the scalar fallback stays testable on AVX2 hosts);
//! - per-warp: [`crate::warp::WarpOps::set_simd`] can pin a single warp
//!   to the scalar path, which is how the differential suite runs both
//!   paths in one process and asserts bit-identical `WarpStats`.
//!
//! The vector kernels must be *observably identical* to the scalar
//! oracle: same emitted elements in the same order, same batch
//! structure, same counters. They achieve this by producing the same
//! per-batch survivor ballot the scalar lanes would (membership on
//! sorted operands is a pure set property) and leaving the shared
//! cursor at the same canonical position (the lower bound of the
//! batch's last lane), so all accounting — which is derived from the
//! ballot and cursor movement alone — cannot diverge.

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide dispatch telemetry: which kernel path intersections
/// actually took. Deliberately *outside* [`crate::warp::WarpStats`] —
/// the differential oracle compares `WarpStats` for equality across
/// paths, so the path marker itself cannot live there.
///
/// Each warp counts its own dispatches and adds them here when it is
/// dropped or re-pinned ([`crate::warp::WarpOps::set_simd`]), so the
/// intersection path never writes memory other warps share, and the
/// totals lag warps that are still running.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispatchCounts {
    /// Intersections executed by the AVX2 lane kernels.
    pub simd: u64,
    /// Intersections executed by the scalar lane kernels.
    pub scalar: u64,
}

static SIMD_INTERSECTIONS: AtomicU64 = AtomicU64::new(0);
static SCALAR_INTERSECTIONS: AtomicU64 = AtomicU64::new(0);

/// Adds `n` intersections a warp dispatched on one path to the totals.
pub(crate) fn note_dispatch(simd: bool, n: u64) {
    if simd {
        SIMD_INTERSECTIONS.fetch_add(n, Ordering::Relaxed);
    } else {
        SCALAR_INTERSECTIONS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Lifetime dispatch counters for this process (service metrics /
/// `examples/serve.rs` print these so operators can see which path
/// production traffic takes). Counts the warps that have exited or been
/// re-pinned, not those still running.
pub fn dispatch_counts() -> DispatchCounts {
    DispatchCounts {
        simd: SIMD_INTERSECTIONS.load(Ordering::Relaxed),
        scalar: SCALAR_INTERSECTIONS.load(Ordering::Relaxed),
    }
}

/// Whether the vector kernels can run: `simd` feature compiled in, the
/// host supports AVX2, and `TDFS_NO_SIMD` is not set. Checked once and
/// cached.
#[inline]
pub fn available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::env::var_os("TDFS_NO_SIMD").is_none() && is_x86_feature_detected!("avx2")
        })
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Software prefetch of an adjacency/candidate row the caller is about
/// to intersect — the DFS engines issue this for the *next* candidate's
/// row while the current one's subtree is processed, hiding the random
/// CSR row access behind useful work. Compiles to nothing without the
/// `simd` feature; a pure hint otherwise (no effect on results or
/// stats).
#[inline]
pub fn prefetch_read(row: &[u32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if !row.is_empty() {
            // `_mm_prefetch` is baseline SSE on x86_64 — no runtime
            // dispatch needed. Pull the first two cache lines: enough
            // for the short rows that dominate, and the hardware
            // streamer takes over on long sequential ones.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch(row.as_ptr() as *const i8, _MM_HINT_T0);
                if row.len() > 16 {
                    _mm_prefetch(row.as_ptr().wrapping_add(16) as *const i8, _MM_HINT_T0);
                }
            }
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = row;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod lanes {
    //! The AVX2 kernels. Operand contract (same as the scalar kernels):
    //! `B` strictly increasing (a set); batches of `A` ascending. Under
    //! that contract membership is a pure set property, so any correct
    //! search produces the scalar ballot — the vector code is free to
    //! organize its probes differently as long as the per-batch cursor
    //! lands on the canonical lower bound.

    use crate::warp::IntersectKind;
    use core::arch::x86_64::*;

    /// XOR mask turning a u32 into a sign-flipped i32 so signed vector
    /// compares order unsigned values correctly.
    const SIGN: i32 = i32::MIN;

    /// Vector-lane prober: one per intersection, mirrors the scalar
    /// `LaneProbe` contract at batch granularity. `ballot` is called
    /// once per ≤ 32-lane batch with ascending elements and returns the
    /// survivor ballot plus the canonical cursor delta for the batch.
    pub struct SimdProbe<'b> {
        kind: IntersectKind,
        b: &'b [u32],
        cursor: usize,
    }

    impl<'b> SimdProbe<'b> {
        pub fn new(kind: IntersectKind, b: &'b [u32]) -> Self {
            Self { kind, b, cursor: 0 }
        }

        /// Survivor ballot for one batch (bit i set iff lane i's element
        /// is in `B`) and the cursor advance the scalar kernel would
        /// have made. Caller guarantees AVX2 ([`crate::simd::available`]).
        #[inline]
        pub fn ballot(&mut self, batch: &[u32]) -> (u32, usize) {
            debug_assert!(
                batch.windows(2).all(|w| w[0] <= w[1]),
                "warp batches must be ascending"
            );
            let start = self.cursor;
            // SAFETY: AVX2 presence was checked by `simd::available()`
            // before the caller enabled this path.
            let ballot = unsafe {
                match self.kind {
                    IntersectKind::BinarySearch => ballot_bsearch(batch, self.b),
                    IntersectKind::Merge => ballot_merge(batch, self.b, &mut self.cursor),
                    IntersectKind::Gallop => ballot_gallop(batch, self.b, &mut self.cursor),
                }
            };
            (ballot, self.cursor - start)
        }
    }

    /// 8-lane branchless lower-bound membership inside `b[lo..lo+len)`:
    /// every lane halves the same-length window with a gathered probe,
    /// then one final gather tests equality. Probe depth is
    /// ⌈log2 len⌉ + 1 for every lane — data-independent, which is what
    /// lets the traffic model charge it deterministically.
    #[target_feature(enable = "avx2")]
    unsafe fn gather_eq_mask(group: &[u32], b: &[u32], lo: usize, len: usize) -> u32 {
        debug_assert!(group.len() == 8 && len >= 1 && lo + len <= b.len());
        let x = _mm256_loadu_si256(group.as_ptr() as *const __m256i);
        let sign = _mm256_set1_epi32(SIGN);
        let xs = _mm256_xor_si256(x, sign);
        let mut base = _mm256_set1_epi32(lo as i32);
        let mut n = len;
        while n > 1 {
            let half = n / 2;
            let probe = _mm256_add_epi32(base, _mm256_set1_epi32((half - 1) as i32));
            let vals = _mm256_i32gather_epi32::<4>(b.as_ptr() as *const i32, probe);
            // vals < x unsigned  ⇔  (x ^ SIGN) > (vals ^ SIGN) signed.
            let lt = _mm256_cmpgt_epi32(xs, _mm256_xor_si256(vals, sign));
            base = _mm256_add_epi32(base, _mm256_and_si256(_mm256_set1_epi32(half as i32), lt));
            n -= half;
        }
        let vals = _mm256_i32gather_epi32::<4>(b.as_ptr() as *const i32, base);
        let eq = _mm256_cmpeq_epi32(vals, x);
        _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32
    }

    /// The paper's kernel, vectorized: each lane binary-searches `B`
    /// from scratch; 8 lanes share each probe step via gathers.
    #[target_feature(enable = "avx2")]
    unsafe fn ballot_bsearch(batch: &[u32], b: &[u32]) -> u32 {
        let mut ballot = 0u32;
        let mut lane0 = 0u32;
        let mut groups = batch.chunks_exact(8);
        for group in groups.by_ref() {
            ballot |= gather_eq_mask(group, b, 0, b.len()) << lane0;
            lane0 += 8;
        }
        for (i, &x) in groups.remainder().iter().enumerate() {
            if b.binary_search(&x).is_ok() {
                ballot |= 1 << (lane0 + i as u32);
            }
        }
        ballot
    }

    /// Rotates the 8 u32 lanes left by one: [a0..a7] → [a1..a7, a0].
    #[target_feature(enable = "avx2")]
    unsafe fn rotate1(v: __m256i) -> __m256i {
        _mm256_permutevar8x32_epi32(v, _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0))
    }

    /// Block merge for one 8-lane group against `b[*cur..]`: compare
    /// the group all-vs-all against successive 8-element blocks of `B`
    /// (8 compares over 8 lane rotations each), skipping blocks wholly
    /// below the group without comparing, until a block reaches the
    /// group's max. Leaves `cur` at (or before) the canonical position.
    #[target_feature(enable = "avx2")]
    unsafe fn merge_group(group: &[u32], b: &[u32], cur: &mut usize) -> u32 {
        let x = _mm256_loadu_si256(group.as_ptr() as *const __m256i);
        let x0 = group[0];
        let xmax = group[7];
        let mut mask = 0u32;
        let mut c = *cur;
        loop {
            if b.len().saturating_sub(c) < 8 {
                // Short B tail: finish the group scalar against b[c..].
                for (i, &v) in group.iter().enumerate() {
                    if b[c..].binary_search(&v).is_ok() {
                        mask |= 1 << i;
                    }
                }
                break;
            }
            let bmax = *b.get_unchecked(c + 7);
            if bmax < x0 {
                // Whole block below the group: nothing can match, skip.
                c += 8;
                continue;
            }
            let vb = _mm256_loadu_si256(b.as_ptr().add(c) as *const __m256i);
            let mut rot = vb;
            let mut eq = _mm256_cmpeq_epi32(x, rot);
            for _ in 0..7 {
                rot = rotate1(rot);
                eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(x, rot));
            }
            mask |= _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
            if bmax >= xmax {
                // Block covers the group's max: every lane is resolved,
                // and skipping further would pass elements the *next*
                // group still needs.
                break;
            }
            c += 8;
        }
        *cur = c;
        mask
    }

    /// Shared-cursor linear merge, vectorized in 8×8 blocks. After the
    /// batch the cursor is advanced to the canonical position — the
    /// first `B` slot ≥ the batch's last lane, exactly where the scalar
    /// merge cursor lands — so cursor deltas (and the bytes model built
    /// on them) agree bit-for-bit.
    #[target_feature(enable = "avx2")]
    unsafe fn ballot_merge(batch: &[u32], b: &[u32], cursor: &mut usize) -> u32 {
        let mut ballot = 0u32;
        let mut cur = *cursor;
        let mut lane0 = 0u32;
        let mut groups = batch.chunks_exact(8);
        for group in groups.by_ref() {
            ballot |= merge_group(group, b, &mut cur) << lane0;
            lane0 += 8;
        }
        for (i, &x) in groups.remainder().iter().enumerate() {
            while cur < b.len() && b[cur] < x {
                cur += 1;
            }
            if cur < b.len() && b[cur] == x {
                ballot |= 1 << (lane0 + i as u32);
            }
        }
        // Canonicalize: merge_group may trail the scalar cursor by at
        // most one block, so this scan is O(8).
        if let Some(&last) = batch.last() {
            while cur < b.len() && b[cur] < last {
                cur += 1;
            }
        }
        *cursor = cur;
        ballot
    }

    /// Galloping kernel, vectorized per 8-lane group: one exponential
    /// probe from the rolling cursor brackets the whole group's window
    /// (the group max bounds every lane), then the 8 lanes resolve with
    /// a gathered branchless search inside it. The cursor advances to
    /// the lower bound of the group max — the scalar kernel's landing
    /// point.
    #[target_feature(enable = "avx2")]
    unsafe fn ballot_gallop(batch: &[u32], b: &[u32], cursor: &mut usize) -> u32 {
        let mut ballot = 0u32;
        let mut cur = *cursor;
        let mut lane0 = 0u32;
        let mut groups = batch.chunks_exact(8);
        for group in groups.by_ref() {
            if cur < b.len() {
                let xmax = group[7];
                let mut lo = cur;
                let mut step = 1usize;
                while lo + step < b.len() && b[lo + step] < xmax {
                    lo += step;
                    step <<= 1;
                }
                let hi = (lo + step + 1).min(b.len());
                ballot |= gather_eq_mask(group, b, cur, hi - cur) << lane0;
                cur += match b[cur..hi].binary_search(&xmax) {
                    Ok(i) | Err(i) => i,
                };
            }
            lane0 += 8;
        }
        for (i, &x) in groups.remainder().iter().enumerate() {
            if cur >= b.len() {
                continue;
            }
            let mut lo = cur;
            let mut step = 1usize;
            while lo + step < b.len() && b[lo + step] < x {
                lo += step;
                step <<= 1;
            }
            let hi = (lo + step + 1).min(b.len());
            match b[lo..hi].binary_search(&x) {
                Ok(j) => {
                    cur = lo + j;
                    ballot |= 1 << (lane0 + i as u32);
                }
                Err(j) => {
                    cur = lo + j;
                }
            }
        }
        *cursor = cur;
        ballot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_counters_accumulate() {
        let before = dispatch_counts();
        note_dispatch(true, 1);
        note_dispatch(false, 2);
        let after = dispatch_counts();
        assert!(after.simd > before.simd);
        assert!(after.scalar >= before.scalar + 2);
    }

    #[test]
    fn prefetch_is_safe_on_any_slice() {
        prefetch_read(&[]);
        prefetch_read(&[1]);
        let long: Vec<u32> = (0..1000).collect();
        prefetch_read(&long);
    }

    #[cfg(not(feature = "simd"))]
    #[test]
    fn unavailable_without_feature() {
        assert!(!available());
    }
}
