//! Warp-level primitives.
//!
//! A warp in the model is a single worker that executes data-parallel
//! operations in 32-lane batches, mirroring how the paper's warps compute
//! set intersections: "the threads of a warp compute an intersection
//! `A ∩ B` by having each thread check an element `a ∈ A` with binary
//! search against `B`", after which surviving lanes are compacted with a
//! ballot scan into consecutive output positions (§II, and Fig. 6's
//! batched cross-page writes).
//!
//! The paper describes only the binary-search lane kernel. Real GPU
//! matchers select the membership strategy by size ratio, because a
//! per-lane binary search is wasteful when `|A| ≈ |B|` (a linear merge
//! touches each element of `B` once) and too shallow when `|B| ≫ |A|`
//! (galloping skips runs of `B` the lanes will never land in). This
//! module therefore carries three lane kernels behind one adaptive entry
//! point — see [`IntersectKind`] and [`select_kind`] — all sharing the
//! same batch structure, ballot compaction, and emission order, so that
//! `batches` / `elements_probed` / `elements_emitted` accounting stays
//! comparable no matter which kernel ran.
//!
//! The batch structure is observable: outputs are produced in compacted
//! groups of ≤ 32, and [`WarpStats`] counts batches, lane probes and
//! emitted elements, plus one counter per kernel strategy so the
//! adaptive choice shows up in run stats and service metrics.
//!
//! Each kernel has two implementations sharing one batch driver
//! ([`batch_loop`]): the scalar lanes in this module (the differential
//! oracle) and the AVX2 vector lanes in [`crate::simd`] (compiled on
//! every x86-64 build, selected per warp at run time). Both charge the
//! same deterministic memory-traffic model
//! ([`WarpStats::bytes_touched`]), so stats are bit-identical across
//! paths.
//!
//! The kernels are agnostic to where their operands come from: any
//! sorted `&[u32]` slice works, so neighbor lists handed out by a
//! batch-dynamic `DeltaCsr` view (overlay rows for mutated vertices,
//! base CSR rows elsewhere) intersect identically to device-resident
//! CSR rows — the `tests/delta_view.rs` equivalence test pins this down.

/// Number of lanes per warp (CUDA warp size).
pub const WARP_SIZE: usize = 32;

/// Below this `|B| / |A|` ratio a linear merge does less work than one
/// binary search per lane: each lane's search costs ~log2|B| random
/// probes of `B`, while the shared merge cursor advances |B|/|A|
/// *sequential* slots per lane on average — and sequential slots are far
/// cheaper than random probes (prefetched, branch-predictable). Measured
/// on the micro benches (`BENCH_intersect.json`) the crossover sits
/// between ratio 32 and 128 across operand sizes from 64 to 2048, so 64
/// is the cut.
pub const MERGE_MAX_RATIO: usize = 64;

/// At and above this `|B| / |A|` ratio the galloping kernel replaces
/// binary search. Galloping probes exponentially from the previous
/// lane's landing point, so its cost per lane is ~2·log2(gap) instead
/// of log2|B|: when probes land close together (the common case for
/// Eq. (1) operands, whose candidates cluster in shared neighborhoods)
/// it is flat in |B| and measures 3–4× faster than binary search, while
/// for adversarially spread probes the gap approaches |B|/|A| and it is
/// bounded at ~2× worse. The upside grows and the downside shrinks with
/// the ratio; at 1024 the trade is clearly favorable, and binary search
/// — the kernel the paper actually describes — keeps the broad middle
/// band.
pub const GALLOP_MIN_RATIO: usize = 1024;

/// Lane membership strategy for a warp intersection `A ∩ B`.
///
/// All three kernels drive emission from `A` in 32-lane batches and
/// produce identical output; they differ only in how a lane tests its
/// element against `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectKind {
    /// Shared linear cursor over `B` advanced across lanes and batches —
    /// one merge pass total. Best when `|A| ≈ |B|`.
    Merge,
    /// Each lane binary-searches `B` from scratch — the paper's kernel.
    /// Best in the middle band of size ratios.
    BinarySearch,
    /// Each lane gallops (exponential steps, then binary search inside
    /// the bracketed window) from the previous lane's landing point.
    /// Best when `|B|` dwarfs `|A|`.
    Gallop,
}

/// Picks the lane kernel from the operand sizes; the heuristic is the
/// documented ratio test on `|B| / |A|` with `A` the driving list:
/// merge below [`MERGE_MAX_RATIO`], binary search in the middle band,
/// galloping at and above [`GALLOP_MIN_RATIO`].
#[inline]
pub fn select_kind(a_len: usize, b_len: usize) -> IntersectKind {
    if a_len == 0 || b_len < a_len.saturating_mul(MERGE_MAX_RATIO) {
        IntersectKind::Merge
    } else if b_len < a_len.saturating_mul(GALLOP_MIN_RATIO) {
        IntersectKind::BinarySearch
    } else {
        IntersectKind::Gallop
    }
}

/// Per-warp operation counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WarpStats {
    /// Number of `A ∩ B` operations executed.
    pub intersections: u64,
    /// Number of 32-lane batches issued.
    pub batches: u64,
    /// Total elements of `A` lanes have probed against `B`.
    pub elements_probed: u64,
    /// Total elements emitted after ballot compaction.
    pub elements_emitted: u64,
    /// Extra memory dereferences charged by indexed candidate access
    /// (the EGSM CT-index model adds 2 per lookup).
    pub extra_indirections: u64,
    /// Intersections executed with the merge lane kernel.
    pub merge_kernels: u64,
    /// Intersections executed with the binary-search lane kernel.
    pub bsearch_kernels: u64,
    /// Intersections executed with the galloping lane kernel.
    pub gallop_kernels: u64,
    /// Modeled operand bytes dereferenced by the lane kernels: 4 bytes
    /// per `u32` the kernel reads from `A` or `B` (per [`batch_bytes`]'s
    /// per-strategy probe counts) plus 8 per extra indirection. This is
    /// a *deterministic cost model*, not a hardware counter — both the
    /// scalar and SIMD paths charge it from the same formula over
    /// (strategy, lanes, |B|, cursor advance), so it is bit-identical
    /// across paths and comparable across runs.
    pub bytes_touched: u64,
}

impl WarpStats {
    /// Virtual work units executed by this warp — the simulated device
    /// cycles used for makespan reporting on hosts with fewer cores than
    /// warps (load imbalance is invisible in wall time when warps
    /// timeshare one core, but not in `max` over per-warp work).
    ///
    /// The formula deliberately charges every strategy the same per
    /// probe/emit/batch: the per-kernel counters record *which* kernel
    /// ran, while work accounting stays strategy-independent so runs
    /// remain comparable when the heuristic flips a site's choice.
    pub fn work_units(&self) -> u64 {
        // A lane probe is a membership test (~8 cycles on average for
        // our list sizes); an emit is a compacted write; a batch carries
        // fixed ballot/sync overhead; an indirection is one dereference.
        self.elements_probed * 8
            + self.elements_emitted
            + self.batches * 4
            + self.extra_indirections
    }
}

impl WarpStats {
    /// Merges another warp's counters into this one.
    pub fn merge(&mut self, other: &WarpStats) {
        self.intersections += other.intersections;
        self.batches += other.batches;
        self.elements_probed += other.elements_probed;
        self.elements_emitted += other.elements_emitted;
        self.extra_indirections += other.extra_indirections;
        self.merge_kernels += other.merge_kernels;
        self.bsearch_kernels += other.bsearch_kernels;
        self.gallop_kernels += other.gallop_kernels;
        self.bytes_touched += other.bytes_touched;
    }
}

/// ⌈log2 n⌉ for `n ≥ 1` (`0` for `n ≤ 1`).
#[inline]
fn ceil_log2(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        64 - u64::from((n - 1).leading_zeros())
    }
}

/// Probes a branchless binary search makes over a window of `n`
/// elements: the window halves ⌈log2 n⌉ times plus one final equality
/// probe. Data-independent by design — the traffic model must charge
/// the same bytes no matter where a lane's element lands.
#[inline]
fn bsearch_probes(n: usize) -> u64 {
    ceil_log2(n as u64) + 1
}

/// Memory-traffic model for one ≤ 32-lane intersection batch: operand
/// bytes the strategy dereferences, as a deterministic function of
/// (strategy, lane count, `|B|`, cursor advance).
///
/// - every lane reads its own `A` element: `4·lanes`;
/// - **merge** walks the shared cursor `cursor_delta` sequential `B`
///   slots plus one compare at the cursor per lane;
/// - **binary search** probes `⌈log2 |B|⌉ + 1` random `B` slots per
///   lane;
/// - **gallop** brackets each lane's window from the rolling cursor in
///   `~2·log2(gap)` probes plus the final compare, with `gap` the
///   average per-lane cursor advance this batch.
///
/// Both kernel paths charge through this one function, so
/// [`WarpStats::bytes_touched`] cannot diverge between them.
#[inline]
fn batch_bytes(kind: IntersectKind, lanes: usize, b_len: usize, cursor_delta: usize) -> u64 {
    let lanes = lanes as u64;
    let b_bytes = match kind {
        IntersectKind::Merge => 4 * (cursor_delta as u64 + lanes),
        IntersectKind::BinarySearch => 4 * lanes * bsearch_probes(b_len),
        IntersectKind::Gallop => {
            let gap = cursor_delta as u64 / lanes.max(1);
            4 * lanes * (2 * ceil_log2(gap + 2) + 1)
        }
    };
    4 * lanes + b_bytes
}

/// Warp execution context: lane-batched kernels plus statistics.
#[derive(Debug)]
pub struct WarpOps {
    /// Operation counters for this warp.
    pub stats: WarpStats,
    /// Whether this warp runs the AVX2 lane kernels. Defaults to
    /// [`crate::simd::available`]; can be pinned off per warp so the
    /// differential suite runs both paths in one process.
    simd: bool,
    /// Intersections dispatched on the current path and not yet added to
    /// [`crate::simd::dispatch_counts`]: warp-local, so an intersection
    /// writes no memory other warps share. Flushed on drop and re-pin.
    dispatched: u64,
}

impl Default for WarpOps {
    fn default() -> Self {
        Self {
            stats: WarpStats::default(),
            simd: crate::simd::available(),
            dispatched: 0,
        }
    }
}

impl Drop for WarpOps {
    fn drop(&mut self) {
        self.flush_dispatch();
    }
}

/// Lane membership test for one intersection: a stateful closure so the
/// merge and gallop kernels can keep their cursor across lanes *and*
/// batches (one pass over `B` per intersection, as the device kernels
/// do with a register carried across iterations).
struct LaneProbe<'b> {
    kind: IntersectKind,
    b: &'b [u32],
    cursor: usize,
}

impl<'b> LaneProbe<'b> {
    fn new(kind: IntersectKind, b: &'b [u32]) -> Self {
        Self { kind, b, cursor: 0 }
    }

    /// Does `x` occur in `B`? Lanes call this with ascending `x`.
    #[inline]
    fn contains(&mut self, x: u32) -> bool {
        match self.kind {
            IntersectKind::BinarySearch => self.b.binary_search(&x).is_ok(),
            IntersectKind::Merge => {
                while self.cursor < self.b.len() && self.b[self.cursor] < x {
                    self.cursor += 1;
                }
                self.cursor < self.b.len() && self.b[self.cursor] == x
            }
            IntersectKind::Gallop => {
                // Exponential probe from the rolling cursor, then binary
                // search inside the bracketed window.
                let b = self.b;
                let mut lo = self.cursor;
                if lo >= b.len() {
                    return false;
                }
                let mut step = 1usize;
                while lo + step < b.len() && b[lo + step] < x {
                    lo += step;
                    step <<= 1;
                }
                let hi = (lo + step + 1).min(b.len());
                match b[lo..hi].binary_search(&x) {
                    Ok(i) => {
                        self.cursor = lo + i;
                        true
                    }
                    Err(i) => {
                        self.cursor = lo + i;
                        false
                    }
                }
            }
        }
    }

    /// Survivor ballot for one ≤ 32-lane batch plus the cursor advance
    /// it caused — the scalar counterpart of `SimdProbe::ballot`, so
    /// both paths feed [`batch_loop`] through the same interface.
    #[inline]
    fn ballot(&mut self, batch: &[u32]) -> (u32, usize) {
        let start = self.cursor;
        let mut ballot = 0u32;
        for (lane, &x) in batch.iter().enumerate() {
            if self.contains(x) {
                ballot |= 1 << lane;
            }
        }
        (ballot, self.cursor - start)
    }
}

/// The shared batch driver both kernel paths run through: chunks `A`
/// into 32-lane batches, obtains each batch's survivor ballot from the
/// prober, applies the fused `keep` predicate to surviving lanes in
/// lane order, and emits the remaining lanes in lane order. All
/// accounting — `batches`, `elements_probed`, `elements_emitted`,
/// `bytes_touched` — lives here, so scalar and SIMD probers produce
/// identical [`WarpStats`] by construction whenever their ballots and
/// cursor deltas agree.
fn batch_loop<B, K, E>(
    stats: &mut WarpStats,
    kind: IntersectKind,
    b_len: usize,
    a: &[u32],
    mut ballot_of: B,
    mut keep: K,
    mut emit: E,
) where
    B: FnMut(&[u32]) -> (u32, usize),
    K: FnMut(u32) -> bool,
    E: FnMut(u32),
{
    for batch in a.chunks(WARP_SIZE) {
        stats.batches += 1;
        stats.elements_probed += batch.len() as u64;
        let (mut ballot, cursor_delta) = ballot_of(batch);
        stats.bytes_touched += batch_bytes(kind, batch.len(), b_len, cursor_delta);
        // Fused predicate: lanes whose element is in `B` evaluate `keep`
        // in lane order and drop out of the ballot on rejection.
        let mut bits = ballot;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if !keep(batch[lane]) {
                ballot &= !(1u32 << lane);
            }
        }
        // Compacted write: exclusive prefix of the ballot assigns
        // consecutive output positions (the Fig.-6 style batched
        // write of ≤ 32 elements).
        let mut bits = ballot;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            emit(batch[lane]);
            stats.elements_emitted += 1;
        }
    }
}

impl WarpOps {
    /// Creates a fresh warp context; the kernel path follows
    /// [`crate::simd::available`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a warp context with the kernel path pinned: `true`
    /// requests the AVX2 lanes (still subject to
    /// [`crate::simd::available`]), `false` forces the scalar oracle.
    pub fn with_simd(enabled: bool) -> Self {
        let mut w = Self::new();
        w.set_simd(enabled);
        w
    }

    /// Re-pins the kernel path (ANDed with [`crate::simd::available`],
    /// so enabling is a no-op on a host without AVX2).
    pub fn set_simd(&mut self, enabled: bool) {
        self.flush_dispatch();
        self.simd = enabled && crate::simd::available();
    }

    /// Adds this warp's dispatches so far to the process-wide totals.
    fn flush_dispatch(&mut self) {
        if self.dispatched > 0 {
            crate::simd::note_dispatch(self.simd, self.dispatched);
            self.dispatched = 0;
        }
    }

    /// Whether intersections on this warp take the AVX2 path.
    pub fn simd_active(&self) -> bool {
        self.simd
    }

    #[inline]
    fn charge_kernel(&mut self, kind: IntersectKind) {
        // Fault point on every intersection launch: a scripted stall here
        // models one warp's kernels running slow (a straggler) without
        // touching the clock. Compiles away without the `chaos` feature,
        // keeping the micro benches at their published numbers.
        crate::chaos_point!("gpu.warp.intersect");
        self.stats.intersections += 1;
        match kind {
            IntersectKind::Merge => self.stats.merge_kernels += 1,
            IntersectKind::BinarySearch => self.stats.bsearch_kernels += 1,
            IntersectKind::Gallop => self.stats.gallop_kernels += 1,
        }
    }

    /// Warp intersection `A ∩ B`: lanes take 32-element batches of `A`,
    /// each lane tests its element against `B` with the size-adaptive
    /// kernel ([`select_kind`]), and surviving lanes are ballot-compacted
    /// into `emit` in batch order.
    ///
    /// `emit` receives each surviving element exactly once, in ascending
    /// order (batches preserve `A`'s order).
    ///
    /// Empty operands short-circuit *before* kernel selection: no
    /// intersection is issued and no per-strategy counter moves, so the
    /// counters only ever describe batches that did lane work.
    pub fn intersect<F: FnMut(u32)>(&mut self, a: &[u32], b: &[u32], emit: F) {
        if a.is_empty() || b.is_empty() {
            return;
        }
        self.intersect_with(select_kind(a.len(), b.len()), a, b, emit);
    }

    /// [`WarpOps::intersect`] with an explicit lane kernel — used by
    /// benches and equivalence tests to pin the strategy.
    pub fn intersect_with<F: FnMut(u32)>(
        &mut self,
        kind: IntersectKind,
        a: &[u32],
        b: &[u32],
        emit: F,
    ) {
        self.intersect_filtered_with(kind, a, b, |_| true, emit);
    }

    /// Intersection of a list with `B` under a per-element predicate that
    /// lanes evaluate before the ballot (used for label checks fused with
    /// the intersection — the "set intersections and vertex removal
    /// together" lightweight path of T-DFS). Kernel choice is adaptive,
    /// as in [`WarpOps::intersect`].
    pub fn intersect_filtered<P, F>(&mut self, a: &[u32], b: &[u32], keep: P, emit: F)
    where
        P: FnMut(u32) -> bool,
        F: FnMut(u32),
    {
        if a.is_empty() || b.is_empty() {
            return;
        }
        self.intersect_filtered_with(select_kind(a.len(), b.len()), a, b, keep, emit);
    }

    /// [`WarpOps::intersect_filtered`] with an explicit lane kernel.
    /// This is the one real entry point: the other three delegate here,
    /// so the empty-operand short-circuit, the dispatch decision and
    /// the shared [`batch_loop`] accounting hold for every intersection
    /// a warp issues.
    pub fn intersect_filtered_with<P, F>(
        &mut self,
        kind: IntersectKind,
        a: &[u32],
        b: &[u32],
        keep: P,
        emit: F,
    ) where
        P: FnMut(u32) -> bool,
        F: FnMut(u32),
    {
        if a.is_empty() || b.is_empty() {
            return;
        }
        self.charge_kernel(kind);
        self.dispatched += 1;
        #[cfg(target_arch = "x86_64")]
        if self.simd {
            let mut probe = crate::simd::lanes::SimdProbe::new(kind, b);
            batch_loop(
                &mut self.stats,
                kind,
                b.len(),
                a,
                |batch| probe.ballot(batch),
                keep,
                emit,
            );
            return;
        }
        let mut probe = LaneProbe::new(kind, b);
        batch_loop(
            &mut self.stats,
            kind,
            b.len(),
            a,
            |batch| probe.ballot(batch),
            keep,
            emit,
        );
    }

    /// Lane-batched filter without intersection (e.g. copying a reused
    /// level through predicates).
    pub fn filter<P, F>(&mut self, a: &[u32], mut keep: P, mut emit: F)
    where
        P: FnMut(u32) -> bool,
        F: FnMut(u32),
    {
        for batch in a.chunks(WARP_SIZE) {
            self.stats.batches += 1;
            self.stats.elements_probed += batch.len() as u64;
            // A pure filter reads each lane's element once.
            self.stats.bytes_touched += 4 * batch.len() as u64;
            let mut ballot = 0u32;
            for (lane, &x) in batch.iter().enumerate() {
                if keep(x) {
                    ballot |= 1 << lane;
                }
            }
            let mut bits = ballot;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                emit(batch[lane]);
                self.stats.elements_emitted += 1;
            }
        }
    }

    /// Charges `n` extra memory indirections (CT-index modeling); each
    /// is one pointer-sized dereference in the traffic model.
    #[inline]
    pub fn charge_indirections(&mut self, n: u64) {
        self.stats.extra_indirections += n;
        self.stats.bytes_touched += 8 * n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [IntersectKind; 3] = [
        IntersectKind::Merge,
        IntersectKind::BinarySearch,
        IntersectKind::Gallop,
    ];

    fn run_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut w = WarpOps::new();
        let mut out = Vec::new();
        w.intersect(a, b, |x| out.push(x));
        out
    }

    fn run_with(kind: IntersectKind, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut w = WarpOps::new();
        let mut out = Vec::new();
        w.intersect_with(kind, a, b, |x| out.push(x));
        out
    }

    #[test]
    fn matches_scalar_reference() {
        let a: Vec<u32> = (0..200).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..200).map(|x| x * 3).collect();
        let mut expect = Vec::new();
        tdfs_graph::intersect::intersect_merge(&a, &b, &mut expect);
        assert_eq!(run_intersect(&a, &b), expect);
        for kind in KINDS {
            assert_eq!(run_with(kind, &a, &b), expect, "{kind:?}");
        }
    }

    #[test]
    fn preserves_order() {
        for kind in KINDS {
            let out = run_with(kind, &[1, 5, 9, 70, 71, 100], &[5, 9, 71, 100]);
            assert_eq!(out, vec![5, 9, 71, 100], "{kind:?}");
        }
    }

    #[test]
    fn batch_counting() {
        let a: Vec<u32> = (0..65).collect();
        let b: Vec<u32> = (0..65).collect();
        for kind in KINDS {
            let mut w = WarpOps::new();
            let mut n = 0usize;
            w.intersect_with(kind, &a, &b, |_| n += 1);
            assert_eq!(n, 65);
            assert_eq!(w.stats.batches, 3, "{kind:?}"); // 32 + 32 + 1
            assert_eq!(w.stats.elements_probed, 65);
            assert_eq!(w.stats.elements_emitted, 65);
            assert_eq!(w.stats.intersections, 1);
        }
    }

    #[test]
    fn heuristic_picks_by_ratio() {
        // 1:1 and near-equal sizes → merge (including A larger than B).
        assert_eq!(select_kind(100, 100), IntersectKind::Merge);
        assert_eq!(select_kind(100, 10), IntersectKind::Merge);
        assert_eq!(select_kind(100, 6_399), IntersectKind::Merge);
        assert_eq!(select_kind(32, 1024), IntersectKind::Merge);
        // Middle band → the paper's binary-search kernel.
        assert_eq!(select_kind(100, 6_400), IntersectKind::BinarySearch);
        assert_eq!(select_kind(16, 2048), IntersectKind::BinarySearch);
        assert_eq!(select_kind(100, 102_399), IntersectKind::BinarySearch);
        // Extreme skew → galloping.
        assert_eq!(select_kind(100, 102_400), IntersectKind::Gallop);
        assert_eq!(select_kind(1, 1024), IntersectKind::Gallop);
        // Degenerate inputs never panic and pick the cheap kernel.
        assert_eq!(select_kind(0, 1024), IntersectKind::Merge);
        assert_eq!(select_kind(0, 0), IntersectKind::Merge);
    }

    #[test]
    fn per_strategy_counters() {
        let mut w = WarpOps::new();
        let b: Vec<u32> = (0..2048).collect();
        w.intersect(&[1, 2, 3], &[1, 2, 3], |_| {}); // 1:1 → merge
        w.intersect(&(0..16).collect::<Vec<_>>(), &b, |_| {}); // 1:128 → bsearch
        w.intersect(&[7], &b, |_| {}); // 1:2048 → gallop
        assert_eq!(w.stats.merge_kernels, 1);
        assert_eq!(w.stats.bsearch_kernels, 1);
        assert_eq!(w.stats.gallop_kernels, 1);
        assert_eq!(w.stats.intersections, 3);
    }

    #[test]
    fn filtered_intersection() {
        for kind in KINDS {
            let mut w = WarpOps::new();
            let mut out = Vec::new();
            w.intersect_filtered_with(
                kind,
                &[1, 2, 3, 4, 5],
                &[2, 3, 4],
                |x| x % 2 == 0,
                |x| out.push(x),
            );
            assert_eq!(out, vec![2, 4], "{kind:?}");
        }
    }

    #[test]
    fn filter_only() {
        let mut w = WarpOps::new();
        let mut out = Vec::new();
        w.filter(&[10, 11, 12, 13], |x| x > 11, |x| out.push(x));
        assert_eq!(out, vec![12, 13]);
    }

    #[test]
    fn empty_inputs() {
        for kind in KINDS {
            assert!(run_with(kind, &[], &[1, 2]).is_empty());
            assert!(run_with(kind, &[1, 2], &[]).is_empty());
        }
    }

    #[test]
    fn empty_operands_charge_nothing() {
        // The short-circuit fires before kernel selection: no
        // intersection, no per-strategy counter, no batches — on the
        // adaptive and the pinned entry points alike.
        let mut w = WarpOps::new();
        w.intersect(&[], &[1, 2, 3], |_| unreachable!());
        w.intersect(&[1, 2, 3], &[], |_| unreachable!());
        w.intersect_filtered(&[], &[1, 2], |_| true, |_| unreachable!());
        for kind in KINDS {
            w.intersect_with(kind, &[], &[1, 2], |_| unreachable!());
            w.intersect_filtered_with(kind, &[1], &[], |_| true, |_| unreachable!());
        }
        assert_eq!(w.stats, WarpStats::default());
    }

    #[test]
    fn bytes_touched_is_charged_per_strategy() {
        let a: Vec<u32> = (0..64).map(|x| x * 7).collect();
        let b: Vec<u32> = (0..4096).collect();
        for kind in KINDS {
            let mut w = WarpOps::new();
            w.intersect_with(kind, &a, &b, |_| {});
            // Every strategy reads at least its A lanes (4 bytes each).
            assert!(w.stats.bytes_touched >= 4 * a.len() as u64, "{kind:?}");
        }
        // The pure filter charges A-side bytes only.
        let mut w = WarpOps::new();
        w.filter(&a, |_| true, |_| {});
        assert_eq!(w.stats.bytes_touched, 4 * a.len() as u64);
        // Indirections are pointer-sized.
        w.charge_indirections(3);
        assert_eq!(w.stats.bytes_touched, 4 * a.len() as u64 + 24);
    }

    #[test]
    fn dispatches_reach_the_totals_when_the_warp_exits_or_repins() {
        // Other tests drop warps concurrently, so only a lower bound on
        // the rise holds.
        const N: u64 = 50;
        let on_path = |c: crate::simd::DispatchCounts, simd: bool| {
            if simd {
                c.simd
            } else {
                c.scalar
            }
        };
        for simd in [false, true] {
            let before = crate::simd::dispatch_counts();
            let mut w = WarpOps::with_simd(simd);
            let path = w.simd_active();
            for x in 0..N as u32 {
                w.intersect(&[x], &[x], |_| {});
            }
            drop(w);
            let after = crate::simd::dispatch_counts();
            assert!(on_path(after, path) >= on_path(before, path) + N, "{simd}");
        }
        let before = crate::simd::dispatch_counts();
        let mut w = WarpOps::new();
        let path = w.simd_active();
        for x in 0..N as u32 {
            w.intersect(&[x], &[x], |_| {});
        }
        w.set_simd(!path);
        let after = crate::simd::dispatch_counts();
        assert!(on_path(after, path) >= on_path(before, path) + N);
    }

    #[test]
    fn simd_flag_respects_availability() {
        let w = WarpOps::with_simd(true);
        assert_eq!(w.simd_active(), crate::simd::available());
        let w = WarpOps::with_simd(false);
        assert!(!w.simd_active());
    }

    #[test]
    fn simd_and_scalar_paths_agree_exactly() {
        if !crate::simd::available() {
            return; // non-AVX2 host or TDFS_NO_SIMD: nothing to compare
        }
        let a: Vec<u32> = (0..300).map(|x| x * 3).collect();
        let b: Vec<u32> = (0..2000).map(|x| x * 2).collect();
        for kind in KINDS {
            let mut scalar = WarpOps::with_simd(false);
            let mut simd = WarpOps::with_simd(true);
            let mut out_scalar = Vec::new();
            let mut out_simd = Vec::new();
            scalar.intersect_with(kind, &a, &b, |x| out_scalar.push(x));
            simd.intersect_with(kind, &a, &b, |x| out_simd.push(x));
            assert_eq!(out_scalar, out_simd, "{kind:?}");
            assert_eq!(scalar.stats, simd.stats, "{kind:?}");
        }
    }

    #[test]
    fn gallop_cursor_survives_batch_boundaries() {
        // 40 elements of A spread across a huge B: the rolling cursor
        // must stay correct across the 32-lane batch boundary.
        let a: Vec<u32> = (0..40).map(|x| x * 1000).collect();
        let b: Vec<u32> = (0..40_000).collect();
        let expect: Vec<u32> = a.clone();
        assert_eq!(run_with(IntersectKind::Gallop, &a, &b), expect);
        assert_eq!(run_with(IntersectKind::Merge, &a, &b), expect);
    }

    #[test]
    fn stats_merge() {
        let mut a = WarpStats {
            intersections: 1,
            batches: 2,
            elements_probed: 3,
            elements_emitted: 4,
            extra_indirections: 5,
            merge_kernels: 6,
            bsearch_kernels: 7,
            gallop_kernels: 8,
            bytes_touched: 9,
        };
        a.merge(&a.clone());
        assert_eq!(a.intersections, 2);
        assert_eq!(a.extra_indirections, 10);
        assert_eq!(a.merge_kernels, 12);
        assert_eq!(a.bsearch_kernels, 14);
        assert_eq!(a.gallop_kernels, 16);
        assert_eq!(a.bytes_touched, 18);
    }

    #[test]
    fn traffic_model_helpers() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        assert_eq!(bsearch_probes(1), 1);
        assert_eq!(bsearch_probes(4096), 13);
        // Merge traffic is linear in the cursor walk; bsearch is
        // logarithmic in |B| and independent of the walk.
        assert_eq!(
            batch_bytes(IntersectKind::Merge, 32, 4096, 100),
            4 * 32 + 4 * (100 + 32)
        );
        assert_eq!(
            batch_bytes(IntersectKind::BinarySearch, 32, 4096, 0),
            4 * 32 + 4 * 32 * 13
        );
        // Gallop with zero advance still pays the bracketing probes.
        assert!(batch_bytes(IntersectKind::Gallop, 32, 1 << 20, 0) > 4 * 32);
    }
}
