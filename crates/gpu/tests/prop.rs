//! Randomized tests for the warp execution model (internal-PRNG-driven):
//! the queue under random operation sequences behaves like a bounded
//! FIFO, and the warp kernels agree with their scalar definitions.

use std::collections::VecDeque;
use tdfs_gpu::queue::{Task, TaskQueue, PAD};
use tdfs_gpu::warp::{select_kind, IntersectKind, WarpOps};
use tdfs_graph::rng::Rng;

const CASES: u64 = 128;

const KINDS: [IntersectKind; 3] = [
    IntersectKind::Merge,
    IntersectKind::BinarySearch,
    IntersectKind::Gallop,
];

fn random_task(rng: &mut Rng) -> Task {
    let a = rng.gen_range_u32(0..10_000);
    let b = rng.gen_range_u32(0..10_000);
    if rng.gen_bool() {
        Task::triple(a, b, rng.gen_range_u32(0..10_000))
    } else {
        Task::pair(a, b)
    }
}

fn random_sorted_set(rng: &mut Rng, max: u32, len: usize) -> Vec<u32> {
    let n = rng.gen_range(0..len);
    let mut v: Vec<u32> = (0..n).map(|_| rng.gen_range_u32(0..max)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn queue_is_a_bounded_fifo() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xF1F0 + case);
        let cap = rng.gen_range(1..16);
        let q = TaskQueue::new(cap);
        let mut model: VecDeque<Task> = VecDeque::new();
        for _ in 0..rng.gen_range(1..300) {
            if rng.gen_bool() {
                let task = random_task(&mut rng);
                let accepted = q.enqueue(task);
                assert_eq!(accepted, model.len() < cap, "fullness mismatch");
                if accepted {
                    model.push_back(task);
                }
            } else {
                let got = q.dequeue();
                assert_eq!(got, model.pop_front(), "FIFO order mismatch");
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
        }
    }
}

#[test]
fn task_prefix_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x7A5C);
    for _ in 0..1000 {
        let t = random_task(&mut rng);
        if t.v3 == PAD {
            assert_eq!(t.prefix_len(), 2);
        } else {
            assert_eq!(t.prefix_len(), 3);
        }
    }
}

#[test]
fn warp_intersect_matches_scalar() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1A7E + case);
        let a = random_sorted_set(&mut rng, 4000, 300);
        let b = random_sorted_set(&mut rng, 4000, 300);
        let mut w = WarpOps::new();
        let mut got = Vec::new();
        w.intersect(&a, &b, |x| got.push(x));
        let mut expect = Vec::new();
        tdfs_graph::intersect::intersect_merge(&a, &b, &mut expect);
        assert_eq!(got, expect);
        assert_eq!(w.stats.elements_probed, a.len() as u64);
        assert_eq!(w.stats.batches, a.chunks(32).count() as u64);
    }
}

/// Random operand pair in one of four shapes the adaptive heuristic has
/// to cover: balanced, skewed (tiny A vs huge B), disjoint ranges, and
/// heavily overlapping (dense in a small universe).
fn random_shaped_pair(rng: &mut Rng, shape: u64) -> (Vec<u32>, Vec<u32>) {
    match shape % 4 {
        0 => (
            random_sorted_set(rng, 4000, 300),
            random_sorted_set(rng, 4000, 300),
        ),
        1 => (
            random_sorted_set(rng, 100_000, 8),
            random_sorted_set(rng, 100_000, 3000),
        ),
        2 => {
            // Disjoint value ranges: no element can match.
            let a = random_sorted_set(rng, 1000, 200);
            let b: Vec<u32> = random_sorted_set(rng, 1000, 200)
                .iter()
                .map(|x| x + 10_000)
                .collect();
            (a, b)
        }
        _ => (
            random_sorted_set(rng, 150, 120),
            random_sorted_set(rng, 150, 120),
        ),
    }
}

#[test]
fn all_kernels_agree_with_scalar_on_all_shapes() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xADA9 + case);
        let (a, b) = random_shaped_pair(&mut rng, case);
        let mut expect = Vec::new();
        tdfs_graph::intersect::intersect_merge(&a, &b, &mut expect);
        for kind in KINDS {
            let mut w = WarpOps::new();
            let mut got = Vec::new();
            w.intersect_with(kind, &a, &b, |x| got.push(x));
            assert_eq!(got, expect, "{kind:?} shape {}", case % 4);
            if a.is_empty() || b.is_empty() {
                // Empty operands short-circuit before any lane work.
                assert_eq!(w.stats.batches, 0);
                assert_eq!(w.stats.elements_probed, 0);
                assert_eq!(w.stats.intersections, 0);
                continue;
            }
            // The batch accounting is strategy-independent by design:
            // every kernel walks the same 32-lane chunks of A.
            assert_eq!(w.stats.elements_probed, a.len() as u64);
            assert_eq!(w.stats.elements_emitted, expect.len() as u64);
            assert_eq!(w.stats.batches, a.chunks(32).count() as u64);
            assert!(w.stats.bytes_touched >= 4 * a.len() as u64);
        }
    }
}

#[test]
fn adaptive_dispatch_matches_scalar_and_charges_selected_kernel() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xD15C + case);
        let (a, b) = random_shaped_pair(&mut rng, case);
        let mut w = WarpOps::new();
        let mut got = Vec::new();
        w.intersect(&a, &b, |x| got.push(x));
        let mut expect = Vec::new();
        tdfs_graph::intersect::intersect_merge(&a, &b, &mut expect);
        assert_eq!(got, expect);
        if a.is_empty() || b.is_empty() {
            // No-op intersections are not charged to any strategy.
            assert_eq!(w.stats.intersections, 0);
            assert_eq!(
                w.stats.merge_kernels + w.stats.bsearch_kernels + w.stats.gallop_kernels,
                0
            );
            continue;
        }
        let charged = match select_kind(a.len(), b.len()) {
            IntersectKind::Merge => w.stats.merge_kernels,
            IntersectKind::BinarySearch => w.stats.bsearch_kernels,
            IntersectKind::Gallop => w.stats.gallop_kernels,
        };
        assert_eq!(charged, 1, "selected strategy must be the one charged");
        assert_eq!(
            w.stats.merge_kernels + w.stats.bsearch_kernels + w.stats.gallop_kernels,
            w.stats.intersections,
            "every intersection is charged to exactly one strategy"
        );
    }
}

#[test]
fn filtered_kernels_agree_with_filtered_scalar() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xF17E + case);
        let (a, b) = random_shaped_pair(&mut rng, case);
        let modulus = rng.gen_range_u32(1..7);
        let mut expect = Vec::new();
        tdfs_graph::intersect::intersect_merge(&a, &b, &mut expect);
        expect.retain(|x| x % modulus == 0);
        for kind in KINDS {
            let mut w = WarpOps::new();
            let mut got = Vec::new();
            w.intersect_filtered_with(kind, &a, &b, |x| x % modulus == 0, |x| got.push(x));
            assert_eq!(got, expect, "{kind:?} mod {modulus}");
        }
    }
}

/// SIMD ⇄ scalar differential oracle: on every strategy and every
/// operand shape, the AVX2 path must emit the same elements in the same
/// order as the scalar path *and* produce a bit-identical `WarpStats`
/// (batches, probes, emissions, per-strategy counters, bytes model).
/// Only on a non-AVX2 host or under `TDFS_NO_SIMD` do both warps take
/// the scalar path, where the comparison is trivially green.
#[test]
fn simd_path_matches_scalar_oracle_on_all_shapes() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x51D0 + case);
        let (a, b) = random_shaped_pair(&mut rng, case);
        for kind in KINDS {
            let mut scalar = WarpOps::with_simd(false);
            let mut simd = WarpOps::with_simd(true);
            let mut out_scalar = Vec::new();
            let mut out_simd = Vec::new();
            scalar.intersect_with(kind, &a, &b, |x| out_scalar.push(x));
            simd.intersect_with(kind, &a, &b, |x| out_simd.push(x));
            assert_eq!(out_scalar, out_simd, "{kind:?} shape {}", case % 4);
            assert_eq!(scalar.stats, simd.stats, "{kind:?} shape {}", case % 4);
        }
        // Adaptive dispatch too: same kernel choice, same everything.
        let mut scalar = WarpOps::with_simd(false);
        let mut simd = WarpOps::with_simd(true);
        let mut out_scalar = Vec::new();
        let mut out_simd = Vec::new();
        scalar.intersect(&a, &b, |x| out_scalar.push(x));
        simd.intersect(&a, &b, |x| out_simd.push(x));
        assert_eq!(out_scalar, out_simd);
        assert_eq!(scalar.stats, simd.stats);
    }
}

/// The fused-predicate entry point through the same differential lens:
/// the `keep` closure must see the same surviving elements in the same
/// order on both paths (it can be stateful, so call order is part of
/// the contract).
#[test]
fn simd_filtered_path_matches_scalar_oracle() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x51D1 + case);
        let (a, b) = random_shaped_pair(&mut rng, case);
        let modulus = rng.gen_range_u32(1..7);
        for kind in KINDS {
            let mut scalar = WarpOps::with_simd(false);
            let mut simd = WarpOps::with_simd(true);
            let mut seen_scalar = Vec::new();
            let mut seen_simd = Vec::new();
            let mut out_scalar = Vec::new();
            let mut out_simd = Vec::new();
            scalar.intersect_filtered_with(
                kind,
                &a,
                &b,
                |x| {
                    seen_scalar.push(x);
                    x % modulus == 0
                },
                |x| out_scalar.push(x),
            );
            simd.intersect_filtered_with(
                kind,
                &a,
                &b,
                |x| {
                    seen_simd.push(x);
                    x % modulus == 0
                },
                |x| out_simd.push(x),
            );
            assert_eq!(out_scalar, out_simd, "{kind:?} mod {modulus}");
            assert_eq!(seen_scalar, seen_simd, "{kind:?} keep-call order");
            assert_eq!(scalar.stats, simd.stats, "{kind:?} mod {modulus}");
        }
    }
}

#[test]
fn warp_filter_is_order_preserving_filter() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xF117 + case);
        let n = rng.gen_range(0..200);
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range_u32(0..1000)).collect();
        let modulus = rng.gen_range_u32(1..7);
        let mut w = WarpOps::new();
        let mut got = Vec::new();
        w.filter(&a, |x| x % modulus == 0, |x| got.push(x));
        let expect: Vec<u32> = a.iter().copied().filter(|x| x % modulus == 0).collect();
        assert_eq!(got, expect);
    }
}
