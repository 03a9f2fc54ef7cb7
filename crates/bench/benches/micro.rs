//! Micro-benchmarks for the substrates: lock-free queue throughput,
//! warp intersection kernels, and paged vs array stack access. Uses the
//! workspace's internal harness (no external crates).

use std::sync::Arc;

use tdfs_bench::harness::{bench, bench_median, JsonReport};
use tdfs_core::config::MatcherConfig;
use tdfs_core::match_pattern;
use tdfs_gpu::queue::{Task, TaskQueue};
use tdfs_gpu::warp::{IntersectKind, WarpOps};
use tdfs_graph::generators::barabasi_albert;
use tdfs_mem::{ArrayLevel, LevelStore, OverflowPolicy, PageArena, PagedLevel};
use tdfs_query::PatternId;

/// Machine-readable output consumed by CHANGES.md / CI diffing.
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_intersect.json");

fn bench_queue() {
    println!("-- task_queue --");
    let q = TaskQueue::new(1024);
    bench("enqueue_dequeue_single", || {
        q.enqueue(Task::triple(1, 2, 3));
        q.dequeue().unwrap()
    });
    for threads in [2usize, 4] {
        // Fixed-iteration contended ping-pong, timed as one unit.
        bench(&format!("contended_pingpong/{threads}"), || {
            let q = Arc::new(TaskQueue::new(4096));
            let per = 2_000u64;
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let q = q.clone();
                    s.spawn(move || {
                        for i in 0..per {
                            while !q.enqueue(Task::triple(i as u32, 0, 0)) {
                                std::hint::spin_loop();
                            }
                            while q.dequeue().is_none() {
                                std::hint::spin_loop();
                            }
                        }
                    });
                }
            });
        });
    }
}

fn bench_intersection() {
    println!("-- warp_intersect --");
    for size in [64usize, 1024, 16384] {
        let a: Vec<u32> = (0..size as u32).map(|x| x * 2).collect();
        let b_list: Vec<u32> = (0..size as u32).map(|x| x * 3).collect();
        let mut w = WarpOps::new();
        let mut out = Vec::with_capacity(size);
        bench(&format!("warp_32lane/{size}"), || {
            out.clear();
            w.intersect(&a, &b_list, |x| out.push(x));
            out.len()
        });
        let mut out2 = Vec::with_capacity(size);
        bench(&format!("scalar_merge/{size}"), || {
            out2.clear();
            tdfs_graph::intersect::intersect_merge(&a, &b_list, &mut out2);
            out2.len()
        });
    }
}

/// Spread operand pair with partial overlap: B is every third value of
/// a shared universe, A probes `a_len` evenly spaced points of it — so
/// roughly a third of the probes hit, at any size ratio. Worst case for
/// probe locality (maximal gap between consecutive landing points).
fn spread_pair(a_len: usize, b_len: usize) -> (Vec<u32>, Vec<u32>) {
    let universe = (b_len * 3) as u32;
    let b: Vec<u32> = (0..b_len as u32).map(|i| i * 3).collect();
    let a: Vec<u32> = (0..a_len as u32)
        .map(|i| i * (universe / a_len as u32))
        .collect();
    (a, b)
}

/// Clustered operand pair: A is a dense run in the middle of B — the
/// locality Eq. (1) operands tend to have, since candidate sets cluster
/// in shared neighborhoods. Best case for cursor-carrying kernels.
fn clustered_pair(a_len: usize, b_len: usize) -> (Vec<u32>, Vec<u32>) {
    let b: Vec<u32> = (0..b_len as u32).map(|i| i * 3).collect();
    let start = (b_len as u32) * 3 / 2;
    let a: Vec<u32> = (0..a_len as u32).map(|i| start + i * 3).collect();
    (a, b)
}

fn bench_adaptive_intersection(report: &mut JsonReport) {
    println!("-- adaptive_intersect --");
    // The heuristic's three regimes — merge (1:1), binary search
    // (middle band), gallop (1:1024) — on both probe-locality shapes.
    // The pinned-bsearch column is the pre-adaptive fixed kernel the
    // selection has to beat on the skewed shapes.
    //
    // Each cell reports three axes: `_ns` (scalar lanes, the oracle),
    // `_simd_ns` (AVX2 lanes, when `simd::available()`), and
    // `_bytes_per_match` (the deterministic memory-traffic model, which
    // must be identical on both paths — asserted below).
    let simd_on = tdfs_gpu::simd::available();
    type PairFn = fn(usize, usize) -> (Vec<u32>, Vec<u32>);
    let shapes: [(&str, PairFn); 2] = [("spread", spread_pair), ("clustered", clustered_pair)];
    let mut guard_speedups: Vec<f64> = Vec::new();
    for (ratio, a_len, b_len) in [
        ("1:1", 4096, 4096),
        ("1:32", 512, 16384),
        ("1:1024", 64, 65536),
    ] {
        for (shape, mk) in shapes {
            let (a, b) = mk(a_len, b_len);
            let kinds: [(&str, Option<IntersectKind>); 4] = [
                ("adaptive", None),
                ("merge", Some(IntersectKind::Merge)),
                ("bsearch", Some(IntersectKind::BinarySearch)),
                ("gallop", Some(IntersectKind::Gallop)),
            ];
            for (kname, kind) in kinds {
                let run = |w: &mut WarpOps| {
                    let mut n = 0u32;
                    match kind {
                        None => w.intersect(&a, &b, |_| n += 1),
                        Some(k) => w.intersect_with(k, &a, &b, |_| n += 1),
                    }
                    n
                };
                // Scalar lanes (pinned off so `_ns` stays the oracle
                // baseline whatever the host supports).
                let mut w = WarpOps::with_simd(false);
                let median = bench_median(&format!("intersect/{ratio}/{shape}/{kname}"), || {
                    run(&mut w)
                });
                report.record(&format!("intersect/{ratio}/{shape}/{kname}_ns"), median);

                // Memory-traffic axis: modeled bytes per emitted match,
                // from one clean stats run.
                let mut ws = WarpOps::with_simd(false);
                let matched = run(&mut ws) as u64;
                let scalar_bytes = ws.stats.bytes_touched;
                report.record(
                    &format!("intersect/{ratio}/{shape}/{kname}_bytes_per_match"),
                    scalar_bytes as f64 / matched.max(1) as f64,
                );

                if simd_on {
                    let mut wv = WarpOps::with_simd(true);
                    let simd_median =
                        bench_median(&format!("intersect/{ratio}/{shape}/{kname}_simd"), || {
                            run(&mut wv)
                        });
                    report.record(
                        &format!("intersect/{ratio}/{shape}/{kname}_simd_ns"),
                        simd_median,
                    );
                    // Bytes-touched must never regress on the vector
                    // path — the model makes the two paths bit-equal,
                    // so any drift is a kernel accounting bug.
                    let mut wvs = WarpOps::with_simd(true);
                    let simd_matched = run(&mut wvs) as u64;
                    assert_eq!(simd_matched, matched, "{ratio}/{shape}/{kname} output");
                    assert_eq!(
                        wvs.stats.bytes_touched, scalar_bytes,
                        "{ratio}/{shape}/{kname}: SIMD path regressed bytes-touched"
                    );
                    if kname == "adaptive" && ratio != "1:1024" {
                        guard_speedups.push(median / simd_median);
                    }
                }
            }
        }
    }
    if simd_on {
        // CI guard: the vector lanes must hold a ≥ 1.5× geomean over
        // the scalar oracle on the 1:1 and 1:32 adaptive cells (both
        // shapes). Enforced only under TDFS_BENCH_GUARD=1, like the
        // other bench guards, and only when the AVX2 lanes are available.
        let geomean = (guard_speedups.iter().map(|s| s.ln()).sum::<f64>()
            / guard_speedups.len() as f64)
            .exp();
        report.record("intersect/simd_speedup_geomean", geomean);
        println!("simd speedup geomean (1:1, 1:32): {geomean:.2}x");
        if std::env::var_os("TDFS_BENCH_GUARD").is_some() {
            assert!(
                geomean >= 1.5,
                "SIMD guard: geomean speedup {geomean:.2}x < 1.5x over scalar \
                 on the 1:1 and 1:32 shapes"
            );
        }
    }
}

fn bench_leaf_fusion(report: &mut JsonReport) {
    println!("-- leaf_fusion --");
    // Clique counting on a scale-free graph is leaf-dominated: the fused
    // leaf consumes the deepest-level candidates in the lanes instead of
    // materializing them onto `stack[k-1]`.
    let g = barabasi_albert(300, 6, 77);
    for (pname, id) in [("k4", 2u8), ("k5", 7u8)] {
        let p = PatternId(id).pattern();
        for fused in [true, false] {
            let cfg = MatcherConfig::tdfs().with_warps(2).with_fused_leaf(fused);
            let mode = if fused { "fused" } else { "unfused" };
            let median = bench_median(&format!("leaf_fusion/{pname}/{mode}"), || {
                match_pattern(&g, &p, &cfg).unwrap().matches
            });
            report.record(&format!("leaf_fusion/{pname}/{mode}_ns"), median);
            let r = match_pattern(&g, &p, &cfg).unwrap();
            report.record(
                &format!("leaf_fusion/{pname}/{mode}_elements_emitted"),
                r.stats.warp.elements_emitted as f64,
            );
            report.record(
                &format!("leaf_fusion/{pname}/{mode}_stack_bytes_peak"),
                r.stats.stack_bytes_peak as f64,
            );
        }
    }
}

fn bench_stacks() {
    println!("-- stack_level --");
    const N: usize = 8192;
    let mut lvl = ArrayLevel::new(N, OverflowPolicy::Error);
    bench("array_push_read", || {
        lvl.clear();
        for v in 0..N as u32 {
            lvl.push(v).unwrap();
        }
        let mut sum = 0u64;
        for i in 0..N {
            sum += lvl.get(i) as u64;
        }
        sum
    });
    let arena = Arc::new(PageArena::new(64));
    let mut plvl = PagedLevel::with_table_len(arena, 8);
    bench("paged_push_read", || {
        plvl.clear();
        for v in 0..N as u32 {
            plvl.push(v).unwrap();
        }
        let mut sum = 0u64;
        for i in 0..N {
            sum += plvl.get(i) as u64;
        }
        sum
    });
}

fn main() {
    let mut report = JsonReport::new();
    bench_queue();
    bench_intersection();
    bench_adaptive_intersection(&mut report);
    bench_leaf_fusion(&mut report);
    bench_stacks();
    report.write(REPORT_PATH).expect("write bench report");
    println!("report written to {REPORT_PATH}");
}
