//! The layer ledger: one command measures what the paper's figures do
//! not (lane kernels, fused leaf, batch-dynamic maintenance, mmap tier,
//! overload governor, cluster), one function per layer, and records
//! every figure as one row of one `BENCH.json`.
//!
//! ```sh
//! cargo bench -p tdfs-bench --bench ledger                     # full tier
//! TDFS_BENCH_SMOKE=1 cargo bench -p tdfs-bench --bench ledger  # smoke tier
//! ```
//!
//! The full tier rewrites `BENCH.json` at the repository root, then
//! checks every bound and exits non-zero naming each violated row. The
//! smoke tier runs the same cells and correctness asserts on shrunken
//! timing budgets, writes under the target directory and checks no bound.

use std::sync::Arc;
use std::time::Duration;

use tdfs_bench::harness::{geomean, Ledger};
use tdfs_cluster::{ClusterConfig, Coordinator, NodeConfig, NodeHandle};
use tdfs_core::{match_pattern, reference_count, MatcherConfig};
use tdfs_gpu::queue::{Task, TaskQueue};
use tdfs_gpu::warp::{IntersectKind, WarpOps};
use tdfs_graph::generators::{barabasi_albert, rmat};
use tdfs_graph::io::{read_edge_list_file, write_edge_list_file};
use tdfs_graph::rng::Rng;
use tdfs_graph::{write_container_file, CsrGraph, DatasetId, DeltaCsr, EdgeBatch, GraphView};
use tdfs_graph::{MapOptions, MmapGraph, Verify};
use tdfs_mem::{ArrayLevel, LevelStore, OverflowPolicy, PageArena, PagedLevel};
use tdfs_query::plan::QueryPlan;
use tdfs_query::{Pattern, PatternId};
use tdfs_service::{BreakerConfig, GovernorConfig, QueryRequest, Service, ServiceConfig};
use tdfs_service::{ShedPolicy, StandingRequest};

fn main() {
    let smoke = tdfs_bench::smoke();
    let mut ledger = Ledger::new(smoke);
    let layers = [
        ("kernel", kernel as fn(&mut Ledger)),
        ("engine", engine),
        ("dynamic", dynamic),
        ("storage", storage),
        ("service", service),
        ("cluster", cluster),
    ];
    for (layer, run) in layers {
        ledger.layer = layer;
        run(&mut ledger);
    }
    let path = if smoke {
        concat!(env!("CARGO_TARGET_TMPDIR"), "/BENCH.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json")
    };
    let violated = ledger.finish(path.as_ref()).expect("write BENCH.json");
    println!("ledger written to {path}");
    for row in &violated {
        eprintln!("bound violated: {row}");
    }
    if !violated.is_empty() {
        std::process::exit(1);
    }
}

/// One arm of an A/B pair: its name and a counting run of a workload.
type Arm<'a> = (&'a str, &'a dyn Fn(&Pattern) -> u64);

/// The overhead of the second arm over the first, one cell per workload:
/// warms both arms (which ships whatever a first run ships) and pins
/// exactness before timing anything, records both medians (their
/// samples alternated) and their ratio, bounded by `per_workload`, then
/// the ratios' geomean, bounded by `all`.
fn ab_overhead(
    ledger: &mut Ledger,
    prefix: &str,
    workloads: &[(&str, Pattern)],
    [(base, run_base), (arm, run_arm)]: [Arm<'_>; 2],
    (per_workload, all): (f64, f64),
) {
    let mut ratios = Vec::new();
    for (name, pattern) in workloads {
        let cell = format!("{prefix}/{name}");
        let (a, b) = (run_base(pattern), run_arm(pattern));
        assert_eq!(a, b, "{cell}: {arm} and {base} counts must agree");

        let metrics = [&*format!("{base}_ns"), &*format!("{arm}_ns")];
        let (base_ns, arm_ns) =
            ledger.time_pair(&cell, metrics, || run_base(pattern), || run_arm(pattern));
        let ratio = arm_ns / base_ns;
        ledger
            .row(&cell, "overhead_ratio", "ratio", ratio)
            .below(per_workload);
        ratios.push(ratio);
    }
    let geomean = geomean(&ratios);
    ledger
        .row(prefix, "overhead_geomean", "ratio", geomean)
        .below(all);
}

/// Kernel layer: lock-free queue throughput, warp intersection kernels
/// (scalar and AVX2 lanes, with the modeled bytes touched), and paged
/// vs array stack access.
fn kernel(ledger: &mut Ledger) {
    bench_queue(ledger);
    bench_intersection(ledger);
    bench_adaptive_intersection(ledger);
    bench_stacks(ledger);
}

fn bench_queue(ledger: &mut Ledger) {
    let q = TaskQueue::new(1024);
    ledger.time("task_queue", "enqueue_dequeue_single_ns", || {
        q.enqueue(Task::triple(1, 2, 3));
        q.dequeue().unwrap()
    });
    for threads in [2usize, 4] {
        // Fixed-iteration contended ping-pong, timed as one unit.
        let metric = format!("contended_pingpong_{threads}_ns");
        ledger.time("task_queue", &metric, || {
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

fn bench_intersection(ledger: &mut Ledger) {
    for size in [64usize, 1024, 16384] {
        let cell = format!("warp_intersect/{size}");
        let a: Vec<u32> = (0..size as u32).map(|x| x * 2).collect();
        let b_list: Vec<u32> = (0..size as u32).map(|x| x * 3).collect();
        let mut w = WarpOps::new();
        let mut out = Vec::with_capacity(size);
        ledger.time(&cell, "warp_32lane_ns", || {
            out.clear();
            w.intersect(&a, &b_list, |x| out.push(x));
            out.len()
        });
        let mut out2 = Vec::with_capacity(size);
        ledger.time(&cell, "scalar_merge_ns", || {
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

fn bench_adaptive_intersection(ledger: &mut Ledger) {
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
            let cell = format!("intersect/{ratio}/{shape}");
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
                let median = ledger.time(&cell, &format!("{kname}_ns"), || run(&mut w));

                // Memory-traffic axis: modeled bytes per emitted match,
                // from one clean stats run.
                let mut ws = WarpOps::with_simd(false);
                let matched = run(&mut ws) as u64;
                let scalar_bytes = ws.stats.bytes_touched;
                let per_match = scalar_bytes as f64 / matched.max(1) as f64;
                ledger.row(
                    &cell,
                    &format!("{kname}_bytes_per_match"),
                    "bytes",
                    per_match,
                );

                if simd_on {
                    let mut wv = WarpOps::with_simd(true);
                    let simd_median =
                        ledger.time(&cell, &format!("{kname}_simd_ns"), || run(&mut wv));
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
        // Guard: the vector lanes must hold a ≥ 1.5× geomean over the
        // scalar oracle on the 1:1 and 1:32 adaptive cells (both
        // shapes), on a host where the AVX2 lanes are available.
        let geomean = geomean(&guard_speedups);
        ledger
            .row("intersect", "simd_speedup_geomean", "x", geomean)
            .at_least(1.5);
    }
}

fn bench_stacks(ledger: &mut Ledger) {
    const N: usize = 8192;
    let mut lvl = ArrayLevel::new(N, OverflowPolicy::Error);
    ledger.time("stack_level", "array_push_read_ns", || {
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
    ledger.time("stack_level", "paged_push_read_ns", || {
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

/// Engine layer: the fused leaf against the materialized last level,
/// and the lane probes of one-warp counts.
fn engine(ledger: &mut Ledger) {
    // Clique counting on a scale-free graph is leaf-dominated: the fused
    // leaf consumes the deepest-level candidates in the lanes instead of
    // materializing them onto `stack[k-1]`.
    let g = barabasi_albert(300, 6, 77);
    for (pname, id) in [("k4", 2u8), ("k5", 7u8)] {
        let cell = format!("leaf_fusion/{pname}");
        let p = PatternId(id).pattern();
        for fused in [true, false] {
            let cfg = MatcherConfig::tdfs().with_warps(2).with_fused_leaf(fused);
            let mode = if fused { "fused" } else { "unfused" };
            ledger.time(&cell, &format!("{mode}_ns"), || {
                match_pattern(&g, &p, &cfg).unwrap().matches
            });
            let r = match_pattern(&g, &p, &cfg).unwrap();
            let emitted = r.stats.warp.elements_emitted as f64;
            ledger.row(&cell, &format!("{mode}_elements_emitted"), "count", emitted);
            let peak = r.stats.stack_bytes_peak as f64;
            ledger.row(&cell, &format!("{mode}_stack_bytes_peak"), "bytes", peak);
        }
    }

    // Lane probes of one-warp, τ = ∞ counts repeat exactly on any host.
    // Each bound sits just above what this tree probes with each walk's
    // first operand cut to its level's symmetry interval, so a change
    // that gives up a cut fails the full tier.
    let cfg = MatcherConfig::tdfs().with_warps(1).with_tau(None);
    let youtube = DatasetId::YoutubeS.generate(1.0);
    for (id, bound) in PROBES_YOUTUBE {
        let p = PatternId(id).pattern();
        let r = match_pattern(&youtube, &p, &cfg).unwrap();
        let cell = format!("probes/youtube_s/P{id}");
        let probed = r.stats.warp.elements_probed as f64;
        ledger
            .row(&cell, "elements_probed", "count", probed)
            .below(bound);
    }
    let base = Arc::new(barabasi_albert(3000, 6, 13));
    let mut view = DeltaCsr::from_base(base.clone());
    for batch in churn_batches(&base, &mut Rng::seed_from_u64(1), CHURN_WINDOW) {
        view = view.apply(&EdgeBatch::inserting(batch)).unwrap().0;
    }
    for (name, p, bound) in [
        ("k3", Pattern::clique(3), PROBES_CHURN[0]),
        ("c4", Pattern::cycle(4), PROBES_CHURN[1]),
    ] {
        let r = match_pattern(&view, &p, &cfg).unwrap();
        let cell = format!("probes/churn_view/{name}");
        let probed = r.stats.warp.elements_probed as f64;
        ledger
            .row(&cell, "elements_probed", "count", probed)
            .below(bound);
    }
}

/// `(pattern, bound)`: one-warp lane probes on `youtube_s`, each bound
/// about 0.5 % above this tree's count (136,490, 1,021,869, 283,807 and
/// 197,457; without the cuts 171,467, 1,686,971, 447,798 and 415,446).
const PROBES_YOUTUBE: [(u8, f64); 4] = [
    (1, 137_200.0),
    (4, 1_027_000.0),
    (5, 285_300.0),
    (10, 198_500.0),
];
/// Bounds on one-warp lane probes of K3 and the 4-cycle on the churn
/// view: this tree probes 100,207 and 1,502,843 (214,530 and 2,585,146
/// without the cuts).
const PROBES_CHURN: [f64; 2] = [100_800.0, 1_510_000.0];

/// Inserted batches a churn view holds: the delete window of
/// perfbench's `standing_churn`.
const CHURN_WINDOW: usize = 8;
/// Edges per churn batch.
const CHURN_BATCH: usize = 40;

/// `count` batches of `CHURN_BATCH` new edges of `base`, each between
/// two endpoints drawn by degree (the sources of uniform arcs), the
/// batches `standing_churn` inserts.
fn churn_batches(base: &CsrGraph, rng: &mut Rng, count: usize) -> Vec<Vec<(u32, u32)>> {
    let mut live: std::collections::HashSet<(u32, u32)> =
        base.arcs().filter(|&(u, v)| u < v).collect();
    (0..count)
        .map(|_| {
            let mut batch = Vec::with_capacity(CHURN_BATCH);
            while batch.len() < CHURN_BATCH {
                let (u, _) = base.arc(rng.gen_range(0..base.num_arcs()));
                let (v, _) = base.arc(rng.gen_range(0..base.num_arcs()));
                let e = (u.min(v), u.max(v));
                if u != v && live.insert(e) {
                    batch.push(e);
                }
            }
            batch
        })
        .collect()
}

/// Hard bound: incremental maintenance at <= 1% churn must beat a full
/// rescan by at least this factor.
const MIN_SPEEDUP_AT_1PCT: f64 = 5.0;

/// Distinct base edges to toggle per churn level, as a fraction of the
/// graph's undirected edge count.
const CHURN: &[(&str, f64)] = &[("0.1pct", 0.001), ("1pct", 0.01), ("5pct", 0.05)];

/// `count` distinct base edges, deterministically sampled.
fn sample_edges(view: &DeltaCsr, rng: &mut Rng, count: usize) -> Vec<(u32, u32)> {
    let edges: Vec<(u32, u32)> = view.arcs().filter(|&(u, v)| u < v).collect();
    let mut picked = Vec::with_capacity(count);
    let mut used = std::collections::HashSet::new();
    while picked.len() < count.min(edges.len()) {
        let e = edges[rng.gen_range(0..edges.len())];
        if used.insert(e) {
            picked.push(e);
        }
    }
    picked
}

/// Dynamic layer: incremental standing-query deltas versus a full
/// rescan of the mutated graph, across churn rates, a 4-cycle
/// subscriber's maintenance count-only against with embeddings, an
/// apply under a K3 and a 4-cycle subscriber on a churn view, plus
/// raw `DeltaCsr` apply/compact throughput. The incremental path must
/// win by >= 5x at 1% churn — the whole point of delta-anchored
/// maintenance is that work scales with the batch, not the graph.
fn dynamic(ledger: &mut Ledger) {
    let base = Arc::new(barabasi_albert(3000, 6, 13));
    let undirected = base.num_arcs() / 2;
    let pattern = Pattern::clique(3);
    let plan = QueryPlan::build_with(&pattern, Default::default());

    let svc = Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        plan_cache_capacity: 16,
        ..ServiceConfig::default()
    });
    svc.register_graph("ba", base.clone());
    svc.register_standing(
        StandingRequest::new("ba", pattern.clone())
            .with_config(MatcherConfig::tdfs().with_warps(2)),
        |_| {},
    )
    .unwrap();

    for (metric, n) in [
        ("graph_vertices", base.num_vertices()),
        ("graph_edges", undirected),
    ] {
        ledger.row("delta", metric, "count", n as f64);
    }

    let mut rng = Rng::seed_from_u64(0xBA7C4);
    for &(label, frac) in CHURN {
        let cell = format!("delta/{label}");
        let batch_edges = ((undirected as f64 * frac) as usize).max(1);
        let toggled = sample_edges(&svc.catalog().get("ba").unwrap(), &mut rng, batch_edges);
        let fwd = EdgeBatch::deleting(toggled.iter().copied());
        let bwd = EdgeBatch::inserting(toggled.iter().copied());

        // Incremental arm: one forward + one backward apply restores the
        // logical graph, so the closure is repeatable; each apply runs
        // the full standing-maintenance path (anchored, attributed
        // enumeration and notification). Report per-apply cost.
        let inc_ns = ledger.measure(|| {
            svc.apply("ba", &fwd).unwrap();
            svc.apply("ba", &bwd).unwrap();
        }) / 2.0;

        // Full-rescan arm: what a non-incremental system pays per batch —
        // recount the pattern on the committed view.
        let view = svc.catalog().get("ba").unwrap();
        let full_ns = ledger.time(&cell, "full_rescan_ns", || reference_count(&*view, &plan));

        ledger.row(&cell, "batch_edges", "count", batch_edges as f64);
        ledger.row(&cell, "incremental_ns", "ns", inc_ns);
        let row = ledger.row(&cell, "speedup", "x", full_ns / inc_ns);
        if label == "1pct" {
            row.at_least(MIN_SPEEDUP_AT_1PCT);
        }
    }

    // A 4-cycle subscriber, count-only on one service and with
    // embeddings on another, timed sample by sample on the same 1% batch:
    // a count-only pass is a plain engine count, and only embeddings pay
    // for the canonicalizing dedup set.
    let batch_edges = ((undirected as f64 * 0.01) as usize).max(1);
    let toggled = sample_edges(&DeltaCsr::from_base(base.clone()), &mut rng, batch_edges);
    let fwd = EdgeBatch::deleting(toggled.iter().copied());
    let bwd = EdgeBatch::inserting(toggled.iter().copied());
    let arms = [false, true].map(|embeddings| {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            plan_cache_capacity: 16,
            ..ServiceConfig::default()
        });
        svc.register_graph("ba", base.clone());
        let mut request = StandingRequest::new("ba", Pattern::cycle(4))
            .with_config(MatcherConfig::tdfs().with_warps(2));
        if embeddings {
            request = request.with_embeddings();
        }
        let last = Arc::new(std::sync::Mutex::new(None));
        let seen = last.clone();
        svc.register_standing(request, move |d| {
            let listed = d.removed_embeddings.as_ref().map(Vec::len);
            *seen.lock().unwrap() = Some((d.added, d.removed, listed));
        })
        .unwrap();
        svc.apply("ba", &fwd).unwrap();
        let delta = last.lock().unwrap().take().expect("one delta per apply");
        svc.apply("ba", &bwd).unwrap();
        (svc, delta)
    });
    let [(count_only, (added, removed, _)), (embedding, with)] = arms;
    assert_eq!(
        (added, removed, Some(removed as usize)),
        with,
        "the arms' deltas agree"
    );
    let round = |svc: &Service| {
        svc.apply("ba", &fwd).unwrap();
        svc.apply("ba", &bwd).unwrap();
    };
    let (count_ns, embed_ns) = ledger.measure_pair(|| round(&count_only), || round(&embedding));
    let cell = "delta/c4_1pct";
    ledger.row(cell, "batch_edges", "count", batch_edges as f64);
    ledger.row(cell, "removed_per_batch", "count", removed as f64);
    ledger.row(cell, "count_only_ns", "ns", count_ns / 2.0);
    ledger.row(cell, "embeddings_ns", "ns", embed_ns / 2.0);
    ledger.row(cell, "embeddings_over_count", "ratio", embed_ns / count_ns);
    count_only.shutdown();
    embedding.shutdown();

    // One churn-sized batch applied, then deleted again, under a K3 and a
    // 4-cycle subscriber, on a view that holds a delete window of
    // earlier batches: the write path of perfbench's `standing_churn`.
    let churn = Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        plan_cache_capacity: 16,
        ..ServiceConfig::default()
    });
    churn.register_graph("ba", base.clone());
    for pattern in [Pattern::clique(3), Pattern::cycle(4)] {
        let request =
            StandingRequest::new("ba", pattern).with_config(MatcherConfig::tdfs().with_warps(2));
        churn.register_standing(request, |_| {}).unwrap();
    }
    let mut batches = churn_batches(&base, &mut rng, CHURN_WINDOW + 1);
    let timed = batches.pop().expect("one batch past the window");
    for batch in batches {
        churn.apply("ba", &EdgeBatch::inserting(batch)).unwrap();
    }
    let fwd = EdgeBatch::inserting(timed.iter().copied());
    let bwd = EdgeBatch::deleting(timed.iter().copied());
    let apply_ns = ledger.measure(|| {
        churn.apply("ba", &fwd).unwrap();
        churn.apply("ba", &bwd).unwrap();
    }) / 2.0;
    let cell = "delta/churn_k3_c4";
    ledger.row(cell, "batch_edges", "count", CHURN_BATCH as f64);
    ledger.row(cell, "apply_ns", "ns", apply_ns);
    churn.shutdown();

    // Raw structural throughput, no service in the loop: cost of the
    // copy-on-write apply itself, and of folding the overlay back into
    // a fresh CSR.
    let d0 = DeltaCsr::from_base(base.clone());
    let toggled = sample_edges(&d0, &mut rng, 256);
    let batch = EdgeBatch::deleting(toggled.iter().copied());
    let apply_ns = ledger.time("delta", "apply_256_edges_ns", || {
        d0.apply(&batch).unwrap().0.version()
    });
    let apply_meps = 256.0 / (apply_ns / 1e9) / 1e6;
    ledger.row("delta", "apply_edges_per_sec_m", "M edges/s", apply_meps);

    let (dirty, _) = d0.apply(&batch).unwrap();
    let compact_ns = ledger.time("delta", "compact_256_dirty_ns", || {
        dirty.compact().version()
    });
    let meps = undirected as f64 / (compact_ns / 1e9) / 1e6;
    ledger.row("delta", "compact_edges_per_sec_m", "M edges/s", meps);
    svc.shutdown();
}

/// Cold load: container open must beat the text parse by at least this.
const MIN_COLD_LOAD_SPEEDUP: f64 = 10.0;
/// Warm query: the mapped path may cost at most this much over heap.
const MAX_QUERY_OVERHEAD: f64 = 0.15;

/// Storage layer: loading a graph from its `TDFSGRPH` container must be
/// dramatically cheaper than re-parsing the text edge list it came from
/// (the container maps and validates the header in O(1) and decodes
/// adjacency lazily), and serving queries *through* the mapped container
/// — varint decode, per-segment CRC, the budget-charged cache — must
/// stay close to the all-heap CSR.
fn storage(ledger: &mut Ledger) {
    let dir = tdfs_testkit::TempDir::new("tdfs-bench-storage").unwrap();
    let g = Arc::new(rmat(13, 12, [0.57, 0.19, 0.19, 0.05], 41));
    let txt = dir.path().join("g.txt");
    let bin = dir.path().join("g.tdfsgrph");
    write_edge_list_file(&g, &txt).unwrap();
    write_container_file(&*g, &bin).unwrap();

    for (metric, n) in [
        ("graph_vertices", g.num_vertices()),
        ("graph_arcs", g.num_arcs()),
    ] {
        ledger.row("storage", metric, "count", n as f64);
    }
    for (metric, path) in [("container_bytes", &bin), ("text_bytes", &txt)] {
        let bytes = std::fs::metadata(path).unwrap().len() as f64;
        ledger.row("storage", metric, "bytes", bytes);
    }

    // -- cold load: text parse vs container open ------------------------
    // The text arm rebuilds the CSR from scratch every iteration. The
    // guarded container arm is the CRC-verified open
    // ([`Verify::Checksums`]: header, directory, offsets and every
    // payload byte integrity-checked; row-shape validation deferred to
    // first decode) — the integrity level a catalog reopening containers
    // it wrote itself needs, and the load path the ≥10× claim is about.
    // The untrusted-input default ([`Verify::Full`], adds a validating
    // varint walk over every row) is recorded alongside for
    // transparency; it is O(arcs) by design and the service pays it once
    // per restart.
    let (parse_ns, checksums_ns) = ledger.time_pair(
        "storage/cold_load",
        ["text_parse_ns", "mmap_open_ns"],
        || read_edge_list_file(&txt).unwrap().num_arcs(),
        || {
            MmapGraph::open_with(
                &bin,
                &MapOptions {
                    verify: Verify::Checksums,
                    ..MapOptions::default()
                },
            )
            .unwrap()
            .num_arcs()
        },
    );
    let full_ns = ledger.time("storage/cold_load", "mmap_open_full_verify_ns", || {
        MmapGraph::open(&bin).unwrap().num_arcs()
    });
    let cold_speedup = parse_ns / checksums_ns;
    let full_speedup = parse_ns / full_ns;
    ledger
        .row("storage/cold_load", "speedup", "x", cold_speedup)
        .at_least(MIN_COLD_LOAD_SPEEDUP);
    ledger.row(
        "storage/cold_load",
        "full_verify_speedup",
        "x",
        full_speedup,
    );

    // -- warm query: heap CSR vs mapped container -----------------------
    // Default cache (64 MiB) holds the whole graph, so after the first
    // pass every read hits a decoded segment: this measures the steady
    // state a resident working set sees — slot lookup + slice return —
    // not decode thrash (the eviction path has its own tests).
    let pattern = Pattern::clique(3);
    let plan = QueryPlan::build_with(&pattern, Default::default());
    let mapped = MmapGraph::open(&bin).unwrap();
    let heap_count = reference_count(&*g, &plan);
    {
        let _scope = mapped.pin_scope();
        assert_eq!(reference_count(&mapped, &plan), heap_count);
    }
    // The arms' samples alternate, so a shift in host speed between them
    // does not read as overhead.
    let (heap_ns, mapped_ns) = ledger.time_pair(
        "storage/query",
        ["heap_ns", "mapped_ns"],
        || reference_count(&*g, &plan),
        || {
            let _scope = mapped.pin_scope();
            reference_count(&mapped, &plan)
        },
    );
    let overhead = mapped_ns / heap_ns - 1.0;
    ledger
        .row("storage/query", "overhead", "fraction", overhead)
        .below(MAX_QUERY_OVERHEAD);
}

/// Governed/stock bounds: per workload (looser: single medians are
/// noisier), and on the geometric mean.
const GOVERNOR_MAX_OVERHEAD: (f64, f64) = (1.15, 1.05);

fn governed_service(governed: bool) -> Service {
    let governor = if governed {
        GovernorConfig {
            // Ample budget: charging is live on every arena page, but
            // the high-water mark is never reached.
            memory_budget_pages: Some(1 << 20),
            shed_policy: ShedPolicy::Sojourn {
                target: Duration::from_secs(3600),
            },
            // Calibrated absurdly fast so no deadline is unmeetable.
            cost_per_ms: Some(u64::MAX),
            breaker: BreakerConfig {
                enabled: true,
                ..BreakerConfig::default()
            },
            ..GovernorConfig::default()
        }
    } else {
        GovernorConfig::default()
    };
    Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        plan_cache_capacity: 8,
        governor,
        ..ServiceConfig::default()
    })
}

/// Service layer: the overload governor's overhead. A service with every
/// governor mechanism armed (memory budget + scoped charging, cost gate,
/// sojourn shedding, circuit breaker, background governor thread) versus
/// a stock service, on an *unloaded* path where none of the mechanisms
/// ever trigger. The delta isolates the governor's steady-state cost:
/// per-page budget charging, admission-time gates, and breaker
/// bookkeeping.
fn service(ledger: &mut Ledger) {
    let g = Arc::new(barabasi_albert(1500, 6, 17));
    let stock = governed_service(false);
    let governed = governed_service(true);
    stock.register_graph("ba", g.clone());
    governed.register_graph("ba", g);
    let cfg = MatcherConfig::tdfs().with_warps(4);

    let run = |svc: &Service, pattern: &Pattern| {
        svc.submit(
            QueryRequest::new("ba", pattern.clone())
                .with_config(cfg.clone())
                .with_deadline(Duration::from_secs(3600)),
        )
        .unwrap()
        .wait()
        .result
        .unwrap()
        .matches
    };
    let house = Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]);
    let workloads = [("k4", Pattern::clique(4)), ("house", house)];
    let arms: [Arm; 2] = [
        ("stock", &|p| run(&stock, p)),
        ("governed", &|p| run(&governed, p)),
    ];
    ab_overhead(ledger, "overload", &workloads, arms, GOVERNOR_MAX_OVERHEAD);
    let m = governed.metrics();
    assert_eq!(m.suspends, 0, "unloaded path must never suspend");
    assert_eq!(m.queries_shed, 0, "unloaded path must never shed");
    assert_eq!(m.rejected_unmeetable + m.rejected_brownout, 0);
    stock.shutdown();
    governed.shutdown();
}

/// Cluster/local bounds: per workload (looser: single medians are
/// noisier), and on the geometric mean.
const CLUSTER_MAX_OVERHEAD: (f64, f64) = (1.25, 1.10);

fn cluster_service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        plan_cache_capacity: 8,
        ..ServiceConfig::default()
    }
}

/// Cluster layer: a 1-node cluster (coordinator + node over loopback TCP
/// — snapshot ship, polling, grants, wire acks) versus the same durable
/// query in-process. The node's service is configured identically to
/// the local arm, so the delta isolates the cluster layer: the wire
/// protocol, the poll cadence, and the coordinator's remote ledger.
fn cluster(ledger: &mut Ledger) {
    // Large enough that one query runs for tens of milliseconds: the
    // cluster's fixed per-query latency (snapshot ship plus one or two
    // 1 ms poll cycles) must amortize, as it would on real workloads.
    let g = Arc::new(barabasi_albert(12000, 8, 17));
    let cfg = MatcherConfig::tdfs().with_warps(4);

    // Local arm: the durable in-process path.
    let svc = Service::new(cluster_service_config());
    svc.register_graph("ba", g.clone());

    // Cluster arm: one coordinator, one node, same service config. The
    // container ships once at node join, before any measurement.
    let dir = tdfs_testkit::TempDir::new("tdfs-bench-cluster").unwrap();
    let coord = Coordinator::bind(
        "127.0.0.1:0",
        ClusterConfig {
            // No faults in a bench: a lease reaped mid-run would fence
            // the node's honest ack and re-execute the shard, measuring
            // recovery instead of overhead.
            lease_timeout: Duration::from_secs(300),
            wait_millis: 1,
            watchdog_interval: Duration::from_millis(5),
            read_timeout: Duration::from_millis(20),
            // Wide shards: each granted shard runs as a full service
            // sub-query on the node, so per-shard fixed cost amortizes
            // over more edges than the in-process default.
            shard_edges: 16384,
            ..ClusterConfig::default()
        },
    )
    .expect("bind coordinator");
    coord.register_graph("ba", 0, g).unwrap();
    let _node = NodeHandle::spawn(NodeConfig {
        service: cluster_service_config(),
        ..NodeConfig::new(coord.addr().to_string(), 1, dir.path())
    });

    let local = |pattern: &Pattern| {
        svc.submit(QueryRequest::new("ba", pattern.clone()).with_config(cfg.clone()))
            .unwrap()
            .wait()
            .result
            .unwrap()
            .matches
    };
    let remote = |pattern: &Pattern| {
        coord
            .start_query("ba", pattern.clone(), cfg.clone())
            .unwrap()
            .wait(Duration::from_secs(120))
            .unwrap()
    };
    let workloads = [("k4", Pattern::clique(4)), ("k5", Pattern::clique(5))];
    let arms: [Arm; 2] = [("local", &local), ("cluster", &remote)];
    ab_overhead(ledger, "cluster", &workloads, arms, CLUSTER_MAX_OVERHEAD);
    svc.shutdown();
}
