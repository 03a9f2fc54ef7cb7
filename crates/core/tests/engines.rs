//! Cross-engine correctness: every engine and every strategy must agree
//! with the serial reference matcher on every catalogue pattern, across
//! graph shapes, warp counts, timeout settings and failure injections.

use std::time::Duration;

use tdfs_core::config::{ArrayCapacity, MatcherConfig, StackConfig, Strategy};
use tdfs_core::{match_pattern, reference_count, run_multi_device};
use tdfs_graph::generators::{barabasi_albert, erdos_renyi, random_labels};
use tdfs_graph::CsrGraph;
use tdfs_mem::OverflowPolicy;
use tdfs_query::plan::{PlanOptions, QueryPlan};
use tdfs_query::PatternId;

fn small_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("ba", barabasi_albert(300, 4, 11)),
        ("er", erdos_renyi(300, 1200, 12)),
        ("ba_labeled", {
            let g = barabasi_albert(250, 5, 13);
            let n = g.num_vertices();
            g.with_labels(random_labels(n, 4, 14))
        }),
    ]
}

fn expected(g: &CsrGraph, id: PatternId, options: PlanOptions) -> u64 {
    let plan = QueryPlan::build_with(&id.pattern(), options);
    reference_count(g, &plan)
}

#[test]
fn tdfs_matches_reference_on_all_patterns() {
    for (name, g) in small_graphs() {
        for id in PatternId::all() {
            let cfg = MatcherConfig::tdfs().with_warps(4);
            let got = match_pattern(&g, &id.pattern(), &cfg).unwrap().matches;
            let want = expected(&g, id, cfg.plan);
            assert_eq!(got, want, "tdfs {} on {}", id.name(), name);
        }
    }
}

#[test]
fn no_steal_matches_reference() {
    let (_, g) = &small_graphs()[0];
    for id in [1u8, 2, 5, 8, 11] {
        let cfg = MatcherConfig::no_steal().with_warps(3);
        let got = match_pattern(g, &PatternId(id).pattern(), &cfg)
            .unwrap()
            .matches;
        assert_eq!(got, expected(g, PatternId(id), cfg.plan), "P{id}");
    }
}

#[test]
fn stmatch_model_matches_reference() {
    for (name, g) in small_graphs() {
        for id in [1u8, 2, 4, 8, 13, 19] {
            let cfg = MatcherConfig::stmatch_like().with_warps(4);
            let got = match_pattern(&g, &PatternId(id).pattern(), &cfg)
                .unwrap()
                .matches;
            assert_eq!(
                got,
                expected(&g, PatternId(id), cfg.plan),
                "stmatch P{id} on {name}"
            );
        }
    }
}

#[test]
fn egsm_model_counts_embeddings() {
    // EGSM lacks symmetry breaking, so it counts |Aut| × subgraphs. The
    // reference with the same plan options must agree exactly; the
    // symmetry-broken count must divide it by |Aut|.
    let (_, g) = &small_graphs()[0];
    for id in [1u8, 2, 8] {
        let p = PatternId(id).pattern();
        let cfg = MatcherConfig::egsm_like().with_warps(4);
        let got = match_pattern(g, &p, &cfg).unwrap().matches;
        let want = expected(g, PatternId(id), cfg.plan);
        assert_eq!(got, want, "egsm P{id}");
        let broken = expected(g, PatternId(id), PlanOptions::default());
        let aut = QueryPlan::build(&p).aut_size as u64;
        assert_eq!(got, broken * aut, "embedding identity P{id}");
    }
}

#[test]
fn pbe_model_matches_reference() {
    for (name, g) in small_graphs() {
        for id in [1u8, 2, 5, 8, 11] {
            let cfg = MatcherConfig::pbe_like().with_warps(4);
            let got = match_pattern(&g, &PatternId(id).pattern(), &cfg)
                .unwrap()
                .matches;
            assert_eq!(
                got,
                expected(&g, PatternId(id), cfg.plan),
                "pbe P{id} on {name}"
            );
        }
    }
}

#[test]
fn pbe_tiny_budget_forces_batches_and_stays_correct() {
    let g = barabasi_albert(200, 4, 21);
    let cfg = MatcherConfig {
        strategy: Strategy::Bfs { budget_bytes: 512 },
        ..MatcherConfig::pbe_like().with_warps(2)
    };
    let r = match_pattern(&g, &PatternId(5).pattern(), &cfg).unwrap();
    assert!(r.stats.bfs_batches > 2, "tiny budget must split batches");
    assert_eq!(r.matches, expected(&g, PatternId(5), cfg.plan));
}

#[test]
fn aggressive_timeout_decomposes_and_stays_correct() {
    let g = barabasi_albert(400, 5, 31);
    for id in [2u8, 5, 8] {
        let cfg = MatcherConfig::tdfs()
            .with_warps(4)
            .with_tau(Some(Duration::from_nanos(1)));
        let r = match_pattern(&g, &PatternId(id).pattern(), &cfg).unwrap();
        assert_eq!(r.matches, expected(&g, PatternId(id), cfg.plan), "P{id}");
        assert!(r.stats.timeouts_fired > 0, "P{id}: timeout must fire");
        assert!(r.stats.tasks_enqueued > 0, "P{id}: tasks must be enqueued");
        assert_eq!(
            r.stats.tasks_enqueued, r.stats.tasks_dequeued,
            "P{id}: every task processed"
        );
    }
}

#[test]
fn queue_full_fallback_is_correct() {
    // Capacity-1 queue with an instant timeout: enqueues constantly fail
    // and the engine must fall back to in-place processing.
    let g = barabasi_albert(300, 4, 41);
    let cfg = MatcherConfig {
        queue_capacity: 1,
        ..MatcherConfig::tdfs().with_warps(4)
    }
    .with_tau(Some(Duration::from_nanos(1)));
    let r = match_pattern(&g, &PatternId(5).pattern(), &cfg).unwrap();
    assert_eq!(r.matches, expected(&g, PatternId(5), cfg.plan));
    assert!(
        r.stats.queue_rejections > 0,
        "capacity-1 queue must reject enqueues"
    );
}

#[test]
fn new_kernel_tiny_threshold_is_correct() {
    let g = barabasi_albert(300, 5, 51);
    let cfg = MatcherConfig {
        strategy: Strategy::NewKernel {
            fanout_threshold: 4,
        },
        ..MatcherConfig::egsm_like().with_warps(2)
    };
    let r = match_pattern(&g, &PatternId(2).pattern(), &cfg).unwrap();
    assert_eq!(r.matches, expected(&g, PatternId(2), cfg.plan));
    assert!(r.stats.kernels_launched > 0, "child kernels must launch");
}

#[test]
fn half_steal_records_steals_on_skewed_input() {
    let g = barabasi_albert(500, 6, 61);
    let cfg = MatcherConfig::stmatch_like().with_warps(4);
    let r = match_pattern(&g, &PatternId(5).pattern(), &cfg).unwrap();
    assert_eq!(r.matches, expected(&g, PatternId(5), cfg.plan));
    // Steals are scheduling-dependent; just ensure the counter is wired.
    let _ = r.stats.steals;
}

#[test]
fn truncating_fixed_stack_undercounts() {
    // STMatch's fixed-capacity mode: with a capacity far below d_max the
    // count is wrong (the paper observed wrong results on skewed graphs).
    let g = barabasi_albert(400, 6, 71);
    assert!(g.max_degree() > 16);
    let correct = expected(&g, PatternId(2), PlanOptions::default());
    let cfg = MatcherConfig {
        stack: StackConfig::Array {
            capacity: ArrayCapacity::Fixed(8),
            policy: OverflowPolicy::Truncate,
        },
        ..MatcherConfig::tdfs().with_warps(2)
    };
    let r = match_pattern(&g, &PatternId(2).pattern(), &cfg).unwrap();
    assert!(r.stats.candidates_truncated > 0, "truncation must occur");
    assert_ne!(r.matches, correct, "truncated run must be wrong");
    assert!(r.matches < correct);
}

#[test]
fn erroring_fixed_stack_surfaces_failure() {
    let g = barabasi_albert(400, 6, 71);
    let cfg = MatcherConfig {
        stack: StackConfig::Array {
            capacity: ArrayCapacity::Fixed(8),
            policy: OverflowPolicy::Error,
        },
        ..MatcherConfig::tdfs().with_warps(2)
    };
    assert!(match_pattern(&g, &PatternId(2).pattern(), &cfg).is_err());
}

#[test]
fn multi_device_counts_match_single() {
    let g = barabasi_albert(400, 5, 81);
    let plan = QueryPlan::build(&PatternId(4).pattern());
    let cfg = MatcherConfig::tdfs().with_warps(2);
    let single = tdfs_core::match_plan(&g, &plan, &cfg).unwrap().matches;
    for devices in [2usize, 3, 4] {
        let multi = run_multi_device(&g, &plan, &cfg, devices).unwrap();
        assert_eq!(multi.matches, single, "{devices} devices");
        assert_eq!(multi.per_device.len(), devices);
    }
}

#[test]
fn counts_are_deterministic_across_runs_and_warp_counts() {
    let g = erdos_renyi(400, 2000, 91);
    let p = PatternId(3).pattern();
    let base = match_pattern(&g, &p, &MatcherConfig::tdfs().with_warps(1))
        .unwrap()
        .matches;
    for warps in [2usize, 4, 8] {
        for _ in 0..2 {
            let got = match_pattern(&g, &p, &MatcherConfig::tdfs().with_warps(warps))
                .unwrap()
                .matches;
            assert_eq!(got, base, "warps={warps}");
        }
    }
}

#[test]
fn hybrid_engine_through_public_api() {
    let g = barabasi_albert(300, 4, 111);
    for id in [1u8, 4, 8, 13] {
        let cfg = MatcherConfig::hybrid().with_warps(3);
        let got = match_pattern(&g, &PatternId(id).pattern(), &cfg)
            .unwrap()
            .matches;
        assert_eq!(got, expected(&g, PatternId(id), cfg.plan), "hybrid P{id}");
    }
    // Tiny budget hybrid = DFS; huge budget = BFS almost to the end.
    for budget in [0usize, usize::MAX] {
        let cfg = MatcherConfig {
            strategy: Strategy::Hybrid {
                budget_bytes: budget,
                tau: None,
            },
            ..MatcherConfig::tdfs().with_warps(2)
        };
        let got = match_pattern(&g, &PatternId(4).pattern(), &cfg)
            .unwrap()
            .matches;
        assert_eq!(got, expected(&g, PatternId(4), cfg.plan), "budget {budget}");
    }
}

#[test]
fn multi_device_labeled_counts_match() {
    let g = barabasi_albert(300, 4, 112);
    let n = g.num_vertices();
    let g = g.with_labels(random_labels(n, 4, 113));
    let plan = QueryPlan::build(&PatternId(14).pattern());
    let cfg = MatcherConfig::tdfs().with_warps(2);
    let single = tdfs_core::match_plan(&g, &plan, &cfg).unwrap().matches;
    let multi = run_multi_device(&g, &plan, &cfg, 3).unwrap();
    assert_eq!(multi.matches, single);
}

#[test]
fn empty_and_tiny_graphs() {
    let empty = tdfs_graph::GraphBuilder::new().num_vertices(10).build();
    assert_eq!(
        match_pattern(&empty, &PatternId(1).pattern(), &MatcherConfig::tdfs())
            .unwrap()
            .matches,
        0
    );
    // A single triangle has no diamond.
    let tri = tdfs_graph::GraphBuilder::new()
        .edges([(0, 1), (1, 2), (0, 2)])
        .build();
    assert_eq!(
        match_pattern(&tri, &PatternId(1).pattern(), &MatcherConfig::tdfs())
            .unwrap()
            .matches,
        0
    );
}

#[test]
fn fused_leaf_flag_preserves_counts_across_engines() {
    // Every engine preset must produce identical counts with the fused
    // leaf on (default) and off (paper-faithful materialize-then-consume
    // ablation path), and both must agree with the reference.
    type Preset = fn() -> MatcherConfig;
    let presets: [(&str, Preset); 5] = [
        ("tdfs", MatcherConfig::tdfs),
        ("stmatch", MatcherConfig::stmatch_like),
        ("egsm", MatcherConfig::egsm_like),
        ("pbe", MatcherConfig::pbe_like),
        ("hybrid", MatcherConfig::hybrid),
    ];
    let (gname, g) = &small_graphs()[0];
    for id in [1u8, 2, 5, 8] {
        for (pname, mk) in presets {
            let fused_cfg = mk().with_warps(3);
            assert!(fused_cfg.fused_leaf, "fusion must default on");
            let unfused_cfg = mk().with_warps(3).with_fused_leaf(false);
            let p = PatternId(id).pattern();
            let fused = match_pattern(g, &p, &fused_cfg).unwrap().matches;
            let unfused = match_pattern(g, &p, &unfused_cfg).unwrap().matches;
            let want = expected(g, PatternId(id), fused_cfg.plan);
            assert_eq!(fused, want, "{pname} fused P{id} on {gname}");
            assert_eq!(unfused, want, "{pname} unfused P{id} on {gname}");
        }
    }
    // The labeled graph too, on the preset with the most moving parts.
    let (gname, g) = &small_graphs()[2];
    for id in [13u8, 19] {
        let p = PatternId(id).pattern();
        let cfg = MatcherConfig::tdfs().with_warps(4);
        let fused = match_pattern(g, &p, &cfg).unwrap().matches;
        let unfused = match_pattern(g, &p, &cfg.clone().with_fused_leaf(false))
            .unwrap()
            .matches;
        assert_eq!(fused, unfused, "tdfs P{id} on {gname}");
    }
}

#[test]
fn simd_flag_preserves_counts_and_warp_stats_across_engines() {
    // All five engine presets must produce identical match counts AND
    // identical warp counters with the vector lanes on (default) and
    // pinned off — with leaf fusion in both positions, since the fused
    // leaf is the heaviest intersect_filtered user. Without the `simd`
    // feature both runs take the scalar path and the comparison is
    // trivially green, so this test runs in every CI job.
    //
    // Timeout decomposition fires on wall-clock time and re-expands
    // tasks (extra intersections), which would make the stats
    // comparison depend on machine load — so the timeout-family presets
    // run with `tau = None` here; everything else about them is stock.
    type Preset = fn() -> MatcherConfig;
    let presets: [(&str, Preset); 5] = [
        ("tdfs", MatcherConfig::no_steal),
        ("stmatch", MatcherConfig::stmatch_like),
        ("egsm", MatcherConfig::egsm_like),
        ("pbe", MatcherConfig::pbe_like),
        ("hybrid", || {
            let mut c = MatcherConfig::hybrid();
            if let Strategy::Hybrid { tau, .. } = &mut c.strategy {
                *tau = None;
            }
            c
        }),
    ];
    let (gname, g) = &small_graphs()[0];
    for id in [1u8, 5] {
        for (pname, mk) in presets {
            for fused in [true, false] {
                let p = PatternId(id).pattern();
                let base = |warps| mk().with_warps(warps).with_fused_leaf(fused);
                let simd = match_pattern(g, &p, &base(2)).unwrap();
                let scalar = match_pattern(g, &p, &base(2).with_simd(false)).unwrap();
                let tag = format!("{pname} P{id} fused={fused} on {gname}");
                assert_eq!(simd.matches, scalar.matches, "{tag}");
                assert_eq!(
                    simd.matches,
                    expected(g, PatternId(id), base(2).plan),
                    "{tag}"
                );
                // A thief cannot reuse sets cached at levels shallower
                // than the one it stole, so at 2 warps half stealing's
                // counters depend on when the steals land: compare them
                // at one warp there.
                let (simd, scalar) = if pname == "stmatch" {
                    (
                        match_pattern(g, &p, &base(1)).unwrap(),
                        match_pattern(g, &p, &base(1).with_simd(false)).unwrap(),
                    )
                } else {
                    (simd, scalar)
                };
                assert_eq!(simd.stats.warp, scalar.stats.warp, "{tag} warp stats");
            }
        }
    }
    // The labeled graph too (label predicates ride the fused ballot).
    let (gname, g) = &small_graphs()[2];
    for id in [13u8, 19] {
        let p = PatternId(id).pattern();
        let cfg = MatcherConfig::no_steal().with_warps(2);
        let simd = match_pattern(g, &p, &cfg).unwrap();
        let scalar = match_pattern(g, &p, &cfg.clone().with_simd(false)).unwrap();
        assert_eq!(simd.matches, scalar.matches, "tdfs P{id} on {gname}");
        assert_eq!(simd.stats.warp, scalar.stats.warp, "tdfs P{id} on {gname}");
    }
}

#[test]
fn fused_leaf_reduces_emitted_elements_on_clique_counting() {
    // Clique counting is leaf-dominated: with fusion the deepest-level
    // candidates are consumed inside the lanes (symmetry constraints
    // folded into the ballot) instead of being materialized onto
    // `stack[k-1]`, so fewer elements are emitted and the peak stack
    // never grows. Timeout decomposition is off (`tau: None`): task
    // re-expansion inflates the emission counters by a wall-clock-
    // dependent amount, which under a loaded machine can swamp the
    // fused/unfused difference being asserted.
    let g = barabasi_albert(300, 6, 77);
    for id in [2u8, 7] {
        let p = PatternId(id).pattern();
        let base = |warps| MatcherConfig::tdfs().with_warps(warps).with_tau(None);
        let fused = match_pattern(&g, &p, &base(2)).unwrap();
        let unfused = match_pattern(&g, &p, &base(2).with_fused_leaf(false)).unwrap();
        assert_eq!(fused.matches, unfused.matches, "P{id}");
        assert!(
            fused.stats.warp.elements_emitted < unfused.stats.warp.elements_emitted,
            "P{id}: fusion must emit fewer elements ({} vs {})",
            fused.stats.warp.elements_emitted,
            unfused.stats.warp.elements_emitted
        );
        // The stack comparison runs one warp: with more, the arena's peak
        // depends on which warps happen to hold the heaviest tasks at the
        // same time, so it would race.
        let fused = match_pattern(&g, &p, &base(1)).unwrap();
        let unfused = match_pattern(&g, &p, &base(1).with_fused_leaf(false)).unwrap();
        assert!(
            fused.stats.stack_bytes_peak <= unfused.stats.stack_bytes_peak,
            "P{id}: fusion must not grow the stacks"
        );
    }
}

#[test]
fn labeled_patterns_respect_labels() {
    let g = barabasi_albert(200, 5, 99);
    let n = g.num_vertices();
    let labeled = g.with_labels(random_labels(n, 4, 100));
    for id in [12u8, 13, 16, 19] {
        let cfg = MatcherConfig::tdfs().with_warps(4);
        let got = match_pattern(&labeled, &PatternId(id).pattern(), &cfg)
            .unwrap()
            .matches;
        assert_eq!(got, expected(&labeled, PatternId(id), cfg.plan), "P{id}");
    }
}

/// Foundation of durable execution: every match is rooted at exactly
/// one admitted initial edge, so counts are additive over a partition
/// of the admitted edge list — for every strategy.
#[test]
fn sharded_edge_counts_are_additive_for_every_engine() {
    use tdfs_core::{host_filter_edges, match_plan_on_edges};

    let g = barabasi_albert(300, 4, 11);
    let configs = [
        ("tdfs", MatcherConfig::tdfs()),
        ("stmatch", MatcherConfig::stmatch_like()),
        ("egsm", MatcherConfig::egsm_like()),
        ("pbe", MatcherConfig::pbe_like()),
        ("hybrid", MatcherConfig::hybrid()),
    ];
    for id in [1u8, 2, 3] {
        for (name, cfg) in &configs {
            let cfg = cfg.clone().with_warps(2);
            let plan = QueryPlan::build_with(&PatternId(id).pattern(), cfg.plan);
            let want = reference_count(&g, &plan);
            let edges = host_filter_edges(&g, &plan);
            // Uneven 3-way partition, including an empty shard.
            let cut1 = edges.len() / 3;
            let cut2 = edges.len() / 2;
            let mut got = 0;
            for shard in [
                &edges[..cut1],
                &edges[cut1..cut2],
                &edges[cut2..],
                &edges[0..0],
            ] {
                got += match_plan_on_edges(&g, &plan, &cfg, shard.to_vec(), None)
                    .unwrap()
                    .matches;
            }
            assert_eq!(got, want, "{name} P{id} sharded count");
        }
    }
}

/// The host filter is a row-skipping rewrite of the arc-by-arc filter:
/// the same admitted arcs in the same order, for every catalogue pattern
/// it serves, on labeled and unlabeled graphs and on a churned view.
#[test]
fn host_filter_equals_the_naive_arc_filter() {
    use tdfs_core::engine::edge_admitted;
    use tdfs_core::host_filter_edges;
    use tdfs_graph::{DeltaCsr, EdgeBatch, GraphView};

    fn naive<V: GraphView>(g: &V, plan: &QueryPlan) -> Vec<(u32, u32)> {
        let (l0, l1) = (&plan.levels[0], &plan.levels[1]);
        g.arcs()
            .filter(|&(v1, v2)| {
                g.degree(v1) >= l0.degree
                    && g.degree(v2) >= l1.degree
                    && g.label(v1) == l0.label
                    && g.label(v2) == l1.label
                    && v1 != v2
                    && (l1.greater_than.is_empty() || v1 < v2)
                    && (l1.less_than.is_empty() || v2 < v1)
            })
            .collect()
    }

    fn check<V: GraphView>(name: &str, g: &V) {
        for id in 1..=11 {
            let plan = QueryPlan::build(&PatternId(id).pattern());
            let want = naive(g, &plan);
            assert_eq!(host_filter_edges(g, &plan), want, "P{id} on {name}");
            let admitted = g.arcs().filter(|&(u, v)| edge_admitted(g, &plan, u, v));
            assert!(
                admitted.eq(want.iter().copied()),
                "edge_admitted, P{id} on {name}"
            );
        }
    }

    for (name, g) in small_graphs() {
        check(name, &g);
    }
    let base = std::sync::Arc::new(barabasi_albert(300, 4, 11));
    let churn = EdgeBatch::new()
        .insert(0, 299)
        .insert(5, 150)
        .delete(0, 1)
        .delete(2, 3);
    let (live, _) = DeltaCsr::from_base(base).apply(&churn).unwrap();
    assert!(!live.is_compact());
    check("churned ba", &live);
}
