//! Randomized batch-sequence tests for [`DeltaCsr`]: after any schedule
//! of insert/delete/duplicate/self-edge batches, the delta view must be
//! indistinguishable (through [`GraphView`]) from a `CsrGraph` rebuilt
//! from scratch out of the surviving edge set.

use std::collections::BTreeSet;
use std::sync::Arc;

use tdfs_graph::rng::Rng;
use tdfs_graph::{CsrGraph, DeltaCsr, EdgeBatch, GraphBuilder, GraphError, GraphView};

const CASES: u64 = 48;
const N: u32 = 40;

/// Model of the graph as a plain edge set, mutated with the same
/// `G' = (G \ D) ∪ I` semantics the delta CSR promises.
fn model_apply(model: &mut BTreeSet<(u32, u32)>, batch: &EdgeBatch) {
    for &(u, v) in batch.deletes() {
        if u != v {
            model.remove(&(u.min(v), u.max(v)));
        }
    }
    for &(u, v) in batch.inserts() {
        if u != v {
            model.insert((u.min(v), u.max(v)));
        }
    }
}

fn rebuild(model: &BTreeSet<(u32, u32)>) -> CsrGraph {
    // Pin the vertex count so isolated tail vertices survive the rebuild.
    GraphBuilder::new()
        .num_vertices(N as usize)
        .edges(model.iter().copied())
        .build()
}

fn random_batch(rng: &mut Rng) -> EdgeBatch {
    let mut batch = EdgeBatch::new();
    for _ in 0..rng.gen_range(0..24) {
        // Includes self-edges (u == v) and repeats by construction.
        let u = rng.gen_range_u32(0..N);
        let v = rng.gen_range_u32(0..N);
        if rng.gen_range(0..3) == 0 {
            batch = batch.delete(u, v);
        } else {
            batch = batch.insert(u, v);
        }
    }
    // Occasionally re-queue the same edge on both sides of the batch.
    if rng.gen_range(0..4) == 0 {
        let u = rng.gen_range_u32(0..N);
        let v = rng.gen_range_u32(0..N);
        batch = batch.insert(u, v).delete(u, v).insert(u, v);
    }
    batch
}

fn assert_view_equivalent(d: &DeltaCsr, rebuilt: &CsrGraph) {
    assert_eq!(d.num_vertices(), rebuilt.num_vertices());
    assert_eq!(d.num_edges(), rebuilt.num_edges());
    assert_eq!(d.num_arcs(), rebuilt.num_arcs());
    let mut true_max = 0;
    let mut touched = 0;
    for v in 0..rebuilt.num_vertices() as u32 {
        assert_eq!(d.neighbors(v), rebuilt.neighbors(v), "vertex {v}");
        assert_eq!(d.degree(v), rebuilt.degree(v), "degree of {v}");
        for w in 0..rebuilt.num_vertices() as u32 {
            assert_eq!(d.has_edge(v, w), rebuilt.has_edge(v, w), "pair ({v}, {w})");
        }
        true_max = true_max.max(rebuilt.degree(v));
        touched += usize::from(d.base().neighbors(v) != rebuilt.neighbors(v));
    }
    // Exactly the vertices whose row differs from the base hold a row.
    assert_eq!(d.touched_vertices(), touched);
    assert_eq!(d.is_compact(), touched == 0);
    // max_degree is rebuilt with the offsets on every apply: exact.
    assert_eq!(d.max_degree(), true_max);
    // Arc indexing and iteration agree with the rebuilt CSR stream.
    for (i, (u, v)) in rebuilt.arcs().enumerate() {
        assert_eq!(d.arc(i), (u, v), "arc {i}");
    }
    assert_eq!(GraphView::arcs(d).count(), rebuilt.num_arcs());
}

#[test]
fn delta_view_matches_rebuilt_csr_after_random_schedules() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xDE17A + case);
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        // Seed graph: a sparse random start.
        let seed_batch = random_batch(&mut rng);
        model_apply(&mut model, &seed_batch);
        let mut d = DeltaCsr::from_base(Arc::new(rebuild(&model)));

        for step in 0..12 {
            let batch = random_batch(&mut rng);
            let (next, applied) = d.apply(&batch).unwrap();
            // Effective inserts/deletes agree with the model transition.
            let before = model.clone();
            model_apply(&mut model, &batch);
            let inserted: Vec<_> = model.difference(&before).copied().collect();
            let deleted: Vec<_> = before.difference(&model).copied().collect();
            assert_eq!(applied.inserted, inserted, "case {case} step {step}");
            assert_eq!(applied.deleted, deleted, "case {case} step {step}");
            assert_eq!(next.version(), d.version() + 1);
            // Snapshot isolation: the pre-apply value still reads its old
            // rows, degrees and arcs (copy-on-write).
            assert_view_equivalent(&d, &rebuild(&before));
            d = next;
            assert_view_equivalent(&d, &rebuild(&model));
        }

        // Compaction folds to the same value and restores exactness.
        let compacted = d.compact();
        assert_eq!(compacted.version(), d.version());
        assert!(compacted.is_compact());
        let rebuilt = rebuild(&model);
        assert_view_equivalent(&compacted, &rebuilt);
        assert_eq!(compacted.max_degree(), rebuilt.max_degree());

        // Applying on top of a compacted base keeps working.
        let batch = random_batch(&mut rng);
        let (after, _) = compacted.apply(&batch).unwrap();
        model_apply(&mut model, &batch);
        assert_view_equivalent(&after, &rebuild(&model));
    }
}

#[test]
fn inserting_then_deleting_the_same_edges_returns_to_compact() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xC0_4AC7 + case);
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        model_apply(&mut model, &random_batch(&mut rng));
        let base = Arc::new(rebuild(&model));
        let mut d = DeltaCsr::from_base(Arc::clone(&base));
        // Insert fresh edges over a few batches, then delete them again
        // over a few others, in a different grouping.
        let mut fresh = Vec::new();
        for _ in 0..4 {
            let batch = random_batch(&mut rng);
            let (next, applied) = d
                .apply(&EdgeBatch::inserting(batch.inserts().iter().copied()))
                .unwrap();
            fresh.extend(applied.inserted);
            d = next;
        }
        assert_eq!(d.is_compact(), fresh.is_empty());
        for i in (1..fresh.len()).rev() {
            fresh.swap(i, rng.gen_range(0..i + 1));
        }
        for chunk in fresh.chunks(5) {
            d = d
                .apply(&EdgeBatch::deleting(chunk.iter().copied()))
                .unwrap()
                .0;
        }
        assert!(
            d.is_compact(),
            "case {case}: every row equals its base row again"
        );
        assert_eq!(d.overlay_bytes(), 0);
        assert_eq!(d.touched_vertices(), 0);
        assert_eq!(d.overlay_edges(), (Vec::new(), Vec::new()));
        assert_view_equivalent(&d, &base);
    }
}

#[test]
fn version_is_monotone_even_for_noop_batches() {
    let g = GraphBuilder::new().edges([(0, 1), (1, 2)]).build();
    let d = DeltaCsr::from_base(Arc::new(g));
    let (d1, a) = d.apply(&EdgeBatch::new()).unwrap();
    assert!(a.is_empty());
    assert_eq!(d1.version(), 1);
    let (d2, a) = d1
        .apply(&EdgeBatch::new().insert(0, 1).delete(0, 2))
        .unwrap();
    assert!(
        a.is_empty(),
        "present insert + absent delete are both no-ops"
    );
    assert_eq!(d2.version(), 2);
    assert!(d2.is_compact());
}

// ---------------------------------------------------------------------
// Storage-tier extension: the same batch schedules over a disk-resident
// (mmap'd container) base must be indistinguishable from the heap base,
// and a persisted cumulative overlay must rebuild the identical view.
// ---------------------------------------------------------------------

/// Writes `g` into a container inside `dir` and reopens it mapped.
fn map_graph(dir: &tdfs_testkit::TempDir, g: &CsrGraph, tag: &str) -> Arc<tdfs_graph::MmapGraph> {
    let path = dir.join(format!("{tag}.tdfsgrph"));
    tdfs_graph::write_container_file(g, &path).unwrap();
    Arc::new(tdfs_graph::MmapGraph::open(&path).unwrap())
}

#[test]
fn delta_over_mmap_matches_delta_over_heap() {
    let dir = tdfs_testkit::TempDir::new("tdfs-delta-mmap").unwrap();
    for case in 0..CASES / 2 {
        let mut rng = Rng::seed_from_u64(0x3A_D15C + case);
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        model_apply(&mut model, &random_batch(&mut rng));
        let base = rebuild(&model);
        let mapped = map_graph(&dir, &base, &format!("case{case}"));

        let mut heap = DeltaCsr::from_base(Arc::new(base));
        let mut disk = DeltaCsr::from_mapped(mapped);
        assert!(disk.base().as_mapped().is_some());
        let _scope = disk.pin_scope().expect("mapped base offers a pin scope");

        for step in 0..8 {
            let batch = random_batch(&mut rng);
            let (h, ha) = heap.apply(&batch).unwrap();
            let (m, ma) = disk.apply(&batch).unwrap();
            assert_eq!(ha, ma, "case {case} step {step}: applied batches agree");
            assert_eq!(h.version(), m.version());
            model_apply(&mut model, &batch);
            let rebuilt = rebuild(&model);
            assert_view_equivalent(&m, &rebuilt);
            for v in 0..rebuilt.num_vertices() as u32 {
                assert_eq!(h.neighbors(v), m.neighbors(v));
            }
            (heap, disk) = (h, m);
        }

        // Compaction folds the mapped base + overlay into a heap CSR
        // with the same value and version.
        let compacted = disk.compact();
        assert!(compacted.is_compact());
        assert_eq!(compacted.version(), disk.version());
        assert_view_equivalent(&compacted, &rebuild(&model));
    }
}

#[test]
fn overlay_edges_roundtrip_rebuilds_the_identical_view() {
    let dir = tdfs_testkit::TempDir::new("tdfs-delta-overlay").unwrap();
    for case in 0..CASES / 2 {
        let mut rng = Rng::seed_from_u64(0x0E_D6E5 + case);
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        model_apply(&mut model, &random_batch(&mut rng));
        let base = rebuild(&model);
        let mapped = map_graph(&dir, &base, &format!("ovl{case}"));

        let mut d = DeltaCsr::from_mapped(Arc::clone(&mapped));
        for _ in 0..6 {
            d = d.apply(&random_batch(&mut rng)).unwrap().0;
        }

        // Persist: cumulative effective overlay + version; rebuild over
        // a fresh handle to the same container.
        let (ins, del) = d.overlay_edges();
        assert!(ins.windows(2).all(|w| w[0] < w[1]), "normalized + sorted");
        assert!(del.windows(2).all(|w| w[0] < w[1]));
        assert!(
            ins.iter().all(|e| !del.contains(e)),
            "effective sets are disjoint"
        );
        let restored = DeltaCsr::with_overlay(
            tdfs_graph::GraphBase::Mapped(mapped),
            d.version(),
            &ins,
            &del,
        )
        .unwrap();
        assert_eq!(restored.version(), d.version());
        for v in 0..d.num_vertices() as u32 {
            assert_eq!(
                restored.neighbors(v),
                d.neighbors(v),
                "case {case} vertex {v}"
            );
        }
        assert_eq!(restored.overlay_edges(), (ins, del), "re-persist is stable");

        // A compact view persists empty overlays and at_version restores it.
        let (ci, cd) = d.compact().overlay_edges();
        assert!(ci.is_empty() && cd.is_empty());
        let heap_base = tdfs_graph::GraphBase::Heap(Arc::new(rebuild(&model)));
        assert_eq!(DeltaCsr::at_version(heap_base, 9).version(), 9);

        // A corrupt persisted overlay (an endpoint past the base, an
        // insert the base already has, a delete the base lacks) must be
        // rejected, not trusted.
        let n = d.num_vertices() as u32;
        let heap_base = || tdfs_graph::GraphBase::Heap(Arc::new(base.clone()));
        let bad = DeltaCsr::with_overlay(heap_base(), 1, &[(0, n + 3)], &[]);
        assert!(matches!(bad, Err(GraphError::NeighborOutOfRange { .. })));
        if let Some((u, v)) = base.arcs().find(|&(u, v)| u < v) {
            let bad = DeltaCsr::with_overlay(heap_base(), 1, &[(u, v)], &[]);
            assert!(
                matches!(bad, Err(GraphError::OverlayMismatch { insert: true, .. })),
                "insert already in the base"
            );
        }
        let absent = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .find(|&(u, v)| !base.has_edge(u, v));
        if let Some(e) = absent {
            let bad = DeltaCsr::with_overlay(heap_base(), 1, &[], &[e]);
            assert!(
                matches!(bad, Err(GraphError::OverlayMismatch { insert: false, .. })),
                "delete absent from the base"
            );
        }
    }
}
