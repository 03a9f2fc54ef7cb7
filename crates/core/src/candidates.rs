//! Candidate computation (Eq. 1) through a warp, with reuse and the
//! consumption-time predicate.
//!
//! Every engine computes `C_S(u_level) = ⋂_{u_j ∈ B^π(u_level)} N(S[u_j])`
//! through the one `walk`, on the warp's 32-lane intersection kernel.
//! [`fill_level`] stores the candidates in `stack[level]`, seeding from a
//! stored ancestor level when the reuse plan allows (paper Fig. 7). The
//! label, degree, injectivity and symmetry predicates are evaluated by
//! [`accept`] when a candidate is consumed, which keeps reuse
//! unconditionally sound (DESIGN.md §4). The fused leaf (`count_leaf`)
//! folds `accept` into the walk's last intersection instead, and the
//! BFS engines walk from scratch, with no stored level to seed from.
//!
//! A level's symmetry constraints leave its candidates one open interval
//! of ids, `(max m[greater_than], min m[less_than])`. A walk whose result
//! no later level reads cuts its first operand (each seed chunk, or else
//! its smallest row) to that interval, with one `partition_point` per
//! bounded side, so the lanes never probe what `accept` would drop: the
//! fused leaf, the BFS walk, and `fill_level` of a level that is neither
//! a reuse source ([`tdfs_query::plan::LevelPlan::reused`]) nor the
//! materialized leaf. Every later intersection is driven by what the cut
//! left, so the larger rows stay whole: their lanes only ever test ids
//! inside the interval, and a search on a long row costs more than it
//! saves (cutting them too made one-warp P9 on youtube_s 3 % slower
//! instead of 5 % faster). A reuse source stays whole because its
//! reader's interval differs, and the leaf that the `fused_leaf = false`
//! ablation materializes stays whole so that the ablation keeps
//! measuring what fusing the leaf saves.

use tdfs_gpu::warp::WarpOps;
use tdfs_graph::{GraphView, VertexId};
use tdfs_mem::{LevelStore, StackError};
use tdfs_query::plan::QueryPlan;

use crate::attribution::ChangedEdges;
use crate::config::MatcherConfig;
use crate::sink::MatchSink;

/// Per-warp scratch space reused across fills (no hot-loop allocation).
#[derive(Default)]
pub struct Workspace {
    /// The warp's lane-op context and counters.
    pub warp: WarpOps,
    /// Whether every operand row pays EGSM's CT-index indirections
    /// ([`MatcherConfig::ct_index`]).
    ct_index: bool,
    /// Whether [`fill_level`] removes matched vertices in a separate
    /// pass (STMatch; `!MatcherConfig::fused_injectivity`).
    separate_injectivity: bool,
    scratch_a: Vec<u32>,
    scratch_b: Vec<u32>,
    /// Data-vertex ids whose neighbor lists are the Eq. (1) operands of
    /// the current walk, sorted smallest-degree first. Stored as ids
    /// rather than `&[u32]` slices so the buffer can live here across
    /// calls without borrowing the graph.
    operand_ids: Vec<u32>,
    /// Full-match assembly buffer for sink emission at the fused leaf
    /// (taken out with `mem::take` while the workspace is borrowed by
    /// the walk).
    leaf_buf: Vec<u32>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The workspace a warp of a run under `cfg` uses: the kernel path
    /// pinned to `cfg.simd`, the CT-index charge set by `cfg.ct_index`
    /// and the injectivity pass by `cfg.fused_injectivity`, so one
    /// configuration governs every intersection the run issues.
    pub fn for_config(cfg: &MatcherConfig) -> Self {
        let mut ws = Self {
            ct_index: cfg.ct_index,
            separate_injectivity: !cfg.fused_injectivity,
            ..Self::default()
        };
        ws.warp.set_simd(cfg.simd);
        ws
    }
}

/// Extra memory indirections the EGSM CT-index model charges per
/// neighbor-list lookup (its 3-level `cuc`/`off`/`nbr` structure needs
/// two more dereferences than CSR, §IV-B).
const CT_INDEX_INDIRECTIONS: u64 = 2;

/// Consumption-time predicate: label, degree, symmetry constraints and
/// (when `fused_injectivity`) the not-already-matched check.
#[inline]
pub fn accept<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    level: usize,
    v: VertexId,
    m: &[u32],
    fused_injectivity: bool,
) -> bool {
    let lvl = &plan.levels[level];
    if g.label(v) != lvl.label || g.degree(v) < lvl.degree {
        return false;
    }
    if !lvl.greater_than.iter().all(|&j| m[j] < v) {
        return false;
    }
    if !lvl.less_than.iter().all(|&j| v < m[j]) {
        return false;
    }
    if fused_injectivity {
        m[..level].iter().all(|&p| p != v)
    } else {
        true
    }
}

/// Pushes through an error latch so closure-based emitters can surface
/// `StackError` after the batch completes.
#[inline]
fn push_latched<L: LevelStore>(dest: &mut L, v: u32, err: &mut Option<StackError>) {
    if err.is_none() {
        if let Err(e) = dest.push(v) {
            *err = Some(e);
        }
    }
}

/// Injectivity as STMatch does it: a *separate* set-difference pass over
/// the freshly filled level ("STMatch treats vertex removal as an
/// independent set-difference operation which leads to more rounds of
/// set operations", §IV-B).
pub fn separate_injectivity_pass<L: LevelStore>(
    level_store: &mut L,
    m_prefix: &[u32],
    ws: &mut Workspace,
) -> Result<(), StackError> {
    let Workspace {
        warp,
        scratch_a,
        scratch_b,
        ..
    } = ws;
    scratch_a.clear();
    level_store.for_each_chunk(&mut |c| scratch_a.extend_from_slice(c));
    scratch_b.clear();
    scratch_b.extend_from_slice(m_prefix);
    scratch_b.sort_unstable();
    level_store.clear();
    let mut err = None;
    let matched: &[u32] = scratch_b;
    warp.filter(
        scratch_a,
        |x| matched.binary_search(&x).is_err(),
        |x| push_latched(level_store, x, &mut err),
    );
    err.map_or(Ok(()), Err)
}

/// The open interval of ids a level's symmetry constraints leave its
/// candidates: above the largest of `m[greater_than]` and below the
/// smallest of `m[less_than]`, each side bounded only when the level has
/// constraints on it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interval {
    /// Every candidate exceeds this, when bounded.
    above: Option<u32>,
    /// Every candidate is below this, when bounded.
    below: Option<u32>,
}

impl Interval {
    /// No bound on either side: a walk that keeps its whole rows.
    pub(crate) const ALL: Self = Self {
        above: None,
        below: None,
    };

    /// Level `level`'s interval under the partial match `m[..level]`.
    #[inline]
    pub(crate) fn of(plan: &QueryPlan, level: usize, m: &[u32]) -> Self {
        let lvl = &plan.levels[level];
        Self {
            above: lvl.greater_than.iter().map(|&j| m[j]).max(),
            below: lvl.less_than.iter().map(|&j| m[j]).min(),
        }
    }

    /// Whether both sides are bounded and no id lies between them.
    #[inline]
    fn is_empty(self) -> bool {
        matches!((self.above, self.below), (Some(lo), Some(hi)) if lo.saturating_add(1) >= hi)
    }

    /// The part of the sorted `row` inside the interval.
    #[inline]
    fn cut(self, mut row: &[u32]) -> &[u32] {
        if let Some(lo) = self.above {
            row = &row[row.partition_point(|&x| x <= lo)..];
        }
        if let Some(hi) = self.below {
            row = &row[..row.partition_point(|&x| x < hi)];
        }
        row
    }
}

/// What one walk intersects: a stored ancestor level to seed from, if
/// any, the positions whose rows fold in, and the interval its first
/// operand is cut to.
#[derive(Clone, Copy)]
pub(crate) struct Operands<'a> {
    seed: Option<&'a dyn LevelStore>,
    rows: &'a [usize],
    bounds: Interval,
}

impl<'a> Operands<'a> {
    /// A walk from scratch over the rows of `rows`, cut to `bounds`.
    pub(crate) fn rows(rows: &'a [usize], bounds: Interval) -> Self {
        Self {
            seed: None,
            rows,
            bounds,
        }
    }
}

/// The one Eq. (1) walk: intersects the rows `N(m[j])` of the positions
/// `ops.rows`, seeded by `ops.seed` (a stored ancestor level) when there
/// is one and by the smallest row otherwise, and folds in the remaining
/// rows smallest-degree first. The seed's chunks, or the smallest row,
/// are first cut to `ops.bounds`, which every later intersection then
/// inherits, and an empty interval ends the walk before it starts.
/// The last intersection applies `keep` in the lanes and hands each
/// survivor to `emit`, in ascending order; intermediate results keep
/// everything. An empty intermediate ends the walk, since the result can
/// only be empty.
///
/// `keep` and `emit` are statically dispatched; only the seed's chunks
/// go through [`LevelStore::for_each_chunk`].
pub(crate) fn walk<V: GraphView>(
    g: &V,
    m: &[u32],
    ops: Operands<'_>,
    ws: &mut Workspace,
    mut keep: impl FnMut(u32) -> bool,
    mut emit: impl FnMut(u32),
) {
    let Operands { seed, rows, bounds } = ops;
    if bounds.is_empty() {
        return;
    }
    let Workspace {
        warp,
        ct_index,
        scratch_a,
        scratch_b,
        operand_ids,
        ..
    } = ws;
    if *ct_index {
        warp.charge_indirections(CT_INDEX_INDIRECTIONS * rows.len() as u64);
    }
    operand_ids.clear();
    operand_ids.extend(rows.iter().map(|&j| m[j]));
    operand_ids.sort_unstable_by_key(|&v| g.degree(v));
    let first = |v: u32| bounds.cut(g.neighbors(v));
    // The first intersection, straight to `emit` when it is also the
    // last, else into `scratch_a` with the rows still to fold.
    let rest = match (seed, &operand_ids[..]) {
        (Some(source), []) => {
            source.for_each_chunk(&mut |c| warp.filter(bounds.cut(c), &mut keep, &mut emit));
            return;
        }
        (Some(source), [only]) => {
            let row = g.neighbors(*only);
            source.for_each_chunk(&mut |c| {
                warp.intersect_filtered(bounds.cut(c), row, &mut keep, &mut emit)
            });
            return;
        }
        (Some(source), [next, rest @ ..]) => {
            let row = g.neighbors(*next);
            scratch_a.clear();
            source
                .for_each_chunk(&mut |c| warp.intersect(bounds.cut(c), row, |x| scratch_a.push(x)));
            rest
        }
        (None, [only]) => return warp.filter(first(*only), keep, emit),
        (None, [a, b]) => return warp.intersect_filtered(first(*a), g.neighbors(*b), keep, emit),
        (None, [a, b, rest @ ..]) => {
            scratch_a.clear();
            warp.intersect(first(*a), g.neighbors(*b), |x| scratch_a.push(x));
            rest
        }
        (None, []) => unreachable!("every level past the first edge has a backward neighbor"),
    };
    let (last, middle) = rest.split_last().expect("a seeded fold has a row left");
    for &v in middle {
        if scratch_a.is_empty() {
            return;
        }
        scratch_b.clear();
        warp.intersect(scratch_a, g.neighbors(v), |x| scratch_b.push(x));
        std::mem::swap(scratch_a, scratch_b);
    }
    warp.intersect_filtered(scratch_a, g.neighbors(*last), keep, emit);
}

/// The operands of `level`'s walk: the stored reuse source with the
/// positions it leaves, or no seed and the whole backward set, cut to
/// the level's interval when `cut` is set. `valid_from` is the
/// shallowest stack level filled by the *current* task: a reuse source
/// below it is stale (the task prefix came from `Q_task`, a steal, or a
/// child-kernel dispatch, not from this warp's own descent), so the walk
/// starts from scratch instead.
fn operands<'a, L: LevelStore>(
    plan: &'a QueryPlan,
    level: usize,
    m: &[u32],
    stack: &'a [L],
    valid_from: usize,
    cut: bool,
) -> Operands<'a> {
    let lvl = &plan.levels[level];
    let bounds = if cut {
        Interval::of(plan, level, m)
    } else {
        Interval::ALL
    };
    match lvl.reuse.as_ref().filter(|s| s.source >= valid_from) {
        Some(step) => Operands {
            seed: Some(&stack[step.source]),
            rows: &step.remaining,
            bounds,
        },
        None => Operands::rows(&lvl.backward, bounds),
    }
}

/// Fills `stack[level]` with the Eq. (1) candidates for the partial
/// match `m[..level]`, then runs the [`separate_injectivity_pass`] when
/// the workspace asks for one. A level that no later level reuses, short
/// of the leaf, is cut to its symmetry interval; a reuse source and the
/// leaf store the whole intersection.
///
/// `stack` must contain all `k` levels; `level ≥ 2` (positions 0 and 1
/// come from the initial edge task). `valid_from` is as in
/// `operands`.
pub fn fill_level<V: GraphView, L: LevelStore>(
    g: &V,
    plan: &QueryPlan,
    level: usize,
    m: &[u32],
    stack: &mut [L],
    ws: &mut Workspace,
    valid_from: usize,
) -> Result<(), StackError> {
    debug_assert!(level >= 2 && level < stack.len());
    let (head, tail) = stack.split_at_mut(level);
    let dest = &mut tail[0];
    dest.clear();
    let cut = !plan.levels[level].reused && level + 1 < plan.k();
    let ops = operands(plan, level, m, head, valid_from, cut);
    let mut err = None;
    walk(g, m, ops, ws, |_| true, |x| push_latched(dest, x, &mut err));
    err.map_or(Ok(()), Err)?;
    if ws.separate_injectivity {
        separate_injectivity_pass(dest, &m[..level], ws)?;
    }
    Ok(())
}

/// Computes the leaf level's Eq. (1) candidates inside its symmetry
/// interval and consumes them in
/// place: instead of materializing `stack[k-1]`, the final intersection
/// runs with the full consumption predicate folded into the lanes
/// ([`WarpOps::intersect_filtered`]) and hands each surviving candidate
/// straight to `on_match`. No stack pushes, no overflow handling, no
/// second pass — the deepest, hottest level becomes one filtered
/// intersection.
///
/// Injectivity is always folded into the predicate here, even for the
/// STMatch personality whose [`separate_injectivity_pass`] needs a
/// materialized level to subtract from — the accepted set is identical
/// either way, only the (now nonexistent) extra pass differs.
///
/// `stack` holds the levels below the leaf (potential reuse sources);
/// `valid_from` is as in [`operands`]. Under `changed`, a maintenance
/// pass's attribution order, `keep` also drops every match the pass
/// does not own ([`ChangedEdges::owns`]).
#[allow(clippy::too_many_arguments)]
fn fuse_leaf_level<V: GraphView, L: LevelStore>(
    g: &V,
    plan: &QueryPlan,
    m: &[u32],
    stack: &[L],
    ws: &mut Workspace,
    valid_from: usize,
    changed: Option<&ChangedEdges>,
    on_match: impl FnMut(u32),
) {
    let leaf = plan.k() - 1;
    let ops = operands(plan, leaf, m, stack, valid_from, true);
    let keep =
        |v: u32| accept(g, plan, leaf, v, m, true) && changed.is_none_or(|c| c.owns(plan, m, v));
    walk(g, m, ops, ws, keep, on_match);
}

/// Runs the fused leaf for the full prefix `m[..k-1]` and returns how
/// many matches it found, emitting each to `sink` when there is one.
/// Every engine with a DFS stack consumes its leaf through here, and
/// `changed` is its run's attribution order, if it has one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_leaf<V: GraphView, L: LevelStore>(
    g: &V,
    plan: &QueryPlan,
    m: &[u32],
    stack: &[L],
    ws: &mut Workspace,
    valid_from: usize,
    sink: Option<&dyn MatchSink>,
    changed: Option<&ChangedEdges>,
) -> u64 {
    let k = plan.k();
    let mut found = 0u64;
    let Some(sink) = sink else {
        fuse_leaf_level(g, plan, m, stack, ws, valid_from, changed, |_| found += 1);
        return found;
    };
    // Assemble emitted matches in a workspace-resident buffer (taken
    // out for the duration of the call — `ws` is busy inside).
    let mut buf = std::mem::take(&mut ws.leaf_buf);
    buf.clear();
    buf.extend_from_slice(&m[..k - 1]);
    buf.push(0);
    fuse_leaf_level(g, plan, m, stack, ws, valid_from, changed, |v| {
        found += 1;
        buf[k - 1] = v;
        sink.emit(&buf);
    });
    ws.leaf_buf = buf;
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdfs_graph::rng::Rng;
    use tdfs_graph::{CsrGraph, GraphBuilder};
    use tdfs_mem::{ArrayLevel, OverflowPolicy, PageArena, PagedLevel};
    use tdfs_query::plan::{PlanOptions, QueryPlan};
    use tdfs_query::PatternId;

    fn k5_graph() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                b.push_edge(u, v);
            }
        }
        b.build()
    }

    fn stack(k: usize, cap: usize) -> Vec<ArrayLevel> {
        (0..k)
            .map(|_| ArrayLevel::new(cap, OverflowPolicy::Error))
            .collect()
    }

    #[test]
    fn fill_matches_scalar_intersection() {
        let g = k5_graph();
        let plan = QueryPlan::build(&PatternId(2).pattern()); // K4
        let mut s = stack(4, 16);
        let mut ws = Workspace::new();
        let m = [0u32, 1, 0, 0];
        fill_level(&g, &plan, 2, &m, &mut s, &mut ws, 2).unwrap();
        // N(0) ∩ N(1) in K5 = {2, 3, 4}.
        assert_eq!(s[2].to_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn reuse_path_gives_same_result_as_scratch() {
        let g = k5_graph();
        let p = PatternId(7).pattern(); // K5 — reuse kicks in at level 3
        let with = QueryPlan::build(&p);
        let without = QueryPlan::build_with(
            &p,
            PlanOptions {
                symmetry_breaking: true,
                intersection_reuse: false,
            },
        );
        assert!(with.levels[3].reuse.is_some());
        assert!(without.levels[3].reuse.is_none());

        let mut ws = Workspace::new();
        let m = [0u32, 1, 2, 0, 0];

        let mut s1 = stack(5, 16);
        fill_level(&g, &with, 2, &m, &mut s1, &mut ws, 2).unwrap();
        fill_level(&g, &with, 3, &m, &mut s1, &mut ws, 2).unwrap();

        let mut s2 = stack(5, 16);
        fill_level(&g, &without, 2, &m, &mut s2, &mut ws, 2).unwrap();
        fill_level(&g, &without, 3, &m, &mut s2, &mut ws, 2).unwrap();

        assert_eq!(s1[3].to_vec(), s2[3].to_vec());
        assert_eq!(s1[3].to_vec(), vec![3, 4]); // N(0)∩N(1)∩N(2)
    }

    #[test]
    fn accept_applies_all_predicates() {
        let g = k5_graph();
        let plan = QueryPlan::build(&PatternId(2).pattern()); // K4, total order
        let m = [1u32, 2, 0, 0];
        // Injectivity: v already matched (also caught by the ascending
        // symmetry order here, so check with a graph-level duplicate).
        assert!(!accept(&g, &plan, 2, 1, &m, true));
        // Symmetry: K4 order requires ascending ids.
        assert!(accept(&g, &plan, 2, 3, &m, true));
        assert!(
            !accept(&g, &plan, 2, 0, &m, true),
            "violates ascending order"
        );
        // Degree filter: K4 needs degree ≥ 3; every K5 vertex qualifies.
        assert!(accept(&g, &plan, 2, 4, &m, true));
    }

    #[test]
    fn accept_checks_labels() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)])
            .labels(vec![0, 1, 2, 3])
            .build();
        let plan = QueryPlan::build(&PatternId(13).pattern()); // labeled K4
        let m = [0u32, 0, 0, 0];
        // Level 1 wants label 1 (pattern vertex order may vary; check via
        // the plan's own label).
        let want = plan.levels[1].label;
        let v_ok = (0..4).find(|&v| g.label(v) == want).unwrap();
        let v_bad = (0..4).find(|&v| g.label(v) != want).unwrap();
        assert!(accept(&g, &plan, 1, v_ok, &m[..1], true) || v_ok == 0);
        assert!(!accept(&g, &plan, 1, v_bad, &m[..1], true) || g.label(v_bad) == want);
    }

    /// Checks level `level` of `plan` as a leaf for the prefix
    /// `m[..level]`, then descends into each accepted candidate.
    /// Fill-then-`accept`, the fused leaf and the BFS engines' walk
    /// without a reuse source must yield the same candidates in the same
    /// order. Returns the number of prefixes checked.
    fn check_leaves(
        g: &CsrGraph,
        plan: &QueryPlan,
        level: usize,
        m: &mut [u32],
        s: &mut [ArrayLevel],
        ws: &mut Workspace,
    ) -> usize {
        fill_level(g, plan, level, m, s, ws, 2).unwrap();
        let filled: Vec<u32> = s[level]
            .to_vec()
            .into_iter()
            .filter(|&v| accept(g, plan, level, v, m, true))
            .collect();
        let mut leaf_plan = plan.clone();
        leaf_plan.levels.truncate(level + 1);
        let mut fused = Vec::new();
        fuse_leaf_level(g, &leaf_plan, m, s, ws, 2, None, |v| fused.push(v));
        let mut bfs = Vec::new();
        crate::bfs::extend(g, plan, &m[..level], ws, None, |v| bfs.push(v));
        assert_eq!(fused, filled, "fused leaf, level {level}, prefix {m:?}");
        assert_eq!(bfs, filled, "BFS walk, level {level}, prefix {m:?}");
        let mut checked = 1;
        if level + 1 < plan.k() {
            for v in filled {
                m[level] = v;
                checked += check_leaves(g, plan, level + 1, m, s, ws);
            }
        }
        checked
    }

    #[test]
    fn fused_leaf_agrees_with_materialize_then_accept() {
        let g = tdfs_graph::generators::barabasi_albert(60, 4, 5);
        for pid in 1..=11 {
            let p = PatternId(pid).pattern();
            for intersection_reuse in [true, false] {
                let plan = QueryPlan::build_with(
                    &p,
                    PlanOptions {
                        symmetry_breaking: true,
                        intersection_reuse,
                    },
                );
                for ct_index in [false, true] {
                    let mut ws = Workspace {
                        ct_index,
                        ..Workspace::new()
                    };
                    let mut s = stack(plan.k(), g.max_degree());
                    let mut m = vec![0u32; plan.k()];
                    let mut checked = 0;
                    for (v1, v2) in g.arcs().step_by(7).take(40) {
                        m[0] = v1;
                        m[1] = v2;
                        checked += check_leaves(&g, &plan, 2, &mut m, &mut s, &mut ws);
                    }
                    assert!(checked > 0, "P{pid}: no prefix checked");
                }
            }
        }
    }

    #[test]
    fn fused_leaf_without_reuse_agrees_too() {
        let g = k5_graph();
        let p = PatternId(2).pattern();
        let plan = QueryPlan::build_with(
            &p,
            PlanOptions {
                symmetry_breaking: true,
                intersection_reuse: false,
            },
        );
        let mut s = stack(4, 16);
        let mut ws = Workspace::new();
        let m = [0u32, 1, 2, 0];
        fill_level(&g, &plan, 2, &m, &mut s, &mut ws, 2).unwrap();
        let (head, _) = s.split_at(3);
        let mut got = Vec::new();
        fuse_leaf_level(&g, &plan, &m, head, &mut ws, 2, None, |v| got.push(v));
        assert_eq!(got, vec![3, 4]);
    }

    /// Random sorted rows over 6,000 vertices: vertex 0 is a hub next to
    /// about two thirds of them, vertices 5,000 and up have empty rows,
    /// and the rest hold a few random neighbors each.
    fn hub_and_empty_rows(rng: &mut Rng) -> CsrGraph {
        let mut b = GraphBuilder::new().num_vertices(6000);
        for v in 1..5000u32 {
            if rng.gen_range(0..3) != 0 {
                b.push_edge(0, v);
            }
            for _ in 0..rng.gen_range(0..6) {
                let w = rng.gen_range_u32(1..5000);
                if w != v {
                    b.push_edge(v, w);
                }
            }
        }
        b.build()
    }

    #[test]
    fn a_bounded_walk_is_the_whole_walk_filtered_to_its_interval() {
        let mut rng = Rng::seed_from_u64(0x1d7e);
        let g = hub_and_empty_rows(&mut rng);
        let arena = Arc::new(PageArena::new(8));
        let mut ws = Workspace::new();
        let vertex = |rng: &mut Rng| match rng.gen_range(0..6) {
            0 => 0,                             // the hub
            1 => rng.gen_range_u32(5000..6000), // an empty row
            _ => rng.gen_range_u32(1..5000),
        };
        let bound = |rng: &mut Rng| match rng.gen_range(0..6) {
            0 => None,
            1 => Some(0),
            2 => Some(5999),
            3 => Some(6000),
            _ => Some(rng.gen_range_u32(0..6000)),
        };
        // Walks seen with no bound, one, two, and an empty interval.
        let mut seen = [0usize; 4];
        for trial in 0..3000 {
            let m: Vec<u32> = (0..4).map(|_| vertex(&mut rng)).collect();
            let rows: Vec<usize> = (0..4).filter(|_| rng.gen_range(0..2) == 0).collect();
            // A stored seed: a row (the hub's spans two pages), or a
            // random sorted set over three pages.
            let seed_ids: Option<Vec<u32>> = match rng.gen_range(0..4) {
                0 => Some(g.neighbors(m[0]).to_vec()),
                1 => Some((0..6000).filter(|_| rng.gen_range(0..5) != 0).collect()),
                _ => None,
            };
            if rows.is_empty() && seed_ids.is_none() {
                continue;
            }
            let mut seed = PagedLevel::new(arena.clone());
            for &v in seed_ids.iter().flatten() {
                seed.push(v).unwrap();
            }
            let bounds = Interval {
                above: bound(&mut rng),
                below: bound(&mut rng),
            };
            let inside = |v: u32| {
                bounds.above.is_none_or(|lo| lo < v) && bounds.below.is_none_or(|hi| v < hi)
            };
            seen[usize::from(bounds.above.is_some()) + usize::from(bounds.below.is_some())] += 1;
            seen[3] += usize::from(bounds.is_empty());
            let ops = |bounds| Operands {
                seed: seed_ids.as_ref().map(|_| &seed as &dyn LevelStore),
                rows: &rows,
                bounds,
            };
            let keep = |v: u32| v % 7 != 3;
            let mut whole = Vec::new();
            walk(&g, &m, ops(Interval::ALL), &mut ws, keep, |v| whole.push(v));
            let mut cut = Vec::new();
            walk(&g, &m, ops(bounds), &mut ws, keep, |v| cut.push(v));
            whole.retain(|&v| inside(v));
            assert_eq!(cut, whole, "trial {trial}: {m:?} rows {rows:?} {bounds:?}");
        }
        assert!(seen.iter().all(|&n| n > 40), "{seen:?}");
    }

    #[test]
    fn separate_pass_removes_matched() {
        let mut lvl = ArrayLevel::new(8, OverflowPolicy::Error);
        for v in [1u32, 2, 3, 4, 5] {
            lvl.push(v).unwrap();
        }
        let mut ws = Workspace::new();
        separate_injectivity_pass(&mut lvl, &[4, 2], &mut ws).unwrap();
        assert_eq!(lvl.to_vec(), vec![1, 3, 5]);
    }

    #[test]
    fn ct_index_charges_indirections() {
        let g = k5_graph();
        let plan = QueryPlan::build_with(
            &PatternId(2).pattern(),
            PlanOptions {
                symmetry_breaking: false,
                intersection_reuse: false,
            },
        );
        let mut s = stack(4, 16);
        let mut ws = Workspace {
            ct_index: true,
            ..Workspace::new()
        };
        let m = [0u32, 1, 0, 0];
        fill_level(&g, &plan, 2, &m, &mut s, &mut ws, 2).unwrap();
        assert_eq!(ws.warp.stats.extra_indirections, 4, "2 lists × 2");
    }

    #[test]
    fn overflow_propagates() {
        let g = k5_graph();
        let plan = QueryPlan::build(&PatternId(2).pattern());
        let mut s = stack(4, 2); // too small for 3 candidates
        let mut ws = Workspace::new();
        let m = [0u32, 1, 0, 0];
        assert!(matches!(
            fill_level(&g, &plan, 2, &m, &mut s, &mut ws, 2),
            Err(StackError::LevelOverflow { .. })
        ));
    }
}
