//! The compiled query plan consumed by the matching engine.
//!
//! Everything the inner matching loop needs per level — backward
//! positions, reuse source, label/degree filters, compiled symmetry
//! constraints — is precomputed here on the host, once per query, so the
//! hot loop only indexes flat arrays.

use tdfs_graph::Label;

use crate::automorphism::{automorphisms, edge_stabilizer};
use crate::order::MatchingOrder;
use crate::pattern::Pattern;
use crate::reuse::{ReusePlan, ReuseStep};
use crate::symmetry::SymmetryBreaking;

/// Plan-construction options; defaults mirror T-DFS (all optimizations on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Break pattern symmetry via automorphism constraints. EGSM lacks
    /// this (paper §IV-B), which is modeled by switching it off.
    pub symmetry_breaking: bool,
    /// Enable set-intersection result reuse (paper Fig. 7).
    pub intersection_reuse: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            symmetry_breaking: true,
            intersection_reuse: true,
        }
    }
}

/// Per-position data of a compiled plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelPlan {
    /// Pattern vertex matched at this position.
    pub vertex: usize,
    /// Required data-vertex label.
    pub label: Label,
    /// Query degree of the pattern vertex — the degree lower bound filter.
    pub degree: usize,
    /// Positions `j < i` whose matches must be neighbors (Eq. 1 operands).
    pub backward: Vec<usize>,
    /// Reuse source, if this level seeds from a stored intersection.
    pub reuse: Option<ReuseStep>,
    /// Whether a later level seeds from this level's stored
    /// intersection (is some level's [`ReuseStep::source`]). Such a
    /// level is stored whole, since its reader's symmetry interval
    /// differs; the engine may cut any other level's rows to its own.
    pub reused: bool,
    /// Positions whose matched id must be `<` this level's candidate.
    pub greater_than: Vec<usize>,
    /// Positions whose matched id must be `>` this level's candidate.
    pub less_than: Vec<usize>,
}

/// A compiled query plan: matching order + filters + reuse + symmetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// The source pattern.
    pub pattern: Pattern,
    /// The matching order and backward sets.
    pub order: MatchingOrder,
    /// One [`LevelPlan`] per matching position.
    pub levels: Vec<LevelPlan>,
    /// The size of the automorphism group the constraints break:
    /// `|Aut(G_Q)|` for a full query (1 when symmetry breaking is
    /// disabled — the engine then over-counts by the true factor, as
    /// EGSM does), `|Stab(r)|` for a plan rooted at the pattern edge `r`.
    pub aut_size: usize,
    /// Options the plan was built with.
    pub options: PlanOptions,
}

impl QueryPlan {
    /// Compiles `pattern` with default options (all optimizations on).
    pub fn build(pattern: &Pattern) -> Self {
        Self::build_with(pattern, PlanOptions::default())
    }

    /// Compiles `pattern` with explicit options.
    pub fn build_with(pattern: &Pattern, options: PlanOptions) -> Self {
        let sb = if options.symmetry_breaking {
            SymmetryBreaking::compute(pattern)
        } else {
            SymmetryBreaking {
                constraints: Vec::new(),
                aut_size: 1,
            }
        };
        Self::from_order(pattern, MatchingOrder::compute(pattern), options, sb)
    }

    /// Compiles a plan whose matching order is rooted at the pattern edge
    /// `r = (a, b)` — positions 0 and 1 are `a` and `b`.
    ///
    /// Rooted plans drive incremental match maintenance: a changed data
    /// edge is fed as an initial task for positions `(0, 1)`, so the
    /// engine enumerates the embeddings mapping `(a, b)` onto that edge.
    /// The embeddings of one match class that map `r` onto one data edge
    /// differ by an element of `Stab(r)`, the automorphisms mapping the
    /// undirected edge `r` onto itself, so the plan breaks that group
    /// instead of `Aut` (a constraint from outside it could discard the
    /// one image that passes through the changed edge). Orbits are fixed
    /// in matching order, so when `Stab(r)` swaps `a` and `b` the first
    /// constraint is position 0 < position 1 and the edge filter admits
    /// one orientation of each seed. The plan keeps exactly one of the
    /// `|Stab(r)|` images (see [`crate::symmetry`]); `aut_size` is
    /// `|Stab(r)|`. Rooted plans break `Stab(r)` whatever
    /// `options.symmetry_breaking` says, and record `true` there.
    pub fn build_rooted(pattern: &Pattern, a: usize, b: usize, options: PlanOptions) -> Self {
        let order = MatchingOrder::compute_rooted(pattern, a, b);
        let sb =
            SymmetryBreaking::fix(edge_stabilizer(&automorphisms(pattern), a, b), &order.order);
        let options = PlanOptions {
            symmetry_breaking: true,
            ..options
        };
        Self::from_order(pattern, order, options, sb)
    }

    fn from_order(
        pattern: &Pattern,
        order: MatchingOrder,
        options: PlanOptions,
        sb: SymmetryBreaking,
    ) -> Self {
        let k = order.len();
        let reuse = if options.intersection_reuse {
            ReusePlan::compute(&order)
        } else {
            ReusePlan {
                steps: vec![None; k],
            }
        };
        let mut reused = vec![false; k];
        for step in reuse.steps.iter().flatten() {
            reused[step.source] = true;
        }

        let mut greater_than: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut less_than: Vec<Vec<usize>> = vec![Vec::new(); k];
        for c in &sb.constraints {
            let ps = order.position[c.small];
            let pl = order.position[c.large];
            if ps < pl {
                // When matching the later position pl, its candidate must
                // exceed the already-matched ps.
                greater_than[pl].push(ps);
            } else {
                // ps matched later: its candidate must be below pl's match.
                less_than[ps].push(pl);
            }
        }

        let levels = (0..k)
            .map(|i| {
                let u = order.order[i];
                LevelPlan {
                    vertex: u,
                    label: pattern.label(u),
                    degree: pattern.degree(u),
                    backward: order.backward[i].clone(),
                    reuse: reuse.steps[i].clone(),
                    reused: reused[i],
                    greater_than: std::mem::take(&mut greater_than[i]),
                    less_than: std::mem::take(&mut less_than[i]),
                }
            })
            .collect();

        Self {
            pattern: pattern.clone(),
            order,
            levels,
            aut_size: sb.aut_size,
            options,
        }
    }

    /// Number of query vertices `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.levels.len()
    }

    /// Remaps a position-indexed assignment (`m[i]` = data vertex at
    /// matching position `i`, as the engines emit it) to pattern-vertex
    /// indexing (`out[u]` = data vertex for pattern vertex `u`).
    pub fn by_vertex(&self, by_pos: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; by_pos.len()];
        for (&u, &v) in self.order.order.iter().zip(by_pos) {
            out[u] = v;
        }
        out
    }

    /// Checks the compiled per-level symmetry constraints against a full
    /// position-indexed assignment (`m[i]` = data vertex at position `i`).
    pub fn constraints_satisfied(&self, m: &[u32]) -> bool {
        self.levels.iter().enumerate().all(|(i, l)| {
            l.greater_than.iter().all(|&j| m[j] < m[i]) && l.less_than.iter().all(|&j| m[i] < m[j])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::PatternId;
    use crate::symmetry::SymmetryBreaking;

    #[test]
    fn plan_levels_cover_all_positions() {
        for id in PatternId::all() {
            let p = id.pattern();
            let plan = QueryPlan::build(&p);
            assert_eq!(plan.k(), p.num_vertices());
            for (i, l) in plan.levels.iter().enumerate() {
                assert_eq!(l.vertex, plan.order.order[i]);
                assert_eq!(l.degree, p.degree(l.vertex));
                assert_eq!(l.label, p.label(l.vertex));
            }
        }
    }

    #[test]
    fn compiled_constraints_equal_raw_constraints() {
        for id in PatternId::all() {
            let p = id.pattern();
            let plan = QueryPlan::build(&p);
            let sb = SymmetryBreaking::compute(&p);
            let k = p.num_vertices();
            // Try a bunch of injective assignments; both representations
            // must agree.
            let perms = crate::automorphism::automorphisms(&crate::pattern::Pattern::from_edges(
                k,
                &all_pairs(k),
            ));
            for perm in perms {
                // Position-indexed assignment from a vertex permutation.
                let by_vertex: Vec<u32> = perm.iter().map(|&x| x as u32 * 3 + 1).collect();
                let by_pos: Vec<u32> = (0..k).map(|i| by_vertex[plan.order.order[i]]).collect();
                assert_eq!(plan.by_vertex(&by_pos), by_vertex, "{}", id.name());
                assert_eq!(
                    plan.constraints_satisfied(&by_pos),
                    sb.satisfied(&by_vertex),
                    "{}",
                    id.name()
                );
            }
        }
    }

    fn all_pairs(k: usize) -> Vec<(usize, usize)> {
        let mut e = Vec::new();
        for u in 0..k {
            for v in (u + 1)..k {
                e.push((u, v));
            }
        }
        e
    }

    #[test]
    fn options_disable_features() {
        let p = PatternId(2).pattern(); // K4
        let plan = QueryPlan::build_with(
            &p,
            PlanOptions {
                symmetry_breaking: false,
                intersection_reuse: false,
            },
        );
        assert_eq!(plan.aut_size, 1);
        assert!(plan
            .levels
            .iter()
            .all(|l| l.greater_than.is_empty() && l.less_than.is_empty() && l.reuse.is_none()));
    }

    #[test]
    fn k4_plan_has_full_order_constraints() {
        let plan = QueryPlan::build(&PatternId(2).pattern());
        assert_eq!(plan.aut_size, 24);
        let total: usize = plan
            .levels
            .iter()
            .map(|l| l.greater_than.len() + l.less_than.len())
            .sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn rooted_plan_pins_anchor_and_breaks_its_stabilizer() {
        let mut patterns: Vec<Pattern> = PatternId::all().map(|id| id.pattern()).collect();
        patterns.push(Pattern::cycle(4));
        for p in &patterns {
            let auts = crate::automorphism::automorphisms(p);
            for &(a, b) in &crate::automorphism::edge_orbit_reps(p) {
                for (x, y) in [(a, b), (b, a)] {
                    let stab = crate::automorphism::edge_stabilizer(&auts, x, y);
                    // Symmetry breaking off in the options changes nothing.
                    for symmetry_breaking in [true, false] {
                        let options = PlanOptions {
                            symmetry_breaking,
                            intersection_reuse: true,
                        };
                        let plan = QueryPlan::build_rooted(p, x, y, options);
                        let at = format!("{p:?} ({x},{y})");
                        assert_eq!(plan.order.order[0], x, "{at}");
                        assert_eq!(plan.order.order[1], y, "{at}");
                        assert_eq!(plan.aut_size, stab.len(), "{at}");
                        assert!(plan.options.symmetry_breaking, "{at}");
                        // The anchor's pair constraint, position 0 < 1,
                        // is there exactly when Stab(r) swaps its ends,
                        // and no constraint puts position 1 below 0.
                        let swaps = stab.iter().any(|s| s[x] == y);
                        assert_eq!(plan.levels[1].greater_than.contains(&0), swaps, "{at}");
                        assert!(plan.levels[1].less_than.is_empty(), "{at}");
                        // Position 1 is backward-adjacent to position 0,
                        // the invariant the edge-seeded task path relies
                        // on.
                        assert_eq!(plan.levels[1].backward, vec![0]);
                    }
                }
            }
        }
        // The house's four edge orbits, in `edge_orbit_reps` order.
        let house = PatternId(3).pattern();
        let sizes: Vec<usize> = crate::automorphism::edge_orbit_reps(&house)
            .iter()
            .map(|&(a, b)| QueryPlan::build_rooted(&house, a, b, PlanOptions::default()).aut_size)
            .collect();
        assert_eq!(sizes, vec![2, 1, 1, 2]);
    }

    #[test]
    fn reused_flags_mark_reuse_sources() {
        for id in PatternId::all() {
            let plan = QueryPlan::build(&id.pattern());
            for (i, level) in plan.levels.iter().enumerate() {
                let read = plan
                    .levels
                    .iter()
                    .any(|l| l.reuse.as_ref().is_some_and(|s| s.source == i));
                assert_eq!(level.reused, read, "{} level {i}", id.name());
            }
        }
        assert!(QueryPlan::build(&PatternId(7).pattern()).levels[2].reused);
    }

    #[test]
    fn reuse_present_for_cliques() {
        let plan = QueryPlan::build(&PatternId(7).pattern());
        assert!(plan.levels.iter().any(|l| l.reuse.is_some()));
    }
}
