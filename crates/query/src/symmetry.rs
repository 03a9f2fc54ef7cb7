//! Symmetry-breaking constraint generation.
//!
//! The paper breaks pattern symmetry by generating "constraints between
//! vertices" of the form `id(u_i) < id(u_j)` (§I, Fig. 1 discussion) from
//! the automorphism group — the standard orbit-fixing scheme also used by
//! GraphZero and Pangolin:
//!
//! 1. start from a group `A` of automorphisms (for a full query,
//!    `A = Aut(G_Q)`);
//! 2. while `|A| > 1`: pick the first vertex `v`, in a fixed vertex
//!    order, with a non-trivial orbit; for every other `w` in
//!    `orbit_A(v)` emit the constraint `id(v) < id(w)`; replace `A` by
//!    the stabilizer of `v`.
//!
//! Each class of `|A|` images `m ∘ σ` (`σ ∈ A`) of an injective
//! assignment `m` then has exactly one member satisfying all
//! constraints: the first step keeps the images that send `v` to the
//! smallest id of its orbit, one coset of the stabilizer, and each later
//! step does the same inside the coset left, until the group is trivial.
//! That holds for any group and any vertex order. For a full query it
//! gives `matches_without_constraints = matches_with_constraints × |Aut|`
//! — an identity the integration tests assert. A rooted maintenance plan
//! runs it over the stabilizer of its anchor edge, in matching order
//! (see [`crate::plan::QueryPlan::build_rooted`]).

use crate::automorphism::{automorphisms, orbit_of, stabilizer, Permutation};
use crate::pattern::Pattern;

/// An ordering constraint `id(small) < id(large)` between the data
/// vertices matched to two pattern vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Pattern vertex whose match must take the smaller data-vertex id.
    pub small: usize,
    /// Pattern vertex whose match must take the larger data-vertex id.
    pub large: usize,
}

/// Symmetry-breaking result: the constraints plus the size of the group
/// they neutralize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryBreaking {
    /// Pairwise `<` constraints over pattern vertices.
    pub constraints: Vec<Constraint>,
    /// The size of the group broken (`|Aut(G_Q)|` for a full query).
    pub aut_size: usize,
}

impl SymmetryBreaking {
    /// Computes constraints for `p` via orbit fixing over `Aut(p)`, in
    /// ascending vertex order.
    pub fn compute(p: &Pattern) -> Self {
        let order: Vec<usize> = (0..p.num_vertices()).collect();
        Self::fix(automorphisms(p), &order)
    }

    /// Orbit fixing over `group`, a group of pattern automorphisms,
    /// taking at each step the first vertex of `order` whose orbit is
    /// non-trivial. `order` must list every vertex the group moves.
    pub fn fix(mut group: Vec<Permutation>, order: &[usize]) -> Self {
        let aut_size = group.len();
        let mut constraints = Vec::new();
        while group.len() > 1 {
            let v = *order
                .iter()
                .find(|&&v| orbit_of(&group, v).len() > 1)
                .expect("non-trivial group must move some vertex");
            for w in orbit_of(&group, v) {
                if w != v {
                    constraints.push(Constraint { small: v, large: w });
                }
            }
            group = stabilizer(&group, v);
        }
        Self {
            constraints,
            aut_size,
        }
    }

    /// Checks a full assignment `m` (`m[u]` = data vertex for pattern
    /// vertex `u`) against every constraint. Used by the reference
    /// matcher and tests; the engine compiles constraints into its plan
    /// instead.
    pub fn satisfied(&self, m: &[u32]) -> bool {
        self.constraints.iter().all(|c| m[c.small] < m[c.large])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automorphism::{edge_orbit_reps, edge_stabilizer};
    use crate::patterns::PatternId;
    use crate::plan::{PlanOptions, QueryPlan};

    #[test]
    fn asymmetric_pattern_needs_no_constraints() {
        // Labeled K4 (distinct labels) has trivial Aut.
        let sb = SymmetryBreaking::compute(&PatternId(13).pattern());
        assert_eq!(sb.aut_size, 1);
        assert!(sb.constraints.is_empty());
    }

    #[test]
    fn k4_fully_ordered() {
        let sb = SymmetryBreaking::compute(&PatternId(2).pattern());
        assert_eq!(sb.aut_size, 24);
        // Fixing K4 requires a total order: 3 + 2 + 1 = 6 constraints.
        assert_eq!(sb.constraints.len(), 6);
        assert!(sb.satisfied(&[1, 2, 3, 4]));
        assert!(!sb.satisfied(&[2, 1, 3, 4]));
    }

    #[test]
    fn constraints_reference_valid_vertices() {
        for id in PatternId::all() {
            let p = id.pattern();
            let sb = SymmetryBreaking::compute(&p);
            for c in &sb.constraints {
                assert!(c.small < p.num_vertices());
                assert!(c.large < p.num_vertices());
                assert_ne!(c.small, c.large);
            }
        }
    }

    /// Injective assignments `u -> base[u]` of an `n`-vertex pattern:
    /// ascending, descending and interleaved ids.
    fn bases(n: usize) -> Vec<Vec<u32>> {
        let n32 = n as u32;
        vec![
            (0..n32).map(|u| u + 10).collect(),
            (0..n32).map(|u| 100 - u).collect(),
            (0..n32)
                .map(|u| if u % 2 == 0 { 10 + u } else { 100 - u })
                .collect(),
        ]
    }

    #[test]
    fn exactly_one_representative_per_orbit() {
        // Among the |group| images `base ∘ σ` of an injective assignment
        // (any injective map is an embedding into a clique), exactly one
        // satisfies the constraints broken over that group.
        let one_per_class = |n: usize, group: &[Permutation], ok: &dyn Fn(&[u32]) -> bool| {
            bases(n)
                .iter()
                .map(|base| {
                    group
                        .iter()
                        .filter(|a| ok(&(0..n).map(|u| base[a[u]]).collect::<Vec<u32>>()))
                        .count()
                })
                .all(|satisfying| satisfying == 1)
        };
        // The full group, in vertex order.
        for id in [1u8, 2, 8, 9, 10] {
            let p = PatternId(id).pattern();
            let sb = SymmetryBreaking::compute(&p);
            let auts = crate::automorphism::automorphisms(&p);
            let ok = |m: &[u32]| sb.satisfied(m);
            assert!(one_per_class(p.num_vertices(), &auts, &ok), "P{id}");
        }
        // The stabilizer of each edge-orbit representative r, in both
        // orientations, as its rooted plan compiles it: its images all
        // map r onto one data edge. P3 is the house.
        let mut patterns: Vec<(String, Pattern)> = PatternId::all()
            .map(|id| (id.name(), id.pattern()))
            .collect();
        patterns.push(("C4".into(), Pattern::cycle(4)));
        for (name, p) in &patterns {
            let auts = crate::automorphism::automorphisms(p);
            for (a, b) in edge_orbit_reps(p) {
                for (x, y) in [(a, b), (b, a)] {
                    let plan = QueryPlan::build_rooted(p, x, y, PlanOptions::default());
                    let stab = edge_stabilizer(&auts, x, y);
                    assert_eq!(plan.aut_size, stab.len(), "{name} ({x},{y})");
                    let ok = |by_vertex: &[u32]| {
                        let by_pos: Vec<u32> =
                            plan.order.order.iter().map(|&u| by_vertex[u]).collect();
                        plan.constraints_satisfied(&by_pos)
                    };
                    assert!(
                        one_per_class(p.num_vertices(), &stab, &ok),
                        "{name} ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn hexagon_aut_size() {
        let sb = SymmetryBreaking::compute(&PatternId(8).pattern());
        assert_eq!(sb.aut_size, 12);
        assert!(!sb.constraints.is_empty());
    }
}
