//! Exact automorphism-group enumeration for query graphs.
//!
//! The paper uses the BLISS library to compute automorphism groups of
//! input queries ("T-DFS integrates the BLISS library for computing the
//! automorphism groups of the input queries", §IV-B). Query graphs are
//! tiny (≤ 6 vertices in the evaluation), so an exhaustive
//! degree-and-label-pruned backtracking search is exact and instant.

use crate::pattern::Pattern;

/// A vertex permutation: `perm[u]` is the image of `u`.
pub type Permutation = Vec<usize>;

/// Enumerates the full automorphism group of `p` (including identity).
///
/// An automorphism must preserve adjacency *and* vertex labels.
pub fn automorphisms(p: &Pattern) -> Vec<Permutation> {
    let n = p.num_vertices();
    let mut result = Vec::new();
    let mut perm = vec![usize::MAX; n];
    let mut used = vec![false; n];
    search(p, 0, &mut perm, &mut used, &mut result);
    debug_assert!(!result.is_empty());
    debug_assert_eq!(result.len() % orbit_of(&result, 0).len(), 0);
    result
}

fn search(
    p: &Pattern,
    u: usize,
    perm: &mut Vec<usize>,
    used: &mut Vec<bool>,
    out: &mut Vec<Permutation>,
) {
    let n = p.num_vertices();
    if u == n {
        out.push(perm.clone());
        return;
    }
    for img in 0..n {
        if used[img] || p.degree(img) != p.degree(u) || p.label(img) != p.label(u) {
            continue;
        }
        // Adjacency with already-mapped vertices must be preserved.
        let ok = (0..u).all(|w| p.has_edge(u, w) == p.has_edge(img, perm[w]));
        if !ok {
            continue;
        }
        perm[u] = img;
        used[img] = true;
        search(p, u + 1, perm, used, out);
        used[img] = false;
        perm[u] = usize::MAX;
    }
}

/// The orbit of vertex `v` under a permutation group: the set of images
/// of `v` across all group elements, sorted ascending.
pub fn orbit_of(group: &[Permutation], v: usize) -> Vec<usize> {
    let mut orbit: Vec<usize> = group.iter().map(|g| g[v]).collect();
    orbit.sort_unstable();
    orbit.dedup();
    orbit
}

/// The stabilizer subgroup fixing vertex `v`.
pub fn stabilizer(group: &[Permutation], v: usize) -> Vec<Permutation> {
    group.iter().filter(|g| g[v] == v).cloned().collect()
}

/// The stabilizer of the undirected edge `{a, b}`: the elements of
/// `group` that map `{a, b}` onto itself, keeping or swapping its ends.
pub fn edge_stabilizer(group: &[Permutation], a: usize, b: usize) -> Vec<Permutation> {
    group
        .iter()
        .filter(|g| (g[a], g[b]) == (a, b) || (g[a], g[b]) == (b, a))
        .cloned()
        .collect()
}

/// One representative per orbit of *undirected* pattern edges under
/// `Aut(p)`, each returned as `(a, b)` with `a < b` in ascending order.
///
/// Two pattern edges in the same orbit enumerate identical match sets
/// when anchored to the same data edge, so incremental maintenance
/// seeds one rooted plan per representative (with both orientations of
/// each changed data edge, since a rooted order distinguishes which
/// endpoint sits at position 0). Every pattern edge lies in exactly one
/// representative's orbit, so seeding all representatives over a
/// changed data edge reaches every `Aut`-class through that edge.
pub fn edge_orbit_reps(p: &Pattern) -> Vec<(usize, usize)> {
    let group = automorphisms(p);
    let n = p.num_vertices();
    let mut covered = vec![false; n * n];
    let mut reps = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if !p.has_edge(a, b) || covered[a * n + b] {
                continue;
            }
            reps.push((a, b));
            for g in &group {
                let (x, y) = (g[a].min(g[b]), g[a].max(g[b]));
                covered[x * n + y] = true;
            }
        }
    }
    reps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::PatternId;

    #[test]
    fn k4_has_24_automorphisms() {
        assert_eq!(automorphisms(&PatternId(2).pattern()).len(), 24);
    }

    #[test]
    fn k5_has_120() {
        assert_eq!(automorphisms(&PatternId(7).pattern()).len(), 120);
    }

    #[test]
    fn hexagon_dihedral_12() {
        assert_eq!(automorphisms(&PatternId(8).pattern()).len(), 12);
    }

    #[test]
    fn diamond_has_4() {
        // K4 minus an edge: swap the two degree-3 vertices and/or the two
        // degree-2 vertices.
        assert_eq!(automorphisms(&PatternId(1).pattern()).len(), 4);
    }

    #[test]
    fn prism_has_12() {
        assert_eq!(automorphisms(&PatternId(9).pattern()).len(), 12);
    }

    #[test]
    fn octahedron_has_48() {
        assert_eq!(automorphisms(&PatternId(10).pattern()).len(), 48);
    }

    #[test]
    fn labels_restrict_group() {
        // Labeled K4 with labels (i mod 4): all four vertices distinct
        // labels, so only the identity remains.
        assert_eq!(automorphisms(&PatternId(13).pattern()).len(), 1);
    }

    #[test]
    fn identity_always_present() {
        for id in PatternId::all() {
            let p = id.pattern();
            let auts = automorphisms(&p);
            let identity: Vec<usize> = (0..p.num_vertices()).collect();
            assert!(auts.contains(&identity), "{}", id.name());
        }
    }

    #[test]
    fn group_closed_under_composition() {
        let p = PatternId(8).pattern();
        let auts = automorphisms(&p);
        for a in &auts {
            for b in &auts {
                let composed: Vec<usize> = (0..p.num_vertices()).map(|v| a[b[v]]).collect();
                assert!(auts.contains(&composed));
            }
        }
    }

    #[test]
    fn edge_orbits_of_transitive_patterns_collapse_to_one() {
        // Cliques and cycles are edge-transitive: a single orbit.
        assert_eq!(edge_orbit_reps(&crate::Pattern::clique(3)).len(), 1);
        for id in [2u8, 7, 8] {
            let p = PatternId(id).pattern();
            assert_eq!(edge_orbit_reps(&p).len(), 1, "P{id}");
        }
    }

    #[test]
    fn house_pattern_has_four_edge_orbits() {
        // House (triangle on a square): the roof-apex spokes, the two
        // "wall" edges, the floor, and the ceiling form 4 orbits.
        let p = PatternId(3).pattern();
        assert_eq!(edge_orbit_reps(&p).len(), 4);
    }

    #[test]
    fn edge_orbit_reps_cover_every_edge_exactly_once() {
        for id in PatternId::all() {
            let p = id.pattern();
            let group = automorphisms(&p);
            let reps = edge_orbit_reps(&p);
            let mut seen = std::collections::BTreeMap::new();
            for &(a, b) in &reps {
                assert!(p.has_edge(a, b), "{}", id.name());
                for g in &group {
                    let key = (g[a].min(g[b]), g[a].max(g[b]));
                    *seen.entry(key).or_insert(0usize) += 1;
                }
            }
            // Every pattern edge is in the orbit of exactly one rep.
            for u in 0..p.num_vertices() {
                for v in (u + 1)..p.num_vertices() {
                    if p.has_edge(u, v) {
                        assert!(seen.contains_key(&(u, v)), "{} ({u},{v})", id.name());
                    }
                }
            }
            // Orbits partition the edge set: rep count × nothing double.
            let orbits: std::collections::BTreeSet<_> = reps
                .iter()
                .map(|&(a, b)| {
                    let mut o: Vec<_> = group
                        .iter()
                        .map(|g| (g[a].min(g[b]), g[a].max(g[b])))
                        .collect();
                    o.sort_unstable();
                    o.dedup();
                    o
                })
                .collect();
            let total: usize = orbits.iter().map(|o| o.len()).sum();
            assert_eq!(total, p.num_edges(), "{}", id.name());
        }
    }

    #[test]
    fn orbit_and_stabilizer_sizes_multiply() {
        // Orbit–stabilizer theorem: |G| = |orbit(v)| · |stab(v)|.
        for id in [1u8, 2, 8, 9, 10] {
            let p = PatternId(id).pattern();
            let g = automorphisms(&p);
            for v in 0..p.num_vertices() {
                let orbit = orbit_of(&g, v);
                let stab = stabilizer(&g, v);
                assert_eq!(orbit.len() * stab.len(), g.len(), "P{id} v{v}");
            }
        }
    }
}
