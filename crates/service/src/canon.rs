//! Canonical pattern encodings for plan-cache keys.
//!
//! Two isomorphic patterns should hit the same cache slot even when the
//! client numbers their vertices differently. Query patterns are tiny
//! (≤ 32 vertices by construction, ≤ 8 in the paper's workload), so
//! exact canonicalization by a bounded search is affordable once the
//! search is narrowed, as in individualization-refinement canonizers:
//!
//! - **Refine.** Vertices start in (degree, label) cells, and colour
//!   refinement splits every cell by its members' neighbour counts in
//!   each cell until no cell splits. Any isomorphism respects the
//!   refined cells, and the cells are ordered by an invariant of the
//!   pattern's structure.
//! - **Individualize.** The search branches on each member of the first
//!   cell that refinement cannot split, singles it out and refines
//!   again, down to one cell per vertex. A cell whose members are
//!   interchangeable twins (the same neighbours outside it, and a clique
//!   or no edge inside) is not branched on: every order of it encodes
//!   alike.
//!
//! The minimum encoding over the search's leaves is the canonical form.
//! The search visits at most as many leaves as the refined cells have
//! orderings, and usually far fewer: 24 instead of 720 for P10, one for
//! a clique. When the refined cells allow more than [`CANON_BUDGET`]
//! orderings, we fall back to the raw as-given encoding: the cache then
//! simply treats differently-presented isomorphic patterns as distinct
//! keys, which costs a duplicate entry but never correctness.

use tdfs_query::Pattern;

/// Maximum number of class-respecting permutations to enumerate before
/// falling back to the raw encoding.
pub const CANON_BUDGET: usize = 50_000;

/// A hashable pattern encoding: vertex count, per-vertex labels, and
/// adjacency bitmasks, all in encoding order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternKey {
    /// `true` when the exact canonical form was computed; `false` for
    /// the raw-encoding fallback.
    pub canonical: bool,
    encoded: Vec<u64>,
}

/// Encodes `p` with vertex `u` renamed to `perm[u]`.
fn encode_permuted(p: &Pattern, perm: &[usize]) -> Vec<u64> {
    let n = p.num_vertices();
    let mut adj = vec![0u64; n];
    let mut labels = vec![0u64; n];
    for u in 0..n {
        labels[perm[u]] = u64::from(p.label(u));
        for v in p.neighbors(u) {
            adj[perm[u]] |= 1 << perm[v];
        }
    }
    let mut out = Vec::with_capacity(1 + 2 * n);
    out.push(n as u64);
    out.extend_from_slice(&labels);
    out.extend_from_slice(&adj);
    out
}

/// An ordered partition of the pattern's vertices, one bitmask per
/// cell.
type Cells = Vec<u32>;

/// The vertices of `cell`, ascending.
fn members(cell: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |&u| cell >> u & 1 == 1)
}

/// The (degree, label) cells, ordered by (degree, label).
fn degree_cells(p: &Pattern) -> Cells {
    let mut keyed: Vec<(usize, u32, usize)> = (0..p.num_vertices())
        .map(|u| (p.degree(u), p.label(u), u))
        .collect();
    keyed.sort_unstable();
    let mut cells = Cells::new();
    for (i, &(d, l, u)) in keyed.iter().enumerate() {
        if i == 0 || (d, l) != (keyed[i - 1].0, keyed[i - 1].1) {
            cells.push(0);
        }
        *cells.last_mut().expect("pushed") |= 1 << u;
    }
    cells
}

/// Colour refinement: splits every cell by its members' neighbour
/// counts in each cell, in rounds, until a round splits nothing.
/// Sub-cells are ordered by their count vectors, which depend on the
/// cell order alone, never on vertex numbers.
fn refine(adj: &[u32], cells: &mut Cells) {
    loop {
        let mut next = Cells::with_capacity(adj.len());
        for &cell in cells.iter() {
            if cell.count_ones() == 1 {
                next.push(cell);
                continue;
            }
            let mut keyed: Vec<(Vec<u32>, usize)> = members(cell)
                .map(|u| {
                    let counts = cells.iter().map(|&c| (adj[u] & c).count_ones()).collect();
                    (counts, u)
                })
                .collect();
            keyed.sort_unstable();
            for (i, (counts, u)) in keyed.iter().enumerate() {
                if i == 0 || *counts != keyed[i - 1].0 {
                    next.push(0);
                }
                *next.last_mut().expect("pushed") |= 1 << u;
            }
        }
        if next.len() == cells.len() {
            return;
        }
        *cells = next;
    }
}

/// Whether every order of `cell`'s members is an automorphism that
/// fixes every other vertex: the members share their neighbours outside
/// the cell, and the cell is a clique or has no edge. (Members of a cell
/// share their label.)
fn twins(adj: &[u32], cell: u32) -> bool {
    let first = members(cell).next().expect("cells are non-empty");
    let clique = adj[first] & cell != 0;
    members(cell).all(|u| {
        let inside = if clique { cell & !(1 << u) } else { 0 };
        adj[u] & !cell == adj[first] & !cell && adj[u] & cell == inside
    })
}

/// Refines `cells`, then either encodes the leaf (no cell left to
/// branch on) into `best` when it is smaller, or branches on each member
/// of the first non-twin cell with more than one member.
fn search(p: &Pattern, adj: &[u32], mut cells: Cells, best: &mut Option<Vec<u64>>) {
    refine(adj, &mut cells);
    let Some(i) = cells
        .iter()
        .position(|&c| c.count_ones() > 1 && !twins(adj, c))
    else {
        let mut perm = vec![0usize; p.num_vertices()];
        for (at, u) in cells.iter().flat_map(|&c| members(c)).enumerate() {
            perm[u] = at;
        }
        let enc = encode_permuted(p, &perm);
        if best.as_ref().is_none_or(|b| enc < *b) {
            *best = Some(enc);
        }
        return;
    };
    for v in members(cells[i]) {
        let mut single = Cells::with_capacity(cells.len() + 1);
        single.extend_from_slice(&cells[..i]);
        single.extend([1 << v, cells[i] & !(1 << v)]);
        single.extend_from_slice(&cells[i + 1..]);
        search(p, adj, single, best);
    }
}

/// The orderings of `cells`: the product of their sizes' factorials,
/// saturating.
fn orderings(cells: &[u32]) -> usize {
    cells
        .iter()
        .flat_map(|&c| 1..=c.count_ones() as usize)
        .fold(1usize, usize::saturating_mul)
}

impl PatternKey {
    /// Computes the cache key for `p`: the canonical encoding when the
    /// refined cells allow at most [`CANON_BUDGET`] orderings, the raw
    /// encoding otherwise.
    pub fn of(p: &Pattern) -> Self {
        let adj: Vec<u32> = (0..p.num_vertices()).map(|u| p.adj_mask(u)).collect();
        let mut cells = degree_cells(p);
        refine(&adj, &mut cells);
        if orderings(&cells) > CANON_BUDGET {
            let identity: Vec<usize> = (0..p.num_vertices()).collect();
            return Self {
                canonical: false,
                encoded: encode_permuted(p, &identity),
            };
        }
        let mut best = None;
        search(p, &adj, cells, &mut best);
        Self {
            canonical: true,
            encoded: best.expect("the search reaches at least one leaf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isomorphic_presentations_share_a_key() {
        // The diamond (4-cycle plus a chord), presented two ways.
        let a = Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let b = Pattern::from_edges(4, &[(2, 3), (3, 0), (0, 1), (1, 2), (3, 1)]);
        let ka = PatternKey::of(&a);
        let kb = PatternKey::of(&b);
        assert!(ka.canonical && kb.canonical);
        assert_eq!(ka, kb);
    }

    #[test]
    fn non_isomorphic_patterns_differ() {
        let path = Pattern::path(4);
        let star = Pattern::star(3);
        let cycle = Pattern::cycle(4);
        let kp = PatternKey::of(&path);
        let ks = PatternKey::of(&star);
        let kc = PatternKey::of(&cycle);
        assert_ne!(kp, ks);
        assert_ne!(kp, kc);
        assert_ne!(ks, kc);
    }

    #[test]
    fn labels_distinguish() {
        let plain = Pattern::cycle(4);
        let labeled = Pattern::cycle(4).with_mod_labels(2);
        assert_ne!(PatternKey::of(&plain), PatternKey::of(&labeled));
    }

    #[test]
    fn labeled_isomorphs_share_a_key() {
        // A path labeled 0-1-0 is isomorphic to its reversal.
        let a = Pattern::from_edges_labeled(3, &[(0, 1), (1, 2)], vec![0, 1, 0]);
        let b = Pattern::from_edges_labeled(3, &[(2, 1), (1, 0)], vec![0, 1, 0]);
        assert_eq!(PatternKey::of(&a), PatternKey::of(&b));
    }

    /// `p` with vertex `u` renamed `perm[u]`.
    fn relabel(p: &Pattern, perm: &[usize]) -> Pattern {
        let edges: Vec<(usize, usize)> =
            p.edges().iter().map(|&(u, v)| (perm[u], perm[v])).collect();
        let mut labels = vec![0; p.num_vertices()];
        for (u, &to) in perm.iter().enumerate() {
            labels[to] = p.label(u);
        }
        Pattern::from_edges_labeled(p.num_vertices(), &edges, labels)
    }

    use tdfs_query::PatternId;

    #[test]
    fn random_relabelings_of_every_pattern_share_a_key() {
        let mut state = 0x5EED_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        // Random 7-vertex patterns besides the catalogue's, for cells the
        // catalogue lacks.
        let mut random = Vec::new();
        for _ in 0..40 {
            let edges: Vec<(usize, usize)> = (0..7)
                .flat_map(|u| (u + 1..7).map(move |v| (u, v)))
                .filter(|_| next(2) == 0)
                .collect();
            random.push(Pattern::from_edges_labeled(
                7,
                &edges,
                (0..7).map(|_| next(2) as u32).collect(),
            ));
        }
        let named = PatternId::all().map(|id| (id.name(), id.pattern()));
        let random = random.into_iter().map(|p| ("random".to_string(), p));
        for (name, p) in named.chain(random) {
            let key = PatternKey::of(&p);
            assert!(key.canonical, "{name} searches within budget");
            for _ in 0..8 {
                let mut perm: Vec<usize> = (0..p.num_vertices()).collect();
                for i in (1..perm.len()).rev() {
                    perm.swap(i, next(i + 1));
                }
                assert_eq!(
                    PatternKey::of(&relabel(&p, &perm)),
                    key,
                    "{name} as {perm:?}"
                );
            }
        }
    }

    #[test]
    fn refinement_separates_patterns_with_one_degree_sequence() {
        // Both have degree sequence (3, 3, 2, 2, 2, 2): two triangles
        // joined by an edge, and a 6-cycle with one chord across it.
        let triangles =
            Pattern::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]);
        let chorded =
            Pattern::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let (a, b) = (PatternKey::of(&triangles), PatternKey::of(&chorded));
        assert!(a.canonical && b.canonical);
        assert_ne!(a, b);
    }

    #[test]
    fn refinement_splits_what_degrees_do_not() {
        // A 5-vertex path has two degree cells; its middle vertex is the
        // only degree-2 vertex with no degree-1 neighbour.
        let p = Pattern::path(5);
        let adj: Vec<u32> = (0..5).map(|u| p.adj_mask(u)).collect();
        let mut cells = degree_cells(&p);
        assert_eq!(cells, vec![0b10001, 0b01110]);
        refine(&adj, &mut cells);
        assert_eq!(cells, vec![0b10001, 0b00100, 0b01010]);
    }

    #[test]
    fn twin_cells_are_cliques_or_independent_sets_with_shared_neighbours() {
        let diamond = PatternId(1).pattern();
        let adj: Vec<u32> = (0..4).map(|u| diamond.adj_mask(u)).collect();
        assert!(twins(&adj, 0b1001), "the two degree-2 tips");
        assert!(twins(&adj, 0b0110), "the adjacent degree-3 pair");
        let c4 = Pattern::cycle(4);
        let adj: Vec<u32> = (0..4).map(|u| c4.adj_mask(u)).collect();
        assert!(!twins(&adj, 0b1111), "a 4-cycle is neither");
    }

    #[test]
    fn clique_canonicalizes_within_budget() {
        // K7: one class of 7 vertices → 5040 permutations, within budget.
        let k = Pattern::clique(7);
        assert!(PatternKey::of(&k).canonical);
    }

    #[test]
    fn degenerate_class_falls_back_to_raw() {
        // A 9-clique has 9! = 362880 class permutations > budget.
        let k = Pattern::clique(9);
        let key = PatternKey::of(&k);
        assert!(!key.canonical);
        // Fallback keys still work as exact-presentation keys.
        assert_eq!(key, PatternKey::of(&Pattern::clique(9)));
    }
}
