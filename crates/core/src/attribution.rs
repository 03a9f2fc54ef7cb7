//! Attribution of a delta match to its smallest changed edge — how a
//! standing query's maintenance passes count each changed match once
//! without a dedup set.
//!
//! A maintenance pass enumerates the matches through a batch side's
//! changed edges: one rooted plan per pattern-edge orbit representative
//! `r`, seeded with both orientations of every changed edge. A match
//! holding several changed edges is reached from each of them. Ranking
//! the side's changed edges in one fixed order (ascending endpoints), a
//! pass anchored at changed edge `e` keeps a match only if no pattern
//! edge of the match lands on a changed edge that ranks below `e`. Each
//! match class then survives only in the passes anchored at its
//! smallest changed edge `e*`: in the pass of the representative `r`
//! whose orbit holds the pattern edge mapped onto `e*`, by the
//! embeddings that map `r` onto `e*`. Those differ by an element of
//! `Stab(r)`, and the rooted plan's symmetry constraints break `Stab(r)`
//! ([`QueryPlan::build_rooted`]), keeping exactly one of them. `owns`
//! reads only the match's data edges, which all of them share, so it
//! never tells them apart, and a side's distinct-match count is the
//! plain sum of its passes' counts.
//!
//! The check runs at the leaf, in the `keep` hook of the engines'
//! shared Eq. (1) walk (and at the materialized leaf of the ablation
//! path), one lookup per pattern edge of a match the plan already
//! accepted.

use tdfs_query::plan::QueryPlan;

/// One batch side's changed data edges, ranked in ascending
/// `(min, max)` endpoint order: the attribution order.
#[derive(Debug)]
pub struct ChangedEdges {
    /// The edges' keys, sorted and distinct; an edge's rank is its
    /// index. A batch side holds a few dozen edges, so a binary search
    /// finds one in a handful of probes of one or two cache lines, and
    /// no hash of client-chosen keys is involved.
    keys: Vec<u64>,
}

/// The key of the undirected edge `{u, v}`, ordered by `(min, max)`.
#[inline]
fn key(u: u32, v: u32) -> u64 {
    (u64::from(u.min(v)) << 32) | u64::from(u.max(v))
}

impl ChangedEdges {
    /// Ranks `edges`, whatever their order and endpoint order; a
    /// repeated edge counts once.
    pub fn new(edges: &[(u32, u32)]) -> Self {
        let mut keys: Vec<u64> = edges.iter().map(|&(u, v)| key(u, v)).collect();
        keys.sort_unstable();
        keys.dedup();
        Self { keys }
    }

    /// The rank of the data edge `{u, v}`, if it changed.
    #[inline]
    fn rank(&self, u: u32, v: u32) -> Option<usize> {
        self.keys.binary_search(&key(u, v)).ok()
    }

    /// Whether the pass anchored at `{m[0], m[1]}` keeps the complete
    /// match whose positions `0..k-1` are `m[..k-1]` and whose last
    /// position is `leaf`: no pattern edge of it lands on a changed edge
    /// ranked below the anchor's.
    #[inline]
    pub fn owns(&self, plan: &QueryPlan, m: &[u32], leaf: u32) -> bool {
        let k = plan.k();
        let anchor = self.rank(m[0], m[1]);
        debug_assert!(anchor.is_some(), "a pass is anchored at a changed edge");
        let anchor = anchor.unwrap_or(usize::MAX);
        // Position 1's only backward edge is the anchor itself.
        plan.levels[2..].iter().enumerate().all(|(i, level)| {
            let x = if i + 3 == k { leaf } else { m[i + 2] };
            level
                .backward
                .iter()
                .all(|&j| self.rank(m[j], x).is_none_or(|r| r >= anchor))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfs_query::plan::PlanOptions;
    use tdfs_query::Pattern;

    #[test]
    fn ranks_follow_endpoint_order_whatever_the_orientation() {
        let c = ChangedEdges::new(&[(5, 2), (9, 1), (2, 5)]);
        assert_eq!(c.rank(1, 9), Some(0));
        assert_eq!(c.rank(9, 1), Some(0));
        assert_eq!(c.rank(5, 2), Some(1));
        assert_eq!(c.rank(1, 2), None);
    }

    #[test]
    fn a_match_belongs_to_the_pass_of_its_smallest_changed_edge() {
        // Triangle rooted at pattern edge (0, 1): positions 0, 1 take the
        // anchor and position 2 closes both other edges.
        let plan = QueryPlan::build_rooted(&Pattern::clique(3), 0, 1, PlanOptions::default());
        // Data triangle {1, 2, 3}; edges {1,2} and {2,3} changed, in that
        // order.
        let c = ChangedEdges::new(&[(1, 2), (2, 3)]);
        assert!(c.owns(&plan, &[1, 2], 3), "anchored at rank 0");
        assert!(c.owns(&plan, &[2, 1], 3), "either orientation");
        assert!(!c.owns(&plan, &[2, 3], 1), "{{1,2}} ranks below {{2,3}}");
        assert!(!c.owns(&plan, &[3, 2], 1));
    }
}
