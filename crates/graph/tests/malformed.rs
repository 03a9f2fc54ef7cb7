//! Randomized malformed-input tests: untrusted bytes and corrupted CSR
//! parts must produce typed errors — never panics, never a structurally
//! invalid `CsrGraph`.

use std::io::Cursor;

use tdfs_graph::csr::GraphError;
use tdfs_graph::io::{read_edge_list, read_labels, IoError};
use tdfs_graph::rng::Rng;
use tdfs_graph::{CsrGraph, GraphBuilder, MAX_VERTEX_ID};

const CASES: u64 = 128;

fn random_graph(rng: &mut Rng) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (0..rng.gen_range(1..120))
        .map(|_| (rng.gen_range_u32(0..40), rng.gen_range_u32(0..40)))
        .collect();
    let mut b = GraphBuilder::new().edges(edges);
    if rng.gen_bool() {
        let g = b.clone().build();
        let labels = (0..g.num_vertices())
            .map(|_| rng.gen_range_u32(0..8))
            .collect();
        b = b.labels(labels);
    }
    b.build()
}

/// Checks the invariants every loader must guarantee on success.
fn assert_valid(g: &CsrGraph) {
    for v in 0..g.num_vertices() as u32 {
        let n = g.neighbors(v);
        assert!(n.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        for &u in n {
            assert!((u as usize) < g.num_vertices());
            assert_ne!(u, v, "no self-loop");
            assert!(g.has_edge(u, v), "symmetric");
        }
    }
}

#[test]
fn try_from_parts_accepts_valid_graphs() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xFEED + case);
        let g = random_graph(&mut rng);
        let (rp, ci, lb) = g.parts();
        let g2 = CsrGraph::try_from_parts(rp.to_vec(), ci.to_vec(), lb.to_vec())
            .expect("valid parts accepted");
        assert_eq!(g, g2);
    }
}

#[test]
fn try_from_parts_rejects_random_corruption() {
    let mut rejected = [0usize; 6];
    for case in 0..CASES * 4 {
        let mut rng = Rng::seed_from_u64(0xBAD0 + case);
        let g = random_graph(&mut rng);
        let (rp, ci, lb) = g.parts();
        let (mut rp, mut ci, mut lb) = (rp.to_vec(), ci.to_vec(), lb.to_vec());
        if ci.is_empty() {
            continue;
        }
        let n = rp.len() - 1;
        let kind = rng.gen_range(0..6);
        match kind {
            // Out-of-range neighbor.
            0 => {
                let i = rng.gen_range(0..ci.len());
                ci[i] = n as u32 + rng.next_u32() % 100;
            }
            // Self-loop: point some arc of vertex v back at v.
            1 => {
                let v = (0..n).find(|&v| rp[v] < rp[v + 1]).unwrap();
                ci[rp[v]] = v as u32;
            }
            // Unsorted adjacency: reverse a list of length >= 2.
            2 => {
                let Some(v) = (0..n).find(|&v| rp[v + 1] - rp[v] >= 2) else {
                    continue;
                };
                ci[rp[v]..rp[v + 1]].reverse();
            }
            // Non-monotone offsets.
            3 => {
                if rp.len() < 3 {
                    continue;
                }
                let i = rng.gen_range(1..rp.len() - 1);
                rp[i] = rp[rp.len() - 1] + 1 + rng.gen_range(0..5);
            }
            // Label count mismatch.
            4 => lb = vec![1; n + 1 + rng.gen_range(0..4)],
            // Label out of the i32 range.
            _ => {
                lb = vec![0; n];
                lb[rng.gen_range(0..n)] = MAX_VERTEX_ID + 1;
            }
        }
        let err = CsrGraph::try_from_parts(rp, ci, lb).expect_err("corruption must be rejected");
        // The variant must match the corruption class (self-loops may
        // surface as asymmetry when the overwritten arc breaks a pair;
        // reversal of a 2-list with adjacent values may alias a dup).
        let ok = match kind {
            // Overwriting a mid-list arc with a big id can trip the
            // sortedness check before the range check reaches it.
            0 => matches!(
                err,
                GraphError::NeighborOutOfRange { .. }
                    | GraphError::UnsortedAdjacency { .. }
                    | GraphError::AsymmetricAdjacency { .. }
            ),
            1 => matches!(
                err,
                GraphError::SelfLoop { .. }
                    | GraphError::UnsortedAdjacency { .. }
                    | GraphError::AsymmetricAdjacency { .. }
            ),
            2 => matches!(err, GraphError::UnsortedAdjacency { .. }),
            3 => matches!(
                err,
                GraphError::NonMonotoneOffsets { .. } | GraphError::BadLastOffset { .. }
            ),
            4 => matches!(err, GraphError::LabelCountMismatch { .. }),
            _ => matches!(err, GraphError::LabelOutOfRange { .. }),
        };
        assert!(ok, "kind {kind} produced unexpected error {err:?}");
        rejected[kind] += 1;
    }
    assert!(
        rejected.iter().all(|&c| c > 0),
        "every corruption class exercised: {rejected:?}"
    );
}

#[test]
fn edge_list_loader_survives_random_text() {
    let tokens = [
        "0",
        "1",
        "#",
        "x",
        "-3",
        "4294967296",
        "2147483648",
        "\t",
        "9 9",
        "",
    ];
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x7E87 + case);
        let mut text = String::new();
        for _ in 0..rng.gen_range(0..40) {
            for _ in 0..rng.gen_range(0..4) {
                text.push_str(tokens[rng.gen_range(0..tokens.len())]);
                text.push(' ');
            }
            text.push('\n');
        }
        if let Ok(g) = read_edge_list(Cursor::new(text)) {
            assert_valid(&g);
        }
    }
}

#[test]
fn edge_list_rejects_ids_past_i32() {
    let err = read_edge_list(Cursor::new("0 2147483648\n")).unwrap_err();
    assert!(matches!(err, IoError::Parse { line: 1, .. }));
}

#[test]
fn labels_reject_values_past_i32() {
    let g = GraphBuilder::new().edges([(0, 1)]).build();
    let err = read_labels(g, Cursor::new("0 2147483648\n")).unwrap_err();
    assert!(matches!(err, IoError::Parse { line: 1, .. }));
}
