//! The embedder under its former path.
//!
//! This module only re-exports [`crate::check_planarity`], the left-right
//! embedder. It exists so that the `perfbench/` cold-pass replay, which
//! imports `planartest_embed::demoucron::check_planarity`, keeps compiling
//! and keeps timing the embedder Stage II actually calls. New code uses the
//! crate root. The Demoucron–Malgrange–Pertuiset embedder itself now lives
//! in this crate's tests as the oracle the left-right embedder is checked
//! against.
//!
//! The unit tests below run through this path, so the path perfbench
//! times stays covered.

pub use crate::lr::check_planarity;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_planar, PlanarityCheck};
    use planartest_graph::generators::{nonplanar, planar};
    use planartest_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_planar(g: &Graph) {
        match check_planarity(g) {
            PlanarityCheck::Planar(rot) => {
                assert!(rot.is_planar_embedding(g), "returned rotation must verify");
            }
            PlanarityCheck::NonPlanar => panic!("graph wrongly declared non-planar"),
        }
    }

    #[test]
    fn small_planar_graphs() {
        assert_planar(&Graph::empty(0));
        assert_planar(&Graph::empty(5));
        assert_planar(&Graph::from_edges(2, [(0, 1)]).unwrap());
        assert_planar(&Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap());
        assert_planar(
            &Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap(),
        );
    }

    #[test]
    fn k5_and_k33_rejected() {
        assert!(!is_planar(&nonplanar::complete(5).graph));
        assert!(!is_planar(&nonplanar::complete_bipartite(3, 3).graph));
        assert!(!is_planar(&nonplanar::complete(6).graph));
    }

    #[test]
    fn k4_and_k23_accepted() {
        assert!(is_planar(&nonplanar::complete(4).graph));
        assert!(is_planar(&nonplanar::complete_bipartite(2, 3).graph));
    }

    #[test]
    fn grids_planar() {
        assert_planar(&planar::grid(6, 7).graph);
        assert_planar(&planar::triangulated_grid(5, 5).graph);
    }

    #[test]
    fn apollonian_planar() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [3usize, 4, 5, 10, 60, 200] {
            assert_planar(&planar::apollonian(n, &mut rng).graph);
        }
    }

    #[test]
    fn outerplanar_planar() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [3usize, 6, 25, 120] {
            assert_planar(&planar::maximal_outerplanar(n, &mut rng).graph);
        }
    }

    #[test]
    fn random_planar_planar() {
        let mut rng = StdRng::seed_from_u64(9);
        for keep in [0.3, 0.7, 1.0] {
            assert_planar(&planar::random_planar(80, keep, &mut rng).graph);
        }
    }

    #[test]
    fn trees_and_forests_planar() {
        let mut rng = StdRng::seed_from_u64(10);
        assert_planar(&planar::random_tree(100, &mut rng).graph);
        assert_planar(&Graph::from_edges(6, [(0, 1), (2, 3), (4, 5)]).unwrap());
    }

    #[test]
    fn planar_plus_chords_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let c = nonplanar::planar_plus_chords(40, 12, &mut rng);
        assert!(!is_planar(&c.graph));
    }

    #[test]
    fn petersen_graph_rejected() {
        // The Petersen graph is a classic non-planar graph with m < 3n-6.
        let outer: Vec<(usize, usize)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        let spokes: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 5)).collect();
        let inner: Vec<(usize, usize)> = (0..5).map(|i| (5 + i, 5 + (i + 2) % 5)).collect();
        let edges: Vec<_> = outer.into_iter().chain(spokes).chain(inner).collect();
        let g = Graph::from_edges(10, edges).unwrap();
        assert_eq!(g.m(), 15); // m = 15 <= 3*10-6 = 24: Euler can't reject
        assert!(!is_planar(&g));
    }

    #[test]
    fn blocks_stitched_at_cut_vertices() {
        // Two K4s sharing a vertex, plus a pendant path.
        let mut edges = vec![];
        for i in 0..4usize {
            for j in i + 1..4 {
                edges.push((i, j));
            }
        }
        for i in 3..7usize {
            for j in i + 1..7 {
                edges.push((i, j));
            }
        }
        edges.push((6, 7));
        edges.push((7, 8));
        let g = Graph::from_edges(9, edges).unwrap();
        assert_planar(&g);
    }

    #[test]
    fn dense_graph_fast_reject() {
        let g = nonplanar::complete(30).graph;
        assert!(!is_planar(&g)); // m >> 3n-6 triggers the Euler cut-off
    }

    #[test]
    fn k33_subdivision_rejected() {
        // Subdivide every edge of K3,3 once: still non-planar, sparse.
        let k33 = nonplanar::complete_bipartite(3, 3).graph;
        let mut b = planartest_graph::GraphBuilder::new(6 + k33.m());
        for (i, (u, v)) in k33.edges().enumerate() {
            let mid = 6 + i;
            b.add_edge(u.index(), mid).unwrap();
            b.add_edge(mid, v.index()).unwrap();
        }
        let g = b.build();
        assert!(!is_planar(&g));
    }

    #[test]
    fn planar_with_many_blocks() {
        // A long chain of triangles sharing single vertices.
        let k = 40;
        let mut edges = Vec::new();
        for t in 0..k {
            let base = 2 * t;
            edges.push((base, base + 1));
            edges.push((base + 1, base + 2));
            edges.push((base, base + 2));
        }
        let g = Graph::from_edges(2 * k + 1, edges).unwrap();
        assert_planar(&g);
    }
}
