//! The left-right embedder against the Demoucron oracle.
//!
//! Three properties, each on generated inputs:
//!
//! 1. **Oracle equivalence**: the left-right verdict equals Demoucron's on
//!    planar families, planar graphs plus chords, Kuratowski subdivisions,
//!    sparse random `G(n, m)` around `m = 3n − 6`, and the 7-node Claim 10
//!    graph.
//! 2. **Structural invariants**: every returned rotation has genus 0 and
//!    every dart lies on exactly one traced face.
//! 3. **Determinism**: two runs return identical rotations.
//!
//! Large inputs (a 10⁵-node path, a 300 × 300 grid) check that no phase
//! recurses.

mod demoucron;

use planartest_embed::{check_planarity, PlanarityCheck, RotationSystem};
use planartest_graph::generators::{nonplanar, planar};
use planartest_graph::{Graph, GraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Checks the three properties on one graph and returns the verdict.
fn check_against_oracle(g: &Graph) -> bool {
    let lr = check_planarity(g);
    let oracle = demoucron::is_planar(g);
    assert_eq!(
        lr.is_planar(),
        oracle,
        "left-right and Demoucron disagree on n={} m={}",
        g.n(),
        g.m()
    );
    if let PlanarityCheck::Planar(rot) = &lr {
        assert_structure(g, rot);
        let again = check_planarity(g).into_rotation().expect("same verdict");
        assert_eq!(rot, &again, "two runs gave different rotations");
    }
    oracle
}

/// Genus 0, and every dart on exactly one face.
fn assert_structure(g: &Graph, rot: &RotationSystem) {
    assert_eq!(rot.genus(g), 0, "rotation is not planar");
    let mut seen = vec![0u8; 2 * g.m()];
    for face in rot.trace_faces(g) {
        for d in &face.darts {
            let (u, _) = g.endpoints(d.edge);
            seen[2 * d.edge.index() + usize::from(d.from != u)] += 1;
        }
    }
    assert!(
        seen.iter().all(|&c| c == 1),
        "some dart is on no face or on two"
    );
}

/// `g` with every edge subdivided by `0..=max_k` new nodes (random count
/// per edge).
fn subdivide(g: &Graph, max_k: usize, rng: &mut StdRng) -> Graph {
    let ks: Vec<usize> = g.edges().map(|_| rng.random_range(0..max_k + 1)).collect();
    let mut b = GraphBuilder::new(g.n() + ks.iter().sum::<usize>());
    let mut fresh = g.n();
    for ((u, v), &k) in g.edges().zip(&ks) {
        let mut prev = u.index();
        for _ in 0..k {
            b.add_edge(prev, fresh).unwrap();
            prev = fresh;
            fresh += 1;
        }
        b.add_edge(prev, v.index()).unwrap();
    }
    b.build()
}

/// The disjoint union of `a` and `b`, joined by one edge between their
/// node 0s (planarity is that of `a` and `b` together).
fn joined(a: &Graph, b: &Graph) -> Graph {
    let mut out = GraphBuilder::new(a.n() + b.n());
    for (u, v) in a.edges() {
        out.add_edge(u.index(), v.index()).unwrap();
    }
    for (u, v) in b.edges() {
        out.add_edge(a.n() + u.index(), a.n() + v.index()).unwrap();
    }
    out.add_edge(0, a.n()).unwrap();
    out.build()
}

/// Random simple graph with `n` nodes and (up to duplicates) `m` edges.
fn gnm(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(n);
    for _ in 0..m {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            b.add_edge(u, v).unwrap();
        }
    }
    b.build()
}

/// The Claim 10 counterexample: a 7-node Apollonian network.
fn claim10_graph() -> Graph {
    Graph::from_edges(
        7,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (1, 6),
            (2, 3),
            (2, 5),
            (2, 6),
            (3, 4),
            (5, 6),
        ],
    )
    .unwrap()
}

#[test]
fn planar_generators_agree_with_oracle() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut graphs = vec![
        Graph::empty(0),
        Graph::empty(4),
        planar::path(30).graph,
        planar::cycle(25).graph,
        planar::star(12).graph,
        planar::grid(9, 11).graph,
        planar::triangulated_grid(10, 8).graph,
        planar::road_network(8, 9, &mut rng).graph,
        claim10_graph(),
    ];
    for n in [3usize, 4, 5, 8, 30, 150] {
        graphs.push(planar::apollonian(n, &mut rng).graph);
        graphs.push(planar::maximal_outerplanar(n, &mut rng).graph);
        graphs.push(planar::random_tree(n, &mut rng).graph);
    }
    for keep in [0.2, 0.5, 0.8, 1.0] {
        graphs.push(planar::random_planar(120, keep, &mut rng).graph);
    }
    for g in &graphs {
        assert!(check_against_oracle(g), "a planar generator was rejected");
    }
}

#[test]
fn kuratowski_subdivisions_agree_with_oracle() {
    let mut rng = StdRng::seed_from_u64(2);
    let host = planar::triangulated_grid(5, 5).graph;
    for base in [
        nonplanar::complete(5).graph,
        nonplanar::complete_bipartite(3, 3).graph,
    ] {
        for k in 0..=4 {
            for _ in 0..4 {
                let sub = subdivide(&base, k, &mut rng);
                assert!(!check_against_oracle(&sub));
                assert!(!check_against_oracle(&joined(&host, &sub)));
            }
        }
        // One edge removed: the remainder is planar.
        let (minus, _) = base.edge_subgraph(|e| e.index() != 0);
        assert!(check_against_oracle(&subdivide(&minus, 3, &mut rng)));
    }
}

#[test]
fn claim10_graph_agrees_with_oracle() {
    let g = claim10_graph();
    assert!(check_against_oracle(&g));
}

#[test]
fn long_path_embeds_without_recursion() {
    let g = planar::path(100_000).graph;
    let rot = check_planarity(&g)
        .into_rotation()
        .expect("paths are planar");
    assert_eq!(rot.genus(&g), 0);
}

#[test]
fn large_grid_embeds_without_recursion() {
    let g = planar::grid(300, 300).graph;
    let rot = check_planarity(&g)
        .into_rotation()
        .expect("grids are planar");
    assert_eq!(rot.genus(&g), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planar graphs plus `k` chords, as the tester's far families build
    /// them.
    #[test]
    fn planar_plus_chords_agree_with_oracle(seed in 0u64..10_000, n in 8usize..60, k in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = nonplanar::planar_plus_chords(n, k, &mut rng).graph;
        prop_assert!(!check_against_oracle(&g));
    }

    /// Random planar graphs with a few random extra edges: a mix of
    /// planar and non-planar inputs with `m` well below `3n − 6`.
    #[test]
    fn random_planar_plus_edges_agree_with_oracle(seed in 0u64..10_000, keep in 0.2f64..0.9, extra in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = planar::random_planar(40, keep, &mut rng).graph;
        let mut b = GraphBuilder::new(base.n());
        for (u, v) in base.edges() {
            b.add_edge(u.index(), v.index()).unwrap();
        }
        for _ in 0..extra {
            let u = rng.random_range(0..base.n());
            let v = rng.random_range(0..base.n());
            if u != v {
                b.add_edge(u, v).unwrap();
            }
        }
        check_against_oracle(&b.build());
    }

    /// Sparse random `G(n, m)` with `m` around `3n − 6`, where the Euler
    /// bound does not decide and both verdicts occur.
    #[test]
    fn sparse_gnm_agrees_with_oracle(seed in 0u64..10_000, n in 5usize..16, slack in 0usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = (3 * n - 6).saturating_sub(slack);
        check_against_oracle(&gnm(n, m, &mut rng));
    }

    /// Disconnected inputs with many blocks: every component and block is
    /// embedded on its own.
    #[test]
    fn forests_of_blocks_agree_with_oracle(seed in 0u64..10_000, parts in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = planar::random_tree(6, &mut rng).graph;
        for _ in 0..parts {
            let n = rng.random_range(4..12);
            let piece = gnm(n, 2 * n, &mut rng);
            let mut b = GraphBuilder::new(g.n() + piece.n());
            for (u, v) in g.edges() {
                b.add_edge(u.index(), v.index()).unwrap();
            }
            for (u, v) in piece.edges() {
                b.add_edge(g.n() + u.index(), g.n() + v.index()).unwrap();
            }
            g = b.build();
        }
        check_against_oracle(&g);
    }
}
