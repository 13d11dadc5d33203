//! Workspace-level integration tests: the full tester pipeline across all
//! crates, on every generator family, with correctness cross-checked
//! against the centralized planarity substrate.

use planartest::core::{EmbeddingMode, PlanarityTester, RejectReason, TesterConfig};
use planartest::embed::is_planar;
use planartest::graph::generators::{nonplanar, planar, Certified, PlanarityStatus};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tester(eps: f64) -> PlanarityTester {
    PlanarityTester::new(TesterConfig::new(eps).with_phases(8))
}

/// Completeness (one-sided error): every planar family must be accepted
/// under every seed we try.
#[test]
fn completeness_across_families_and_seeds() {
    let mut rng = StdRng::seed_from_u64(100);
    let families: Vec<Certified> = vec![
        planar::path(40),
        planar::cycle(41),
        planar::star(40),
        planar::grid(8, 7),
        planar::triangulated_grid(7, 7),
        planar::apollonian(90, &mut rng),
        planar::random_planar(90, 0.5, &mut rng),
        planar::random_tree(90, &mut rng),
        planar::maximal_outerplanar(60, &mut rng),
        planar::road_network(8, 8, &mut rng),
    ];
    for fam in &families {
        assert!(
            is_planar(&fam.graph),
            "{} generator must be planar",
            fam.name
        );
        for seed in [0u64, 1, 99] {
            let t = PlanarityTester::new(TesterConfig::new(0.1).with_phases(8).with_seed(seed));
            let out = t.run(&fam.graph).expect("run");
            assert!(
                out.accepted(),
                "planar family {} rejected (seed {seed}): {:?}",
                fam.name,
                out.rejections
            );
        }
    }
}

/// Soundness: certified-far families must be rejected.
#[test]
fn soundness_across_certified_far_families() {
    let mut rng = StdRng::seed_from_u64(200);
    let families: Vec<Certified> = vec![
        nonplanar::k5_chain(16),
        nonplanar::complete(12),
        nonplanar::planar_plus_chords(80, 80, &mut rng),
        nonplanar::near_regular(120, 8, &mut rng),
        nonplanar::social_overlay(144, 3.0, &mut rng),
        nonplanar::hypercube(7),
    ];
    for fam in &families {
        assert!(
            matches!(fam.status, PlanarityStatus::FarFromPlanar { .. }),
            "{} must carry a certificate",
            fam.name
        );
        let out = tester(0.05).run(&fam.graph).expect("run");
        assert!(
            !out.accepted(),
            "certified-far family {} accepted",
            fam.name
        );
    }
}

/// One-sidedness on non-planar but *not-certified-far* inputs: the tester
/// may accept or reject; it must never error.
#[test]
fn near_planar_inputs_are_handled() {
    let fam = nonplanar::torus(4, 5);
    let out = tester(0.1).run(&fam.graph).expect("run");
    // Any verdict is legal; stats must be coherent.
    assert!(out.rounds() > 0);
    let k33 = nonplanar::complete_bipartite(3, 3);
    let out = tester(0.1).run(&k33.graph).expect("run");
    assert!(
        !out.accepted(),
        "K3,3 as a single small part is caught by the embedder"
    );
}

/// The round complexity is sublinear in n for fixed eps: quadrupling n
/// must grow rounds by less than 4x. (At these small sizes the
/// `poly(1/ε)` part-diameter terms still dominate — parts span the whole
/// grid — so the asymptotic `O(log n)` ratio only emerges at larger n;
/// E2 measures that regime.)
#[test]
fn rounds_scale_sublinearly() {
    let small = planar::triangulated_grid(6, 6).graph;
    let large = planar::triangulated_grid(12, 12).graph; // 4x nodes
    let r_small = tester(0.2).run(&small).expect("run").rounds();
    let r_large = tester(0.2).run(&large).expect("run").rounds();
    assert!(
        (r_large as f64) < 4.0 * r_small as f64,
        "rounds grew {}x for 4x nodes ({} -> {})",
        r_large as f64 / r_small as f64,
        r_small,
        r_large
    );
}

/// Paper-faithful mode still rejects far inputs via violating edges
/// (Corollary 9 direction), even though its completeness is refuted.
#[test]
fn paper_mode_soundness() {
    let mut rng = StdRng::seed_from_u64(7);
    let far = nonplanar::planar_plus_chords(70, 70, &mut rng);
    let cfg = TesterConfig::new(0.05)
        .with_phases(8)
        .with_embedding(EmbeddingMode::Paper);
    let out = PlanarityTester::new(cfg).run(&far.graph).expect("run");
    assert!(!out.accepted());
}

/// Rejection evidence is attributable: dense graphs die in Stage I,
/// sparse non-planar parts die at the embedding or Euler check.
#[test]
fn rejection_reasons_are_sensible() {
    let dense = nonplanar::complete(14);
    let out = tester(0.1).run(&dense.graph).expect("run");
    assert!(out
        .rejections
        .iter()
        .all(|&(_, r)| r == RejectReason::ArboricityEvidence));

    let k33 = nonplanar::complete_bipartite(3, 3);
    let out = tester(0.1).run(&k33.graph).expect("run");
    assert!(out
        .rejections
        .iter()
        .all(|&(_, r)| { r == RejectReason::EmbeddingFailed || r == RejectReason::EulerBound }));
}

/// Determinism: identical config + seed => identical telemetry.
#[test]
fn full_pipeline_deterministic() {
    let mut rng = StdRng::seed_from_u64(5);
    let fam = planar::apollonian(70, &mut rng);
    let run = || {
        let out = tester(0.15).run(&fam.graph).expect("run");
        (out.rounds(), out.stats.messages, out.stats.words)
    };
    assert_eq!(run(), run());
}

/// Disconnected inputs: every component is partitioned and tested
/// independently; planar unions accept.
#[test]
fn disconnected_graphs_supported() {
    let mut rng = StdRng::seed_from_u64(6);
    let a = planar::triangulated_grid(4, 4).graph;
    let b = planar::random_tree(20, &mut rng).graph;
    let mut builder = planartest::graph::GraphBuilder::new(a.n() + b.n());
    for (u, v) in a.edges() {
        builder.add_edge(u.index(), v.index()).unwrap();
    }
    for (u, v) in b.edges() {
        builder
            .add_edge(a.n() + u.index(), a.n() + v.index())
            .unwrap();
    }
    let g = builder.build();
    let out = tester(0.2).run(&g).expect("run");
    assert!(out.accepted(), "{:?}", out.rejections);
}
