//! Failure-injection tests: tight bandwidth and adversarial
//! configurations must degrade soundly (never break one-sidedness, never
//! panic).

use planartest_core::{PlanarityTester, TesterConfig};
use planartest_graph::generators::planar;
use planartest_sim::SimConfig;

/// Bandwidth below the protocol's needs is a hard, attributable error —
/// not silent corruption.
#[test]
fn insufficient_bandwidth_is_loud() {
    let fam = planar::grid(5, 5);
    let cfg = TesterConfig::new(0.2).with_phases(4);
    let err = PlanarityTester::new(cfg)
        .with_sim_config(SimConfig {
            max_words_per_message: 1,
        })
        .run(&fam.graph)
        .expect_err("1-word bandwidth cannot carry BFS offers");
    assert!(err.to_string().contains("bandwidth"));
}

/// Degenerate inputs: empty and single-node graphs accept trivially.
#[test]
fn degenerate_inputs() {
    for n in [1usize, 2, 3] {
        let g = planartest_graph::Graph::empty(n);
        let out = PlanarityTester::new(TesterConfig::new(0.5).with_phases(2))
            .run(&g)
            .expect("run");
        assert!(out.accepted());
    }
}

/// Extreme epsilon values behave: large eps = very few phases; small eps
/// = many phases, still correct on a small planar input.
#[test]
fn epsilon_extremes() {
    let fam = planar::cycle(12);
    for eps in [0.9, 0.01] {
        let out = PlanarityTester::new(TesterConfig::new(eps).with_phases(3))
            .run(&fam.graph)
            .expect("run");
        assert!(out.accepted(), "eps={eps}");
    }
}
