//! Multi-phase partition invariants under the Lemma 6 discipline, across
//! both the deterministic and randomized variants and many seeds.

use planartest_core::oracle::audit_partition;
use planartest_core::partition::randomized::{run_randomized_partition, RandomPartitionConfig};
use planartest_core::partition::run_partition;
use planartest_core::TesterConfig;
use planartest_graph::generators::planar;
use planartest_sim::{Engine, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn deterministic_partition_invariants_over_seeds() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = planar::random_planar(120, 0.85, &mut rng).graph;
        let cfg = TesterConfig::new(0.15).with_phases(7);
        let mut engine = Engine::new(&g, SimConfig::default());
        let p = run_partition(&mut engine, &cfg).expect("partition");
        assert!(p.completed_successfully(), "planar input cannot reject");
        let audit = audit_partition(&g, &p);
        assert!(audit.parts_connected, "seed {seed}: disconnected part");
        // Roots are self-rooted; parents stay inside parts.
        for v in g.nodes() {
            let r = p.state.root[v.index()];
            assert_eq!(p.state.root[r.index()], r);
            if let Some(par) = p.state.parent[v.index()] {
                assert_eq!(p.state.root[par.index()], r, "parent left the part");
            } else {
                assert_eq!(r, v, "only roots lack parents");
            }
        }
        // Cut weight monotonically non-increasing over phases.
        let mut prev = g.m() as u64;
        for ph in &p.phases {
            assert!(ph.cut_weight <= prev);
            prev = ph.cut_weight;
        }
    }
}

#[test]
fn randomized_partition_invariants_over_seeds() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let g = planar::apollonian(100, &mut rng).graph;
        let cfg = RandomPartitionConfig::new(0.2, 0.25)
            .with_phases(6)
            .with_seed(seed);
        let mut engine = Engine::new(&g, SimConfig::default());
        let p = run_randomized_partition(&mut engine, &cfg).expect("partition");
        let audit = audit_partition(&g, &p);
        assert!(audit.parts_connected, "seed {seed}");
        assert!(p.state.part_count() >= 1);
        // Theorem 4 never rejects.
        assert!(p.completed_successfully());
    }
}

/// Round accounting sanity: both simulated and charged rounds accrue,
/// and both scale with part depth. (On planar inputs the peeling
/// quiesces in one or two super-rounds — every low-degree part
/// deactivates immediately — so the *charged* merging hops can dominate;
/// on dense inputs the simulated peeling dominates instead. The
/// round/bandwidth budget table of `docs/ARCHITECTURE.md` documents this
/// split.)
#[test]
fn round_accounting_accrues_on_both_sides() {
    let g = planar::triangulated_grid(12, 12).graph;
    let cfg = TesterConfig::new(0.15).with_phases(6);
    let mut engine = Engine::new(&g, SimConfig::default());
    let _ = run_partition(&mut engine, &cfg).expect("partition");
    let s = engine.stats();
    assert!(s.rounds > 0, "peeling/election must simulate real rounds");
    assert!(s.charged_rounds > 0, "merging hops must be charged");
    assert!(s.messages > 0 && s.words >= s.messages / 4);
}
