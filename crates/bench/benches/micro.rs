//! Criterion micro-benchmarks for the substrates and the full tester.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use planartest_core::oracle;
use planartest_core::{PlanarityTester, TesterConfig};
use planartest_embed::check_planarity;
use planartest_embed::RotationSystem;
use planartest_graph::generators::{nonplanar, planar};
use planartest_graph::NodeId;
use planartest_sim::{Engine, Msg, NodeLogic, Outbox, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("generators");
    g.bench_function("apollonian_1k", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| planar::apollonian(1000, &mut rng))
    });
    g.bench_function("gnp_1k_avg_deg8", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| nonplanar::gnp(1000, 8.0 / 1000.0, &mut rng))
    });
    g.finish();
}

fn bench_embedding(c: &mut Criterion) {
    let mut g = c.benchmark_group("embedding");
    let mut rng = StdRng::seed_from_u64(3);
    let planar_graph = planar::apollonian(300, &mut rng).graph;
    g.bench_function("embed_apollonian_300", |b| {
        b.iter(|| check_planarity(&planar_graph))
    });
    let k33 = nonplanar::complete_bipartite(3, 3).graph;
    g.bench_function("embed_reject_k33", |b| b.iter(|| check_planarity(&k33)));
    let grid = planar::triangulated_grid(20, 20).graph;
    let rot = check_planarity(&grid).into_rotation().expect("planar");
    g.bench_function("face_trace_trigrid_400", |b| {
        b.iter(|| rot.trace_faces(&grid))
    });
    g.finish();
}

fn bench_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("oracle");
    let mut rng = StdRng::seed_from_u64(4);
    let far = nonplanar::planar_plus_chords(400, 400, &mut rng).graph;
    let rot = RotationSystem::from_adjacency(&far);
    let ivs = oracle::non_tree_intervals(&far, &rot, NodeId::new(0));
    g.bench_function("violating_sweep_800ivs", |b| {
        b.iter(|| oracle::count_violating_edges(&ivs))
    });
    g.finish();
}

/// A simple flood protocol to measure raw engine round throughput.
struct Flood {
    seen: Vec<bool>,
}
impl NodeLogic for Flood {
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
        if node.index() == 0 {
            self.seen[0] = true;
            out.send_all(Msg::words(&[1]));
        }
    }
    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
        if !self.seen[node.index()] && !inbox.is_empty() {
            self.seen[node.index()] = true;
            out.send_all(Msg::words(&[1]));
        }
    }
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    let grid = planar::grid(40, 40).graph;
    g.bench_function("flood_grid_1600", |b| {
        b.iter_batched(
            || Flood {
                seen: vec![false; grid.n()],
            },
            |mut logic| {
                let mut engine = Engine::new(&grid, SimConfig::default());
                engine.run(&mut logic, 10_000).expect("flood")
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_tester(c: &mut Criterion) {
    let mut g = c.benchmark_group("tester");
    g.sample_size(10);
    let planar_graph = planar::triangulated_grid(10, 10).graph;
    g.bench_function("tester_trigrid_100", |b| {
        let t = PlanarityTester::new(TesterConfig::new(0.1).with_phases(6));
        b.iter(|| t.run(&planar_graph).expect("run"))
    });
    let far = nonplanar::k5_chain(20).graph;
    g.bench_function("tester_k5chain_100", |b| {
        let t = PlanarityTester::new(TesterConfig::new(0.1).with_phases(6));
        b.iter(|| t.run(&far).expect("run"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_generators,
    bench_embedding,
    bench_oracle,
    bench_simulator,
    bench_tester
);
criterion_main!(benches);
