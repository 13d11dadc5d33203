//! Runtime benchmark: engine flood throughput, the tester's wall-clock
//! vs `n`, trial-parallel sweep scaling and batched vs sequential
//! Monte-Carlo sweeps — written both as a human-readable table and as
//! machine-readable `BENCH_runtime.json` so the performance trajectory
//! is tracked from change to change.

use std::time::Instant;

use planartest_core::{PlanarityTester, TestOutcome};
use planartest_graph::generators::planar;
use planartest_graph::{Graph, NodeId};
use planartest_sim::runtime::TrialRunner;
use planartest_sim::{Engine, Msg, NodeLogic, Outbox, SimConfig};

use crate::json::Json;
use crate::{host_record, quick};

/// The flood workload used for raw engine throughput.
struct FloodLogic {
    seen: Vec<bool>,
}

impl NodeLogic for FloodLogic {
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

/// Median-of-`reps` wall-clock seconds for `f` (quick mode: 1 rep).
fn time_median<F: FnMut()>(f: F) -> f64 {
    time_median_reps(if quick() { 1 } else { 3 }, f)
}

/// Median-of-`reps` wall-clock seconds for `f` with an explicit rep
/// count.
fn time_median_reps<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Raw engine throughput on a flood over a triangulated grid
/// (`n = side²`).
fn engine_throughput(side: usize) -> Json {
    let fam = planar::triangulated_grid(side, side);
    let g = &fam.graph;

    let mut rounds = 0u64;
    let secs = time_median(|| {
        let mut engine = Engine::new(g, SimConfig::default());
        let mut logic = FloodLogic {
            seen: vec![false; g.n()],
        };
        rounds = engine.run(&mut logic, 1_000_000).expect("flood").rounds;
    });
    println!(
        "engine flood   n={:<6} {:>10.1} rounds/s ({rounds} rounds)",
        g.n(),
        rounds as f64 / secs
    );
    Json::obj()
        .field("workload", "flood_triangulated_grid")
        .field("n", g.n())
        .field("m", g.m())
        .field("rounds", rounds)
        .field("seconds", secs)
        .field("rounds_per_sec", rounds as f64 / secs)
}

/// Measures one tester pass on a triangulated grid (`n = side²`).
fn tester_workload(side: usize) -> Json {
    let fam = planar::triangulated_grid(side, side);
    let g = &fam.graph;
    let cfg = crate::practical_cfg(0.1);
    let mut rounds = 0u64;
    let secs = time_median(|| {
        let out = PlanarityTester::new(cfg.clone()).run(g).expect("run");
        assert!(out.accepted());
        rounds = out.rounds();
    });
    println!(
        "tester sweep   n={:<6} {secs:>8.3}s  ({rounds} rounds)",
        g.n()
    );
    Json::obj()
        .field("n", g.n())
        .field("m", g.m())
        .field("rounds", rounds)
        .field("seconds", secs)
}

/// Tester wall-clock vs `n`.
fn tester_n_sweep() -> Json {
    let sides: &[usize] = if quick() { &[8, 16, 48] } else { &[16, 32, 64] };
    Json::Arr(sides.iter().map(|&side| tester_workload(side)).collect())
}

/// Trial-parallel Monte-Carlo sweep (the e1 workload shape): the same
/// seeded tester runs fanned across cores by [`TrialRunner`].
fn trial_sweep() -> Json {
    let side = if quick() { 10 } else { 20 };
    let trials = if quick() { 4 } else { 16 };
    let fam = planar::triangulated_grid(side, side);
    let g: &Graph = &fam.graph;

    let run_trial = |seed: usize| {
        let cfg = crate::practical_cfg(0.1).with_seed(seed as u64);
        PlanarityTester::new(cfg).run(g).expect("run").accepted()
    };

    let mut verdicts_serial = Vec::new();
    let serial_secs = time_median(|| {
        verdicts_serial = TrialRunner::new(1).run(trials, run_trial);
    });
    let mut verdicts_parallel = Vec::new();
    let parallel_secs = time_median(|| {
        verdicts_parallel = TrialRunner::auto().run(trials, run_trial);
    });
    assert_eq!(
        verdicts_parallel, verdicts_serial,
        "trial order must be deterministic"
    );
    let speedup = serial_secs / parallel_secs;
    println!(
        "trial sweep    {trials} trials n={:<5} serial {serial_secs:>8.3}s  parallel({}) {parallel_secs:>8.3}s  speedup {speedup:.2}x",
        g.n(),
        TrialRunner::auto().threads(),
    );

    Json::obj()
        .field("workload", "tester_acceptance_sweep")
        .field("n", g.n())
        .field("trials", trials)
        .field("accepted", verdicts_serial.iter().filter(|&&a| a).count())
        .field("serial_seconds", serial_secs)
        .field("parallel_threads", TrialRunner::auto().threads())
        .field("parallel_seconds", parallel_secs)
        .field("speedup_vs_serial", speedup)
}

/// Batched vs sequential Monte-Carlo acceptance sweep: the same seeded
/// tester instances served one full `run` per seed (the sequential
/// per-instance path) vs one instance-multiplexed
/// [`PlanarityTester::run_many`] pass. Per-instance outcomes are
/// asserted bit-identical; only wall-clock may differ. Returns the row
/// plus the batched-over-sequential speedup (gated — warm-up pass plus
/// the median of 5 *paired* ratios even in quick mode, because this
/// ratio is compared against the raised
/// [`BenchGate::BATCH_SPEEDUP_FLOOR`], not mere parity, and pairing is
/// what keeps background load drift from flipping the CI gate).
fn batch_sweep() -> (Json, f64, usize) {
    let side = if quick() { 16 } else { 32 };
    let trials = 16usize;
    let fam = planar::triangulated_grid(side, side);
    let g: &Graph = &fam.graph;
    // The paper-faithful configuration (derived Θ(log 1/ε) phase count,
    // not the experiment shortcut): Monte-Carlo trials amplify the
    // tester's one-sided soundness, which is exactly the workload
    // instance-multiplexing exists for.
    let eps = 0.2;
    let cfg = planartest_core::TesterConfig::new(eps);
    let seeds: Vec<u64> = (0..trials as u64).collect();

    // One untimed pass on each side first: the gated ratio must not
    // depend on who pays the cold-cache / first-allocation cost.
    let _ = PlanarityTester::new(cfg.clone().with_seed(0)).run(g);
    let _ = PlanarityTester::new(cfg.clone()).run_many(g, &seeds);

    // Paired reps: each rep times sequential and batched back-to-back
    // and contributes one ratio; the gate takes the median ratio.
    // Timing the two sides in separate blocks (independent medians)
    // lets machine-wide load drift between the blocks masquerade as a
    // batching regression — pairing cancels it, because any slowdown
    // hits both halves of the same rep.
    let reps = 5;
    let mut sequential: Vec<TestOutcome> = Vec::new();
    let mut batched: Vec<TestOutcome> = Vec::new();
    let mut seq_samples = Vec::with_capacity(reps);
    let mut bat_samples = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let seq_secs = time_median_reps(1, || {
            sequential = seeds
                .iter()
                .map(|&seed| {
                    PlanarityTester::new(cfg.clone().with_seed(seed))
                        .run(g)
                        .expect("run")
                })
                .collect();
        });
        let bat_secs = time_median_reps(1, || {
            batched = PlanarityTester::new(cfg.clone())
                .run_many(g, &seeds)
                .expect("run");
        });
        seq_samples.push(seq_secs);
        bat_samples.push(bat_secs);
        ratios.push(seq_secs / bat_secs);
    }
    for (seq, bat) in sequential.iter().zip(&batched) {
        assert_eq!(bat.rejections, seq.rejections, "batched verdict diverged");
        assert_eq!(bat.stats, seq.stats, "batched stats diverged");
    }
    seq_samples.sort_by(f64::total_cmp);
    bat_samples.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);
    let sequential_secs = seq_samples[reps / 2];
    let batched_secs = bat_samples[reps / 2];
    let speedup = ratios[reps / 2];
    println!(
        "batch sweep    {trials} trials n={:<5} sequential {sequential_secs:>8.3}s  \
         batched {batched_secs:>8.3}s  speedup {speedup:.2}x",
        g.n(),
    );
    let row = Json::obj()
        .field("workload", "tester_acceptance_sweep_batched")
        .field("n", g.n())
        .field("epsilon", eps)
        .field("phases", cfg.phases(g.n()))
        .field("trials", trials)
        .field("accepted", batched.iter().filter(|o| o.accepted()).count())
        .field("sequential_seconds", sequential_secs)
        .field("batched_seconds", batched_secs)
        .field("speedup_vs_sequential", speedup);
    (row, speedup, trials)
}

/// The CI regression gate computed alongside the benchmark document:
/// the batched Monte-Carlo sweep must clear
/// [`BATCH_SPEEDUP_FLOOR`](Self::BATCH_SPEEDUP_FLOOR) over the
/// sequential-per-instance path. The clause does not depend on the
/// host's core count.
#[derive(Debug, Clone, Copy)]
pub struct BenchGate {
    /// Trials in the gated batched acceptance sweep.
    pub batch_trials: usize,
    /// Sequential-per-instance wall-clock over batched wall-clock on
    /// the Monte-Carlo acceptance sweep.
    pub batch_speedup: f64,
}

impl BenchGate {
    /// Floor for the batched-vs-sequential speedup. Raised from parity
    /// (1.0) after the node-major lane flip: with recycled batch
    /// scratch (zero per-instance re-zeroing via epoch stamps) and the
    /// per-part sample check borrowing the root-decoded list instead of
    /// re-decoding at every member node, the gated 16-trial acceptance
    /// sweep measures ≈ 4.6x on one core (median of paired ratios; the
    /// pre-flip layout measured 3.36x).
    /// The floor sits at 4.0 — regression margin above the old layout's
    /// best, noise margin below the new steady state.
    pub const BATCH_SPEEDUP_FLOOR: f64 = 4.0;

    /// Whether the gate passes: the batch speedup at or above
    /// [`BATCH_SPEEDUP_FLOOR`](Self::BATCH_SPEEDUP_FLOOR).
    #[must_use]
    pub fn pass(&self) -> bool {
        self.batch_speedup >= Self::BATCH_SPEEDUP_FLOOR
    }
}

/// Builds the full benchmark document (also printed as tables) and the
/// CI gate derived from it.
#[must_use]
pub fn runtime_bench_document() -> (Json, BenchGate) {
    println!("\n## runtime benchmark (engine, tester, trials, batched)");
    let side = if quick() { 24 } else { 64 };
    let (batch_row, batch_speedup, batch_trials) = batch_sweep();
    let gate = BenchGate {
        batch_trials,
        batch_speedup,
    };
    let doc = Json::obj()
        .field("schema", "planartest-bench/runtime/v4")
        .field("quick_mode", quick())
        .field("host", host_record())
        .field("engine_throughput", engine_throughput(side))
        .field("tester_n_sweep", tester_n_sweep())
        .field("trial_sweep", trial_sweep())
        .field("batch_sweep", batch_row)
        .field(
            "gate",
            Json::obj()
                .field("batch_trials", gate.batch_trials)
                .field("batch_speedup_vs_sequential", gate.batch_speedup)
                .field("batch_speedup_floor", BenchGate::BATCH_SPEEDUP_FLOOR)
                .field("pass", gate.pass()),
        );
    (doc, gate)
}

/// Runs the benchmark and writes `BENCH_runtime.json` into the current
/// directory (the repo root under `cargo run`); returns the CI gate.
pub fn runtime_bench() -> BenchGate {
    let (doc, gate) = runtime_bench_document();
    let path = "BENCH_runtime.json";
    std::fs::write(path, doc.pretty()).expect("write BENCH_runtime.json");
    println!("wrote {path}");
    gate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{logical_cores, physical_cores};

    #[test]
    fn tester_workload_row_has_required_fields() {
        // One tiny workload exercises the row builder; the full document
        // is too heavy for a debug-build test and runs for real in CI
        // via `runtime_bench --check` on the release binary.
        let text = tester_workload(4).pretty();
        for key in ["n", "m", "rounds", "seconds"] {
            assert!(
                text.contains(&format!("\"{key}\"")),
                "missing {key} in {text}"
            );
        }
    }

    #[test]
    fn host_record_names_the_cores() {
        let host = host_record();
        let text = host.pretty();
        for key in ["logical_cores", "physical_cores", "PLANARTEST_THREADS"] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(logical_cores() >= 1);
        assert_ne!(physical_cores(), Some(0));
        // The record is the values themselves, and it survives the
        // artifact round trip every `BENCH_*.json` writer puts it through.
        let reread = Json::parse(&text).expect("host record parses");
        assert_eq!(
            reread.get("logical_cores").and_then(Json::as_u64),
            Some(logical_cores() as u64)
        );
        assert_eq!(
            reread.get("physical_cores").and_then(Json::as_u64),
            physical_cores().map(|c| c as u64)
        );
    }

    #[test]
    fn gate_thresholds() {
        let floor = BenchGate::BATCH_SPEEDUP_FLOOR;
        assert_eq!(floor, 4.0);
        let gate = |batch_speedup: f64| BenchGate {
            batch_trials: 8,
            batch_speedup,
        };
        assert!(gate(floor).pass());
        assert!(gate(floor + 0.5).pass());
        // The batching clause must clear the raised floor.
        assert!(!gate(floor - 0.01).pass());
        assert!(!gate(1.0).pass());
    }
}
