//! `cold_pass`: one closed-loop caller, no server. Each sweep runs the
//! default tester once on every corpus graph; the traced run repeats
//! the pass layer by layer (Stage I, Stage II, and the embedder replayed
//! on Stage I's parts).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use planartest_core::partition;
use planartest_core::stage2;
use planartest_core::{CoreError, PlanarityTester, RejectReason, TesterConfig};
use planartest_embed::demoucron::check_planarity;
use planartest_graph::generators::spec;
use planartest_graph::{Graph, NodeId};
use planartest_sim::{ParallelEngine, SimConfig, SimStats};

use crate::report::{Ledger, Metrics};
use crate::stats::{median, Summary};

/// The corpus: metric suffix, generator spec, planar by construction.
pub const CORPUS: [(&str, &str, bool); 4] = [
    ("tri_grid_48x48", "tri_grid(48,48)", true),
    ("grid_40x40", "grid(40,40)", true),
    (
        "random_planar_1000",
        "random_planar(1000, 0.7, seed=3)",
        true,
    ),
    ("k5_chain_64", "k5_chain(64)", false),
];

/// The corpus graph whose pass latency `low.*` reports (the embedder
/// does almost none of its pass).
const LOW_GRAPH: usize = 3;
/// The corpus graph whose pass latency `high.*` reports (the embedder
/// does most of its pass).
const HIGH_GRAPH: usize = 0;

/// Corpus generations timed for `setup_s`; the median is reported.
const SETUP_REPEATS: usize = 51;

/// Distance parameter of every pass.
const EPSILON: f64 = 0.1;

/// The tester configuration: the defaults (paper phase count, strict
/// embedding, `Backend::Auto`) with the run's seed for Stage II sampling.
fn config(seed: u64) -> TesterConfig {
    TesterConfig::new(EPSILON).with_seed(seed)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Parses every corpus spec; returns the graphs and the wall time.
fn generate() -> (Vec<Graph>, Duration) {
    let t = Instant::now();
    let graphs = CORPUS
        .iter()
        .map(|&(_, text, _)| spec::parse(text).expect("corpus spec parses").graph)
        .collect();
    (graphs, t.elapsed())
}

/// What a pass decided and counted: compared across sweeps and between
/// the plain and the layered pass.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    rejections: Vec<(NodeId, RejectReason)>,
    stats: SimStats,
}

/// The plain, untraced sweeps: wall time per sweep and per graph.
struct Sweeps {
    sweep_s: Vec<f64>,
    per_graph_us: Vec<Vec<f64>>,
    verdicts: Vec<Option<Verdict>>,
}

/// Runs whole sweeps until `budget` has elapsed (at least one), checking
/// every outcome: planar graphs accept, and every graph repeats its
/// first sweep's verdict and statistics exactly.
fn plain_sweeps(graphs: &[Graph], seed: u64, budget: Duration, ledger: &mut Ledger) -> Sweeps {
    let tester = PlanarityTester::new(config(seed));
    let mut out = Sweeps {
        sweep_s: Vec::new(),
        per_graph_us: vec![Vec::new(); graphs.len()],
        verdicts: vec![None; graphs.len()],
    };
    let start = Instant::now();
    while out.sweep_s.is_empty() || start.elapsed() < budget {
        let sweep = Instant::now();
        for (i, g) in graphs.iter().enumerate() {
            let t = Instant::now();
            let result = tester.run(std::hint::black_box(g));
            out.per_graph_us[i].push(t.elapsed().as_secs_f64() * 1e6);
            let (name, _, planar) = CORPUS[i];
            ledger.record(match result {
                Ok(o) => {
                    let v = Verdict {
                        rejections: o.rejections,
                        stats: o.stats,
                    };
                    let first = out.verdicts[i].get_or_insert_with(|| v.clone());
                    if planar && !v.rejections.is_empty() {
                        Err(format!("{name}: planar graph rejected"))
                    } else if *first != v {
                        Err(format!("{name}: pass differs from the first sweep"))
                    } else {
                        Ok(())
                    }
                }
                Err(e) => Err(format!("{name}: tester error: {e}")),
            });
        }
        out.sweep_s.push(sweep.elapsed().as_secs_f64());
    }
    out
}

/// One pass split at the layer boundaries the benchmark can see from
/// outside the program.
struct LayerPass {
    verdict: Verdict,
    partition_ms: f64,
    stage2_ms: f64,
    check_planarity_ms: f64,
    parts: usize,
    max_part_nodes: usize,
    stage1: SimStats,
    stage2: SimStats,
}

/// The tester's pass, driven stage by stage on the same engine
/// `PlanarityTester::run` uses for `Backend::Auto`; then the embedder
/// replayed on each Stage-I part's induced subgraph (the exact inputs
/// Stage II embeds in strict mode).
fn layered_pass(g: &Graph, cfg: &TesterConfig) -> Result<LayerPass, CoreError> {
    let t0 = Instant::now();
    let mut engine = ParallelEngine::new(g, SimConfig::default());
    let part = partition::run_partition(&mut engine, cfg)?;
    let partition_ms = ms(t0.elapsed());
    let stage1 = *engine.stats();
    let mut members: BTreeMap<u32, usize> = BTreeMap::new();
    for r in &part.state.root {
        *members.entry(r.raw()).or_default() += 1;
    }
    let parts = members.len();
    let max_part_nodes = members.values().copied().max().unwrap_or(0);

    if !part.rejected.is_empty() {
        // Stage I rejected: Stage II (and so the embedder) never runs.
        let rejections = part
            .rejected
            .iter()
            .map(|&v| (v, RejectReason::ArboricityEvidence))
            .collect();
        return Ok(LayerPass {
            verdict: Verdict {
                rejections,
                stats: stage1,
            },
            partition_ms,
            stage2_ms: 0.0,
            check_planarity_ms: 0.0,
            parts,
            max_part_nodes,
            stage1,
            stage2: SimStats::default(),
        });
    }

    let t1 = Instant::now();
    let mut batch = stage2::run_stage2_many(&mut engine, cfg, &[cfg.seed], &part.state)?;
    let stage2_ms = ms(t1.elapsed());
    let s2 = batch.stats.pop().expect("one instance");
    let outcome = batch.outcomes.pop().expect("one instance");
    let mut stats = stage1;
    stats.merge(&s2);

    let mut check_planarity_ms = 0.0;
    for &root in members.keys() {
        let (sub, _) = g.induced_subgraph(|v| part.state.root[v.index()].raw() == root);
        let t = Instant::now();
        std::hint::black_box(check_planarity(std::hint::black_box(&sub)));
        check_planarity_ms += ms(t.elapsed());
    }
    Ok(LayerPass {
        verdict: Verdict {
            rejections: outcome.rejections,
            stats,
        },
        partition_ms,
        stage2_ms,
        check_planarity_ms,
        parts,
        max_part_nodes,
        stage1,
        stage2: s2,
    })
}

/// Runs `cold_pass` for `seconds`. Untraced, it reports the end-to-end
/// metrics; traced, half the time repeats the untraced sweeps (which
/// also give the per-pass latencies) and half runs layered passes, and
/// it reports the per-layer metrics.
pub fn run(seed: u64, seconds: u64, trace: bool, metrics: &mut Metrics, ledger: &mut Ledger) {
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (g, t) = generate();
        setup.push(t.as_secs_f64());
        graphs = g;
    }
    let budget = Duration::from_secs(seconds);

    if !trace {
        let cpu0 = crate::report::cpu_s("self").unwrap_or(0.0);
        let s = plain_sweeps(&graphs, seed, budget, ledger);
        let cpu_s = crate::report::cpu_s("self").unwrap_or(0.0) - cpu0;
        let pass_s = median(&s.sweep_s);
        let passes: usize = s.per_graph_us.iter().map(Vec::len).sum();
        metrics.set("setup_s", median(&setup), "s");
        metrics.set("pass_s.p50", pass_s, "s");
        metrics.set("cpu_ms_per_query", 1e3 * cpu_s / passes as f64, "ms");
        let rss = crate::report::peak_rss_mb("self").unwrap_or(0.0);
        metrics.set("peak_rss_mb", rss, "MiB");
        println!(
            "cold_pass: {} sweeps, pass p50 {pass_s:.4} s",
            s.sweep_s.len()
        );
        return;
    }

    let plain = plain_sweeps(&graphs, seed, budget / 2, ledger);
    let cfg = config(seed);
    let start = Instant::now();
    let mut passes: Vec<Vec<LayerPass>> = (0..graphs.len()).map(|_| Vec::new()).collect();
    let mut traced_sweep_ms = Vec::new();
    while traced_sweep_ms.is_empty() || start.elapsed() < budget / 2 {
        let mut sweep_ms = 0.0;
        for (i, g) in graphs.iter().enumerate() {
            let name = CORPUS[i].0;
            let outcome =
                layered_pass(g, &cfg).map_err(|e| format!("{name}: layered pass error: {e}"));
            ledger.record(outcome.and_then(|p| {
                // The layered pass must be the program's pass (same
                // verdict, same statistics), and its counts repeat.
                let result = if plain.verdicts[i].as_ref() != Some(&p.verdict) {
                    Err(format!(
                        "{name}: layered pass differs from PlanarityTester::run"
                    ))
                } else if passes[i].first().is_some_and(|f: &LayerPass| {
                    (f.parts, f.max_part_nodes, f.stage1, f.stage2)
                        != (p.parts, p.max_part_nodes, p.stage1, p.stage2)
                }) {
                    Err(format!("{name}: layer counts differ between sweeps"))
                } else {
                    Ok(())
                };
                sweep_ms += p.partition_ms + p.stage2_ms;
                passes[i].push(p);
                result
            }));
        }
        traced_sweep_ms.push(sweep_ms);
    }

    set_layer_metrics(metrics, &passes);
    let passes_run: usize = plain.per_graph_us.iter().map(Vec::len).sum();
    let busy_s: f64 = plain.sweep_s.iter().sum();
    metrics.set("capacity_qps", passes_run as f64 / busy_s, "1/s");
    for (name, g) in [("low", LOW_GRAPH), ("high", HIGH_GRAPH)] {
        let s = Summary::of(&plain.per_graph_us[g]);
        metrics.set(format!("{name}.lat_p50_us"), s.p50, "us");
        metrics.set(format!("{name}.lat_tail_us"), s.tail, "us");
    }
    metrics.set("graph.generate_ms", 1e3 * median(&setup), "ms");
    let overhead = median(&traced_sweep_ms) / (1e3 * median(&plain.sweep_s));
    metrics.set("trace_overhead", overhead, "ratio");
    if let Some(tri) = metrics.get("embed.share.tri_grid_48x48") {
        println!("cold_pass traced: embedder share of the tri_grid(48,48) pass {tri:.3}");
    }
}

/// Medians of the layer timings and the (repeating) layer counts, per
/// corpus graph.
fn set_layer_metrics(metrics: &mut Metrics, passes: &[Vec<LayerPass>]) {
    for (i, runs) in passes.iter().enumerate() {
        let g = CORPUS[i].0;
        let Some(first) = runs.first() else {
            continue;
        };
        let med = |f: &dyn Fn(&LayerPass) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        let partition_ms = med(&|p| p.partition_ms);
        let stage2_ms = med(&|p| p.stage2_ms);
        let embed_ms = med(&|p| p.check_planarity_ms);
        let protocol_ms = med(&|p| p.stage2_ms - p.check_planarity_ms);
        let share = med(&|p| p.check_planarity_ms / (p.partition_ms + p.stage2_ms));
        let messages = first.stage1.messages + first.stage2.messages;
        metrics.set(format!("core.partition_ms.{g}"), partition_ms, "ms");
        metrics.set(format!("core.stage2_ms.{g}"), stage2_ms, "ms");
        metrics.set(format!("embed.check_planarity_ms.{g}"), embed_ms, "ms");
        metrics.set(format!("embed.share.{g}"), share, "ratio");
        metrics.set(format!("core.stage2_protocol_ms.{g}"), protocol_ms, "ms");
        metrics.set(format!("core.parts.{g}"), first.parts as f64, "count");
        metrics.set(
            format!("core.max_part_nodes.{g}"),
            first.max_part_nodes as f64,
            "count",
        );
        for (stage, s) in [("stage1", first.stage1), ("stage2", first.stage2)] {
            metrics.set(format!("sim.rounds.{stage}.{g}"), s.rounds as f64, "count");
            metrics.set(
                format!("sim.charged_rounds.{stage}.{g}"),
                s.charged_rounds as f64,
                "count",
            );
            metrics.set(
                format!("sim.messages.{stage}.{g}"),
                s.messages as f64,
                "count",
            );
            metrics.set(format!("sim.words.{stage}.{g}"), s.words as f64, "count");
        }
        let ns_per_message = if messages == 0 {
            0.0
        } else {
            1e6 * (partition_ms + protocol_ms) / messages as f64
        };
        metrics.set(format!("sim.ns_per_message.{g}"), ns_per_message, "ns");
    }
}

/// Names of every per-layer metric `cold_pass` reports, so the serving
/// workloads can report them as 0 (layers they do not exercise).
#[must_use]
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut names = vec![("graph.generate_ms".to_string(), "ms")];
    for (g, _, _) in CORPUS {
        for (m, unit) in [
            ("core.partition_ms", "ms"),
            ("core.stage2_ms", "ms"),
            ("embed.check_planarity_ms", "ms"),
            ("embed.share", "ratio"),
            ("core.stage2_protocol_ms", "ms"),
            ("core.parts", "count"),
            ("core.max_part_nodes", "count"),
        ] {
            names.push((format!("{m}.{g}"), unit));
        }
        for stage in ["stage1", "stage2"] {
            for m in ["rounds", "charged_rounds", "messages", "words"] {
                names.push((format!("sim.{m}.{stage}.{g}"), "count"));
            }
        }
        names.push((format!("sim.ns_per_message.{g}"), "ns"));
    }
    names
}
