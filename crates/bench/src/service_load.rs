//! E13 — closed-loop load driver for the query service layer, written
//! both as tables and as machine-readable `BENCH_service.json`.
//!
//! Three measurements, mirroring the service's three cost levers:
//!
//! * **cold** — every query pays an engine pass (distinct graph ×
//!   config × seed combinations, issued one at a time);
//! * **warm** — the identical queries replayed against the populated
//!   cache (one-sided-error retention: accepts per seed, rejects as
//!   permanent certificates);
//! * **coalesced vs serial** — the same same-graph Monte-Carlo fan-out
//!   issued one query per drain (serial) vs one coalesced drain riding
//!   a single `run_many` engine pass;
//! * **multi-client** — the transport path end to end: N concurrent
//!   unix-socket clients, each its own seed range, against one
//!   in-process [`Server`]; the drain loop coalesces *across clients*
//!   into one engine pass, asserted identical to the sequential
//!   baseline bit for bit;
//! * **trace overhead** — the cold pass re-measured with the
//!   `--trace` LDJSON writer attached (median of three repetitions),
//!   leaving `BENCH_trace.ldjson` behind as the CI artifact.
//!
//! The `--check` gate enforces the service-layer contract: warm-cache
//! p50 latency at least [`ServiceGate::WARM_SPEEDUP_FLOOR`]× better
//! than cold, coalesced throughput at least the serial baseline,
//! cross-client coalesced throughput at least per-client serial, and
//! trace-enabled throughput at least
//! [`ServiceGate::TRACE_OVERHEAD_FLOOR`]× the metrics-only baseline.
//!
//! Percentiles come from the service's own log-bucketed
//! [`Histogram`] — the same structure the `metrics` wire op snapshots
//! — so the benchmark and the live exposition surface agree on
//! quantile semantics (bucket upper edges, never under-reporting).

use std::time::Instant;

use planartest_core::TesterConfig;
use planartest_service::{CacheStatus, GraphRef, Histogram, Outcome, Property, Query, Service};

use crate::json::Json;
use crate::{host_record, quick};

fn latency_row(label: &str, micros: &[u64], wall_secs: f64) -> (Json, u64) {
    let mut hist = Histogram::new();
    for &v in micros {
        hist.record(v);
    }
    let (p50, p95, p99) = (
        hist.value_at_quantile(0.50),
        hist.value_at_quantile(0.95),
        hist.value_at_quantile(0.99),
    );
    let qps = micros.len() as f64 / wall_secs;
    println!(
        "{label:<10} {:>5} queries {qps:>10.1} q/s   p50 {p50:>8}us  p95 {p95:>8}us  p99 {p99:>8}us",
        micros.len(),
    );
    let row = Json::obj()
        .field("queries", micros.len())
        .field("wall_seconds", wall_secs)
        .field("throughput_qps", qps)
        .field("p50_micros", p50)
        .field("p95_micros", p95)
        .field("p99_micros", p99)
        .field("mean_micros", hist.mean());
    (row, p50)
}

/// The graph mix: planar (accepts, cached per seed), certified-far
/// (rejects, cached as permanent certificates), and a denser planar
/// instance — all ingested once, resident thereafter.
fn corpus() -> Vec<(&'static str, String)> {
    let side = if quick() { 14 } else { 24 };
    let tiles = if quick() { 16 } else { 40 };
    let n = if quick() { 150 } else { 400 };
    vec![
        ("tri", format!("tri_grid({side},{side})")),
        ("far", format!("k5_chain({tiles})")),
        ("rp", format!("random_planar({n}, 0.7, seed=3)")),
    ]
}

fn query_mix(service: &Service) -> Vec<Query> {
    let seeds = if quick() { 4u64 } else { 8 };
    let mut queries = Vec::new();
    for entry in service.registry().entries() {
        let name = entry.names[0].clone();
        for &eps in &[0.1, 0.2] {
            for seed in 0..seeds {
                queries.push(Query::planarity(
                    GraphRef::Name(name.clone()),
                    TesterConfig::new(eps).with_phases(8).with_seed(seed),
                ));
            }
        }
        // The deterministic Corollary 16 properties ride the same
        // service (one cache stripe each).
        for property in [Property::CycleFreeness, Property::Bipartiteness] {
            queries.push(
                Query::planarity(
                    GraphRef::Name(name.clone()),
                    TesterConfig::new(0.1).with_phases(8),
                )
                .with_property(property),
            );
        }
    }
    queries
}

/// Cold pass: every query issued alone, each timed individually.
fn run_pass(
    service: &mut Service,
    queries: &[Query],
    expect: Option<&[bool]>,
) -> (Vec<u64>, f64, Vec<bool>) {
    let mut micros = Vec::with_capacity(queries.len());
    let mut verdicts = Vec::with_capacity(queries.len());
    let started = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let one = Instant::now();
        let r = service.query(q.clone()).expect("query");
        micros.push(one.elapsed().as_micros() as u64);
        verdicts.push(r.outcome.accepted());
        if let Some(expect) = expect {
            assert_eq!(
                verdicts[i], expect[i],
                "cache replay changed a verdict (query {i})"
            );
            assert_ne!(r.cache, CacheStatus::Cold, "warm pass hit the engine");
        }
    }
    (micros, started.elapsed().as_secs_f64(), verdicts)
}

/// Serial vs coalesced fan-out of one graph's Monte-Carlo sweep.
fn coalesce_section(service: &mut Service) -> (Json, f64) {
    let trials = 16u64;
    let make = |seed: u64| {
        Query::planarity(
            GraphRef::Name("tri".into()),
            TesterConfig::new(0.2).with_seed(seed),
        )
    };

    // Serial: one query per drain — one engine pass each.
    service.clear_cache();
    let started = Instant::now();
    let serial: Vec<Outcome> = (0..trials)
        .map(|seed| service.query(make(seed)).expect("query").outcome)
        .collect();
    let serial_secs = started.elapsed().as_secs_f64();

    // Coalesced: one drain — one engine pass for the whole sweep.
    service.clear_cache();
    let passes_before = service.engine_passes();
    let started = Instant::now();
    for seed in 0..trials {
        service.submit(make(seed));
    }
    let drained = service.drain();
    let coalesced_secs = started.elapsed().as_secs_f64();
    assert_eq!(
        service.engine_passes() - passes_before,
        1,
        "coalesced sweep must ride one engine pass"
    );
    for ((_, result), solo) in drained.iter().zip(&serial) {
        let outcome = &result.as_ref().expect("drained").outcome;
        assert_eq!(
            outcome.accepted(),
            solo.accepted(),
            "coalesced verdict diverged from serial"
        );
        assert_eq!(outcome.stats(), solo.stats(), "coalesced stats diverged");
    }

    let serial_qps = trials as f64 / serial_secs;
    let coalesced_qps = trials as f64 / coalesced_secs;
    let speedup = serial_secs / coalesced_secs;
    println!(
        "coalesce   {trials:>5} queries serial {serial_qps:>8.1} q/s   coalesced {coalesced_qps:>8.1} q/s   speedup {speedup:.2}x",
    );
    let row = Json::obj()
        .field("workload", "same_graph_monte_carlo_fanout")
        .field("trials", trials)
        .field("serial_seconds", serial_secs)
        .field("serial_qps", serial_qps)
        .field("coalesced_seconds", coalesced_secs)
        .field("coalesced_qps", coalesced_qps)
        .field("speedup_vs_serial", speedup);
    (row, speedup)
}

/// Multi-client scenario: N concurrent unix-socket clients against one
/// in-process server, each querying the same graph under its own seed
/// range, versus the same workload served sequentially one query per
/// drain. Asserts cross-client coalescing (one engine pass) and
/// bit-identical outcomes; returns the JSON row and the speedup.
#[cfg(unix)]
fn multi_client_section() -> (Json, f64) {
    use planartest_service::wire::Value;
    use planartest_service::{ServeOptions, Server};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let clients = 4usize;
    let per_client = if quick() { 4u64 } else { 8 };
    let total = clients as u64 * per_client;
    let spec_text = if quick() {
        "tri_grid(14,14)"
    } else {
        "tri_grid(24,24)"
    };
    let cfg = TesterConfig::new(0.2).with_phases(8);
    let make =
        |seed: u64| Query::planarity(GraphRef::Name("g".into()), cfg.clone().with_seed(seed));

    // Sequential baseline: every query pays its own drain (and pass).
    let mut baseline = Service::new();
    baseline
        .registry_mut()
        .ingest_spec("g", spec_text)
        .expect("spec");
    let started = Instant::now();
    let serial: Vec<Outcome> = (0..total)
        .map(|seed| baseline.query(make(seed)).expect("query").outcome)
        .collect();
    let serial_secs = started.elapsed().as_secs_f64();

    // Concurrent clients against the real transport stack. wake_depth
    // = total makes the measurement deterministic: the cycle fires
    // exactly when the last client's last query lands.
    let mut service = Service::new().with_group_threads(0);
    service
        .registry_mut()
        .ingest_spec("g", spec_text)
        .expect("spec");
    let server = Server::start(
        service,
        ServeOptions {
            linger: std::time::Duration::from_secs(30),
            wake_depth: total as usize,
            ..ServeOptions::default()
        },
    );
    let socket = std::env::temp_dir().join(format!("planartest-e13-{}.sock", std::process::id()));
    server.listen_unix(&socket).expect("bind bench socket");

    let started = Instant::now();
    let outcomes: Vec<Vec<(bool, u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let socket = socket.clone();
                scope.spawn(move || {
                    let mut stream = UnixStream::connect(&socket).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let seeds: Vec<u64> =
                        (c as u64 * per_client..(c as u64 + 1) * per_client).collect();
                    for seed in &seeds {
                        writeln!(
                            stream,
                            "{{\"op\":\"query\",\"graph\":\"g\",\"epsilon\":0.2,\
                             \"phases\":8,\"seed\":{seed}}}"
                        )
                        .expect("send query");
                    }
                    stream.flush().expect("flush");
                    seeds
                        .iter()
                        .map(|_| {
                            let mut line = String::new();
                            reader.read_line(&mut line).expect("read response");
                            let v = Value::parse(line.trim()).expect("response parses");
                            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
                            (
                                v.get("verdict").unwrap().as_str() == Some("accept"),
                                v.get("rounds").unwrap().as_u64().unwrap(),
                                v.get("words").unwrap().as_u64().unwrap(),
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let coalesced_secs = started.elapsed().as_secs_f64();

    // Outcomes identical to the sequential baseline, client-major.
    for (c, client_outcomes) in outcomes.iter().enumerate() {
        for (t, &(accepted, rounds, words)) in client_outcomes.iter().enumerate() {
            let reference = &serial[c * per_client as usize + t];
            assert_eq!(
                accepted,
                reference.accepted(),
                "multi-client verdict diverged"
            );
            assert_eq!(
                rounds,
                reference.stats().total_rounds(),
                "multi-client rounds diverged"
            );
            assert_eq!(
                words,
                reference.stats().words,
                "multi-client words diverged"
            );
        }
    }

    // Cross-client coalescing proof: the whole fan-out rode one pass.
    let stats = {
        let mut stream = UnixStream::connect(&socket).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        writeln!(stream, "{{\"op\":\"stats\"}}").expect("send stats");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read stats");
        Value::parse(line.trim()).expect("stats parses")
    };
    assert_eq!(
        stats.get("engine_passes").unwrap().as_u64(),
        Some(1),
        "cross-client fan-out must ride one engine pass"
    );
    server.request_shutdown();
    let _ = server.join();
    let _ = std::fs::remove_file(&socket);

    let serial_qps = total as f64 / serial_secs;
    let coalesced_qps = total as f64 / coalesced_secs;
    let speedup = serial_secs / coalesced_secs;
    println!(
        "multiclient {total:>4} queries x{clients} clients  serial {serial_qps:>8.1} q/s   coalesced {coalesced_qps:>8.1} q/s   speedup {speedup:.2}x",
    );
    let row = Json::obj()
        .field("workload", "cross_client_unix_socket_fanout")
        .field("clients", clients)
        .field("queries_per_client", per_client)
        .field("serial_seconds", serial_secs)
        .field("serial_qps", serial_qps)
        .field("coalesced_seconds", coalesced_secs)
        .field("coalesced_qps", coalesced_qps)
        .field("speedup_vs_serial", speedup);
    (row, speedup)
}

/// Non-unix hosts have no unix sockets; the scenario is skipped and
/// its gate clause is vacuous (recorded as such in the artifact).
#[cfg(not(unix))]
fn multi_client_section() -> (Json, f64) {
    println!("multiclient skipped (no unix sockets on this platform)");
    (
        Json::obj()
            .field("workload", "cross_client_unix_socket_fanout")
            .field("skipped", true),
        1.0,
    )
}

/// Telemetry-overhead scenario: the identical warm-cache replay
/// measured twice — metrics-only (histograms are always on) and with
/// the `--trace` LDJSON writer attached — best of three interleaved
/// repetitions each, so a transient stall cannot fail the gate. The
/// workload
/// is the cold serving path (the cache is cleared before every
/// repetition): that is the traffic a traced deployment actually
/// serves, and per-query trace records must amortize against real
/// engine work. (Tracing a pure warm replay is *measured* by the
/// latency histograms but not gated — four formatted records per
/// sub-microsecond cache hit are inherently proportional cost.) The
/// traced run's event log is left behind as `BENCH_trace.ldjson` (the
/// CI artifact). Returns the JSON row and the traced/plain throughput
/// ratio.
fn overhead_section(queries: &[Query]) -> (Json, f64) {
    const REPS: usize = 3;
    let trace_path = "BENCH_trace.ldjson";

    let build = || {
        let mut service = Service::new();
        for (name, spec_text) in corpus() {
            service
                .registry_mut()
                .ingest_spec(name, &spec_text)
                .expect("corpus spec");
        }
        service
    };
    let one_rep = |service: &mut Service| -> f64 {
        service.clear_cache();
        let started = Instant::now();
        for q in queries {
            service.query(q.clone()).expect("overhead query");
        }
        queries.len() as f64 / started.elapsed().as_secs_f64()
    };

    let mut plain = build();
    let mut traced = build();
    let file = std::fs::File::create(trace_path).expect("create BENCH_trace.ldjson");
    traced
        .telemetry()
        .set_trace_writer(Box::new(std::io::BufWriter::new(file)));

    // The arms are interleaved (plain, traced, plain, traced, …) and
    // each reports its best repetition: the workload is deterministic,
    // so the fastest run is the least-perturbed one, and pairing the
    // arms in time keeps ambient load drift from biasing the ratio.
    let mut plain_qps = 0.0f64;
    let mut traced_qps = 0.0f64;
    for _ in 0..REPS {
        plain_qps = plain_qps.max(one_rep(&mut plain));
        traced_qps = traced_qps.max(one_rep(&mut traced));
    }
    drop(traced); // flush the BufWriter so the artifact is complete

    let ratio = traced_qps / plain_qps;
    println!(
        "overhead   {:>5} queries plain {plain_qps:>10.1} q/s   traced {traced_qps:>8.1} q/s   ratio {ratio:.3}",
        queries.len(),
    );
    let row = Json::obj()
        .field("workload", "cold_path_trace_overhead")
        .field("repetitions", REPS)
        .field("queries_per_repetition", queries.len())
        .field("plain_qps", plain_qps)
        .field("traced_qps", traced_qps)
        .field("throughput_ratio", ratio)
        .field("trace_path", trace_path);
    (row, ratio)
}

/// The CI gate over `BENCH_service.json`.
#[derive(Debug, Clone, Copy)]
pub struct ServiceGate {
    /// Cold p50 over warm p50.
    pub warm_p50_speedup: f64,
    /// Serial wall over coalesced wall on the same-graph fan-out.
    pub coalesced_speedup: f64,
    /// Per-client-serial wall over cross-client coalesced wall on the
    /// multi-client unix-socket scenario.
    pub multi_client_speedup: f64,
    /// Trace-enabled throughput over metrics-only throughput on the
    /// cold serving path (best of three interleaved repetitions each).
    pub trace_overhead: f64,
}

impl ServiceGate {
    /// Minimum accepted cold-p50 / warm-p50 ratio: a cache hit must be
    /// at least an order of magnitude cheaper than an engine pass.
    pub const WARM_SPEEDUP_FLOOR: f64 = 10.0;

    /// Minimum accepted traced/plain throughput ratio: the `--trace`
    /// event log may cost at most 5% of cold-path serving throughput.
    pub const TRACE_OVERHEAD_FLOOR: f64 = 0.95;

    /// Whether the gate passes: warm replay ≥ 10× cheaper at the
    /// median, coalescing at least breaks even with serial drains
    /// (the shared Stage-I pass is the win; no pool required, so this
    /// clause is never vacuous — same stance as the batch gate), the
    /// full transport path — concurrent socket clients through the
    /// background drain loop — at least breaks even with per-client
    /// serial service despite paying framing and scheduling overhead,
    /// and per-query tracing stays within its 5% throughput budget.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.warm_p50_speedup >= Self::WARM_SPEEDUP_FLOOR
            && self.coalesced_speedup >= 1.0
            && self.multi_client_speedup >= 1.0
            && self.trace_overhead >= Self::TRACE_OVERHEAD_FLOOR
    }
}

/// Builds the benchmark document (also printed as tables) plus the gate.
#[must_use]
pub fn service_load_document() -> (Json, ServiceGate) {
    println!("\n## service load benchmark (cold vs warm vs coalesced)");
    let mut service = Service::new();
    let mut ingest_rows = Vec::new();
    let ingest_started = Instant::now();
    for (name, spec_text) in corpus() {
        let entry = service
            .registry_mut()
            .ingest_spec(name, &spec_text)
            .expect("corpus spec");
        ingest_rows.push(
            Json::obj()
                .field("name", name)
                .field("spec", spec_text.as_str())
                .field("fingerprint", entry.fingerprint.to_string())
                .field("n", entry.graph.n())
                .field("m", entry.graph.m()),
        );
    }
    let ingest_secs = ingest_started.elapsed().as_secs_f64();

    let queries = query_mix(&service);
    let (cold_micros, cold_wall, cold_verdicts) = run_pass(&mut service, &queries, None);
    let (cold_row, cold_p50) = latency_row("cold", &cold_micros, cold_wall);
    let passes_after_cold = service.engine_passes();

    let (warm_micros, warm_wall, _) = run_pass(&mut service, &queries, Some(&cold_verdicts));
    let (warm_row, warm_p50) = latency_row("warm", &warm_micros, warm_wall);
    assert_eq!(
        service.engine_passes(),
        passes_after_cold,
        "warm pass must be engine-free"
    );

    let (coalesce_row, coalesced_speedup) = coalesce_section(&mut service);
    let (multi_client_row, multi_client_speedup) = multi_client_section();
    let (overhead_row, trace_overhead) = overhead_section(&queries);

    let warm_p50_speedup = cold_p50 as f64 / (warm_p50.max(1)) as f64;
    println!("warm p50 speedup {warm_p50_speedup:.1}x (cold {cold_p50}us / warm {warm_p50}us)");
    let gate = ServiceGate {
        warm_p50_speedup,
        coalesced_speedup,
        multi_client_speedup,
        trace_overhead,
    };
    let stats = service.stats();
    let doc = Json::obj()
        .field("schema", "planartest-bench/service/v3")
        .field("quick_mode", quick())
        .field("host", host_record())
        .field(
            "registry",
            Json::obj()
                .field("graphs", ingest_rows)
                .field("ingest_seconds", ingest_secs),
        )
        .field("cold", cold_row)
        .field("warm", warm_row)
        .field("coalesce", coalesce_row)
        .field("multi_client", multi_client_row)
        .field("trace_overhead", overhead_row)
        .field(
            "cache",
            Json::obj()
                .field("slots", stats.cache_slots)
                .field("stored_outcomes", stats.cached_outcomes)
                .field("warm_hits", stats.cache.warm_hits)
                .field("certificate_hits", stats.cache.certificate_hits)
                .field("misses", stats.cache.misses)
                .field("evictions", stats.cache.evictions),
        )
        .field(
            "gate",
            Json::obj()
                .field("warm_p50_speedup", warm_p50_speedup)
                .field("warm_p50_speedup_floor", ServiceGate::WARM_SPEEDUP_FLOOR)
                .field("coalesced_speedup", coalesced_speedup)
                .field("coalesced_speedup_floor", 1.0)
                .field("multi_client_speedup", multi_client_speedup)
                .field("multi_client_speedup_floor", 1.0)
                .field("trace_overhead", trace_overhead)
                .field("trace_overhead_floor", ServiceGate::TRACE_OVERHEAD_FLOOR)
                .field("pass", gate.pass()),
        );
    (doc, gate)
}

/// Runs the benchmark and writes `BENCH_service.json` into the current
/// directory (the repo root under `cargo run`); returns the CI gate.
pub fn service_load() -> ServiceGate {
    let (doc, gate) = service_load_document();
    let path = "BENCH_service.json";
    std::fs::write(path, doc.pretty()).expect("write BENCH_service.json");
    println!("wrote {path}");
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_track_exact_ranks() {
        // Group-0 values (< 16) are bucket-exact; larger values may
        // round up by at most one bucket width (value/16 + 1).
        let sample = [1u64, 2, 3, 4, 100];
        let mut hist = Histogram::new();
        for &v in &sample {
            hist.record(v);
        }
        assert_eq!(hist.value_at_quantile(0.0), 1);
        assert_eq!(hist.value_at_quantile(0.5), 3);
        let p100 = hist.value_at_quantile(1.0);
        assert!((100..=100 + 100 / 16 + 1).contains(&p100));
    }

    #[test]
    fn gate_thresholds() {
        let gate = |warm: f64, coalesce: f64, multi: f64, trace: f64| ServiceGate {
            warm_p50_speedup: warm,
            coalesced_speedup: coalesce,
            multi_client_speedup: multi,
            trace_overhead: trace,
        };
        assert!(gate(10.0, 1.0, 1.0, 0.95).pass());
        assert!(!gate(9.9, 1.0, 1.0, 0.95).pass());
        assert!(!gate(10.0, 0.99, 1.0, 0.95).pass());
        assert!(!gate(10.0, 1.0, 0.99, 0.95).pass());
        assert!(!gate(10.0, 1.0, 1.0, 0.94).pass());
        assert!(gate(500.0, 3.0, 2.5, 1.02).pass());
    }

    #[test]
    fn corpus_specs_parse() {
        for (_, spec_text) in corpus() {
            planartest_graph::generators::spec::parse(&spec_text).expect("corpus spec");
        }
    }
}
