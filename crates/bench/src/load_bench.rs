//! E15 — the load harness: an open-loop mixed-workload saturation
//! sweep plus the closed-loop service scenarios, written both as tables
//! and as machine-readable `BENCH_load.json`.
//!
//! Every scenario runs on one load client: each of its unix-socket
//! connections replays a list of request lines against an in-process
//! [`Server`] and may keep at most a *window* of them unanswered. The
//! open loop's window is unbounded — requests go out on a pre-computed
//! arrival schedule regardless of responses, exactly the way
//! independent users behave, so offered load can exceed capacity and
//! queueing collapse becomes measurable. The closed loop's window is 1
//! — a client sends its next line only after reading the previous
//! response. The two loops differ in nothing else.
//!
//! Per sweep rate, against a fresh in-process [`Server`]:
//!
//! * **Poisson arrivals** at the offered QPS
//!   ([`planartest_sim::sampling::PoissonArrivals`], seeded — the
//!   schedule is bit-reproducible), assigned round-robin to
//!   [`CONNECTIONS`] unix-socket clients;
//! * **Zipf graph popularity** over a multi-family corpus (planar
//!   accept-path graphs, certified-far reject/certificate-path graphs)
//!   — a few graphs soak most of the traffic, the tail stays warm-ish;
//! * a **weighted op mix**: warm `query` traffic across all three
//!   properties, fresh-seed queries that pay engine passes mid-load,
//!   `batch` fan-outs, `stats` probes and `ingest` ops (the control
//!   ops wake the drain loop immediately, so the mix exercises both
//!   wake paths);
//! * latency comes from the service's own telemetry histograms
//!   (`queue → resolve → execute → respond`, one timebase), windowed
//!   to the measured run via [`Histogram::subtract`] so cache warmup
//!   does not pollute the percentiles.
//!
//! The sweep walks rates upward (escalating ×4 past the initial list
//! if needed) until it finds the **saturation knee**: the first rate
//! where achieved throughput falls below [`KNEE_FRACTION`] of the
//! schedule's realized offered rate. The knee criterion compares
//! against the *realized* schedule rate (requests ÷ last arrival
//! time), not the nominal one, so Poisson sampling variance at small
//! request counts cannot fake a knee. The lowest rate is then re-run
//! under the same seed and the per-connection response digests are
//! asserted identical — the reproducibility contract.
//!
//! After the sweep, a **slow-reader fairness scenario** runs the same
//! rate point twice — once with four healthy clients, once with one
//! client throttled to ~1 byte/ms — and compares the *healthy*
//! connections' client-side p99 between the runs. With per-connection
//! outbound writers a stalled reader sheds only its own responses;
//! the gate rejects any regression toward the old shared write path,
//! where one unread socket buffer stalled the drain cycle for
//! everyone.
//!
//! Then four **closed-loop scenarios** against fresh servers check the
//! one-sided-error cache and coalescing: warm vs cold replay, a `batch`
//! op and a multi-client fan-out each against serial queries, and the
//! cost of the `--trace` event log (left behind as
//! `BENCH_trace.ldjson`).
//!
//! [`LoadGate`] turns all of it into the `--check` exit code.

use crate::json::Json;
use crate::quick;

/// Workload-schedule seed; `BENCH_load.json` records it, and the
/// determinism section proves a re-run under it is bit-identical.
pub const LOAD_SEED: u64 = 0x0b5e_55ed;

/// Concurrent unix-socket client connections per rate point.
pub const CONNECTIONS: usize = 4;

/// Knee criterion: the first rate whose achieved throughput drops
/// below this fraction of the realized offered rate is saturated.
pub const KNEE_FRACTION: f64 = 0.9;

/// What one scheduled request is, for response accounting: every op
/// kind gets exactly one response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Single property query (any of the three properties).
    Query,
    /// A `batch` op carrying several queries in one frame.
    Batch,
    /// A `stats` probe (control op: wakes the drain loop).
    Stats,
    /// An `ingest` op registering a (content-deduplicated) graph.
    Ingest,
}

/// One scheduled request: when it is sent, what it is, and the exact
/// wire line (newline included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Send time in microseconds after the schedule origin.
    pub at_micros: u64,
    /// Op kind (drives response digesting).
    pub kind: OpKind,
    /// The LDJSON request line, `\n`-terminated.
    pub line: String,
}

/// A full per-rate request schedule, split per connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Arrival lists per connection, each in schedule order.
    pub per_conn: Vec<Vec<Arrival>>,
    /// Total request lines across connections.
    pub requests: usize,
    /// Total queries including batch members (for telemetry
    /// cross-checks; `stats`/`ingest` ops are not queries).
    pub queries: usize,
    /// When the last request is scheduled, in microseconds.
    pub last_arrival_micros: u64,
}

/// The graph corpus: mostly planar families (accept path, per-seed
/// cache stripes) plus certified-far ones (reject path, permanent
/// certificates). The leading entries carry most of the Zipf mass.
fn corpus() -> Vec<(&'static str, String, bool)> {
    if quick() {
        vec![
            ("g0", "tri_grid(12,12)".to_string(), true),
            ("g1", "grid(14,14)".to_string(), true),
            ("g2", "random_planar(140, 0.7, seed=3)".to_string(), true),
            ("g3", "k5_chain(10)".to_string(), false),
            ("g4", "cycle(180)".to_string(), true),
            ("g5", "complete(9)".to_string(), false),
        ]
    } else {
        vec![
            ("g0", "tri_grid(18,18)".to_string(), true),
            ("g1", "grid(22,22)".to_string(), true),
            ("g2", "random_planar(300, 0.7, seed=3)".to_string(), true),
            ("g3", "k5_chain(20)".to_string(), false),
            ("g4", "cycle(400)".to_string(), true),
            ("g5", "complete(12)".to_string(), false),
            ("g6", "apollonian(6)".to_string(), true),
            ("g7", "complete_bipartite(4,5)".to_string(), false),
        ]
    }
}

/// Distance parameters the warm pool covers.
const EPSILONS: [f64; 2] = [0.1, 0.2];
/// Phase count for every query (practical regime, see E4).
const PHASES: u64 = 6;

fn warm_seeds() -> u64 {
    if quick() {
        4
    } else {
        6
    }
}

fn query_line(graph: &str, property: &str, eps: f64, seed: u64) -> String {
    let prop = if property == "planarity" {
        String::new()
    } else {
        format!("\"property\":\"{property}\",")
    };
    format!(
        "{{\"op\":\"query\",\"graph\":\"{graph}\",{prop}\"epsilon\":{eps},\
         \"phases\":{PHASES},\"seed\":{seed}}}\n"
    )
}

/// The `stats` probe.
const STATS_LINE: &str = "{\"op\":\"stats\"}\n";

/// A `batch` op over query lines (as [`query_line`] renders them).
fn batch_line(members: &[String]) -> String {
    let members: Vec<&str> = members.iter().map(|m| m.trim_end()).collect();
    format!("{{\"op\":\"batch\",\"queries\":[{}]}}\n", members.join(","))
}

/// The warm pool as wire lines, one group per `(graph, epsilon)`:
/// planarity under every warm seed, then both hereditary properties.
/// The sweep pre-populates its cache with it (one `batch` per group);
/// the closed-loop scenarios replay it cold.
fn warm_pool() -> Vec<Vec<String>> {
    let mut groups = Vec::new();
    for (name, _, _) in corpus() {
        for eps in EPSILONS {
            let mut group: Vec<String> = (0..warm_seeds())
                .map(|s| query_line(name, "planarity", eps, s))
                .collect();
            for property in ["cycle_freeness", "bipartiteness"] {
                group.push(query_line(name, property, eps, 0));
            }
            groups.push(group);
        }
    }
    groups
}

/// A workload whose requests are all due at once (time 0): the
/// closed-loop shape, where the window rather than a schedule paces
/// each client. Takes lines as [`query_line`] and [`batch_line`]
/// render them, or [`STATS_LINE`].
fn at_once(per_conn: Vec<Vec<String>>) -> Workload {
    let arrival = |line: String| {
        let kind = match line.split('"').nth(3) {
            Some("query") => OpKind::Query,
            Some("batch") => OpKind::Batch,
            Some("stats") => OpKind::Stats,
            _ => OpKind::Ingest,
        };
        Arrival {
            at_micros: 0,
            kind,
            line,
        }
    };
    let per_conn: Vec<Vec<Arrival>> = per_conn
        .into_iter()
        .map(|lines| lines.into_iter().map(arrival).collect())
        .collect();
    let all = || per_conn.iter().flatten();
    Workload {
        requests: all().count(),
        queries: all()
            .map(|a| a.line.matches("\"op\":\"query\"").count())
            .sum(),
        last_arrival_micros: 0,
        per_conn,
    }
}

/// Builds the deterministic request schedule for one rate point.
///
/// Op mix (drawn per arrival from one seeded RNG stream, so the whole
/// workload — times, targets, ops — reproduces from `(seed, rate)`):
///
/// * 72% warm planarity query (Zipf graph, warm-pool seed/epsilon);
/// * 8% warm hereditary-property query (cycle-freeness or
///   bipartiteness — seed-independent cache entries);
/// * 5% fresh-seed planarity query on a *planar* graph: pays a cold
///   engine pass mid-load (planar-only keeps the verdict independent
///   of cross-connection arrival order — planarity is one-sided, so
///   planar graphs accept under every seed);
/// * 4% `batch` of three warm queries;
/// * 7% `stats` probe;
/// * 4% `ingest` of a small spec under a fresh name (content-level
///   dedup makes it an alias registration).
#[must_use]
pub fn build_workload(seed: u64, rate_per_sec: f64, horizon_micros: u64) -> Workload {
    use planartest_sim::sampling::{PoissonArrivals, Zipf};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let corpus = corpus();
    let planar_graphs: Vec<&str> = corpus
        .iter()
        .filter(|(_, _, planar)| *planar)
        .map(|(name, _, _)| *name)
        .collect();
    let zipf = Zipf::new(corpus.len(), 1.1);
    let planar_zipf = Zipf::new(planar_graphs.len(), 1.1);
    let seeds = warm_seeds();

    let schedule = PoissonArrivals::schedule(seed, rate_per_sec, horizon_micros);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut per_conn: Vec<Vec<Arrival>> = vec![Vec::new(); CONNECTIONS];
    let mut queries = 0usize;
    let mut fresh = 0u64;
    let mut ingests = 0u64;

    let warm_query = |rng: &mut StdRng| -> String {
        let graph = corpus[zipf.sample(rng)].0;
        let eps = EPSILONS[rng.random_range(0..EPSILONS.len())];
        let s = rng.random_range(0..seeds);
        query_line(graph, "planarity", eps, s)
    };

    for (i, &at) in schedule.iter().enumerate() {
        let draw: f64 = rng.random();
        let (kind, line) = if draw < 0.72 {
            queries += 1;
            (OpKind::Query, warm_query(&mut rng))
        } else if draw < 0.80 {
            queries += 1;
            let graph = corpus[zipf.sample(&mut rng)].0;
            let eps = EPSILONS[rng.random_range(0..EPSILONS.len())];
            let property = if rng.random_range(0..2u32) == 0 {
                "cycle_freeness"
            } else {
                "bipartiteness"
            };
            (OpKind::Query, query_line(graph, property, eps, 0))
        } else if draw < 0.85 {
            queries += 1;
            let graph = planar_graphs[planar_zipf.sample(&mut rng)];
            let eps = EPSILONS[rng.random_range(0..EPSILONS.len())];
            fresh += 1;
            (
                OpKind::Query,
                query_line(graph, "planarity", eps, 10_000 + fresh),
            )
        } else if draw < 0.89 {
            queries += 3;
            let members: Vec<String> = (0..3).map(|_| warm_query(&mut rng)).collect();
            (OpKind::Batch, batch_line(&members))
        } else if draw < 0.96 {
            (OpKind::Stats, STATS_LINE.to_string())
        } else {
            ingests += 1;
            (
                OpKind::Ingest,
                format!("{{\"op\":\"ingest\",\"name\":\"ld{ingests}\",\"spec\":\"cycle(24)\"}}\n"),
            )
        };
        per_conn[i % CONNECTIONS].push(Arrival {
            at_micros: at,
            kind,
            line,
        });
    }
    Workload {
        requests: schedule.len(),
        queries,
        last_arrival_micros: schedule.last().copied().unwrap_or(0),
        per_conn,
    }
}

/// The CI gate over `BENCH_load.json`.
#[derive(Debug, Clone, Copy)]
pub struct LoadGate {
    /// A saturation knee was located above the lowest sweep rate.
    pub knee_detected: bool,
    /// Realized offered QPS at the knee itself (the first saturated
    /// rate) — the capacity ratchet [`LoadGate::KNEE_FLOOR_QPS`]
    /// guards.
    pub knee_offered_qps: f64,
    /// Realized offered QPS at the highest sub-knee rate.
    pub sub_knee_offered_qps: f64,
    /// p99 end-to-end latency (µs) at the highest sub-knee rate.
    pub sub_knee_p99_micros: u64,
    /// Warm-hit (warm + certificate) p99 latency (µs) at the highest
    /// sub-knee rate — the pipelined fast path answers these at
    /// resolve time, ahead of the execute barrier.
    pub warm_p99_micros: u64,
    /// The lowest rate re-run under the same seed produced identical
    /// per-connection response digests and request schedules.
    pub deterministic: bool,
    /// Responses lost *mid-flight* across the whole sweep (must be 0:
    /// every client reads to completion; shutdown-flush and shed
    /// ledgers are separate).
    pub responses_lost: u64,
    /// Client-side p99 (µs) of the fairness scenario's healthy
    /// connections when every client reads promptly.
    pub all_healthy_p99_micros: u64,
    /// Client-side p99 (µs) of the *same* connections when one peer
    /// connection is throttled to ~1 byte/ms.
    pub slow_reader_healthy_p99_micros: u64,
    /// Closed-loop cold p50 over warm p50 on the warm-pool replay.
    pub warm_p50_speedup: f64,
    /// Serial wall over `batch`-op wall on the same-graph fan-out.
    pub coalesced_speedup: f64,
    /// Serial wall over multi-client wall on the same fan-out.
    pub multi_client_speedup: f64,
    /// Traced over plain throughput on the cold replay (median of
    /// back-to-back pair ratios).
    pub trace_overhead: f64,
}

impl LoadGate {
    /// p99 SLO at the highest sub-knee rate. Sub-knee traffic is
    /// mostly cache hits with a minority of genuine engine passes;
    /// 100 ms is generous for CI hardware yet far below the
    /// horizon-scale latencies queueing collapse produces.
    pub const P99_SLO_MICROS: u64 = 100_000;

    /// Capacity ratchet: the realized offered rate at the knee must
    /// not fall below this. The quick-mode ladder saturates its third
    /// rung at a realized ≈6.6k q/s offered on the single-core CI
    /// box — engine passes are CPU-bound, so pipelining moves the
    /// sub-knee tail, not the saturation point, there. The floor sits
    /// just under the measured knee so a scheduling regression that
    /// drags the knee down a rung (to ≈1.5k) trips loudly.
    pub const KNEE_FLOOR_QPS: f64 = 6_000.0;

    /// Warm-hit p99 ceiling at the highest sub-knee rate. Hits are
    /// answered at resolve time instead of waiting out the execute
    /// barrier: the pipelined cycle measures a ≈11–25 ms warm p99
    /// (median ≈12 ms across calibration runs on the single-core CI
    /// box) where the synchronous cycle's all-query p99 ran ≈23.5 ms
    /// *median* — the ceiling takes the observed worst case with
    /// ≈60% noise margin, and a hit path regressing back behind the
    /// barrier (≥ full-cycle latency, ≈100 ms at this rate) clears it
    /// by a wide margin.
    pub const WARM_P99_CEIL_MICROS: u64 = 40_000;

    /// Slow-reader fairness: healthy connections' p99 may grow at
    /// most this factor (plus [`LoadGate::FAIRNESS_SLACK_MICROS`])
    /// when a peer connection stops reading.
    pub const FAIRNESS_FACTOR: u64 = 2;

    /// Absolute slack on the fairness bound: keeps a near-zero
    /// all-healthy p99 on fast hardware from degenerating the factor
    /// test, and absorbs single-core scheduler jitter (calibration
    /// runs measured factors 1.0–1.8 against ≈70–140 ms baselines).
    pub const FAIRNESS_SLACK_MICROS: u64 = 25_000;

    /// Minimum cold-p50 / warm-p50 ratio: a cache hit must be at least
    /// an order of magnitude cheaper than an engine pass.
    pub const WARM_SPEEDUP_FLOOR: f64 = 10.0;

    /// Minimum serial / coalesced wall ratio, for both the `batch` op
    /// and the multi-client fan-out: the shared Stage-I pass must at
    /// least break even, framing and scheduling overhead included.
    pub const COALESCED_SPEEDUP_FLOOR: f64 = 1.0;

    /// Minimum traced / plain throughput ratio: the `--trace` event log
    /// may cost at most 5% of cold-path serving throughput.
    pub const TRACE_OVERHEAD_FLOOR: f64 = 0.95;

    /// Whether the slow-reader scenario left healthy connections
    /// inside the fairness envelope.
    #[must_use]
    pub fn fairness_ok(&self) -> bool {
        self.slow_reader_healthy_p99_micros
            <= Self::FAIRNESS_FACTOR * self.all_healthy_p99_micros + Self::FAIRNESS_SLACK_MICROS
    }

    /// Whether the gate passes: knee found (with at least one healthy
    /// rate below it) at or above the capacity floor, the sub-knee
    /// p99 meets the SLO and its warm-hit slice meets the fast-path
    /// ceiling, the sweep was reproducible, no response went missing
    /// mid-flight, a slow reader hurt only itself, and every
    /// closed-loop ratio meets its floor.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.knee_detected
            && self.knee_offered_qps >= Self::KNEE_FLOOR_QPS
            && self.sub_knee_p99_micros <= Self::P99_SLO_MICROS
            && self.warm_p99_micros <= Self::WARM_P99_CEIL_MICROS
            && self.deterministic
            && self.responses_lost == 0
            && self.fairness_ok()
            && self.warm_p50_speedup >= Self::WARM_SPEEDUP_FLOOR
            && self.coalesced_speedup >= Self::COALESCED_SPEEDUP_FLOOR
            && self.multi_client_speedup >= Self::COALESCED_SPEEDUP_FLOOR
            && self.trace_overhead >= Self::TRACE_OVERHEAD_FLOOR
    }
}

#[cfg(unix)]
mod sweep {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use planartest_service::wire::Value;
    use planartest_service::{
        protocol, CacheStatus, Histogram, Property, ServeOptions, Server, Service, Telemetry,
    };

    use super::{
        at_once, batch_line, build_workload, corpus, query_line, warm_pool, Json, LoadGate, OpKind,
        Workload, CONNECTIONS, KNEE_FRACTION, LOAD_SEED, STATS_LINE,
    };
    use crate::{host_record, quick};

    /// Everything measured over one run of a workload.
    pub(super) struct RunOutcome {
        pub requests: usize,
        pub achieved_qps: f64,
        pub wall_secs: f64,
        /// End-to-end p50/p99 and warm-hit (warm + certificate) p99
        /// (µs) over the run's telemetry window.
        pub p50_micros: u64,
        pub p99_micros: u64,
        pub warm_p99_micros: u64,
        pub queue_depth_hwm: usize,
        pub responses_lost: u64,
        pub responses_shed: u64,
        pub engine_passes: u64,
        pub coalesce_ratio: f64,
        /// The artifact's row: the figures above and the rest of the
        /// window's telemetry.
        pub row: Json,
        /// Per connection, in submission order (empty for a throttled
        /// connection): client-side latencies (µs), response lines and
        /// their digests. A latency runs from the later of the scheduled
        /// send and the receipt that opened the window, so schedule slip
        /// under overload is charged to the server.
        pub client_latencies: Vec<Vec<u64>>,
        pub responses: Vec<Vec<String>>,
        pub digests: Vec<Vec<String>>,
    }

    /// How a run's clients pace themselves and what they talk to.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct RunOpts {
        /// Unanswered requests a connection may have in flight before
        /// its writer waits for a response: `usize::MAX` is the open
        /// loop, 1 the closed loop.
        pub window: usize,
        /// Throttle this connection's reader to ~1 byte/ms; it stops
        /// digesting responses entirely (its responses are shed once
        /// its outbound queue fills — the policy under test). Open
        /// loop only: the throttled reader never opens a window.
        pub slow_conn: Option<usize>,
        /// The server under test.
        pub serve: ServeOptions,
    }

    impl RunOpts {
        /// The open loop, outbound queues unbounded so the
        /// zero-responses-lost contract stays exact.
        fn open() -> Self {
            RunOpts {
                window: usize::MAX,
                slow_conn: None,
                serve: ServeOptions {
                    outbound_depth: 0,
                    ..ServeOptions::default()
                },
            }
        }
    }

    fn horizon_micros_for(rate: f64) -> u64 {
        // Long enough for a meaningful window at low rates; shrunk at
        // high rates so one saturated point cannot stall CI (the
        // request *count* is capped, the offered rate is not).
        let base: u64 = if quick() { 250_000 } else { 800_000 };
        let cap_requests: f64 = if quick() { 12_000.0 } else { 48_000.0 };
        let capped = (cap_requests * 1_000_000.0 / rate) as u64;
        base.min(capped).max(2_000)
    }

    /// A fresh service holding the corpus, cache empty.
    fn corpus_service() -> Service {
        let mut service = Service::new().with_group_threads(0);
        for (name, spec_text, _) in corpus() {
            service
                .registry_mut()
                .ingest_spec(name, &spec_text)
                .expect("corpus spec");
        }
        service
    }

    /// A corpus service with the warm pool cached, so a measured
    /// window starts from the steady serving state (the mix's
    /// fresh-seed queries still pay real engine passes mid-load).
    fn warm_service() -> Service {
        let mut service = corpus_service();
        for group in warm_pool() {
            let reply = protocol::handle_line(&mut service, &batch_line(&group));
            digest(OpKind::Batch, &reply);
        }
        service
    }

    const PROPERTIES: [Property; 3] = [
        Property::Planarity,
        Property::CycleFreeness,
        Property::Bipartiteness,
    ];
    const STATUSES: [CacheStatus; 3] = [
        CacheStatus::Cold,
        CacheStatus::Warm,
        CacheStatus::Certificate,
    ];

    /// The per-`(property, cache)` latency cells passing `keep`,
    /// merged into one distribution, minus an earlier snapshot of the
    /// same cells.
    fn merged_latency_where(
        telemetry: &Telemetry,
        baseline: &[Histogram; 9],
        keep: impl Fn(CacheStatus) -> bool,
    ) -> Histogram {
        let mut merged = Histogram::new();
        for (i, (p, s)) in cell_ids().into_iter().enumerate() {
            if !keep(s) {
                continue;
            }
            if let Some(mut h) = telemetry.latency_histogram(p, s) {
                h.subtract(&baseline[i]);
                merged.merge(&h);
            }
        }
        merged
    }

    /// Exact percentile over raw client-side samples.
    fn percentile(mut samples: Vec<u64>, q: f64) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        samples.sort_unstable();
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        samples[idx]
    }

    fn median(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    fn cell_ids() -> Vec<(Property, CacheStatus)> {
        PROPERTIES
            .into_iter()
            .flat_map(|p| STATUSES.into_iter().map(move |s| (p, s)))
            .collect()
    }

    fn latency_baseline(telemetry: &Telemetry) -> [Histogram; 9] {
        let cells: Vec<Histogram> = cell_ids()
            .into_iter()
            .map(|(p, s)| telemetry.latency_histogram(p, s).unwrap_or_default())
            .collect();
        cells.try_into().expect("9 cells")
    }

    fn engine_queries(telemetry: &Telemetry) -> u64 {
        telemetry
            .metrics_value()
            .get("engine")
            .and_then(|e| e.get("queries"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    fn parse(line: &str) -> Value {
        Value::parse(line.trim()).expect("response parses")
    }

    /// Digest of one response: the deterministic content only
    /// (verdicts), never timing-dependent fields (cache status, rounds
    /// under certificate replay, stats counters). Panics on a failed
    /// response or batch member.
    fn digest(kind: OpKind, v: &Value) -> String {
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "load response failed: {v:?}"
        );
        match kind {
            OpKind::Query => v
                .get("verdict")
                .and_then(Value::as_str)
                .expect("query verdict")
                .to_string(),
            OpKind::Batch => {
                let members = v.get("responses").and_then(Value::as_arr);
                let members = members.expect("batch response shape").iter();
                let digests: Vec<String> = members.map(|m| digest(OpKind::Query, m)).collect();
                digests.join("+")
            }
            OpKind::Stats => "stats".to_string(),
            OpKind::Ingest => "ingest".to_string(),
        }
    }

    /// Drives one workload end to end against a server over `service`.
    pub(super) fn run(workload: &Workload, service: Service, opts: RunOpts) -> RunOutcome {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        assert!(
            opts.slow_conn.is_none() || opts.window == usize::MAX,
            "a throttled reader never opens a window"
        );
        let telemetry = service.telemetry();
        let baseline = latency_baseline(&telemetry);
        let passes_before = service.engine_passes();
        let equeries_before = engine_queries(&telemetry);
        let cycles_before = telemetry.cycles();

        let server = Server::start(service, opts.serve);
        let socket = std::env::temp_dir().join(format!(
            "planartest-e15-{}-{}.sock",
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        ));
        server.listen_unix(&socket).expect("bind load socket");

        // Connect outside the client scope and keep the originals
        // alive until after the server's shutdown flush: a throttled
        // connection still has responses queued at shutdown, and
        // closing its socket early would turn those into *mid-flight*
        // losses instead of shutdown-flush ones.
        let streams: Vec<UnixStream> = workload
            .per_conn
            .iter()
            .map(|_| UnixStream::connect(&socket).expect("connect load client"))
            .collect();
        let healthy_left = AtomicUsize::new(streams.len() - usize::from(opts.slow_conn.is_some()));
        let started = Instant::now();
        // Per connection: response lines, client-side latencies (µs),
        // and the reader's finish instant.
        let per_conn: Vec<(Vec<String>, Vec<u64>, Instant)> = std::thread::scope(|scope| {
            let readers: Vec<_> = workload
                .per_conn
                .iter()
                .enumerate()
                .map(|(ci, arrivals)| {
                    // The reader reports each receipt, which opens the
                    // writer's window; the writer reports each due time.
                    let (due_tx, due_rx) = mpsc::channel::<u64>();
                    let (answered_tx, answered_rx) = mpsc::channel::<u64>();
                    // When behind schedule, send immediately (open-loop
                    // catch-up: the backlog is the server's problem).
                    let mut wstream = streams[ci].try_clone().expect("clone stream");
                    scope.spawn(move || {
                        for (i, a) in arrivals.iter().enumerate() {
                            let mut due = a.at_micros;
                            if i >= opts.window {
                                due =
                                    due.max(answered_rx.recv().expect("reader reports responses"));
                            }
                            let target = started + Duration::from_micros(due);
                            let now = Instant::now();
                            if target > now {
                                std::thread::sleep(target - now);
                            }
                            let _ = due_tx.send(due);
                            wstream
                                .write_all(a.line.as_bytes())
                                .expect("send load request");
                        }
                    });
                    let healthy_left = &healthy_left;
                    if opts.slow_conn == Some(ci) {
                        // Pathological reader: ~1 byte/ms, never a full
                        // response, until every healthy client is done.
                        // Its outbound queue fills and sheds; the
                        // fairness gate checks nobody else noticed.
                        let mut rstream = streams[ci].try_clone().expect("clone stream");
                        rstream
                            .set_read_timeout(Some(Duration::from_millis(20)))
                            .expect("set read timeout");
                        return scope.spawn(move || {
                            let mut byte = [0u8; 1];
                            while healthy_left.load(Ordering::Relaxed) > 0 {
                                match rstream.read(&mut byte) {
                                    Ok(0) => break,
                                    Ok(_) => std::thread::sleep(Duration::from_millis(1)),
                                    Err(e)
                                        if e.kind() == std::io::ErrorKind::WouldBlock
                                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                                    Err(_) => break,
                                }
                            }
                            (Vec::new(), Vec::new(), Instant::now())
                        });
                    }
                    let mut reader = BufReader::new(streams[ci].try_clone().expect("clone stream"));
                    scope.spawn(move || {
                        let mut lines = Vec::with_capacity(arrivals.len());
                        let mut latencies = Vec::with_capacity(arrivals.len());
                        for _ in arrivals {
                            let mut line = String::new();
                            let n = reader.read_line(&mut line).expect("read load response");
                            assert!(n > 0, "connection closed before all responses arrived");
                            let at =
                                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                            // The writer may be done; late reports go nowhere.
                            let _ = answered_tx.send(at);
                            let due = due_rx.recv().expect("writer reports due times");
                            latencies.push(at.saturating_sub(due));
                            lines.push(line);
                        }
                        healthy_left.fetch_sub(1, Ordering::Relaxed);
                        (lines, latencies, Instant::now())
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("load client"))
                .collect()
        });
        let wall_secs = per_conn
            .iter()
            .map(|(_, _, done)| done.duration_since(started).as_secs_f64())
            .fold(0.0f64, f64::max);

        server.request_shutdown();
        let service = server.join();
        drop(streams);
        let _ = std::fs::remove_file(&socket);

        let stats = service.stats();
        let latency = merged_latency_where(&telemetry, &baseline, |_| true);
        let warm = merged_latency_where(&telemetry, &baseline, |s| s != CacheStatus::Cold);
        let passes = service.engine_passes() - passes_before;
        let equeries = engine_queries(&telemetry) - equeries_before;
        let digests = per_conn
            .iter()
            .zip(&workload.per_conn)
            .map(|((lines, _, _), arrivals)| {
                let kinds = arrivals.iter().map(|a| a.kind);
                kinds
                    .zip(lines)
                    .map(|(k, l)| digest(k, &parse(l)))
                    .collect()
            })
            .collect();
        let achieved_qps = workload.requests as f64 / wall_secs.max(1e-9);
        let coalesce_ratio = if passes == 0 {
            1.0
        } else {
            equeries as f64 / passes as f64
        };
        let client = per_conn.iter().flat_map(|c| c.1.iter().copied()).collect();
        let row = Json::obj()
            .field("achieved_qps", achieved_qps)
            .field("requests", workload.requests)
            .field("queries", workload.queries)
            .field("wall_seconds", wall_secs)
            .field("p50_micros", latency.value_at_quantile(0.50))
            .field("p99_micros", latency.value_at_quantile(0.99))
            .field("p999_micros", latency.value_at_quantile(0.999))
            .field("mean_micros", latency.mean())
            .field("latency_count", latency.count())
            .field("warm_p99_micros", warm.value_at_quantile(0.99))
            .field("client_p99_micros", percentile(client, 0.99))
            .field("queue_depth_hwm", stats.queue_depth_hwm)
            .field("responses_lost", stats.responses_lost)
            .field("responses_lost_shutdown", stats.responses_lost_shutdown)
            .field("responses_shed", stats.responses_shed)
            .field("outbound_depth_hwm", stats.outbound_depth_hwm)
            .field("writer_stalls", stats.writer_stalls)
            .field("engine_passes", passes)
            .field("coalesce_ratio", coalesce_ratio)
            .field("drain_cycles", telemetry.cycles() - cycles_before);
        RunOutcome {
            requests: workload.requests,
            achieved_qps,
            wall_secs,
            p50_micros: latency.value_at_quantile(0.50),
            p99_micros: latency.value_at_quantile(0.99),
            warm_p99_micros: warm.value_at_quantile(0.99),
            queue_depth_hwm: stats.queue_depth_hwm,
            responses_lost: stats.responses_lost,
            responses_shed: stats.responses_shed,
            engine_passes: passes,
            coalesce_ratio,
            row,
            client_latencies: per_conn.iter().map(|c| c.1.clone()).collect(),
            digests,
            responses: per_conn.into_iter().map(|c| c.0).collect(),
        }
    }

    /// One closed-loop client sending `lines` to a default server over
    /// `service`.
    fn closed_loop(lines: Vec<String>, service: Service) -> RunOutcome {
        let opts = RunOpts {
            window: 1,
            slow_conn: None,
            serve: ServeOptions::default(),
        };
        run(&at_once(vec![lines]), service, opts)
    }

    /// One open-loop rate point and its offered rates.
    pub(super) struct RatePoint {
        pub offered_qps: f64,
        pub realized_offered_qps: f64,
        pub run: RunOutcome,
    }

    /// Drives one open-loop rate point end to end against a fresh,
    /// warmed server.
    fn run_rate(rate: f64, horizon_micros: Option<u64>, opts: RunOpts) -> RatePoint {
        let horizon = horizon_micros.unwrap_or_else(|| horizon_micros_for(rate));
        let workload = build_workload(LOAD_SEED ^ rate.to_bits(), rate, horizon);
        RatePoint {
            offered_qps: rate,
            realized_offered_qps: workload.requests as f64
                / (workload.last_arrival_micros.max(1) as f64 / 1_000_000.0),
            run: run(&workload, warm_service(), opts),
        }
    }

    /// What the slow-reader fairness scenario measured.
    pub(super) struct FairnessOutcome {
        pub rate_qps: f64,
        pub requests: usize,
        pub all_healthy_p99_micros: u64,
        pub slow_reader_healthy_p99_micros: u64,
        pub responses_shed: u64,
        pub mid_flight_losses: u64,
    }

    /// Runs one comfortably sub-knee rate twice — all clients healthy,
    /// then with connection 0 throttled to ~1 byte/ms — and compares
    /// the healthy connections' client-side p99 between the runs. The
    /// horizon is stretched so the throttled connection's response
    /// volume overflows its socket buffer and its bounded outbound
    /// queue: the shed policy has to actually engage for the isolation
    /// claim to mean anything.
    pub(super) fn fairness_scenario() -> FairnessOutcome {
        let rate = if quick() { 1_600.0 } else { 2_000.0 };
        let opts = RunOpts {
            serve: ServeOptions {
                outbound_depth: 256,
                ..ServeOptions::default()
            },
            ..RunOpts::open()
        };
        let healthy = run_rate(rate, Some(2_000_000), opts).run;
        let slowed = run_rate(
            rate,
            Some(2_000_000),
            RunOpts {
                slow_conn: Some(0),
                ..opts
            },
        )
        .run;
        let healthy_conns = |o: &RunOutcome| -> Vec<u64> {
            o.client_latencies
                .iter()
                .skip(1)
                .flatten()
                .copied()
                .collect()
        };
        FairnessOutcome {
            rate_qps: rate,
            requests: slowed.requests,
            all_healthy_p99_micros: percentile(healthy_conns(&healthy), 0.99),
            slow_reader_healthy_p99_micros: percentile(healthy_conns(&slowed), 0.99),
            responses_shed: slowed.responses_shed,
            mid_flight_losses: healthy.responses_lost + slowed.responses_lost,
        }
    }

    /// Warm vs cold: one closed-loop client sends the warm pool and a
    /// `stats` probe to a cold server, twice. Returns the JSON row and
    /// cold p50 over warm p50 (client side).
    fn warm_vs_cold() -> (Json, f64) {
        let pass = [warm_pool().concat(), vec![STATS_LINE.to_string()]].concat();
        let n = pass.len() - 1;
        let o = closed_loop([pass.clone(), pass].concat(), corpus_service());
        let answers: Vec<Value> = o.responses[0].iter().map(|l| parse(l)).collect();
        let (cold, warm) = (&answers[..=n], &answers[n + 1..]);
        for (i, (c, w)) in cold[..n].iter().zip(warm).enumerate() {
            let same = w.get("verdict") == c.get("verdict");
            assert!(same, "cache replay changed a verdict (query {i})");
            let hit = w.get("cache").and_then(Value::as_str) != Some("cold");
            assert!(hit, "warm pass hit the engine (query {i})");
        }
        let passes = |v: &Value| v.get("engine_passes").and_then(Value::as_u64);
        assert_eq!(
            passes(&warm[n]),
            passes(&cold[n]),
            "warm pass must be engine-free"
        );
        let latencies = &o.client_latencies[0];
        let cold_p50 = percentile(latencies[..n].to_vec(), 0.5);
        let warm_p50 = percentile(latencies[n + 1..2 * n + 1].to_vec(), 0.5);
        let speedup = cold_p50 as f64 / warm_p50.max(1) as f64;
        println!(
            "warm vs cold  {n:>5} queries  cold p50 {cold_p50:>7}us  warm p50 {warm_p50:>5}us  \
             speedup {speedup:.1}x"
        );
        let row = Json::obj()
            .field("queries", n)
            .field("cold_p50_micros", cold_p50)
            .field("warm_p50_micros", warm_p50)
            .field("engine_passes", o.engine_passes)
            .field("speedup", speedup);
        (row, speedup)
    }

    /// Per query answered, batch members included: the wire fields two
    /// runs of the same queries must agree on.
    fn essences(o: &RunOutcome) -> Vec<Vec<Option<Value>>> {
        let answers: Vec<Value> = o.responses.iter().flatten().map(|l| parse(l)).collect();
        let queries = answers.iter().flat_map(|a| match a.get("responses") {
            Some(Value::Arr(members)) => members.clone(),
            _ => vec![a.clone()],
        });
        let fields = ["verdict", "seed", "rounds", "messages", "words"];
        queries
            .filter(|q| q.get("verdict").is_some())
            .map(|q| fields.iter().map(|k| q.get(k).cloned()).collect())
            .collect()
    }

    /// The engine-pass count the `stats` probe ending connection 0
    /// reported.
    fn probed_passes(o: &RunOutcome) -> Option<u64> {
        let probe = parse(o.responses[0].last()?);
        probe.get("engine_passes").and_then(Value::as_u64)
    }

    /// Seeds in the coalescing fan-out.
    const FANOUT: u64 = 16;

    /// Coalesce and multi-client: one graph's `FANOUT`-seed sweep served
    /// serially (closed loop), as one `batch` op, and by [`CONNECTIONS`]
    /// clients sending at once into a cycle that fires at full depth,
    /// each run ending with a `stats` probe. Returns the two coalesced
    /// runs' rows and serial/coalesced wall ratios.
    fn coalescing() -> [(Json, f64); 2] {
        let lines: Vec<String> = (0..FANOUT)
            .map(|seed| query_line("g0", "planarity", 0.2, seed))
            .collect();
        let stats = STATS_LINE.to_string();
        let serial = closed_loop(
            [&lines[..], std::slice::from_ref(&stats)].concat(),
            corpus_service(),
        );
        assert_eq!(
            probed_passes(&serial),
            Some(FANOUT),
            "serial queries pay one pass each"
        );
        let batch = closed_loop(vec![batch_line(&lines), stats.clone()], corpus_service());
        // Client 0 may have all its queries in flight; its probe goes
        // out once its first answer is back, i.e. after the one cycle.
        let per_client = lines.len() / CONNECTIONS;
        let mut clients: Vec<Vec<String>> =
            lines.chunks(per_client).map(<[String]>::to_vec).collect();
        clients[0].push(stats);
        let fan_in = ServeOptions {
            linger: Duration::from_secs(30),
            wake_depth: lines.len(),
            ..ServeOptions::default()
        };
        let multi = run(
            &at_once(clients),
            corpus_service(),
            RunOpts {
                window: per_client,
                slow_conn: None,
                serve: fan_in,
            },
        );
        println!(
            "coalesce      {FANOUT:>5} queries  serial {:.4}s  batch {:.4}s  {CONNECTIONS} clients {:.4}s",
            serial.wall_secs, batch.wall_secs, multi.wall_secs
        );
        [(batch, "batch_op"), (multi, "multi_client")].map(|(o, workload)| {
            assert_eq!(
                probed_passes(&o),
                Some(1),
                "{workload} fan-out must ride one engine pass"
            );
            assert_eq!(
                essences(&o),
                essences(&serial),
                "{workload} outcomes diverged from serial"
            );
            let speedup = serial.wall_secs / o.wall_secs;
            let row = Json::obj()
                .field("workload", workload)
                .field("clients", o.responses.len())
                .field("queries", FANOUT)
                .field("serial_seconds", serial.wall_secs)
                .field("coalesced_seconds", o.wall_secs)
                .field("speedup_vs_serial", speedup);
            (row, speedup)
        })
    }

    /// Back-to-back (plain, traced) pairs in the trace-overhead scenario.
    const TRACE_PAIRS: usize = 9;

    /// Trace overhead: the warm pool replayed cold, closed loop, plain
    /// and with the `--trace` LDJSON writer. A pair interleaves the two
    /// replays group by group, each `(graph, epsilon)` group against a
    /// fresh plain and a fresh traced server in alternating order, so
    /// host load drift hits both sides alike; certificates never cross
    /// groups, so the cache answers as in a whole-pool replay. The
    /// gated ratio is the median of [`TRACE_PAIRS`] pair ratios after a
    /// warm-up pair. The last pair's log stays as `BENCH_trace.ldjson`.
    fn trace_overhead() -> (Json, f64) {
        let trace_path = "BENCH_trace.ldjson";
        let groups = warm_pool();
        let replay = |group: &[String], log: Option<&std::fs::File>| {
            let service = corpus_service();
            if let Some(log) = log {
                let log = log.try_clone().expect("share BENCH_trace.ldjson");
                service
                    .telemetry()
                    .set_trace_writer(Box::new(std::io::BufWriter::new(log)));
            }
            closed_loop(group.to_vec(), service).wall_secs
        };
        let pair = |j: usize| {
            let log = std::fs::File::create(trace_path).expect("create BENCH_trace.ldjson");
            let (mut plain, mut traced) = (0.0, 0.0);
            for (g, group) in groups.iter().enumerate() {
                if (j + g).is_multiple_of(2) {
                    plain += replay(group, None);
                    traced += replay(group, Some(&log));
                } else {
                    traced += replay(group, Some(&log));
                    plain += replay(group, None);
                }
            }
            (plain, traced)
        };
        pair(0);
        let pairs: Vec<(f64, f64)> = (1..=TRACE_PAIRS).map(pair).collect();
        let ratio = median(pairs.iter().map(|(plain, traced)| plain / traced).collect());
        let queries: usize = groups.iter().map(Vec::len).sum();
        println!(
            "trace         {queries:>5} queries  traced/plain throughput {ratio:.3} \
             (median of {TRACE_PAIRS} pairs)"
        );
        let seconds = |side: fn(&(f64, f64)) -> f64| -> Vec<Json> {
            pairs.iter().map(|p| Json::from(side(p))).collect()
        };
        let row = Json::obj()
            .field("queries", queries)
            .field("groups", groups.len())
            .field("plain_seconds", seconds(|p| p.0))
            .field("traced_seconds", seconds(|p| p.1))
            .field("throughput_ratio", ratio)
            .field("trace_path", trace_path);
        (row, ratio)
    }

    fn saturated(o: &RatePoint) -> bool {
        o.run.achieved_qps < KNEE_FRACTION * o.realized_offered_qps
    }

    fn rate_row(p: &RatePoint) -> Json {
        (p.run.row.clone())
            .field("offered_qps", p.offered_qps)
            .field("realized_offered_qps", p.realized_offered_qps)
            .field("saturated", saturated(p))
    }

    pub(super) fn document() -> (Json, LoadGate) {
        println!("\n## open-loop load sweep (Poisson arrivals, Zipf popularity, mixed ops)");
        let mut rates: Vec<f64> = if quick() {
            vec![400.0, 1_600.0, 6_400.0, 25_600.0]
        } else {
            vec![500.0, 2_000.0, 8_000.0, 32_000.0]
        };
        // Fast hardware may swallow the whole initial list; escalate
        // ×4 until the knee shows (bounded so CI terminates).
        const MAX_ESCALATIONS: usize = 4;
        let initial_len = rates.len();

        let mut outcomes: Vec<RatePoint> = Vec::new();
        let mut knee_idx: Option<usize> = None;
        let mut i = 0;
        while i < rates.len() {
            let o = run_rate(rates[i], None, RunOpts::open());
            println!(
                "rate {:>9.0} q/s offered  {:>9.0} achieved  p50 {:>7}us  p99 {:>8}us  \
                 warm-p99 {:>7}us  hwm {:>5}  coalesce {:>5.1}x{}",
                o.realized_offered_qps,
                o.run.achieved_qps,
                o.run.p50_micros,
                o.run.p99_micros,
                o.run.warm_p99_micros,
                o.run.queue_depth_hwm,
                o.run.coalesce_ratio,
                if saturated(&o) { "  << knee" } else { "" },
            );
            let is_knee = saturated(&o);
            outcomes.push(o);
            if is_knee {
                knee_idx = Some(i);
                break;
            }
            if i == rates.len() - 1 && rates.len() < initial_len + MAX_ESCALATIONS {
                let next = rates[i] * 4.0;
                rates.push(next);
            }
            i += 1;
        }

        // Reproducibility: the lowest rate again, same seed — the
        // schedule is identical by construction, and the response
        // digests (verdict content) must match bit for bit.
        let rerun = run_rate(rates[0], None, RunOpts::open()).run;
        let deterministic =
            rerun.requests == outcomes[0].run.requests && rerun.digests == outcomes[0].run.digests;
        println!(
            "determinism re-run at {:.0} q/s: {} ({} responses compared)",
            rates[0],
            if deterministic {
                "identical"
            } else {
                "DIVERGED"
            },
            rerun.requests,
        );

        let fairness = fairness_scenario();
        println!(
            "slow-reader fairness at {:.0} q/s: healthy-conn p99 {}us beside a throttled \
             peer vs {}us all-healthy ({} responses shed to the slow reader)",
            fairness.rate_qps,
            fairness.slow_reader_healthy_p99_micros,
            fairness.all_healthy_p99_micros,
            fairness.responses_shed,
        );

        let sub_knee = knee_idx
            .and_then(|k| k.checked_sub(1))
            .map(|k| &outcomes[k]);
        let responses_lost: u64 =
            outcomes.iter().map(|o| o.run.responses_lost).sum::<u64>() + fairness.mid_flight_losses;

        println!("\n## closed-loop scenarios (one request in flight per client)");
        let (warm_row, warm_p50_speedup) = warm_vs_cold();
        let [(batch_row, coalesced_speedup), (multi_row, multi_client_speedup)] = coalescing();
        let (trace_row, trace_overhead) = trace_overhead();

        let gate = LoadGate {
            knee_detected: sub_knee.is_some(),
            knee_offered_qps: knee_idx.map_or(0.0, |k| outcomes[k].realized_offered_qps),
            sub_knee_offered_qps: sub_knee.map_or(0.0, |o| o.realized_offered_qps),
            sub_knee_p99_micros: sub_knee.map_or(u64::MAX, |o| o.run.p99_micros),
            warm_p99_micros: sub_knee.map_or(u64::MAX, |o| o.run.warm_p99_micros),
            deterministic,
            responses_lost,
            all_healthy_p99_micros: fairness.all_healthy_p99_micros,
            slow_reader_healthy_p99_micros: fairness.slow_reader_healthy_p99_micros,
            warm_p50_speedup,
            coalesced_speedup,
            multi_client_speedup,
            trace_overhead,
        };
        if let (Some(k), Some(s)) = (knee_idx, sub_knee) {
            println!(
                "knee at {:.0} q/s offered (achieved {:.0}); highest healthy rate {:.0} q/s, \
                 p99 {}us (warm {}us)",
                outcomes[k].realized_offered_qps,
                outcomes[k].run.achieved_qps,
                s.realized_offered_qps,
                s.run.p99_micros,
                s.run.warm_p99_micros,
            );
        }

        let corpus_rows: Vec<Json> = corpus()
            .into_iter()
            .map(|(name, spec_text, planar)| {
                Json::obj()
                    .field("name", name)
                    .field("spec", spec_text.as_str())
                    .field("planar", planar)
            })
            .collect();
        let doc = Json::obj()
            .field("schema", "planartest-bench/load/v3")
            .field("quick_mode", quick())
            .field("host", host_record())
            .field("seed", LOAD_SEED)
            .field("connections", CONNECTIONS as u64)
            .field("corpus", corpus_rows)
            .field(
                "mix",
                Json::obj()
                    .field("warm_planarity_query", 0.72)
                    .field("hereditary_query", 0.08)
                    .field("fresh_seed_query", 0.05)
                    .field("batch_of_3", 0.04)
                    .field("stats", 0.07)
                    .field("ingest", 0.04),
            )
            .field("rates", outcomes.iter().map(rate_row).collect::<Vec<_>>())
            .field(
                "knee",
                Json::obj()
                    .field("detected", gate.knee_detected)
                    .field("criterion", "achieved < 0.9 x realized offered")
                    .field(
                        "knee_offered_qps",
                        knee_idx.map_or(0.0, |k| outcomes[k].realized_offered_qps),
                    )
                    .field("sub_knee_offered_qps", gate.sub_knee_offered_qps),
            )
            .field(
                "determinism",
                Json::obj()
                    .field("verified", deterministic)
                    .field("rate_qps", rates[0])
                    .field("responses_compared", rerun.requests),
            )
            .field(
                "fairness",
                Json::obj()
                    .field("rate_qps", fairness.rate_qps)
                    .field("requests", fairness.requests)
                    .field("all_healthy_p99_micros", fairness.all_healthy_p99_micros)
                    .field(
                        "slow_reader_healthy_p99_micros",
                        fairness.slow_reader_healthy_p99_micros,
                    )
                    .field("responses_shed", fairness.responses_shed)
                    .field("factor", LoadGate::FAIRNESS_FACTOR)
                    .field("slack_micros", LoadGate::FAIRNESS_SLACK_MICROS)
                    .field("pass", gate.fairness_ok()),
            )
            .field(
                "closed_loop",
                Json::obj()
                    .field("warm_vs_cold", warm_row)
                    .field("coalesce", batch_row)
                    .field("multi_client", multi_row)
                    .field("trace_overhead", trace_row),
            )
            .field(
                "gate",
                Json::obj()
                    .field("knee_detected", gate.knee_detected)
                    .field("knee_offered_qps", gate.knee_offered_qps)
                    .field("knee_floor_qps", LoadGate::KNEE_FLOOR_QPS)
                    .field("sub_knee_p99_micros", gate.sub_knee_p99_micros)
                    .field("p99_slo_micros", LoadGate::P99_SLO_MICROS)
                    .field("warm_p99_micros", gate.warm_p99_micros)
                    .field("warm_p99_ceil_micros", LoadGate::WARM_P99_CEIL_MICROS)
                    .field("deterministic", gate.deterministic)
                    .field("responses_lost", gate.responses_lost)
                    .field("fairness_pass", gate.fairness_ok())
                    .field("warm_p50_speedup", gate.warm_p50_speedup)
                    .field("warm_p50_speedup_floor", LoadGate::WARM_SPEEDUP_FLOOR)
                    .field("coalesced_speedup", gate.coalesced_speedup)
                    .field("multi_client_speedup", gate.multi_client_speedup)
                    .field("coalesced_speedup_floor", LoadGate::COALESCED_SPEEDUP_FLOOR)
                    .field("trace_overhead", gate.trace_overhead)
                    .field("trace_overhead_floor", LoadGate::TRACE_OVERHEAD_FLOOR)
                    .field("pass", gate.pass()),
            );
        (doc, gate)
    }
}

/// Builds the benchmark document (also printed as tables) plus the gate.
#[cfg(unix)]
#[must_use]
pub fn load_bench_document() -> (Json, LoadGate) {
    sweep::document()
}

/// Non-unix hosts have no unix sockets; the sweep is skipped and the
/// gate is vacuous (recorded as such in the artifact).
#[cfg(not(unix))]
#[must_use]
pub fn load_bench_document() -> (Json, LoadGate) {
    println!("load sweep skipped (no unix sockets on this platform)");
    (
        Json::obj()
            .field("schema", "planartest-bench/load/v3")
            .field("skipped", true),
        LoadGate {
            knee_detected: true,
            knee_offered_qps: LoadGate::KNEE_FLOOR_QPS,
            sub_knee_offered_qps: 0.0,
            sub_knee_p99_micros: 0,
            warm_p99_micros: 0,
            deterministic: true,
            responses_lost: 0,
            all_healthy_p99_micros: 0,
            slow_reader_healthy_p99_micros: 0,
            warm_p50_speedup: LoadGate::WARM_SPEEDUP_FLOOR,
            coalesced_speedup: LoadGate::COALESCED_SPEEDUP_FLOOR,
            multi_client_speedup: LoadGate::COALESCED_SPEEDUP_FLOOR,
            trace_overhead: LoadGate::TRACE_OVERHEAD_FLOOR,
        },
    )
}

/// Runs the benchmark and writes `BENCH_load.json` into the current
/// directory (the repo root under `cargo run`); returns the CI gate.
pub fn load_bench() -> LoadGate {
    let (doc, gate) = load_bench_document();
    let path = "BENCH_load.json";
    std::fs::write(path, doc.pretty()).expect("write BENCH_load.json");
    println!("wrote {path}");
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_seed_deterministic() {
        let a = build_workload(11, 3_000.0, 80_000);
        let b = build_workload(11, 3_000.0, 80_000);
        assert_eq!(a, b);
        assert_ne!(a, build_workload(12, 3_000.0, 80_000));
    }

    #[test]
    fn workload_covers_the_mix_and_balances_connections() {
        let w = build_workload(5, 20_000.0, 400_000);
        assert_eq!(w.per_conn.len(), CONNECTIONS);
        let sizes: Vec<usize> = w.per_conn.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), w.requests);
        assert!(sizes.iter().all(|&s| s.abs_diff(sizes[0]) <= 1));
        let mut kinds = [0usize; 4];
        for a in w.per_conn.iter().flatten() {
            kinds[match a.kind {
                OpKind::Query => 0,
                OpKind::Batch => 1,
                OpKind::Stats => 2,
                OpKind::Ingest => 3,
            }] += 1;
            assert!(a.line.ends_with('\n'));
            assert!(a.line.starts_with('{'));
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "all op kinds present: {kinds:?}"
        );
        assert!(
            kinds[0] > kinds[1] + kinds[2] + kinds[3],
            "queries dominate"
        );
        // Arrivals are in schedule order on every connection.
        for conn in &w.per_conn {
            assert!(conn.windows(2).all(|p| p[0].at_micros <= p[1].at_micros));
        }
    }

    /// Every bound exactly at its limit: the gate passes.
    fn gate_at_limits() -> LoadGate {
        LoadGate {
            knee_detected: true,
            knee_offered_qps: LoadGate::KNEE_FLOOR_QPS,
            sub_knee_offered_qps: 1000.0,
            sub_knee_p99_micros: LoadGate::P99_SLO_MICROS,
            warm_p99_micros: LoadGate::WARM_P99_CEIL_MICROS,
            deterministic: true,
            responses_lost: 0,
            all_healthy_p99_micros: 1_000,
            slow_reader_healthy_p99_micros: LoadGate::FAIRNESS_FACTOR * 1_000
                + LoadGate::FAIRNESS_SLACK_MICROS,
            warm_p50_speedup: LoadGate::WARM_SPEEDUP_FLOOR,
            coalesced_speedup: LoadGate::COALESCED_SPEEDUP_FLOOR,
            multi_client_speedup: LoadGate::COALESCED_SPEEDUP_FLOOR,
            trace_overhead: LoadGate::TRACE_OVERHEAD_FLOOR,
        }
    }

    #[test]
    fn gate_thresholds() {
        let base = gate_at_limits();
        assert!(base.pass(), "every bound exactly at its limit passes");
        assert!(!LoadGate {
            knee_detected: false,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            knee_offered_qps: LoadGate::KNEE_FLOOR_QPS - 1.0,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            sub_knee_p99_micros: LoadGate::P99_SLO_MICROS + 1,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            warm_p99_micros: LoadGate::WARM_P99_CEIL_MICROS + 1,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            deterministic: false,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            responses_lost: 1,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            slow_reader_healthy_p99_micros: base.slow_reader_healthy_p99_micros + 1,
            ..base
        }
        .pass());
    }

    #[test]
    fn closed_loop_gate_thresholds() {
        let base = gate_at_limits();
        assert_eq!(
            (
                LoadGate::WARM_SPEEDUP_FLOOR,
                LoadGate::COALESCED_SPEEDUP_FLOOR,
                LoadGate::TRACE_OVERHEAD_FLOOR
            ),
            (10.0, 1.0, 0.95)
        );
        assert!(base.pass(), "every bound exactly at its limit passes");
        assert!(!LoadGate {
            warm_p50_speedup: 9.99,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            coalesced_speedup: 0.99,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            multi_client_speedup: 0.99,
            ..base
        }
        .pass());
        assert!(!LoadGate {
            trace_overhead: 0.949,
            ..base
        }
        .pass());
    }

    #[test]
    fn closed_loop_workload_replays_the_warm_pool() {
        use planartest_service::wire::Value;
        let pool = warm_pool();
        let names: Vec<&str> = corpus().iter().map(|(name, _, _)| *name).collect();
        let w = at_once(vec![
            pool.concat(),
            vec![batch_line(&pool[0]), STATS_LINE.into()],
        ]);
        assert_eq!(w.requests, pool.iter().map(Vec::len).sum::<usize>() + 2);
        assert_eq!(w.queries, w.requests - 2 + pool[0].len());
        assert_eq!(w.last_arrival_micros, 0);
        for a in w.per_conn.iter().flatten() {
            assert_eq!(a.at_micros, 0);
            let v = Value::parse(a.line.trim_end()).expect("wire line is JSON");
            if a.kind == OpKind::Query {
                let graph = v.get("graph").and_then(Value::as_str).expect("graph");
                assert!(names.contains(&graph), "{graph} is a corpus graph");
            }
        }
        let kinds: Vec<OpKind> = w.per_conn[1].iter().map(|a| a.kind).collect();
        assert_eq!(kinds, [OpKind::Batch, OpKind::Stats]);
    }

    #[test]
    fn corpus_specs_parse() {
        for (_, spec_text, planar) in corpus() {
            let parsed = planartest_graph::generators::spec::parse(&spec_text).expect("spec");
            let _ = (parsed, planar);
        }
    }
}
