//! The scheduler layer: the [`Service`] front object and the
//! background drain loop ([`Server`]).
//!
//! [`Service`] owns the [`GraphRegistry`], the [`ResultCache`] and a
//! queue of pending queries. Draining runs in four decoupled stages:
//!
//! 1. **resolve** — per query, in submission order: resolve the graph
//!    reference, build the cache key, answer warm/certificate hits
//!    immediately;
//! 2. **group** — bucket the misses by `(graph, config, property)`
//!    key, first-seen order;
//! 3. **execute** — run each group through **one** instance-multiplexed
//!    [`PlanarityTester::run_many`](planartest_core::PlanarityTester::run_many)
//!    pass, independent groups fanned across a
//!    [`TrialRunner`] pool (the `exec` module) — pure, so parallel and
//!    sequential drains are bit-for-bit identical;
//! 4. **respond** — apply cache inserts and counters sequentially in
//!    group order and fill every response slot, submission order
//!    preserved.
//!
//! There is one cycle: one resolver mints each query's id and resolves
//! it, and one per-cycle accumulator collects the response slots, the
//! misses bound for the group stage, and the replies owed per
//! connection. [`Service::drain`] runs that cycle over everything
//! [`submit`](Service::submit)ted and executes inline. [`Server`] runs
//! the same cycle on a dedicated thread against the shared
//! [`SubmissionQueue`] that every transport ([`crate::transport`])
//! feeds, waking on queue depth, a control op, or a configurable linger
//! timer — so *independent clients'* same-graph queries coalesce into
//! shared engine passes without any client knowing about the others.
//! Serving it from a socket changes the cycle's wall-clock shape only,
//! never its results:
//!
//! - **writes are off the critical path** — responses go to bounded
//!   per-connection outbound queues drained by dedicated writer
//!   threads ([`Connections`]), so one stalled client cannot block
//!   the cycle;
//! - **hits take a fast path** — a `query` or `batch` whose members
//!   all hit the cache is answered at resolve time, before the
//!   cycle's execute barrier;
//! - **cycles overlap** — execute runs on a scoped thread while the
//!   drain thread resolves new arrivals straight into the *next*
//!   cycle's accumulator. Only what cannot be resolved early is carried
//!   raw: a query touching an in-flight group, and a control op with
//!   everything behind it on its own connection.
//!
//! Responses are routed back per-connection in submission order
//! (a sequencing router re-orders out-of-order fulfilments), and a
//! shutdown request (stdin EOF, SIGTERM) flushes everything pending —
//! including the outbound writer queues — before the loop exits.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use planartest_sim::TrialRunner;

use crate::cache::{CacheKey, ResultCache};
use crate::error::ServiceError;
use crate::exec::{execute_groups, Group, GroupPass};
use crate::persist::{CertificateLog, CertificateRecord};
use crate::pipeline::{ResponseRouter, Token};
use crate::protocol;
use crate::query::{CacheStatus, Outcome, Property, Query, QueryId, QueryResponse};
use crate::registry::GraphRegistry;
use crate::telemetry::{Clock, Route, StageTimes, Telemetry, WakeReason, WAKE_REASONS};
use crate::transport::{
    spawn_stdio, spawn_tcp_listener, ConnectionId, Connections, Submission, SubmissionQueue,
};
use crate::wire::{Value, DEFAULT_MAX_FRAME};

/// One drained query: the id [`Service::submit`] handed out plus the
/// response or the per-query failure.
pub type DrainedQuery = (QueryId, Result<QueryResponse, ServiceError>);

/// Aggregate service telemetry (the `stats` wire op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Distinct registered graphs (both tiers).
    pub graphs: usize,
    /// Graphs in the hot heap-CSR tier.
    pub resident_graphs: usize,
    /// Graphs served zero-copy from the mmap spill tier.
    pub mapped_graphs: usize,
    /// `(graph, config, property)` cache slots.
    pub cache_slots: usize,
    /// Stored per-seed outcomes across all slots.
    pub cached_outcomes: usize,
    /// Cache hit/miss/eviction counters.
    pub cache: crate::cache::CacheStats,
    /// Accept stripes currently resident in the cache LRU (the
    /// occupancy `cache.evictions` is measured against).
    pub accept_stripes: usize,
    /// The accept-stripe LRU capacity.
    pub accept_capacity: usize,
    /// Engine passes executed (each pass may serve many queries).
    pub engine_passes: u64,
    /// Queries answered (from cache or engine).
    pub queries_served: u64,
    /// Submissions waiting in the bound queue right now (0 when no
    /// queue is bound — the lib-embedded, serverless case).
    pub queue_depth: usize,
    /// Deepest the bound queue has ever been (0 when no queue is
    /// bound). Unlike `queue_depth` this survives the drain, so an
    /// overload episode stays diagnosable after the backlog clears.
    pub queue_depth_hwm: usize,
    /// Responses computed but never delivered *mid-flight* — the
    /// addressed connection was gone, or its writer died on a write
    /// failure — while the server was live (0 when no connection table
    /// is bound). Shutdown-flush casualties are counted separately in
    /// [`responses_lost_shutdown`](Self::responses_lost_shutdown).
    pub responses_lost: u64,
    /// Responses dropped during the final shutdown flush (the client
    /// hung up while the server was draining its outbound queue).
    pub responses_lost_shutdown: u64,
    /// Responses shed because the addressed connection's bounded
    /// outbound queue was full (`--outbound-depth`): the slow-reader
    /// backpressure policy chose dropping over blocking the cycle.
    pub responses_shed: u64,
    /// Deepest any per-connection outbound queue has ever been.
    pub outbound_depth_hwm: usize,
    /// Writer-thread stalls: single response writes that took longer
    /// than the stall threshold (a slow or unreading client).
    pub writer_stalls: u64,
    /// Microseconds since the service's telemetry epoch.
    pub uptime_micros: u64,
    /// Drain-loop cycles executed.
    pub drain_cycles: u64,
    /// Drain-loop wake reason counts: `[depth, linger, control,
    /// shutdown, pipeline]`.
    pub wake: [u64; WAKE_REASONS],
}

/// What [`Service::set_state_dir`] restored from a durable state
/// directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateSummary {
    /// Graphs re-mapped from CSR spills (zero-copy, no rebuild).
    pub graphs_restored: usize,
    /// Reject certificates replayed from the write-ahead log into the
    /// result cache.
    pub certificates_replayed: usize,
    /// Log lines skipped during replay: a torn tail from a crash
    /// mid-append (truncated away) plus any malformed records.
    pub tail_skipped: usize,
}

/// A pending query as the scheduler sees it after resolution.
#[derive(Debug)]
pub(crate) struct Resolved {
    pub(crate) id: QueryId,
    pub(crate) key: CacheKey,
    pub(crate) seed: u64,
    pub(crate) query: Query,
    /// Where the response routes back to (`None` for lib-embedded
    /// drains with no connection).
    pub(crate) conn: Option<ConnectionId>,
    /// Stage spans so far: submit stamp, queue and resolve spans
    /// filled; execute/respond stamped by `apply_group`.
    pub(crate) stages: StageTimes,
}

/// The long-running query service (see the crate-level docs for the
/// full picture: registry + cache + coalescing scheduler).
#[derive(Debug)]
pub struct Service {
    registry: GraphRegistry,
    cache: ResultCache,
    queue: Vec<(QueryId, Query, u64)>,
    next_id: QueryId,
    engine_passes: u64,
    queries_served: u64,
    /// The group-execution pool. One thread (the default) reproduces
    /// the historical strictly-sequential drain; more threads fan
    /// independent groups out without changing any result bit.
    runner: TrialRunner,
    /// The shared telemetry sink (histograms, stage spans, trace log).
    telemetry: Arc<Telemetry>,
    /// The submission queue this service drains, when server-hosted —
    /// lets `stats` report live queue depth and its high-water mark.
    bound_queue: Option<Arc<SubmissionQueue>>,
    /// The connection table responses route through, when
    /// server-hosted — lets `stats` report response losses.
    bound_connections: Option<Arc<Connections>>,
    /// The reject-certificate write-ahead log, when a state directory
    /// is attached. Every *newly formed* certificate is appended
    /// (fsync'd) before its response goes out.
    state_log: Option<CertificateLog>,
}

impl Default for Service {
    fn default() -> Self {
        Service {
            registry: GraphRegistry::default(),
            cache: ResultCache::default(),
            queue: Vec::new(),
            next_id: 0,
            engine_passes: 0,
            queries_served: 0,
            runner: TrialRunner::new(1),
            telemetry: Arc::new(Telemetry::default()),
            bound_queue: None,
            bound_connections: None,
            state_log: None,
        }
    }
}

impl Service {
    /// An empty service (sequential group execution).
    #[must_use]
    pub fn new() -> Self {
        Service::default()
    }

    /// Replaces the telemetry clock (tests inject
    /// [`Clock::mock`] here for deterministic stage timings).
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.telemetry = Arc::new(Telemetry::new(clock));
        self
    }

    /// The shared telemetry sink.
    #[must_use]
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Binds the submission queue this service is drained from, so
    /// [`stats`](Self::stats) can report live queue depth (done by
    /// [`Server::start`]).
    pub fn bind_queue(&mut self, queue: Arc<SubmissionQueue>) {
        self.bound_queue = Some(queue);
    }

    /// Binds the connection table responses route through, so
    /// [`stats`](Self::stats) can report per-connection response
    /// losses (done by [`Server::start`]).
    pub fn bind_connections(&mut self, connections: Arc<Connections>) {
        self.bound_connections = Some(connections);
    }

    /// Sets the worker count independent groups fan across during a
    /// drain (`0` = hardware parallelism, `1` = sequential). Purely a
    /// wall-clock knob: drained results are bit-for-bit identical for
    /// every value (see `tests/drain_proptests.rs`).
    #[must_use]
    pub fn with_group_threads(mut self, threads: usize) -> Self {
        self.set_group_threads(threads);
        self
    }

    /// See [`with_group_threads`](Self::with_group_threads).
    pub fn set_group_threads(&mut self, threads: usize) {
        self.runner = TrialRunner::new(threads);
    }

    /// The group-execution worker count.
    #[must_use]
    pub fn group_threads(&self) -> usize {
        self.runner.threads()
    }

    /// Bounds the result cache's per-seed accept stripes (LRU; reject
    /// certificates are never evicted). See
    /// [`ResultCache::set_accept_capacity`].
    pub fn set_cache_accepts(&mut self, capacity: usize) {
        self.cache.set_accept_capacity(capacity);
    }

    /// Attaches a durable state directory and restores everything in
    /// it: graphs re-map zero-copy from their CSR spills, and reject
    /// certificates replay from the write-ahead log into the cache —
    /// a cold restart answers every previously-certified query without
    /// a single engine pass. From here on, ingests write through to
    /// disk and newly formed certificates are appended (fsync'd) to
    /// the log.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory layout or opening the log.
    /// Torn or malformed log records are *not* errors — they are
    /// counted in [`StateSummary::tail_skipped`] and truncated away.
    pub fn set_state_dir(&mut self, dir: &Path) -> Result<StateSummary, ServiceError> {
        let graphs_restored = self.registry.set_state_dir(dir)?;
        let (log, replay) = CertificateLog::open(&dir.join("certificates.ldjson"))?;
        let mut certificates_replayed = 0usize;
        for record in replay.records {
            if self
                .cache
                .load_certificate(&record.key, record.seed, record.outcome)
            {
                certificates_replayed += 1;
            }
        }
        self.state_log = Some(log);
        Ok(StateSummary {
            graphs_restored,
            certificates_replayed,
            tail_skipped: replay.skipped,
        })
    }

    /// Builder form of [`set_state_dir`](Self::set_state_dir),
    /// discarding the restore summary.
    ///
    /// # Errors
    ///
    /// See [`set_state_dir`](Self::set_state_dir).
    pub fn with_state_dir(mut self, dir: &Path) -> Result<Self, ServiceError> {
        self.set_state_dir(dir)?;
        Ok(self)
    }

    /// Rewrites the certificate log to exactly the live certificate
    /// set (dropping duplicates and torn garbage accumulated across
    /// restarts), atomically. Returns the number of records written.
    ///
    /// # Errors
    ///
    /// [`crate::persist::PersistError::NoStateDir`] without a state
    /// directory; I/O failures writing or swapping the compacted log.
    pub fn compact_certificates(&mut self) -> Result<usize, ServiceError> {
        let Some(log) = self.state_log.as_mut() else {
            return Err(ServiceError::Persist(
                crate::persist::PersistError::NoStateDir,
            ));
        };
        let live = self
            .cache
            .certificates()
            .map(|(key, seed, outcome)| CertificateRecord {
                key,
                seed,
                outcome: outcome.clone(),
            });
        Ok(log.compact(live)?)
    }

    /// The graph registry (immutable view).
    #[must_use]
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The graph registry, for ingestion.
    pub fn registry_mut(&mut self) -> &mut GraphRegistry {
        &mut self.registry
    }

    /// Engine passes executed so far. A warm or certificate hit does not
    /// advance this counter — that is how tests *prove* a cached reject
    /// replays its witness without re-running the partition.
    #[must_use]
    pub fn engine_passes(&self) -> u64 {
        self.engine_passes
    }

    /// Aggregate telemetry.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            graphs: self.registry.len(),
            resident_graphs: self.registry.resident(),
            mapped_graphs: self.registry.mapped(),
            cache_slots: self.cache.len(),
            cached_outcomes: self.cache.stored_outcomes(),
            cache: self.cache.stats(),
            accept_stripes: self.cache.accept_stripes(),
            accept_capacity: self.cache.accept_capacity(),
            engine_passes: self.engine_passes,
            queries_served: self.queries_served,
            queue_depth: self.bound_queue.as_ref().map_or(0, |q| q.depth()),
            queue_depth_hwm: self.bound_queue.as_ref().map_or(0, |q| q.depth_hwm()),
            responses_lost: self
                .bound_connections
                .as_ref()
                .map_or(0, |c| c.lost_responses()),
            responses_lost_shutdown: self
                .bound_connections
                .as_ref()
                .map_or(0, |c| c.lost_shutdown_responses()),
            responses_shed: self
                .bound_connections
                .as_ref()
                .map_or(0, |c| c.shed_responses()),
            outbound_depth_hwm: self
                .bound_connections
                .as_ref()
                .map_or(0, |c| c.outbound_depth_hwm()),
            writer_stalls: self
                .bound_connections
                .as_ref()
                .map_or(0, |c| c.writer_stalls()),
            uptime_micros: self.telemetry.uptime_micros(),
            drain_cycles: self.telemetry.cycles(),
            wake: self.telemetry.wake_counts(),
        }
    }

    /// Drops all cached results (cold-path measurement hook for load
    /// drivers; the registry stays resident).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Enqueues a query for the next [`drain`](Self::drain); returns its
    /// id. The submit stamp taken here is the origin of the query's
    /// queue-wait stage span.
    pub fn submit(&mut self, query: Query) -> QueryId {
        let id = mint(&mut self.next_id);
        let at = self.telemetry.now_micros();
        self.queue.push((id, query, at));
        id
    }

    /// Number of queries waiting for the next drain.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Serves one query immediately (a drain of one). Queries already
    /// [`submit`](Self::submit)ted stay queued for the next
    /// [`drain`](Self::drain) — this serves *only* the given query.
    ///
    /// # Errors
    ///
    /// Resolution or engine failures for this query.
    pub fn query(&mut self, query: Query) -> Result<QueryResponse, ServiceError> {
        let (_, result) = self.query_many(vec![query]).pop().expect("one query");
        result
    }

    /// Serves `queries` immediately as one cycle of their own, in order
    /// (same-key members share engine passes). Like
    /// [`query`](Self::query), it leaves the [`submit`](Self::submit)
    /// queue untouched.
    pub(crate) fn query_many(&mut self, queries: Vec<Query>) -> Vec<DrainedQuery> {
        let at = self.telemetry.now_micros();
        self.run_cycle(queries.into_iter().map(|query| (None, query, at)))
    }

    /// Drains the queue: one full resolve → group → execute → respond
    /// cycle over everything [`submit`](Self::submit)ted.
    ///
    /// Responses come back in submission order. Per-query failures
    /// (unknown graph, engine error) fail that query alone, not the
    /// drain; an engine failure fails every query of its group (they
    /// shared the pass).
    pub fn drain(&mut self) -> Vec<DrainedQuery> {
        let pending = std::mem::take(&mut self.queue);
        self.run_cycle(
            pending
                .into_iter()
                .map(|(id, query, at)| (Some(id), query, at)),
        )
    }

    /// One synchronous cycle over `(id, query, submit stamp)` triples
    /// (`None` mints the id at resolve time), executed inline.
    fn run_cycle(
        &mut self,
        pending: impl Iterator<Item = (Option<QueryId>, Query, u64)>,
    ) -> Vec<DrainedQuery> {
        let mut cycle = Cycle::default();
        let (mut resolver, runner) = self.split(Route::Cycle);
        for (id, query, at) in pending {
            resolver.resolve(&mut cycle, id, query, at, None);
        }
        let groups = group_misses(std::mem::take(&mut cycle.misses));
        let clock = resolver.telemetry.clock();
        let passes = execute_groups(resolver.registry, &groups, runner, &clock);
        for (group, pass) in groups.into_iter().zip(passes) {
            self.apply_group(group, pass, &mut cycle.slots);
        }
        cycle
            .slots
            .into_iter()
            .map(|slot| slot.expect("every pending query answered"))
            .collect()
    }

    /// Borrows the service field by field: a [`Resolver`] labelling its
    /// hits with `route`, plus the group-execution pool, so the execute
    /// stage can hold the registry while resolves continue.
    fn split(&mut self, route: Route) -> (Resolver<'_>, &TrialRunner) {
        let resolver = Resolver {
            registry: &self.registry,
            cache: &mut self.cache,
            telemetry: &self.telemetry,
            queries_served: &mut self.queries_served,
            next_id: &mut self.next_id,
            route,
        };
        (resolver, &self.runner)
    }

    /// Stage 4 for one group: bump the pass counter, record outcomes in
    /// the cache, and fill the members' response slots with per-query
    /// latency attribution.
    fn apply_group(&mut self, group: Group, pass: GroupPass, results: &mut [Option<DrainedQuery>]) {
        self.engine_passes += 1;
        // One stamp closes every member's execute span (resolve end →
        // the group's pass applied here); one more, after the cache
        // inserts, closes the respond span. Reusing the stamps keeps
        // stage sums exactly equal to end-to-end.
        let applied_at = self.telemetry.now_micros();
        let by_seed = match pass.by_seed {
            Ok(v) => v,
            Err(e) => {
                for (slot, r) in group.members {
                    let mut stages = r.stages;
                    stages.execute_micros = applied_at.saturating_sub(
                        stages.submitted_micros + stages.queue_micros + stages.resolve_micros,
                    );
                    self.telemetry.record_failed_query(stages);
                    results[slot] = Some((r.id, Err(ServiceError::Engine(e.clone()))));
                }
                return;
            }
        };
        let engine_micros = pass.engine_micros;
        let coalesced = group.seeds.len();
        let total_rounds: u64 = by_seed
            .iter()
            .map(|(_, o)| o.stats().total_rounds())
            .sum::<u64>()
            .max(1);
        // The paper-faithful mode is not one-sided (it can reject
        // planar graphs — the Claim 10 refutation), so its rejects must
        // not become seed-universal certificates.
        let certifiable = group.cfg.embedding != planartest_core::EmbeddingMode::Paper;
        for (seed, outcome) in &by_seed {
            let formed = self.cache.insert(&group.key, *seed, outcome, certifiable);
            // A newly formed certificate is durable before its response
            // goes out. A log failure degrades durability, never
            // availability: the query is still answered from memory.
            if formed {
                if let Some(log) = self.state_log.as_mut() {
                    let record = CertificateRecord {
                        key: group.key,
                        seed: *seed,
                        outcome: (*outcome).clone(),
                    };
                    if let Err(e) = log.append(&record) {
                        eprintln!("planartest: certificate log append failed: {e}");
                    }
                }
            }
        }
        let mut pass_stats = planartest_sim::SimStats::default();
        for (_, outcome) in &by_seed {
            pass_stats.merge(outcome.stats());
        }
        self.telemetry.record_pass(&pass_stats, group.members.len());
        let responded_at = self.telemetry.now_micros();
        // Indexed lane lookup: a Monte-Carlo fan-out can coalesce
        // thousands of seeds, and every member resolves its lane here.
        let outcome_of: HashMap<u64, &Outcome> = by_seed.iter().map(|(s, o)| (*s, o)).collect();
        for (slot, r) in &group.members {
            let lane = group.lane(r);
            let outcome = (*outcome_of.get(&lane).expect("every lane ran")).clone();
            let attributed =
                engine_micros.saturating_mul(outcome.stats().total_rounds()) / total_rounds;
            let mut stages = r.stages;
            let resolved_at = stages.submitted_micros + stages.queue_micros + stages.resolve_micros;
            stages.execute_micros = applied_at.saturating_sub(resolved_at);
            stages.respond_micros = responded_at.saturating_sub(applied_at);
            self.telemetry.record_query(
                r.conn,
                r.id,
                group.key.property,
                CacheStatus::Cold,
                Route::Cycle,
                stages,
                coalesced,
                engine_micros,
            );
            results[*slot] = Some((
                r.id,
                Ok(QueryResponse {
                    id: r.id,
                    graph: group.key.graph,
                    property: group.key.property,
                    seed: lane,
                    outcome,
                    cache: CacheStatus::Cold,
                    coalesced,
                    engine_micros,
                    attributed_micros: attributed,
                    stages,
                }),
            ));
        }
    }
}

/// Takes the next id off the service's one query-id counter.
fn mint(next_id: &mut QueryId) -> QueryId {
    let id = *next_id;
    *next_id += 1;
    id
}

/// The service state one resolve touches, borrowed field by field (see
/// [`Service::split`]): the pipelined drain loop keeps resolving the
/// next cycle's arrivals while the execute stage holds the registry.
struct Resolver<'s> {
    registry: &'s GraphRegistry,
    cache: &'s mut ResultCache,
    telemetry: &'s Telemetry,
    queries_served: &'s mut u64,
    next_id: &'s mut QueryId,
    /// The route hits answered here are recorded under.
    route: Route,
}

impl Resolver<'_> {
    /// Stage 1 for one query: mint its id (unless
    /// [`Service::submit`] already did), resolve the graph reference,
    /// build the cache key, and answer a warm/certificate hit or a
    /// resolution failure in place. A miss leaves its slot empty and
    /// joins `cycle`'s group stage. Returns the query's slot.
    ///
    /// Stage spans stay contiguous by construction: the queue span ends
    /// on the single stamp taken at entry, and the resolve span ends on
    /// the single stamp taken when the walk finishes — so
    /// `queue + resolve (+ execute + respond)` sums *exactly* to
    /// end-to-end on the service clock.
    fn resolve(
        &mut self,
        cycle: &mut Cycle,
        id: Option<QueryId>,
        query: Query,
        submitted_micros: u64,
        conn: Option<ConnectionId>,
    ) -> usize {
        let id = id.unwrap_or_else(|| mint(self.next_id));
        let slot = cycle.slots.len();
        let telemetry = self.telemetry;
        *self.queries_served += 1;
        let resolve_start = telemetry.now_micros();
        let mut stages = StageTimes {
            submitted_micros,
            queue_micros: resolve_start.saturating_sub(submitted_micros),
            ..StageTimes::default()
        };
        let close = |stages: &mut StageTimes| {
            stages.resolve_micros = telemetry.now_micros().saturating_sub(resolve_start);
        };
        let entry = match self.registry.resolve(&query.graph) {
            Ok(e) => e,
            Err(err) => {
                close(&mut stages);
                telemetry.record_failed_query(stages);
                cycle.slots.push(Some((id, Err(err))));
                return slot;
            }
        };
        let key = CacheKey {
            graph: entry.fingerprint,
            config: query.cfg.fingerprint(),
            property: query.property,
        };
        let seed = query.cfg.seed;
        if let Some((outcome, status, stored_seed)) = self.cache.lookup(&key, seed) {
            close(&mut stages);
            telemetry.record_query(conn, id, query.property, status, self.route, stages, 0, 0);
            cycle.slots.push(Some((
                id,
                Ok(QueryResponse {
                    id,
                    graph: key.graph,
                    property: query.property,
                    seed: stored_seed,
                    outcome,
                    cache: status,
                    coalesced: 0,
                    engine_micros: 0,
                    attributed_micros: 0,
                    stages,
                }),
            )));
            return slot;
        }
        close(&mut stages);
        cycle.slots.push(None);
        cycle.misses.push((
            slot,
            Resolved {
                id,
                key,
                seed,
                query,
                conn,
                stages,
            },
        ));
        slot
    }
}

/// One drain cycle's accumulator: a response slot per resolved query
/// (filled at resolve time for hits, by the respond stage for misses),
/// the misses bound for the group stage, and the reply lines owed to
/// router tokens once the cycle's passes are applied.
#[derive(Default)]
struct Cycle {
    slots: Vec<Option<DrainedQuery>>,
    misses: Vec<(usize, Resolved)>,
    owed: Vec<(Token, Reply)>,
}

/// Which slots one `query` (a single slot) or `batch` op's reply line
/// is assembled from.
struct Reply {
    slots: Vec<usize>,
    batch: bool,
}

impl Cycle {
    /// Resolves a `query`/`batch` op's members into fresh slots.
    /// Returns its reply line when every member was answered at resolve
    /// time (the hit fast path); otherwise the line is owed to `token`.
    fn admit(
        &mut self,
        resolver: &mut Resolver<'_>,
        token: Token,
        conn: ConnectionId,
        at_micros: u64,
        queries: Vec<Query>,
        batch: bool,
    ) -> Option<Value> {
        let first = self.slots.len();
        let slots = queries
            .into_iter()
            .map(|q| resolver.resolve(self, None, q, at_micros, Some(conn)))
            .collect();
        let reply = Reply { slots, batch };
        if self.slots[first..].iter().all(Option::is_some) {
            // Answered in full: its slots are spent, so drop them.
            let line = self.render(&reply);
            self.slots.truncate(first);
            Some(line)
        } else {
            self.owed.push((token, reply));
            None
        }
    }

    /// Takes `reply`'s slots out and renders its wire line.
    fn render(&mut self, reply: &Reply) -> Value {
        let mut take = |slot: usize| match self.slots[slot].take().expect("slot answered").1 {
            Ok(response) => protocol::response_value(&response),
            Err(e) => protocol::error_value(&e),
        };
        if reply.batch {
            let responses: Vec<Value> = reply.slots.iter().map(|&s| take(s)).collect();
            Value::obj().field("ok", true).field("responses", responses)
        } else {
            take(reply.slots[0])
        }
    }

    /// Delivers every owed reply (after the respond stage filled the
    /// misses' slots).
    fn settle(&mut self, router: &mut ResponseRouter, connections: &Connections) {
        for (token, reply) in std::mem::take(&mut self.owed) {
            let value = self.render(&reply);
            router.fulfill(token, &value, connections);
        }
    }
}

/// Stage 2: bucket resolve-stage misses into engine groups by cache
/// key, preserving first-seen order of both groups and members, and
/// collect each group's distinct seed lanes.
pub(crate) fn group_misses(misses: Vec<(usize, Resolved)>) -> Vec<Group> {
    let mut index: HashMap<(u128, u128, Property), usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for (slot, resolved) in misses {
        let gk = (
            resolved.key.graph.0,
            resolved.key.config.0,
            resolved.key.property,
        );
        let g = match index.get(&gk) {
            Some(&g) => g,
            None => {
                index.insert(gk, groups.len());
                groups.push(Group {
                    key: resolved.key,
                    cfg: resolved.query.cfg.clone(),
                    seeds: Vec::new(),
                    members: Vec::new(),
                });
                groups.len() - 1
            }
        };
        let group = &mut groups[g];
        let lane = group.lane(&resolved);
        if !group.seeds.contains(&lane) {
            group.seeds.push(lane);
        }
        group.members.push((slot, resolved));
    }
    groups
}

/// Tuning for the background drain loop (see [`Server::start`]).
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// How long the oldest pending query may wait for company before a
    /// cycle fires anyway. `ZERO` (the default) serves every request
    /// immediately — the latency end of the linger-vs-latency
    /// tradeoff; raising it widens the cross-client coalescing window
    /// at the cost of that much added tail latency for lone queries.
    pub linger: Duration,
    /// Queue depth that fires a cycle before the linger expires
    /// (`usize::MAX` = depth never fires one; `linger` alone governs).
    pub wake_depth: usize,
    /// Per-frame byte cap on every transport
    /// ([`DEFAULT_MAX_FRAME`]).
    pub max_frame: usize,
    /// Per-connection outbound queue bound (`--outbound-depth`; `0` =
    /// unbounded). When a connection's writer falls this many responses
    /// behind, further responses to it are *shed* (counted in
    /// [`ServiceStats::responses_shed`]) instead of blocking the drain
    /// cycle.
    pub outbound_depth: usize,
    /// Per-connection in-flight submission cap (`--max-in-flight`;
    /// `0` = unbounded). A connection with this many unanswered
    /// submissions has its reader paused until responses drain, so one
    /// firehose client cannot starve the shared submission queue.
    pub max_in_flight: usize,
}

/// Default per-connection outbound queue bound.
pub const DEFAULT_OUTBOUND_DEPTH: usize = 1024;

/// Default per-connection in-flight submission cap.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 1024;

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            linger: Duration::ZERO,
            wake_depth: usize::MAX,
            max_frame: DEFAULT_MAX_FRAME,
            outbound_depth: DEFAULT_OUTBOUND_DEPTH,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
        }
    }
}

/// The concurrent server: a dedicated thread owns a [`Service`] and
/// drains the shared submission queue in cycles; transports attach via
/// [`attach_stdio`](Server::attach_stdio) /
/// [`listen_unix`](Server::listen_unix) /
/// [`listen_tcp`](Server::listen_tcp).
#[derive(Debug)]
pub struct Server {
    queue: Arc<SubmissionQueue>,
    connections: Arc<Connections>,
    max_frame: usize,
    handle: thread::JoinHandle<Service>,
}

impl Server {
    /// Starts the background drain loop over `service`.
    #[must_use]
    pub fn start(mut service: Service, opts: ServeOptions) -> Server {
        let queue = Arc::new(SubmissionQueue::new());
        // One timebase end to end: arrival stamps in the queue and
        // stage stamps in the scheduler come off the same clock.
        queue.set_clock(service.telemetry.clock());
        service.bind_queue(Arc::clone(&queue));
        let connections = Arc::new(Connections::new());
        connections.set_limits(opts.outbound_depth, opts.max_in_flight);
        // Writer threads time their writes on the service clock.
        connections.set_telemetry(service.telemetry());
        service.bind_connections(Arc::clone(&connections));
        let handle = {
            let queue = Arc::clone(&queue);
            let connections = Arc::clone(&connections);
            thread::Builder::new()
                .name("planartest-drain".into())
                .spawn(move || drain_loop(service, &queue, &connections, opts))
                .expect("spawn drain loop")
        };
        Server {
            queue,
            connections,
            max_frame: opts.max_frame,
            handle,
        }
    }

    /// Attaches stdin/stdout as a connection (the compatibility
    /// transport). EOF on stdin requests graceful shutdown.
    pub fn attach_stdio(&self) -> ConnectionId {
        spawn_stdio(&self.connections, &self.queue, self.max_frame)
    }

    /// Starts a unix-socket listener at `path`.
    ///
    /// # Errors
    ///
    /// Binding failures.
    #[cfg(unix)]
    pub fn listen_unix(&self, path: &Path) -> io::Result<()> {
        crate::transport::spawn_unix_listener(&self.connections, &self.queue, path, self.max_frame)
    }

    /// Starts a TCP listener; returns the bound address (`:0` resolves
    /// to an ephemeral port).
    ///
    /// # Errors
    ///
    /// Binding failures.
    pub fn listen_tcp(&self, addr: &str) -> io::Result<SocketAddr> {
        spawn_tcp_listener(&self.connections, &self.queue, addr, self.max_frame)
    }

    /// The shared submission queue (shutdown signalling, depth probes,
    /// or custom in-process transports).
    #[must_use]
    pub fn submission_queue(&self) -> Arc<SubmissionQueue> {
        Arc::clone(&self.queue)
    }

    /// The connection table (custom in-process transports: register a
    /// writer, push [`Submission`]s tagged with the returned id).
    #[must_use]
    pub fn connections(&self) -> Arc<Connections> {
        Arc::clone(&self.connections)
    }

    /// Requests graceful shutdown: pending and in-flight queries are
    /// answered, then the drain loop exits.
    pub fn request_shutdown(&self) {
        self.queue.request_shutdown();
    }

    /// Waits for the drain loop to finish (after
    /// [`request_shutdown`](Server::request_shutdown) or a transport
    /// EOF) and returns the service with its registry, cache and
    /// telemetry intact.
    ///
    /// # Panics
    ///
    /// If the drain thread panicked.
    #[must_use]
    pub fn join(self) -> Service {
        self.handle.join().expect("drain loop panicked")
    }
}

/// What a submission asks of the cycle, parsed once at arrival.
enum Request {
    /// A `query` (one member, `batch == false`) or `batch` op.
    Queries { queries: Vec<Query>, batch: bool },
    /// A control op (ingest, stats, …) or unknown op: run in place
    /// against the whole service.
    Control(Value),
    /// A bad frame or malformed fields: answered in-band, touching no
    /// service state.
    Invalid(String),
}

impl Request {
    fn classify(request: Result<Value, String>) -> Request {
        let req = match request {
            Ok(req) => req,
            Err(message) => return Request::Invalid(message),
        };
        let parsed = match req.get("op").and_then(Value::as_str) {
            Some("query") => protocol::parse_query(&req).map(|q| (vec![q], false)),
            Some("batch") => protocol::parse_batch(&req).map(|qs| (qs, true)),
            _ => return Request::Control(req),
        };
        match parsed {
            Ok((queries, batch)) => Request::Queries { queries, batch },
            Err(message) => Request::Invalid(message),
        }
    }
}

/// One submission inside the drain loop: its router token (assigned in
/// arrival order, so delivery order per connection holds however many
/// cycles it rides) and its classified request.
struct Arrival {
    token: Token,
    conn: ConnectionId,
    at_micros: u64,
    request: Request,
}

impl Arrival {
    fn new(sub: Submission, router: &mut ResponseRouter) -> Arrival {
        Arrival {
            token: router.admit(sub.conn),
            conn: sub.conn,
            at_micros: sub.at_micros,
            request: Request::classify(sub.request),
        }
    }
}

/// Resolves one arrival into `cycle` with the whole service in hand:
/// queries resolve (answered now when every member hits), control ops
/// run in place and in arrival order, invalid requests answer in-band.
fn dispatch(
    service: &mut Service,
    cycle: &mut Cycle,
    arrival: Arrival,
    router: &mut ResponseRouter,
    connections: &Connections,
) {
    let reply = match arrival.request {
        Request::Queries { queries, batch } => cycle.admit(
            &mut service.split(Route::Fast).0,
            arrival.token,
            arrival.conn,
            arrival.at_micros,
            queries,
            batch,
        ),
        Request::Control(req) => Some(protocol::handle_request(service, &req)),
        Request::Invalid(message) => Some(protocol::error_value(&message)),
    };
    if let Some(value) = reply {
        router.fulfill(arrival.token, &value, connections);
    }
}

/// The background drain loop: pipelined cycles until shutdown, then a
/// full flush of the per-connection outbound writer queues.
///
/// Each iteration dispatches carried arrivals plus (when nothing is
/// carried) one `wait_cycle` batch into the cycle, then, while the
/// group-execution pool runs the cycle's engine passes, resolves newly
/// arrived submissions into the next cycle (`wait_overlap`). A control
/// op is carried *with everything behind it on its own connection*, so
/// the per-connection semantics of the synchronous cycle (an `ingest`
/// is visible to every query behind it on that connection) are
/// preserved exactly; a query whose cache key has an in-flight engine
/// group is carried without blocking anyone.
fn drain_loop(
    mut service: Service,
    queue: &SubmissionQueue,
    connections: &Connections,
    opts: ServeOptions,
) -> Service {
    let mut router = ResponseRouter::default();
    // What the last overlap window left for this cycle: the queries it
    // resolved, and the arrivals it could not resolve early.
    let mut cycle = Cycle::default();
    let mut carry: Vec<Arrival> = Vec::new();
    loop {
        // Fresh submissions only when nothing is carried: a carried miss
        // must reach the engine before anything newer on its connection
        // is dispatched.
        let fresh = if cycle.owed.is_empty() && carry.is_empty() {
            let Some(fresh) = queue.wait_cycle(opts.linger, opts.wake_depth) else {
                break;
            };
            Some(fresh)
        } else {
            None
        };
        if matches!(fresh, Some((_, WakeReason::Shutdown))) {
            // From here on, undeliverable responses are shutdown-flush
            // casualties, not mid-flight losses.
            connections.begin_shutdown_flush();
        }

        // Phase 1: resolve in arrival order — carried arrivals first
        // (their router tokens predate every fresh submission).
        for arrival in std::mem::take(&mut carry) {
            dispatch(&mut service, &mut cycle, arrival, &mut router, connections);
        }
        let recorded = fresh.as_ref().map(|(subs, reason)| (*reason, subs.len()));
        for sub in fresh.into_iter().flat_map(|(subs, _)| subs) {
            let arrival = Arrival::new(sub, &mut router);
            dispatch(&mut service, &mut cycle, arrival, &mut router, connections);
        }

        // Phase 2: group. (Overlap batches were already recorded as
        // `pipeline` wakes when they were collected.)
        let groups = group_misses(std::mem::take(&mut cycle.misses));
        if let Some((reason, width)) = recorded {
            service.telemetry.record_cycle(reason, width, groups.len());
        }
        if groups.is_empty() {
            debug_assert!(cycle.owed.is_empty() && cycle.slots.is_empty());
            continue;
        }

        // Phase 3: execute on a scoped thread while this thread resolves
        // new arrivals into the next cycle.
        let in_flight: HashSet<(u128, u128, Property)> = groups
            .iter()
            .map(|g| (g.key.graph.0, g.key.config.0, g.key.property))
            .collect();
        queue.pipeline_begin();
        let mut next = Cycle::default();
        let (mut resolver, runner) = service.split(Route::Fast);
        let registry = resolver.registry;
        let passes = thread::scope(|scope| {
            let clock = resolver.telemetry.clock();
            let exec = scope.spawn({
                let groups = &groups;
                move || {
                    let passes = execute_groups(registry, groups, runner, &clock);
                    queue.pipeline_done();
                    passes
                }
            });
            // A carried control op is a *per-connection* barrier: it
            // carries everything behind it on its own connection, so
            // same-connection effects (ingest-then-query) replay in
            // arrival order next cycle — while every other connection
            // keeps flowing through the fast path. Cross-connection
            // arrival order around a pending control op is not
            // preserved; concurrent clients race those orderings anyway.
            let key_in_flight = |q: &Query| {
                registry.resolve(&q.graph).is_ok_and(|entry| {
                    in_flight.contains(&(entry.fingerprint.0, q.cfg.fingerprint().0, q.property))
                })
            };
            let mut blocked: HashSet<ConnectionId> = HashSet::new();
            while let Some(batch) = queue.wait_overlap() {
                resolver
                    .telemetry
                    .record_cycle(WakeReason::Pipeline, batch.len(), 0);
                for sub in batch {
                    let arrival = Arrival::new(sub, &mut router);
                    match arrival.request {
                        _ if blocked.contains(&arrival.conn) => carry.push(arrival),
                        Request::Control(_) => {
                            blocked.insert(arrival.conn);
                            carry.push(arrival);
                        }
                        // The running pass may be its answer: resolve it
                        // next cycle (later queries depend on nothing it
                        // does, so no barrier).
                        Request::Queries { ref queries, .. }
                            if queries.iter().any(key_in_flight) =>
                        {
                            carry.push(arrival);
                        }
                        Request::Queries { queries, batch } => {
                            let (token, conn, at) =
                                (arrival.token, arrival.conn, arrival.at_micros);
                            if let Some(value) =
                                next.admit(&mut resolver, token, conn, at, queries, batch)
                            {
                                router.fulfill(token, &value, connections);
                            }
                        }
                        Request::Invalid(message) => {
                            router.fulfill(
                                arrival.token,
                                &protocol::error_value(&message),
                                connections,
                            );
                        }
                    }
                }
            }
            exec.join().expect("group execution thread panicked")
        });

        // Phase 4: respond — apply passes in group order, then deliver
        // the owed replies (the router restores per-connection
        // submission order around anything answered early).
        for (group, pass) in groups.into_iter().zip(passes) {
            service.apply_group(group, pass, &mut cycle.slots);
        }
        cycle.settle(&mut router, connections);
        cycle = next;
    }
    // Graceful shutdown: every computed response is already enqueued;
    // wait for the writers to put them on the wire (stuck connections
    // are force-closed after a grace period), then join the writers.
    connections.finish_shutdown_flush();
    service
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::GraphRef;
    use planartest_core::{PlanarityTester, TesterConfig};
    use std::io::Write;
    use std::sync::Mutex;

    fn cfg(eps: f64) -> TesterConfig {
        TesterConfig::new(eps).with_phases(5)
    }

    fn service_with(name: &str, spec: &str) -> Service {
        let mut s = Service::new();
        s.registry_mut().ingest_spec(name, spec).unwrap();
        s
    }

    #[test]
    fn cold_then_warm_then_certificate() {
        let mut s = service_with("far", "k5_chain(6)");
        let q =
            |seed: u64| Query::planarity(GraphRef::Name("far".into()), cfg(0.05).with_seed(seed));
        let cold = s.query(q(1)).unwrap();
        assert_eq!(cold.cache, CacheStatus::Cold);
        assert!(!cold.outcome.accepted());
        assert_eq!(s.engine_passes(), 1);

        let warm = s.query(q(1)).unwrap();
        assert_eq!(warm.cache, CacheStatus::Warm);
        assert_eq!(s.engine_passes(), 1, "warm hit must not run the engine");
        assert_eq!(
            warm.outcome.rejecting_nodes(),
            cold.outcome.rejecting_nodes()
        );
        assert_eq!(warm.outcome.stats(), cold.outcome.stats());

        // Unseen seed on a known-rejected graph: certificate replay,
        // stamped with the certifying seed, no engine pass.
        let cert = s.query(q(2)).unwrap();
        assert_eq!(cert.cache, CacheStatus::Certificate);
        assert_eq!(cert.seed, 1);
        assert!(!cert.outcome.accepted());
        assert_eq!(s.engine_passes(), 1);
    }

    #[test]
    fn accepts_do_not_transfer_across_seeds() {
        let mut s = service_with("p", "tri_grid(5,5)");
        let q = |seed: u64| Query::planarity(GraphRef::Name("p".into()), cfg(0.2).with_seed(seed));
        assert!(s.query(q(1)).unwrap().outcome.accepted());
        assert_eq!(s.engine_passes(), 1);
        let other = s.query(q(2)).unwrap();
        assert_eq!(other.cache, CacheStatus::Cold, "fresh seed, fresh run");
        assert_eq!(s.engine_passes(), 2);
    }

    #[test]
    fn same_graph_queries_coalesce_into_one_pass() {
        let mut s = service_with("p", "tri_grid(5,5)");
        let ids: Vec<QueryId> = (0..4)
            .map(|seed| {
                s.submit(Query::planarity(
                    GraphRef::Name("p".into()),
                    cfg(0.2).with_seed(seed),
                ))
            })
            .collect();
        assert_eq!(s.pending(), 4);
        let drained = s.drain();
        assert_eq!(s.engine_passes(), 1, "four seeds, one engine pass");
        assert_eq!(drained.len(), 4);
        for ((id, result), want) in drained.iter().zip(&ids) {
            assert_eq!(id, want, "submission order preserved");
            let r = result.as_ref().unwrap();
            assert_eq!(r.coalesced, 4);
            assert!(r.attributed_micros <= r.engine_micros);
        }
        // Attribution splits the pass: shares sum to ~the pass wall.
        let total: u64 = drained
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().attributed_micros)
            .sum();
        let pass = drained[0].1.as_ref().unwrap().engine_micros;
        assert!(total <= pass + 4);
    }

    #[test]
    fn coalesced_outcomes_match_solo_runs_bit_for_bit() {
        let mut s = service_with("p", "tri_grid(5,5)");
        for seed in 0..3 {
            s.submit(Query::planarity(
                GraphRef::Name("p".into()),
                cfg(0.2).with_seed(seed),
            ));
        }
        let drained = s.drain();
        let graph = planartest_graph::generators::spec::parse("tri_grid(5,5)")
            .unwrap()
            .graph;
        for (seed, (_, result)) in (0..3u64).zip(&drained) {
            let solo = PlanarityTester::new(cfg(0.2).with_seed(seed))
                .run(&graph)
                .unwrap();
            match &result.as_ref().unwrap().outcome {
                Outcome::Planarity(o) => {
                    assert_eq!(o.rejections, solo.rejections, "seed {seed}");
                    assert_eq!(o.stats, solo.stats, "seed {seed}");
                    assert_eq!(o.violation_witnesses, solo.violation_witnesses);
                }
                other => panic!("wrong outcome shape {other:?}"),
            }
        }
    }

    #[test]
    fn hereditary_properties_are_seed_free_and_cached() {
        let mut s = service_with("g", "grid(5,5)");
        let q = |seed: u64, p: Property| {
            Query::planarity(GraphRef::Name("g".into()), cfg(0.2).with_seed(seed)).with_property(p)
        };
        let a = s.query(q(1, Property::Bipartiteness)).unwrap();
        assert!(a.outcome.accepted(), "grids are bipartite");
        assert_eq!(s.engine_passes(), 1);
        // Different seed, same property: warm (verdict is seed-free).
        let b = s.query(q(2, Property::Bipartiteness)).unwrap();
        assert_eq!(b.cache, CacheStatus::Warm);
        assert_eq!(s.engine_passes(), 1);
        // Different property: its own pass.
        let c = s.query(q(1, Property::CycleFreeness)).unwrap();
        assert!(!c.outcome.accepted(), "grids have cycles");
        assert_eq!(s.engine_passes(), 2);
    }

    #[test]
    fn paper_mode_rejects_never_become_certificates() {
        // Paper mode is not one-sided — the Claim 10
        // refutation shows it can reject planar graphs — so a reject
        // under one seed proves nothing about other seeds and must not
        // be replayed for them.
        let mut s = service_with("k33", "complete_bipartite(3,3)");
        let q = |seed: u64| {
            Query::planarity(
                GraphRef::Name("k33".into()),
                cfg(0.1)
                    .with_seed(seed)
                    .with_embedding(planartest_core::EmbeddingMode::Paper),
            )
        };
        let first = s.query(q(1)).unwrap();
        assert!(!first.outcome.accepted());
        // Fresh seed: its own engine pass, not a certificate replay.
        let second = s.query(q(2)).unwrap();
        assert_eq!(second.cache, CacheStatus::Cold);
        assert_eq!(s.engine_passes(), 2);
        // Exact-seed replay still works (it is an observation, and the
        // observation is deterministic per seed).
        assert_eq!(s.query(q(1)).unwrap().cache, CacheStatus::Warm);
        assert_eq!(s.engine_passes(), 2);
    }

    #[test]
    fn query_preserves_previously_submitted_queue() {
        let mut s = service_with("p", "tri_grid(4,4)");
        let pending_id = s.submit(Query::planarity(
            GraphRef::Name("p".into()),
            cfg(0.2).with_seed(11),
        ));
        // A one-shot in between must serve only itself...
        let one_shot = s
            .query(Query::planarity(
                GraphRef::Name("p".into()),
                cfg(0.2).with_seed(22),
            ))
            .unwrap();
        assert_eq!(one_shot.coalesced, 1);
        // ...and the earlier submission is still pending and drainable.
        assert_eq!(s.pending(), 1);
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, pending_id);
        assert!(drained[0].1.is_ok());
    }

    #[test]
    fn unknown_graph_fails_only_that_query() {
        let mut s = service_with("p", "tri_grid(4,4)");
        s.submit(Query::planarity(GraphRef::Name("missing".into()), cfg(0.2)));
        s.submit(Query::planarity(GraphRef::Name("p".into()), cfg(0.2)));
        let drained = s.drain();
        assert!(matches!(
            drained[0].1,
            Err(ServiceError::UnknownGraph { .. })
        ));
        assert!(drained[1].1.is_ok());
        let stats = s.stats();
        assert_eq!(stats.queries_served, 2);
        assert_eq!(stats.graphs, 1);
        assert_eq!(stats.engine_passes, 1);
    }

    #[test]
    fn queries_by_fingerprint_resolve() {
        let mut s = Service::new();
        let fp = s
            .registry_mut()
            .ingest_spec("p", "tri_grid(4,4)")
            .unwrap()
            .fingerprint;
        let r = s
            .query(Query::planarity(GraphRef::Fingerprint(fp), cfg(0.2)))
            .unwrap();
        assert_eq!(r.graph, fp);
    }

    #[test]
    fn parallel_group_drain_matches_sequential() {
        // The determinism contract in miniature (the proptest suite
        // does this at scale): mixed properties, two graphs, group
        // execution fanned across 4 workers vs 1.
        let build = |threads: usize| {
            let mut s = Service::new().with_group_threads(threads);
            s.registry_mut().ingest_spec("p", "tri_grid(4,4)").unwrap();
            s.registry_mut().ingest_spec("far", "k5_chain(4)").unwrap();
            for seed in 0..2 {
                s.submit(Query::planarity(
                    GraphRef::Name("p".into()),
                    cfg(0.2).with_seed(seed),
                ));
                s.submit(Query::planarity(
                    GraphRef::Name("far".into()),
                    cfg(0.05).with_seed(seed),
                ));
            }
            s.submit(
                Query::planarity(GraphRef::Name("p".into()), cfg(0.2))
                    .with_property(Property::Bipartiteness),
            );
            s.drain()
        };
        let sequential = build(1);
        let parallel = build(4);
        assert_eq!(sequential.len(), parallel.len());
        for ((id_a, a), (id_b, b)) in sequential.iter().zip(&parallel) {
            assert_eq!(id_a, id_b);
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.outcome.accepted(), b.outcome.accepted());
            assert_eq!(a.outcome.stats(), b.outcome.stats());
            assert_eq!(a.outcome.rejecting_nodes(), b.outcome.rejecting_nodes());
            assert_eq!(a.coalesced, b.coalesced);
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn cold_restart_replays_certificates_without_engine_passes() {
        let dir = std::env::temp_dir().join(format!("pt_sched_restart_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let q =
            |seed: u64| Query::planarity(GraphRef::Name("far".into()), cfg(0.05).with_seed(seed));
        let cold = {
            let mut s = Service::new();
            let summary = s.set_state_dir(&dir).unwrap();
            assert_eq!(
                summary,
                StateSummary::default(),
                "fresh dir restores nothing"
            );
            s.registry_mut().ingest_spec("far", "k5_chain(6)").unwrap();
            let cold = s.query(q(1)).unwrap();
            assert!(!cold.outcome.accepted());
            assert_eq!(s.engine_passes(), 1);
            cold
        };
        // Cold restart: the graph re-maps, the certificate replays, and
        // the previously-certified query is answered with zero passes —
        // for the certifying seed *and* for seeds that never ran.
        let mut s = Service::new();
        let summary = s.set_state_dir(&dir).unwrap();
        assert_eq!(
            summary,
            StateSummary {
                graphs_restored: 1,
                certificates_replayed: 1,
                tail_skipped: 0,
            }
        );
        // Re-attaching is idempotent: everything is already live.
        assert_eq!(s.set_state_dir(&dir).unwrap(), StateSummary::default());
        assert_eq!(s.stats().mapped_graphs, 1);
        let replayed = s.query(q(1)).unwrap();
        assert_eq!(replayed.cache, CacheStatus::Certificate);
        assert_eq!(
            replayed.outcome.rejecting_nodes(),
            cold.outcome.rejecting_nodes()
        );
        assert_eq!(replayed.outcome.stats(), cold.outcome.stats());
        let fresh_seed = s.query(q(99)).unwrap();
        assert_eq!(fresh_seed.cache, CacheStatus::Certificate);
        assert_eq!(fresh_seed.seed, 1, "stamped with the certifying seed");
        assert_eq!(s.engine_passes(), 0, "no engine work after restart");
        // Compaction rewrites the log to exactly the live set.
        assert_eq!(s.compact_certificates().unwrap(), 1);
        assert!(matches!(
            Service::new().compact_certificates(),
            Err(ServiceError::Persist(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An in-process transport endpoint: a shared byte sink the server's
    /// writer thread for this connection flushes response lines into.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Sink {
        fn responses(&self) -> Vec<Value> {
            let bytes = self.0.lock().unwrap().clone();
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(|l| Value::parse(l).unwrap())
                .collect()
        }
    }

    /// Runs `service` as a server whose cycles fire only on a control
    /// op, a bad frame or shutdown (1 h linger, no depth wake): pushes
    /// `(connection index, request)` submissions over `conns` in-process
    /// connections, then shuts down. Returns the service and each
    /// connection's responses.
    fn serve_controlled(
        service: Service,
        conns: usize,
        submissions: Vec<(usize, Result<Value, String>)>,
    ) -> (Service, Vec<Vec<Value>>) {
        let server = Server::start(
            service,
            ServeOptions {
                linger: Duration::from_secs(3600),
                wake_depth: usize::MAX,
                ..ServeOptions::default()
            },
        );
        let sinks: Vec<Sink> = (0..conns).map(|_| Sink::default()).collect();
        let ids: Vec<ConnectionId> = sinks
            .iter()
            .map(|s| server.connections().register(Box::new(s.clone())))
            .collect();
        let queue = server.submission_queue();
        for (conn, request) in submissions {
            queue.push(Submission::new(ids[conn], request));
        }
        server.request_shutdown();
        let service = server.join();
        (service, sinks.iter().map(Sink::responses).collect())
    }

    fn query_req(graph: &str, seed: u64) -> Value {
        Value::obj()
            .field("graph", graph)
            .field("epsilon", 0.2)
            .field("phases", 5u64)
            .field("seed", seed)
    }

    fn query_op(graph: &str, seed: u64) -> Result<Value, String> {
        Ok(query_req(graph, seed).field("op", "query"))
    }

    fn stats_op() -> Result<Value, String> {
        Ok(Value::obj().field("op", "stats"))
    }

    #[test]
    fn cycle_routes_responses_per_connection_in_submission_order() {
        // Two connections interleaved. The three queries linger; the
        // garbage frame behind them on connection 0 fires the cycle, and
        // the trailing `stats` on connection 1 joins it or runs right
        // after — either way all three queries share one cycle.
        let (s, responses) = serve_controlled(
            service_with("p", "tri_grid(4,4)"),
            2,
            vec![
                (0, query_op("p", 1)),
                (1, query_op("p", 2)),
                (0, query_op("p", 3)),
                (0, Err("frame exceeds the 16-byte limit".into())),
                (1, stats_op()),
            ],
        );
        // Arrival order per connection: the garbage frame is answered
        // at dispatch, yet waits behind the two engine misses ahead of
        // it on its connection.
        let seed = |v: &Value| v.get("seed").and_then(Value::as_u64);
        assert_eq!(responses[0].len(), 3);
        assert_eq!(responses[1].len(), 2);
        assert_eq!(seed(&responses[0][0]), Some(1));
        assert_eq!(seed(&responses[0][1]), Some(3));
        assert_eq!(seed(&responses[1][0]), Some(2));
        // The three same-key queries coalesced into one pass...
        assert_eq!(s.engine_passes(), 1);
        for v in [&responses[0][0], &responses[0][1], &responses[1][0]] {
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(v.get("coalesced").unwrap().as_u64(), Some(3));
        }
        // ...the garbage frame answered in-band on its connection...
        assert_eq!(responses[0][2].get("ok").unwrap().as_bool(), Some(false));
        // ...and the control op answered in place.
        assert_eq!(responses[1][1].get("ok").unwrap().as_bool(), Some(true));
        assert!(responses[1][1].get("graphs").is_some());
    }

    #[test]
    fn cycle_ingest_is_visible_to_later_queries_in_the_same_cycle() {
        // The ingest fires a cycle on arrival; the other connection's
        // query resolves in that cycle or, lingering, in the one the
        // trailing `stats` fires — after the ingest either way.
        let (_, responses) = serve_controlled(
            Service::new(),
            3,
            vec![
                (
                    0,
                    Ok(Value::obj()
                        .field("op", "ingest")
                        .field("name", "g")
                        .field("spec", "tri_grid(4,4)")),
                ),
                (1, query_op("g", 0)),
                (2, stats_op()),
            ],
        );
        assert_eq!(responses[0][0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            responses[1][0].get("verdict").unwrap().as_str(),
            Some("accept"),
            "query resolved against the ingest ahead of it"
        );
    }

    #[test]
    fn cycle_batch_op_reassembles_and_coalesces_across_connections() {
        // Both ops linger until the trailing `stats` fires one cycle.
        let (s, responses) = serve_controlled(
            service_with("p", "tri_grid(4,4)"),
            3,
            vec![
                (
                    0,
                    Ok(Value::obj()
                        .field("op", "batch")
                        .field("queries", vec![query_req("p", 1), query_req("p", 2)])),
                ),
                (1, query_op("p", 3)),
                (2, stats_op()),
            ],
        );
        // One pass serves the batch *and* the other connection's query.
        assert_eq!(s.engine_passes(), 1);
        let batch = responses[0][0].get("responses").unwrap().as_arr().unwrap();
        assert_eq!(batch.len(), 2);
        for (member, seed) in batch.iter().zip([1u64, 2]) {
            assert_eq!(member.get("seed").unwrap().as_u64(), Some(seed));
            assert_eq!(member.get("coalesced").unwrap().as_u64(), Some(3));
        }
        assert_eq!(responses[1][0].get("coalesced").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn overlap_carries_a_control_op_with_its_connection() {
        // Connection 0's cold pass holds the execute stage; connection 1
        // ingests a fresh name and queries it while the pass runs. The
        // ingest must be carried to the next cycle *with* the query
        // behind it, never the query resolved early against a registry
        // that lacks the name.
        let server = Server::start(
            service_with("big", "tri_grid(14,14)"),
            ServeOptions::default(),
        );
        let sinks = [Sink::default(), Sink::default()];
        let ids = sinks
            .clone()
            .map(|s| server.connections().register(Box::new(s)));
        let queue = server.submission_queue();
        queue.push(Submission::new(ids[0], query_op("big", 1)));
        while queue.depth() > 0 {
            thread::yield_now();
        }
        queue.push(Submission::new(
            ids[1],
            Ok(Value::obj()
                .field("op", "ingest")
                .field("name", "fresh")
                .field("spec", "grid(3,3)")),
        ));
        queue.push(Submission::new(ids[1], query_op("fresh", 2)));
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while sinks[1].responses().len() < 2 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        server.request_shutdown();
        let _ = server.join();
        let (big, fresh) = (sinks[0].responses(), sinks[1].responses());
        assert_eq!(big[0].get("verdict").unwrap().as_str(), Some("accept"));
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh[0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            fresh[1].get("verdict").and_then(Value::as_str),
            Some("accept"),
            "query resolved after its connection's ingest (got {})",
            fresh[1]
        );
    }

    #[test]
    fn server_drains_in_process_submissions_and_flushes_on_shutdown() {
        let mut service = service_with("p", "tri_grid(4,4)");
        service.set_group_threads(2);
        // The query lingers (1 h); shutdown must flush it.
        let (service, responses) = serve_controlled(service, 1, vec![(0, query_op("p", 1))]);
        assert_eq!(service.engine_passes(), 1, "pending query was flushed");
        assert_eq!(service.stats().queries_served, 1);
        assert_eq!(responses[0].len(), 1);
        let response = &responses[0][0];
        assert_eq!(response.get("verdict").unwrap().as_str(), Some("accept"));
        assert_eq!(response.get("cache").unwrap().as_str(), Some("cold"));
    }
}
