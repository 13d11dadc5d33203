//! `serve_warm` and `serve_cold`: the real `planartest serve` binary as a
//! child process, driven open-loop over two unix-socket connections by
//! two generator threads.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use planartest_service::wire::Value;

use crate::mix::{self, Arrival, Mix, Op, Property, QueryKey, CONNECTIONS, CORPUS, EPSILONS};
use crate::report::{cpu_s, peak_rss_mb, Ledger, Metrics};
use crate::stats::{median, BucketHist, Summary};

/// Tail latency limit of the capacity search (e15's SLO).
pub const SLO_US: f64 = 100_000.0;
/// Unanswered requests per connection beyond which a window stops
/// sending: its backlog is growing.
const MAX_OUTSTANDING: usize = 256;
/// A window stops sending once its oldest unanswered request has waited
/// this long: its backlog is growing.
const STOP_AFTER: Duration = Duration::from_millis(500);
/// How long a window waits for its last responses after the last
/// request was due.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// A closed-loop call (setup, snapshots) waits at most this long.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);
/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// A serving workload's fixed rates, how much of the run each window
/// takes, and the size of a capacity probe.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which op mix.
    pub mix: Mix,
    /// The `low` rate, requests per second.
    pub low_qps: f64,
    /// The `high` rate, requests per second.
    pub high_qps: f64,
    /// Segments each fixed-rate measurement is split into; in the traced
    /// run `low` and `high` segments alternate, so both rates sample the
    /// same stretch of the run.
    pub segments: usize,
    /// Rate of the first capacity probe above a sustained `high` window.
    pub probe_start_qps: f64,
    /// Requests scheduled per capacity probe.
    pub probe_requests: f64,
}

/// Builds the server binary from the repository's own workspace and
/// returns its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "crates/service/Cargo.toml",
            "--bin",
            "planartest",
            "--message-format",
            "json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building the server failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| Value::parse(l).ok())
        .filter(|v| {
            v.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Value::as_str)
                == Some("planartest")
        })
        .find_map(|v| {
            v.get("executable")
                .and_then(Value::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no planartest executable".to_string())
}

/// A running server child; stopped (and waited for) on drop.
struct Server {
    child: Child,
    socket: PathBuf,
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits up to `wait` until `fd` has data (or its peer hung up).
fn readable(fd: RawFd, wait: Duration) -> std::io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: i64::try_from(wait.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `pfd` and `timeout` are live, properly laid-out values for
    // the whole call; one descriptor is passed and no signal mask.
    let n = unsafe { ppoll(&mut pfd, 1, &timeout, std::ptr::null()) };
    match n {
        -1 => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

impl Server {
    /// Spawns `planartest serve --unix SOCKET --no-stdio` and waits until
    /// the socket accepts connections.
    fn spawn(bin: &Path, socket: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(bin)
            .arg("serve")
            .arg("--unix")
            .arg(&socket)
            .arg("--no-stdio")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let server = Server { child, socket };
        let deadline = Instant::now() + Duration::from_secs(20);
        while UnixStream::connect(&server.socket).is_err() {
            if Instant::now() > deadline {
                return Err("the server never opened its socket".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU seconds the server has used.
    fn cpu_s(&self) -> f64 {
        cpu_s(&self.pid().to_string()).unwrap_or(0.0)
    }

    /// Stops the server with SIGTERM (a graceful shutdown) and waits for
    /// it to exit cleanly.
    fn stop(mut self) -> Result<(), String> {
        let pid = i32::try_from(self.pid()).map_err(|_| "pid out of range".to_string())?;
        // SAFETY: `kill` only sends a signal to our own child, which has
        // not been waited for, so the pid still names it.
        unsafe {
            kill(pid, 15);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("the server did not stop on SIGTERM".to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One client connection with its own line buffer.
struct Conn {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Takes one complete line out of the buffer.
    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        self.buf.drain(..=end);
        Some(line)
    }

    /// Reads whatever arrives within `wait` into the buffer; `Ok(false)`
    /// when the peer closed. Waits with `ppoll`, whose timeout has timer
    /// precision: a socket read timeout rounds up to the scheduler tick
    /// and would make the generator send late by milliseconds.
    fn fill(&mut self, wait: Duration) -> std::io::Result<bool> {
        if !readable(self.stream.as_raw_fd(), wait)? {
            return Ok(true);
        }
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(false),
            Ok(k) => {
                self.buf.extend_from_slice(&chunk[..k]);
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e),
        }
    }

    /// Closed-loop request: sends `line`, returns the parsed response.
    fn call(&mut self, line: &str) -> Result<Value, String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let deadline = Instant::now() + CALL_TIMEOUT;
        loop {
            if let Some(l) = self.take_line() {
                return Value::parse(&l).map_err(|e| format!("bad response {l:?}: {e}"));
            }
            let now = Instant::now();
            if now > deadline {
                return Err(format!("no response to {}", line.trim()));
            }
            if !self
                .fill(deadline - now)
                .map_err(|e| format!("read: {e}"))?
            {
                return Err("the server closed the connection".to_string());
            }
        }
    }
}

/// The timeline of one scheduled request.
#[derive(Debug, Clone)]
struct Sample {
    due_us: u64,
    sent_us: u64,
    reply: Option<(u64, String)>,
}

/// Drives one connection through its arrivals: each request is sent
/// when due (immediately when late), responses are read in between and
/// timestamped on arrival. Stops sending when [`MAX_OUTSTANDING`]
/// requests are unanswered or the oldest has waited [`STOP_AFTER`].
/// Returns the samples of the requests sent, whether sending stopped
/// early, and how many replies matched no request.
fn drive(conn: &mut Conn, arrivals: &[Arrival], origin: Instant) -> (Vec<Sample>, bool, usize) {
    let lines: Vec<String> = arrivals.iter().map(|a| a.op.line()).collect();
    let us = |t: Instant| u64::try_from(t.duration_since(origin).as_micros()).unwrap_or(u64::MAX);
    let mut samples: Vec<Sample> = Vec::with_capacity(arrivals.len());
    let mut received = 0usize;
    let mut stopped = false;
    let mut unmatched = 0usize;
    let last_due = arrivals.last().map_or(0, |a| a.at_us);
    let drain_deadline = origin + Duration::from_micros(last_due) + DRAIN_TIMEOUT;
    loop {
        let now = Instant::now();
        let next = samples.len();
        if next < arrivals.len() && !stopped {
            let due = origin + Duration::from_micros(arrivals[next].at_us);
            if now >= due {
                let oldest_wait = samples.get(received).map_or(Duration::ZERO, |s| {
                    now.saturating_duration_since(origin + Duration::from_micros(s.due_us))
                });
                if next - received >= MAX_OUTSTANDING || oldest_wait > STOP_AFTER {
                    stopped = true;
                    continue;
                }
                let sent_us = us(now);
                if conn.stream.write_all(lines[next].as_bytes()).is_err() {
                    stopped = true;
                    continue;
                }
                samples.push(Sample {
                    due_us: arrivals[next].at_us,
                    sent_us,
                    reply: None,
                });
                continue;
            }
        }
        let all_sent = stopped || samples.len() == arrivals.len();
        if all_sent && received >= samples.len() {
            break;
        }
        let wait_until = if all_sent {
            drain_deadline
        } else {
            origin + Duration::from_micros(arrivals[samples.len()].at_us)
        };
        if now >= drain_deadline {
            break;
        }
        match conn.fill(wait_until.saturating_duration_since(now)) {
            Ok(true) => {}
            Ok(false) | Err(_) => break,
        }
        let at = us(Instant::now());
        while let Some(line) = conn.take_line() {
            match samples.get_mut(received) {
                Some(s) => s.reply = Some((at, line)),
                None => unmatched += 1,
            }
            received += 1;
        }
    }
    (samples, stopped, unmatched)
}

/// Fingerprints of the corpus graphs and expected verdicts of every
/// warm-pool query, learnt during setup.
struct Truth {
    fingerprints: Vec<String>,
    verdicts: HashMap<QueryKey, String>,
}

impl Truth {
    /// The verdict `q` must get: planarity on a planar graph always
    /// accepts (one-sided error); anything else repeats what the warm
    /// cache answered during setup.
    fn expected(&self, q: &QueryKey) -> Option<&str> {
        if q.property == Property::Planarity && q.planar_graph() {
            Some("accept")
        } else {
            self.verdicts.get(q).map(String::as_str)
        }
    }
}

/// Every query of the warm pool, one batch per (graph, epsilon).
fn warm_batches() -> Vec<Vec<QueryKey>> {
    let mut out = Vec::new();
    for graph in 0..CORPUS.len() {
        for eps in 0..EPSILONS.len() {
            let mut batch: Vec<QueryKey> = (0..mix::WARM_SEEDS)
                .map(|seed| QueryKey {
                    graph,
                    property: Property::Planarity,
                    eps,
                    seed,
                })
                .collect();
            for property in [Property::CycleFreeness, Property::Bipartiteness] {
                batch.push(QueryKey {
                    graph,
                    property,
                    eps,
                    seed: 0,
                });
            }
            out.push(batch);
        }
    }
    out
}

/// Checks one query response against its key; `Ok` carries the stage
/// spans `[queue, resolve, execute, respond, total, engine]` in µs, where
/// `engine` is the response's `engine_micros` when it ran an engine pass
/// (`cache: cold`) and `u64::MAX` when the cache answered.
fn check_query(truth: &Truth, q: &QueryKey, v: &Value) -> Result<[u64; 6], String> {
    let want = truth
        .expected(q)
        .ok_or_else(|| format!("no expected verdict for {}", q.json()))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{} failed: {v}", q.json()));
    }
    let verdict = v.get("verdict").and_then(Value::as_str);
    if verdict != Some(want) {
        return Err(format!(
            "{}: verdict {verdict:?}, expected {want}",
            q.json()
        ));
    }
    if v.get("seed").and_then(Value::as_u64) != Some(q.seed)
        || v.get("graph").and_then(Value::as_str) != Some(truth.fingerprints[q.graph].as_str())
        || v.get("property").and_then(Value::as_str) != Some(q.property.name())
    {
        return Err(format!("{}: response is for another query: {v}", q.json()));
    }
    let stages = v.get("stages").ok_or("response has no stages")?;
    let span = |k: &str| stages.get(k).and_then(Value::as_u64);
    let (Some(qu), Some(re), Some(ex), Some(rs), Some(total)) = (
        span("queue_micros"),
        span("resolve_micros"),
        span("execute_micros"),
        span("respond_micros"),
        span("total_micros"),
    ) else {
        return Err(format!("malformed stages: {stages}"));
    };
    if qu + re + ex + rs != total {
        return Err(format!("stage spans do not sum to total_micros: {stages}"));
    }
    let engine = if v.get("cache").and_then(Value::as_str) == Some("cold") {
        v.get("engine_micros").and_then(Value::as_u64).unwrap_or(0)
    } else {
        u64::MAX
    };
    Ok([qu, re, ex, rs, total, engine])
}

/// Stage spans of the queries one request carried.
type Spans = Vec<[u64; 6]>;

/// Checks one response line against the op it answers.
fn check_response(truth: &Truth, op: &Op, line: &str) -> Result<Spans, String> {
    let v = Value::parse(line).map_err(|e| format!("unparsable response {line:?}: {e}"))?;
    match op {
        Op::Query(q) => Ok(vec![check_query(truth, q, &v)?]),
        Op::Batch(qs) => {
            let members = v
                .get("responses")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("batch answered without responses: {v}"))?;
            if members.len() != qs.len() {
                return Err(format!(
                    "batch of {} got {} responses",
                    qs.len(),
                    members.len()
                ));
            }
            qs.iter()
                .zip(members)
                .map(|(q, m)| check_query(truth, q, m))
                .collect()
        }
        Op::Stats => match v.get("engine_passes").and_then(Value::as_u64) {
            Some(_) if v.get("ok").and_then(Value::as_bool) == Some(true) => Ok(Vec::new()),
            _ => Err(format!("bad stats response: {v}")),
        },
        Op::Ingest(name) => {
            if v.get("ok").and_then(Value::as_bool) == Some(true)
                && v.get("name").and_then(Value::as_str) == Some(name.as_str())
            {
                Ok(Vec::new())
            } else {
                Err(format!("bad ingest response: {v}"))
            }
        }
    }
}

/// One measured window at one offered rate.
#[derive(Debug, Default)]
struct Window {
    /// Requests scheduled per second over the window.
    realized_qps: f64,
    /// Queries sent (batch members count one each).
    queries: usize,
    /// Send lag (due → sent) of every request sent.
    send_lag_us: Vec<f64>,
    /// Requests that failed or got no answer.
    failed: usize,
    /// Sending stopped early: the backlog grew past the limit.
    stopped: bool,
    /// `(due_us, latency_us)` of every answered, correct request, where
    /// latency runs from the due time to the response's arrival.
    timeline: Vec<(u64, f64)>,
    /// Stage spans of single-query requests with their client latency.
    single: Vec<([u64; 6], f64)>,
    /// Stage spans of every query answered.
    spans: Vec<[u64; 6]>,
    /// Client latency minus the server's total, per request.
    wire_us: Vec<f64>,
}

impl Window {
    /// Client latency summary of the window.
    fn latency(&self) -> Summary {
        Summary::of(&self.timeline.iter().map(|&(_, l)| l).collect::<Vec<_>>())
    }

    /// Whether latency rose across the window: the median of the last
    /// third of requests (by due time) exceeds the first third's by more
    /// than half the SLO, or sending had to stop.
    fn backlog_grew(&self) -> bool {
        if self.stopped {
            return true;
        }
        let mut t = self.timeline.clone();
        t.sort_by_key(|&(due, _)| due);
        let third = t.len() / 3;
        if third == 0 {
            return false;
        }
        let early: Vec<f64> = t[..third].iter().map(|&(_, l)| l).collect();
        let late: Vec<f64> = t[t.len() - third..].iter().map(|&(_, l)| l).collect();
        median(&late) - median(&early) > SLO_US / 2.0
    }

    /// How far the window is from the SLO: `ln(tail / SLO)`, at most
    /// `ln 10` either way; negative when the tail meets the SLO. A
    /// growing backlog or a failed request (which misses every limit)
    /// scores at least `ln 2`, so the window is not sustainable whatever
    /// its tail.
    fn slo_score(&self) -> f64 {
        let bound = std::f64::consts::LN_10;
        let score = (self.latency().tail.max(1.0) / SLO_US)
            .ln()
            .clamp(-bound, bound);
        if self.failed > 0 || self.backlog_grew() {
            score.max(std::f64::consts::LN_2)
        } else {
            score
        }
    }

    /// Whether the generator fell behind its schedule: late by more than
    /// a millisecond at the median, or by more than the SLO at the tail.
    fn generator_behind(&self) -> bool {
        let lag = Summary::of(&self.send_lag_us);
        lag.p50 > 1_000.0 || lag.tail > SLO_US
    }
}

impl Window {
    /// One window holding every sample of `parts`.
    fn merge(parts: Vec<Window>) -> Window {
        let mut out = Window::default();
        for w in parts {
            out.queries += w.queries;
            out.failed += w.failed;
            out.stopped |= w.stopped;
            out.send_lag_us.extend(w.send_lag_us);
            out.timeline.extend(w.timeline);
            out.single.extend(w.single);
            out.spans.extend(w.spans);
            out.wire_us.extend(w.wire_us);
        }
        out
    }
}

/// Client latency at one rate measured as several segments: the median
/// over segments of each segment's p50 and tail, so a host stall that
/// hits a minority of the segments moves neither. `n` counts every
/// request; the tail percentile is the lowest any segment used.
fn latency_of(segments: &[Window]) -> Summary {
    let parts: Vec<Summary> = segments.iter().map(Window::latency).collect();
    Summary {
        n: parts.iter().map(|s| s.n).sum(),
        p50: median(&parts.iter().map(|s| s.p50).collect::<Vec<_>>()),
        tail: median(&parts.iter().map(|s| s.tail).collect::<Vec<_>>()),
        tail_pct: parts
            .iter()
            .map(|s| s.tail_pct)
            .fold(f64::INFINITY, f64::min),
    }
}

/// The server plus its two load connections and what setup learnt.
struct Rig {
    server: Server,
    conns: Vec<Conn>,
    truth: Truth,
}

impl Rig {
    /// Spawns a server, ingests the corpus, warms the cache with every
    /// warm-pool query and records the verdicts the warm cache gives.
    fn setup(bin: &Path, socket: PathBuf) -> Result<Rig, String> {
        let server = Server::spawn(bin, socket)?;
        let mut conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(&server.socket))
            .collect::<Result<Vec<_>, _>>()?;
        let c = &mut conns[0];
        let mut fingerprints = Vec::new();
        for (name, spec, _) in CORPUS {
            let v = c.call(&format!(
                "{{\"op\":\"ingest\",\"name\":\"{name}\",\"spec\":\"{spec}\"}}\n"
            ))?;
            let fp = v
                .get("fingerprint")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("ingest of {spec} failed: {v}"))?;
            fingerprints.push(fp.to_string());
        }
        let mut truth = Truth {
            fingerprints,
            verdicts: HashMap::new(),
        };
        // First pass fills the cache; the second reads the verdicts the
        // warm cache serves from then on.
        for round in 0..2 {
            for batch in warm_batches() {
                let line = Op::Batch(batch.clone()).line();
                let v = c.call(&line)?;
                let members = v
                    .get("responses")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("warm batch failed: {v}"))?;
                for (q, m) in batch.iter().zip(members) {
                    let verdict = m
                        .get("verdict")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("warm query failed: {m}"))?;
                    if round == 1 {
                        truth.verdicts.insert(*q, verdict.to_string());
                    }
                }
            }
        }
        for (q, verdict) in &truth.verdicts {
            if q.property == Property::Planarity && q.planar_graph() && verdict != "accept" {
                return Err(format!(
                    "planar graph rejected during warm-up: {}",
                    q.json()
                ));
            }
        }
        Ok(Rig {
            server,
            conns,
            truth,
        })
    }

    /// One `metrics` snapshot (closed loop, between windows).
    fn metrics(&mut self) -> Result<Value, String> {
        self.conns[0].call("{\"op\":\"metrics\"}\n")
    }

    /// Runs one open-loop window at `rate` for `horizon`, then checks
    /// every response (counted into `ledger`).
    fn window(
        &mut self,
        plan: &Plan,
        seed: u64,
        rate: f64,
        horizon: Duration,
        ledger: &mut Ledger,
    ) -> Window {
        let horizon_us = u64::try_from(horizon.as_micros()).unwrap_or(u64::MAX);
        let per_conn = mix::schedule(plan.mix, seed, rate, horizon_us);
        let origin = Instant::now() + Duration::from_millis(2);
        let (first, rest) = self.conns.split_at_mut(1);
        let results: Vec<(Vec<Sample>, bool, usize)> = std::thread::scope(|scope| {
            let other = scope.spawn(|| drive(&mut rest[0], &per_conn[1], origin));
            let mine = drive(&mut first[0], &per_conn[0], origin);
            vec![mine, other.join().expect("generator thread panicked")]
        });

        let requests: usize = per_conn.iter().map(Vec::len).sum();
        let mut w = Window {
            realized_qps: requests as f64 / horizon.as_secs_f64(),
            ..Window::default()
        };
        for (arrivals, (samples, stopped, unmatched)) in per_conn.iter().zip(results) {
            w.stopped |= stopped;
            for _ in 0..unmatched {
                w.failed += 1;
                ledger.record(Err("a response arrived for no request".to_string()));
            }
            for (a, s) in arrivals.iter().zip(&samples) {
                w.queries += a.op.queries();
                w.send_lag_us
                    .push(s.sent_us.saturating_sub(s.due_us) as f64);
                let outcome = match &s.reply {
                    None => Err(format!("no response to {}", a.op.line().trim())),
                    Some((at, line)) => {
                        check_response(&self.truth, &a.op, line).map(|spans| (*at, spans))
                    }
                };
                match outcome {
                    Ok((at, spans)) => {
                        ledger.record(Ok(()));
                        let lat = at.saturating_sub(s.due_us) as f64;
                        w.timeline.push((s.due_us, lat));
                        if let Some(total) = spans.iter().map(|s| s[4]).max() {
                            w.wire_us.push(lat - total as f64);
                        }
                        if let [one] = spans.as_slice() {
                            w.single.push((*one, lat));
                        }
                        w.spans.extend(spans);
                    }
                    Err(e) => {
                        w.failed += 1;
                        ledger.record(Err(e));
                    }
                }
            }
        }
        w
    }
}

/// Finds the first rate, climbing from the `high` windows, whose tail
/// misses the SLO, and returns where the SLO score crosses zero below
/// it. Probes climb a ×[`LADDER`] ladder (the first goes straight to the
/// workload's start rate) until one fails, or step down by halves when
/// the `high` windows already fail; then they bisect the bracket at the
/// interpolated crossing (kept to its middle half so it always shrinks),
/// for at most [`MAX_PROBES`] probes. Searching from below keeps the
/// answer on the first knee: past it, growing batches can let a
/// coalescing server meet the SLO again at some higher rates. Each probe
/// schedules `probe_requests` requests, so every probe judges its tail
/// at the same percentile. Returns the estimate and the probes used.
fn capacity(
    rig: &mut Rig,
    plan: &Plan,
    seed: u64,
    high: &[Window],
    ledger: &mut Ledger,
) -> (f64, usize) {
    let score = median(&high.iter().map(Window::slo_score).collect::<Vec<_>>());
    let realized = median(&high.iter().map(|w| w.realized_qps).collect::<Vec<_>>());
    let first = (realized, score);
    let (mut lo, mut hi) = if score <= 0.0 {
        (Some(first), None)
    } else {
        (None, Some(first))
    };
    let mut used = 0;
    while used < MAX_PROBES {
        let rate = match (lo, hi) {
            (Some(l), Some(h)) if h.0 / l.0 < 1.05 => break,
            (Some(l), Some(h)) => {
                crossing(l, h).clamp(l.0 * (h.0 / l.0).powf(0.25), l.0 * (h.0 / l.0).powf(0.75))
            }
            (Some(l), None) if used == 0 => plan.probe_start_qps.max(l.0 * LADDER),
            (Some(l), None) => l.0 * LADDER,
            (None, Some(h)) => h.0 / 2.0,
            (None, None) => unreachable!("the high windows set a bound"),
        };
        used += 1;
        let horizon = Duration::from_secs_f64(plan.probe_requests / rate);
        let w = rig.window(plan, seed.wrapping_add(used as u64), rate, horizon, ledger);
        let tail = w.latency();
        let score = w.slo_score();
        println!(
            "  probe {rate:.0}/s: p{} {:.0} us, backlog grew {}, score {score:.3}",
            tail.tail_pct,
            tail.tail,
            w.backlog_grew()
        );
        // Points carry the realized rate: the schedule's own count of
        // requests over its length.
        let point = (w.realized_qps, score);
        if score <= 0.0 {
            lo = Some(point);
        } else {
            hi = Some(point);
        }
    }
    let cap = match (lo, hi) {
        (Some(l), Some(h)) => crossing(l, h),
        (Some(l), None) => l.0,
        (None, Some(h)) => h.0 / 2.0,
        (None, None) => unreachable!("the high windows set a bound"),
    };
    (cap, used)
}

/// The rate where the SLO score, linear in log rate between a
/// sustained `(rate, score)` and a failed one, crosses zero.
fn crossing(lo: (f64, f64), hi: (f64, f64)) -> f64 {
    let t = (0.0 - lo.1) / (hi.1 - lo.1);
    (lo.0.ln() + t.clamp(0.0, 1.0) * (hi.0.ln() - lo.0.ln())).exp()
}

fn counter(v: &Value, path: &[&str]) -> f64 {
    let mut cur = Some(v);
    for k in path {
        cur = cur.and_then(|c| c.get(k));
    }
    cur.and_then(Value::as_f64).unwrap_or(0.0)
}

fn hist(v: &Value, path: &[&str]) -> BucketHist {
    let mut cur = Some(v);
    for k in path {
        cur = cur.and_then(|c| c.get(k));
    }
    cur.and_then(BucketHist::from_value).unwrap_or_default()
}

/// Queries answered from the cache (warm or certificate) and in total,
/// from the `metrics` op's latency cells.
fn cache_counts(v: &Value) -> (f64, f64) {
    let mut hits = 0.0;
    let mut all = 0.0;
    for cell in v.get("latency").and_then(Value::as_arr).unwrap_or(&[]) {
        let n = counter(cell, &["latency_micros", "count"]);
        all += n;
        if matches!(
            cell.get("cache").and_then(Value::as_str),
            Some("warm" | "certificate")
        ) {
            hits += n;
        }
    }
    (hits, all)
}

/// Per-layer metrics of one traced window: the response stage spans,
/// the `metrics` op diffed across the window, and server CPU.
fn layer_metrics(m: &mut Metrics, w: &Window, before: &Value, after: &Value, cpu_s: f64) {
    for (i, stage) in ["queue", "resolve", "execute", "respond"]
        .iter()
        .enumerate()
    {
        let s = Summary::of(&w.spans.iter().map(|x| x[i] as f64).collect::<Vec<_>>());
        m.set(format!("service.{stage}_us.p50"), s.p50, "us");
        m.set(format!("service.{stage}_us.tail"), s.tail, "us");
    }
    let engine: Vec<f64> = w
        .spans
        .iter()
        .filter(|x| x[5] != u64::MAX)
        .map(|x| x[5] as f64)
        .collect();
    m.set("service.engine_us.p50", median(&engine), "us");
    let wire = Summary::of(&w.wire_us);
    m.set("transport.wire_us.p50", wire.p50, "us");
    m.set("transport.wire_us.tail", wire.tail, "us");

    // Who owns the tail: mean share of each span in the latency of the
    // single-query requests at or beyond the tail percentile.
    let tail = w.latency().tail;
    let slow: Vec<&([u64; 6], f64)> = w
        .single
        .iter()
        .filter(|(_, l)| *l >= tail && *l > 0.0)
        .collect();
    for (i, stage) in ["queue", "resolve", "execute", "respond", "wire"]
        .iter()
        .enumerate()
    {
        let share = if slow.is_empty() {
            0.0
        } else {
            slow.iter()
                .map(|(s, lat)| {
                    let span = if i == 4 {
                        lat - s[4] as f64
                    } else {
                        s[i] as f64
                    };
                    span / lat
                })
                .sum::<f64>()
                / slow.len() as f64
        };
        m.set(format!("tail.{stage}_share"), share, "ratio");
    }

    let write = hist(after, &["stages", "write_micros"])
        .since(&hist(before, &["stages", "write_micros"]))
        .summary();
    m.set("service.write_us.p50", write.p50, "us");
    m.set("service.write_us.tail", write.tail, "us");
    let (h1, a1) = cache_counts(after);
    let (h0, a0) = cache_counts(before);
    m.set(
        "cache.hit_ratio",
        if a1 > a0 { (h1 - h0) / (a1 - a0) } else { 0.0 },
        "ratio",
    );
    let d = |path: &[&str]| counter(after, path) - counter(before, path);
    let passes = d(&["engine", "passes"]);
    let per_pass = |x: f64| if passes > 0.0 { x / passes } else { 0.0 };
    m.set("engine.passes", passes, "count");
    m.set(
        "engine.coalesce_ratio",
        per_pass(d(&["engine", "queries"])),
        "ratio",
    );
    m.set(
        "engine.rounds_per_pass",
        per_pass(d(&["engine", "rounds"]) + d(&["engine", "charged_rounds"])),
        "count",
    );
    m.set(
        "engine.messages_per_pass",
        per_pass(d(&["engine", "messages"])),
        "count",
    );
    m.set("cycles.count", d(&["cycles", "count"]), "count");
    for (name, key) in [
        ("cycles.width_mean", "width"),
        ("cycles.groups_mean", "groups"),
    ] {
        let h = hist(after, &["cycles", key]).since(&hist(before, &["cycles", key]));
        m.set(name, h.mean(), "count");
    }
    for reason in ["depth", "linger", "control", "pipeline"] {
        m.set(
            format!("wake.{reason}"),
            d(&["cycles", "wake", reason]),
            "count",
        );
    }
    for key in ["queue_depth_hwm", "outbound_depth_hwm"] {
        m.set(format!("transport.{key}"), counter(after, &[key]), "count");
    }
    for key in ["writer_stalls", "responses_lost", "responses_shed"] {
        m.set(format!("transport.{key}"), d(&[key]), "count");
    }
    let kq = w.queries as f64 / 1000.0;
    m.set(
        "server.cpu_s_per_kq",
        if kq > 0.0 { cpu_s / kq } else { 0.0 },
        "s",
    );
    let lag = Summary::of(&w.send_lag_us);
    m.set("client.send_lag_us.p50", lag.p50, "us");
    m.set("client.send_lag_us.tail", lag.tail, "us");
}

/// Names of every per-layer metric the serving workloads report, so
/// `cold_pass` can report them as 0 (layers it does not exercise).
#[must_use]
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for stage in ["queue", "resolve", "execute", "respond"] {
        names.push((format!("service.{stage}_us.p50"), "us"));
        names.push((format!("service.{stage}_us.tail"), "us"));
    }
    for (n, u) in [
        ("service.engine_us.p50", "us"),
        ("transport.wire_us.p50", "us"),
        ("transport.wire_us.tail", "us"),
        ("tail.queue_share", "ratio"),
        ("tail.resolve_share", "ratio"),
        ("tail.execute_share", "ratio"),
        ("tail.respond_share", "ratio"),
        ("tail.wire_share", "ratio"),
        ("service.write_us.p50", "us"),
        ("service.write_us.tail", "us"),
        ("cache.hit_ratio", "ratio"),
        ("engine.passes", "count"),
        ("engine.coalesce_ratio", "ratio"),
        ("engine.rounds_per_pass", "count"),
        ("engine.messages_per_pass", "count"),
        ("cycles.count", "count"),
        ("cycles.width_mean", "count"),
        ("cycles.groups_mean", "count"),
        ("wake.depth", "count"),
        ("wake.linger", "count"),
        ("wake.control", "count"),
        ("wake.pipeline", "count"),
        ("transport.queue_depth_hwm", "count"),
        ("transport.outbound_depth_hwm", "count"),
        ("transport.writer_stalls", "count"),
        ("transport.responses_lost", "count"),
        ("transport.responses_shed", "count"),
        ("server.cpu_s_per_kq", "s"),
        ("client.send_lag_us.p50", "us"),
        ("client.send_lag_us.tail", "us"),
    ] {
        names.push((n.to_string(), u));
    }
    names
}

/// Capacity probes per run at most.
const MAX_PROBES: usize = 6;
/// Step between climbing capacity probes.
const LADDER: f64 = 1.25;

/// Runs a serving workload for `seconds`. Untraced: set-up and the
/// `high` windows give the end-to-end metrics. Traced: untraced `low`
/// and `high` windows give the fixed-rate latencies, traced `high`
/// windows the per-layer metrics and the trace overhead, and the
/// capacity search the capacity. Returns `Err` when the
/// run is invalid: it could not be set up, the server did not stop
/// cleanly, or the generator fell behind.
pub fn run(
    root: &Path,
    plan: &Plan,
    seed: u64,
    seconds: u64,
    trace: bool,
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let bin = build_server(root)?;
    let dir = PathBuf::from(".perfbench_run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let socket = dir.join(format!("serve-{}.sock", std::process::id()));

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let r = Rig::setup(&bin, socket.clone())?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(previous) = rig.replace(r) {
            previous.server.stop()?;
        }
    }
    let mut rig = rig.expect("at least one set-up");
    let total = Duration::from_secs(seconds);
    let mut windows: Vec<(&str, Window)> = Vec::new();

    if trace {
        // A quarter each: untraced `low` and `high` windows, alternated
        // in segments (the fixed-rate latencies), then traced `high`
        // windows between two `metrics` snapshots; the rest of the run
        // searches for the capacity.
        let segment = total / 4 / plan.segments as u32;
        let mut low = Vec::new();
        let mut high = Vec::new();
        for k in 0..plan.segments as u64 {
            low.push(rig.window(plan, seed.wrapping_add(k), plan.low_qps, segment, ledger));
            high.push(rig.window(plan, seed.wrapping_add(k), plan.high_qps, segment, ledger));
        }
        let before = rig.metrics()?;
        let cpu0 = rig.server.cpu_s();
        let traced: Vec<Window> = (0..plan.segments as u64)
            .map(|k| rig.window(plan, !seed.wrapping_add(k), plan.high_qps, segment, ledger))
            .collect();
        let cpu1 = rig.server.cpu_s();
        let after = rig.metrics()?;
        let merged = Window::merge(traced);
        layer_metrics(metrics, &merged, &before, &after, cpu1 - cpu0);
        for (name, ws) in [("low", &low), ("high", &high)] {
            let s = latency_of(ws);
            metrics.set(format!("{name}.lat_p50_us"), s.p50, "us");
            metrics.set(format!("{name}.lat_tail_us"), s.tail, "us");
            println!(
                "{:?} {name}: {} requests in {} segments, tail p{}",
                plan.mix, s.n, plan.segments, s.tail_pct
            );
        }
        let overhead = merged.latency().p50 / latency_of(&high).p50;
        metrics.set(
            "trace_overhead",
            if overhead.is_finite() { overhead } else { 0.0 },
            "ratio",
        );
        let share = |k: &str| metrics.get(k).unwrap_or(0.0);
        println!(
            "{:?} traced: high tail p{} {:.0} us; shares queue {:.3} resolve {:.3} execute {:.3} respond {:.3} wire {:.3}",
            plan.mix,
            merged.latency().tail_pct,
            merged.latency().tail,
            share("tail.queue_share"),
            share("tail.resolve_share"),
            share("tail.execute_share"),
            share("tail.respond_share"),
            share("tail.wire_share"),
        );
        let (cap, probes) = capacity(&mut rig, plan, seed << 8, &high, ledger);
        metrics.set("capacity_qps", cap, "1/s");
        println!("{:?}: capacity {cap:.1}/s after {probes} probes", plan.mix);
        windows.extend(low.into_iter().map(|w| ("low", w)));
        windows.extend(high.into_iter().map(|w| ("high", w)));
        windows.push(("high traced", merged));
    } else {
        let segment = total / plan.segments as u32;
        let cpu0 = rig.server.cpu_s();
        let high: Vec<Window> = (0..plan.segments as u64)
            .map(|k| rig.window(plan, seed.wrapping_add(k), plan.high_qps, segment, ledger))
            .collect();
        let cpu_s = rig.server.cpu_s() - cpu0;
        let queries: usize = high.iter().map(|w| w.queries).sum();
        let engine: Vec<f64> = high
            .iter()
            .flat_map(|w| &w.spans)
            .filter(|x| x[5] != u64::MAX)
            .map(|x| x[5] as f64 / 1e6)
            .collect();
        metrics.set("setup_s", median(&setup_s), "s");
        metrics.set("pass_s.p50", median(&engine), "s");
        metrics.set(
            "cpu_ms_per_query",
            1e3 * cpu_s / queries.max(1) as f64,
            "ms",
        );
        let rss = peak_rss_mb(&rig.server.pid().to_string()).unwrap_or(0.0);
        metrics.set("peak_rss_mb", rss, "MiB");
        println!(
            "{:?}: {queries} queries, {} engine passes timed",
            plan.mix,
            engine.len()
        );
        windows.extend(high.into_iter().map(|w| ("high", w)));
    }

    // Every response was delivered: the server lost none mid-flight.
    let stats = rig.conns[0].call("{\"op\":\"stats\"}\n")?;
    let lost = stats.get("responses_lost").and_then(Value::as_u64);
    ledger.record(if lost == Some(0) {
        Ok(())
    } else {
        Err(format!("server reports responses_lost = {lost:?}"))
    });
    drop(rig.conns);
    rig.server.stop()?;
    let mut behind: Vec<&str> = windows
        .iter()
        .filter(|(_, w)| w.generator_behind())
        .map(|&(name, _)| name)
        .collect();
    behind.dedup();
    if behind.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "the load generator fell behind its schedule in the {} window(s)",
            behind.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Truth {
        Truth {
            fingerprints: (0..CORPUS.len()).map(|i| format!("fp{i}")).collect(),
            verdicts: HashMap::new(),
        }
    }

    fn response(queue: u64, total: u64) -> Value {
        Value::parse(&format!(
            "{{\"ok\":true,\"verdict\":\"accept\",\"property\":\"planarity\",\"graph\":\"fp0\",\
             \"seed\":7,\"cache\":\"cold\",\"engine_micros\":90,\"stages\":{{\"queue_micros\":{queue},\
             \"resolve_micros\":2,\"execute_micros\":100,\"respond_micros\":3,\"total_micros\":{total}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn stage_spans_must_sum_to_total_micros() {
        let q = QueryKey {
            graph: 0,
            property: Property::Planarity,
            eps: 0,
            seed: 7,
        };
        assert_eq!(
            check_query(&truth(), &q, &response(5, 110)),
            Ok([5, 2, 100, 3, 110, 90])
        );
        let err = check_query(&truth(), &q, &response(5, 111)).unwrap_err();
        assert!(err.contains("do not sum"), "{err}");
        // The response must answer this query: another seed fails.
        let other = QueryKey { seed: 8, ..q };
        assert!(check_query(&truth(), &other, &response(5, 110)).is_err());
    }

    #[test]
    fn planar_graphs_must_accept() {
        let q = QueryKey {
            graph: 0,
            property: Property::Planarity,
            eps: 0,
            seed: 7,
        };
        let reject = Value::parse(
            &response(5, 110)
                .to_string()
                .replace("\"accept\"", "\"reject\""),
        )
        .unwrap();
        assert!(check_query(&truth(), &q, &reject)
            .unwrap_err()
            .contains("verdict"));
        // A non-planar graph has no expectation until setup records one.
        let far = QueryKey { graph: 3, ..q };
        assert!(check_query(&truth(), &far, &response(5, 110)).is_err());
    }

    fn window(lat: &[f64]) -> Window {
        Window {
            timeline: lat
                .iter()
                .enumerate()
                .map(|(i, &l)| (i as u64, l))
                .collect(),
            ..Window::default()
        }
    }

    #[test]
    fn segmented_latency_takes_medians_over_segments() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let stalled: Vec<f64> = calm.iter().map(|l| l * 100.0).collect();
        let s = latency_of(&[window(&calm), window(&stalled), window(&calm)]);
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (300, 50.0, 90.0, 90.0));
    }

    #[test]
    fn capacity_interpolates_the_slo_crossing() {
        // Score 0 halfway (in log rate) between a passing and a failing probe.
        let c = crossing((100.0, -1.0), (400.0, 1.0));
        assert!((c - 200.0).abs() < 1e-9, "{c}");
        // A score outside the pair's range still lands inside the bracket.
        assert!((crossing((100.0, 0.5), (400.0, 1.0)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn backlog_growth_fails_the_slo() {
        let flat = window(&[1_000.0; 90]);
        assert!(!flat.backlog_grew());
        assert!(flat.slo_score() < 0.0);
        let rising: Vec<f64> = (0..90).map(|i| 1_000.0 + 2_000.0 * f64::from(i)).collect();
        let w = window(&rising);
        assert!(w.backlog_grew());
        assert!(w.slo_score() >= std::f64::consts::LN_2);
    }
}
