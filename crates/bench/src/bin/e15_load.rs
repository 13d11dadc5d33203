//! E15 — the load harness: the open-loop sweep plus the closed-loop
//! scenarios; writes `BENCH_load.json` and the traced run's event log
//! `BENCH_trace.ldjson`.
//!
//! `--quick` forces CI-sized sweeps (same as setting
//! `PLANARTEST_QUICK`); `--check` turns the gate into an exit code. The
//! clauses and their bounds are
//! [`LoadGate`](planartest_bench::LoadGate)'s: the saturation knee above
//! the capacity floor, the sub-knee p99 SLO and warm-hit ceiling, a
//! bit-identical re-run, zero responses lost mid-flight, slow-reader
//! fairness, warm p50 at least 10× cold, coalesced and multi-client
//! fan-outs at least as fast as serial queries, and tracing keeping at
//! least 95% of cold-path throughput. The `gate` section of
//! `BENCH_load.json` lists every value beside its bound.

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    if std::env::args().any(|a| a == "--quick") {
        std::env::set_var("PLANARTEST_QUICK", "1");
    }
    let gate = planartest_bench::load_bench();
    if check && !gate.pass() {
        eprintln!("load gate FAILED: {gate:#?}");
        std::process::exit(1);
    }
    if check {
        println!("load gate passed: {gate:#?}");
    }
}
