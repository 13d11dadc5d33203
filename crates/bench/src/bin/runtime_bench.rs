//! Engine, tester, trial-sweep and batched-sweep runtime benchmark;
//! writes `BENCH_runtime.json`. Set `PLANARTEST_QUICK=1` for CI-sized
//! runs, `PLANARTEST_THREADS=k` to size the trial pool.
//!
//! With `--check`, exits non-zero when the regression gate fails — the
//! batched Monte-Carlo acceptance sweep dropping below the
//! batched-vs-sequential floor ([`BenchGate::BATCH_SPEEDUP_FLOOR`]).
//! This is the CI performance gate.
//!
//! [`BenchGate::BATCH_SPEEDUP_FLOOR`]: planartest_bench::BenchGate::BATCH_SPEEDUP_FLOOR

use planartest_bench::BenchGate;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let gate = planartest_bench::runtime_bench();
    if !check {
        return;
    }
    let verdict = if gate.pass() { "passed" } else { "FAILED" };
    let summary = format!(
        "benchmark gate {verdict}: batched sweep {:.3}x over sequential ({} trials, \
         floor {:.2})",
        gate.batch_speedup,
        gate.batch_trials,
        BenchGate::BATCH_SPEEDUP_FLOOR,
    );
    if gate.pass() {
        println!("{summary}");
    } else {
        eprintln!("{summary}");
        std::process::exit(1);
    }
}
