//! Prints every experiment table (README § Experiments) in one run.
//! Set `PLANARTEST_QUICK=1` for CI-sized sweeps.
fn main() {
    planartest_bench::run_all();
}
