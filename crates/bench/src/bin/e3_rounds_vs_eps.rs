//! Prints the e3 table (README § Experiments).
fn main() {
    planartest_bench::e3_rounds_vs_eps();
}
