//! Prints the e2 table (README § Experiments).
fn main() {
    planartest_bench::e2_rounds_vs_n();
}
