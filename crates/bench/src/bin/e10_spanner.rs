//! Prints the e10 table (README § Experiments).
fn main() {
    planartest_bench::e10_spanner();
}
