//! Prints the e6 table (README § Experiments).
fn main() {
    planartest_bench::e6_violations();
}
