//! Prints the e12 table (README § Experiments).
fn main() {
    planartest_bench::e12_bandwidth();
}
