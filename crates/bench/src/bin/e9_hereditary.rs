//! Prints the e9 table (README § Experiments).
fn main() {
    planartest_bench::e9_hereditary();
}
