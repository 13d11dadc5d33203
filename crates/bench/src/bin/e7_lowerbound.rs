//! Prints the e7 table (README § Experiments).
fn main() {
    planartest_bench::e7_lowerbound();
}
