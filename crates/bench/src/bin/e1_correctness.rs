//! Prints the e1 table (README § Experiments).
fn main() {
    planartest_bench::e1_correctness();
}
