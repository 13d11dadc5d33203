//! Prints the e4 table (README § Experiments).
fn main() {
    planartest_bench::e4_weight_decay();
}
