//! Prints the e8 table (README § Experiments).
fn main() {
    planartest_bench::e8_partition();
}
