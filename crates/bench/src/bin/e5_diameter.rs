//! Prints the e5 table (README § Experiments).
fn main() {
    planartest_bench::e5_diameter();
}
