//! Prints the e11 table (README § Experiments).
fn main() {
    planartest_bench::e11_stage1_alt();
}
