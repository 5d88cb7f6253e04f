//! The untraced benchmark binary: end-to-end metrics only.

fn main() {
    std::process::exit(perfbench::main_with_args(std::env::args().skip(1), false));
}
