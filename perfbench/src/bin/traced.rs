//! The traced benchmark binary: per-layer metrics, with allocations
//! counted by the installed [`CountingAllocator`].

use perfbench::alloc::CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn main() {
    std::process::exit(perfbench::main_with_args(std::env::args().skip(1), true));
}
