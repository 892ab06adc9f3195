//! A partition's working layers cost one `u32` a cell while it maps.
//!
//! QFT-50 on a 1024×1024 layer maps 13 partitions onto layers of
//! 1,048,576 cells each. The mapper's working state (each layer's cell
//! array, the neighbour table, the BFS scratch and the free counts) is
//! sized by the area, so the peak shows what a cell costs. This case has
//! a test binary of its own because the peak (`VmHWM`) is per process and
//! only grows. Linux only: the peak is read from `/proc/self/status`.
#![cfg(target_os = "linux")]

use oneq::{Compiler, CompilerOptions};
use oneq_circuit::benchmarks;
use oneq_hardware::LayerGeometry;

/// The bound on the whole test process's peak resident set.
const PEAK_BOUND_MIB: usize = 64;

/// This process's peak resident set so far (`VmHWM`), in KiB.
fn peak_rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("a VmHWM line");
    let kib = line.trim().strip_suffix("kB").expect("VmHWM in kB");
    kib.trim().parse().expect("a VmHWM count")
}

#[test]
fn qft_50_on_a_1024_layer_peaks_below_64_mib() {
    let side = 1024;
    let program = Compiler::new(CompilerOptions::new(LayerGeometry::square(side)))
        .compile(&benchmarks::qft(50));
    let peak_mib = peak_rss_kib() >> 10;
    assert!(
        peak_mib < PEAK_BOUND_MIB,
        "peak RSS {peak_mib} MiB over {} layouts of {side}x{side}",
        program.layouts.len()
    );
}
