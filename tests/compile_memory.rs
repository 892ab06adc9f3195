//! A compile's peak memory follows what it places, not how many layers
//! it allocated.
//!
//! A finished layer keeps only its occupied cells; the array of one `u32`
//! a cell that the mapper probes lives while its partition maps. RCA-200
//! on a 512×512 layer allocates about a hundred layers of 262,144 cells,
//! so a compile that kept every array would peak above 100 MiB. Linux
//! only: the peak is read from `/proc/self/status`.
#![cfg(target_os = "linux")]

use oneq::{Compiler, CompilerOptions};
use oneq_bench::{BenchKind, SEED};
use oneq_hardware::LayerGeometry;

/// The bound on the whole test process's peak resident set.
const PEAK_BOUND_MIB: usize = 48;

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
fn rca_200_on_a_512_layer_peaks_below_48_mib() {
    let side = 512;
    let circuit = BenchKind::Rca.circuit(200, SEED);
    let program =
        Compiler::new(CompilerOptions::new(LayerGeometry::square(side))).compile(&circuit);
    // Keeping every layer's cell array would cost at least twice the
    // bound, so the bound tells the two apart.
    let arrays_mib = (program.layouts.len() * side * side * 4) >> 20;
    assert!(
        arrays_mib >= 2 * PEAK_BOUND_MIB,
        "{} layouts, {arrays_mib} MiB of cell arrays: too few to tell",
        program.layouts.len()
    );
    let peak_mib = peak_rss_kib() >> 10;
    assert!(
        peak_mib < PEAK_BOUND_MIB,
        "peak RSS {peak_mib} MiB over {} layouts (their cell arrays: {arrays_mib} MiB)",
        program.layouts.len()
    );
}
