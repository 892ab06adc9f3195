//! Golden metrics: the depth, #fusions, `StageStats` and mapper work
//! counters of the paper's benchmark configurations, pinned to fixed
//! values.
//!
//! The determinism suite checks that two compiles of one circuit agree
//! with each other, so a change that moved every compile's metrics the
//! same way would still pass it. This suite pins the values themselves:
//!
//! - the 36 paper configurations, which `perfbench`'s `paper` workload
//!   also compiles: the 12 Table 2 instances at [`SEED`], each on the
//!   baseline-sized square layer, on the same area at aspect ratio 1.5
//!   (Fig. 13), and on the square with ×2 extended layers (Fig. 14);
//! - QAOA-16 on 16×16 triangular and hexagonal layers (§7.2);
//! - the 7 instances above Table 2 sizes that `perfbench`'s `scale`
//!   workload compiles ([`SCALE_GOLDEN`]), where partition and shuffle
//!   do most of their work: 51 partitions on RCA-200, a 7k-node graph
//!   state on QFT-48.
//!
//! Performance work on the compiler must leave every output value here
//! as it is. A change that alters one is a change to the compiler's
//! output and updates this table on purpose, in the same change.
//!
//! The counter columns are the mapper's work: BFS searches and cells
//! expanded by the in-layer router, seed scans, routing cells and the
//! occupancy peak, as `CompiledProgram::profile.totals()` reports them
//! and `perfbench` records them. They are exact, so they catch an
//! algorithmic regression that wall time on a noisy machine cannot. A
//! change that moves a counter on purpose (a cheaper search, a different
//! tie-break) updates its row in the same change and says why.

use oneq::{Compiler, CompilerOptions, MapProfile, StageStats};
use oneq_bench::{BenchKind, SEED};
use oneq_hardware::{LayerGeometry, ResourceKind, Topology};

/// `(label, depth, #fusions, StageStats, mapper counters)`, the stats as
/// `[graph_state_nodes, graph_state_edges, dependency_layers, partitions,
/// cross_edges, fusion_graph_nodes, direct_fusions, routed_fusions,
/// shuffle_fusions]` and the counters as `[bfs_searches, bfs_expansions,
/// seed_scans, routing_cells, occupancy_peak]`.
type Golden = (&'static str, usize, usize, [usize; 9], [u64; 5]);

const GOLDEN: [Golden; 38] = [
    (
        "QFT-16 square",
        75,
        6088,
        [784, 1032, 16, 5, 295, 1304, 1007, 99, 4982],
        [707, 2454, 559, 75, 256],
    ),
    (
        "QFT-16 ratio1.5",
        82,
        6685,
        [784, 1032, 16, 5, 295, 1304, 962, 91, 5632],
        [790, 2594, 575, 71, 260],
    ),
    (
        "QFT-16 square-ext2",
        80,
        6719,
        [784, 1032, 16, 5, 295, 1304, 1021, 95, 5603],
        [603, 2649, 275, 73, 376],
    ),
    (
        "QFT-25 square",
        153,
        17538,
        [1898, 2509, 25, 7, 718, 3158, 2446, 146, 14946],
        [1689, 6926, 990, 104, 441],
    ),
    (
        "QFT-25 ratio1.5",
        154,
        18218,
        [1898, 2509, 25, 7, 718, 3158, 2424, 140, 15654],
        [1715, 6832, 1005, 101, 442],
    ),
    (
        "QFT-25 square-ext2",
        166,
        18580,
        [1898, 2509, 25, 7, 718, 3158, 2513, 144, 15923],
        [1387, 7510, 621, 103, 613],
    ),
    (
        "QFT-36 square",
        264,
        41382,
        [3924, 5202, 36, 10, 1533, 6534, 5056, 217, 36109],
        [3409, 9647, 2375, 145, 625],
    ),
    (
        "QFT-36 ratio1.5",
        276,
        43991,
        [3924, 5202, 36, 10, 1533, 6534, 5041, 203, 38747],
        [3531, 9939, 2329, 138, 640],
    ),
    (
        "QFT-36 square-ext2",
        266,
        45738,
        [3924, 5202, 36, 10, 1533, 6534, 5175, 199, 40364],
        [2828, 9241, 1317, 136, 945],
    ),
    (
        "QAOA-16 square",
        38,
        2310,
        [200, 304, 3, 3, 92, 432, 308, 113, 1889],
        [354, 1997, 123, 96, 237],
    ),
    (
        "QAOA-16 ratio1.5",
        43,
        2254,
        [200, 304, 3, 3, 92, 432, 312, 80, 1862],
        [353, 2219, 115, 63, 213],
    ),
    (
        "QAOA-16 square-ext2",
        49,
        2233,
        [200, 304, 3, 3, 92, 432, 316, 115, 1802],
        [333, 3126, 114, 97, 239],
    ),
    (
        "QAOA-25 square",
        92,
        5900,
        [464, 739, 3, 5, 309, 1055, 823, 90, 4987],
        [567, 3383, 227, 69, 333],
    ),
    (
        "QAOA-25 ratio1.5",
        97,
        6187,
        [464, 739, 3, 5, 309, 1055, 793, 97, 5297],
        [614, 3668, 254, 76, 331],
    ),
    (
        "QAOA-25 square-ext2",
        102,
        5953,
        [464, 739, 3, 5, 309, 1055, 822, 88, 5043],
        [563, 4052, 229, 68, 336],
    ),
    (
        "QAOA-36 square",
        154,
        14924,
        [930, 1524, 3, 6, 616, 2173, 1665, 190, 13069],
        [1287, 9097, 494, 147, 482],
    ),
    (
        "QAOA-36 ratio1.5",
        157,
        15202,
        [930, 1524, 3, 6, 616, 2173, 1648, 194, 13360],
        [1338, 8990, 509, 149, 486],
    ),
    (
        "QAOA-36 square-ext2",
        166,
        14909,
        [930, 1524, 3, 6, 616, 2173, 1681, 182, 13046],
        [1259, 10069, 482, 143, 483],
    ),
    (
        "RCA-16 square",
        43,
        1988,
        [256, 353, 3, 5, 77, 467, 345, 145, 1498],
        [361, 2952, 122, 120, 204],
    ),
    (
        "RCA-16 ratio1.5",
        49,
        2002,
        [256, 353, 3, 5, 77, 467, 339, 133, 1530],
        [374, 2877, 128, 109, 192],
    ),
    (
        "RCA-16 square-ext2",
        52,
        1994,
        [256, 353, 3, 5, 77, 467, 345, 151, 1498],
        [359, 3968, 122, 125, 209],
    ),
    (
        "RCA-25 square",
        68,
        3267,
        [401, 553, 3, 7, 127, 732, 537, 210, 2520],
        [546, 4701, 198, 174, 263],
    ),
    (
        "RCA-25 ratio1.5",
        69,
        3221,
        [401, 553, 3, 7, 127, 732, 536, 206, 2479],
        [551, 4629, 199, 171, 259],
    ),
    (
        "RCA-25 square-ext2",
        81,
        3267,
        [401, 553, 3, 7, 127, 732, 537, 210, 2520],
        [546, 5326, 198, 174, 263],
    ),
    (
        "RCA-36 square",
        103,
        5067,
        [616, 853, 3, 10, 202, 1127, 821, 285, 3961],
        [838, 7167, 311, 233, 327],
    ),
    (
        "RCA-36 ratio1.5",
        104,
        5147,
        [616, 853, 3, 10, 202, 1127, 820, 285, 4042],
        [839, 7053, 312, 233, 326],
    ),
    (
        "RCA-36 square-ext2",
        122,
        5067,
        [616, 853, 3, 10, 202, 1127, 821, 285, 3961],
        [838, 7733, 311, 233, 327],
    ),
    (
        "BV-16 square",
        3,
        40,
        [33, 24, 1, 1, 0, 47, 36, 0, 4],
        [13, 69, 11, 0, 37],
    ),
    (
        "BV-16 ratio1.5",
        3,
        40,
        [33, 24, 1, 1, 0, 47, 36, 0, 4],
        [13, 69, 11, 0, 37],
    ),
    (
        "BV-16 square-ext2",
        5,
        40,
        [33, 24, 1, 1, 0, 47, 36, 0, 4],
        [13, 69, 11, 0, 37],
    ),
    (
        "BV-25 square",
        3,
        71,
        [52, 39, 1, 1, 0, 76, 55, 0, 16],
        [30, 141, 21, 0, 56],
    ),
    (
        "BV-25 ratio1.5",
        3,
        73,
        [52, 39, 1, 1, 0, 76, 54, 0, 19],
        [31, 140, 22, 0, 55],
    ),
    (
        "BV-25 square-ext2",
        5,
        71,
        [52, 39, 1, 1, 0, 76, 55, 0, 16],
        [30, 141, 21, 0, 56],
    ),
    (
        "BV-100 square",
        5,
        421,
        [201, 150, 1, 1, 0, 299, 204, 0, 217],
        [144, 1048, 95, 0, 208],
    ),
    (
        "BV-100 ratio1.5",
        4,
        398,
        [201, 150, 1, 1, 0, 299, 202, 0, 196],
        [135, 1355, 97, 0, 206],
    ),
    (
        "BV-100 square-ext2",
        6,
        422,
        [201, 150, 1, 1, 0, 299, 202, 0, 220],
        [143, 1415, 97, 0, 206],
    ),
    (
        "QAOA-16 triangular",
        42,
        2040,
        [200, 304, 3, 3, 92, 432, 333, 84, 1623],
        [231, 1787, 97, 67, 214],
    ),
    (
        "QAOA-16 hexagonal",
        56,
        2748,
        [200, 304, 3, 3, 92, 432, 280, 96, 2372],
        [417, 1879, 142, 74, 216],
    ),
];

/// The `perfbench` `scale` set: each instance at [`SEED`] on the auto
/// square layer (`oneq_baseline::physical_side` of its qubit count), as
/// `oneqc` and `oneqd` size it when no geometry is given. Depths sum to
/// 2158 and #fusions to 294881, the workload's `depth_total` and
/// `fusions_total`.
const SCALE_GOLDEN: [Golden; 7] = [
    (
        "QFT-40",
        295,
        56261,
        [4840, 6420, 40, 11, 1891, 8060, 6370, 212, 49679],
        [3791, 10887, 2031, 141, 900],
    ),
    (
        "QFT-48",
        402,
        84814,
        [6960, 9240, 48, 13, 2703, 11592, 9126, 275, 75413],
        [6025, 15776, 3967, 166, 900],
    ),
    (
        "QAOA-48",
        241,
        33342,
        [1652, 2732, 3, 8, 1132, 3889, 2904, 440, 29998],
        [2449, 14829, 952, 356, 898],
    ),
    (
        "QAOA-64",
        342,
        63683,
        [2852, 4804, 3, 9, 2030, 6852, 5287, 520, 57876],
        [4243, 21358, 1656, 391, 1156],
    ),
    (
        "RCA-120",
        328,
        19563,
        [2128, 2953, 3, 31, 727, 3899, 2829, 795, 15939],
        [2882, 20143, 1095, 632, 762],
    ),
    (
        "RCA-200",
        542,
        35105,
        [3568, 4953, 3, 51, 1227, 6539, 4743, 1300, 29062],
        [4829, 31423, 1838, 1026, 1192],
    ),
    (
        "BV-400",
        8,
        2113,
        [801, 600, 1, 1, 0, 1199, 833, 4, 1276],
        [586, 3127, 364, 2, 852],
    ),
];

fn stats_fields(s: &StageStats) -> [usize; 9] {
    [
        s.graph_state_nodes,
        s.graph_state_edges,
        s.dependency_layers,
        s.partitions,
        s.cross_edges,
        s.fusion_graph_nodes,
        s.direct_fusions,
        s.routed_fusions,
        s.shuffle_fusions,
    ]
}

fn counter_fields(p: &MapProfile) -> [u64; 5] {
    [
        p.bfs_searches,
        p.bfs_expansions,
        p.seed_scans,
        p.routing_cells,
        p.occupancy_peak,
    ]
}

/// Compiles `circuit` with `options` and compares it with the `label` row.
fn check(label: &str, circuit: &oneq_circuit::Circuit, options: CompilerOptions) {
    let &(_, depth, fusions, stats, counters) = GOLDEN
        .iter()
        .chain(&SCALE_GOLDEN)
        .find(|g| g.0 == label)
        .unwrap_or_else(|| panic!("no golden row for {label}"));
    let program = Compiler::new(options).compile(circuit);
    assert_eq!(
        (program.depth, program.fusions, stats_fields(&program.stats)),
        (depth, fusions, stats),
        "{label}: (depth, #fusions, StageStats) moved"
    );
    assert_eq!(
        counter_fields(&program.profile.totals()),
        counters,
        "{label}: mapper work counters [bfs_searches, bfs_expansions, \
         seed_scans, routing_cells, occupancy_peak] moved"
    );
}

/// The three paper layer shapes (square, aspect ratio 1.5, square with
/// ×2 extension) for every Table 2 size of `kind`.
fn check_paper_configurations(kind: BenchKind) {
    for &n in kind.paper_sizes() {
        let circuit = kind.circuit(n, SEED);
        let side = oneq_baseline::physical_side(n, ResourceKind::LINE3);
        let square = LayerGeometry::square(side);
        let rect = LayerGeometry::from_area_and_ratio(side * side, 1.5);
        let name = format!("{}-{n}", kind.name());
        check(
            &format!("{name} square"),
            &circuit,
            CompilerOptions::new(square),
        );
        check(
            &format!("{name} ratio1.5"),
            &circuit,
            CompilerOptions::new(rect),
        );
        check(
            &format!("{name} square-ext2"),
            &circuit,
            CompilerOptions::new(square).with_extension(2),
        );
    }
}

#[test]
fn qft_configurations_keep_their_metrics() {
    check_paper_configurations(BenchKind::Qft);
}

#[test]
fn qaoa_configurations_keep_their_metrics() {
    check_paper_configurations(BenchKind::Qaoa);
}

#[test]
fn rca_configurations_keep_their_metrics() {
    check_paper_configurations(BenchKind::Rca);
}

#[test]
fn bv_configurations_keep_their_metrics() {
    check_paper_configurations(BenchKind::Bv);
}

#[test]
fn non_orthogonal_layers_keep_their_metrics() {
    let circuit = BenchKind::Qaoa.circuit(16, SEED);
    for (name, topology) in [
        ("triangular", Topology::Triangular),
        ("hexagonal", Topology::Hexagonal),
    ] {
        let geometry = LayerGeometry::square(16).with_topology(topology);
        check(
            &format!("QAOA-16 {name}"),
            &circuit,
            CompilerOptions::new(geometry),
        );
    }
}

#[test]
fn every_golden_row_is_checked() {
    let paper_rows: usize = BenchKind::ALL
        .iter()
        .map(|k| 3 * k.paper_sizes().len())
        .sum();
    assert_eq!(paper_rows + 2, GOLDEN.len());
}

#[test]
fn scale_instances_keep_their_metrics() {
    for &(label, ..) in &SCALE_GOLDEN {
        let (name, n) = label.split_once('-').expect("rows are labelled KIND-n");
        let kind = *BenchKind::ALL
            .iter()
            .find(|k| k.name() == name)
            .expect("row names a benchmark kind");
        let circuit = kind.circuit(n.parse().expect("row size is a number"), SEED);
        let side = oneq_baseline::physical_side(circuit.n_qubits(), ResourceKind::LINE3);
        check(
            label,
            &circuit,
            CompilerOptions::new(LayerGeometry::square(side)),
        );
    }
}
