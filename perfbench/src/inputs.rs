//! Seeded input generation for the three workloads.
//!
//! The workload seed only chooses inputs: which circuits, in which order.
//! The program under test receives the generated QASM text and nothing
//! else. The circuits are the repository's own benchmark families,
//! `oneq_bench::BenchKind`, at the paper's seed for `paper` and `scale`.

use oneq_bench::{BenchKind, SEED};
use oneq_circuit::Circuit;
use oneq_hardware::{LayerGeometry, ResourceKind};
use oneq_service::compile::{CompileConfig, GeometryChoice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seed for one stream of `serve` draws (repeats, block orders, each
/// job's instance), mixed from the workload seed and the stream's
/// identity, so one job's instance does not depend on the draws before it.
pub fn mix(words: &[u64]) -> u64 {
    words.iter().fold(0x5eed, |h, &w| {
        (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
    })
}

/// Fisher–Yates shuffle of `items` with a generator seeded from `seed`.
pub fn shuffle<T>(seed: u64, items: &mut [T]) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One compile input: the QASM text, its file label and the compile
/// configuration, exactly as `oneqc` or a `/v1/compile` caller sends them.
#[derive(Debug, Clone)]
pub struct Input {
    /// File label (part of the record and of the service's cache key).
    pub label: String,
    /// OpenQASM 2.0 source.
    pub source: String,
    /// Layer geometry, extension and resource kind.
    pub config: CompileConfig,
}

impl Input {
    fn new(label: String, circuit: &Circuit, geometry: GeometryChoice, extension: usize) -> Input {
        Input {
            label,
            source: circuit.to_qasm(),
            config: CompileConfig {
                geometry,
                extension,
                resource: ResourceKind::LINE3,
                timings: false,
            },
        }
    }
}

/// `paper`: the `sweep` configuration set. The 12 Table 2 instances
/// (`BenchKind::paper_sizes`, drawn with the paper's [`SEED`]), each on
/// the baseline-sized square layer, the same area at aspect ratio 1.5,
/// and the square with ×2 extended layers. The instances are the paper's
/// own, so depth and #fusions are the paper's numbers; the workload seed
/// sets the order they are compiled in.
pub fn paper(seed: u64) -> Vec<Input> {
    let mut out = Vec::new();
    for kind in BenchKind::ALL {
        for &n in kind.paper_sizes() {
            let circuit = kind.circuit(n, SEED);
            let side = oneq_baseline::physical_side(n, ResourceKind::LINE3);
            let rect = LayerGeometry::from_area_and_ratio(side * side, 1.5);
            let name = format!("{}-{n}", kind.name());
            out.push(Input::new(
                format!("{name}.square.qasm"),
                &circuit,
                GeometryChoice::Square(side),
                1,
            ));
            out.push(Input::new(
                format!("{name}.ratio1.5.qasm"),
                &circuit,
                GeometryChoice::Rect(rect.rows(), rect.cols()),
                1,
            ));
            out.push(Input::new(
                format!("{name}.square-ext2.qasm"),
                &circuit,
                GeometryChoice::Square(side),
                2,
            ));
        }
    }
    shuffle(seed, &mut out);
    out
}

/// The `scale` instances: above the paper's sizes, each compile a few
/// hundred milliseconds. Partition and shuffle grow roughly n³, so an
/// algorithmic change to them shows several times larger here than on
/// `paper`; BV-400 is the control that spends its time in mapping.
pub const SCALE_SET: [(BenchKind, usize); 7] = [
    (BenchKind::Qft, 40),
    (BenchKind::Qft, 48),
    (BenchKind::Qaoa, 48),
    (BenchKind::Qaoa, 64),
    (BenchKind::Rca, 120),
    (BenchKind::Rca, 200),
    (BenchKind::Bv, 400),
];

/// `scale`: [`SCALE_SET`] at the auto square geometry. Like `paper`, the
/// instances are drawn with the paper's [`SEED`], so depth and #fusions
/// are exact and a pass's time does not depend on which QAOA graphs a
/// seed drew; the workload seed sets the compile order.
pub fn scale(seed: u64) -> Vec<Input> {
    let mut out: Vec<Input> = SCALE_SET
        .iter()
        .map(|&(kind, n)| {
            let circuit = kind.circuit(n, SEED);
            Input::new(
                format!("{}-{n}.qasm", kind.name()),
                &circuit,
                GeometryChoice::Auto,
                1,
            )
        })
        .collect();
    shuffle(seed, &mut out);
    out
}

/// Zipf exponent of repeat requests over recency rank (rank 0 = newest).
const ZIPF_S: f64 = 1.0;

/// Shape of the `serve` request stream.
///
/// The stream is a synthetic mix chosen so that every cache tier runs:
/// no measured `oneqd` traffic backs its weights.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// First-time circuits requested back to back before the regular
    /// stream starts. They fill the working set: repeats pick among the
    /// `fill` most recently introduced circuits.
    pub fill: usize,
    /// After the fill, every `new_every`-th request is a first-time
    /// circuit.
    pub new_every: usize,
    /// Qubit counts first-time circuits are drawn at; every block of
    /// `4 × sizes.len()` first-time circuits holds each (family, size)
    /// once, in a seeded order.
    pub sizes: Vec<usize>,
    /// Entries of the server's memory LRU.
    pub lru: usize,
}

impl Default for ServeShape {
    /// A 64-entry LRU under a 196-circuit working set (seven blocks).
    /// (`oneqd`'s default LRU holds 256 entries; a working set three times
    /// that would take ~800 compiles, ~9 s, to fill before every measured
    /// window.)
    fn default() -> Self {
        ServeShape {
            fill: 196,
            new_every: 100,
            sizes: vec![6, 9, 12, 15, 18, 21, 24],
            lru: 64,
        }
    }
}

impl ServeShape {
    /// First-time circuits per block. After the fill, a block spans
    /// `block_len × new_every` requests: the stream's period.
    pub fn block_len(&self) -> usize {
        BenchKind::ALL.len() * self.sizes.len()
    }
}

/// What one request of the serve stream asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    /// First request for job `k`.
    New(usize),
    /// A repeat request for job `k`.
    Repeat(usize),
}

impl Draw {
    /// The job requested.
    pub fn job(self) -> usize {
        match self {
            Draw::New(k) | Draw::Repeat(k) => k,
        }
    }
}

/// The `serve` request stream: a deterministic function of the seed.
///
/// It opens with `fill` first-time circuits, which fill the working set.
/// After that every `new_every`-th request introduces the next first-time
/// circuit, so misses are spread evenly over the run. The rest re-request
/// an earlier circuit with Zipf popularity over recency rank among the
/// `fill` newest, a working set several times the service's memory LRU,
/// so memory hits, disk hits and evictions all occur.
#[derive(Debug, Clone)]
pub struct ServeStream {
    shape: ServeShape,
    seed: u64,
    rng: StdRng,
    cdf: Vec<f64>,
    requests: usize,
    jobs: usize,
}

impl ServeStream {
    /// The stream for `seed`.
    pub fn new(seed: u64, shape: ServeShape) -> ServeStream {
        let mut total = 0.0;
        let cdf = (0..shape.fill.max(1))
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                total
            })
            .collect();
        ServeStream {
            shape,
            seed,
            rng: StdRng::seed_from_u64(mix(&[seed, 1])),
            cdf,
            requests: 0,
            jobs: 0,
        }
    }

    /// Jobs introduced so far.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The next request.
    pub fn next_draw(&mut self) -> Draw {
        if self.jobs < self.shape.fill {
            self.jobs += 1;
            return Draw::New(self.jobs - 1);
        }
        let i = self.requests;
        self.requests += 1;
        if i.is_multiple_of(self.shape.new_every) || self.jobs == 0 {
            self.jobs += 1;
            return Draw::New(self.jobs - 1);
        }
        let span = self.jobs.min(self.cdf.len());
        let u = self.rng.gen_range(0.0..self.cdf[span - 1]);
        let rank = self.cdf[..span].partition_point(|&c| c < u).min(span - 1);
        Draw::Repeat(self.jobs - 1 - rank)
    }

    /// Job `k`'s block and its slot in the block: block `k / block_len`
    /// holds each (family, size) slot once, in a seeded order.
    fn block_slot(&self, k: usize) -> (usize, usize) {
        let block_len = self.shape.block_len();
        let block = k / block_len;
        let mut order: Vec<usize> = (0..block_len).collect();
        shuffle(mix(&[self.seed, 2, block as u64]), &mut order);
        (block, order[k % block_len])
    }

    /// Job `k`'s family and size.
    pub fn job_shape(&self, k: usize) -> (BenchKind, usize) {
        let slot = self.block_slot(k).1;
        (
            BenchKind::ALL[slot % BenchKind::ALL.len()],
            self.shape.sizes[slot / BenchKind::ALL.len()],
        )
    }

    /// Job `k`'s input. Its circuit depends on its block and slot, not on
    /// the workload seed (the random families draw from the paper's
    /// [`SEED`] mixed with both): every run's blocks hold the same
    /// circuits, so depth and #fusions over a number of blocks are exact,
    /// and the seed sets the order they arrive in and which are repeated.
    /// Every job has its own file label, so each is a distinct cache
    /// entry even when two jobs share a circuit.
    pub fn input(&self, k: usize) -> Input {
        let (block, slot) = self.block_slot(k);
        let (kind, n) = self.job_shape(k);
        let circuit = kind.circuit(n, mix(&[SEED, 3, block as u64, slot as u64]));
        Input::new(format!("job-{k}.qasm"), &circuit, GeometryChoice::Auto, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, n: usize) -> Vec<Draw> {
        let mut s = ServeStream::new(seed, ServeShape::default());
        (0..n).map(|_| s.next_draw()).collect()
    }

    #[test]
    fn the_serve_stream_is_a_function_of_the_seed() {
        assert_eq!(draws(7, 5000), draws(7, 5000));
        assert_ne!(draws(7, 5000), draws(8, 5000));
        let a = ServeStream::new(7, ServeShape::default());
        let b = ServeStream::new(7, ServeShape::default());
        assert_eq!(a.input(31).source, b.input(31).source);
    }

    #[test]
    fn every_seed_fills_blocks_with_the_same_circuits_in_its_own_order() {
        let block = ServeShape::default().block_len();
        let sources = |seed: u64| {
            let s = ServeStream::new(seed, ServeShape::default());
            (block..2 * block)
                .map(|k| s.input(k).source)
                .collect::<Vec<_>>()
        };
        let (a, b) = (sources(7), sources(8));
        assert_ne!(a, b, "the seed sets the order");
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(sorted(a), sorted(b), "the circuits are the block's own");
    }

    #[test]
    fn the_fill_comes_first_then_new_circuits_arrive_evenly() {
        let shape = ServeShape::default();
        let d = draws(11, shape.fill + 30_000);
        let (fill, rest) = d.split_at(shape.fill);
        assert!(fill
            .iter()
            .enumerate()
            .all(|(k, draw)| *draw == Draw::New(k)));
        let mut newest = 0;
        let mut beyond_lru = 0;
        for (i, draw) in rest.iter().enumerate() {
            let introduced = shape.fill + i / 100 + 1;
            assert_eq!(matches!(draw, Draw::New(_)), i % 100 == 0, "request {i}");
            if let Draw::Repeat(k) = draw {
                assert!(*k < introduced, "repeats only ask for introduced jobs");
                let rank = introduced - 1 - k;
                assert!(rank < shape.fill, "repeats stay in the working set");
                newest += usize::from(rank == 0);
                beyond_lru += usize::from(rank >= shape.lru);
            }
        }
        // Zipf over recency: the newest job is the most requested, and
        // ranks beyond the LRU still get a fifth of the repeats.
        assert!(newest > 4_000, "{newest}");
        assert!(beyond_lru > 5_000, "{beyond_lru}");
    }

    #[test]
    fn each_block_covers_every_family_and_size_once() {
        let s = ServeStream::new(5, ServeShape::default());
        let block = ServeShape::default().block_len();
        assert_eq!(block, 28);
        let mut seen: Vec<(&str, usize)> = (block..2 * block)
            .map(|k| {
                let (kind, n) = s.job_shape(k);
                (kind.name(), n)
            })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            block,
            "no (family, size) repeats within a block"
        );
        let input = s.input(block + 3);
        let circuit = oneq_frontend::parse_circuit(&input.source).expect("valid qasm");
        assert_eq!(circuit.n_qubits(), s.job_shape(block + 3).1);
        assert_ne!(s.input(40).label, s.input(41).label);
    }

    #[test]
    fn paper_and_scale_orders_depend_on_the_seed_but_not_the_instances() {
        for (generate, len) in [
            (paper as fn(u64) -> Vec<Input>, 36),
            (scale, SCALE_SET.len()),
        ] {
            let (a, b) = (generate(1), generate(2));
            assert_eq!(a.len(), len);
            let labels = |v: &[Input]| v.iter().map(|i| i.label.clone()).collect::<Vec<_>>();
            assert_ne!(labels(&a), labels(&b), "the seed sets the order");
            let sorted = |v: &[Input]| {
                let mut s: Vec<_> = v
                    .iter()
                    .map(|i| (i.label.clone(), i.source.clone()))
                    .collect();
                s.sort();
                s
            };
            assert_eq!(sorted(&a), sorted(&b), "the instances are fixed");
        }
    }
}
