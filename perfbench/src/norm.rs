//! Reference-normalized timing.
//!
//! Each vCPU of a shared host drifts in speed in phases lasting seconds.
//! The benchmark therefore runs a fixed, std-only reference loop on the
//! measuring thread between timed items and scales every item's time by
//! `nominal / reference`, where `reference` is the mean of the two
//! reference samples taken right before and right after the item. Work
//! that ran in a slow phase is scaled down by the same factor the phase
//! slowed the reference.
//!
//! A slow phase does not slow all code alike: cache-resident compute
//! (the grid search and sort below) slows most, a chase through main
//! memory hardly at all. Small compiles behave like the former, large
//! ones sit in between, so the reference does both (see README.md for
//! the measurements).

use std::hint::black_box;
use std::time::Instant;

/// Side of the square grid the reference loop searches.
const GRID_SIDE: usize = 128;
/// Keys the reference loop sorts per round.
const SORT_KEYS: usize = 4096;
/// Rounds of (grid BFS + sort) per timed repetition.
const ROUNDS: usize = 6;
/// Entries of the pointer-chase cycle (8 MiB of `u32`).
const CHASE_LEN: usize = 1 << 21;
/// Pointer-chase steps per timed repetition.
const CHASE_STEPS: usize = 4096;

/// The reference workload: a breadth-first search over a 128×128 grid
/// plus a 4,096-key sort, repeated, then a chase along a random cycle
/// through 8 MiB. It allocates nothing after construction, so its time
/// depends only on the speed of the vCPU it runs on.
pub struct RefLoop {
    dist: Vec<u32>,
    queue: Vec<u32>,
    keys: Vec<u64>,
    scratch: Vec<u64>,
    next: Vec<u32>,
    at: u32,
}

impl Default for RefLoop {
    fn default() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let keys = (0..SORT_KEYS).map(|_| draw()).collect();
        // Sattolo's algorithm: one random cycle through every entry.
        let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            next.swap(i, (draw() % i as u64) as usize);
        }
        RefLoop {
            next,
            at: 0,
            dist: vec![0; GRID_SIDE * GRID_SIDE],
            queue: vec![0; GRID_SIDE * GRID_SIDE],
            keys,
            scratch: vec![0; SORT_KEYS],
        }
    }
}

impl RefLoop {
    /// One repetition of the reference work; returns a checksum so the
    /// optimizer cannot drop it.
    fn work(&mut self) -> u64 {
        let mut sum = 0u64;
        for round in 0..ROUNDS {
            self.dist.fill(u32::MAX);
            let start = (round * 977) % self.dist.len();
            self.dist[start] = 0;
            self.queue[0] = start as u32;
            let (mut head, mut tail) = (0, 1);
            while head < tail {
                let cell = self.queue[head] as usize;
                head += 1;
                let (r, c) = (cell / GRID_SIDE, cell % GRID_SIDE);
                let d = self.dist[cell] + 1;
                let neighbors = [
                    (r > 0).then(|| cell - GRID_SIDE),
                    (r + 1 < GRID_SIDE).then(|| cell + GRID_SIDE),
                    (c > 0).then(|| cell - 1),
                    (c + 1 < GRID_SIDE).then(|| cell + 1),
                ];
                for next in neighbors.into_iter().flatten() {
                    if self.dist[next] == u32::MAX {
                        self.dist[next] = d;
                        self.queue[tail] = next as u32;
                        tail += 1;
                    }
                }
            }
            sum += u64::from(self.dist[self.dist.len() - 1 - start]);
            self.scratch.copy_from_slice(&self.keys);
            self.scratch.rotate_left(round * 31);
            self.scratch.sort_unstable();
            sum ^= self.scratch[round];
        }
        for _ in 0..CHASE_STEPS {
            self.at = self.next[self.at as usize];
        }
        sum + u64::from(self.at)
    }

    /// Times the reference work: the faster of two back-to-back
    /// repetitions, which drops a repetition that an interrupt landed in
    /// while keeping the speed of the current phase.
    pub fn sample_ns(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t = Instant::now();
            black_box(self.work());
            best = best.min(t.elapsed().as_nanos() as f64);
        }
        best
    }
}

/// Reference samples of one run and the items timed between them.
#[derive(Debug, Default)]
pub struct Normalizer {
    nominal_ns: f64,
    refs: Vec<f64>,
}

/// One timed item: its raw wall time and the reference sample taken
/// right before it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Raw wall time in nanoseconds.
    pub raw_ns: f64,
    /// Index of the reference sample taken before the item.
    pub epoch: usize,
}

impl Normalizer {
    /// A normalizer scaling to `nominal_ms`, the reference time fixed in
    /// the benchmark's command line.
    pub fn new(nominal_ms: f64) -> Normalizer {
        Normalizer {
            nominal_ns: nominal_ms * 1e6,
            refs: Vec::new(),
        }
    }

    /// Records a reference sample; items timed after it belong to its
    /// epoch.
    pub fn push_ref(&mut self, ns: f64) {
        self.refs.push(ns);
    }

    /// Runs the reference loop and records its time.
    pub fn reference(&mut self, ref_loop: &mut RefLoop) {
        self.push_ref(ref_loop.sample_ns());
    }

    /// Tags a raw time with the current epoch.
    ///
    /// # Panics
    ///
    /// Panics if no reference sample was taken yet.
    pub fn timed(&self, raw_ns: f64) -> Timed {
        assert!(
            !self.refs.is_empty(),
            "time an item only after a reference sample"
        );
        Timed {
            raw_ns,
            epoch: self.refs.len() - 1,
        }
    }

    /// The reference time in force for `epoch`: the mean of the samples
    /// bracketing it (the last sample alone if none followed yet).
    pub fn reference_ns(&self, epoch: usize) -> f64 {
        match self.refs.get(epoch + 1) {
            Some(after) => (self.refs[epoch] + after) / 2.0,
            None => self.refs[epoch],
        }
    }

    /// The factor that scales times of `epoch` to the nominal reference.
    pub fn factor(&self, epoch: usize) -> f64 {
        self.nominal_ns / self.reference_ns(epoch)
    }

    /// `t` scaled to the nominal reference time, in nanoseconds.
    pub fn scaled_ns(&self, t: Timed) -> f64 {
        t.raw_ns * self.factor(t.epoch)
    }

    /// Median reference sample of the run, in milliseconds.
    pub fn median_ref_ms(&self) -> f64 {
        crate::stats::median(&self.refs) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_scale_by_the_mean_of_their_bracketing_references() {
        let mut n = Normalizer::new(5.0);
        n.push_ref(4e6);
        let a = n.timed(100.0);
        n.push_ref(6e6);
        let b = n.timed(100.0);
        // a ran between refs of 4 ms and 6 ms: reference 5 ms, factor 1.
        assert!((n.scaled_ns(a) - 100.0).abs() < 1e-9);
        // b has no closing reference yet: factor 5/6.
        assert!((n.scaled_ns(b) - 100.0 * 5.0 / 6.0).abs() < 1e-9);
        n.push_ref(10e6);
        // Now b is bracketed by 6 ms and 10 ms: factor 5/8.
        assert!((n.scaled_ns(b) - 62.5).abs() < 1e-9);
        assert!((n.median_ref_ms() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn a_slow_phase_cancels_out() {
        // The same work in a phase twice as slow reads twice as long raw
        // and the same once scaled.
        let mut n = Normalizer::new(2.0);
        n.push_ref(2e6);
        let fast = n.timed(1e6);
        n.push_ref(2e6);
        n.push_ref(4e6);
        let slow = n.timed(2e6);
        n.push_ref(4e6);
        assert!((n.scaled_ns(fast) - n.scaled_ns(slow)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "reference sample")]
    fn timing_before_any_reference_is_a_bug() {
        Normalizer::new(1.0).timed(1.0);
    }

    #[test]
    fn the_reference_loop_is_deterministic_work() {
        let mut a = RefLoop::default();
        let mut b = RefLoop::default();
        assert_eq!(a.work(), b.work());
        assert!(a.sample_ns() > 0.0);
    }
}
