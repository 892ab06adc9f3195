//! Fused-state arithmetic and the photon-loss/fidelity estimate.
//!
//! A fusion projects two photons (one from each resource state) onto an
//! entangled basis, merging an `m`-qubit and an `n`-qubit graph state into
//! an `(m + n - 2)`-qubit one (paper §2.1, Fig. 2). Fusions are the most
//! error-prone operation of the platform, and photons waiting in delay
//! lines accumulate loss — which is exactly why the compiler minimizes
//! both the fusion count and the physical depth (paper §3.2).

/// Size of the graph state produced by fusing an `m`- and an `n`-qubit
/// graph state: each fusion consumes the two measured photons.
///
/// # Example
///
/// ```
/// // Paper Fig. 2: two 3-qubit states fuse into a 4-qubit state.
/// assert_eq!(oneq_hardware::fusion::fused_size(3, 3), 4);
/// ```
pub fn fused_size(m: usize, n: usize) -> usize {
    (m + n).saturating_sub(2)
}

/// A simple multiplicative error model for compiled programs.
///
/// `fusion_fidelity` is the per-fusion process fidelity; `survival_per_cycle`
/// is the probability a photon survives one clock cycle in a delay line.
/// The estimate is deliberately coarse — the paper reports only depth and
/// fusion counts, and this model exists to let users rank compilations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Per-fusion fidelity in (0, 1].
    pub fusion_fidelity: f64,
    /// Per-cycle delay-line survival probability in (0, 1].
    pub survival_per_cycle: f64,
}

impl Default for ErrorModel {
    fn default() -> Self {
        // Loosely inspired by reported linear-optics numbers: fusions are
        // the dominant error source; delay-line loss is per-cycle.
        ErrorModel {
            fusion_fidelity: 0.99,
            survival_per_cycle: 0.999,
        }
    }
}

impl ErrorModel {
    /// Creates a model, validating ranges.
    ///
    /// # Panics
    ///
    /// Panics when a parameter is outside (0, 1].
    pub fn new(fusion_fidelity: f64, survival_per_cycle: f64) -> Self {
        assert!(
            fusion_fidelity > 0.0 && fusion_fidelity <= 1.0,
            "fusion fidelity must be in (0, 1]"
        );
        assert!(
            survival_per_cycle > 0.0 && survival_per_cycle <= 1.0,
            "survival must be in (0, 1]"
        );
        ErrorModel {
            fusion_fidelity,
            survival_per_cycle,
        }
    }

    /// Estimated program fidelity given a fusion count and the total
    /// photon-cycles spent in delay lines.
    pub fn estimate_fidelity(&self, fusions: usize, delay_photon_cycles: usize) -> f64 {
        self.fusion_fidelity.powi(fusions as i32)
            * self.survival_per_cycle.powi(delay_photon_cycles as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_size_arithmetic() {
        assert_eq!(fused_size(3, 3), 4);
        assert_eq!(fused_size(4, 3), 5);
        assert_eq!(fused_size(2, 2), 2);
        // Degenerate inputs saturate instead of underflowing.
        assert_eq!(fused_size(1, 0), 0);
    }

    #[test]
    fn fusing_grows_state_when_both_sides_exceed_two() {
        for m in 3..6 {
            for n in 3..6 {
                assert!(fused_size(m, n) > m.max(n));
            }
        }
    }

    #[test]
    fn fidelity_decays_with_fusions() {
        let m = ErrorModel::default();
        let f1 = m.estimate_fidelity(10, 0);
        let f2 = m.estimate_fidelity(100, 0);
        assert!(f2 < f1);
        assert!(f1 <= 1.0 && f2 > 0.0);
    }

    #[test]
    fn fidelity_decays_with_delay() {
        let m = ErrorModel::default();
        assert!(m.estimate_fidelity(0, 100) < m.estimate_fidelity(0, 10));
        assert_eq!(m.estimate_fidelity(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "fusion fidelity")]
    fn invalid_fidelity_rejected() {
        ErrorModel::new(0.0, 0.5);
    }
}
