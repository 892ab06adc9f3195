//! Fused-state arithmetic.
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
}
