//! Per-walker random streams.
//!
//! Each *walker* (Monte Carlo sample) draws its positions from a private
//! stream derived from one master seed, so a multi-walker run is
//! reproducible and its walkers are independent of each other and of
//! the order they run in.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// RNG for walker `w` derived from the master seed (independent,
/// reproducible streams).
pub fn walker_rng(seed: u64, walker: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (walker as u64).wrapping_mul(0xa076_1d64_78bd_642f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn walker_rngs_are_independent_and_reproducible() {
        let a1: f64 = walker_rng(7, 0).random();
        let a2: f64 = walker_rng(7, 0).random();
        let b: f64 = walker_rng(7, 1).random();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }
}
