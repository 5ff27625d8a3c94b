//! Standard workloads: the paper's problem-size sweep and coefficient
//! tables.

use bspline::PosBlock;
use einspline::{MultiCoefs, Real};
use miniqmc::synthetic::random_coefficients;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's problem-size sweep: N = 128 (the 64-carbon CORAL cell) up
/// to 4096 (the pre-exascale grand challenge).
pub const N_SWEEP: [usize; 6] = [128, 256, 512, 1024, 2048, 4096];

/// The fixed evaluation grid of the sweep (Sec. VI): 48³.
pub const GRID: (usize, usize, usize) = (48, 48, 48);

/// `QMC_BENCH_QUICK=1` shrinks every workload (used by CI and tests).
/// Unset or `0` is the full-size run; anything else panics naming the
/// variable, like `QMC_THREADS`.
pub fn is_quick() -> bool {
    std::env::var("QMC_BENCH_QUICK").is_ok_and(|raw| parse_quick(&raw))
}

/// Strictly parse a `QMC_BENCH_QUICK` value: `0` or `1`, or panic
/// naming the variable and the offending value.
fn parse_quick(raw: &str) -> bool {
    match raw.trim() {
        "0" => false,
        "1" => true,
        _ => panic!(
            "QMC_BENCH_QUICK must be 0 or 1, got {raw:?} \
             (unset the variable for the full-size run)"
        ),
    }
}

/// Grid used by the current run (quick mode shrinks 48³ → 16³).
pub fn grid() -> (usize, usize, usize) {
    if is_quick() {
        (16, 16, 16)
    } else {
        GRID
    }
}

/// Problem sizes used by the current run.
pub fn n_sweep() -> Vec<usize> {
    if is_quick() {
        vec![128, 256, 512]
    } else {
        N_SWEEP.to_vec()
    }
}

/// Random-filled coefficient table in any storage precision (the
/// miniQMC benchmark table; `f64` / `f32` / mixed measurements share
/// one workload shape).
pub fn coefficients_in<T: Real>(
    n: usize,
    grid: (usize, usize, usize),
    seed: u64,
) -> MultiCoefs<T> {
    random_coefficients(grid.0, grid.1, grid.2, n, seed)
}

/// Random-filled coefficient table (the miniQMC benchmark table).
pub fn coefficients(n: usize, grid: (usize, usize, usize), seed: u64) -> MultiCoefs<f32> {
    coefficients_in::<f32>(n, grid, seed)
}

/// `ns` random fractional positions in any precision. The f64 and f32
/// streams drawn from one seed describe the same points up to one
/// rounding, so per-precision rows time the same walk.
pub fn positions_in<T: Real>(ns: usize, seed: u64) -> Vec<[T; 3]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ns)
        .map(|_| {
            [
                T::from_f64(rng.random::<f64>()),
                T::from_f64(rng.random::<f64>()),
                T::from_f64(rng.random::<f64>()),
            ]
        })
        .collect()
}

/// The same `ns` random fractional positions as [`positions_in`], as a
/// SoA [`PosBlock`] for the batched engine paths.
pub fn pos_block_in<T: Real>(ns: usize, seed: u64) -> PosBlock<T> {
    PosBlock::from_positions(&positions_in::<T>(ns, seed))
}

/// Positions per batched engine call in the batched measurement
/// variants (the per-call output working set is `batch_size()` blocks).
pub fn batch_size() -> usize {
    if is_quick() {
        16
    } else {
        32
    }
}

/// Samples per kernel invocation batch — the paper's ns = 512 (Fig. 3).
///
/// Keeping the full 512 matters: miniQMC evaluates the *same* position
/// set every iteration, so the lines a tile touches across ns positions
/// (≈ ns·64·Nb·4 bytes) are what cache blocking keeps resident between
/// repetitions. Shrinking ns shrinks that working set and hides the
/// tiling effect.
pub fn samples_for(_n: usize) -> usize {
    if is_quick() {
        64
    } else {
        512
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper() {
        assert_eq!(N_SWEEP[0], 128);
        assert_eq!(*N_SWEEP.last().unwrap(), 4096);
    }

    #[test]
    fn samples_scale_down_with_n() {
        assert_eq!(samples_for(128), 512);
        assert!(samples_for(4096) >= 16);
        assert!(samples_for(4096) <= samples_for(128));
    }

    #[test]
    fn quick_knob_is_parsed_strictly() {
        for (raw, quick) in [("0", false), ("1", true), (" 1\n", true)] {
            assert_eq!(parse_quick(raw), quick, "{raw:?}");
        }
        for raw in ["", "yes", "true", "2", "-1", "01"] {
            let err = std::panic::catch_unwind(|| parse_quick(raw))
                .expect_err("a garbage value must panic");
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("QMC_BENCH_QUICK") && msg.contains(raw), "{msg}");
        }
    }

    #[test]
    fn positions_in_unit_cube() {
        for p in positions_in::<f32>(50, 3) {
            for x in &p {
                assert!((0.0..1.0).contains(x));
            }
        }
    }

    #[test]
    fn coefficients_built_to_spec() {
        let c = coefficients(32, (8, 8, 10), 5);
        assert_eq!(c.n_splines(), 32);
    }
}
