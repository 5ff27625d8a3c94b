//! The miniQMC B-spline driver (paper Fig. 3).
//!
//! Each *walker* (Monte Carlo sample) owns private output buffers and a
//! private stream of random positions; all walkers share the read-only
//! coefficient table through the engine. The driver replays the paper's
//! measurement loop: `niters` generations, each evaluating `ns` random
//! positions per kernel — handed to the engine as whole
//! [`PosBlock`]s of `batch` positions per timed call, so the batched
//! engine paths (hoisted basis weights, tile-major blocking) are what
//! the timing regions measure.

use crate::batch::{BatchOut, PosBlock};
use crate::engine::SpoEngine;
use crate::layout::Kernel;
use einspline::Real;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Driver parameters (defaults follow the paper: `ns = 512` random
/// samples per kernel per iteration).
#[derive(Clone, Copy, Debug)]
pub struct DriverConfig {
    /// Number of independent walkers `Nw`.
    pub n_walkers: usize,
    /// Random positions per kernel per iteration (`ns`).
    pub n_samples: usize,
    /// Monte Carlo generations (`niters`).
    pub n_iters: usize,
    /// Positions per batched engine call (the per-walker output-block
    /// working set is `batch` blocks, reused across sub-blocks).
    pub batch: usize,
    /// Master RNG seed; each walker derives its own stream.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            n_walkers: 1,
            n_samples: 512,
            n_iters: 1,
            batch: 32,
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

/// Per-kernel accumulated wall time of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTimes {
    /// Orbital value stream.
    pub v: Duration,
    /// Vgl.
    pub vgl: Duration,
    /// Vgh.
    pub vgh: Duration,
}

impl KernelTimes {
    /// Get.
    pub fn get(&self, k: Kernel) -> Duration {
        match k {
            Kernel::V => self.v,
            Kernel::Vgl => self.vgl,
            Kernel::Vgh => self.vgh,
        }
    }

    /// Add.
    pub fn add(&mut self, k: Kernel, d: Duration) {
        match k {
            Kernel::V => self.v += d,
            Kernel::Vgl => self.vgl += d,
            Kernel::Vgh => self.vgh += d,
        }
    }
}

/// Draw `ns` uniform random positions inside `domain` (the paper's
/// `generateRandomPos`, imitating QMC's random drift-diffusion moves).
pub fn random_positions<T: Real, R: Rng>(
    rng: &mut R,
    ns: usize,
    domain: [(f64, f64); 3],
) -> Vec<[T; 3]> {
    (0..ns)
        .map(|_| {
            let mut p = [T::ZERO; 3];
            for (d, (lo, hi)) in domain.iter().enumerate() {
                p[d] = T::from_f64(lo + (hi - lo) * rng.random::<f64>());
            }
            p
        })
        .collect()
}

/// RNG for walker `w` derived from the master seed (independent,
/// reproducible streams).
pub fn walker_rng(seed: u64, walker: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (walker as u64).wrapping_mul(0xa076_1d64_78bd_642f))
}

/// Split a full sample stream into `batch`-sized [`PosBlock`]s (built
/// once per walker, outside the timing regions).
fn sample_blocks<T: Real, R: Rng>(
    rng: &mut R,
    ns: usize,
    batch: usize,
    domain: [(f64, f64); 3],
) -> Vec<PosBlock<T>> {
    let stream: PosBlock<T> = PosBlock::random(rng, ns, domain);
    stream.chunks(batch).collect()
}

/// Run one walker's full measurement loop serially; returns per-kernel
/// time. Each timed region hands the engine whole position blocks
/// through the batched API (`cfg.batch` positions per call, output
/// blocks reused across calls).
pub fn run_walker<T: Real, E: SpoEngine<T>>(
    engine: &E,
    cfg: &DriverConfig,
    walker: usize,
) -> KernelTimes {
    let mut rng = walker_rng(cfg.seed, walker);
    let domain = engine.domain();
    let batch = cfg.batch.clamp(1, cfg.n_samples.max(1));
    let v_blocks: Vec<PosBlock<T>> =
        sample_blocks(&mut rng, cfg.n_samples, batch, domain);
    let vgl_blocks: Vec<PosBlock<T>> =
        sample_blocks(&mut rng, cfg.n_samples, batch, domain);
    let vgh_blocks: Vec<PosBlock<T>> =
        sample_blocks(&mut rng, cfg.n_samples, batch, domain);
    let mut out = engine.make_batch_out(batch);
    let mut times = KernelTimes::default();

    for _ in 0..cfg.n_iters {
        let t0 = Instant::now();
        for b in &v_blocks {
            engine.eval_batch(Kernel::V, b, &mut out);
        }
        times.v += t0.elapsed();

        let t0 = Instant::now();
        for b in &vgl_blocks {
            engine.eval_batch(Kernel::Vgl, b, &mut out);
        }
        times.vgl += t0.elapsed();

        let t0 = Instant::now();
        for b in &vgh_blocks {
            engine.eval_batch(Kernel::Vgh, b, &mut out);
        }
        times.vgh += t0.elapsed();
    }
    times
}

/// Run one kernel over a fixed position set, one scalar call per
/// position (the pre-batching reference loop for speedup comparisons).
pub fn run_kernel<T: Real, E: SpoEngine<T>>(
    engine: &E,
    kernel: Kernel,
    positions: &[[T; 3]],
    out: &mut E::Out,
) -> Duration {
    let t0 = Instant::now();
    for p in positions {
        engine.eval(kernel, *p, out);
    }
    t0.elapsed()
}

/// Run one kernel over pre-chunked position blocks through the batched
/// API (benchmark inner loop; `out` must hold at least as many blocks
/// as the largest position block).
pub fn run_kernel_batched<T: Real, E: SpoEngine<T>>(
    engine: &E,
    kernel: Kernel,
    blocks: &[PosBlock<T>],
    out: &mut BatchOut<E::Out>,
) -> Duration {
    let t0 = Instant::now();
    for b in blocks {
        engine.eval_batch(kernel, b, out);
    }
    t0.elapsed()
}

/// Serial multi-walker run (walkers executed back-to-back on one
/// thread) — the reference for parallel-efficiency tests.
pub fn run_serial<T: Real, E: SpoEngine<T>>(engine: &E, cfg: &DriverConfig) -> KernelTimes {
    let mut total = KernelTimes::default();
    for w in 0..cfg.n_walkers {
        let t = run_walker(engine, cfg, w);
        total.v += t.v;
        total.vgl += t.vgl;
        total.vgh += t.vgh;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::BsplineSoA;
    use einspline::{Grid1, MultiCoefs};

    fn engine() -> BsplineSoA<f32> {
        let g = Grid1::periodic(0.0, 1.0, 6);
        let mut m = MultiCoefs::<f32>::new(g, g, g, 8);
        m.fill_random(&mut StdRng::seed_from_u64(2));
        BsplineSoA::new(m)
    }

    #[test]
    fn random_positions_respect_domain() {
        let mut rng = StdRng::seed_from_u64(1);
        let pos: Vec<[f32; 3]> =
            random_positions(&mut rng, 100, [(0.0, 1.0), (2.0, 3.0), (-1.0, 0.0)]);
        assert_eq!(pos.len(), 100);
        for p in pos {
            assert!((0.0..1.0).contains(&p[0]));
            assert!((2.0..3.0).contains(&p[1]));
            assert!((-1.0..0.0).contains(&p[2]));
        }
    }

    #[test]
    fn walker_rngs_are_independent_and_reproducible() {
        let a1: f64 = walker_rng(7, 0).random();
        let a2: f64 = walker_rng(7, 0).random();
        let b: f64 = walker_rng(7, 1).random();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn run_walker_accumulates_all_kernels() {
        let e = engine();
        let cfg = DriverConfig {
            n_walkers: 1,
            n_samples: 4,
            n_iters: 2,
            batch: 3, // deliberately ragged: blocks of 3 + 1
            seed: 3,
        };
        let t = run_walker(&e, &cfg, 0);
        assert!(t.v > Duration::ZERO);
        assert!(t.vgl > Duration::ZERO);
        assert!(t.vgh > Duration::ZERO);
    }

    #[test]
    fn batched_kernel_loop_bitmatches_scalar() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(4);
        let pos: Vec<[f32; 3]> =
            random_positions(&mut rng, 7, SpoEngine::<f32>::domain(&e));
        let stream = PosBlock::from_positions(&pos);
        let blocks: Vec<PosBlock<f32>> = stream.chunks(3).collect();
        assert_eq!(blocks.len(), 3); // 3 + 3 + 1: ragged tail reuses out
        let mut out = e.make_batch_out(3);
        run_kernel_batched(&e, Kernel::Vgh, &blocks, &mut out);
        // After the last (1-position) block, block 0 holds pos[6].
        let mut scalar = e.make_out();
        e.vgh(pos[6], &mut scalar);
        for n in 0..e.n_splines() {
            assert_eq!(out.block(0).value(n), scalar.value(n));
            assert_eq!(out.block(0).hessian(n), scalar.hessian(n));
        }
        // Blocks 1/2 still hold the previous (full) block's outputs.
        e.vgh(pos[4], &mut scalar);
        assert_eq!(out.block(1).value(0), scalar.value(0));
    }

    #[test]
    fn kernel_times_accessors() {
        let mut t = KernelTimes::default();
        t.add(Kernel::Vgl, Duration::from_millis(5));
        assert_eq!(t.get(Kernel::Vgl), Duration::from_millis(5));
        assert_eq!(t.get(Kernel::V), Duration::ZERO);
    }

    #[test]
    fn run_serial_scales_with_walker_count() {
        let e = engine();
        let cfg1 = DriverConfig {
            n_walkers: 1,
            n_samples: 8,
            n_iters: 1,
            batch: 4,
            seed: 5,
        };
        let cfg3 = DriverConfig {
            n_walkers: 3,
            ..cfg1
        };
        let _ = run_serial(&e, &cfg1);
        let t3 = run_serial(&e, &cfg3);
        assert!(t3.vgh > Duration::ZERO);
    }
}
