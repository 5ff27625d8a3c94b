//! `roofline` — the performance model behind the paper's Fig. 10.
//!
//! The paper uses Intel Advisor to place each optimization step of the
//! VGH kernel on a cache-aware roofline. This crate derives the same
//! quantities from first principles:
//!
//! * [`kernel_cost`] — analytic FLOP and cache-traffic accounting per
//!   kernel × layout, straight from the loop structures in the `bspline`
//!   crate;
//! * [`dram_intensity`] — the paper's DRAM arithmetic intensity
//!   (`64N` coefficient reads + `10N` output writes per VGH eval);
//! * [`Roofline`] — platform ceilings (scalar / vector / FMA peaks and
//!   the bandwidth slope) and attainable-GFLOPS queries.

#![warn(missing_docs)]
#![warn(clippy::all)]

use bspline::{Kernel, Layout};
use cachesim::Platform;

/// Analytic cost of evaluating all N splines at one position.
#[derive(Clone, Copy, Debug)]
pub struct KernelCost {
    /// Floating-point operations (FMA = 2).
    pub flops: f64,
    /// Bytes moved between the core and the first cache level — the
    /// denominator of the *cache-aware* arithmetic intensity (counts
    /// every touch of coefficients and outputs, including the 64×/16×
    /// output re-touches that distinguish AoS from SoA).
    pub cache_bytes: f64,
    /// Compulsory DRAM bytes: every coefficient read once, every output
    /// written once (the paper's `64N` reads + `10N`/`13N` writes).
    pub dram_bytes_min: f64,
}

impl KernelCost {
    /// Cache-aware arithmetic intensity (FLOP/byte).
    pub fn cache_ai(&self) -> f64 {
        self.flops / self.cache_bytes
    }

    /// DRAM arithmetic intensity assuming compulsory traffic only.
    pub fn dram_ai(&self) -> f64 {
        self.flops / self.dram_bytes_min
    }
}

/// FLOPs and traffic for one evaluation of `n` splines (single
/// precision, 4-byte words).
///
/// Derivation (per spline):
///
/// * AoS VGH (Fig. 4a): 64 coefficient points × 13 FMA accumulations;
///   all 13 interleaved output components are re-touched per point.
/// * SoA VGH (Fig. 4b + z-unroll): 16 (i,j) planes × (3 z-contractions
///   of 4 FMA + 10 FMA accumulations); 10 streams re-touched per plane.
/// * VGL and V analogous with their stream counts; AoS VGL is not
///   z-unrolled (the paper lists the unroll as an Opt-A-era fix).
pub fn kernel_cost(kernel: Kernel, layout: Layout, n: usize) -> KernelCost {
    let nf = n as f64;
    let w = 4.0; // bytes per f32
    match (kernel, layout) {
        (Kernel::V, Layout::Aos) => KernelCost {
            flops: 64.0 * 2.0 * nf,
            cache_bytes: 64.0 * (w * nf) + 64.0 * 2.0 * (w * nf),
            dram_bytes_min: 64.0 * w * nf + w * nf,
        },
        (Kernel::V, _) => KernelCost {
            // z-fused: 16 planes × (4-FMA contraction + 1 accumulate).
            flops: 16.0 * (8.0 + 2.0) * nf,
            cache_bytes: 64.0 * (w * nf) + 16.0 * 2.0 * (w * nf),
            dram_bytes_min: 64.0 * w * nf + w * nf,
        },
        (Kernel::Vgl, Layout::Aos) => KernelCost {
            // 5 accumulations per point; 5 output components re-touched
            // per point (plus the tmp copy).
            flops: 64.0 * 10.0 * nf,
            cache_bytes: 64.0 * (w * nf) + 64.0 * 2.0 * (6.0 * w * nf),
            dram_bytes_min: 64.0 * w * nf + 5.0 * w * nf,
        },
        (Kernel::Vgl, _) => KernelCost {
            // 3 contractions (12 FMA) + 5 accumulations + the fused
            // Laplacian FMA per plane.
            flops: 16.0 * (24.0 + 12.0) * nf,
            cache_bytes: 64.0 * (w * nf) + 16.0 * 2.0 * (5.0 * w * nf),
            dram_bytes_min: 64.0 * w * nf + 5.0 * w * nf,
        },
        (Kernel::Vgh, Layout::Aos) => KernelCost {
            flops: 64.0 * 26.0 * nf,
            cache_bytes: 64.0 * (w * nf) + 64.0 * 2.0 * (13.0 * w * nf),
            dram_bytes_min: 64.0 * w * nf + 13.0 * w * nf,
        },
        (Kernel::Vgh, _) => KernelCost {
            flops: 16.0 * (24.0 + 20.0) * nf,
            cache_bytes: 64.0 * (w * nf) + 16.0 * 2.0 * (10.0 * w * nf),
            dram_bytes_min: 64.0 * w * nf + 10.0 * w * nf,
        },
    }
}

/// The paper's quoted DRAM intensity for VGH: "the bytes transferred
/// from the main memory are the same, 64N reads and 10N writes".
pub fn dram_intensity(kernel: Kernel, layout: Layout, n: usize) -> f64 {
    kernel_cost(kernel, layout, n).dram_ai()
}

/// A point on the roofline chart.
#[derive(Clone, Debug)]
pub struct RooflinePoint {
    /// Label (e.g. "AoS", "SoA", "AoSoA Nb=512").
    pub label: String,
    /// Arithmetic intensity, FLOP/byte.
    pub ai: f64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
}

/// Platform ceilings for roofline charts.
#[derive(Clone, Debug)]
pub struct Roofline {
    /// Platform name.
    pub name: &'static str,
    /// Peak vector-FMA GFLOP/s.
    pub peak_gflops: f64,
    /// Peak without vectorization (scalar FMA issue).
    pub scalar_gflops: f64,
    /// Memory bandwidth, GB/s.
    pub bw_gbs: f64,
}

impl Roofline {
    /// Build from a platform model.
    pub fn for_platform(p: &Platform) -> Self {
        Self {
            name: p.name,
            peak_gflops: p.peak_sp_gflops(),
            scalar_gflops: p.peak_sp_gflops() / p.simd_lanes_sp() as f64,
            bw_gbs: p.stream_bw_gbs,
        }
    }

    /// Attainable GFLOP/s at arithmetic intensity `ai` under the vector
    /// roof.
    pub fn attainable(&self, ai: f64) -> f64 {
        (ai * self.bw_gbs).min(self.peak_gflops)
    }

    /// The ridge point: the intensity where the kernel stops being
    /// memory bound.
    pub fn ridge(&self) -> f64 {
        self.peak_gflops / self.bw_gbs
    }
}

/// Fraction of the roofline ceiling achieved by a measured point.
pub fn efficiency(roof: &Roofline, point: &RooflinePoint) -> f64 {
    point.gflops / roof.attainable(point.ai)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_scale_linearly_with_n() {
        let a = kernel_cost(Kernel::Vgh, Layout::Soa, 128);
        let b = kernel_cost(Kernel::Vgh, Layout::Soa, 256);
        assert!((b.flops / a.flops - 2.0).abs() < 1e-12);
        assert!((b.cache_bytes / a.cache_bytes - 2.0).abs() < 1e-12);
    }

    #[test]
    fn soa_has_higher_cache_ai_than_aos() {
        // The paper's Fig. 10: Opt A raises the cache-aware AI (outputs
        // touched 16× instead of 64×).
        for k in [Kernel::Vgl, Kernel::Vgh] {
            let aos = kernel_cost(k, Layout::Aos, 2048).cache_ai();
            let soa = kernel_cost(k, Layout::Soa, 2048).cache_ai();
            assert!(soa > aos, "{k}: {soa} ≤ {aos}");
        }
    }

    #[test]
    fn aosoa_matches_soa_per_eval_costs() {
        let a = kernel_cost(Kernel::Vgh, Layout::Soa, 512);
        let b = kernel_cost(Kernel::Vgh, Layout::AoSoA, 512);
        assert_eq!(a.flops, b.flops);
        assert_eq!(a.cache_bytes, b.cache_bytes);
    }

    #[test]
    fn vgh_dram_traffic_matches_paper_quote() {
        // 64N reads + 10N writes (SoA) in 4-byte words.
        let c = kernel_cost(Kernel::Vgh, Layout::Soa, 1000);
        assert_eq!(c.dram_bytes_min, (64.0 + 10.0) * 4.0 * 1000.0);
        let a = kernel_cost(Kernel::Vgh, Layout::Aos, 1000);
        assert_eq!(a.dram_bytes_min, (64.0 + 13.0) * 4.0 * 1000.0);
    }

    #[test]
    fn kernel_flop_ordering() {
        // VGH > VGL > V at fixed layout and N.
        let n = 256;
        let v = kernel_cost(Kernel::V, Layout::Soa, n).flops;
        let vgl = kernel_cost(Kernel::Vgl, Layout::Soa, n).flops;
        let vgh = kernel_cost(Kernel::Vgh, Layout::Soa, n).flops;
        assert!(vgh > vgl && vgl > v);
    }

    #[test]
    fn roofline_ceiling_shape() {
        let r = Roofline::for_platform(&Platform::knl());
        // Memory-bound region: attainable rises with AI.
        assert!(r.attainable(0.1) < r.attainable(1.0));
        // Compute-bound region: flat at peak.
        let high = r.ridge() * 10.0;
        assert_eq!(r.attainable(high), r.peak_gflops);
        // Scalar roof below vector roof.
        assert!(r.scalar_gflops < r.peak_gflops);
    }

    #[test]
    fn ridge_point_consistency() {
        let r = Roofline::for_platform(&Platform::bdw());
        let at_ridge = r.attainable(r.ridge());
        assert!((at_ridge - r.peak_gflops).abs() / r.peak_gflops < 1e-9);
    }

    #[test]
    fn efficiency_of_a_roofline_point() {
        let r = Roofline::for_platform(&Platform::knl());
        let p = RooflinePoint {
            label: "test".into(),
            ai: 1.0,
            gflops: r.attainable(1.0) / 2.0,
        };
        assert!((efficiency(&r, &p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn knl_mcdram_ridge_far_right_of_bdw() {
        // KNL's 490 GB/s MCDRAM vs BDW's 64 GB/s: the ridge moves right
        // roughly with peak/bw.
        let knl = Roofline::for_platform(&Platform::knl());
        let bdw = Roofline::for_platform(&Platform::bdw());
        assert!(knl.ridge() > bdw.ridge() * 0.5);
        assert!(knl.peak_gflops > bdw.peak_gflops);
    }
}
