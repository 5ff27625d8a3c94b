//! Names for the paper's data layouts, kernels and optimization steps —
//! shared vocabulary between the engines, the benchmark harness and the
//! cache-simulator trace generator — plus the lane-alignment queries the
//! explicit SIMD kernels rely on.

use std::fmt;

/// Widest lane count any [`crate::simd`] backend may ever use for
/// element type `T`: one 64-byte cache line (= one AVX-512 register),
/// i.e. 16 `f32` or 8 `f64` lanes. Coefficient rows and SoA output
/// streams are padded to a multiple of this, so every backend
/// (AVX-512: 16/8 lanes, AVX2: 8/4, scalar pack: 4/4) divides the padded
/// length evenly and the hot path never executes a ragged tail.
pub const fn max_lanes<T>() -> usize {
    64 / std::mem::size_of::<T>()
}

/// `n` rounded up to a multiple of [`max_lanes`] — the guaranteed
/// padded length of a coefficient row / SoA output stream holding `n`
/// logical elements. Agrees with `einspline::aligned::padded_len` (the
/// allocator-side counterpart) by construction; both round to a full
/// cache line.
pub const fn lane_padded_len<T>(n: usize) -> usize {
    let lanes = max_lanes::<T>();
    n.div_ceil(lanes) * lanes
}

/// Whether `len` is a whole number of widest-backend lane groups, i.e.
/// a valid explicit-SIMD trip count with no remainder for any backend.
pub const fn is_lane_padded<T>(len: usize) -> bool {
    len.is_multiple_of(max_lanes::<T>())
}

/// Memory layout of the SPO evaluation (paper Sec. V).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Baseline: interleaved gradients `g[3N]` / Hessians `h[9N]`
    /// (Fig. 4a).
    Aos,
    /// Opt A: one contiguous stream per component, symmetric Hessian
    /// (Fig. 4b).
    Soa,
    /// Opt B: SoA split into tiles of `Nb` splines (Sec. V-B).
    AoSoA,
}

impl Layout {
    /// All layouts in optimization order.
    pub const ALL: [Layout; 3] = [Layout::Aos, Layout::Soa, Layout::AoSoA];
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layout::Aos => "AoS",
            Layout::Soa => "SoA",
            Layout::AoSoA => "AoSoA",
        })
    }
}

/// The three B-spline evaluation kernels (paper Sec. IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Values only (pseudopotential local-energy path).
    V,
    /// Value + gradient + Laplacian (drift-diffusion, LCAO-type cells).
    Vgl,
    /// Value + gradient + Hessian (drift-diffusion, general cells).
    Vgh,
}

impl Kernel {
    /// All kernels in paper order.
    pub const ALL: [Kernel; 3] = [Kernel::V, Kernel::Vgl, Kernel::Vgh];

    /// Output components per orbital in the given layout
    /// (paper: 13 AoS / 10 SoA for VGH; 5 for VGL; 1 for V).
    pub fn components(self, layout: Layout) -> usize {
        match (self, layout) {
            (Kernel::V, _) => 1,
            (Kernel::Vgl, _) => 5,
            (Kernel::Vgh, Layout::Aos) => 13,
            (Kernel::Vgh, _) => 10,
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::V => "V",
            Kernel::Vgl => "VGL",
            Kernel::Vgh => "VGH",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_counts_match_paper() {
        assert_eq!(Kernel::Vgh.components(Layout::Aos), 13);
        assert_eq!(Kernel::Vgh.components(Layout::Soa), 10);
        assert_eq!(Kernel::Vgh.components(Layout::AoSoA), 10);
        assert_eq!(Kernel::Vgl.components(Layout::Aos), 5);
        assert_eq!(Kernel::V.components(Layout::Soa), 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(Layout::AoSoA.to_string(), "AoSoA");
        assert_eq!(Kernel::Vgl.to_string(), "VGL");
    }

    #[test]
    fn all_lists_are_complete() {
        assert_eq!(Layout::ALL.len(), 3);
        assert_eq!(Kernel::ALL.len(), 3);
    }

    #[test]
    fn lane_padding_covers_every_backend_width() {
        assert_eq!(max_lanes::<f32>(), 16);
        assert_eq!(max_lanes::<f64>(), 8);
        for b in crate::simd::Backend::ALL {
            assert_eq!(max_lanes::<f32>() % crate::simd::lanes_for::<f32>(b), 0, "{b}");
            assert_eq!(max_lanes::<f64>() % crate::simd::lanes_for::<f64>(b), 0, "{b}");
        }
    }

    #[test]
    fn lane_padded_len_matches_allocator_padding() {
        for n in [1usize, 7, 16, 17, 100, 512] {
            assert_eq!(lane_padded_len::<f32>(n), einspline::aligned::padded_len::<f32>(n));
            assert_eq!(lane_padded_len::<f64>(n), einspline::aligned::padded_len::<f64>(n));
            assert!(is_lane_padded::<f32>(lane_padded_len::<f32>(n)));
            assert!(is_lane_padded::<f64>(lane_padded_len::<f64>(n)));
        }
        assert!(!is_lane_padded::<f32>(17));
    }
}
