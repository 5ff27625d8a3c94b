//! Per-walker output buffers (the paper's `WalkerAoS` / `WalkerSoA`
//! classes, Fig. 3 L6 and Fig. 6 L2).
//!
//! Each walker owns one set of output arrays that every kernel call
//! overwrites. The AoS variant interleaves vector components
//! (`g[3n+d]`, `h[9n+r]`); the SoA variant keeps one aligned, padded
//! stream per component and exploits Hessian symmetry (6 streams).
//! Both expose the same logical accessors so tests and the determinant
//! code can compare layouts directly.

use einspline::aligned::AlignedVec;
use einspline::Real;

/// Baseline AoS output block: `v[N]`, `g[3N]`, `l[N]`, `h[9N]`.
#[derive(Clone, Debug)]
pub struct WalkerAoS<T: Real> {
    n: usize,
    /// Orbital values.
    pub v: AlignedVec<T>,
    /// Gradients interleaved `[x y z | x y z | …]`.
    pub g: AlignedVec<T>,
    /// Laplacians (filled by VGL).
    pub l: AlignedVec<T>,
    /// Full 3×3 Hessians interleaved row-major (filled by VGH).
    pub h: AlignedVec<T>,
}

impl<T: Real> WalkerAoS<T> {
    /// Create a new instance.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            v: AlignedVec::zeroed(n),
            g: AlignedVec::zeroed(3 * n),
            l: AlignedVec::zeroed(n),
            h: AlignedVec::zeroed(9 * n),
        }
    }

    #[inline]
    /// Number of orbitals N.
    pub fn n_splines(&self) -> usize {
        self.n
    }

    #[inline]
    /// Value of orbital `n`.
    pub fn value(&self, n: usize) -> T {
        self.v[n]
    }

    #[inline]
    /// Gradient of orbital `n`.
    pub fn gradient(&self, n: usize) -> [T; 3] {
        [self.g[3 * n], self.g[3 * n + 1], self.g[3 * n + 2]]
    }

    #[inline]
    /// Laplacian of orbital `n` (VGL path).
    pub fn laplacian(&self, n: usize) -> T {
        self.l[n]
    }

    /// Symmetric Hessian in `xx xy xz yy yz zz` order (from the full
    /// 3×3 storage).
    #[inline]
    pub fn hessian(&self, n: usize) -> [T; 6] {
        let h = &self.h.as_slice()[9 * n..9 * n + 9];
        [h[0], h[1], h[2], h[4], h[5], h[8]]
    }

    /// Laplacian recovered from the Hessian trace (VGH path).
    #[inline]
    pub fn hessian_trace(&self, n: usize) -> T {
        let h = &self.h.as_slice()[9 * n..9 * n + 9];
        h[0] + h[4] + h[8]
    }

    /// Clear the V-kernel outputs.
    pub fn zero_v(&mut self) {
        self.v.fill_default();
    }

    /// Clear the VGL-kernel outputs.
    pub fn zero_vgl(&mut self) {
        self.v.fill_default();
        self.g.fill_default();
        self.l.fill_default();
    }

    /// Clear the VGH-kernel outputs.
    pub fn zero_vgh(&mut self) {
        self.v.fill_default();
        self.g.fill_default();
        self.h.fill_default();
    }
}

/// SoA output block: aligned unit-stride streams per component, padded to
/// a cache-line multiple. Hessian is symmetric: `xx xy xz yy yz zz`.
#[derive(Clone, Debug)]
pub struct WalkerSoA<T: Real> {
    n: usize,
    /// Orbital values.
    pub v: AlignedVec<T>,
    /// Gradient component streams.
    pub gx: AlignedVec<T>,
    /// Gradient y-component stream.
    pub gy: AlignedVec<T>,
    /// Gradient z-component stream.
    pub gz: AlignedVec<T>,
    /// Laplacians (filled by VGL).
    pub l: AlignedVec<T>,
    /// Symmetric Hessian streams (filled by VGH).
    pub hxx: AlignedVec<T>,
    /// Hessian xy stream.
    pub hxy: AlignedVec<T>,
    /// Hessian xz stream.
    pub hxz: AlignedVec<T>,
    /// Hessian yy stream.
    pub hyy: AlignedVec<T>,
    /// Hessian yz stream.
    pub hyz: AlignedVec<T>,
    /// Hessian zz stream.
    pub hzz: AlignedVec<T>,
}

impl<T: Real> WalkerSoA<T> {
    /// Create a new instance.
    pub fn new(n: usize) -> Self {
        let alloc = || AlignedVec::zeroed_padded(n);
        Self {
            n,
            v: alloc(),
            gx: alloc(),
            gy: alloc(),
            gz: alloc(),
            l: alloc(),
            hxx: alloc(),
            hxy: alloc(),
            hxz: alloc(),
            hyy: alloc(),
            hyz: alloc(),
            hzz: alloc(),
        }
    }

    #[inline]
    /// Number of orbitals N.
    pub fn n_splines(&self) -> usize {
        self.n
    }

    /// Padded stream length (innermost loop trip count).
    #[inline]
    pub fn stride(&self) -> usize {
        self.v.len()
    }

    #[inline]
    /// Value of orbital `n`.
    pub fn value(&self, n: usize) -> T {
        self.v[n]
    }

    #[inline]
    /// Gradient of orbital `n`.
    pub fn gradient(&self, n: usize) -> [T; 3] {
        [self.gx[n], self.gy[n], self.gz[n]]
    }

    #[inline]
    /// Laplacian of orbital `n` (VGL path).
    pub fn laplacian(&self, n: usize) -> T {
        self.l[n]
    }

    #[inline]
    /// Symmetric Hessian of orbital `n` (`xx xy xz yy yz zz`).
    pub fn hessian(&self, n: usize) -> [T; 6] {
        [
            self.hxx[n],
            self.hxy[n],
            self.hxz[n],
            self.hyy[n],
            self.hyz[n],
            self.hzz[n],
        ]
    }

    #[inline]
    /// Laplacian recovered from the Hessian trace (VGH path).
    pub fn hessian_trace(&self, n: usize) -> T {
        self.hxx[n] + self.hyy[n] + self.hzz[n]
    }

    /// Clear the V-kernel outputs.
    pub fn zero_v(&mut self) {
        self.v.fill_default();
    }

    /// Clear the VGL-kernel outputs.
    pub fn zero_vgl(&mut self) {
        self.v.fill_default();
        self.gx.fill_default();
        self.gy.fill_default();
        self.gz.fill_default();
        self.l.fill_default();
    }

    /// Clear the VGH-kernel outputs.
    pub fn zero_vgh(&mut self) {
        self.v.fill_default();
        self.gx.fill_default();
        self.gy.fill_default();
        self.gz.fill_default();
        self.hxx.fill_default();
        self.hxy.fill_default();
        self.hxz.fill_default();
        self.hyy.fill_default();
        self.hyz.fill_default();
        self.hzz.fill_default();
    }
}

/// A mutable view over one orbital range of the eleven SoA output
/// streams — the unit the explicit-SIMD kernels write through.
///
/// For the monolithic engines the view spans the whole padded stream
/// (`[0, stride)`); for the blocked engine ([`crate::blocked`]) each
/// spline block receives the sub-range at its orbital offset of one
/// shared contiguous [`WalkerSoA`], so block outputs scatter straight
/// into the caller's buffer with no copy. Disjoint ranges of one
/// walker's streams can be handed to different threads
/// ([`WalkerSoA::split_streams_mut`]), which is what makes the nested
/// walker×block schedule borrow-checkable without interior mutability.
///
/// All eleven slices always have the same length (the kernels only
/// touch the streams their kernel writes, but the view is uniform so
/// one type serves V, VGL and VGH).
#[derive(Debug)]
pub struct SoAStreamsMut<'a, T> {
    /// Value stream slice.
    pub v: &'a mut [T],
    /// Gradient x-component slice.
    pub gx: &'a mut [T],
    /// Gradient y-component slice.
    pub gy: &'a mut [T],
    /// Gradient z-component slice.
    pub gz: &'a mut [T],
    /// Laplacian slice (VGL).
    pub l: &'a mut [T],
    /// Hessian xx slice (VGH).
    pub hxx: &'a mut [T],
    /// Hessian xy slice.
    pub hxy: &'a mut [T],
    /// Hessian xz slice.
    pub hxz: &'a mut [T],
    /// Hessian yy slice.
    pub hyy: &'a mut [T],
    /// Hessian yz slice.
    pub hyz: &'a mut [T],
    /// Hessian zz slice.
    pub hzz: &'a mut [T],
}

impl<'a, T> SoAStreamsMut<'a, T> {
    /// Orbitals covered by this view (length of every stream slice).
    #[inline]
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether the view covers no orbitals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Reborrow the sub-range `[lo, hi)` of this view (the per-block
    /// step inside a multi-block nested work item).
    #[inline]
    pub fn range_mut(&mut self, lo: usize, hi: usize) -> SoAStreamsMut<'_, T> {
        SoAStreamsMut {
            v: &mut self.v[lo..hi],
            gx: &mut self.gx[lo..hi],
            gy: &mut self.gy[lo..hi],
            gz: &mut self.gz[lo..hi],
            l: &mut self.l[lo..hi],
            hxx: &mut self.hxx[lo..hi],
            hxy: &mut self.hxy[lo..hi],
            hxz: &mut self.hxz[lo..hi],
            hyy: &mut self.hyy[lo..hi],
            hyz: &mut self.hyz[lo..hi],
            hzz: &mut self.hzz[lo..hi],
        }
    }
}

/// Split one stream into the given disjoint ascending `(lo, hi)`
/// ranges (gaps allowed; the skipped parts stay untouched).
fn split_ranges<'a, T>(mut s: &'a mut [T], ranges: &[(usize, usize)]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut pos = 0;
    for &(lo, hi) in ranges {
        assert!(lo >= pos && hi >= lo, "ranges must be disjoint ascending");
        let (_, rest) = s.split_at_mut(lo - pos);
        let (part, rest) = rest.split_at_mut(hi - lo);
        out.push(part);
        s = rest;
        pos = hi;
    }
    out
}

impl<T: Real> WalkerSoA<T> {
    /// Mutable stream view over the orbital range `[lo, hi)`
    /// (`hi ≤ stride`).
    pub fn streams_range_mut(&mut self, lo: usize, hi: usize) -> SoAStreamsMut<'_, T> {
        SoAStreamsMut {
            v: &mut self.v.as_mut_slice()[lo..hi],
            gx: &mut self.gx.as_mut_slice()[lo..hi],
            gy: &mut self.gy.as_mut_slice()[lo..hi],
            gz: &mut self.gz.as_mut_slice()[lo..hi],
            l: &mut self.l.as_mut_slice()[lo..hi],
            hxx: &mut self.hxx.as_mut_slice()[lo..hi],
            hxy: &mut self.hxy.as_mut_slice()[lo..hi],
            hxz: &mut self.hxz.as_mut_slice()[lo..hi],
            hyy: &mut self.hyy.as_mut_slice()[lo..hi],
            hyz: &mut self.hyz.as_mut_slice()[lo..hi],
            hzz: &mut self.hzz.as_mut_slice()[lo..hi],
        }
    }

    /// Split the streams into independent mutable views over the given
    /// disjoint ascending orbital ranges — one view per nested work
    /// item, hand-off-able to different threads (plain `split_at_mut`
    /// underneath; no unsafe, no interior mutability).
    pub fn split_streams_mut(&mut self, ranges: &[(usize, usize)]) -> Vec<SoAStreamsMut<'_, T>> {
        let mut v = split_ranges(self.v.as_mut_slice(), ranges).into_iter();
        let mut gx = split_ranges(self.gx.as_mut_slice(), ranges).into_iter();
        let mut gy = split_ranges(self.gy.as_mut_slice(), ranges).into_iter();
        let mut gz = split_ranges(self.gz.as_mut_slice(), ranges).into_iter();
        let mut l = split_ranges(self.l.as_mut_slice(), ranges).into_iter();
        let mut hxx = split_ranges(self.hxx.as_mut_slice(), ranges).into_iter();
        let mut hxy = split_ranges(self.hxy.as_mut_slice(), ranges).into_iter();
        let mut hxz = split_ranges(self.hxz.as_mut_slice(), ranges).into_iter();
        let mut hyy = split_ranges(self.hyy.as_mut_slice(), ranges).into_iter();
        let mut hyz = split_ranges(self.hyz.as_mut_slice(), ranges).into_iter();
        let mut hzz = split_ranges(self.hzz.as_mut_slice(), ranges).into_iter();
        (0..ranges.len())
            .map(|_| SoAStreamsMut {
                v: v.next().unwrap(),
                gx: gx.next().unwrap(),
                gy: gy.next().unwrap(),
                gz: gz.next().unwrap(),
                l: l.next().unwrap(),
                hxx: hxx.next().unwrap(),
                hxy: hxy.next().unwrap(),
                hxz: hxz.next().unwrap(),
                hyy: hyy.next().unwrap(),
                hyz: hyz.next().unwrap(),
                hzz: hzz.next().unwrap(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aos_accessors_read_interleaved_storage() {
        let mut w = WalkerAoS::<f32>::new(4);
        w.g[3 * 2] = 1.0;
        w.g[3 * 2 + 1] = 2.0;
        w.g[3 * 2 + 2] = 3.0;
        assert_eq!(w.gradient(2), [1.0, 2.0, 3.0]);
        for (r, val) in [(0, 1.0f32), (4, 5.0), (8, 9.0)] {
            w.h[9 * 3 + r] = val;
        }
        assert_eq!(w.hessian_trace(3), 15.0);
        assert_eq!(w.hessian(3)[0], 1.0);
        assert_eq!(w.hessian(3)[3], 5.0);
        assert_eq!(w.hessian(3)[5], 9.0);
    }

    #[test]
    fn soa_streams_are_padded_and_aligned() {
        let w = WalkerSoA::<f32>::new(100);
        assert_eq!(w.stride(), 112);
        assert_eq!(w.n_splines(), 100);
        assert_eq!(w.v.as_ptr() as usize % 64, 0);
        assert_eq!(w.hzz.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn soa_zeroing_clears_kernel_outputs() {
        let mut w = WalkerSoA::<f32>::new(8);
        w.v[0] = 1.0;
        w.gx[1] = 2.0;
        w.hzz[2] = 3.0;
        w.zero_vgh();
        assert_eq!(w.v[0], 0.0);
        assert_eq!(w.gx[1], 0.0);
        assert_eq!(w.hzz[2], 0.0);
    }
}
