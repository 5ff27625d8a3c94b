//! The 4D multi-orbital coefficient table `P[nx][ny][nz][N]`.
//!
//! This is the central read-only data structure of the paper: all N
//! orbitals' control points for one grid point are stored contiguously
//! (the spline index is the innermost, unit-stride dimension), so the
//! kernels' inner loops stream through `N` values per grid point. Each
//! dimension is padded by 3 (periodic wrap or boundary ghosts), and the
//! spline dimension is padded to a cache-line multiple and 64-byte
//! aligned (paper Sec. IV: "aligned allocator and includes padding").
//!
//! # Row padding
//!
//! One tricubic evaluation reads the 64 lines `(i0+i, j0+j, k0+k)`,
//! `i, j, k < 4`. With rows packed back to back their starts are
//! `i·sx + j·sy + k·stride_n`, and at N = 256 `f32` (a 1 KiB line on a
//! 51-point row) every one of those is a multiple of 1 KiB: the 64
//! lines fall into 4 of the L1's 64 sets (the 4 KiB set period of an
//! x86 L1d), 16 lines a set against 12 ways. So [`TableLayout`] appends
//! `row_pad` cache lines after each z-row, `sy = pz·stride_n +
//! row_pad·line`, `sx = py·sy`, where `row_pad` is the smallest value in
//! `0..8` that maximises the number of distinct L1 sets the 64 line
//! starts of a cell cover — a pure function of `(py, pz, line length)`
//! (4 → 52 sets for that table, for one line per 816-line row: +0.12 %
//! memory).
//! A fixed one-line pad would not do: it leaves `f32` N = 100 on a 6³
//! grid at 4 sets (`9·7 + 1 ≡ 0 mod 64`), where the search finds 52.
//!
//! What a row pad cannot fix: at lines of 4 KiB or more (`f32`
//! N ≥ 1024, `f64` N ≥ 512) a plane's four z-lines share one set
//! whatever the pad, and where `py` is a multiple of 32 (a 29³ or 61³
//! grid) the x-stride `py·sy` aliases for every `sy`.
//!
//! Every table — monolithic, AoSoA tiles, orbital blocks, the
//! down-cast table — gets its layout from [`TableLayout`] through
//! [`MultiCoefs::new`], and every byte count ([`MultiCoefs::bytes`],
//! [`table_bytes_in`], [`MultiCoefs::bytes_per_spline`],
//! [`block_splines_for_budget_in`]) derives from it.

use crate::aligned::{padded_len, AlignedVec, CACHE_LINE};
use crate::grid::Grid1;
use crate::real::Real;
use crate::solver1d::COEF_PAD;
use crate::spline3d::Spline3;
use rand::Rng;

/// Location of an evaluation point inside the table: lower-corner indices
/// plus fractional offsets.
#[derive(Clone, Copy, Debug)]
pub struct GridPoint<T> {
    /// I0.
    pub i0: usize,
    /// J0.
    pub j0: usize,
    /// K0.
    pub k0: usize,
    /// Tx.
    pub tx: T,
    /// Ty.
    pub ty: T,
    /// Tz.
    pub tz: T,
}

/// L1 data-cache sets the row pad spreads a cell over: 64 sets of
/// 64-byte lines, the 4 KiB set period of every x86 L1d.
const L1_SETS: usize = 64;

/// The row pad is searched in `0..ROW_PADS` cache lines.
const ROW_PADS: usize = 8;

/// Distinct L1 sets covered by the 64 line starts of one evaluation
/// cell, for rows of `pz` lines of `line` cache lines each followed by
/// `pad` cache lines, `py` rows per x-plane.
fn cell_sets(py: usize, pz: usize, line: usize, pad: usize) -> usize {
    // Everything mod the set period: the products stay small whatever
    // the table size.
    let sy = (pz % L1_SETS * (line % L1_SETS) + pad) % L1_SETS;
    let (sx, sz) = (py % L1_SETS * sy % L1_SETS, line % L1_SETS);
    let mut covered = [false; L1_SETS];
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                covered[(i * sx + j * sy + k * sz) % L1_SETS] = true;
            }
        }
    }
    covered.iter().filter(|&&c| c).count()
}

/// The smallest row pad in `0..ROW_PADS` cache lines that spreads one
/// evaluation cell over the most L1 sets (see the module docs).
fn row_pad(py: usize, pz: usize, line: usize) -> usize {
    let (mut best, mut most) = (0, cell_sets(py, pz, line, 0));
    for pad in 1..ROW_PADS {
        let sets = cell_sets(py, pz, line, pad);
        if sets > most {
            (best, most) = (pad, sets);
        }
    }
    best
}

/// The one coefficient-table layout: where each line of a table of
/// `n_splines` orbitals on a grid starts, and how large the table is.
/// Line `(ix, iy, iz)` starts at element `ix·sx + iy·sy + iz·stride_n`
/// with `stride_n = padded_len(n_splines)`, `sy = pz·stride_n` plus
/// `row_pad` cache lines, and `sx = py·sy` (`px, py, pz = grid + 3`; the
/// row pad is chosen as the module docs say). Pad elements are never
/// read by a kernel and stay zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableLayout {
    dims: (usize, usize, usize),
    stride_n: usize,
    row_pad: usize,
    sy: usize,
    sx: usize,
    len: usize,
    bytes: usize,
}

impl TableLayout {
    /// The layout of a table of `T` for `n_splines` orbitals on `grid`
    /// (intervals per dimension, before the 3-point wrap). Panics,
    /// naming the grid and N, if its size overflows `usize`: a wrapped
    /// product would silently size the allocation or a budget.
    pub fn new<T>(grid: (usize, usize, usize), n_splines: usize) -> Self {
        let checked = |v: Option<usize>| {
            v.unwrap_or_else(|| {
                panic!("coefficient table of N = {n_splines} on grid {grid:?} overflows usize")
            })
        };
        let (px, py, pz) = (
            checked(grid.0.checked_add(COEF_PAD)),
            checked(grid.1.checked_add(COEF_PAD)),
            checked(grid.2.checked_add(COEF_PAD)),
        );
        let quantum = padded_len::<T>(1);
        let stride_n = checked(n_splines.checked_next_multiple_of(quantum));
        let row_pad = row_pad(py, pz, stride_n / quantum);
        let sy = checked(
            pz.checked_mul(stride_n)
                .and_then(|row| row.checked_add(row_pad * quantum)),
        );
        let sx = checked(py.checked_mul(sy));
        let len = checked(px.checked_mul(sx));
        let bytes = checked(
            len.checked_mul(std::mem::size_of::<T>())
                .filter(|&b| b <= isize::MAX as usize),
        );
        Self {
            dims: (px, py, pz),
            stride_n,
            row_pad,
            sy,
            sx,
            len,
            bytes,
        }
    }

    /// Points per dimension, `grid + 3` each.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Elements per coefficient line: N padded to a whole cache line.
    #[inline]
    pub fn stride_n(&self) -> usize {
        self.stride_n
    }

    /// Cache lines of padding after each z-row.
    #[inline]
    pub fn row_pad(&self) -> usize {
        self.row_pad
    }

    /// Elements of one z-row and its pad: the y-stride.
    #[inline]
    pub fn row_len(&self) -> usize {
        self.sy
    }

    /// Element offset of line `(ix, iy, iz)`.
    #[inline(always)]
    pub fn offset(&self, ix: usize, iy: usize, iz: usize) -> usize {
        ix * self.sx + iy * self.sy + iz * self.stride_n
    }

    /// Bytes of the whole table, row pads included.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Multi-orbital tricubic B-spline coefficients, laid out by
/// [`TableLayout`]: line `(ix, iy, iz)` is `stride_n ≥ n_splines`
/// elements (a whole number of cache lines) at
/// [`MultiCoefs::line_offset`].
#[derive(Debug)]
pub struct MultiCoefs<T> {
    gx: Grid1,
    gy: Grid1,
    gz: Grid1,
    n_splines: usize,
    layout: TableLayout,
    data: AlignedVec<T>,
}

impl<T: Real> Clone for MultiCoefs<T> {
    fn clone(&self) -> Self {
        Self {
            gx: self.gx,
            gy: self.gy,
            gz: self.gz,
            n_splines: self.n_splines,
            layout: self.layout,
            data: self.data.clone(),
        }
    }
}

impl<T: Real> MultiCoefs<T> {
    /// Zero-initialized table for `n_splines` orbitals. Panics if the
    /// table's size overflows `usize` (see [`TableLayout::new`]).
    pub fn new(gx: Grid1, gy: Grid1, gz: Grid1, n_splines: usize) -> Self {
        assert!(n_splines > 0, "need at least one spline");
        let layout = TableLayout::new::<T>((gx.num(), gy.num(), gz.num()), n_splines);
        let data = AlignedVec::zeroed(layout.len);
        // Explicit-SIMD contract (bspline::simd): every coefficient line
        // must start on a cache-line boundary and span a whole number of
        // cache lines (= a multiple of the widest lane count), so the
        // lane kernels can consume full lines with no ragged tail. Both
        // hold by construction (the row pad is whole lines too); assert
        // so a future layout change cannot silently reintroduce
        // tail-handling cost in the AoSoA path.
        assert!(
            (layout.stride_n() * std::mem::size_of::<T>()).is_multiple_of(CACHE_LINE)
                && (layout.row_len() * std::mem::size_of::<T>()).is_multiple_of(CACHE_LINE),
            "spline stride and row must be padded to whole cache lines"
        );
        assert!(
            (data.as_ptr() as usize).is_multiple_of(CACHE_LINE),
            "coefficient table must be cache-line aligned"
        );
        Self {
            gx,
            gy,
            gz,
            n_splines,
            layout,
            data,
        }
    }

    /// Fill every coefficient with uniform random values in `[-0.5, 0.5)`
    /// — the miniQMC benchmarking path (kernel cost is independent of the
    /// coefficient values; see paper Fig. 3, L9). Values are drawn in
    /// `(ix, iy, iz, n)` order, so they do not depend on the row pad;
    /// padding lanes beyond `n_splines` and the row pads stay zero so
    /// padded output streams remain zero.
    pub fn fill_random<R: Rng>(&mut self, rng: &mut R) {
        let (n, stride, row_len) = (self.n_splines, self.stride_n(), self.layout.row_len());
        let lines = self.layout.dims().2 * stride;
        for row in self.data.as_mut_slice().chunks_exact_mut(row_len) {
            for line in row[..lines].chunks_exact_mut(stride) {
                for x in &mut line[..n] {
                    *x = T::from_f64(rng.random::<f64>() - 0.5);
                }
            }
        }
    }

    /// Copy a solved scalar spline into orbital slot `n`.
    ///
    /// Panics if the grids differ or `n` is out of range.
    pub fn set_orbital(&mut self, n: usize, s: &Spline3<T>) {
        assert!(n < self.n_splines, "orbital index out of range");
        let (sgx, sgy, sgz) = s.grids();
        assert_eq!(*sgx, self.gx, "x grid mismatch");
        assert_eq!(*sgy, self.gy, "y grid mismatch");
        assert_eq!(*sgz, self.gz, "z grid mismatch");
        let (px, py, pz) = s.padded_dims();
        for ix in 0..px {
            for iy in 0..py {
                for iz in 0..pz {
                    self.data[self.layout.offset(ix, iy, iz) + n] = s.coef(ix, iy, iz);
                }
            }
        }
    }

    #[inline]
    /// Number of orbitals N.
    pub fn n_splines(&self) -> usize {
        self.n_splines
    }

    /// Padded spline stride (innermost dimension length).
    #[inline]
    pub fn stride_n(&self) -> usize {
        self.layout.stride_n()
    }

    /// The table's layout.
    #[inline]
    pub fn layout(&self) -> &TableLayout {
        &self.layout
    }

    #[inline]
    /// Grids.
    pub fn grids(&self) -> (&Grid1, &Grid1, &Grid1) {
        (&self.gx, &self.gy, &self.gz)
    }

    /// `delta_inv` per dimension, in table precision.
    #[inline]
    pub fn delta_inv(&self) -> [T; 3] {
        [
            T::from_f64(self.gx.delta_inv()),
            T::from_f64(self.gy.delta_inv()),
            T::from_f64(self.gz.delta_inv()),
        ]
    }

    /// Total table footprint in bytes (the paper's `4·Ng·N` for f32,
    /// plus the row pads).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.layout.bytes()
    }

    /// Map a physical position to table indices + fractions.
    #[inline(always)]
    pub fn locate(&self, x: T, y: T, z: T) -> GridPoint<T> {
        let (i0, tx) = self.gx.locate(x);
        let (j0, ty) = self.gy.locate(y);
        let (k0, tz) = self.gz.locate(z);
        GridPoint {
            i0,
            j0,
            k0,
            tx,
            ty,
            tz,
        }
    }

    /// The contiguous coefficient line for grid point `(ix, iy, iz)`:
    /// `stride_n` values, 64-byte aligned.
    #[inline(always)]
    pub fn line(&self, ix: usize, iy: usize, iz: usize) -> &[T] {
        let off = self.line_offset(ix, iy, iz);
        &self.data.as_slice()[off..off + self.stride_n()]
    }

    /// The four consecutive z-lines `(ix, iy, iz..iz + 4)` as the one
    /// contiguous run they are in memory (`4·stride_n` values, line `k`
    /// at `k·stride_n`; a row pad only follows the last line of a row)
    /// — a tricubic evaluation's reads of one (i,j) plane, resolved with
    /// a single bounds check.
    #[inline(always)]
    pub fn z_run(&self, ix: usize, iy: usize, iz: usize) -> &[T] {
        let off = self.line_offset(ix, iy, iz);
        &self.data.as_slice()[off..off + 4 * self.stride_n()]
    }

    /// Flat element offset of a line ([`TableLayout::offset`]).
    #[inline(always)]
    pub fn line_offset(&self, ix: usize, iy: usize, iz: usize) -> usize {
        self.layout.offset(ix, iy, iz)
    }

    /// Extract the orbital range `[lo, hi)` into a standalone table — the
    /// AoSoA "tile" construction (paper Sec. V-B): the coefficient array
    /// is split along its innermost spline dimension.
    pub fn slice_splines(&self, lo: usize, hi: usize) -> Self {
        assert!(lo < hi && hi <= self.n_splines, "bad spline range");
        let mut out = Self::new(self.gx, self.gy, self.gz, hi - lo);
        let (px, py, pz) = self.layout.dims();
        for ix in 0..px {
            for iy in 0..py {
                for iz in 0..pz {
                    let src = self.line_offset(ix, iy, iz);
                    let dst = out.line_offset(ix, iy, iz);
                    out.data.as_mut_slice()[dst..dst + (hi - lo)]
                        .copy_from_slice(&self.data.as_slice()[src + lo..src + hi]);
                }
            }
        }
        out
    }

    /// Down-convert a solved double-precision table to single-precision
    /// storage — the paper's production configuration (and QMCPACK's
    /// `--enable-mixed-precision`): coefficients are *solved* in `f64`
    /// ([`crate::solver1d`] is f64-native) and *stored* in `f32`,
    /// halving the memory-bandwidth cost that dominates V/VGL/VGH.
    ///
    /// Every structural invariant is re-established for the narrower
    /// element type: the spline stride is re-padded to a whole cache
    /// line of `f32` (16 lanes, not the f64 table's 8), the row pad is
    /// chosen for the `f32` line length, the allocation is 64-byte
    /// aligned, and padding lanes beyond `n_splines` stay zero. Each
    /// stored coefficient rounds once (≤ 0.5 ulp ≈ 6e-8 relative); the
    /// evaluation-side consequences are documented and tested against
    /// `bspline::precision::F32_REL_ERROR_BUDGET`.
    pub fn downcast(&self) -> MultiCoefs<f32>
    where
        T: Real<Accum = f64>,
    {
        let mut out = MultiCoefs::<f32>::new(self.gx, self.gy, self.gz, self.n_splines);
        let (px, py, pz) = self.layout.dims();
        for ix in 0..px {
            for iy in 0..py {
                for iz in 0..pz {
                    let src = self.line_offset(ix, iy, iz);
                    let dst = out.line_offset(ix, iy, iz);
                    let src_line = &self.data.as_slice()[src..src + self.n_splines];
                    let dst_line = &mut out.data.as_mut_slice()[dst..dst + self.n_splines];
                    for (d, s) in dst_line.iter_mut().zip(src_line) {
                        *d = s.to_accum() as f32;
                    }
                }
            }
        }
        out
    }

    /// Split into `ceil(N / nb)` tiles of (at most) `nb` splines each.
    pub fn split_tiles(&self, nb: usize) -> Vec<Self> {
        assert!(nb > 0);
        (0..self.n_splines)
            .step_by(nb)
            .map(|lo| self.slice_splines(lo, (lo + nb).min(self.n_splines)))
            .collect()
    }

    /// Bytes per spline of the narrowest block, one cache-line quantum
    /// wide (16 `f32` / 8 `f64` splines), row pads included: a budget of
    /// `quantum · bytes_per_spline()` fits a one-quantum block. Wider
    /// blocks are not linear in it (their row pad is chosen for their
    /// own line length); [`Self::block_splines_for_budget`] sizes them
    /// from the layout itself.
    pub fn bytes_per_spline(&self) -> usize {
        let (gx, gy, gz) = self.grids();
        let quantum = padded_len::<T>(1);
        table_bytes_in::<T>((gx.num(), gy.num(), gz.num()), quantum) / quantum
    }

    /// The widest block (spline count) whose standalone coefficient slab
    /// fits in `budget_bytes`, quantized to the cache-line padding unit
    /// so per-block tables carry no padding waste and block boundaries
    /// in a contiguous output stream stay 64-byte aligned. Never less
    /// than one quantum (a block cannot be narrower than its padded
    /// stride), never more than N.
    pub fn block_splines_for_budget(&self, budget_bytes: usize) -> usize {
        block_splines_for_budget_in::<T>(
            (self.gx.num(), self.gy.num(), self.gz.num()),
            self.n_splines,
            budget_bytes,
        )
    }
}

/// Table-free twin of [`MultiCoefs::block_splines_for_budget`]: the
/// block width the decomposition picks for a table of `n_splines`
/// orbitals on a `grid` (intervals per dimension, pre-padding) under
/// `budget_bytes` — for model/bench code that must agree with the
/// engine's sizing without allocating a (possibly gigabyte-scale)
/// table. Delegated to by the method, so the two cannot drift.
pub fn block_splines_for_budget_in<T>(
    grid: (usize, usize, usize),
    n_splines: usize,
    budget_bytes: usize,
) -> usize {
    let quantum = padded_len::<T>(1);
    let n = n_splines.max(1);
    let width = |quanta: usize| (quanta * quantum).min(n);
    // The row pad makes a table's size non-linear in its width, so scan
    // down from N for the widest that fits. Floor at one quantum, cap at
    // N (which may itself be below a quantum for tiny tables — N wins
    // then: one block).
    (1..=n.div_ceil(quantum))
        .rev()
        .map(width)
        .find(|&w| table_bytes_in::<T>(grid, w) <= budget_bytes)
        .unwrap_or(width(1))
}

/// Table-free twin of [`MultiCoefs::bytes`]: the coefficient-table
/// footprint (padded stride and row pads included) a table of
/// `n_splines` orbitals on `grid` would occupy — for model/bench code
/// sizing budgets without allocating the table. Panics if it overflows
/// `usize` (see [`TableLayout::new`]).
pub fn table_bytes_in<T>(grid: (usize, usize, usize), n_splines: usize) -> usize {
    TableLayout::new::<T>(grid, n_splines).bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_grids() -> (Grid1, Grid1, Grid1) {
        (
            Grid1::periodic(0.0, 1.0, 6),
            Grid1::periodic(0.0, 1.0, 6),
            Grid1::periodic(0.0, 1.0, 8),
        )
    }

    #[test]
    fn stride_is_padded_and_aligned() {
        let (gx, gy, gz) = small_grids();
        let m = MultiCoefs::<f32>::new(gx, gy, gz, 100);
        assert_eq!(m.stride_n(), 112); // 100 -> 7 cache lines of 16 f32
        assert_eq!(m.n_splines(), 100);
        let line = m.line(3, 2, 1);
        assert_eq!(line.len(), 112);
        assert_eq!(line.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn every_line_is_aligned() {
        let (gx, gy, gz) = small_grids();
        let m = MultiCoefs::<f32>::new(gx, gy, gz, 48);
        for ix in 0..9 {
            for iy in 0..9 {
                for iz in 0..11 {
                    assert_eq!(m.line(ix, iy, iz).as_ptr() as usize % 64, 0);
                }
            }
        }
    }

    #[test]
    fn set_orbital_scatter_gather_roundtrip() {
        let (gx, gy, gz) = small_grids();
        let mut data = vec![0.0f64; 6 * 6 * 8];
        for (i, d) in data.iter_mut().enumerate() {
            *d = (i as f64 * 0.37).sin();
        }
        let s = Spline3::<f32>::interpolate(gx, gy, gz, &data);
        let mut m = MultiCoefs::<f32>::new(gx, gy, gz, 4);
        m.set_orbital(2, &s);
        // The scattered coefficients land in slot 2 of each line.
        for ix in 0..4 {
            for iy in 0..4 {
                for iz in 0..4 {
                    assert_eq!(m.line(ix, iy, iz)[2], s.coef(ix, iy, iz));
                    assert_eq!(m.line(ix, iy, iz)[1], 0.0);
                }
            }
        }
    }

    #[test]
    fn locate_agrees_with_grids() {
        let (gx, gy, gz) = small_grids();
        let m = MultiCoefs::<f32>::new(gx, gy, gz, 8);
        let p = m.locate(0.52f32, 0.17, 0.93);
        let (i0, tx): (usize, f32) = gx.locate(0.52f32);
        assert_eq!(p.i0, i0);
        assert_eq!(p.tx, tx);
        assert!(p.k0 < 8);
        let _ = (p.j0, p.ty, p.tz);
    }

    #[test]
    fn split_tiles_partitions_coefficients() {
        let (gx, gy, gz) = small_grids();
        let mut m = MultiCoefs::<f32>::new(gx, gy, gz, 64);
        let mut rng = StdRng::seed_from_u64(7);
        m.fill_random(&mut rng);
        let tiles = m.split_tiles(16);
        assert_eq!(tiles.len(), 4);
        for (t, tile) in tiles.iter().enumerate() {
            assert_eq!(tile.n_splines(), 16);
            for ix in [0usize, 5] {
                for iy in [1usize, 7] {
                    for iz in [0usize, 9] {
                        let full = m.line(ix, iy, iz);
                        let part = tile.line(ix, iy, iz);
                        assert_eq!(&full[t * 16..(t + 1) * 16], &part[..16]);
                    }
                }
            }
        }
    }

    #[test]
    fn split_tiles_handles_remainder() {
        let (gx, gy, gz) = small_grids();
        let m = MultiCoefs::<f32>::new(gx, gy, gz, 40);
        let tiles = m.split_tiles(16);
        assert_eq!(tiles.len(), 3);
        assert_eq!(tiles[2].n_splines(), 8);
    }

    #[test]
    fn downcast_rounds_once_and_repads_for_f32() {
        let (gx, gy, gz) = small_grids();
        let mut wide = MultiCoefs::<f64>::new(gx, gy, gz, 20);
        wide.fill_random(&mut StdRng::seed_from_u64(5));
        let narrow = wide.downcast();
        assert_eq!(narrow.n_splines(), 20);
        // The f64 table pads 20 -> 24 (8 per line); the f32 table must
        // re-pad to its own cache-line quantum (16 per line -> 32).
        assert_eq!(wide.stride_n(), 24);
        assert_eq!(narrow.stride_n(), 32);
        for ix in [0usize, 4, 8] {
            for iy in [1usize, 7] {
                for iz in [0usize, 10] {
                    let w = wide.line(ix, iy, iz);
                    let n = narrow.line(ix, iy, iz);
                    assert_eq!(n.as_ptr() as usize % 64, 0);
                    for k in 0..20 {
                        // Exactly one correct rounding per coefficient.
                        assert_eq!(n[k], w[k] as f32, "ix={ix} iy={iy} iz={iz} k={k}");
                    }
                    // Padding lanes stay zero in the narrowed table.
                    for k in 20..32 {
                        assert_eq!(n[k], 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn bytes_accounts_padding() {
        let (gx, gy, gz) = small_grids();
        let m = MultiCoefs::<f32>::new(gx, gy, gz, 16);
        // (6+3)(6+3)(8+3) lines of 16 f32; one-line rows of 11 already
        // cover 52 sets, so no row pad.
        assert_eq!(m.layout().row_pad(), 0);
        assert_eq!(m.bytes(), 9 * 9 * 11 * 16 * 4);
        // Four-line rows of 11 alias (4 sets); one line of pad per row.
        let m = MultiCoefs::<f32>::new(gx, gy, gz, 64);
        assert_eq!(m.layout().row_pad(), 1);
        assert_eq!(m.bytes(), 9 * 9 * (11 * 64 + 16) * 4);
    }

    /// The grids and orbital counts the layout tests sweep.
    const SWEEP_GRIDS: [(usize, usize, usize); 3] = [(6, 6, 6), (17, 9, 11), (48, 48, 48)];
    const SWEEP_N: [usize; 6] = [1, 16, 100, 128, 256, 512];

    /// Distinct L1 sets of the 64 line starts of the cell at the origin,
    /// from the layout's own offsets.
    fn sets_of<T>(layout: &TableLayout) -> usize {
        let mut sets = std::collections::BTreeSet::new();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let byte = layout.offset(i, j, k) * std::mem::size_of::<T>();
                    sets.insert(byte / CACHE_LINE % L1_SETS);
                }
            }
        }
        sets.len()
    }

    fn check_row_pad<T>() {
        for grid in SWEEP_GRIDS {
            for n in SWEEP_N {
                let layout = TableLayout::new::<T>(grid, n);
                let (_, py, pz) = layout.dims();
                let line = layout.stride_n() * std::mem::size_of::<T>() / CACHE_LINE;
                let sets = sets_of::<T>(&layout);
                let at = format!("{} B, N = {n}, grid {grid:?}", std::mem::size_of::<T>());
                assert_eq!(sets, cell_sets(py, pz, line, layout.row_pad()), "{at}");
                assert!(
                    sets >= cell_sets(py, pz, line, 0),
                    "{at}: worse than no pad"
                );
                if line * CACHE_LINE < 4096 {
                    assert!(sets >= 24, "{at}: {sets} sets");
                }
                // The pad is the smallest of the best.
                for pad in 0..layout.row_pad() {
                    assert!(cell_sets(py, pz, line, pad) < sets, "{at}: pad {pad}");
                }
            }
        }
    }

    #[test]
    fn row_pad_spreads_a_cell_over_the_l1_sets() {
        check_row_pad::<f32>();
        check_row_pad::<f64>();
        // The bench table: 1 KiB lines on 51-point rows share 4 sets
        // unpadded, one line of pad per row spreads them over 52.
        let bench = TableLayout::new::<f32>((48, 48, 48), 256);
        assert_eq!(cell_sets(51, 51, 16, 0), 4);
        assert_eq!((bench.row_pad(), sets_of::<f32>(&bench)), (1, 52));
        // Where a fixed one-line pad fails: 7-line rows of 9 plus one
        // line are 64 lines, so every row starts in the same set.
        let small = TableLayout::new::<f32>((6, 6, 6), 100);
        assert_eq!(cell_sets(9, 9, 7, 1), 4);
        assert!(sets_of::<f32>(&small) >= 24);
    }

    #[test]
    fn table_bytes_in_matches_the_allocated_table() {
        for (gx, gy, gz) in SWEEP_GRIDS {
            let g = |n| Grid1::periodic(0.0, 1.0, n);
            for n in SWEEP_N {
                assert_eq!(
                    table_bytes_in::<f32>((gx, gy, gz), n),
                    MultiCoefs::<f32>::new(g(gx), g(gy), g(gz), n).bytes(),
                    "f32 N = {n} grid {gx}x{gy}x{gz}"
                );
                assert_eq!(
                    table_bytes_in::<f64>((gx, gy, gz), n),
                    MultiCoefs::<f64>::new(g(gx), g(gy), g(gz), n).bytes(),
                    "f64 N = {n} grid {gx}x{gy}x{gz}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "N = 256 on grid (1152921504606846976, 8, 8) overflows usize")]
    fn table_bytes_in_rejects_a_table_larger_than_memory() {
        let _ = table_bytes_in::<f32>((1 << 60, 8, 8), 256);
    }

    #[test]
    #[should_panic(expected = "N = 16 on grid (2097152, 2097152, 2097152) overflows usize")]
    fn new_rejects_a_table_larger_than_memory() {
        let g = Grid1::periodic(0.0, 1.0, 1 << 21);
        let _ = MultiCoefs::<f32>::new(g, g, g, 16);
    }

    /// Every point `(ix, iy, iz)` of a padded grid of `dims` points, in
    /// memory order.
    fn grid_points(dims: (usize, usize, usize)) -> impl Iterator<Item = (usize, usize, usize)> {
        let (px, py, pz) = dims;
        (0..px).flat_map(move |ix| (0..py).flat_map(move |iy| (0..pz).map(move |iz| (ix, iy, iz))))
    }

    /// Whether every element outside a line's first `n_splines` lanes —
    /// lane padding and row pads — is zero.
    fn pads_are_zero<T: Real>(m: &MultiCoefs<T>) -> bool {
        let mut payload = vec![false; m.data.len()];
        for (ix, iy, iz) in grid_points(m.layout.dims()) {
            let at = m.line_offset(ix, iy, iz);
            payload[at..at + m.n_splines()].fill(true);
        }
        m.data
            .iter()
            .zip(&payload)
            .all(|(x, &p)| p || *x == T::ZERO)
    }

    /// `fill_random` on a table with row pads draws exactly what a
    /// walk in `(ix, iy, iz, n)` order draws, and pads nothing.
    fn check_fill_random<T: Real>(grid: (usize, usize, usize), n: usize) {
        let g = |k| Grid1::periodic(0.0, 1.0, k);
        let mut m = MultiCoefs::<T>::new(g(grid.0), g(grid.1), g(grid.2), n);
        assert!(m.layout().row_pad() > 0, "the case must have row pads");
        m.fill_random(&mut StdRng::seed_from_u64(17));
        let mut rng = StdRng::seed_from_u64(17);
        for (ix, iy, iz) in grid_points(m.layout().dims()) {
            for k in 0..n {
                let want = T::from_f64(rng.random::<f64>() - 0.5);
                assert_eq!(m.line(ix, iy, iz)[k], want, "({ix}, {iy}, {iz}) lane {k}");
            }
        }
        assert!(pads_are_zero(&m));
    }

    #[test]
    fn fill_random_draws_in_grid_order_and_leaves_pads_zero() {
        check_fill_random::<f32>((6, 6, 6), 100);
        check_fill_random::<f64>((17, 9, 11), 20);
    }

    #[test]
    fn derived_tables_keep_pads_zero() {
        let g = Grid1::periodic(0.0, 1.0, 6);
        let mut wide = MultiCoefs::<f64>::new(g, g, g, 100);
        wide.fill_random(&mut StdRng::seed_from_u64(4));
        let narrow = wide.downcast();
        assert!(narrow.layout().row_pad() > 0 && wide.layout().row_pad() > 0);
        assert!(pads_are_zero(&narrow));
        assert!(pads_are_zero(&wide.slice_splines(3, 70)));
        let tiles = narrow.split_tiles(32);
        assert!(tiles.len() > 1);
        assert!(tiles.iter().all(pads_are_zero));
    }

    #[test]
    fn fill_random_is_deterministic_per_seed() {
        let (gx, gy, gz) = small_grids();
        let mut a = MultiCoefs::<f32>::new(gx, gy, gz, 8);
        let mut b = MultiCoefs::<f32>::new(gx, gy, gz, 8);
        a.fill_random(&mut StdRng::seed_from_u64(42));
        b.fill_random(&mut StdRng::seed_from_u64(42));
        assert_eq!(a.line(1, 2, 3), b.line(1, 2, 3));
    }

    #[test]
    fn block_budget_quantizes_and_clamps() {
        let (gx, gy, gz) = small_grids();
        let m = MultiCoefs::<f32>::new(gx, gy, gz, 100);
        // 9·9·11 grid points · 4 B = 3564 B per spline column.
        assert_eq!(m.bytes_per_spline(), 9 * 9 * 11 * 4);
        // One f32 quantum is 16 splines = 57024 B; a budget below that
        // still yields one quantum (a block cannot be narrower than its
        // padded stride).
        assert_eq!(m.block_splines_for_budget(1), 16);
        // Room for 2 quanta and a bit: floors to the quantum multiple.
        // Two-line rows of 11 take a one-line row pad, so two quanta
        // cost more than twice one.
        let two = table_bytes_in::<f32>((6, 6, 8), 32);
        assert_eq!(two, 9 * 9 * (11 * 32 + 16) * 4);
        assert_eq!(m.block_splines_for_budget(two + 100), 32);
        assert_eq!(m.block_splines_for_budget(two - 1), 16);
        // A huge budget clamps to N.
        assert_eq!(m.block_splines_for_budget(usize::MAX / 2), 100);
        // The table-free twin agrees with the method for every case
        // above (it is the delegation target; assert the public
        // contract anyway).
        for budget in [1usize, two - 1, two + 100, usize::MAX / 2] {
            assert_eq!(
                block_splines_for_budget_in::<f32>((6, 6, 8), 100, budget),
                m.block_splines_for_budget(budget),
                "budget={budget}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "orbital index")]
    fn set_orbital_rejects_out_of_range() {
        let (gx, gy, gz) = small_grids();
        let data = vec![0.0f64; 6 * 6 * 8];
        let s = Spline3::<f32>::interpolate(gx, gy, gz, &data);
        let mut m = MultiCoefs::<f32>::new(gx, gy, gz, 2);
        m.set_orbital(2, &s);
    }
}
