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
use crate::grid::{Boundary, Grid1};
use crate::real::Real;
use crate::solver1d::{PeriodicFactor, COEF_PAD};
use crate::spline3d::Spline3;
use rand::rngs::{step_lanes, StdRng};
use rand::Rng;
use std::any::Any;
use std::sync::Arc;

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

    /// Coefficient lines, `px·py·pz`.
    fn lines(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Element offset of the `q`-th line in `(ix, iy, iz)` order.
    #[inline(always)]
    fn line_start(&self, q: usize) -> usize {
        q / self.dims.2 * self.sy + q % self.dims.2 * self.stride_n
    }
}

/// Multi-orbital tricubic B-spline coefficients, laid out by
/// [`TableLayout`]: line `(ix, iy, iz)` is `stride_n ≥ n_splines`
/// elements (a whole number of cache lines) at
/// [`MultiCoefs::line_offset`].
///
/// The coefficients are shared copy-on-write: `clone` (and a
/// whole-range [`MultiCoefs::slice_splines`]) bumps a reference count
/// and shares the one read-only table, as the paper shares one table
/// among every thread of a node. The first write through a shared
/// handle ([`MultiCoefs::fill_random`], [`MultiCoefs::set_orbital`])
/// copies the table first, so a clone still behaves as a value.
#[derive(Clone, Debug)]
pub struct MultiCoefs<T> {
    gx: Grid1,
    gy: Grid1,
    gz: Grid1,
    n_splines: usize,
    layout: TableLayout,
    data: Arc<AlignedVec<T>>,
}

impl<T: Real> MultiCoefs<T> {
    /// Zero-initialized table for `n_splines` orbitals. Panics if the
    /// table's size overflows `usize` (see [`TableLayout::new`]).
    ///
    /// The table is one [`AlignedVec::zeroed`] allocation, so a table of
    /// at least [`HUGE_ADVICE_MIN_BYTES`](crate::aligned::HUGE_ADVICE_MIN_BYTES)
    /// (such as 48³ points × 256 `f32` orbitals, 136 MB) is advised for
    /// 2 MiB pages before it is zeroed: on Linux with transparent huge
    /// pages in `madvise` mode, zeroing it faults in about 68 huge pages
    /// instead of about 33 k base pages. The values are the same either
    /// way.
    pub fn new(gx: Grid1, gy: Grid1, gz: Grid1, n_splines: usize) -> Self {
        assert!(n_splines > 0, "need at least one spline");
        let layout = TableLayout::new::<T>((gx.num(), gy.num(), gz.num()), n_splines);
        let data = Arc::new(AlignedVec::zeroed(layout.len));
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

    /// The interpolating table of `n_splines` orbitals on periodic
    /// grids: `samples(n, f)` writes orbital `n`'s `nx·ny·nz` samples
    /// into `f` (z fastest, every entry; `f` holds the previous
    /// orbital's on entry), called once per orbital in order `0..N`.
    ///
    /// Equal bit for bit, pads included, to [`Spline3::interpolate`]
    /// of each orbital's samples copied in by [`Self::set_orbital`],
    /// without a `Spline3` per orbital: each orbital's samples are
    /// written into the lines `(1..=nx, 1..=ny, 1..=nz)` of an `f64`
    /// table, and the three passes of the tensor-product solve run in
    /// place across the orbital-fastest lines with `solver1d`'s
    /// factored periodic solve: along x with the `ix`-slabs as rows,
    /// along y with the z-runs, along z with the lines, each across
    /// every lane of the other two axes and every orbital — the same
    /// lines `Spline3` solves, in the same order. Lane and row pads are
    /// zero and stay zero. A table of `f32` is solved in `f64` and
    /// narrowed by [`MultiCoefs::downcast`], which rounds each
    /// coefficient as `Spline3::<f32>` does.
    ///
    /// Panics unless every grid is periodic.
    pub fn interpolate(
        gx: Grid1,
        gy: Grid1,
        gz: Grid1,
        n_splines: usize,
        mut samples: impl FnMut(usize, &mut [f64]),
    ) -> Self {
        assert!(
            [gx, gy, gz]
                .iter()
                .all(|g| g.boundary() == Boundary::Periodic),
            "the table solve takes periodic grids only"
        );
        let mut table = MultiCoefs::<f64>::new(gx, gy, gz, n_splines);
        let (layout, (nx, ny, nz)) = (table.layout, (gx.num(), gy.num(), gz.num()));
        let (px, py, _) = layout.dims();
        let (stride, sy, sx) = (layout.stride_n, layout.sy, layout.sx);
        let data = Arc::make_mut(&mut table.data).as_mut_slice();
        let mut f = vec![0.0f64; nx * ny * nz];
        for n in 0..n_splines {
            samples(n, &mut f);
            for (at, row) in f.chunks_exact(nz).enumerate() {
                let line = layout.offset(at / ny + 1, at % ny + 1, 1) + n;
                for (iz, &v) in row.iter().enumerate() {
                    data[line + iz * stride] = v;
                }
            }
        }
        // The sampled lanes of a z-run: lines 1..=nz.
        let run = nz * stride;
        let along_x = PeriodicFactor::new(nx);
        for iy in 1..=ny {
            along_x.solve_lanes(&mut data[layout.offset(0, iy, 1)..], run, sx);
        }
        let along_y = PeriodicFactor::new(ny);
        for ix in 0..px {
            along_y.solve_lanes(&mut data[layout.offset(ix, 0, 1)..], run, sy);
        }
        let along_z = PeriodicFactor::new(nz);
        for ix in 0..px {
            for iy in 0..py {
                along_z.solve_lanes(&mut data[layout.offset(ix, iy, 0)..], stride, stride);
            }
        }
        in_precision(table)
    }

    /// Fill every coefficient with uniform random values in `[-0.5, 0.5)`
    /// — the miniQMC benchmarking path (kernel cost is independent of the
    /// coefficient values; see paper Fig. 3, L9).
    ///
    /// The stream contract: values are drawn in `(ix, iy, iz, n)` order,
    /// one `rng.random::<f64>() − 0.5` each, rounded to `T`, so they do
    /// not depend on the row pad, and `rng` is left where that serial
    /// walk leaves it. Padding lanes beyond `n_splines` and the row pads
    /// stay zero so padded output streams remain zero.
    ///
    /// On an x86-64 host with AVX-512F and AVX-512DQ (detected at run
    /// time) the walk runs as 16 lanes: the payload lines are split into
    /// 16 runs of equal length, each lane starts at its run's first draw
    /// by [`StdRng::advance`], all lanes step together through
    /// xoshiro256**'s transition ([`rand::rngs::step_lanes`]), and each
    /// lane stages 16 draws before storing them as whole cache lines.
    /// The last few lines (fewer than 16) and every other host take the
    /// serial walk: without AVX-512 the lane walk is slower than the
    /// serial one (measured in `fill_lanes_avx512`'s doc). The bits are
    /// the same either way. The choice is the host's alone; `bspline`'s
    /// `QMC_SIMD` does not reach it.
    ///
    /// A table whose storage is shared (a clone) gets fresh zeroed
    /// storage instead of a copy of the values it is about to overwrite.
    pub fn fill_random(&mut self, rng: &mut StdRng) {
        let (layout, n) = (self.layout, self.n_splines);
        if Arc::get_mut(&mut self.data).is_none() {
            self.data = Arc::new(AlignedVec::zeroed(layout.len));
        }
        let data = Arc::get_mut(&mut self.data)
            .expect("storage was just unshared")
            .as_mut_slice();
        #[cfg(target_arch = "x86_64")]
        if avx512_fill() {
            // SAFETY: `avx512_fill` detected both features
            // `fill_lanes_avx512` enables on this host.
            return unsafe { fill_lanes_avx512(data, &layout, n, rng) };
        }
        fill_lines(data, &layout, n, rng, 0..layout.lines());
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
        let data = Arc::make_mut(&mut self.data);
        for ix in 0..px {
            for iy in 0..py {
                for iz in 0..pz {
                    data[self.layout.offset(ix, iy, iz) + n] = s.coef(ix, iy, iz);
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
    /// is split along its innermost spline dimension. The whole range
    /// `[0, N)` has this table's layout, so it is this table: a clone
    /// that shares the storage and copies nothing.
    pub fn slice_splines(&self, lo: usize, hi: usize) -> Self {
        assert!(lo < hi && hi <= self.n_splines, "bad spline range");
        if (lo, hi) == (0, self.n_splines) {
            return self.clone();
        }
        let mut out = Self::new(self.gx, self.gy, self.gz, hi - lo);
        let (px, py, pz) = self.layout.dims();
        let dst_data = Arc::make_mut(&mut out.data).as_mut_slice();
        for ix in 0..px {
            for iy in 0..py {
                for iz in 0..pz {
                    let src = self.line_offset(ix, iy, iz);
                    let dst = out.layout.offset(ix, iy, iz);
                    dst_data[dst..dst + (hi - lo)]
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
    pub fn downcast(&self) -> MultiCoefs<f32> {
        let mut out = MultiCoefs::<f32>::new(self.gx, self.gy, self.gz, self.n_splines);
        let (px, py, pz) = self.layout.dims();
        let dst_data = Arc::make_mut(&mut out.data).as_mut_slice();
        for ix in 0..px {
            for iy in 0..py {
                for iz in 0..pz {
                    let src = self.line_offset(ix, iy, iz);
                    let dst = out.layout.offset(ix, iy, iz);
                    let src_line = &self.data.as_slice()[src..src + self.n_splines];
                    let dst_line = &mut dst_data[dst..dst + self.n_splines];
                    for (d, s) in dst_line.iter_mut().zip(src_line) {
                        *d = s.to_f64() as f32;
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

/// One draw of the lane walk as `T`, from the raw output `u`. It must
/// equal the serial walk's `rng.random::<f64>() − 0.5`, so it repeats
/// the `rand` stub's `Standard for f64` rule (the top 53 bits over 2⁵³);
/// the fill tests compare the two.
#[inline(always)]
fn coefficient<T: Real>(u: u64) -> T {
    T::from_f64((u >> 11) as f64 * (1.0 / (1u64 << 53) as f64) - 0.5)
}

/// The serial walk over the lines `lines` (in `(ix, iy, iz)` order) of
/// a table laid out by `layout`: `n` draws into each line's first `n`
/// elements.
fn fill_lines<T: Real>(
    data: &mut [T],
    layout: &TableLayout,
    n: usize,
    rng: &mut StdRng,
    lines: std::ops::Range<usize>,
) {
    for q in lines {
        let at = layout.line_start(q);
        for x in &mut data[at..at + n] {
            *x = T::from_f64(rng.random::<f64>() - 0.5);
        }
    }
}

/// Draws a lane of [`fill_lanes`] stages before it stores them: one
/// cache line of `f32`, two of `f64`.
const STAGE: usize = 16;

/// The serial walk over every line as `L` lanes (see
/// [`MultiCoefs::fill_random`]): lane `l` fills lines
/// `l·run..(l + 1)·run`, `run = lines / L`, and the serial walk fills the
/// rest from where lane `L − 1` stops. Plain code that vectorizes across
/// lanes wherever it is instantiated.
#[inline(always)]
fn fill_lanes<T: Real, const L: usize>(
    data: &mut [T],
    layout: &TableLayout,
    n: usize,
    rng: &mut StdRng,
) {
    let lines = layout.lines();
    let run = lines / L;
    let mut s = [[0u64; L]; 4];
    let mut lane = rng.clone();
    for l in 0..L {
        if l > 0 {
            lane.advance((run * n) as u128);
        }
        for (w, word) in lane.state().into_iter().enumerate() {
            s[w][l] = word;
        }
    }
    let mut stage = [[T::ZERO; L]; STAGE];
    for j in 0..run {
        let at: [usize; L] = std::array::from_fn(|l| layout.line_start(l * run + j));
        for c in (0..n).step_by(STAGE) {
            let m = STAGE.min(n - c);
            for row in &mut stage[..m] {
                let u = step_lanes(&mut s);
                for (x, u) in row.iter_mut().zip(u) {
                    *x = coefficient(u);
                }
            }
            for (l, &at) in at.iter().enumerate() {
                for (x, row) in data[at + c..at + c + m].iter_mut().zip(&stage) {
                    *x = row[l];
                }
            }
        }
    }
    *rng = StdRng::from_state(s.map(|word| word[L - 1]));
    fill_lines(data, layout, n, rng, L * run..lines);
}

/// Whether this host has the features [`fill_lanes_avx512`] enables.
#[cfg(target_arch = "x86_64")]
fn avx512_fill() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
}

/// [`fill_lanes`] with 16 lanes where AVX-512F+DQ convert the draws:
/// the lane step runs on 512-bit registers and `vcvtqq2pd` turns each
/// `u >> 11` into its `f64` exactly.
///
/// The target features are what make the lanes pay. On the 48³ × 256
/// `f32` table (2-vCPU AVX-512 x86-64 guest, three rounds of 7
/// alternating fills), this body took 26–36 ms, the serial walk
/// 62–91 ms, and the same walk built for the baseline x86-64 target
/// 78–126 ms at 16 lanes (75–135 ms at 8), slower than the serial walk
/// in every round: without 64-bit vector conversions the lanes cost
/// more than they save.
///
/// # Safety
/// The host must support `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn fill_lanes_avx512<T: Real>(data: &mut [T], layout: &TableLayout, n: usize, rng: &mut StdRng) {
    fill_lanes::<T, 16>(data, layout, n, rng)
}

/// `table` as a table of `T`: itself for `f64`, [`MultiCoefs::downcast`]
/// for `f32`.
fn in_precision<T: Real>(table: MultiCoefs<f64>) -> MultiCoefs<T> {
    let narrow: Box<dyn Any> = match (Box::new(table) as Box<dyn Any>).downcast() {
        Ok(same) => return *same,
        Err(wide) => Box::new(
            wide.downcast::<MultiCoefs<f64>>()
                .expect("an f64 table")
                .downcast(),
        ),
    };
    *narrow.downcast().expect("a `Real` is f32 or f64")
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

    /// A body of [`MultiCoefs::fill_random`]: fills `data`, laid out by
    /// the layout with `n` orbitals, and steps the generator.
    type FillBody<T> = fn(&mut [T], &TableLayout, usize, &mut StdRng);

    /// Every fill body this host can run, named: the serial walk, the
    /// lane walk instantiated without target features at 8 and 16 lanes
    /// and at 128 (more lanes than the smallest table has lines), and the
    /// AVX-512 body when the host has it. The names of the bodies it
    /// cannot run are printed.
    fn fill_bodies<T: Real>() -> Vec<(&'static str, FillBody<T>)> {
        let mut bodies: Vec<(&'static str, FillBody<T>)> = vec![
            ("serial", |d, l, n, r| fill_lines(d, l, n, r, 0..l.lines())),
            ("8 lanes, portable", fill_lanes::<T, 8>),
            ("16 lanes, portable", fill_lanes::<T, 16>),
            ("128 lanes, portable", fill_lanes::<T, 128>),
        ];
        #[cfg(target_arch = "x86_64")]
        if avx512_fill() {
            bodies.push(("16 lanes, AVX-512", |d, l, n, r| {
                // SAFETY: `avx512_fill` detected the features just above.
                unsafe { fill_lanes_avx512(d, l, n, r) }
            }));
            return bodies;
        }
        println!("fill body skipped on this host: 16 lanes, AVX-512");
        bodies
    }

    /// Every fill body, and `fill_random` itself, equals a serial walk in
    /// `(ix, iy, iz, n)` order over the whole allocation, pads included
    /// (they stay zero), and leaves the generator where that walk does.
    /// Returns whether the table has row pads.
    fn check_fill_random<T: Real>(grid: (usize, usize, usize), n: usize) -> bool {
        let g = |k| Grid1::periodic(0.0, 1.0, k);
        let at = format!("{} B, N = {n}, grid {grid:?}", std::mem::size_of::<T>());
        let m = MultiCoefs::<T>::new(g(grid.0), g(grid.1), g(grid.2), n);
        let mut want = vec![T::ZERO; m.data.len()];
        let mut rng = StdRng::seed_from_u64(17);
        for (ix, iy, iz) in grid_points(m.layout().dims()) {
            let line = m.line_offset(ix, iy, iz);
            for x in &mut want[line..line + n] {
                *x = T::from_f64(rng.random::<f64>() - 0.5);
            }
        }
        let next = rng.random::<u64>();
        let check = |name: &str, got: &MultiCoefs<T>, mut rng: StdRng| {
            assert!(got.data.iter().eq(&want), "{name}, {at}: values differ");
            assert!(pads_are_zero(got), "{name}, {at}: a pad is not zero");
            assert_eq!(rng.random::<u64>(), next, "{name}, {at}: generator");
        };
        let fresh = || MultiCoefs::<T>::new(g(grid.0), g(grid.1), g(grid.2), n);
        for (name, body) in fill_bodies::<T>() {
            let (mut got, mut rng) = (fresh(), StdRng::seed_from_u64(17));
            let data = Arc::make_mut(&mut got.data).as_mut_slice();
            body(data, m.layout(), n, &mut rng);
            check(name, &got, rng);
        }
        let (mut got, mut rng) = (fresh(), StdRng::seed_from_u64(17));
        got.fill_random(&mut rng);
        check("fill_random", &got, rng);
        m.layout().row_pad() > 0
    }

    #[test]
    fn fill_random_draws_in_grid_order_and_leaves_pads_zero() {
        assert!(check_fill_random::<f32>((6, 6, 6), 100));
        assert!(check_fill_random::<f64>((17, 9, 11), 20));
    }

    /// The fill bodies across N on both sides of a staged chunk (16)
    /// and the lane quanta, on the smallest table (64 lines: fewer than
    /// 128 lanes), on line counts no lane count divides (210, 729), and
    /// on tables with row pads.
    #[test]
    fn every_fill_body_matches_the_serial_walk() {
        let mut row_pads = false;
        for grid in [(1, 1, 1), (2, 3, 4), (6, 6, 6)] {
            for n in [1, 15, 16, 17, 100, 256] {
                row_pads |= check_fill_random::<f32>(grid, n);
                row_pads |= check_fill_random::<f64>(grid, n);
            }
        }
        assert!(row_pads, "no case had row pads");
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

    /// Orbital `n`'s sample at flat grid index `i`: smooth, and
    /// different for every orbital.
    fn sample(n: usize, i: usize) -> f64 {
        ((i * (2 * n + 5)) as f64 * 0.211).cos() + 0.01 * n as f64
    }

    /// The table the constructor must reproduce: one `Spline3` per
    /// orbital, copied in by `set_orbital`.
    fn per_orbital<T: Real>(g: [Grid1; 3], n_splines: usize) -> MultiCoefs<T> {
        let mut m = MultiCoefs::<T>::new(g[0], g[1], g[2], n_splines);
        let points = g[0].num() * g[1].num() * g[2].num();
        for n in 0..n_splines {
            let data: Vec<f64> = (0..points).map(|i| sample(n, i)).collect();
            m.set_orbital(n, &Spline3::interpolate(g[0], g[1], g[2], &data));
        }
        m
    }

    fn all_bits<T: Real>(m: &MultiCoefs<T>) -> Vec<u64> {
        m.data.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    fn check_interpolate<T: Real>(grid: (usize, usize, usize), n_splines: usize) -> bool {
        let g = [grid.0, grid.1, grid.2].map(|k| Grid1::periodic(0.0, 1.0, k));
        let mut calls = Vec::new();
        let m = MultiCoefs::<T>::interpolate(g[0], g[1], g[2], n_splines, |n, f| {
            calls.push(n);
            for (i, x) in f.iter_mut().enumerate() {
                *x = sample(n, i);
            }
        });
        let at = format!(
            "{} B, N = {n_splines}, grid {grid:?}",
            std::mem::size_of::<T>()
        );
        assert_eq!(calls, (0..n_splines).collect::<Vec<_>>(), "{at}");
        let want = per_orbital::<T>(g, n_splines);
        assert_eq!(m.layout(), want.layout(), "{at}");
        assert!(all_bits(&m) == all_bits(&want), "{at}: coefficients differ");
        assert!(pads_are_zero(&m), "{at}: a pad is not zero");
        m.layout().row_pad() > 0
    }

    /// The in-place table solve equals a `Spline3` per orbital copied in
    /// by `set_orbital`, bit for bit over the whole allocation, pads
    /// included: for axis lengths 1, 2, 3 and 12 (the closed forms and
    /// the factored solve) in mixed shapes, N on both sides of the `f64`
    /// (8) and `f32` (16) quanta, in both precisions; and pads stay zero.
    #[test]
    fn interpolate_bitmatches_spline3_per_orbital_with_zero_pads() {
        let mut row_pads = false;
        for grid in [(1, 2, 3), (3, 12, 2), (12, 3, 1), (2, 1, 12), (12, 12, 12)] {
            let ns: &[usize] = if grid == (12, 12, 12) {
                &[9, 128]
            } else {
                &[1, 7, 8, 9, 16, 17, 128]
            };
            for &n in ns {
                row_pads |= check_interpolate::<f64>(grid, n);
                row_pads |= check_interpolate::<f32>(grid, n);
            }
        }
        assert!(row_pads, "no case had row pads");
    }

    #[test]
    #[should_panic(expected = "periodic grids only")]
    fn interpolate_rejects_a_natural_grid() {
        let (gx, gy, _) = small_grids();
        let gz = Grid1::natural(0.0, 1.0, 4);
        let _ = MultiCoefs::<f64>::interpolate(gx, gy, gz, 2, |_, f| f.fill(1.0));
    }

    #[test]
    fn clone_and_whole_range_slice_share_storage() {
        let (gx, gy, gz) = small_grids();
        let mut m = MultiCoefs::<f32>::new(gx, gy, gz, 40);
        m.fill_random(&mut StdRng::seed_from_u64(3));
        let base = m.line(0, 0, 0).as_ptr();
        assert_eq!(m.clone().line(0, 0, 0).as_ptr(), base);
        let whole = m.slice_splines(0, 40);
        assert_eq!(whole.line(0, 0, 0).as_ptr(), base);
        assert_eq!(whole.layout(), m.layout());
        // A partial slice is a compact table of its own.
        let part = m.slice_splines(0, 16);
        assert_ne!(part.line(0, 0, 0).as_ptr(), base);
        assert_eq!(&part.line(2, 3, 4)[..16], &m.line(2, 3, 4)[..16]);
    }

    #[test]
    fn a_write_to_a_clone_unshares_it() {
        let (gx, gy, gz) = small_grids();
        let mut m = MultiCoefs::<f32>::new(gx, gy, gz, 8);
        m.fill_random(&mut StdRng::seed_from_u64(11));
        let bits = |t: &MultiCoefs<f32>| t.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let before = bits(&m);

        // The refill gets storage of its own (fresh, not a copy of the
        // shared values): it equals a fresh table's fill, and the
        // original keeps its bits.
        let mut refilled = m.clone();
        refilled.fill_random(&mut StdRng::seed_from_u64(12));
        assert_ne!(refilled.line(0, 0, 0).as_ptr(), m.line(0, 0, 0).as_ptr());
        let mut fresh = MultiCoefs::<f32>::new(gx, gy, gz, 8);
        fresh.fill_random(&mut StdRng::seed_from_u64(12));
        assert_eq!(bits(&refilled), bits(&fresh));
        assert_ne!(bits(&refilled), before);
        assert_eq!(bits(&m), before);

        let data = vec![0.25f64; 6 * 6 * 8];
        let s = Spline3::<f32>::interpolate(gx, gy, gz, &data);
        let mut set = m.slice_splines(0, 8);
        set.set_orbital(5, &s);
        assert_ne!(set.line(0, 0, 0).as_ptr(), m.line(0, 0, 0).as_ptr());
        assert_eq!(set.line(1, 1, 1)[5], s.coef(1, 1, 1));
        assert_eq!(bits(&m), before);
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
