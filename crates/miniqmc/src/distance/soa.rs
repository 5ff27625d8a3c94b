//! SoA distance tables: coordinate streams through one register-resident
//! minimum-image pass.
//!
//! Storage convention (QMCPACK SoA): for each *target* particle `i` the
//! distances (and displacement components) to all *sources* are a
//! contiguous row, so per-particle updates touch unit-stride memory.
//! Displacements are `source_j − target_i` under minimum image.
//!
//! # The kernel
//!
//! [`distances_to_point`] walks a row in chunks of [`CHUNK`] sources.
//! Per chunk it reduces the raw displacements to the central cell
//! (`u = d·A⁻¹`, `u −= round(u)`, `base = u·A`), takes `base` as the
//! winner, then tries each shift of [`ImageShifts::pruned`] against
//! `base` with a branch-free select on `r² < winner r²`, and writes
//! `r/dx/dy/dz` once. Base, winner and winning `r²` stay in registers
//! across the shifts; nothing is allocated. Per pair that is
//! `pruned + 1` candidate evaluations where the scalar reference does
//! 27 (see [`super`] for the pruning rule): 5 for the graphite cells, 1
//! for an orthorhombic one.
//!
//! Each candidate is `c = base + s; r² = cx·cx + cy·cy + cz·cz`, the
//! reference's own expression evaluated in the reference's order, and
//! Rust never contracts `a·b + c` into a fused multiply-add on its own
//! — also not in the instantiation compiled with FMA available. A
//! skipped shift is one that could not have passed the strict `<`
//! against the candidate dominating it. So away from exact ties (two
//! images at the same `r²`, where the scan order decides) the rows are
//! bit-identical to [`min_image_scalar`](super::min_image_scalar) on
//! non-diagonal cells; on diagonal ones the reference divides by the
//! edge where this multiplies by its inverse, and they agree to
//! rounding.
//!
//! The body is compiled three times by the crate's `multiversion!`
//! macro, for the x86-64 baseline, `avx2,fma` and `avx2,fma,avx512f`
//! (one [`CHUNK`] per 512-bit register), and
//! [`bspline::simd::active_backend`] picks one, so `QMC_SIMD` and
//! `with_backend` select it like every other kernel.
//!
//! # The electron–electron table
//!
//! [`DistanceTableAA`] stores the strict lower triangle in `n`-stride
//! rows (row `i` holds `j < i`) and writes rows only. A proposal costs
//! two kernel rows, the moving electron's at its new and at its current
//! position; accept and reject each copy `iel` entries of one of them.
//! At 8 lanes a fresh row is cheaper than the strided column stores a
//! mirrored full matrix needs on every accept. Moves out of index order
//! leave rows stale; the table tracks which, and
//! [`DistanceTableAA::refresh_stale_rows`] recomputes them. The
//! triangle is not packed: a packed prototype ran no faster here and
//! raised peak RSS by 5 % (at n = 256 its 255 KiB arrays fall under
//! glibc's dynamic mmap threshold and stay on the brk heap).

use super::ImageShifts;
use crate::lattice::Lattice;
use crate::multiversion::multiversion;
use crate::particleset::ParticleSet;
use std::cmp::Ordering;

/// Sources per kernel step: one AVX-512, two AVX2 or four SSE2 vectors
/// of `f64`.
pub const CHUNK: usize = 8;

/// `f64::round` (half away from zero) for any input, from operations
/// the baseline instruction set has (there `round` is a libm call per
/// element): NaN stays NaN, ±∞ and every `|x| ≥ 2⁵²` are returned as
/// they are.
#[inline(always)]
fn round_half_away(x: f64) -> f64 {
    const TWO52: f64 = 4503599627370496.0;
    let ax = x.abs();
    // Nearest integer, ties to even; exact below 2⁵².
    let even = (ax + TWO52) - TWO52;
    // A tie that went down to the even neighbour goes up instead.
    let away = if ax - even == 0.5 { even + 1.0 } else { even };
    (if ax < TWO52 { away } else { ax }).copysign(x)
}

/// `if take { a } else { b }` as mask arithmetic. Written as a branch,
/// the shift loop of [`chunk_min_image`] compiles to a compare and a
/// jump per lane (measured: 2.3× the time per row); this form becomes
/// vector blends in both instantiations.
#[inline(always)]
fn select(take: bool, a: f64, b: f64) -> f64 {
    let mask = 0u64.wrapping_sub(take as u64);
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// One chunk of the kernel: `[r, dx, dy, dz]` from the point `p` to the
/// sources `(sx, sy, sz)`.
#[inline(always)]
fn chunk_min_image(
    g: &[[f64; 3]; 3],
    a: &[[f64; 3]; 3],
    shifts: &[[f64; 3]],
    p: [f64; 3],
    sx: &[f64; CHUNK],
    sy: &[f64; CHUNK],
    sz: &[f64; CHUNK],
) -> [[f64; CHUNK]; 4] {
    let (mut bx, mut by, mut bz) = ([0.0; CHUNK], [0.0; CHUNK], [0.0; CHUNK]);
    let mut w2 = [0.0; CHUNK];
    for l in 0..CHUNK {
        let rd = [sx[l] - p[0], sy[l] - p[1], sz[l] - p[2]];
        let mut u = [0.0f64; 3];
        for b in 0..3 {
            u[b] = rd[0] * g[0][b] + rd[1] * g[1][b] + rd[2] * g[2][b];
            u[b] -= round_half_away(u[b]);
        }
        bx[l] = u[0] * a[0][0] + u[1] * a[1][0] + u[2] * a[2][0];
        by[l] = u[0] * a[0][1] + u[1] * a[1][1] + u[2] * a[2][1];
        bz[l] = u[0] * a[0][2] + u[1] * a[1][2] + u[2] * a[2][2];
        w2[l] = bx[l] * bx[l] + by[l] * by[l] + bz[l] * bz[l];
    }
    // Every shift is tried against the base; trying it against the
    // winner so far would chain shifts together.
    let (mut wx, mut wy, mut wz) = (bx, by, bz);
    for s in shifts {
        for l in 0..CHUNK {
            let (cx, cy, cz) = (bx[l] + s[0], by[l] + s[1], bz[l] + s[2]);
            let r2 = cx * cx + cy * cy + cz * cz;
            let closer = r2 < w2[l];
            w2[l] = select(closer, r2, w2[l]);
            wx[l] = select(closer, cx, wx[l]);
            wy[l] = select(closer, cy, wy[l]);
            wz[l] = select(closer, cz, wz[l]);
        }
    }
    [w2.map(f64::sqrt), wx, wy, wz]
}

/// The `CHUNK` elements of `s` from `j` on.
#[inline(always)]
fn lanes(s: &[f64], j: usize) -> &[f64; CHUNK] {
    s[j..j + CHUNK].try_into().expect("CHUNK long")
}

/// One row of work: source streams in, distance and displacement rows
/// out, all of one length.
struct Row<'a> {
    sx: &'a [f64],
    sy: &'a [f64],
    sz: &'a [f64],
    r: &'a mut [f64],
    dx: &'a mut [f64],
    dy: &'a mut [f64],
    dz: &'a mut [f64],
}

/// The kernel body.
#[inline(always)]
fn row_min_image(lattice: &Lattice, shifts: &[[f64; 3]], p: [f64; 3], row: Row<'_>) {
    let Row {
        sx,
        sy,
        sz,
        r,
        dx,
        dy,
        dz,
    } = row;
    let (g, a) = (lattice.jacobian(), lattice.a);
    let n = sx.len();
    let whole = n - n % CHUNK;
    for j in (0..whole).step_by(CHUNK) {
        let at = j..j + CHUNK;
        let [cr, cx, cy, cz] =
            chunk_min_image(&g, &a, shifts, p, lanes(sx, j), lanes(sy, j), lanes(sz, j));
        r[at.clone()].copy_from_slice(&cr);
        dx[at.clone()].copy_from_slice(&cx);
        dy[at.clone()].copy_from_slice(&cy);
        dz[at].copy_from_slice(&cz);
    }
    if whole < n {
        // Ragged tail: through a zero-padded chunk.
        let padded = |s: &[f64]| {
            let mut c = [0.0; CHUNK];
            c[..n - whole].copy_from_slice(&s[whole..]);
            c
        };
        let [cr, cx, cy, cz] =
            chunk_min_image(&g, &a, shifts, p, &padded(sx), &padded(sy), &padded(sz));
        r[whole..].copy_from_slice(&cr[..n - whole]);
        dx[whole..].copy_from_slice(&cx[..n - whole]);
        dy[whole..].copy_from_slice(&cy[..n - whole]);
        dz[whole..].copy_from_slice(&cz[..n - whole]);
    }
}

multiversion! {
    /// [`row_min_image`] in the active backend's instantiation.
    fn row_min_image_any(lattice: &Lattice, shifts: &[[f64; 3]], p: [f64; 3], row: Row<'_>) =
        row_min_image;
}

/// Kernel: minimum-image distances from one point to all sources given as
/// SoA streams. Writes `r`, `dx`, `dy`, `dz` rows (displacement =
/// source − point). A non-finite coordinate makes that source's entries
/// NaN and leaves the others alone.
#[allow(clippy::too_many_arguments)]
pub fn distances_to_point(
    lattice: &Lattice,
    im: &ImageShifts,
    sx: &[f64],
    sy: &[f64],
    sz: &[f64],
    p: [f64; 3],
    r: &mut [f64],
    dx: &mut [f64],
    dy: &mut [f64],
    dz: &mut [f64],
) {
    let n = sx.len();
    let row = Row {
        sx,
        sy: &sy[..n],
        sz: &sz[..n],
        r: &mut r[..n],
        dx: &mut dx[..n],
        dy: &mut dy[..n],
        dz: &mut dz[..n],
    };
    row_min_image_any(lattice, im.pruned(), p, row);
}

/// Elementwise `|a − b| ≤ tol·max(1, |b|)`, NaN matching NaN.
fn rows_match(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.iter()
        .zip(b)
        .all(|(&x, &y)| (x - y).abs() <= tol * y.abs().max(1.0) || (x.is_nan() && y.is_nan()))
}

/// The four streams `[r, dx, dy, dz]` of `p`'s row against the first
/// `out[0].len()` particles of `ps`.
fn fill_row(
    lattice: &Lattice,
    im: &ImageShifts,
    ps: &ParticleSet,
    p: [f64; 3],
    [r, dx, dy, dz]: [&mut [f64]; 4],
) {
    let (sx, sy, sz) = ps.soa();
    distances_to_point(lattice, im, &sx[..r.len()], sy, sz, p, r, dx, dy, dz);
}

/// Same-species (electron–electron) distance table, SoA layout.
///
/// Row `i` holds the pairs `j < i` only: the table is the strict lower
/// triangle of the symmetric matrix, stored in `n`-stride rows, and no
/// move ever writes a column. [`Self::propose`] computes the moving
/// electron's row at its proposed position *and* at its current one
/// (QMCPACK's "prepare old"); [`Self::accept`] writes the first into the
/// row, [`Self::reject`] the second.
///
/// So a move of `k` leaves entry `k` of every row `i > k` stale until
/// row `i` is written again. In a forward sweep (each electron proposed
/// once, in index order, then accepted or rejected) every row is
/// written after all the moves below it, and the triangle ends
/// bit-identical to a [`Self::rebuild`]. For any other order the table
/// knows which rows went stale, and [`Self::refresh_stale_rows`]
/// recomputes exactly those.
#[derive(Clone, Debug)]
pub struct DistanceTableAA {
    n: usize,
    lattice: Lattice,
    im: ImageShifts,
    /// Row-major with stride `n`, strict lower triangle only:
    /// `r[i*n + j]` = |r_j − r_i| (min image) for `j < i`. No other
    /// entry is written or read.
    r: Vec<f64>,
    dx: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    /// `[r, dx, dy, dz]` of the moving electron's row at its proposed
    /// position, over all `n` (its own entry zero).
    new: [Vec<f64>; 4],
    /// The same row at its current position.
    old: [Vec<f64>; 4],
    /// The electron of the pending proposal (`usize::MAX`: none).
    proposed: usize,
    /// Accepted moves so far: the clock of the two stamps below.
    moves: u64,
    /// Per electron: `moves` just after it last moved.
    moved_at: Vec<u64>,
    /// Per row: `moves` when it was last written whole.
    written_at: Vec<u64>,
}

impl DistanceTableAA {
    /// Create a new instance.
    pub fn new(ps: &ParticleSet) -> Self {
        let n = ps.len();
        let row = || [vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let mut t = Self {
            n,
            lattice: *ps.lattice(),
            im: ImageShifts::new(ps.lattice()),
            r: vec![0.0; n * n],
            dx: vec![0.0; n * n],
            dy: vec![0.0; n * n],
            dz: vec![0.0; n * n],
            new: row(),
            old: row(),
            proposed: usize::MAX,
            moves: 0,
            moved_at: vec![0; n],
            written_at: vec![0; n],
        };
        t.rebuild(ps);
        t
    }

    #[inline]
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Compute row `i` (its pairs `j < i`) from the positions in `ps`.
    fn write_row(&mut self, ps: &ParticleSet, i: usize) {
        let at = i * self.n..i * self.n + i;
        let out = [&mut self.r, &mut self.dx, &mut self.dy, &mut self.dz];
        let out = out.map(|s| &mut s[at.clone()]);
        fill_row(&self.lattice, &self.im, ps, ps.get(i), out);
        self.written_at[i] = self.moves;
    }

    /// Full recompute of the triangle, O(N²/2).
    pub fn rebuild(&mut self, ps: &ParticleSet) {
        for i in 0..self.n {
            self.write_row(ps, i);
        }
    }

    /// Recompute the rows that a move of a lower index made stale (see
    /// the type docs) from the positions in `ps`, which must include
    /// every accepted move. Returns how many rows it recomputed: none
    /// after a forward sweep.
    pub fn refresh_stale_rows(&mut self, ps: &ParticleSet) -> usize {
        // The latest move of any electron below row `i`.
        let mut latest = 0;
        let mut stale = 0;
        for i in 0..self.n {
            if latest > self.written_at[i] {
                self.write_row(ps, i);
                stale += 1;
            }
            latest = latest.max(self.moved_at[i]);
        }
        stale
    }

    /// Whether every cached distance is within `tol` (relative above 1)
    /// of a rebuild from `ps`: what incremental updates must preserve.
    /// Distances, not displacements: at an exact tie a rebuild may pick
    /// an equivalent image.
    pub(crate) fn distances_match_rebuild(&self, ps: &ParticleSet, tol: f64) -> bool {
        let mut fresh = self.clone();
        fresh.rebuild(ps);
        (0..self.n).all(|i| rows_match(self.row(i), fresh.row(i), tol))
    }

    /// Distances from particle `i` to the particles `j < i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.r[i * self.n..i * self.n + i]
    }

    /// Displacement component rows `r_j − r_i` for `j < i`.
    #[inline]
    pub fn disp_rows(&self, i: usize) -> (&[f64], &[f64], &[f64]) {
        let at = i * self.n..i * self.n + i;
        (&self.dx[at.clone()], &self.dy[at.clone()], &self.dz[at])
    }

    #[inline]
    /// Cached minimum-image distance between two particles (any order;
    /// zero for `i == j`).
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        match i.cmp(&j) {
            Ordering::Greater => self.r[i * self.n + j],
            Ordering::Less => self.r[j * self.n + i],
            Ordering::Equal => 0.0,
        }
    }

    /// Displacement `r_j − r_i` (minimum image) for any `i`, `j`.
    #[inline]
    pub fn displacement(&self, i: usize, j: usize) -> [f64; 3] {
        let at = |k: usize| [self.dx[k], self.dy[k], self.dz[k]];
        match i.cmp(&j) {
            Ordering::Greater => at(i * self.n + j),
            Ordering::Less => at(j * self.n + i).map(|x| -x),
            Ordering::Equal => [0.0; 3],
        }
    }

    /// Compute the rows of `iel` at `rnew` and at its current position,
    /// for [`Self::temp_row`]/[`Self::old_row`] and for the
    /// [`Self::accept`] or [`Self::reject`] that follows.
    pub fn propose(&mut self, ps: &ParticleSet, iel: usize, rnew: [f64; 3]) {
        for (row, p) in [(&mut self.new, rnew), (&mut self.old, ps.get(iel))] {
            let out = row.each_mut().map(|s| &mut s[..]);
            fill_row(&self.lattice, &self.im, ps, p, out);
            for s in row {
                s[iel] = 0.0;
            }
        }
        self.proposed = iel;
    }

    /// Distances from the proposed position of the last
    /// [`Self::propose`] to every particle.
    #[inline]
    pub fn temp_row(&self) -> &[f64] {
        &self.new[0]
    }

    #[inline]
    /// Displacement rows of the proposed position.
    pub fn temp_disp(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.new[1], &self.new[2], &self.new[3])
    }

    /// Distances from the current position of the electron of the last
    /// [`Self::propose`] to every particle, computed fresh by it.
    #[inline]
    pub fn old_row(&self) -> &[f64] {
        &self.old[0]
    }

    /// Write the proposal's `[0, iel)` part from `new` (accept) or
    /// `old` (reject) into row `iel`.
    fn store_row(&mut self, iel: usize, accepted: bool) {
        assert_eq!(
            iel, self.proposed,
            "accept/reject must follow propose for the same electron"
        );
        let src = if accepted { &self.new } else { &self.old };
        let lo = iel * self.n;
        let dst = [&mut self.r, &mut self.dx, &mut self.dy, &mut self.dz];
        for (d, s) in dst.into_iter().zip(src) {
            d[lo..lo + iel].copy_from_slice(&s[..iel]);
        }
        self.written_at[iel] = self.moves;
        self.proposed = usize::MAX;
    }

    /// Commit the proposed move of `iel`: its row takes the proposed
    /// distances. Rows above it keep their entry for `iel` until they
    /// are written again.
    pub fn accept(&mut self, iel: usize) {
        self.moves += 1;
        self.moved_at[iel] = self.moves;
        self.store_row(iel, true);
    }

    /// Discard the proposed move of `iel`: its row takes the distances
    /// from its current position, which `propose` computed, so a row
    /// left stale by earlier moves below it is fresh again.
    pub fn reject(&mut self, iel: usize) {
        self.store_row(iel, false);
    }
}

/// Two-species (ion–electron) table: fixed sources, moving targets.
/// Row `e` holds the distances from electron `e` to every ion.
#[derive(Clone, Debug)]
pub struct DistanceTableAB {
    n_src: usize,
    n_tgt: usize,
    lattice: Lattice,
    im: ImageShifts,
    sx: Vec<f64>,
    sy: Vec<f64>,
    sz: Vec<f64>,
    r: Vec<f64>,
    dx: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    r_tmp: Vec<f64>,
    dx_tmp: Vec<f64>,
    dy_tmp: Vec<f64>,
    dz_tmp: Vec<f64>,
}

impl DistanceTableAB {
    /// Create a new instance.
    pub fn new(sources: &ParticleSet, targets: &ParticleSet) -> Self {
        let (sx, sy, sz) = sources.soa();
        let n_src = sources.len();
        let n_tgt = targets.len();
        let mut t = Self {
            n_src,
            n_tgt,
            lattice: *targets.lattice(),
            im: ImageShifts::new(targets.lattice()),
            sx: sx.to_vec(),
            sy: sy.to_vec(),
            sz: sz.to_vec(),
            r: vec![0.0; n_src * n_tgt],
            dx: vec![0.0; n_src * n_tgt],
            dy: vec![0.0; n_src * n_tgt],
            dz: vec![0.0; n_src * n_tgt],
            r_tmp: vec![0.0; n_src],
            dx_tmp: vec![0.0; n_src],
            dy_tmp: vec![0.0; n_src],
            dz_tmp: vec![0.0; n_src],
        };
        t.rebuild(targets);
        t
    }

    #[inline]
    /// Number of source particles (ions).
    pub fn n_sources(&self) -> usize {
        self.n_src
    }

    #[inline]
    /// Number of target particles (electrons).
    pub fn n_targets(&self) -> usize {
        self.n_tgt
    }

    /// Full table recompute from current positions.
    pub fn rebuild(&mut self, targets: &ParticleSet) {
        for e in 0..self.n_tgt {
            let p = targets.get(e);
            let lo = e * self.n_src;
            let hi = lo + self.n_src;
            distances_to_point(
                &self.lattice,
                &self.im,
                &self.sx,
                &self.sy,
                &self.sz,
                p,
                &mut self.r[lo..hi],
                &mut self.dx[lo..hi],
                &mut self.dy[lo..hi],
                &mut self.dz[lo..hi],
            );
        }
    }

    /// Whether every cached distance is within `tol` (relative above 1)
    /// of a rebuild from `targets`.
    pub(crate) fn distances_match_rebuild(&self, targets: &ParticleSet, tol: f64) -> bool {
        let mut fresh = self.clone();
        fresh.rebuild(targets);
        rows_match(&self.r, &fresh.r, tol)
    }

    /// Distances from electron `e` to all ions.
    #[inline]
    pub fn row(&self, e: usize) -> &[f64] {
        &self.r[e * self.n_src..(e + 1) * self.n_src]
    }

    #[inline]
    /// Disp rows.
    pub fn disp_rows(&self, e: usize) -> (&[f64], &[f64], &[f64]) {
        let lo = e * self.n_src;
        let hi = lo + self.n_src;
        (&self.dx[lo..hi], &self.dy[lo..hi], &self.dz[lo..hi])
    }

    /// Compute the scratch row for a proposed single-particle move.
    pub fn propose(&mut self, iel: usize, rnew: [f64; 3]) {
        let _ = iel;
        distances_to_point(
            &self.lattice,
            &self.im,
            &self.sx,
            &self.sy,
            &self.sz,
            rnew,
            &mut self.r_tmp,
            &mut self.dx_tmp,
            &mut self.dy_tmp,
            &mut self.dz_tmp,
        );
    }

    #[inline]
    /// Temp row.
    pub fn temp_row(&self) -> &[f64] {
        &self.r_tmp
    }

    #[inline]
    /// Temp disp.
    pub fn temp_disp(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.dx_tmp, &self.dy_tmp, &self.dz_tmp)
    }

    /// Commit the proposed move.
    pub fn accept(&mut self, iel: usize) {
        let lo = iel * self.n_src;
        let n = self.n_src;
        self.r[lo..lo + n].copy_from_slice(&self.r_tmp);
        self.dx[lo..lo + n].copy_from_slice(&self.dx_tmp);
        self.dy[lo..lo + n].copy_from_slice(&self.dy_tmp);
        self.dz[lo..lo + n].copy_from_slice(&self.dz_tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{min_image_scalar, min_image_scan27};
    use super::*;
    use crate::lattice::{graphite_supercell, random_triclinic};
    use crate::particleset::random_electrons;
    use bspline::simd::{with_backend, Backend};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn electrons(lat: Lattice, n: usize, seed: u64) -> ParticleSet {
        random_electrons(lat, n, &mut StdRng::seed_from_u64(seed))
    }

    /// Every instantiation of the kernel this host can run, the
    /// baseline one first.
    fn backends() -> Vec<Backend> {
        Backend::available()
    }

    /// `[r, dx, dy, dz]` bit patterns of one kernel row.
    fn kernel_row(lat: &Lattice, im: &ImageShifts, ps: &ParticleSet, p: [f64; 3]) -> Vec<[u64; 4]> {
        let (sx, sy, sz) = ps.soa();
        let n = ps.len();
        let (mut r, mut dx, mut dy, mut dz) =
            (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        distances_to_point(lat, im, sx, sy, sz, p, &mut r, &mut dx, &mut dy, &mut dz);
        (0..n)
            .map(|j| [r[j], dx[j], dy[j], dz[j]].map(f64::to_bits))
            .collect()
    }

    /// The same row from the unpruned 27-image scan.
    fn scan27_row(lat: &Lattice, im: &ImageShifts, ps: &ParticleSet, p: [f64; 3]) -> Vec<[u64; 4]> {
        (0..ps.len())
            .map(|j| {
                let (d, r) = min_image_scan27(lat, im, p, ps.get(j));
                [r, d[0], d[1], d[2]].map(f64::to_bits)
            })
            .collect()
    }

    #[test]
    fn round_half_away_is_f64_round() {
        let two52 = 4503599627370496.0f64;
        let mut xs = vec![
            0.0,
            0.3,
            0.49999999999999994,
            0.5,
            0.5000000000000001,
            1.5,
            2.5,
            1e15 + 0.5,
            two52 - 1.5,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2.0 * two52 + 2.0,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20_000 {
            let mag = 10f64.powf(40.0 * rng.random::<f64>() - 20.0);
            xs.push(mag * rng.random::<f64>());
            xs.push((1e6 * rng.random::<f64>()).floor() + 0.5);
        }
        for x in xs.iter().flat_map(|&x| [x, -x]) {
            assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x:e}");
        }
        assert!(round_half_away(f64::NAN).is_nan());
    }

    #[test]
    fn kernel_equals_the_unpruned_scan_bitwise() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut cells = vec![
            Lattice::cubic(4.0),
            Lattice::orthorhombic(2.0, 5.0, 7.0),
            Lattice::hexagonal(3.0, 7.0),
            graphite_supercell(4, 4, 1).0,
        ];
        cells.extend((0..100).map(|_| random_triclinic(&mut rng)));
        let sizes = [1, 3, 7, 9, 64, 255, 256];
        for (k, lat) in cells.iter().enumerate() {
            let im = ImageShifts::new(lat);
            let ps = random_electrons(*lat, sizes[k % sizes.len()], &mut rng);
            let p = lat.to_cart([rng.random(), rng.random(), rng.random()]);
            let want = scan27_row(lat, &im, &ps, p);
            for b in backends() {
                let got = with_backend(b, || kernel_row(lat, &im, &ps, p));
                assert_eq!(got, want, "{b} {:?}", lat.a);
            }
            // The scalar reference is that scan, except on a diagonal
            // cell, where it divides by the edge.
            for (j, w) in want.iter().enumerate() {
                let (_, r) = min_image_scalar(lat, &im, p, ps.get(j));
                let w = f64::from_bits(w[0]);
                assert!((r - w).abs() <= 1e-12 * r, "{:?}: {r} vs {w}", lat.a);
            }
        }
    }

    #[test]
    fn ragged_tails_and_empty_rows() {
        let lat = Lattice::hexagonal(3.0, 7.0);
        let im = ImageShifts::new(&lat);
        let p = [0.4, 1.9, 6.5];
        for n in 0..=2 * CHUNK + 1 {
            let ps = electrons(lat, n, 40 + n as u64);
            let want = scan27_row(&lat, &im, &ps, p);
            for b in backends() {
                assert_eq!(
                    with_backend(b, || kernel_row(&lat, &im, &ps, p)),
                    want,
                    "{b} n={n}"
                );
            }
            // Longer output buffers are written up to `n` only.
            let (sx, sy, sz) = ps.soa();
            let mut out = vec![[7.0; 3 * CHUNK]; 4];
            let [r, dx, dy, dz] = &mut out[..] else {
                unreachable!()
            };
            distances_to_point(&lat, &im, sx, sy, sz, p, r, dx, dy, dz);
            assert!(
                out.iter().all(|o| o[n..].iter().all(|&x| x == 7.0)),
                "n={n}"
            );
        }
    }

    /// Bit patterns of a table's four streams.
    fn bits(streams: [&Vec<f64>; 4]) -> Vec<u64> {
        let all = streams.into_iter().flatten();
        all.map(|x| x.to_bits()).collect()
    }

    fn aa_bits(t: &DistanceTableAA) -> Vec<u64> {
        bits([&t.r, &t.dx, &t.dy, &t.dz])
    }

    fn ab_bits(t: &DistanceTableAB) -> Vec<u64> {
        bits([&t.r, &t.dx, &t.dy, &t.dz])
    }

    #[test]
    fn far_positions_match_the_scalar_reference() {
        // Neither `set_electron_positions` nor a checkpoint restore
        // wraps: thousands of cells out must still reduce correctly.
        let (lat, ions_pos) = graphite_supercell(2, 2, 1);
        let im = ImageShifts::new(&lat);
        let ions = ParticleSet::new("ion", lat, &ions_pos);
        let n = 2 * CHUNK + 3;
        let mut ps = electrons(lat, n, 51);
        let far = lat.to_cart([4321.3, -2765.8, 9876.1]);
        let farther = lat.to_cart([-1.0e6 + 0.25, 3.0e5 + 0.5, 0.75]);
        ps.set(2, far);
        for b in backends() {
            with_backend(b, || {
                let mut ee = DistanceTableAA::new(&ps);
                let mut ei = DistanceTableAB::new(&ions, &ps);
                ee.propose(&ps, 4, farther);
                ei.propose(4, farther);
                for j in 0..n {
                    let (_, r) = min_image_scalar(&lat, &im, ps.get(2), ps.get(j));
                    let want = if j == 2 { 0 } else { r.to_bits() };
                    assert_eq!(ee.distance(2, j).to_bits(), want);
                    let (_, r) = min_image_scalar(&lat, &im, farther, ps.get(j));
                    assert_eq!(
                        ee.temp_row()[j].to_bits(),
                        if j == 4 { 0 } else { r.to_bits() }
                    );
                    assert!(
                        ee.distance(2, j) < 2.0 * lat.a[0][0],
                        "not reduced: {}",
                        ee.distance(2, j)
                    );
                }
                for (i, &ion) in ions_pos.iter().enumerate() {
                    let (_, r) = min_image_scalar(&lat, &im, far, ion);
                    assert_eq!(ei.row(2)[i].to_bits(), r.to_bits());
                    let (_, r) = min_image_scalar(&lat, &im, farther, ion);
                    assert_eq!(ei.temp_row()[i].to_bits(), r.to_bits());
                }
            });
        }
    }

    #[test]
    fn non_finite_positions_poison_only_their_own_entries() {
        let (lat, ions_pos) = graphite_supercell(2, 2, 1);
        let ions = ParticleSet::new("ion", lat, &ions_pos);
        let n = 2 * CHUNK + 3;
        let clean = electrons(lat, n, 53);
        let mut ps = clean.clone();
        let bad = [
            (5, [f64::NAN, 1.0, 2.0]),
            (11, [0.5, f64::INFINITY, 2.0]),
            (n - 1, [0.5, 1.0, f64::NEG_INFINITY]),
        ];
        for (i, r) in bad {
            ps.set(i, r);
        }
        let is_bad = |i: usize| bad.iter().any(|&(b, _)| b == i);
        for b in backends() {
            with_backend(b, || {
                let ee_clean = DistanceTableAA::new(&clean);
                let ei_clean = DistanceTableAB::new(&ions, &clean);
                let mut ee = ee_clean.clone();
                let mut ei = ei_clean.clone();
                ee.rebuild(&ps);
                ei.rebuild(&ps);
                for i in 0..n {
                    for j in 0..n {
                        let (got, want) = (ee.distance(i, j), ee_clean.distance(i, j));
                        if i == j {
                            assert_eq!(got, 0.0);
                        } else if is_bad(i) || is_bad(j) {
                            assert!(got.is_nan(), "({i},{j}) = {got}");
                            assert!(ee.displacement(i, j).iter().any(|x| x.is_nan()));
                        } else {
                            assert_eq!(got.to_bits(), want.to_bits(), "({i},{j})");
                            assert_eq!(ee.displacement(i, j), ee_clean.displacement(i, j));
                        }
                    }
                    if is_bad(i) {
                        assert!(ei.row(i).iter().all(|x| x.is_nan()));
                    } else {
                        assert_eq!(ei.row(i), ei_clean.row(i));
                    }
                }
                // A non-finite proposal: a NaN scratch row, tables as
                // they were.
                let (ee_before, ei_before) = (aa_bits(&ee), ab_bits(&ei));
                for rnew in [
                    [f64::NAN; 3],
                    [f64::INFINITY, 0.0, 0.0],
                    [0.0, f64::NEG_INFINITY, 1.0],
                ] {
                    ee.propose(&ps, 3, rnew);
                    ei.propose(3, rnew);
                    assert!(ee
                        .temp_row()
                        .iter()
                        .enumerate()
                        .all(|(j, x)| (j == 3) == (*x == 0.0) && (j == 3 || x.is_nan())));
                    assert!(ei.temp_row().iter().all(|x| x.is_nan()));
                }
                assert_eq!(aa_bits(&ee), ee_before);
                assert_eq!(ab_bits(&ei), ei_before);
            });
        }
    }

    /// A proposal for every electron, 3 cells wide, wrapped into the cell.
    fn step(lat: &Lattice, ps: &ParticleSet, iel: usize, rng: &mut StdRng) -> [f64; 3] {
        let r = ps.get(iel);
        lat.wrap([
            r[0] + 3.0 * (rng.random::<f64>() - 0.5),
            r[1] + 3.0 * (rng.random::<f64>() - 0.5),
            r[2] + 3.0 * (rng.random::<f64>() - 0.5),
        ])
    }

    #[test]
    fn incremental_tables_equal_a_rebuild_bitwise() {
        // What lets `TrialWaveFunction::log_derivs` read the tables as
        // the moves left them: forward sweeps with random accepts and
        // rejects leave the triangle as a rebuild writes it, with no
        // row to recompute.
        let (lat, ions_pos) = graphite_supercell(2, 2, 1);
        let ions = ParticleSet::new("ion", lat, &ions_pos);
        let mut rng = StdRng::seed_from_u64(57);
        for n in [1, 2, 3, 2 * CHUNK + 3] {
            for b in backends() {
                with_backend(b, || {
                    let mut ps = electrons(lat, n, 55);
                    let mut ee = DistanceTableAA::new(&ps);
                    let mut ei = DistanceTableAB::new(&ions, &ps);
                    for _sweep in 0..3 {
                        for iel in 0..n {
                            let rnew = step(&lat, &ps, iel, &mut rng);
                            ee.propose(&ps, iel, rnew);
                            ei.propose(iel, rnew);
                            if rng.random::<f64>() < 0.5 {
                                ee.accept(iel);
                                ei.accept(iel);
                                ps.set(iel, rnew);
                            } else {
                                ee.reject(iel);
                            }
                        }
                        assert_eq!(aa_bits(&ee), aa_bits(&DistanceTableAA::new(&ps)), "n={n}");
                        assert_eq!(ab_bits(&ei), ab_bits(&DistanceTableAB::new(&ions, &ps)));
                        assert!(ee.distances_match_rebuild(&ps, 0.0));
                        assert!(ei.distances_match_rebuild(&ps, 0.0));
                        assert_eq!(ee.refresh_stale_rows(&ps), 0, "n={n}");
                    }
                });
            }
        }
    }

    /// Moves out of index order: a reverse sweep, a partial sweep, the
    /// same electron twice, and accepts with no reject. After each, the
    /// stale-row recompute gives the rebuild's triangle bit for bit, and
    /// recomputes no row a second time.
    #[test]
    fn stale_rows_recompute_to_the_rebuild_after_any_order() {
        let lat = Lattice::hexagonal(3.0, 7.0);
        let mut rng = StdRng::seed_from_u64(59);
        for n in [1, 2, 3, 2 * CHUNK + 3] {
            let orders: [Vec<usize>; 4] = [
                (0..n).rev().collect(),
                (0..n.div_ceil(2)).collect(),
                vec![n / 2, n / 2, 0],
                (0..n).chain(0..n / 2).collect(),
            ];
            for (k, order) in orders.iter().enumerate() {
                // The last order accepts every move; the others half.
                let p_accept = if k == 3 { 1.0 } else { 0.5 };
                let mut ps = electrons(lat, n, 61 + n as u64);
                let mut ee = DistanceTableAA::new(&ps);
                let mut accepted = 0;
                for &iel in order {
                    let rnew = step(&lat, &ps, iel, &mut rng);
                    ee.propose(&ps, iel, rnew);
                    if rng.random::<f64>() < p_accept {
                        ee.accept(iel);
                        ps.set(iel, rnew);
                        accepted += 1;
                    } else {
                        ee.reject(iel);
                    }
                }
                let stale = ee.refresh_stale_rows(&ps);
                assert!(
                    stale <= n.saturating_sub(1),
                    "n={n} order {k}: {stale} rows"
                );
                if accepted == 0 || n == 1 {
                    assert_eq!(stale, 0, "n={n} order {k}");
                }
                assert_eq!(
                    aa_bits(&ee),
                    aa_bits(&DistanceTableAA::new(&ps)),
                    "n={n} order {k}"
                );
                assert_eq!(ee.refresh_stale_rows(&ps), 0, "n={n} order {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must follow propose for the same electron")]
    fn reject_of_another_electron_is_refused() {
        let ps = electrons(Lattice::cubic(4.0), 5, 63);
        let mut ee = DistanceTableAA::new(&ps);
        ee.propose(&ps, 3, [1.0, 2.0, 3.0]);
        ee.reject(2);
    }

    #[test]
    fn aa_matches_lattice_min_image() {
        for lat in [Lattice::cubic(4.0), Lattice::hexagonal(3.0, 7.0)] {
            let ps = electrons(lat, 12, 5);
            let t = DistanceTableAA::new(&ps);
            for i in 0..12 {
                for j in 0..12 {
                    let (_, r_ref) = lat.min_image(ps.get(i), ps.get(j));
                    assert!(
                        (t.distance(i, j) - r_ref).abs() < 1e-10,
                        "({i},{j}): {} vs {r_ref}",
                        t.distance(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn aa_symmetry_and_antisymmetry() {
        let ps = electrons(Lattice::hexagonal(2.5, 6.0), 10, 7);
        let t = DistanceTableAA::new(&ps);
        for i in 0..10 {
            assert_eq!(t.distance(i, i), 0.0);
            for j in 0..10 {
                assert!((t.distance(i, j) - t.distance(j, i)).abs() < 1e-12);
                let dij = t.displacement(i, j);
                let dji = t.displacement(j, i);
                for d in 0..3 {
                    assert!((dij[d] + dji[d]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn displacement_length_equals_distance() {
        let ps = electrons(Lattice::cubic(3.0), 8, 11);
        let t = DistanceTableAA::new(&ps);
        for i in 0..8 {
            for j in 0..8 {
                let d = t.displacement(i, j);
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                assert!((r - t.distance(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn propose_accept_matches_rebuild() {
        let lat = Lattice::hexagonal(3.0, 7.0);
        let mut ps = electrons(lat, 9, 13);
        let mut t = DistanceTableAA::new(&ps);
        let rnew = [1.234, 0.456, 3.21];
        t.propose(&ps, 4, rnew);
        t.accept(4);
        ps.set(4, rnew);
        // Rows 5..9 hold electron 4's old position.
        assert_eq!(t.refresh_stale_rows(&ps), 4);
        let fresh = DistanceTableAA::new(&ps);
        for i in 0..9 {
            for j in 0..9 {
                assert!(
                    (t.distance(i, j) - fresh.distance(i, j)).abs() < 1e-12,
                    "({i},{j})"
                );
                let (a, b) = (t.displacement(i, j), fresh.displacement(i, j));
                for d in 0..3 {
                    assert!((a[d] - b[d]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn ab_table_rows_match_reference() {
        let (lat, ions_pos) = graphite_supercell(2, 2, 1);
        let ions = ParticleSet::new("ion", lat, &ions_pos);
        let els = electrons(lat, 6, 17);
        let t = DistanceTableAB::new(&ions, &els);
        assert_eq!(t.n_sources(), 16);
        assert_eq!(t.n_targets(), 6);
        for e in 0..6 {
            for i in 0..16 {
                let (_, r_ref) = lat.min_image(els.get(e), ions_pos[i]);
                assert!((t.row(e)[i] - r_ref).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn ab_propose_accept_updates_row_only() {
        let (lat, ions_pos) = graphite_supercell(1, 1, 1);
        let ions = ParticleSet::new("ion", lat, &ions_pos);
        let els = electrons(lat, 4, 19);
        let mut t = DistanceTableAB::new(&ions, &els);
        let before_row2: Vec<f64> = t.row(2).to_vec();
        t.propose(1, [0.5, 0.5, 0.5]);
        t.accept(1);
        for i in 0..4 {
            let (_, r_ref) = lat.min_image([0.5, 0.5, 0.5], ions_pos[i]);
            assert!((t.row(1)[i] - r_ref).abs() < 1e-10);
        }
        assert_eq!(t.row(2), &before_row2[..]);
    }
}
