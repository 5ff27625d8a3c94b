//! SPOSet: the bridge between B-spline engines (fractional grid
//! coordinates) and QMC (Cartesian positions in a general cell).
//!
//! Splines are stored on the unit cube of *fractional* coordinates
//! (paper Sec. VI: the grid simulates periodic images of the primitive
//! cell). For a Cartesian position `r`, `u = r·A⁻¹` is evaluated and the
//! derivatives are pulled back: `∇ᵣ = G ∇ᵤ`, `Hᵣ = G Hᵤ Gᵀ` with
//! `G = A⁻¹`. Graphite's hexagonal cell is why the drift-diffusion phase
//! needs VGH rather than VGL (the Laplacian is `tr(G Hᵤ Gᵀ)`, not the
//! trace of `Hᵤ`).

use crate::lattice::Lattice;
use crate::multiversion::multiversion;
use bspline::{BatchOut, BsplineSoA, Kernel, PosBlock, SpoEngine, WalkerSoA};
use einspline::{MultiCoefs, Real};

/// Orbital values + Cartesian gradients + Laplacians for one position —
/// the determinant-facing view, in `f64`.
#[derive(Clone, Debug)]
pub struct SpoVgl {
    /// Orbital value stream.
    pub v: Vec<f64>,
    /// Gradient x-component stream.
    pub gx: Vec<f64>,
    /// Gradient y-component stream.
    pub gy: Vec<f64>,
    /// Gradient z-component stream.
    pub gz: Vec<f64>,
    /// Lap.
    pub lap: Vec<f64>,
}

impl SpoVgl {
    fn zeros(n: usize) -> Self {
        Self {
            v: vec![0.0; n],
            gx: vec![0.0; n],
            gy: vec![0.0; n],
            gz: vec![0.0; n],
            lap: vec![0.0; n],
        }
    }
}

/// A set of N single-particle orbitals over a periodic cell.
///
/// `T` is the *orbital* (storage + kernel) precision; everything this
/// type hands to QMC — values, Cartesian gradients, Laplacians — is
/// widened to `f64` ([`Real::to_f64`]) and pulled back in `f64`,
/// whether the orbital tables are `f32` or `f64`. This is the
/// mixed-precision contract: storage precision is a bandwidth knob,
/// never an observable-accuracy knob. The engine is the monolithic
/// [`BsplineSoA`] over the caller's table.
#[derive(Clone, Debug)]
pub struct SpoSet<T: Real> {
    engine: BsplineSoA<T>,
    lattice: Lattice,
    /// `G = A⁻¹` (Cartesian→fractional Jacobian).
    g: [[f64; 3]; 3],
    /// Metric `M = GᵀG` used for the Laplacian pull-back.
    metric: [[f64; 3]; 3],
    scratch: WalkerSoA<T>,
    out: SpoVgl,
    /// Batched-V scratch: per-position engine outputs + position
    /// block, grown on demand and reused across sweeps.
    batch_scratch: BatchOut<WalkerSoA<T>>,
    batch_pos: PosBlock<T>,
    /// Per-position results of the block calls.
    batch_rows: Vec<SpoVgl>,
}

impl<T: Real> SpoSet<T> {
    /// Wrap a coefficient table whose grids span the unit cube of
    /// fractional coordinates in the monolithic SoA engine.
    pub fn new(coefs: MultiCoefs<T>, lattice: Lattice) -> Self {
        let engine = BsplineSoA::new(coefs);
        assert_eq!(
            engine.domain(),
            [(0.0, 1.0); 3],
            "SPO splines live on fractional coordinates"
        );
        let n = engine.n_splines();
        let g = lattice.jacobian();
        let mut metric = [[0.0; 3]; 3];
        for b in 0..3 {
            for c in 0..3 {
                for ga in g.iter() {
                    metric[b][c] += ga[b] * ga[c];
                }
            }
        }
        let scratch = engine.make_out();
        Self {
            engine,
            lattice,
            g,
            metric,
            scratch,
            out: SpoVgl::zeros(n),
            batch_scratch: BatchOut::from_blocks(Vec::new()),
            batch_pos: PosBlock::new(),
            batch_rows: Vec::new(),
        }
    }

    #[inline]
    /// N orbitals.
    pub fn n_orbitals(&self) -> usize {
        self.engine.n_splines()
    }

    #[inline]
    /// Lattice.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Direct access to the underlying engine (benchmarks).
    #[inline]
    pub fn engine(&self) -> &BsplineSoA<T> {
        &self.engine
    }

    fn frac_pos(&self, r: [f64; 3]) -> [T; 3] {
        let u = self.lattice.to_frac(r);
        [T::from_f64(u[0]), T::from_f64(u[1]), T::from_f64(u[2])]
    }

    /// Orbital values at Cartesian `r` (kernel V): the propose side of
    /// a single-electron move.
    pub fn evaluate_v_one(&mut self, r: [f64; 3]) -> &[f64] {
        let u = self.frac_pos(r);
        self.engine.v(u, &mut self.scratch);
        let n = self.n_orbitals();
        for k in 0..n {
            self.out.v[k] = self.scratch.value(k).to_f64();
        }
        &self.out.v[..n]
    }

    /// Values + Cartesian gradients + Laplacians at `r` (kernel VGH +
    /// pull-back; the hexagonal-cell Laplacian needs the full Hessian).
    /// Returns the filled view.
    pub fn evaluate_vgl_one(&mut self, r: [f64; 3]) -> &SpoVgl {
        let u = self.frac_pos(r);
        self.engine.vgh(u, &mut self.scratch);
        let n = self.n_orbitals();
        pull_back(&self.g, &self.metric, n, &self.scratch, &mut self.out);
        &self.out
    }

    /// Grow the per-position result rows to at least `m`.
    fn grow_rows(&mut self, m: usize) {
        let n = self.n_orbitals();
        while self.batch_rows.len() < m {
            self.batch_rows.push(SpoVgl::zeros(n));
        }
    }

    /// Orbital values for a whole block of Cartesian positions (kernel V
    /// batched): row `e` of the result holds position `e`'s values (only
    /// the `v` stream is filled). One engine call per block; scratch is
    /// reused across sweeps.
    pub fn evaluate_v_batch(&mut self, rs: &[[f64; 3]]) -> &[SpoVgl] {
        self.batch_pos.clear();
        for &r in rs {
            let u = self.frac_pos(r);
            self.batch_pos.push(u);
        }
        let n = self.n_orbitals();
        self.batch_scratch.ensure(rs.len(), || WalkerSoA::new(n));
        self.grow_rows(rs.len());
        self.engine
            .eval_batch(Kernel::V, &self.batch_pos, &mut self.batch_scratch);
        for (e, row) in self.batch_rows.iter_mut().take(rs.len()).enumerate() {
            let scratch = self.batch_scratch.block(e);
            for k in 0..n {
                row.v[k] = scratch.value(k).to_f64();
            }
        }
        &self.batch_rows[..rs.len()]
    }

    /// Values + Cartesian gradients + Laplacians for every position of
    /// a block: row `e` holds what [`Self::evaluate_vgl_one`] gives at
    /// `rs[e]`, bit for bit. Each position runs one VGH into the
    /// L1-sized scratch and is pulled back at once. A batched engine
    /// call would stage 10 `T` streams per position and read them back:
    /// for one spin of 128 f32 orbitals that is 655 KB, which beside
    /// the rows and the table overflows a 2 MiB L2.
    pub fn evaluate_vgl_batch(&mut self, rs: &[[f64; 3]]) -> &[SpoVgl] {
        self.grow_rows(rs.len());
        let n = self.n_orbitals();
        for (e, &r) in rs.iter().enumerate() {
            let u = self.frac_pos(r);
            self.engine.vgh(u, &mut self.scratch);
            let row = &mut self.batch_rows[e];
            pull_back(&self.g, &self.metric, n, &self.scratch, row);
        }
        &self.batch_rows[..rs.len()]
    }
}

/// The body of [`pull_back`]: one engine output block pulled back to
/// Cartesian coordinates, `∇ᵣ = G ∇ᵤ`, `lap = Σ_bc M[b][c]·Hᵤ[b][c]`
/// (Hᵤ symmetric, 6 streams). Every stream is cut to `n` before the
/// loop, so the loop body has no bounds checks or accessor calls and
/// LLVM vectorizes it.
#[inline(always)]
fn pull_back_body<T: Real>(
    g: &[[f64; 3]; 3],
    m: &[[f64; 3]; 3],
    n: usize,
    s: &WalkerSoA<T>,
    out: &mut SpoVgl,
) {
    fn cut<T>(s: &[T], n: usize) -> &[T] {
        &s[..n]
    }
    let (v, gx, gy, gz) = (cut(&s.v, n), cut(&s.gx, n), cut(&s.gy, n), cut(&s.gz, n));
    let (hxx, hxy, hxz) = (cut(&s.hxx, n), cut(&s.hxy, n), cut(&s.hxz, n));
    let (hyy, hyz, hzz) = (cut(&s.hyy, n), cut(&s.hyz, n), cut(&s.hzz, n));
    let (ov, ogx, ogy) = (&mut out.v[..n], &mut out.gx[..n], &mut out.gy[..n]);
    let (ogz, olap) = (&mut out.gz[..n], &mut out.lap[..n]);
    for k in 0..n {
        ov[k] = v[k].to_f64();
        let gu = [gx[k].to_f64(), gy[k].to_f64(), gz[k].to_f64()];
        ogx[k] = g[0][0] * gu[0] + g[0][1] * gu[1] + g[0][2] * gu[2];
        ogy[k] = g[1][0] * gu[0] + g[1][1] * gu[1] + g[1][2] * gu[2];
        ogz[k] = g[2][0] * gu[0] + g[2][1] * gu[1] + g[2][2] * gu[2];
        let h = [
            hxx[k].to_f64(),
            hxy[k].to_f64(),
            hxz[k].to_f64(),
            hyy[k].to_f64(),
            hyz[k].to_f64(),
            hzz[k].to_f64(),
        ];
        olap[k] = m[0][0] * h[0]
            + m[1][1] * h[3]
            + m[2][2] * h[5]
            + 2.0 * (m[0][1] * h[1] + m[0][2] * h[2] + m[1][2] * h[4]);
    }
}

multiversion! {
    /// [`pull_back_body`] in the active backend's instantiation: 8 or 4
    /// `f64` lanes under AVX-512 or AVX2, 2 at the x86-64 baseline.
    fn pull_back<T: Real>(
        g: &[[f64; 3]; 3],
        m: &[[f64; 3]; 3],
        n: usize,
        s: &WalkerSoA<T>,
        out: &mut SpoVgl,
    ) = pull_back_body;
}

#[cfg(test)]
mod tests {
    use super::*;
    use einspline::{Grid1, Spline3};
    use std::f64::consts::PI;

    /// Build an SpoSet over `lat` with analytically known orbitals
    /// (plane-wave-like smooth periodic functions of the fractional
    /// coordinates).
    fn build(lat: Lattice, ng: usize, n_orb: usize) -> SpoSet<f64> {
        let g = Grid1::periodic(0.0, 1.0, ng);
        let mut coefs = MultiCoefs::<f64>::new(g, g, g, n_orb);
        for s in 0..n_orb {
            let kx = 1 + (s % 2);
            let ky = 1 + (s / 2);
            let mut data = vec![0.0; ng * ng * ng];
            for i in 0..ng {
                for j in 0..ng {
                    for k in 0..ng {
                        let (x, y, z) = (
                            i as f64 / ng as f64,
                            j as f64 / ng as f64,
                            k as f64 / ng as f64,
                        );
                        data[(i * ng + j) * ng + k] = (2.0 * PI * kx as f64 * x).cos()
                            * (2.0 * PI * ky as f64 * y).sin()
                            + 0.3 * (2.0 * PI * z).cos()
                            + 1.7;
                    }
                }
            }
            let sp = Spline3::<f64>::interpolate(g, g, g, &data);
            coefs.set_orbital(s, &sp);
        }
        SpoSet::new(coefs, lat)
    }

    #[test]
    fn values_match_analytic_in_hexagonal_cell() {
        let lat = Lattice::hexagonal(3.0, 7.0);
        let mut spo = build(lat, 24, 3);
        let r = lat.to_cart([0.31, 0.62, 0.13]);
        let v = spo.evaluate_v_one(r).to_vec();
        let u = [0.31, 0.62, 0.13];
        for (s, val) in v.iter().enumerate() {
            let kx = (1 + s % 2) as f64;
            let ky = (1 + s / 2) as f64;
            let expect = (2.0 * PI * kx * u[0]).cos() * (2.0 * PI * ky * u[1]).sin()
                + 0.3 * (2.0 * PI * u[2]).cos()
                + 1.7;
            assert!((val - expect).abs() < 5e-4, "s={s}: {val} vs {expect}");
        }
    }

    #[test]
    fn cartesian_gradient_matches_finite_difference() {
        let lat = Lattice::hexagonal(2.5, 6.0);
        let mut spo = build(lat, 32, 2);
        let r = lat.to_cart([0.4, 0.3, 0.6]);
        let h = 1e-5;
        let out = spo.evaluate_vgl_one(r).clone();
        for d in 0..3 {
            let mut rp = r;
            rp[d] += h;
            let vp = spo.evaluate_v_one(rp).to_vec();
            let mut rm = r;
            rm[d] -= h;
            let vm = spo.evaluate_v_one(rm).to_vec();
            for k in 0..2 {
                let fd = (vp[k] - vm[k]) / (2.0 * h);
                let an = [out.gx[k], out.gy[k], out.gz[k]][d];
                assert!((an - fd).abs() < 1e-4, "d={d} k={k}: {an} vs {fd}");
            }
        }
    }

    #[test]
    fn cartesian_laplacian_matches_finite_difference() {
        let lat = Lattice::hexagonal(2.5, 6.0);
        let mut spo = build(lat, 32, 2);
        let r = lat.to_cart([0.21, 0.55, 0.37]);
        let h = 2e-4;
        let out = spo.evaluate_vgl_one(r).clone();
        let v0 = spo.evaluate_v_one(r).to_vec();
        let mut lap_fd = [0.0; 2];
        for d in 0..3 {
            let mut rp = r;
            rp[d] += h;
            let vp = spo.evaluate_v_one(rp).to_vec();
            let mut rm = r;
            rm[d] -= h;
            let vm = spo.evaluate_v_one(rm).to_vec();
            for k in 0..2 {
                lap_fd[k] += (vp[k] - 2.0 * v0[k] + vm[k]) / (h * h);
            }
        }
        for k in 0..2 {
            let rel = (out.lap[k] - lap_fd[k]).abs() / lap_fd[k].abs().max(1.0);
            assert!(rel < 5e-2, "k={k}: {} vs {}", out.lap[k], lap_fd[k]);
        }
    }

    #[test]
    fn orthorhombic_cell_laplacian_is_plain_trace() {
        // For a diagonal lattice the metric is diag(1/L²), so the
        // pull-back must equal scaling each Hessian diagonal.
        let lat = Lattice::orthorhombic(2.0, 3.0, 4.0);
        let mut spo = build(lat, 16, 1);
        let r = lat.to_cart([0.3, 0.3, 0.3]);
        let out = spo.evaluate_vgl_one(r).clone();
        let u = [0.3f64, 0.3, 0.3];
        let mut scratch = WalkerSoA::<f64>::new(1);
        spo.engine().vgh(u, &mut scratch);
        let h = scratch.hessian(0);
        let expect = h[0] / 4.0 + h[3] / 9.0 + h[5] / 16.0;
        assert!((out.lap[0] - expect).abs() < 1e-10);
    }

    #[test]
    fn batched_sweep_matches_scalar_evaluations() {
        let lat = Lattice::hexagonal(2.5, 6.0);
        let mut spo = build(lat, 16, 3);
        let rs: Vec<[f64; 3]> = [
            [0.11, 0.42, 0.83],
            [0.57, 0.24, 0.39],
            [0.91, 0.66, 0.05],
            [0.33, 0.78, 0.52],
        ]
        .iter()
        .map(|u| lat.to_cart(*u))
        .collect();

        let scalar: Vec<SpoVgl> = rs
            .iter()
            .map(|&r| spo.evaluate_vgl_one(r).clone())
            .collect();
        let batch = spo.evaluate_vgl_batch(&rs).to_vec();
        assert_eq!(batch.len(), rs.len());
        for (e, (s, b)) in scalar.iter().zip(&batch).enumerate() {
            for k in 0..3 {
                assert_eq!(s.v[k], b.v[k], "e={e} k={k}");
                assert_eq!(s.gx[k], b.gx[k]);
                assert_eq!(s.gy[k], b.gy[k]);
                assert_eq!(s.gz[k], b.gz[k]);
                assert_eq!(s.lap[k], b.lap[k]);
            }
        }

        let v_scalar: Vec<Vec<f64>> = rs.iter().map(|&r| spo.evaluate_v_one(r).to_vec()).collect();
        let v_batch = spo.evaluate_v_batch(&rs).to_vec();
        for (e, (s, b)) in v_scalar.iter().zip(&v_batch).enumerate() {
            assert_eq!(s.as_slice(), &b.v[..3], "e={e}");
        }
    }

    /// What `evaluate_vgl_batch` computed before it became a loop over
    /// the single-position body: one engine `eval_batch(Kernel::Vgh)`
    /// over the whole block, then each position's pull-back through the
    /// per-orbital accessors.
    fn batched_engine_reference<T: Real>(spo: &SpoSet<T>, rs: &[[f64; 3]]) -> Vec<SpoVgl> {
        let n = spo.n_orbitals();
        let us: Vec<[T; 3]> = rs.iter().map(|&r| spo.frac_pos(r)).collect();
        let mut out = BatchOut::from_blocks(Vec::new());
        out.ensure(rs.len(), || WalkerSoA::new(n));
        let pos = PosBlock::from_positions(&us);
        spo.engine().eval_batch(Kernel::Vgh, &pos, &mut out);
        let (g, m) = (&spo.g, &spo.metric);
        (0..rs.len())
            .map(|e| {
                let s = out.block(e);
                let mut row = SpoVgl::zeros(n);
                for k in 0..n {
                    row.v[k] = s.value(k).to_f64();
                    let gu = s.gradient(k).map(|x| x.to_f64());
                    row.gx[k] = g[0][0] * gu[0] + g[0][1] * gu[1] + g[0][2] * gu[2];
                    row.gy[k] = g[1][0] * gu[0] + g[1][1] * gu[1] + g[1][2] * gu[2];
                    row.gz[k] = g[2][0] * gu[0] + g[2][1] * gu[1] + g[2][2] * gu[2];
                    let h = s.hessian(k).map(|x| x.to_f64());
                    row.lap[k] = m[0][0] * h[0]
                        + m[1][1] * h[3]
                        + m[2][2] * h[5]
                        + 2.0 * (m[0][1] * h[1] + m[0][2] * h[2] + m[1][2] * h[4]);
                }
                row
            })
            .collect()
    }

    /// `evaluate_vgl_one` per position and `evaluate_vgl_batch` against
    /// [`batched_engine_reference`], bit for bit, for blocks of 0, 1, 7
    /// and 128 random positions.
    fn check_vgl_paths<T: Real>(mut spo: SpoSet<T>, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = spo.n_orbitals();
        let bits = |row: &SpoVgl| -> Vec<u64> {
            [&row.v, &row.gx, &row.gy, &row.gz, &row.lap]
                .iter()
                .flat_map(|s| s[..n].iter().map(|x| x.to_bits()))
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let lat = *spo.lattice();
        for m in [0, 1, 7, 128] {
            let rs: Vec<[f64; 3]> = (0..m)
                .map(|_| lat.to_cart([rng.random(), rng.random(), rng.random()]))
                .collect();
            let want = batched_engine_reference(&spo, &rs);
            let batch = spo.evaluate_vgl_batch(&rs).to_vec();
            assert_eq!(batch.len(), m);
            for (e, (got, want)) in batch.iter().zip(&want).enumerate() {
                assert_eq!(bits(got), bits(want), "batch: m={m} e={e}");
                let one = spo.evaluate_vgl_one(rs[e]);
                assert_eq!(bits(one), bits(want), "one: m={m} e={e}");
            }
        }
    }

    /// Both VGH paths against the batched engine call they replaced, on
    /// f32 and f64 tables, in a hexagonal cell (the `M[0][1]` term is
    /// live) and a triclinic one (every metric term is live).
    #[test]
    fn vgl_paths_bitmatch_the_batched_engine_reference() {
        fn run<T: Real>(lat: Lattice, seed: u64) {
            let g = Grid1::periodic(0.0, 1.0, 10);
            let coefs = crate::synthetic::synthetic_orbitals::<T>(g, g, g, 32, 3, seed);
            check_vgl_paths(SpoSet::new(coefs, lat), seed);
        }
        let triclinic = Lattice::from_rows([[3.0, 0.2, 0.4], [-1.1, 2.7, 0.3], [0.5, -0.6, 5.0]]);
        let metric = build(triclinic, 8, 1).metric;
        assert!(metric.iter().flatten().all(|&x| x != 0.0), "{metric:?}");
        for lat in [Lattice::hexagonal(2.5, 6.0), triclinic] {
            run::<f32>(lat, 5);
            run::<f64>(lat, 6);
        }
    }

    #[test]
    fn batched_sweep_scratch_grows_and_shrinks_view() {
        let lat = Lattice::cubic(4.0);
        let mut spo = build(lat, 12, 2);
        let big: Vec<[f64; 3]> = (0..6)
            .map(|i| lat.to_cart([0.1 * i as f64, 0.3, 0.5]))
            .collect();
        assert_eq!(spo.evaluate_vgl_batch(&big).len(), 6);
        // Smaller follow-up sweep reuses the grown scratch.
        assert_eq!(spo.evaluate_vgl_batch(&big[..2]).len(), 2);
        // Empty sweep is a no-op.
        assert!(spo.evaluate_vgl_batch(&[]).is_empty());
    }

    #[test]
    fn periodic_positions_wrap() {
        let lat = Lattice::hexagonal(3.0, 7.0);
        let mut spo = build(lat, 16, 2);
        let r = lat.to_cart([0.2, 0.8, 0.5]);
        let shift = lat.to_cart([1.0, -1.0, 2.0]);
        let r2 = [r[0] + shift[0], r[1] + shift[1], r[2] + shift[2]];
        let v1 = spo.evaluate_v_one(r).to_vec();
        let v2 = spo.evaluate_v_one(r2).to_vec();
        for k in 0..2 {
            assert!((v1[k] - v2[k]).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "fractional")]
    fn non_unit_grids_rejected() {
        let g = Grid1::periodic(0.0, 2.0, 8);
        let coefs = MultiCoefs::<f64>::new(g, g, g, 2);
        let _ = SpoSet::new(coefs, Lattice::cubic(2.0));
    }
}
