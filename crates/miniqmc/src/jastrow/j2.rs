//! Two-body (electron–electron) Jastrow: `log J2 = −Σ_{i<j} u(r_ij)`.
//!
//! Keeps QMCPACK-style per-electron accumulators `Uat[i] = Σ_{j≠i}
//! u(r_ij)` so a single-particle move ratio is O(N) and acceptance is
//! O(N). The hot loops consume contiguous distance-table rows (the SoA
//! layout payoff) through the functor's row evaluators
//! ([`BsplineFunctor`]): one functor serves every pair, so a row is one
//! contiguous run.
//!
//! The full evaluation visits each pair inside the cutoff once: the
//! distance table holds row `i` over `j < i` only, the functor packs
//! the row's in-cutoff pairs, and each pair's terms go to `i` as row
//! sums and to `j` through O(N) column accumulators. A pair's `u`,
//! `u′/r` and Laplacian term are the same for both electrons, and its
//! gradient differs in sign only; a pair beyond the cutoff would add
//! exact zeros to both. A move ratio reads the moving electron's whole
//! row twice, at the proposed and at the current position, both of
//! which `DistanceTableAA::propose` computes.

use super::{packed_row_sums, JastrowDerivs};
use crate::distance::soa::DistanceTableAA;
use crate::jastrow::BsplineFunctor;

/// Two-body Jastrow term with one radial function `u` for every pair,
/// whatever the spins.
#[derive(Clone, Debug)]
pub struct TwoBodyJastrow {
    u: BsplineFunctor,
    /// Per-electron pair sums `Uat[i] = Σ_{j≠i} u(r_ij)`.
    uat: Vec<f64>,
    /// Scratch: `u(r)` of the proposed row.
    u_new: Vec<f64>,
    /// Scratch: `u(r)` of the current row of the moving electron.
    u_old: Vec<f64>,
    /// Scratch of `evaluate_log`: the `u`, `u′`, `u″` of one
    /// electron's in-cutoff pairs, packed.
    vgl: [Vec<f64>; 3],
    /// Scratch of `evaluate_log`: the column accumulators `∇x, ∇y, ∇z,
    /// ∇²` of `log J2` per electron (`Uat` holds the `Σu` column).
    col: [Vec<f64>; 4],
    /// Scratch of the row evaluators.
    idx: Vec<usize>,
    iel: usize,
}

impl TwoBodyJastrow {
    /// Create with the radial function `u` of every pair.
    pub fn new(u: BsplineFunctor, n_electrons: usize) -> Self {
        let row = vec![0.0; n_electrons];
        Self {
            u,
            uat: row.clone(),
            u_new: row.clone(),
            u_old: row.clone(),
            vgl: [row.clone(), row.clone(), row.clone()],
            col: [row.clone(), row.clone(), row.clone(), row],
            idx: vec![0; n_electrons],
            iel: usize::MAX,
        }
    }

    #[inline]
    /// The radial function of every pair.
    pub fn functor(&self) -> &BsplineFunctor {
        &self.u
    }

    /// Full evaluation: returns `log J2` and adds the per-electron
    /// gradients/Laplacians of `log J2` into `derivs`. Also (re)builds
    /// the `Uat` accumulators. `dist` must be current: no stale rows
    /// (`DistanceTableAA::refresh_stale_rows`).
    ///
    /// Each pair inside the cutoff is evaluated once, from the row of
    /// its higher index: row `i` runs the functor over the `j < i`
    /// inside the cutoff (`BsplineFunctor::vgl_packed`) and hands each
    /// pair's terms, in `j` order, to `i` as row sums and to `j` through
    /// the column accumulators. Row `i`'s sums go into its own column
    /// slot, which no lower row has touched; the rows above add into it
    /// later, and the columns are applied to `derivs` after the loop.
    pub fn evaluate_log(&mut self, dist: &DistanceTableAA, derivs: &mut JastrowDerivs) -> f64 {
        let n = self.uat.len();
        assert_eq!(dist.len(), n);
        self.uat.fill(0.0);
        for c in &mut self.col {
            c.fill(0.0);
        }
        let mut log_sum = 0.0;
        for i in 0..n {
            let row = dist.row(i);
            let out = self.vgl.each_mut().map(|x| &mut x[..i]);
            let m = self.u.vgl_packed(row, &mut self.idx[..i], out);
            let vgl = self.vgl.each_ref().map(|x| &x[..]);
            let [cx, cy, cz, cl] = &mut self.col;
            let [cu, cx, cy, cz, cl] = [&mut self.uat, cx, cy, cz, cl].map(|c| &mut c[..i]);
            // ∇ᵢ log J2 = +Σ u′(r)·(r_j − r_i)/r  (log J2 = −Σu,
            // ∂r/∂rᵢ = −disp/r); ∇ⱼ takes the opposite sign.
            let pair = |j: usize, u: f64, g: [f64; 3], l: f64| {
                cu[j] += u;
                cx[j] -= g[0];
                cy[j] -= g[1];
                cz[j] -= g[2];
                cl[j] -= l;
            };
            let idx = &self.idx[..m];
            let (usum, g, lap) = packed_row_sums(row, idx, vgl, dist.disp_rows(i), pair);
            self.uat[i] += usum;
            for d in 0..3 {
                self.col[d][i] += g[d];
            }
            self.col[3][i] += lap;
            log_sum += usum;
        }
        for i in 0..n {
            for d in 0..3 {
                derivs.grad[i][d] += self.col[d][i];
            }
            derivs.lap[i] += self.col[3][i];
        }
        -log_sum
    }

    /// Move ratio `J2(new)/J2(old)` for electron `iel`, from the
    /// table's proposed and current rows (after
    /// `DistanceTableAA::propose`).
    pub fn ratio(&mut self, dist: &DistanceTableAA, iel: usize) -> f64 {
        let (temp, old) = (dist.temp_row(), dist.old_row());
        self.u.values_row(temp, &mut self.idx, &mut self.u_new);
        self.u.values_row(old, &mut self.idx, &mut self.u_old);
        // The self-pair is no pair.
        (self.u_new[iel], self.u_old[iel]) = (0.0, 0.0);
        let mut du_sum = 0.0;
        for (un, uo) in self.u_new.iter().zip(&self.u_old) {
            du_sum += un - uo;
        }
        self.iel = iel;
        (-du_sum).exp()
    }

    /// Commit the proposed move (call after the distance table accepted
    /// it): repair the `Uat` accumulators in O(N).
    pub fn accept(&mut self, iel: usize) {
        assert_eq!(
            iel, self.iel,
            "accept must follow ratio for the same electron"
        );
        let mut unew_sum = 0.0;
        for ((uat, un), uo) in self.uat.iter_mut().zip(&self.u_new).zip(&self.u_old) {
            *uat += un - uo;
            unew_sum += un;
        }
        self.uat[iel] = unew_sum;
        self.iel = usize::MAX;
    }

    /// `log J2` recovered from the accumulators.
    pub fn log_value(&self) -> f64 {
        -0.5 * self.uat.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jastrow::sum_row;
    use crate::lattice::Lattice;
    use crate::particleset::{random_electrons, ParticleSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, seed: u64) -> (ParticleSet, DistanceTableAA, TwoBodyJastrow) {
        let lat = Lattice::cubic(6.0);
        let ps = random_electrons(lat, n, &mut StdRng::seed_from_u64(seed));
        let dist = DistanceTableAA::new(&ps);
        let u = BsplineFunctor::rpa_like(0.4, 1.2, 2.5, 40);
        let j2 = TwoBodyJastrow::new(u, n);
        (ps, dist, j2)
    }

    fn brute_force_log(ps: &ParticleSet, u: &BsplineFunctor) -> f64 {
        let n = ps.len();
        let lat = ps.lattice();
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let (_, r) = lat.min_image(ps.get(i), ps.get(j));
                s += u.value(r);
            }
        }
        -s
    }

    /// `evaluate_log` as it was before each pair was visited once:
    /// every row over all `n` columns with the self-pair zeroed, summed
    /// by [`sum_row`], so each pair is evaluated from both ends. The
    /// full rows are read pair by pair through `distance` and
    /// `displacement`.
    fn full_rows_reference(
        j2: &mut TwoBodyJastrow,
        dist: &DistanceTableAA,
        derivs: &mut JastrowDerivs,
    ) -> f64 {
        let n = j2.uat.len();
        let mut log_sum = 0.0;
        for i in 0..n {
            let row: Vec<f64> = (0..n).map(|j| dist.distance(i, j)).collect();
            let disp: Vec<[f64; 3]> = (0..n).map(|j| dist.displacement(i, j)).collect();
            let [dx, dy, dz] = [0, 1, 2].map(|d| disp.iter().map(|x| x[d]).collect::<Vec<_>>());
            let out = j2.vgl.each_mut().map(|x| &mut x[..]);
            j2.u.vgl_row(&row, out);
            for x in &mut j2.vgl {
                x[i] = 0.0;
            }
            let vgl = j2.vgl.each_ref().map(|x| &x[..]);
            let (usum, g, lap) = sum_row(&row, vgl, (&dx, &dy, &dz));
            j2.uat[i] = usum;
            for d in 0..3 {
                derivs.grad[i][d] += g[d];
            }
            derivs.lap[i] += lap;
            log_sum += usum;
        }
        -0.5 * log_sum
    }

    /// Row `i`'s pairs with the electrons `j < i` whose distances `r`,
    /// displacements `r_j − r_i` and `[u, u′, u″]` are given, zeros of
    /// the pairs beyond the cutoff included. Returns `i`'s sums as
    /// [`sum_row`] does, with the same `r = 0` select, and adds each
    /// pair's terms for `j` into the column accumulators `[Σu, ∇x, ∇y,
    /// ∇z, ∇²]` of `log J2`.
    fn pair_row(
        r: &[f64],
        [u, du, d2u]: [&[f64]; 3],
        (dx, dy, dz): (&[f64], &[f64], &[f64]),
        col: [&mut [f64]; 5],
    ) -> (f64, [f64; 3], f64) {
        let n = r.len();
        let (u, du, d2u) = (&u[..n], &du[..n], &d2u[..n]);
        let (dx, dy, dz) = (&dx[..n], &dy[..n], &dz[..n]);
        let [cu, cx, cy, cz, cl] = col.map(|c| &mut c[..n]);
        let (mut usum, mut g, mut lap) = (0.0, [0.0f64; 3], 0.0);
        for j in 0..n {
            usum += u[j];
            cu[j] += u[j];
            // False for NaN: a NaN distance is not a coincident pair.
            let coincident = r[j] <= 0.0;
            let du_r = du[j] / r[j];
            let du_r = if coincident { 0.0 } else { du_r };
            let (gx, gy, gz) = (du_r * dx[j], du_r * dy[j], du_r * dz[j]);
            g[0] += gx;
            g[1] += gy;
            g[2] += gz;
            cx[j] -= gx;
            cy[j] -= gy;
            cz[j] -= gz;
            let l = d2u[j] + 2.0 * du_r;
            let l = if coincident { 0.0 } else { l };
            lap -= l;
            cl[j] -= l;
        }
        (usum, g, lap)
    }

    /// `evaluate_log` as it was before it skipped the pairs beyond the
    /// cutoff: each pair once, every row over all `j < i` through
    /// [`BsplineFunctor::vgl_row`]'s zero-filled rows and [`pair_row`].
    fn all_pairs_reference(
        j2: &mut TwoBodyJastrow,
        dist: &DistanceTableAA,
        derivs: &mut JastrowDerivs,
    ) -> f64 {
        let n = j2.uat.len();
        j2.uat.fill(0.0);
        for c in &mut j2.col {
            c.fill(0.0);
        }
        let mut log_sum = 0.0;
        for i in 0..n {
            let row = dist.row(i);
            j2.u.vgl_row(row, j2.vgl.each_mut().map(|x| &mut x[..i]));
            let vgl = j2.vgl.each_ref().map(|x| &x[..i]);
            let [cx, cy, cz, cl] = &mut j2.col;
            let col = [&mut j2.uat, cx, cy, cz, cl].map(|c| &mut c[..i]);
            let (usum, g, lap) = pair_row(row, vgl, dist.disp_rows(i), col);
            j2.uat[i] += usum;
            for d in 0..3 {
                j2.col[d][i] += g[d];
            }
            j2.col[3][i] += lap;
            log_sum += usum;
        }
        for i in 0..n {
            for d in 0..3 {
                derivs.grad[i][d] += j2.col[d][i];
            }
            derivs.lap[i] += j2.col[3][i];
        }
        -log_sum
    }

    /// Bit patterns of `log`, `log_value()` and every gradient and
    /// Laplacian of `evaluate_log` (if `packed`) or of
    /// [`all_pairs_reference`], added into nonzero starting derivatives.
    fn log_derivs_bits(
        u: &BsplineFunctor,
        lat: Lattice,
        pos: &[[f64; 3]],
        packed: bool,
    ) -> Vec<u64> {
        let n = pos.len();
        let dist = DistanceTableAA::new(&ParticleSet::new("e", lat, pos));
        let mut j2 = TwoBodyJastrow::new(u.clone(), n);
        let mut derivs = JastrowDerivs::zeros(n);
        derivs.lap.fill(0.5);
        let log = if packed {
            j2.evaluate_log(&dist, &mut derivs)
        } else {
            all_pairs_reference(&mut j2, &dist, &mut derivs)
        };
        let mut bits = vec![log.to_bits(), j2.log_value().to_bits()];
        bits.extend(derivs.grad.iter().flatten().map(|x| x.to_bits()));
        bits.extend(derivs.lap.iter().map(|x| x.to_bits()));
        bits
    }

    /// The in-cutoff evaluation equals [`all_pairs_reference`] bit for
    /// bit: at n ∈ {1, 2, 17, 256} with one coincident pair (`r = 0`),
    /// on a lattice with every pair beyond the cutoff, and with one
    /// electron at a NaN position, whose NaN reaches the same entries,
    /// its own Laplacian among them.
    #[test]
    fn jastrow_j2_packed_log_bitmatches_the_all_pairs_reference() {
        let u = BsplineFunctor::rpa_like(0.5, 1.0, 2.5, 32);
        let check = |lat: Lattice, pos: &[[f64; 3]]| {
            let packed = log_derivs_bits(&u, lat, pos, true);
            assert_eq!(
                packed,
                log_derivs_bits(&u, lat, pos, false),
                "n={}",
                pos.len()
            );
            packed
        };
        let lat = Lattice::cubic(6.0);
        for n in [1, 2, 17, 256] {
            let mut pos = random_electrons(lat, n, &mut StdRng::seed_from_u64(n as u64)).to_aos();
            if n > 1 {
                pos[n - 1] = pos[0];
            }
            check(lat, &pos);
            if n > 2 {
                pos[1] = [f64::NAN; 3];
                let bits = check(lat, &pos);
                assert!(f64::from_bits(bits[0]).is_nan(), "n={n}: log");
                // A NaN distance is not a coincident pair: the NaN
                // reaches electron 1's Laplacian too.
                let lap = 2 + 3 * n;
                assert!(f64::from_bits(bits[lap + 1]).is_nan(), "n={n}: lap[1]");
            }
        }
        // 3×3×2 sites 8 apart in a 24 box: every pair is beyond 2.5.
        let sites: Vec<[f64; 3]> = (0..18)
            .map(|s| [s % 3, s / 3 % 3, s / 9].map(|k| k as f64 * 8.0))
            .collect();
        let bits = check(Lattice::cubic(24.0), &sites);
        assert!(
            bits[..2 + 3 * 18].iter().all(|&b| f64::from_bits(b) == 0.0),
            "no pair inside"
        );
    }

    /// The pair-once evaluation agrees with [`full_rows_reference`] on
    /// `log J2`, `log_value()`, every gradient and Laplacian: at several
    /// sizes with one coincident pair (`r = 0`), and with every pair
    /// beyond the cutoff.
    #[test]
    fn pair_once_matches_the_full_row_reference() {
        let u = BsplineFunctor::rpa_like(0.5, 1.0, 2.5, 32);
        let check = |lat: Lattice, pos: &[[f64; 3]]| -> f64 {
            let n = pos.len();
            let close = |a: f64, b: f64, what: &str| {
                let tol = 1e-12 * a.abs().max(1.0);
                assert!((a - b).abs() <= tol, "n={n} {what}: {a} vs {b}");
            };
            let dist = DistanceTableAA::new(&ParticleSet::new("e", lat, pos));
            let mut once = TwoBodyJastrow::new(u.clone(), n);
            let mut full = once.clone();
            // Nonzero starting derivatives: both add into them.
            let mut d_once = JastrowDerivs::zeros(n);
            d_once.lap.fill(0.5);
            let mut d_full = d_once.clone();
            let log = once.evaluate_log(&dist, &mut d_once);
            let reference = full_rows_reference(&mut full, &dist, &mut d_full);
            close(log, reference, "log");
            close(once.log_value(), full.log_value(), "log_value");
            close(once.log_value(), log, "log_value against log");
            for i in 0..n {
                for d in 0..3 {
                    let what = format!("grad[{i}][{d}]");
                    close(d_once.grad[i][d], d_full.grad[i][d], &what);
                }
                close(d_once.lap[i], d_full.lap[i], &format!("lap[{i}]"));
            }
            log
        };
        let lat = Lattice::cubic(6.0);
        for n in [1, 2, 3, 17, 256] {
            let mut pos = random_electrons(lat, n, &mut StdRng::seed_from_u64(n as u64)).to_aos();
            if n > 1 {
                pos[n - 1] = pos[0];
            }
            check(lat, &pos);
        }
        // 3×3×2 sites 8 apart in a 24 box: every pair is beyond 2.5.
        let sites: Vec<[f64; 3]> = (0..18)
            .map(|s| [s % 3, s / 3 % 3, s / 9].map(|k| k as f64 * 8.0))
            .collect();
        assert_eq!(check(Lattice::cubic(24.0), &sites), 0.0);
    }

    #[test]
    fn log_matches_brute_force_pair_sum() {
        let (ps, dist, mut j2) = setup(10, 3);
        let mut derivs = JastrowDerivs::zeros(10);
        let log = j2.evaluate_log(&dist, &mut derivs);
        let expect = brute_force_log(&ps, j2.functor());
        assert!((log - expect).abs() < 1e-10, "{log} vs {expect}");
        assert!((j2.log_value() - expect).abs() < 1e-10);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (mut ps, _, mut j2) = setup(8, 7);
        let mut derivs = JastrowDerivs::zeros(8);
        let dist = DistanceTableAA::new(&ps);
        j2.evaluate_log(&dist, &mut derivs);
        let h = 1e-6;
        let iel = 2;
        for d in 0..3 {
            let r0 = ps.get(iel);
            let mut rp = r0;
            rp[d] += h;
            ps.set(iel, rp);
            let fp = brute_force_log(&ps, j2.functor());
            let mut rm = r0;
            rm[d] -= h;
            ps.set(iel, rm);
            let fm = brute_force_log(&ps, j2.functor());
            ps.set(iel, r0);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (derivs.grad[iel][d] - fd).abs() < 1e-6,
                "d={d}: {} vs {fd}",
                derivs.grad[iel][d]
            );
        }
    }

    #[test]
    fn laplacian_matches_finite_difference() {
        let (mut ps, _, mut j2) = setup(6, 11);
        let mut derivs = JastrowDerivs::zeros(6);
        let dist = DistanceTableAA::new(&ps);
        j2.evaluate_log(&dist, &mut derivs);
        let h = 1e-4;
        let iel = 1;
        let f0 = brute_force_log(&ps, j2.functor());
        let mut lap_fd = 0.0;
        let r0 = ps.get(iel);
        for d in 0..3 {
            let mut rp = r0;
            rp[d] += h;
            ps.set(iel, rp);
            let fp = brute_force_log(&ps, j2.functor());
            let mut rm = r0;
            rm[d] -= h;
            ps.set(iel, rm);
            let fm = brute_force_log(&ps, j2.functor());
            ps.set(iel, r0);
            lap_fd += (fp - 2.0 * f0 + fm) / (h * h);
        }
        assert!(
            (derivs.lap[iel] - lap_fd).abs() < 1e-3,
            "{} vs {lap_fd}",
            derivs.lap[iel]
        );
    }

    #[test]
    fn ratio_matches_log_difference() {
        let (mut ps, mut dist, mut j2) = setup(9, 13);
        let mut derivs = JastrowDerivs::zeros(9);
        j2.evaluate_log(&dist, &mut derivs);
        let log_old = brute_force_log(&ps, j2.functor());
        let iel = 4;
        let rnew = [2.9, 0.4, 5.2];
        dist.propose(&ps, iel, rnew);
        let ratio = j2.ratio(&dist, iel);
        ps.set(iel, rnew);
        let log_new = brute_force_log(&ps, j2.functor());
        assert!(
            (ratio - (log_new - log_old).exp()).abs() < 1e-10,
            "{ratio} vs {}",
            (log_new - log_old).exp()
        );
    }

    #[test]
    fn accept_keeps_accumulators_consistent() {
        let (mut ps, mut dist, mut j2) = setup(7, 17);
        let mut derivs = JastrowDerivs::zeros(7);
        j2.evaluate_log(&dist, &mut derivs);
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..20 {
            let iel = step % 7;
            let rnew = [
                6.0 * rng.random::<f64>(),
                6.0 * rng.random::<f64>(),
                6.0 * rng.random::<f64>(),
            ];
            dist.propose(&ps, iel, rnew);
            let _ = j2.ratio(&dist, iel);
            dist.accept(iel);
            j2.accept(iel);
            ps.set(iel, rnew);
        }
        // 20 moves over 7 electrons end mid-sweep: row 6 is stale.
        assert_eq!(dist.refresh_stale_rows(&ps), 1);
        let tracked = j2.log_value();
        let expect = brute_force_log(&ps, j2.functor());
        assert!((tracked - expect).abs() < 1e-10, "{tracked} vs {expect}");
        let fresh = j2.evaluate_log(&dist, &mut JastrowDerivs::zeros(7));
        assert!((tracked - fresh).abs() < 1e-10, "{tracked} vs {fresh}");
    }
}
