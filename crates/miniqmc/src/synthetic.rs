//! Synthetic workload construction.
//!
//! The paper's benchmarks use DFT-generated graphite orbitals (CORAL
//! 4×4×1). We do not have those coefficient files, so we substitute
//! synthetic inputs that exercise identical code paths: the kernels
//! read the same table shapes whatever the coefficient values.
//!
//! * [`synthetic_orbitals`] — smooth periodic orbitals built from a few
//!   low-|k| Fourier modes, fitted through the real coefficient solver.
//!   Used for physics-facing correctness (determinants, VMC).
//! * [`random_coefficients`] — coefficient tables filled with random
//!   numbers, exactly like miniQMC's benchmark table (paper Fig. 3 L9).
//!   Kernel cost depends only on grid size and N, not values.
//! * [`plane_wave_shell`] — a closed shell of real plane waves, whose
//!   Slater determinant has a closed-form local kinetic energy. Used for
//!   checks against analytic values (spline error order, zero variance).
//! * [`CoralSystem`] — the graphite supercell + electron counts + grid of
//!   the CORAL benchmark family (`4×4×1` → 64 C, 256 electrons, 128
//!   orbitals per spin, grid 48×48×60).
//!
//! Both fitted builders hand their samples to
//! [`MultiCoefs::interpolate`], one orbital at a time, which solves the
//! whole table in place across its orbitals; the coefficients are those
//! of a `Spline3` fit per orbital, bit for bit.

use crate::lattice::{graphite_supercell, Lattice};
use crate::particleset::ParticleSet;
use einspline::{Grid1, MultiCoefs, Real};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A low-|k| Fourier mode of the unit cube.
#[derive(Clone, Copy, Debug)]
struct Mode {
    k: [i32; 3],
    re: f64,
    im: f64,
}

/// Build `n_orbitals` smooth periodic orbitals on the given grids by
/// summing `n_modes` random low-frequency Fourier modes each, then
/// fitting interpolating B-spline coefficients (the full einspline
/// pipeline, [`MultiCoefs::interpolate`]). Deterministic per seed: the
/// modes are drawn orbital by orbital.
pub fn synthetic_orbitals<T: Real>(
    gx: Grid1,
    gy: Grid1,
    gz: Grid1,
    n_orbitals: usize,
    n_modes: usize,
    seed: u64,
) -> MultiCoefs<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (nx, ny, nz) = (gx.num(), gy.num(), gz.num());
    MultiCoefs::interpolate(gx, gy, gz, n_orbitals, |orb, data| {
        // Low-|k| shell: components in [-2, 2]; ensure a non-zero k.
        let modes: Vec<Mode> = (0..n_modes)
            .map(|_| {
                let mut k = [0i32; 3];
                while k == [0, 0, 0] {
                    for kd in &mut k {
                        *kd = rng.random_range(-2..=2);
                    }
                }
                Mode {
                    k,
                    re: rng.random::<f64>() - 0.5,
                    im: rng.random::<f64>() - 0.5,
                }
            })
            .collect();

        data.iter_mut().for_each(|x| *x = 0.0);
        for m in &modes {
            // Separable complex exponentials: e^{2πi k·u} =
            // ex[i]·ey[j]·ez[k]; cheap per grid point.
            let phase = |n: usize, kk: i32| -> Vec<(f64, f64)> {
                (0..n)
                    .map(|i| {
                        let t = 2.0 * std::f64::consts::PI * kk as f64 * i as f64 / n as f64;
                        (t.cos(), t.sin())
                    })
                    .collect()
            };
            let ex = phase(nx, m.k[0]);
            let ey = phase(ny, m.k[1]);
            let ez = phase(nz, m.k[2]);
            for i in 0..nx {
                for j in 0..ny {
                    // (ex·ey) once per (i,j).
                    let xr = ex[i].0 * ey[j].0 - ex[i].1 * ey[j].1;
                    let xi = ex[i].0 * ey[j].1 + ex[i].1 * ey[j].0;
                    let row = &mut data[(i * ny + j) * nz..(i * ny + j + 1) * nz];
                    for (k, d) in row.iter_mut().enumerate() {
                        let zr = xr * ez[k].0 - xi * ez[k].1;
                        let zi = xr * ez[k].1 + xi * ez[k].0;
                        *d += m.re * zr - m.im * zi;
                    }
                }
            }
        }
        // A constant offset keeps determinants well-conditioned for the
        // lowest orbital and mimics the occupied-band envelope.
        if orb == 0 {
            for d in data.iter_mut() {
                *d += 2.0;
            }
        }
    })
}

/// The real plane waves of the closed shells `|n|² ≤ shell`, fitted
/// on a periodic `grid³` fractional grid: each orbital is
/// `cos(G·r − φ)` with `G = 2π A⁻¹ n` for an integer vector `n` — the
/// constant (`n = 0`), then for one `n` of each `±n` pair its cosine
/// (`φ = 0`) and sine (`φ = π/2`), shell by shell. Returns the table and
/// each orbital's Cartesian `(G, φ)`.
///
/// In [`Lattice::cubic`] the shells of `|n|²` are the closed shells of
/// `|G|` (1, 7, 19, 27 orbitals for `shell` = 0, 1, 2, 3), and every
/// orbital is an eigenfunction of `−½∇²` with eigenvalue `½|G|²`. So a
/// determinant of them, with no Jastrow, has the local kinetic energy
/// `½ Σ|G|²` at every configuration: a zero-variance wavefunction.
pub fn plane_wave_shell<T: Real>(
    lattice: Lattice,
    shell: usize,
    grid: usize,
) -> (MultiCoefs<T>, Vec<([f64; 3], f64)>) {
    let tau = 2.0 * std::f64::consts::PI;
    let reach = (shell as f64).sqrt() as i32;
    let mut ns: Vec<[i32; 3]> = Vec::new();
    for a in -reach..=reach {
        for b in -reach..=reach {
            for c in -reach..=reach {
                let n = [a, b, c];
                let n2 = (a * a + b * b + c * c) as usize;
                // One of each ±n pair: its first non-zero component > 0.
                if n2 <= shell && n.iter().find(|&&x| x != 0).is_none_or(|&x| x > 0) {
                    ns.push(n);
                }
            }
        }
    }
    ns.sort_by_key(|n| (n[0] * n[0] + n[1] * n[1] + n[2] * n[2], *n));

    let inv = lattice.jacobian();
    let mut waves = Vec::new();
    for n in &ns {
        let g = inv.map(|row| tau * (0..3).map(|b| row[b] * n[b] as f64).sum::<f64>());
        waves.push((*n, g, 0.0));
        if *n != [0, 0, 0] {
            waves.push((*n, g, std::f64::consts::FRAC_PI_2));
        }
    }

    let g1 = Grid1::periodic(0.0, 1.0, grid);
    let coefs = MultiCoefs::interpolate(g1, g1, g1, waves.len(), |orb, data| {
        let (n, _, phi) = waves[orb];
        for (idx, d) in data.iter_mut().enumerate() {
            let u = [idx / (grid * grid), idx / grid % grid, idx % grid];
            let nu: f64 = (0..3).map(|b| n[b] as f64 * u[b] as f64).sum();
            *d = (tau * nu / grid as f64 - phi).cos();
        }
    });
    (
        coefs,
        waves.into_iter().map(|(_, g, phi)| (g, phi)).collect(),
    )
}

/// Random coefficient table on a `nx×ny×nz` fractional grid — the
/// benchmark path (miniQMC `bSpline(nx,ny,nz,N)` with random init).
pub fn random_coefficients<T: Real>(
    nx: usize,
    ny: usize,
    nz: usize,
    n_splines: usize,
    seed: u64,
) -> MultiCoefs<T> {
    let gx = Grid1::periodic(0.0, 1.0, nx);
    let gy = Grid1::periodic(0.0, 1.0, ny);
    let gz = Grid1::periodic(0.0, 1.0, nz);
    let mut m = MultiCoefs::<T>::new(gx, gy, gz, n_splines);
    m.fill_random(&mut StdRng::seed_from_u64(seed));
    m
}

/// The CORAL graphite benchmark family (paper Sec. IV): an
/// `nx×ny×nz` tiling of the 4-carbon AB-stacked graphite cell.
#[derive(Clone, Debug)]
pub struct CoralSystem {
    /// Supercell lattice.
    pub lattice: Lattice,
    /// Carbon ions (Cartesian).
    pub ions: ParticleSet,
    /// Electrons per spin channel = orbitals N (4 valence e⁻ per C, two
    /// spins).
    pub n_per_spin: usize,
    /// Spline grids (fractional unit cube).
    pub grids: (Grid1, Grid1, Grid1),
}

impl CoralSystem {
    /// `CoralSystem::new(4, 4, 1, (48, 48, 60))` is the paper's baseline
    /// benchmark: 64 carbons, 256 electrons, N = 128 SPOs.
    pub fn new(nx: usize, ny: usize, nz: usize, grid: (usize, usize, usize)) -> Self {
        let (lattice, ion_pos) = graphite_supercell(nx, ny, nz);
        let ions = ParticleSet::new("ion", lattice, &ion_pos);
        let n_carbon = ion_pos.len();
        Self {
            lattice,
            ions,
            n_per_spin: 2 * n_carbon,
            grids: (
                Grid1::periodic(0.0, 1.0, grid.0),
                Grid1::periodic(0.0, 1.0, grid.1),
                Grid1::periodic(0.0, 1.0, grid.2),
            ),
        }
    }

    /// Total electrons (both spins).
    pub fn n_electrons(&self) -> usize {
        2 * self.n_per_spin
    }

    /// Fitted synthetic orbitals for this system.
    pub fn orbitals<T: Real>(&self, seed: u64) -> MultiCoefs<T> {
        synthetic_orbitals(
            self.grids.0,
            self.grids.1,
            self.grids.2,
            self.n_per_spin,
            6,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bspline::SpoEngine;

    #[test]
    fn coral_4x4x1_counts_match_paper() {
        let sys = CoralSystem::new(4, 4, 1, (48, 48, 60));
        assert_eq!(sys.ions.len(), 64);
        assert_eq!(sys.n_electrons(), 256);
        assert_eq!(sys.n_per_spin, 128);
        assert_eq!(sys.grids.0.num(), 48);
        assert_eq!(sys.grids.2.num(), 60);
    }

    #[test]
    fn synthetic_orbitals_are_periodic_and_smooth() {
        let g = Grid1::periodic(0.0, 1.0, 12);
        let coefs = synthetic_orbitals::<f64>(g, g, g, 3, 4, 7);
        let engine = bspline::BsplineSoA::new(coefs);
        let mut out = bspline::WalkerSoA::new(3);
        engine.v([0.25, 0.5, 0.75], &mut out);
        let a: Vec<f64> = (0..3).map(|k| out.value(k)).collect();
        engine.v([1.25, -0.5, 0.75], &mut out);
        for k in 0..3 {
            assert!((a[k] - out.value(k)).abs() < 1e-12, "periodicity k={k}");
        }
        // Orbital 0 carries the +2 offset.
        assert!(a[0] > 0.5, "offset present: {}", a[0]);
    }

    #[test]
    fn synthetic_orbitals_deterministic_by_seed() {
        let g = Grid1::periodic(0.0, 1.0, 8);
        let a = synthetic_orbitals::<f32>(g, g, g, 2, 3, 42);
        let b = synthetic_orbitals::<f32>(g, g, g, 2, 3, 42);
        let c = synthetic_orbitals::<f32>(g, g, g, 2, 3, 43);
        assert_eq!(a.line(2, 3, 4), b.line(2, 3, 4));
        assert_ne!(a.line(2, 3, 4), c.line(2, 3, 4));
    }

    #[test]
    fn distinct_orbitals_differ() {
        let g = Grid1::periodic(0.0, 1.0, 8);
        let coefs = synthetic_orbitals::<f64>(g, g, g, 4, 4, 11);
        let line = coefs.line(4, 4, 4);
        assert_ne!(line[1], line[2]);
        assert_ne!(line[2], line[3]);
    }

    #[test]
    fn plane_wave_shells_are_closed() {
        let lat = Lattice::cubic(2.0);
        for (shell, count) in [(0, 1), (1, 7), (2, 19), (3, 27)] {
            let (coefs, waves) = plane_wave_shell::<f64>(lat, shell, 4);
            assert_eq!(
                (coefs.n_splines(), waves.len()),
                (count, count),
                "shell {shell}"
            );
        }
        // Shell 1 in a cube of side 2: |G| = π for the six non-constant
        // orbitals, cos then sin of each.
        let (_, waves) = plane_wave_shell::<f64>(lat, 1, 4);
        assert_eq!(waves[0], ([0.0; 3], 0.0));
        for (g, phi) in &waves[1..] {
            let g2: f64 = g.iter().map(|x| x * x).sum();
            assert!((g2 - std::f64::consts::PI.powi(2)).abs() < 1e-12);
            assert!(*phi == 0.0 || *phi == std::f64::consts::FRAC_PI_2);
        }
    }

    #[test]
    fn random_coefficients_match_grid_shape() {
        let m = random_coefficients::<f32>(6, 8, 10, 32, 3);
        assert_eq!(m.n_splines(), 32);
        let (gx, gy, gz) = m.grids();
        assert_eq!((gx.num(), gy.num(), gz.num()), (6, 8, 10));
    }
}
