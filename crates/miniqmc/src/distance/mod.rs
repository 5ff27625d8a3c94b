//! Distance tables — the second-hottest kernel group of the QMC profile
//! (Tables II/III: 23–39 % of runtime before optimization).
//!
//! A distance table caches minimum-image distances (and displacements)
//! between particle sets, updated incrementally as the VMC driver moves
//! one electron at a time:
//!
//! * [`aos`] — the baseline: positions consumed through AoS rows, one
//!   [`min_image_scalar`] call per pair (how pre-SoA QMCPACK computed
//!   them);
//! * [`soa`] — the optimized version from the paper's companion effort
//!   (Sec. IV: "we optimize Distance-Tables and Jastrow kernels with the
//!   SoA transformation"): coordinate streams through one
//!   register-resident pass that scans only the images that can win.
//!
//! Both produce identical distances; the benchmark harness times them
//! against each other for the Table II → Table III profile shift. The
//! SoA electron–electron table holds the lower triangle only and writes
//! rows only (see [`soa::DistanceTableAA`]); its `distance(i, j)` and
//! `displacement(i, j)` answer for every pair as the AoS table's do.
//!
//! # Which images can win
//!
//! Every kernel first reduces the raw displacement to the central cell,
//! `c = u·A` with `u ∈ [−½,½]³`, then looks for the lattice shift `s`
//! minimizing `|c + s|`. The scalar reference scans the whole first
//! shell (27 candidates, the zero shift included). [`ImageShifts::new`]
//! works out, once per lattice, which of them the SoA kernel may skip.
//! For two candidates `n`, `m`,
//!
//! ```text
//! |c + sₙ|² − |c + sₘ|² = |sₙ|² − |sₘ|² + 2 Σ_b u_b a_b·(sₙ − sₘ)
//!                       ≥ |sₙ|² − |sₘ|² − Σ_b |a_b·(sₙ − sₘ)|,
//! ```
//!
//! with equality at a corner of the cube, so `m` is at least as close
//! as `n` for *every* reduced displacement exactly when
//! `|sₙ|² − |sₘ|² ≥ Σ_b |a_b·(sₙ − sₘ)|`. A shift dominated this way by
//! any other candidate is dropped (equality included, up to the
//! rounding of the comparison's own terms: images that tie at a corner
//! are the rule, not the exception). That leaves nothing for an
//! orthorhombic cell (the reduction already is the minimum image), 4
//! shifts for the hexagonal graphite cells and 14 for a moderately
//! skewed triclinic cell: 27 candidate evaluations per pair become
//! `pruned + 1`.
//!
//! The same test over the second shell (`|nᵢ| ≤ 2`) says whether one
//! shell is enough at all; a cell too skewed for that is refused at
//! construction instead of silently returning non-minimum images.

pub mod aos;
pub mod soa;

use crate::lattice::Lattice;

/// Precomputed periodic-image shifts for one lattice.
#[derive(Clone, Debug)]
pub struct ImageShifts {
    /// Cartesian shift vectors of the whole 27-image shell, the zero
    /// shift included: what the scalar reference scans.
    shifts: Vec<[f64; 3]>,
    /// The non-zero shifts no other candidate dominates, in shell
    /// order: what the SoA kernel scans after the zero shift.
    pruned: Vec<[f64; 3]>,
}

/// All integer triples with every component in `-k..=k`, lexicographic.
fn shell(k: i32) -> impl Iterator<Item = [i32; 3]> {
    (-k..=k).flat_map(move |i| (-k..=k).flat_map(move |j| (-k..=k).map(move |l| [i, j, l])))
}

/// Whether shift `sm` gives an image at least as close as shift `sn`
/// for every displacement of the reduced cell (module docs).
///
/// Equality is the common case, not a corner one — it holds whenever the
/// two images tie at a corner of the cube, as `(1,0,0)` and the zero
/// shift do in a cubic cell — so the comparison allows the rounding of
/// its own terms: a shift kept or dropped by less than that can only
/// win by less than the reduction's own rounding error.
fn dominates(a: &[[f64; 3]; 3], sm: [f64; 3], sn: [f64; 3]) -> bool {
    let dot = |x: [f64; 3], y: [f64; 3]| x[0] * y[0] + x[1] * y[1] + x[2] * y[2];
    let d = [sn[0] - sm[0], sn[1] - sm[1], sn[2] - sm[2]];
    let reach: f64 = a.iter().map(|&ab| dot(ab, d).abs()).sum();
    let sn2 = dot(sn, sn);
    sn2 - dot(sm, sm) >= reach - 64.0 * f64::EPSILON * sn2
}

impl ImageShifts {
    /// Shifts for `lattice`.
    ///
    /// # Panics
    ///
    /// When some second-shell image can be the nearest one, i.e. the
    /// cell is too skewed for a 27-image scan to find the minimum image.
    pub fn new(lattice: &Lattice) -> Self {
        let cart = |n: [i32; 3]| lattice.to_cart(n.map(f64::from));
        let shifts: Vec<[f64; 3]> = shell(1).map(cart).collect();
        let dominated = |s: [f64; 3]| {
            shifts
                .iter()
                .any(|&m| m != s && dominates(&lattice.a, m, s))
        };
        for n in shell(2).filter(|n| n.iter().any(|x| x.abs() == 2)) {
            assert!(
                dominated(cart(n)),
                "lattice {:?} is too skewed for the 27-image shell: image {n:?} can be the nearest",
                lattice.a
            );
        }
        let pruned = shifts
            .iter()
            .copied()
            .filter(|&s| s != [0.0; 3] && !dominated(s))
            .collect();
        Self { shifts, pruned }
    }

    /// The non-zero first-shell shifts that can beat the zero shift for
    /// some displacement of the reduced cell.
    pub fn pruned(&self) -> &[[f64; 3]] {
        &self.pruned
    }
}

/// Edge lengths of a diagonal lattice.
fn diagonal_edges(lattice: &Lattice) -> Option<[f64; 3]> {
    let a = &lattice.a;
    let diagonal = (0..3).all(|i| (0..3).all(|j| i == j || a[i][j] == 0.0));
    diagonal.then(|| [a[0][0], a[1][1], a[2][2]])
}

/// The 27-image scan of [`min_image_scalar`], for any cell.
fn min_image_scan27(
    lattice: &Lattice,
    im: &ImageShifts,
    a: [f64; 3],
    b: [f64; 3],
) -> ([f64; 3], f64) {
    let raw = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
    let mut u = lattice.to_frac(raw);
    for x in &mut u {
        *x -= x.round();
    }
    let base = lattice.to_cart(u);
    let mut best = base;
    let mut best_r2 = f64::INFINITY;
    for s in &im.shifts {
        let c = [base[0] + s[0], base[1] + s[1], base[2] + s[2]];
        let r2 = c[0] * c[0] + c[1] * c[1] + c[2] * c[2];
        if r2 < best_r2 {
            best_r2 = r2;
            best = c;
        }
    }
    (best, best_r2.sqrt())
}

/// Scalar minimum-image displacement `b − a` (shared by the AoS kernels
/// and used as the SoA reference): per-axis `d -= L·round(d/L)` for a
/// diagonal lattice, else fractional reduction and a scan of all 27
/// shifts.
pub fn min_image_scalar(
    lattice: &Lattice,
    im: &ImageShifts,
    a: [f64; 3],
    b: [f64; 3],
) -> ([f64; 3], f64) {
    match diagonal_edges(lattice) {
        Some(edges) => {
            let mut d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
            for (x, l) in d.iter_mut().zip(edges) {
                *x -= l * (*x / l).round();
            }
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            (d, r)
        }
        None => min_image_scan27(lattice, im, a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{graphite_supercell, random_triclinic};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pruned_set_sizes() {
        let sizes = |lat: &Lattice| ImageShifts::new(lat).pruned().len();
        assert_eq!(sizes(&Lattice::cubic(3.0)), 0);
        assert_eq!(sizes(&Lattice::orthorhombic(2.0, 5.0, 0.7)), 0);
        // The corner ties of a hexagonal cell hold only up to the
        // rounding of √3/2: many edge lengths, flat and tall.
        for k in 1..200 {
            let (a, c) = (0.37 * k as f64, 31.0 / k as f64);
            assert_eq!(sizes(&Lattice::hexagonal(a, c)), 4, "a={a} c={c}");
        }
        for (nx, ny, nz) in [(1, 1, 1), (2, 2, 1), (3, 2, 1), (4, 4, 1), (4, 4, 2)] {
            assert_eq!(sizes(&graphite_supercell(nx, ny, nz).0), 4);
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let lat = random_triclinic(&mut rng);
            assert!(sizes(&lat) <= 14, "{:?}", lat.a);
        }
    }

    #[test]
    fn pruned_set_is_symmetric() {
        // What lets the e–e table store one triangle: the candidates for
        // `−c` are the negated candidates for `c`, so row `j`'s entry for
        // `i` is the distance row `i` would hold for `j`.
        let mut rng = StdRng::seed_from_u64(5);
        for lat in [Lattice::hexagonal(3.0, 8.0), random_triclinic(&mut rng)] {
            let im = ImageShifts::new(&lat);
            for s in im.pruned() {
                assert!(im.pruned().contains(&[-s[0], -s[1], -s[2]]), "{s:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "too skewed for the 27-image shell")]
    fn sheared_cell_is_refused() {
        // a₂ leans 3.5 cells along a₁: the nearest image of the reduced
        // displacement (1.54, 0.3, 0) is two a₁ away, at (−0.46, 0.3, 0),
        // and the 27-image scan settles for (0.54, 0.3, 0).
        let lat = Lattice::from_rows([[1.0, 0.0, 0.0], [3.5, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        let (_, r27) = lat.min_image([0.0; 3], [1.54, 0.3, 0.0]);
        assert!(r27 > 0.6 && 0.46f64.hypot(0.3) < 0.55);
        let _ = ImageShifts::new(&lat);
    }

    #[test]
    fn scalar_min_image_matches_lattice_reference() {
        for lat in [
            Lattice::cubic(3.0),
            Lattice::orthorhombic(2.0, 5.0, 7.0),
            Lattice::hexagonal(3.0, 8.0),
        ] {
            let im = ImageShifts::new(&lat);
            let pts = [[0.1, 0.2, 0.3], [2.5, 1.8, 6.5], [-0.9, 3.1, 0.0]];
            for a in pts {
                for b in pts {
                    let (_, r_ref) = lat.min_image(a, b);
                    let (_, r) = min_image_scalar(&lat, &im, a, b);
                    assert!((r - r_ref).abs() < 1e-10, "{lat:?} {a:?} {b:?}");
                }
            }
        }
    }
}
