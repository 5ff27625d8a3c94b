//! Periodic simulation cells: lattice vectors, Cartesian ↔ fractional
//! conversion, minimum-image displacements, and the graphite cells of the
//! paper's CORAL benchmark (Fig. 1b).

/// A periodic simulation cell defined by three row lattice vectors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lattice {
    /// Row-major lattice vectors: `a[i]` is the i-th lattice vector.
    pub a: [[f64; 3]; 3],
    /// Inverse of the lattice matrix (rows), cached.
    inv: [[f64; 3]; 3],
    volume: f64,
}

fn det3(m: &[[f64; 3]; 3]) -> f64 {
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

fn inv3(m: &[[f64; 3]; 3]) -> [[f64; 3]; 3] {
    let d = det3(m);
    assert!(d.abs() > 1e-300, "singular lattice");
    let inv_d = 1.0 / d;
    let mut c = [[0.0; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            let (i1, i2) = ((i + 1) % 3, (i + 2) % 3);
            let (j1, j2) = ((j + 1) % 3, (j + 2) % 3);
            // Cofactor transpose (adjugate) / det.
            c[j][i] = (m[i1][j1] * m[i2][j2] - m[i1][j2] * m[i2][j1]) * inv_d;
        }
    }
    c
}

impl Lattice {
    /// Build from row lattice vectors.
    pub fn from_rows(a: [[f64; 3]; 3]) -> Self {
        let inv = inv3(&a);
        let volume = det3(&a).abs();
        Self { a, inv, volume }
    }

    /// Orthorhombic cell with edge lengths `lx, ly, lz`.
    pub fn orthorhombic(lx: f64, ly: f64, lz: f64) -> Self {
        Self::from_rows([[lx, 0.0, 0.0], [0.0, ly, 0.0], [0.0, 0.0, lz]])
    }

    /// Cubic cell of edge `l`.
    pub fn cubic(l: f64) -> Self {
        Self::orthorhombic(l, l, l)
    }

    /// Hexagonal cell: in-plane lattice constant `a`, height `c`.
    ///
    /// `a1 = a·(1,0,0)`, `a2 = a·(-1/2, √3/2, 0)`, `a3 = (0,0,c)` — the
    /// graphite primitive cell shape.
    pub fn hexagonal(a: f64, c: f64) -> Self {
        let h = 0.5 * 3f64.sqrt();
        Self::from_rows([[a, 0.0, 0.0], [-0.5 * a, h * a, 0.0], [0.0, 0.0, c]])
    }

    /// Cell volume.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.volume
    }

    /// Fractional → Cartesian: `r = u · A` (row vectors).
    #[inline]
    pub fn to_cart(&self, u: [f64; 3]) -> [f64; 3] {
        let mut r = [0.0; 3];
        for (b, row) in self.a.iter().enumerate() {
            for (alpha, ra) in r.iter_mut().enumerate() {
                *ra += u[b] * row[alpha];
            }
        }
        r
    }

    /// Cartesian → fractional: `u = r · A⁻¹`.
    #[inline]
    pub fn to_frac(&self, r: [f64; 3]) -> [f64; 3] {
        let mut u = [0.0; 3];
        for (b, row) in self.inv.iter().enumerate() {
            for (beta, ub) in u.iter_mut().enumerate() {
                *ub += r[b] * row[beta];
            }
        }
        u
    }

    /// The Cartesian→fractional Jacobian `G = A⁻¹` (for gradient/Hessian
    /// transforms of spline outputs evaluated in fractional coordinates:
    /// `∇ᵣ = G ∇ᵤ`, `Hᵣ = G Hᵤ Gᵀ`).
    #[inline]
    pub fn jacobian(&self) -> [[f64; 3]; 3] {
        self.inv
    }

    /// Wrap a Cartesian position into the home cell (fractional
    /// coordinates in `[0,1)`).
    pub fn wrap(&self, r: [f64; 3]) -> [f64; 3] {
        let mut u = self.to_frac(r);
        for ub in &mut u {
            *ub = ub.rem_euclid(1.0);
        }
        self.to_cart(u)
    }

    /// Minimum-image displacement `b − a` (and its length) over the 27
    /// nearest periodic images — exact for cells whose Wigner–Seitz
    /// radius is reached within one image shell (all cells used here).
    pub fn min_image(&self, a: [f64; 3], b: [f64; 3]) -> ([f64; 3], f64) {
        let d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
        let mut u = self.to_frac(d);
        // Reduce to the central cell first, then scan neighbours.
        for ub in &mut u {
            *ub -= ub.round();
        }
        let mut best = [0.0; 3];
        let mut best_r2 = f64::INFINITY;
        for di in -1..=1 {
            for dj in -1..=1 {
                for dk in -1..=1 {
                    let cand = self.to_cart([u[0] + di as f64, u[1] + dj as f64, u[2] + dk as f64]);
                    let r2 = cand[0] * cand[0] + cand[1] * cand[1] + cand[2] * cand[2];
                    if r2 < best_r2 {
                        best_r2 = r2;
                        best = cand;
                    }
                }
            }
        }
        (best, best_r2.sqrt())
    }

    /// Radius of the inscribed sphere of the Wigner–Seitz cell — the
    /// largest safe Jastrow cutoff.
    pub fn wigner_seitz_radius(&self) -> f64 {
        let mut rmin = f64::INFINITY;
        for di in -1i32..=1 {
            for dj in -1i32..=1 {
                for dk in -1i32..=1 {
                    if di == 0 && dj == 0 && dk == 0 {
                        continue;
                    }
                    let t = self.to_cart([di as f64, dj as f64, dk as f64]);
                    let r = 0.5 * (t[0] * t[0] + t[1] * t[1] + t[2] * t[2]).sqrt();
                    rmin = rmin.min(r);
                }
            }
        }
        rmin
    }

    /// Tile the cell `nx × ny × nz` times into a supercell.
    pub fn tile(&self, nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0);
        let mut rows = self.a;
        for (row, n) in rows.iter_mut().zip([nx, ny, nz]) {
            for x in row.iter_mut() {
                *x *= n as f64;
            }
        }
        Self::from_rows(rows)
    }
}

/// Graphite lattice constants in bohr (a = 2.461 Å, c = 6.708 Å —
/// AB-stacked graphite, paper Fig. 1).
pub const GRAPHITE_A: f64 = 4.6507;
/// GRAPHITE C.
pub const GRAPHITE_C: f64 = 12.6765;

/// The 4-carbon AB-stacked graphite primitive cell: lattice + fractional
/// atom positions (A layer at z=0, B layer at z=1/2).
pub fn graphite_primitive() -> (Lattice, Vec<[f64; 3]>) {
    let lat = Lattice::hexagonal(GRAPHITE_A, GRAPHITE_C);
    let frac = vec![
        [0.0, 0.0, 0.0],
        [1.0 / 3.0, 2.0 / 3.0, 0.0],
        [0.0, 0.0, 0.5],
        [2.0 / 3.0, 1.0 / 3.0, 0.5],
    ];
    (lat, frac)
}

/// Tile the graphite primitive cell into an `nx × ny × nz` supercell;
/// returns the supercell lattice and *Cartesian* ion positions
/// (`4·nx·ny·nz` carbons). `(4,4,1)` reproduces the 64-carbon CORAL
/// benchmark cell.
pub fn graphite_supercell(nx: usize, ny: usize, nz: usize) -> (Lattice, Vec<[f64; 3]>) {
    let (prim, frac) = graphite_primitive();
    let sup = prim.tile(nx, ny, nz);
    let mut ions = Vec::with_capacity(4 * nx * ny * nz);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                for f in &frac {
                    let u = [
                        (f[0] + i as f64) / nx as f64,
                        (f[1] + j as f64) / ny as f64,
                        (f[2] + k as f64) / nz as f64,
                    ];
                    ions.push(sup.to_cart(u));
                }
            }
        }
    }
    (sup, ions)
}

/// A random triclinic cell for tests: edges in `2..6`, every
/// off-diagonal component within ±20 % of the shortest edge (skewed,
/// but one image shell still holds every nearest image).
#[cfg(test)]
pub(crate) fn random_triclinic(rng: &mut impl rand::Rng) -> Lattice {
    let edges: [f64; 3] = std::array::from_fn(|_| 2.0 + 4.0 * rng.random::<f64>());
    let skew = 0.2 * edges.iter().fold(f64::INFINITY, |m, &e| m.min(e));
    Lattice::from_rows(std::array::from_fn(|i| {
        std::array::from_fn(|j| {
            if i == j {
                edges[i]
            } else {
                skew * (2.0 * rng.random::<f64>() - 1.0)
            }
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cart_frac_round_trip() {
        let lat = Lattice::hexagonal(2.0, 5.0);
        let r = [0.7, 1.3, 2.9];
        let u = lat.to_frac(r);
        let r2 = lat.to_cart(u);
        for d in 0..3 {
            assert!((r[d] - r2[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn volume_of_known_cells() {
        assert!((Lattice::cubic(2.0).volume() - 8.0).abs() < 1e-12);
        let hexa = Lattice::hexagonal(1.0, 1.0);
        assert!((hexa.volume() - 0.5 * 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn jacobian_is_inverse() {
        let lat = Lattice::hexagonal(3.1, 7.7);
        let g = lat.jacobian();
        // A · G = I (row convention: (A G)_{ij} = Σ_k a[i][k] g[k][j])
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for (k, gk) in g.iter().enumerate() {
                    s += lat.a[i][k] * gk[j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn min_image_cubic_matches_direct() {
        let lat = Lattice::cubic(4.0);
        let (d, r) = lat.min_image([0.5, 0.5, 0.5], [3.9, 0.5, 0.5]);
        assert!((r - 0.6).abs() < 1e-12);
        assert!((d[0] + 0.6).abs() < 1e-12, "wraps to negative x: {d:?}");
    }

    #[test]
    fn min_image_is_symmetric_and_bounded() {
        let lat = Lattice::hexagonal(3.0, 8.0);
        let rc = lat.wigner_seitz_radius();
        let pts = [
            [0.1, 0.2, 0.3],
            [2.9, 0.1, 7.9],
            [1.5, 1.5, 4.0],
            [-1.0, 2.0, 9.0],
        ];
        for a in pts {
            for b in pts {
                let (dab, rab) = lat.min_image(a, b);
                let (dba, rba) = lat.min_image(b, a);
                assert!((rab - rba).abs() < 1e-10);
                for d in 0..3 {
                    assert!((dab[d] + dba[d]).abs() < 1e-10);
                }
                // Never longer than the direct displacement.
                let direct =
                    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
                assert!(rab <= direct + 1e-12);
                let _ = rc;
            }
        }
    }

    #[test]
    fn min_image_invariant_under_lattice_translations() {
        let lat = Lattice::hexagonal(2.5, 6.0);
        let a = [0.3, 0.4, 0.5];
        let b = [1.9, 0.2, 5.0];
        let (_, r0) = lat.min_image(a, b);
        let shift = lat.to_cart([1.0, -2.0, 3.0]);
        let b2 = [b[0] + shift[0], b[1] + shift[1], b[2] + shift[2]];
        let (_, r1) = lat.min_image(a, b2);
        assert!((r0 - r1).abs() < 1e-9);
    }

    #[test]
    fn wigner_seitz_radius_cubic() {
        assert!((Lattice::cubic(2.0).wigner_seitz_radius() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_puts_points_in_cell() {
        let lat = Lattice::hexagonal(2.0, 4.0);
        let r = lat.wrap([-5.0, 7.0, 9.5]);
        let u = lat.to_frac(r);
        for d in 0..3 {
            assert!((0.0..1.0).contains(&u[d]), "u[{d}]={}", u[d]);
        }
    }

    #[test]
    fn tiling_scales_volume() {
        let (prim, atoms) = graphite_primitive();
        assert_eq!(atoms.len(), 4);
        let sup = prim.tile(4, 4, 1);
        assert!((sup.volume() - 16.0 * prim.volume()).abs() < 1e-9);
    }

    #[test]
    fn coral_4x4x1_has_64_carbons() {
        let (sup, ions) = graphite_supercell(4, 4, 1);
        assert_eq!(ions.len(), 64);
        // All ions inside the supercell.
        for r in &ions {
            let u = sup.to_frac(*r);
            for d in 0..3 {
                assert!((-1e-12..1.0).contains(&u[d]), "u[{d}]={}", u[d]);
            }
        }
        // Nearest-neighbour C-C distance ≈ a/√3 = 2.685 bohr.
        let (_, r01) = sup.min_image(ions[0], ions[1]);
        assert!((r01 - GRAPHITE_A / 3f64.sqrt()).abs() < 1e-6, "r01={r01}");
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_lattice_rejected() {
        let _ = Lattice::from_rows([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]);
    }
}
