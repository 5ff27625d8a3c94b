//! Baseline AoS distance tables: per-pair scalar minimum-image scans over
//! `[x,y,z]` position rows — the pre-SoA QMCPACK implementation the
//! Table II profile was measured with.
//!
//! Same API and results as [`super::soa`]; only the memory access pattern
//! differs (AoS rows, pairwise scalar kernel, no stream reuse).

use super::{min_image_scalar, ImageShifts};
use crate::lattice::Lattice;
use crate::particleset::ParticleSet;

/// Same-species AoS distance table.
#[derive(Clone, Debug)]
pub struct DistanceTableAAAoS {
    n: usize,
    lattice: Lattice,
    im: ImageShifts,
    /// `table[i][j] = (displacement, distance)` from i to j.
    table: Vec<([f64; 3], f64)>,
    tmp: Vec<([f64; 3], f64)>,
}

impl DistanceTableAAAoS {
    /// Create a new instance.
    pub fn new(ps: &ParticleSet) -> Self {
        let n = ps.len();
        let mut t = Self {
            n,
            lattice: *ps.lattice(),
            im: ImageShifts::new(ps.lattice()),
            table: vec![([0.0; 3], 0.0); n * n],
            tmp: vec![([0.0; 3], 0.0); n],
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

    /// Full table recompute from current positions.
    pub fn rebuild(&mut self, ps: &ParticleSet) {
        let rows = ps.to_aos();
        for i in 0..self.n {
            for j in 0..self.n {
                self.table[i * self.n + j] = if i == j {
                    ([0.0; 3], 0.0)
                } else {
                    min_image_scalar(&self.lattice, &self.im, rows[i], rows[j])
                };
            }
        }
    }

    #[inline]
    /// Cached minimum-image distance between two particles.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.table[i * self.n + j].1
    }

    #[inline]
    /// Cached minimum-image displacement between two particles.
    pub fn displacement(&self, i: usize, j: usize) -> [f64; 3] {
        self.table[i * self.n + j].0
    }

    /// Compute the scratch row for a proposed single-particle move.
    pub fn propose(&mut self, ps: &ParticleSet, iel: usize, rnew: [f64; 3]) {
        for j in 0..self.n {
            self.tmp[j] = if j == iel {
                ([0.0; 3], 0.0)
            } else {
                min_image_scalar(&self.lattice, &self.im, rnew, ps.get(j))
            };
        }
    }

    #[inline]
    /// Scratch-row distance from the last proposal.
    pub fn temp_distance(&self, j: usize) -> f64 {
        self.tmp[j].1
    }

    #[inline]
    /// Scratch-row displacement from the last proposal.
    pub fn temp_displacement(&self, j: usize) -> [f64; 3] {
        self.tmp[j].0
    }

    /// Commit the proposed move.
    pub fn accept(&mut self, iel: usize) {
        for j in 0..self.n {
            self.table[iel * self.n + j] = self.tmp[j];
            let (d, r) = self.tmp[j];
            self.table[j * self.n + iel] = ([-d[0], -d[1], -d[2]], r);
        }
    }
}

/// Two-species AoS table (fixed ion sources).
#[derive(Clone, Debug)]
pub struct DistanceTableABAoS {
    n_src: usize,
    n_tgt: usize,
    lattice: Lattice,
    im: ImageShifts,
    sources: Vec<[f64; 3]>,
    table: Vec<([f64; 3], f64)>,
    tmp: Vec<([f64; 3], f64)>,
}

impl DistanceTableABAoS {
    /// Create a new instance.
    pub fn new(sources: &ParticleSet, targets: &ParticleSet) -> Self {
        let n_src = sources.len();
        let n_tgt = targets.len();
        let mut t = Self {
            n_src,
            n_tgt,
            lattice: *targets.lattice(),
            im: ImageShifts::new(targets.lattice()),
            sources: sources.to_aos(),
            table: vec![([0.0; 3], 0.0); n_src * n_tgt],
            tmp: vec![([0.0; 3], 0.0); n_src],
        };
        t.rebuild(targets);
        t
    }

    #[inline]
    /// Number of source particles (ions).
    pub fn n_sources(&self) -> usize {
        self.n_src
    }

    /// Full table recompute from current positions.
    pub fn rebuild(&mut self, targets: &ParticleSet) {
        for e in 0..self.n_tgt {
            let re = targets.get(e);
            for i in 0..self.n_src {
                self.table[e * self.n_src + i] =
                    min_image_scalar(&self.lattice, &self.im, re, self.sources[i]);
            }
        }
    }

    #[inline]
    /// Cached minimum-image distance between two particles.
    pub fn distance(&self, e: usize, i: usize) -> f64 {
        self.table[e * self.n_src + i].1
    }

    #[inline]
    /// Cached minimum-image displacement between two particles.
    pub fn displacement(&self, e: usize, i: usize) -> [f64; 3] {
        self.table[e * self.n_src + i].0
    }

    /// Compute the scratch row for a proposed single-particle move.
    pub fn propose(&mut self, rnew: [f64; 3]) {
        for i in 0..self.n_src {
            self.tmp[i] = min_image_scalar(&self.lattice, &self.im, rnew, self.sources[i]);
        }
    }

    #[inline]
    /// Scratch-row distance from the last proposal.
    pub fn temp_distance(&self, i: usize) -> f64 {
        self.tmp[i].1
    }

    /// Commit the proposed move.
    pub fn accept(&mut self, iel: usize) {
        let lo = iel * self.n_src;
        self.table[lo..lo + self.n_src].copy_from_slice(&self.tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::soa::{DistanceTableAA, DistanceTableAB};
    use crate::lattice::graphite_supercell;
    use crate::particleset::random_electrons;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn aos_and_soa_tables_agree() {
        for lat in [Lattice::cubic(5.0), Lattice::hexagonal(3.5, 9.0)] {
            let ps = random_electrons(lat, 14, &mut StdRng::seed_from_u64(23));
            let aos = DistanceTableAAAoS::new(&ps);
            let soa = DistanceTableAA::new(&ps);
            for i in 0..14 {
                for j in 0..14 {
                    assert!(
                        (aos.distance(i, j) - soa.distance(i, j)).abs() < 1e-10,
                        "({i},{j})"
                    );
                    let (da, ds) = (aos.displacement(i, j), soa.displacement(i, j));
                    for d in 0..3 {
                        assert!((da[d] - ds[d]).abs() < 1e-10);
                    }
                }
            }
        }
    }

    #[test]
    fn aos_propose_accept_matches_soa() {
        let lat = Lattice::hexagonal(3.0, 8.0);
        let mut ps = random_electrons(lat, 8, &mut StdRng::seed_from_u64(29));
        let mut aos = DistanceTableAAAoS::new(&ps);
        let mut soa = DistanceTableAA::new(&ps);
        let rnew = [0.9, 1.1, 4.0];
        aos.propose(&ps, 3, rnew);
        soa.propose(&ps, 3, rnew);
        for j in 0..8 {
            assert!((aos.temp_distance(j) - soa.temp_row()[j]).abs() < 1e-10);
        }
        aos.accept(3);
        soa.accept(3);
        // The SoA table writes row 3 only; rows 4..8 are recomputed.
        ps.set(3, rnew);
        assert_eq!(soa.refresh_stale_rows(&ps), 4);
        for i in 0..8 {
            for j in 0..8 {
                assert!((aos.distance(i, j) - soa.distance(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn ab_aos_matches_soa() {
        let (lat, ions_pos) = graphite_supercell(2, 1, 1);
        let ions = ParticleSet::new("ion", lat, &ions_pos);
        let els = random_electrons(lat, 5, &mut StdRng::seed_from_u64(31));
        let aos = DistanceTableABAoS::new(&ions, &els);
        let soa = DistanceTableAB::new(&ions, &els);
        for e in 0..5 {
            for i in 0..aos.n_sources() {
                assert!((aos.distance(e, i) - soa.row(e)[i]).abs() < 1e-10);
            }
        }
    }
}
