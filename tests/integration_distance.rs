//! The SoA distance kernel against the scalar reference (ISSUE 14): for
//! random cells of every shape and ragged row lengths, both
//! instantiations of `distances_to_point` — the baseline one
//! (`with_backend(Scalar)`) and the one this host runs — must give the
//! reference's bits on non-diagonal cells, and agree to rounding on
//! diagonal ones, where the reference divides by the edge and the kernel
//! multiplies by its inverse. And a call allocates nothing.

use bspline::simd::{active_backend, with_backend, Backend};
use miniqmc::distance::soa::{distances_to_point, DistanceTableAA, DistanceTableAB};
use miniqmc::distance::{min_image_scalar, ImageShifts};
use miniqmc::lattice::{graphite_supercell, Lattice};
use miniqmc::particleset::{random_electrons, ParticleSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (the test harness runs the tests of
/// this file on several threads at once).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers to the system allocator; the counter is a
// const-initialized thread-local without a destructor, so touching it
// from inside the allocator neither allocates nor runs after teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SIZES: [usize; 7] = [1, 3, 7, 9, 64, 255, 256];

/// Cell `kind`: cubic, orthorhombic, hexagonal, or triclinic with
/// off-diagonal components `skew` (in units of a fifth of the shortest
/// edge).
fn cell(kind: usize, edges: [f64; 3], skew: &[f64]) -> Lattice {
    match kind {
        0 => Lattice::cubic(edges[0]),
        1 => Lattice::orthorhombic(edges[0], edges[1], edges[2]),
        2 => Lattice::hexagonal(edges[0], edges[2]),
        _ => {
            let unit = 0.2 * edges.iter().fold(f64::INFINITY, |m, &e| m.min(e));
            let mut off = skew.iter().map(|s| unit * s);
            Lattice::from_rows(std::array::from_fn(|i| {
                std::array::from_fn(|j| {
                    if i == j {
                        edges[i]
                    } else {
                        off.next().expect("six off-diagonals")
                    }
                })
            }))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn soa_rows_equal_the_scalar_reference(
        kind in 0usize..4,
        size in 0usize..7,
        seed in 0u64..1_000_000,
        lx in 2.0f64..6.0,
        ly in 2.0f64..6.0,
        lz in 2.0f64..6.0,
        skew in prop::collection::vec(-1.0f64..1.0, 6..7),
    ) {
        let lat = cell(kind, [lx, ly, lz], &skew);
        let im = ImageShifts::new(&lat);
        let n = SIZES[size];
        let mut rng = StdRng::seed_from_u64(seed);
        let ps = random_electrons(lat, n, &mut rng);
        let p = lat.to_cart([rng.random(), rng.random(), rng.random()]);
        let (sx, sy, sz) = ps.soa();
        for backend in [Backend::Scalar, active_backend()] {
            let (mut r, mut dx, mut dy, mut dz) =
                (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            with_backend(backend, || {
                distances_to_point(&lat, &im, sx, sy, sz, p, &mut r, &mut dx, &mut dy, &mut dz)
            });
            for j in 0..n {
                let (d, r_ref) = min_image_scalar(&lat, &im, p, ps.get(j));
                if kind < 2 {
                    prop_assert!((r[j] - r_ref).abs() <= 1e-12 * r_ref, "{} vs {}", r[j], r_ref);
                } else {
                    prop_assert_eq!(
                        [r[j], dx[j], dy[j], dz[j]].map(f64::to_bits),
                        [r_ref, d[0], d[1], d[2]].map(f64::to_bits),
                        "{} kind {} n {} j {}", backend, kind, n, j
                    );
                }
            }
        }
    }
}

#[test]
fn a_move_allocates_nothing() {
    let (lat, ions_pos) = graphite_supercell(2, 2, 1);
    let ions = ParticleSet::new("ion", lat, &ions_pos);
    let ps = random_electrons(lat, 37, &mut StdRng::seed_from_u64(9));
    let mut ee = DistanceTableAA::new(&ps);
    let mut ei = DistanceTableAB::new(&ions, &ps);
    let before = ALLOCATIONS.with(Cell::get);
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(
        ALLOCATIONS.with(Cell::get),
        before + 1,
        "the counter counts"
    );
    for backend in [Backend::Scalar, active_backend()] {
        with_backend(backend, || {
            let before = ALLOCATIONS.with(Cell::get);
            // Accepts and rejects, in reverse order so that every row
            // above an accepted move goes stale.
            for iel in (0..ps.len()).rev() {
                let rnew = [0.1 * iel as f64, 1.0, 2.0];
                ee.propose(&ps, iel, rnew);
                ei.propose(iel, rnew);
                if iel % 3 == 0 {
                    ee.reject(iel);
                } else {
                    ee.accept(iel);
                    ei.accept(iel);
                }
            }
            assert!(ee.refresh_stale_rows(&ps) > 0);
            ee.rebuild(&ps);
            ei.rebuild(&ps);
            assert_eq!(ALLOCATIONS.with(Cell::get), before, "{backend}");
        });
    }
}
