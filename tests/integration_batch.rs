//! Property tests for the batched multi-walker evaluation API: for all
//! three layout engines, `eval_batch` with each kernel tag must
//! *bit-match* the scalar `v`/`vgl`/`vgh` loop over the same positions
//! — the batched paths reorder only independent work (hoisted basis
//! weights, block-major loop order), never the per-(position, orbital)
//! arithmetic. Batch sizes 0 and 1 are covered explicitly.

use bspline::{
    BatchOut, BsplineAoS, BsplineAoSoA, BsplineSoA, Kernel, PosBlock, SpoEngine,
};
use einspline::{Grid1, MultiCoefs};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_table(n: usize, seed: u64) -> MultiCoefs<f32> {
    let g = Grid1::periodic(0.0, 1.0, 5);
    let mut table = MultiCoefs::<f32>::new(g, g, g, n);
    table.fill_random(&mut StdRng::seed_from_u64(seed));
    table
}

fn random_block(ns: usize, seed: u64) -> PosBlock<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ns)
        .map(|_| {
            [
                rng.random::<f32>(),
                rng.random::<f32>(),
                rng.random::<f32>(),
            ]
        })
        .collect()
}

/// Scalar reference: one engine call per position into its own block.
fn scalar_loop<E: SpoEngine<f32>>(
    engine: &E,
    kernel: Kernel,
    pos: &PosBlock<f32>,
) -> BatchOut<E::Out> {
    let mut out = engine.make_batch_out(pos.len());
    for (i, p) in pos.iter().enumerate() {
        engine.eval(kernel, p, out.block_mut(i));
    }
    out
}

/// Assert the kernel-relevant accessors bit-match between two blocks.
fn assert_bitmatch<O>(kernel: Kernel, n: usize, batch: &O, scalar: &O, ctx: &str)
where
    O: ValueView,
{
    for k in 0..n {
        assert_eq!(batch.value_at(k), scalar.value_at(k), "{ctx} v[{k}]");
        match kernel {
            Kernel::V => {}
            Kernel::Vgl => {
                assert_eq!(batch.gradient_at(k), scalar.gradient_at(k), "{ctx} g[{k}]");
                assert_eq!(
                    batch.laplacian_at(k),
                    scalar.laplacian_at(k),
                    "{ctx} l[{k}]"
                );
            }
            Kernel::Vgh => {
                assert_eq!(batch.gradient_at(k), scalar.gradient_at(k), "{ctx} g[{k}]");
                assert_eq!(batch.hessian_at(k), scalar.hessian_at(k), "{ctx} h[{k}]");
            }
        }
    }
}

trait ValueView {
    fn value_at(&self, k: usize) -> f32;
    fn gradient_at(&self, k: usize) -> [f32; 3];
    fn laplacian_at(&self, k: usize) -> f32;
    fn hessian_at(&self, k: usize) -> [f32; 6];
}

macro_rules! impl_view {
    ($t:ty) => {
        impl ValueView for $t {
            fn value_at(&self, k: usize) -> f32 {
                self.value(k)
            }
            fn gradient_at(&self, k: usize) -> [f32; 3] {
                self.gradient(k)
            }
            fn laplacian_at(&self, k: usize) -> f32 {
                self.laplacian(k)
            }
            fn hessian_at(&self, k: usize) -> [f32; 6] {
                self.hessian(k)
            }
        }
    };
}
impl_view!(bspline::WalkerAoS<f32>);
impl_view!(bspline::WalkerSoA<f32>);

fn check_engine<E: SpoEngine<f32>>(engine: &E, n: usize, pos: &PosBlock<f32>, ctx: &str)
where
    E::Out: ValueView,
{
    for kernel in Kernel::ALL {
        let mut batch = engine.make_batch_out(pos.len());
        engine.eval_batch(kernel, pos, &mut batch);
        let scalar = scalar_loop(engine, kernel, pos);
        for i in 0..pos.len() {
            assert_bitmatch(
                kernel,
                n,
                batch.block(i),
                scalar.block(i),
                &format!("{ctx} {kernel} pos={i}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_bitmatches_scalar_loop_for_all_layouts(
        n in 1usize..40,
        nb in 1usize..40,
        seed in 0u64..1000,
        ns in 0usize..9,
    ) {
        let table = random_table(n, seed);
        let pos = random_block(ns, seed ^ 0xabcd);
        check_engine(&BsplineAoS::new(table.clone()), n, &pos, "AoS");
        check_engine(&BsplineSoA::new(table.clone()), n, &pos, "SoA");
        check_engine(&BsplineAoSoA::from_multi(&table, nb), n, &pos, "AoSoA");
    }
}

#[test]
fn batch_size_zero_and_one_are_exact() {
    let n = 17;
    let table = random_table(n, 404);
    for ns in [0usize, 1] {
        let pos = random_block(ns, 7 + ns as u64);
        check_engine(&BsplineAoS::new(table.clone()), n, &pos, "AoS edge");
        check_engine(&BsplineSoA::new(table.clone()), n, &pos, "SoA edge");
        check_engine(&BsplineAoSoA::from_multi(&table, 5), n, &pos, "AoSoA edge");
    }
}

#[test]
fn oversized_batch_out_leaves_extra_blocks_untouched() {
    let n = 8;
    let table = random_table(n, 11);
    let soa = BsplineSoA::new(table);
    let pos = random_block(2, 3);
    let mut out = soa.make_batch_out(4);
    soa.eval_batch(Kernel::Vgh, &pos, &mut out);
    // Blocks 2 and 3 were never written: still all-zero.
    for i in 2..4 {
        for k in 0..n {
            assert_eq!(out.block(i).value(k), 0.0);
            assert_eq!(out.block(i).hessian(k), [0.0; 6]);
        }
    }
}

#[test]
#[should_panic(expected = "one output block per position")]
fn undersized_batch_out_panics() {
    let table = random_table(4, 1);
    let soa = BsplineSoA::new(table);
    let pos = random_block(3, 1);
    let mut out = soa.make_batch_out(2);
    soa.eval_batch(Kernel::V, &pos, &mut out);
}
