//! `spline_batch`: the spline kernels in their throughput shape.
//!
//! Op = one confined position through `eval_batch` V, VGL and VGH in
//! 32-position blocks with a reused `BatchOut`, on the engine the
//! library picks by default, one thread. The traced run adds the
//! ledger passes: every engine and kernel the op does not call,
//! cell-wide positions, the 2-thread nested schedule and the host's
//! streaming bandwidth.

use crate::checks;
use crate::estimator::Windows;
use crate::harness::{
    blocks_of, interleave, measure, mix, positions, rng_for, samples_of, windows_of, Cycle,
    Locality, Outcome, Pass, RunCfg, Timed, Triad, BATCH, GRID, N_SPLINES,
};
use crate::trace::{Name, Off, Spans, Tracer};
use bspline::prelude::*;
use bspline::{Kernel, Layout};
use einspline::MultiCoefs;
use miniqmc::synthetic::random_coefficients;
use std::path::Path;
use std::time::Instant;

/// Blocks per timed window: 12 × 32 positions × (V + VGL + VGH) is
/// ~2.5 ms on a quiet core of this host.
const WINDOW_BLOCKS: usize = 12;
/// Blocks per ledger-pass window (one kernel: 3–5 ms on SoA).
const PASS_BLOCKS: usize = 32;
/// AoSoA tile width of the ledger passes (the paper's CPU optimum).
pub const AOSOA_NB: usize = 64;
/// Positions of the one walker in the nested pass, and calls per window.
const NESTED_POSITIONS: usize = 512;
const NESTED_CALLS: usize = 2;

type Blocked = BlockedEngine<BsplineSoA<f32>>;

/// Seeded table on the paper's grid.
pub fn table(seed: u64) -> MultiCoefs<f32> {
    random_coefficients::<f32>(GRID, GRID, GRID, N_SPLINES, mix(seed, 0x7ab1e))
}

/// The engine a caller gets without choosing.
pub fn default_engine(table: &MultiCoefs<f32>) -> Blocked {
    BlockedEngine::from_multi(table, default_block_budget(table.bytes()))
}

/// Span names of the op: the window and one per kernel.
struct OpNames {
    window: Name,
    kernels: [Name; 3],
}

impl OpNames {
    fn new(spans: &mut impl Spans) -> Self {
        Self {
            window: spans.name("spline_batch.window"),
            kernels: [
                spans.name("bspline.blocked.v_batch"),
                spans.name("bspline.blocked.vgl_batch"),
                spans.name("bspline.blocked.vgh_batch"),
            ],
        }
    }
}

/// One window of the op: [`WINDOW_BLOCKS`] blocks through V, VGL and
/// VGH. The end-to-end run and the traced replay both run this
/// (`spans` = [`Off`] or a [`Tracer`]).
#[inline]
fn op_window<S: Spans>(
    engine: &Blocked,
    out: &mut BatchOut<WalkerSoA<f32>>,
    blocks: &mut Cycle<'_, PosBlock<f32>>,
    spans: &mut S,
    names: &OpNames,
) {
    let whole = spans.enter(names.window);
    for _ in 0..WINDOW_BLOCKS {
        let block = blocks.next();
        for (k, name) in Kernel::ALL.into_iter().zip(names.kernels) {
            let span = spans.enter(name);
            engine.eval_batch(k, block, out);
            spans.exit(span);
        }
    }
    spans.exit(whole);
}

/// One construction: table, default engine, output block.
struct Built<'a> {
    table: MultiCoefs<f32>,
    engine: Blocked,
    out: BatchOut<WalkerSoA<f32>>,
    blocks: Cycle<'a, PosBlock<f32>>,
    names: OpNames,
}

impl<'a> Built<'a> {
    fn new(seed: u64, blocks: &'a [PosBlock<f32>]) -> Self {
        let table = table(seed);
        let engine = default_engine(&table);
        let mut out = engine.make_batch_out(BATCH);
        // The first op.
        for k in Kernel::ALL {
            engine.eval_batch(k, &blocks[0], &mut out);
        }
        Self {
            table,
            engine,
            out,
            blocks: Cycle::new(blocks),
            names: OpNames::new(&mut Off),
        }
    }
}

impl Timed for Built<'_> {
    fn window(&mut self, _index: usize) {
        op_window(
            &self.engine,
            &mut self.out,
            &mut self.blocks,
            &mut Off,
            &self.names,
        );
    }
}

/// Sampled blocks through `engine.eval_batch`, each position compared
/// bit for bit with the scalar call on the monolithic reference.
fn check<E: SpoEngine<f32, Out = WalkerSoA<f32>>>(
    engine: &E,
    reference: &BsplineSoA<f32>,
    blocks: &[PosBlock<f32>],
    cfg: &RunCfg,
    outcome: &mut Outcome,
) {
    let mut out = engine.make_batch_out(BATCH);
    let mut want = reference.make_out();
    let stride = (blocks.len() / cfg.pick(16, 4)).max(1);
    for block in blocks.iter().step_by(stride) {
        for k in Kernel::ALL {
            engine.eval_batch(k, block, &mut out);
            let mut bad = 0;
            for (i, p) in block.iter().enumerate() {
                reference.eval(k, p, &mut want);
                if !checks::bits_equal(out.block(i), &want, k, N_SPLINES, cfg.corrupt) {
                    bad += 1;
                }
                checks::absorb(&mut outcome.tally, out.block(i), k, N_SPLINES);
            }
            outcome.tally.checked(block.len() as u64, bad);
        }
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut outcome = Outcome::new();
    let pool = positions(
        &mut rng_for(cfg.seed, 1),
        cfg.pick(4096, 512),
        Locality::Confined,
    );
    let blocks = blocks_of(&pool);
    if cfg.trace {
        traced(cfg, &blocks, &mut outcome);
        return outcome;
    }
    let (built, setups, windows) = measure(cfg, || Built::new(cfg.seed, &blocks));
    let ops_per_window = (WINDOW_BLOCKS * BATCH) as f64;
    outcome
        .tally
        .ran(windows.len() as u64 * ops_per_window as u64);
    outcome.put_end_to_end(ops_per_window, setups, windows);
    let Built { table, engine, .. } = built;
    check(&engine, &BsplineSoA::new(table), &blocks, cfg, &mut outcome);
    outcome
}

/// Which clock a ledger pass is reported on.
#[derive(Clone, Copy, PartialEq)]
enum Clock {
    /// Core-bound (hot set in the private L2, one thread): seconds at
    /// the reference clock.
    Reference,
    /// Bound by the shared L3/DRAM or by a second core: wall seconds,
    /// which the core clock of this thread does not explain.
    Wall,
}

fn traced(cfg: &RunCfg, blocks: &[PosBlock<f32>], outcome: &mut Outcome) {
    // Set-up, stage by stage.
    let t0 = Instant::now();
    let table = table(cfg.seed);
    outcome.put("einspline.fill_s", t0.elapsed().as_secs_f64());
    outcome.put(
        "einspline.table_mib",
        table.bytes() as f64 / f64::from(1 << 20),
    );
    let t0 = Instant::now();
    let engine = default_engine(&table);
    outcome.put("bspline.blocked.build_s", t0.elapsed().as_secs_f64());
    outcome.put("bspline.blocked.n_blocks", engine.n_blocks() as f64);
    let t0 = Instant::now();
    let aosoa = BsplineAoSoA::from_multi(&table, AOSOA_NB);
    outcome.put("bspline.aosoa.build_s", t0.elapsed().as_secs_f64());
    outcome.put("bspline.aosoa.tile_nb", aosoa.nb() as f64);
    let two_blocks = BlockedEngine::with_block_size(&table, N_SPLINES / 2);
    let aos = BsplineAoS::new(table.clone());
    let t0 = Instant::now();
    let soa = BsplineSoA::new(table);
    outcome.put("bspline.soa.build_s", t0.elapsed().as_secs_f64());
    // The mixed adapter wraps the SoA engine; `inner()` is that engine.
    let mixed = MixedEngine::new(soa);
    let soa = mixed.inner();

    let wide = blocks_of(&positions(
        &mut rng_for(cfg.seed, 2),
        cfg.pick(8192, 512),
        Locality::CellWide,
    ));
    let blocks64: Vec<PosBlock<f64>> = blocks.iter().map(|b| b.cast()).collect();
    // One walker, so the stub pool runs min(nth, 2) threads over the
    // two 128-orbital blocks.
    let walker_pos = [PosBlock::from_positions(
        &blocks
            .iter()
            .flat_map(|b| b.iter())
            .take(NESTED_POSITIONS)
            .collect::<Vec<_>>(),
    )];

    let mut tracer = Tracer::with_capacity(1 << 21);
    let names = OpNames::new(&mut tracer);
    let vgh = Kernel::Vgh;
    let mut triad = Triad::new();

    // Every series below runs interleaved with the others: the op with
    // and without spans, then what the op does not call. Each pass owns
    // its cursor and its output block.
    let (mut out_plain, mut out_traced, mut out_wide) = (
        engine.make_batch_out(BATCH),
        engine.make_batch_out(BATCH),
        engine.make_batch_out(BATCH),
    );
    let (mut soa_out, mut soa_wide_out, mut soa_one) = (
        soa.make_batch_out(BATCH),
        soa.make_batch_out(BATCH),
        soa.make_out(),
    );
    let (mut tiled_out, mut tiled_wide_out) =
        (aosoa.make_batch_out(BATCH), aosoa.make_batch_out(BATCH));
    let mut mixed_out = mixed.make_batch_out(BATCH);
    let mut aos_out = aos.make_batch_out(BATCH);
    let (mut walkers1, mut walkers2) = ([two_blocks.make_out()], [two_blocks.make_out()]);
    let confined = || Cycle::new(blocks);
    let cell_wide = || Cycle::new(&wide);
    let (mut c_plain, mut c_traced, mut c_soa, mut c_scalar, mut c_tiled, mut c_aos) = (
        confined(),
        confined(),
        confined(),
        confined(),
        confined(),
        confined(),
    );
    let (mut w_soa, mut w_blocked, mut w_tiled) = (cell_wide(), cell_wide(), cell_wide());
    let mut c_mixed = Cycle::new(&blocks64);
    let spans = &mut tracer;
    let mut passes = [
        Pass::new("op", |_| {
            op_window(&engine, &mut out_plain, &mut c_plain, &mut Off, &names)
        }),
        Pass::new("op traced", |window| {
            spans.set_window(window);
            op_window(&engine, &mut out_traced, &mut c_traced, spans, &names);
        }),
        Pass::new("soa batch", |_| {
            for _ in 0..PASS_BLOCKS {
                soa.eval_batch(vgh, c_soa.next(), &mut soa_out);
            }
        }),
        Pass::new("soa scalar", |_| {
            for _ in 0..PASS_BLOCKS {
                for p in c_scalar.next().iter() {
                    soa.vgh(p, &mut soa_one);
                }
            }
        }),
        Pass::new("soa wide", |_| {
            for _ in 0..PASS_BLOCKS {
                soa.eval_batch(vgh, w_soa.next(), &mut soa_wide_out);
            }
        }),
        Pass::new("blocked wide", |_| {
            for _ in 0..PASS_BLOCKS {
                engine.eval_batch(vgh, w_blocked.next(), &mut out_wide);
            }
        }),
        Pass::new("aosoa batch", |_| {
            for _ in 0..PASS_BLOCKS {
                aosoa.eval_batch(vgh, c_tiled.next(), &mut tiled_out);
            }
        }),
        Pass::new("aosoa wide", |_| {
            for _ in 0..PASS_BLOCKS {
                aosoa.eval_batch(vgh, w_tiled.next(), &mut tiled_wide_out);
            }
        }),
        Pass::new("mixed batch", |_| {
            for _ in 0..PASS_BLOCKS {
                mixed.eval_batch(vgh, c_mixed.next(), &mut mixed_out);
            }
        }),
        // The AoS baseline is ~150x slower: one block is a window.
        Pass::new("aos batch", |_| {
            aos.eval_batch(vgh, c_aos.next(), &mut aos_out)
        }),
        Pass::new("nested t1", |_| {
            for _ in 0..NESTED_CALLS {
                run_nested_blocked(&two_blocks, vgh, &mut walkers1, &walker_pos, 1);
            }
        }),
        Pass::new("nested t2", |_| {
            for _ in 0..NESTED_CALLS {
                run_nested_blocked(&two_blocks, vgh, &mut walkers2, &walker_pos, 2);
            }
        }),
        Pass::new("triad", |window| triad.sweep(window.unwrap_or(0))),
    ];
    interleave(cfg.budget(1.0), &mut passes, |_| {});

    let (plain, traced) = (windows_of(&passes, "op"), windows_of(&passes, "op traced"));
    let traced_windows = samples_of(&passes, "op traced").to_vec();
    let per_pass = PASS_BLOCKS * BATCH;
    let nested = NESTED_CALLS * NESTED_POSITIONS;
    // (pass, positions per window, clock). Both nested passes are on
    // the wall clock, so that their ratio compares like with like.
    let series: Vec<(&str, Windows, usize, Clock)> = [
        ("soa batch", per_pass, Clock::Reference),
        ("soa scalar", per_pass, Clock::Reference),
        ("soa wide", per_pass, Clock::Wall),
        ("blocked wide", per_pass, Clock::Wall),
        ("aosoa batch", per_pass, Clock::Reference),
        ("aosoa wide", per_pass, Clock::Wall),
        ("mixed batch", per_pass, Clock::Reference),
        ("aos batch", BATCH, Clock::Reference),
        ("nested t1", nested, Clock::Wall),
        ("nested t2", nested, Clock::Wall),
    ]
    .into_iter()
    .map(|(name, positions, clock)| (name, windows_of(&passes, name), positions, clock))
    .collect();
    let triad_windows = windows_of(&passes, "triad");
    drop(passes);

    let ops_per_window = (WINDOW_BLOCKS * BATCH) as f64;
    outcome
        .tally
        .ran((plain.n + traced.n) as u64 * ops_per_window as u64);
    outcome.put_validity(&traced, &plain, ops_per_window);
    let ledger = tracer.ledger(&traced_windows);
    let per_call = (BATCH * N_SPLINES) as f64 / 1e6;
    for (metric, span) in [
        ("bspline.blocked.v_batch_mevals", "bspline.blocked.v_batch"),
        (
            "bspline.blocked.vgl_batch_mevals",
            "bspline.blocked.vgl_batch",
        ),
        (
            "bspline.blocked.vgh_batch_mevals",
            "bspline.blocked.vgh_batch",
        ),
    ] {
        outcome.put(metric, per_call / ledger.self_per_call_s(span));
    }
    tracer.write_for(
        Path::new("bench/out/spline_batch.trace.jsonl"),
        "spline_batch",
        outcome,
    );

    // Millions of orbital evaluations per second of a one-kernel pass,
    // and the spread of its windows.
    let rate = |name: &str| {
        let (_, w, positions, clock) = series
            .iter()
            .find(|s| s.0 == name)
            .expect("a measured pass");
        let evals = (positions * N_SPLINES) as f64;
        let per_s = match clock {
            Clock::Reference => w.rate(evals),
            Clock::Wall => w.wall_rate(evals),
        };
        (per_s / 1e6, w.iqr_frac)
    };
    for (metric, pass) in [
        ("bspline.soa.vgh_batch_mevals", "soa batch"),
        ("bspline.soa.vgh_scalar_mevals", "soa scalar"),
        ("bspline.aosoa.vgh_batch_mevals", "aosoa batch"),
        ("bspline.mixed.vgh_batch_mevals", "mixed batch"),
        ("bspline.aos.vgh_batch_mevals", "aos batch"),
        ("bspline.soa.vgh_batch_cellwide_mevals", "soa wide"),
        ("bspline.blocked.vgh_batch_cellwide_mevals", "blocked wide"),
        ("bspline.aosoa.vgh_batch_cellwide_mevals", "aosoa wide"),
        ("bspline.parallel.nested_t1_mevals", "nested t1"),
        ("bspline.parallel.nested_t2_mevals", "nested t2"),
    ] {
        outcome.put(metric, rate(pass).0);
    }
    // Shown with their spread, never gated: beyond the private L2 the
    // host-shared L3 decides, and two threads are the whole machine.
    for (metric, pass) in [
        ("bspline.soa.vgh_batch_cellwide_spread", "soa wide"),
        ("bspline.blocked.vgh_batch_cellwide_spread", "blocked wide"),
        ("bspline.aosoa.vgh_batch_cellwide_spread", "aosoa wide"),
        ("bspline.parallel.nested_t2_spread", "nested t2"),
    ] {
        outcome.put(metric, rate(pass).1);
    }
    outcome.put(
        "bspline.parallel.t2_efficiency",
        rate("nested t2").0 / (2.0 * rate("nested t1").0),
    );

    // Roofline placement of the SoA VGH kernel: confined is on the
    // compute side, cell-wide on the bandwidth side.
    let cost = roofline::kernel_cost(vgh, Layout::Soa, N_SPLINES);
    let positions_per_s = |pass: &str| rate(pass).0 * 1e6 / N_SPLINES as f64;
    // Both sides of `bw_frac` on the wall clock: streaming does not
    // follow the core clock.
    let triad_gb_per_s = triad_windows.wall_rate(Triad::BYTES) / 1e9;
    outcome.put("roofline.vgh_soa_flops_per_byte", cost.dram_ai());
    outcome.put(
        "bspline.soa.vgh_batch_gflops",
        positions_per_s("soa batch") * cost.flops / 1e9,
    );
    outcome.put("host.triad_gb_per_s", triad_gb_per_s);
    outcome.put(
        "bspline.soa.vgh_cellwide_bw_frac",
        positions_per_s("soa wide") * cost.dram_bytes_min / 1e9 / triad_gb_per_s,
    );

    // Output checks on every engine with SoA outputs.
    check(&engine, soa, blocks, cfg, outcome);
    check(&two_blocks, soa, blocks, cfg, outcome);
}
