//! `spline_onemove`: the spline layer used the opposite way.
//!
//! Op = one propose/accept pair on the `spline_batch` table: `v_one`,
//! a seeded coin at 0.5, then `vgl_one` on the same position through a
//! `MoveContext`. Batch-of-1, read-dominated, latency/instruction-bound.
//! The engine is the monolithic `BsplineSoA` (what `SpoSet::new` puts
//! under a wavefunction); the adapters are ledger passes.

use crate::checks;
use crate::harness::{
    interleave, measure, positions, rng_for, samples_of, windows_of, Cycle, Locality, Outcome,
    Pass, RunCfg, Timed, N_SPLINES,
};
use crate::spline_batch::{default_engine, table, AOSOA_NB};
use crate::trace::{Name, Off, Spans, Tracer};
use bspline::precision::spline_scale;
use bspline::prelude::*;
use bspline::Kernel;
use einspline::Real;
use rand::Rng;
use std::path::Path;

/// Pairs per timed window: ~5.5 ms on a quiet core of this host.
const WINDOW_PAIRS: usize = 2048;
/// Calls per ledger-pass window (2–4 ms).
const PASS_CALLS: usize = 1024;
/// Pairs per window of the AoS pass (~75 µs a pair).
const AOS_PAIRS: usize = 48;

/// A seeded move: where to, and whether it is accepted.
#[derive(Clone, Copy)]
struct Move<T> {
    pos: [T; 3],
    accept: bool,
}

fn moves(cfg: &RunCfg, stream: u64, locality: Locality) -> Vec<Move<f32>> {
    let mut rng = rng_for(cfg.seed, stream);
    positions(&mut rng, cfg.pick(16_384, 2048), locality)
        .into_iter()
        .map(|pos| Move {
            pos,
            accept: rng.random_bool(0.5),
        })
        .collect()
}

/// Span names of the op: the window and its two calls.
struct OpNames {
    window: Name,
    v_one: Name,
    vgl_one: Name,
}

impl OpNames {
    fn new(spans: &mut impl Spans) -> Self {
        Self {
            window: spans.name("spline_onemove.window"),
            v_one: spans.name("bspline.onemove.v_one"),
            vgl_one: spans.name("bspline.onemove.vgl_one"),
        }
    }
}

/// One window of `count` ops on `engine`: `v_one`, then `vgl_one` on
/// the accepted ones. The end-to-end run, the traced replay and the
/// adapter passes all run this (`spans` = [`Off`] or a [`Tracer`]).
#[inline]
fn pairs<T: Real, E: SpoEngine<T>, S: Spans>(
    engine: &E,
    ctx: &mut MoveContext<T>,
    out: &mut E::Out,
    moves: &mut Cycle<'_, Move<T>>,
    count: usize,
    spans: &mut S,
    names: &OpNames,
) {
    let whole = spans.enter(names.window);
    for _ in 0..count {
        let m = moves.next();
        let span = spans.enter(names.v_one);
        engine.v_one(ctx, m.pos, out);
        spans.exit(span);
        if m.accept {
            let span = spans.enter(names.vgl_one);
            engine.vgl_one(ctx, m.pos, out);
            spans.exit(span);
        }
    }
    spans.exit(whole);
}

/// A borrowed engine with the per-walker state one-move calls need.
struct Walker<'a, T: Real, E: SpoEngine<T>> {
    engine: &'a E,
    ctx: MoveContext<T>,
    out: E::Out,
    moves: Cycle<'a, Move<T>>,
}

impl<'a, T: Real, E: SpoEngine<T>> Walker<'a, T, E> {
    fn new(engine: &'a E, moves: &'a [Move<T>]) -> Self {
        Self {
            engine,
            ctx: MoveContext::new(),
            out: engine.make_out(),
            moves: Cycle::new(moves),
        }
    }

    fn pairs<S: Spans>(&mut self, count: usize, spans: &mut S, names: &OpNames) {
        pairs(
            self.engine,
            &mut self.ctx,
            &mut self.out,
            &mut self.moves,
            count,
            spans,
            names,
        );
    }

    /// `count` calls of `f` on successive positions.
    #[inline]
    fn calls(&mut self, count: usize, f: impl Fn(&E, &mut MoveContext<T>, [T; 3], &mut E::Out)) {
        for _ in 0..count {
            let m = self.moves.next();
            f(self.engine, &mut self.ctx, m.pos, &mut self.out);
        }
    }
}

/// One construction: the engine and a walker's state on it.
struct Built<'a> {
    engine: BsplineSoA<f32>,
    ctx: MoveContext<f32>,
    out: WalkerSoA<f32>,
    moves: Cycle<'a, Move<f32>>,
    names: OpNames,
}

impl<'a> Built<'a> {
    fn new(seed: u64, moves: &'a [Move<f32>]) -> Self {
        let engine = BsplineSoA::new(table(seed));
        let out = engine.make_out();
        let mut built = Self {
            engine,
            ctx: MoveContext::new(),
            out,
            moves: Cycle::new(moves),
            names: OpNames::new(&mut Off),
        };
        let first = moves[0].pos;
        built.engine.v_one(&mut built.ctx, first, &mut built.out);
        built.engine.vgl_one(&mut built.ctx, first, &mut built.out);
        built
    }
}

impl Timed for Built<'_> {
    fn window(&mut self, _index: usize) {
        pairs(
            &self.engine,
            &mut self.ctx,
            &mut self.out,
            &mut self.moves,
            WINDOW_PAIRS,
            &mut Off,
            &self.names,
        );
    }
}

/// Sampled moves through the one-move path, compared bit for bit with
/// the scalar calls and against the f64 reference.
fn check(engine: &BsplineSoA<f32>, moves: &[Move<f32>], cfg: &RunCfg, outcome: &mut Outcome) {
    let scale = spline_scale(engine.coefs());
    let mut ctx = MoveContext::new();
    let (mut got, mut want) = (engine.make_out(), engine.make_out());
    let stride = (moves.len() / cfg.pick(256, 32)).max(1);
    for m in moves.iter().step_by(stride) {
        let mut ok = true;
        for k in [Kernel::V, Kernel::Vgl] {
            engine.eval_one(k, &mut ctx, m.pos, &mut got);
            engine.eval(k, m.pos, &mut want);
            ok &= checks::bits_equal(&got, &want, k, N_SPLINES, cfg.corrupt);
            let reference = checks::f64_reference(engine.coefs(), m.pos, k);
            ok &= checks::within_budget(&got, &reference, k, &scale, cfg.corrupt);
            checks::absorb(&mut outcome.tally, &got, k, N_SPLINES);
        }
        outcome.tally.checked(1, u64::from(!ok));
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut outcome = Outcome::new();
    let moves = moves(cfg, 1, Locality::Confined);
    if cfg.trace {
        traced(cfg, &moves, &mut outcome);
        return outcome;
    }
    let (built, setups, windows) = measure(cfg, || Built::new(cfg.seed, &moves));
    outcome.tally.ran((windows.len() * WINDOW_PAIRS) as u64);
    outcome.put_end_to_end(WINDOW_PAIRS as f64, setups, windows);
    check(&built.engine, &moves, cfg, &mut outcome);
    outcome
}

fn traced(cfg: &RunCfg, moves: &[Move<f32>], outcome: &mut Outcome) {
    let table = table(cfg.seed);
    let blocked = default_engine(&table);
    let aosoa = BsplineAoSoA::from_multi(&table, AOSOA_NB);
    let aos = BsplineAoS::new(table.clone());
    let mixed = MixedEngine::new(BsplineSoA::new(table));
    let engine = mixed.inner();
    let wide = self::moves(cfg, 2, Locality::CellWide);
    let moves64: Vec<Move<f64>> = moves
        .iter()
        .map(|m| Move {
            pos: m.pos.map(f64::from),
            accept: m.accept,
        })
        .collect();

    // 1.5 call spans per pair and one span per window; ~26 rounds a
    // second share the time with the other passes.
    let windows = (cfg.seconds * 32.0) as usize + 64;
    let mut tracer = Tracer::with_capacity(windows * (WINDOW_PAIRS * 3 / 2 + 1));
    let names = &OpNames::new(&mut tracer);
    let spans = &mut tracer;

    let (mut plain, mut with_spans) = (Walker::new(engine, moves), Walker::new(engine, moves));
    let (mut miss, mut vgh, mut v_scalar, mut vgl_scalar) = (
        Walker::new(engine, moves),
        Walker::new(engine, moves),
        Walker::new(engine, moves),
        Walker::new(engine, moves),
    );
    let (mut on_blocked, mut on_aosoa, mut on_aos, mut on_mixed, mut on_wide) = (
        Walker::new(&blocked, moves),
        Walker::new(&aosoa, moves),
        Walker::new(&aos, moves),
        Walker::new(&mixed, &moves64),
        Walker::new(engine, &wide),
    );
    let mut passes = [
        Pass::new("op", |_| plain.pairs(WINDOW_PAIRS, &mut Off, names)),
        Pass::new("op traced", |window| {
            spans.set_window(window);
            with_spans.pairs(WINDOW_PAIRS, spans, names);
        }),
        // Successive positions differ, so the context never hits.
        Pass::new("vgl miss", |_| {
            miss.calls(PASS_CALLS, |e, ctx, p, out| e.vgl_one(ctx, p, out))
        }),
        Pass::new("v then vgh", |_| {
            vgh.calls(PASS_CALLS, |e, ctx, p, out| {
                e.v_one(ctx, p, out);
                e.vgh_one(ctx, p, out);
            })
        }),
        Pass::new("v scalar", |_| {
            v_scalar.calls(PASS_CALLS, |e, _, p, out| e.v(p, out))
        }),
        Pass::new("vgl scalar", |_| {
            vgl_scalar.calls(PASS_CALLS, |e, _, p, out| e.vgl(p, out))
        }),
        Pass::new("blocked", |_| on_blocked.pairs(PASS_CALLS, &mut Off, names)),
        Pass::new("aosoa", |_| on_aosoa.pairs(PASS_CALLS, &mut Off, names)),
        Pass::new("aos", |_| on_aos.pairs(AOS_PAIRS, &mut Off, names)),
        Pass::new("mixed", |_| on_mixed.pairs(PASS_CALLS, &mut Off, names)),
        Pass::new("cell-wide", |_| on_wide.pairs(PASS_CALLS, &mut Off, names)),
    ];
    interleave(cfg.budget(1.0), &mut passes, |_| {});

    let ns_per = |pass: &str, calls: usize| {
        let w = windows_of(&passes, pass);
        // Cell-wide positions stream from the shared L3: wall seconds.
        let secs = if pass == "cell-wide" {
            w.wall_s
        } else {
            w.fast_s
        };
        secs / calls as f64 * 1e9
    };
    let (plain, traced) = (windows_of(&passes, "op"), windows_of(&passes, "op traced"));
    let traced_windows = samples_of(&passes, "op traced").to_vec();
    let per_call: Vec<(&str, f64)> = [
        ("vgl miss", PASS_CALLS),
        ("v then vgh", PASS_CALLS),
        ("v scalar", PASS_CALLS),
        ("vgl scalar", PASS_CALLS),
        ("blocked", PASS_CALLS),
        ("aosoa", PASS_CALLS),
        ("aos", AOS_PAIRS),
        ("mixed", PASS_CALLS),
        ("cell-wide", PASS_CALLS),
    ]
    .into_iter()
    .map(|(pass, calls)| (pass, ns_per(pass, calls)))
    .collect();
    let wide_spread = windows_of(&passes, "cell-wide").iqr_frac;
    drop(passes);
    let ns = |pass: &str| {
        per_call
            .iter()
            .find(|p| p.0 == pass)
            .expect("a measured pass")
            .1
    };

    outcome
        .tally
        .ran(((plain.n + traced.n) * WINDOW_PAIRS) as u64);
    outcome.put_validity(&traced, &plain, WINDOW_PAIRS as f64);
    let ledger = tracer.ledger(&traced_windows);
    let v_one_ns = ledger.self_per_call_s("bspline.onemove.v_one") * 1e9;
    let vgl_hit_ns = ledger.self_per_call_s("bspline.onemove.vgl_one") * 1e9;
    tracer.write_for(
        Path::new("bench/out/spline_onemove.trace.jsonl"),
        "spline_onemove",
        outcome,
    );

    outcome.put("bspline.onemove.v_one_ns", v_one_ns);
    outcome.put("bspline.onemove.vgl_one_hit_ns", vgl_hit_ns);
    outcome.put("bspline.onemove.vgl_one_miss_ns", ns("vgl miss"));
    outcome.put(
        "bspline.onemove.vgh_one_hit_ns",
        ns("v then vgh") - v_one_ns,
    );
    outcome.put("bspline.soa.v_scalar_ns", ns("v scalar"));
    outcome.put("bspline.soa.vgl_scalar_ns", ns("vgl scalar"));
    // The scalar sequence over the untraced pair (no span cost in it).
    let accepted = moves.iter().filter(|m| m.accept).count() as f64 / moves.len() as f64;
    outcome.put(
        "bspline.onemove.pair_speedup",
        (ns("v scalar") + accepted * ns("vgl scalar")) / (plain.fast_s / WINDOW_PAIRS as f64 * 1e9),
    );
    outcome.put("bspline.mixed.pair_ns", ns("mixed"));
    outcome.put("bspline.blocked.pair_ns", ns("blocked"));
    outcome.put("bspline.aosoa.pair_ns", ns("aosoa"));
    outcome.put("bspline.aos.pair_ns", ns("aos"));
    outcome.put("bspline.onemove.pair_cellwide_ns", ns("cell-wide"));
    outcome.put("bspline.onemove.pair_cellwide_spread", wide_spread);

    check(engine, moves, cfg, outcome);
}
