//! `vmc_pbyp`: the real wavefunction, particle by particle.
//!
//! `CoralSystem::new(4, 4, 1, (12, 12, 12))` — the paper's CORAL 4×4×1
//! problem: 64 carbons, 128 orbitals per spin, 256 electrons — with
//! f64-solved orbitals stored in f32. Op = one proposed electron move;
//! window = one `run_vmc` sweep including its batched `log_derivs`.
//! Distance tables, determinant and Jastrow do most of the work and the
//! spline little: the bypass workload for kernel changes.
//!
//! (The 4×4×2 cell this benchmark was first drafted with has 8 MB of
//! distance tables, which live in the host-shared L3, and a 51 ms
//! sweep, so a run held ~400 windows: its rate spread 9.6 % between
//! runs. Reshaped to the smaller hot set and four times the windows.)

use crate::harness::{
    interleave, measure, mix, rng_for, samples_of, windows_of, Outcome, Pass, RunCfg, Timed,
};
use crate::trace::{Name, Spans, Tracer};
use einspline::MultiCoefs;
use miniqmc::drivers::observables::det_log_derivs;
use miniqmc::drivers::VmcResult;
use miniqmc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

/// Cubic move amplitude: wide enough that about half the moves are
/// accepted on this smooth synthetic wavefunction.
const STEP_SIZE: f64 = 3.0;
/// Sweeps between drift checks; each check re-anchors the incremental
/// state with `evaluate_log`, outside the timed windows.
const DRIFT_CHECK_EVERY: usize = 16;
/// Rounds of the traced run between drift checks (a round is three
/// sweeps of each pass).
const DRIFT_CHECK_ROUNDS: usize = 5;

/// The paper's CORAL 4×4×1 problem on a coarse spline grid.
fn system() -> CoralSystem {
    CoralSystem::new(4, 4, 1, (12, 12, 12))
}

fn solved_orbitals(sys: &CoralSystem, seed: u64) -> MultiCoefs<f64> {
    sys.orbitals::<f64>(mix(seed, 0x0b17a1))
}

fn functors(sys: &CoralSystem) -> (BsplineFunctor, BsplineFunctor) {
    let rc = sys.lattice.wigner_seitz_radius() * 0.9;
    (
        BsplineFunctor::rpa_like(0.3, 1.0, rc, 20),
        BsplineFunctor::rpa_like(0.5, 1.2, rc, 20),
    )
}

fn wavefunction(sys: &CoralSystem, orbitals: MultiCoefs<f32>, seed: u64) -> TrialWaveFunction<f32> {
    let spo = SpoSet::new(orbitals, sys.lattice);
    let electrons = random_electrons(sys.lattice, sys.n_electrons(), &mut rng_for(seed, 3));
    let (j1, j2) = functors(sys);
    TrialWaveFunction::new(spo, &sys.ions, electrons, j1, j2)
}

fn sweep_cfg(seed: u64, sweep: usize) -> VmcConfig {
    VmcConfig {
        n_steps: 1,
        step_size: STEP_SIZE,
        seed: mix(seed, (sweep as u64).wrapping_add(1000)),
    }
}

/// The proposal `run_vmc` draws for electron `iel`.
fn propose(wf: &TrialWaveFunction<f32>, rng: &mut StdRng, iel: usize) -> [f64; 3] {
    let r = wf.electrons().get(iel);
    wf.electrons().lattice().wrap([
        r[0] + STEP_SIZE * (rng.random::<f64>() - 0.5),
        r[1] + STEP_SIZE * (rng.random::<f64>() - 0.5),
        r[2] + STEP_SIZE * (rng.random::<f64>() - 0.5),
    ])
}

/// Sweeps whose results go into the fingerprint: the first ones of the
/// first construction, which every run of a seed has (how many sweeps
/// follow depends on the host).
const FINGERPRINT_SWEEPS: usize = 2;

/// Output checks of one sweep's result; its ops fail together. Sweep
/// `index` of the run.
fn check_sweep(r: &VmcResult, n_el: usize, index: usize, outcome: &mut Outcome) {
    let ok =
        r.log_psi.is_finite() && r.kinetic.is_finite() && r.acceptance > 0.2 && r.acceptance < 0.8;
    outcome
        .tally
        .checked(n_el as u64, if ok { 0 } else { n_el as u64 });
    if index < FINGERPRINT_SWEEPS {
        outcome.tally.absorb64(r.log_psi.to_bits());
        outcome.tally.absorb64(r.kinetic.to_bits());
    }
}

/// Tracked `log ΨT` against a full recompute, which also re-anchors the
/// incremental state. A miss fails a sweep's worth of ops.
fn check_drift(wf: &mut TrialWaveFunction<f32>, cfg: &RunCfg, outcome: &mut Outcome) -> f64 {
    let n_el = wf.n_electrons();
    let tracked = wf.log_psi();
    let fresh = wf.evaluate_log() + if cfg.corrupt { 1.0 } else { 0.0 };
    let drift = (tracked - fresh).abs();
    // NaN is a miss too.
    if drift.is_nan() || drift > 1e-6 * n_el as f64 {
        outcome.tally.failed += n_el as u64;
        outcome
            .notes
            .push(format!("log_psi drift {drift:e} beyond 1e-6·N_el"));
    }
    drift
}

/// One construction. Checks run between windows and land in the
/// shared outcome, so the sweeps of every construction are checked.
struct Built<'a> {
    wf: TrialWaveFunction<f32>,
    cfg: &'a RunCfg,
    outcome: &'a RefCell<Outcome>,
    last: Option<VmcResult>,
}

impl<'a> Built<'a> {
    fn new(cfg: &'a RunCfg, outcome: &'a RefCell<Outcome>) -> Self {
        let sys = system();
        let orbitals = solved_orbitals(&sys, cfg.seed).downcast();
        let mut wf = wavefunction(&sys, orbitals, cfg.seed);
        let rnew = propose(&wf, &mut rng_for(cfg.seed, 4), 0);
        wf.ratio(0, rnew);
        wf.reject();
        Self {
            wf,
            cfg,
            outcome,
            last: None,
        }
    }
}

impl Timed for Built<'_> {
    fn window(&mut self, index: usize) {
        self.last = Some(run_vmc(&mut self.wf, &sweep_cfg(self.cfg.seed, index)));
    }

    fn between(&mut self, index: usize) {
        let outcome = &mut self.outcome.borrow_mut();
        if let Some(r) = self.last.take() {
            check_sweep(&r, self.wf.n_electrons(), index, outcome);
        }
        if (index + 1).is_multiple_of(DRIFT_CHECK_EVERY) {
            check_drift(&mut self.wf, self.cfg, outcome);
        }
    }

    fn finish(&mut self) {
        check_drift(&mut self.wf, self.cfg, &mut self.outcome.borrow_mut());
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    if cfg.trace {
        let mut outcome = Outcome::new();
        traced(cfg, &mut outcome);
        return outcome;
    }
    let shared = RefCell::new(Outcome::new());
    let (built, setups, windows) = measure(cfg, || Built::new(cfg, &shared));
    let n_el = built.wf.n_electrons();
    drop(built);
    let mut outcome = shared.into_inner();
    outcome.put_end_to_end(n_el as f64, setups, windows);
    outcome
}

/// One recorded move of the traced loop.
#[derive(Clone, Copy)]
struct Move {
    iel: usize,
    rnew: [f64; 3],
    ratio: f64,
    accepted: bool,
}

struct WfNames {
    sweep: Name,
    ratio: Name,
    accept: Name,
    reject: Name,
    log_derivs: Name,
}

impl WfNames {
    fn new(t: &mut Tracer) -> Self {
        Self {
            sweep: t.name("miniqmc.vmc.sweep"),
            ratio: t.name("miniqmc.wavefunction.ratio"),
            accept: t.name("miniqmc.wavefunction.accept"),
            reject: t.name("miniqmc.wavefunction.reject"),
            log_derivs: t.name("miniqmc.wavefunction.log_derivs"),
        }
    }
}

/// `run_vmc`'s sweep driven from here, a span around every call into
/// the wavefunction; the sweep span's self time is the driver's.
fn traced_sweep(
    wf: &mut TrialWaveFunction<f32>,
    tracer: &mut Tracer,
    names: &WfNames,
    seed: u64,
    moves: &mut Vec<Move>,
) -> VmcResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_el = wf.n_electrons();
    let mut accepted = 0usize;
    wf.timers.reset();
    let whole = tracer.enter(names.sweep);
    for iel in 0..n_el {
        let rnew = propose(wf, &mut rng, iel);
        let span = tracer.enter(names.ratio);
        let ratio = wf.ratio(iel, rnew);
        tracer.exit(span);
        let take = ratio * ratio > rng.random::<f64>();
        if take {
            let span = tracer.enter(names.accept);
            wf.accept(iel);
            tracer.exit(span);
            accepted += 1;
        } else {
            let span = tracer.enter(names.reject);
            wf.reject();
            tracer.exit(span);
        }
        moves.push(Move {
            iel,
            rnew,
            ratio,
            accepted: take,
        });
    }
    let span = tracer.enter(names.log_derivs);
    let derivs = wf.log_derivs();
    tracer.exit(span);
    let kinetic = kinetic_energy(&derivs);
    tracer.exit(whole);
    VmcResult {
        acceptance: accepted as f64 / n_el as f64,
        log_psi: wf.log_psi(),
        kinetic,
        profile: wf.timers.report(),
    }
}

/// The wavefunction's parts, owned by the harness, for the component
/// replay: the same calls in the same order as `TrialWaveFunction`'s
/// `evaluate_log`/`ratio`/`accept`/`log_derivs`, through each type's
/// public API.
struct Components {
    spo: SpoSet<f32>,
    electrons: ParticleSet,
    dist_ee: DistanceTableAA,
    dist_ei: DistanceTableAB,
    dets: [DiracDeterminant; 2],
    j1: OneBodyJastrow,
    j2: TwoBodyJastrow,
    n: usize,
    phi: Vec<f64>,
}

impl Components {
    fn new(sys: &CoralSystem, mut spo: SpoSet<f32>, positions: &[[f64; 3]]) -> Self {
        let n = spo.n_orbitals();
        let electrons = ParticleSet::new("e", sys.lattice, positions);
        let mut dist_ee = DistanceTableAA::new(&electrons);
        let mut dist_ei = DistanceTableAB::new(&sys.ions, &electrons);
        dist_ee.rebuild(&electrons);
        dist_ei.rebuild(&electrons);
        let dets = [0, 1].map(|spin| {
            let rows = spo.evaluate_v_batch(&positions[spin * n..(spin + 1) * n]);
            let mut a = vec![0.0; n * n];
            for (e, row) in rows.iter().enumerate() {
                a[e * n..(e + 1) * n].copy_from_slice(&row.v[..n]);
            }
            DiracDeterminant::build(&a, n)
        });
        let (f1, f2) = functors(sys);
        let mut j1 = OneBodyJastrow::new(f1, electrons.len());
        let mut j2 = TwoBodyJastrow::new(f2, electrons.len());
        let mut derivs = JastrowDerivs::zeros(electrons.len());
        j2.evaluate_log(&dist_ee, &mut derivs);
        j1.evaluate_log(&dist_ei, &mut derivs);
        Self {
            spo,
            electrons,
            dist_ee,
            dist_ei,
            dets,
            j1,
            j2,
            n,
            phi: vec![0.0; n],
        }
    }
}

struct PartNames {
    sweep: Name,
    dist_move: Name,
    dist_accept: Name,
    spo_v: Name,
    spo_vgl: Name,
    spo_batch: Name,
    det_ratio: Name,
    det_accept: Name,
    det_derivs: Name,
    j_ratio: Name,
    j_accept: Name,
}

impl PartNames {
    fn new(t: &mut Tracer) -> Self {
        Self {
            sweep: t.name("vmc_pbyp.replay_sweep"),
            dist_move: t.name("miniqmc.distance.move"),
            dist_accept: t.name("miniqmc.distance.accept"),
            spo_v: t.name("miniqmc.spo.v_one"),
            spo_vgl: t.name("miniqmc.spo.vgl_one"),
            spo_batch: t.name("miniqmc.spo.vgh_batch"),
            det_ratio: t.name("miniqmc.determinant.ratio"),
            det_accept: t.name("miniqmc.determinant.accept"),
            det_derivs: t.name("miniqmc.determinant.log_derivs"),
            j_ratio: t.name("miniqmc.jastrow.ratio"),
            j_accept: t.name("miniqmc.jastrow.accept"),
        }
    }
}

/// Replay one recorded sweep through the components. Returns how many
/// replayed ratios differ from the recorded ones.
fn replay_sweep(c: &mut Components, t: &mut Tracer, nm: &PartNames, moves: &[Move]) -> u64 {
    let mut bad = 0;
    let whole = t.enter(nm.sweep);
    for m in moves {
        let (spin, e) = (m.iel / c.n, m.iel % c.n);
        let s = t.enter(nm.dist_move);
        c.dist_ee.propose(&c.electrons, m.iel, m.rnew);
        c.dist_ei.propose(m.iel, m.rnew);
        t.exit(s);
        let s = t.enter(nm.spo_v);
        let v = c.spo.evaluate_v_one(m.rnew);
        t.exit(s);
        c.phi.copy_from_slice(v);
        let s = t.enter(nm.det_ratio);
        let det_ratio = c.dets[spin].ratio(e, &c.phi);
        t.exit(s);
        let s = t.enter(nm.j_ratio);
        let (r2, r1) = (c.j2.ratio(&c.dist_ee, m.iel), c.j1.ratio(&c.dist_ei, m.iel));
        t.exit(s);
        let ratio = det_ratio * r1 * r2;
        if ratio.is_nan() || (ratio - m.ratio).abs() > 1e-9 * m.ratio.abs() {
            bad += 1;
        }
        if m.accepted {
            let s = t.enter(nm.dist_accept);
            c.dist_ee.accept(m.iel);
            c.dist_ei.accept(m.iel);
            t.exit(s);
            let s = t.enter(nm.det_accept);
            c.dets[spin].accept(e, &c.phi);
            t.exit(s);
            let s = t.enter(nm.j_accept);
            c.j2.accept(m.iel);
            c.j1.accept(m.iel);
            t.exit(s);
            c.electrons.set(m.iel, m.rnew);
            let s = t.enter(nm.spo_vgl);
            let row = c.spo.evaluate_vgl_one(m.rnew);
            t.exit(s);
            let s = t.enter(nm.det_derivs);
            std::hint::black_box(det_log_derivs(
                &c.dets[spin],
                e,
                &row.gx,
                &row.gy,
                &row.gz,
                &row.lap,
            ));
            t.exit(s);
        }
    }
    // The sweep's measurement stage, as `log_derivs` runs it.
    c.dist_ee.rebuild(&c.electrons);
    c.dist_ei.rebuild(&c.electrons);
    let mut derivs = JastrowDerivs::zeros(c.electrons.len());
    c.j2.evaluate_log(&c.dist_ee, &mut derivs);
    c.j1.evaluate_log(&c.dist_ei, &mut derivs);
    let positions = c.electrons.to_aos();
    for spin in 0..2 {
        let s = t.enter(nm.spo_batch);
        let rows = c
            .spo
            .evaluate_vgl_batch(&positions[spin * c.n..(spin + 1) * c.n]);
        t.exit(s);
        let s = t.enter(nm.det_derivs);
        for (e, row) in rows.iter().enumerate() {
            std::hint::black_box(det_log_derivs(
                &c.dets[spin],
                e,
                &row.gx,
                &row.gy,
                &row.gz,
                &row.lap,
            ));
        }
        t.exit(s);
    }
    t.exit(whole);
    bad
}

fn traced(cfg: &RunCfg, outcome: &mut Outcome) {
    let sys = system();
    let t0 = Instant::now();
    let solved = solved_orbitals(&sys, cfg.seed);
    outcome.put("einspline.solve_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let orbitals = solved.downcast();
    outcome.put("einspline.downcast_s", t0.elapsed().as_secs_f64());
    drop(solved);
    let t0 = Instant::now();
    let mut by_driver = wavefunction(&sys, orbitals.clone(), cfg.seed);
    outcome.put("miniqmc.wavefunction.build_s", t0.elapsed().as_secs_f64());
    let mut by_harness = wavefunction(&sys, orbitals.clone(), cfg.seed);
    let n_el = by_driver.n_electrons();

    let mut tracer = Tracer::with_capacity(1 << 20);
    let names = WfNames::new(&mut tracer);
    let mut parts_tracer = Tracer::with_capacity(1 << 22);
    let part_names = PartNames::new(&mut parts_tracer);

    // The loop driven from here must be `run_vmc`'s loop: from identical
    // wavefunctions, one sweep each way must agree to the bit. (Its
    // spans belong to no recorded window and stay out of the ledger.)
    tracer.set_window(None);
    let probe = sweep_cfg(cfg.seed, usize::MAX);
    let mut probe_moves = Vec::with_capacity(n_el);
    let a = run_vmc(&mut by_driver, &probe);
    let b = traced_sweep(
        &mut by_harness,
        &mut tracer,
        &names,
        probe.seed,
        &mut probe_moves,
    );
    let same = a.log_psi.to_bits() == b.log_psi.to_bits()
        && a.kinetic.to_bits() == b.kinetic.to_bits()
        && a.acceptance == b.acceptance;
    let bad = if same && !cfg.corrupt { 0 } else { n_el as u64 };
    outcome.tally.checked(n_el as u64, bad);

    // Three passes, interleaved so that they share the host's fast and
    // slow stretches: `run_vmc` untraced (which also yields the Table IV
    // profile), the same sweep with spans on a second wavefunction, and
    // the component replay of the sweeps the second pass recorded, in
    // order. Every few rounds all three are re-anchored from positions,
    // so that the replay starts from the state the traced wavefunction
    // is in.
    let cats = [
        Category::Bspline,
        Category::Distance,
        Category::Jastrow,
        Category::Determinant,
    ];
    let (by_driver, by_harness) = (RefCell::new(by_driver), RefCell::new(by_harness));
    let parts: RefCell<Option<Components>> = RefCell::new(None);
    // (per-category time, total) of the untraced sweeps' profiles.
    let profile = RefCell::new(([Duration::ZERO; 4], Duration::ZERO));
    let results = RefCell::new(Vec::new());
    // Recorded sweeps awaiting their replay, and emptied buffers (a
    // visit records three sweeps before the first is replayed).
    let recorded: RefCell<VecDeque<Vec<Move>>> = RefCell::new(VecDeque::new());
    let spare: RefCell<Vec<Vec<Move>>> = RefCell::new(vec![
        probe_moves,
        Vec::with_capacity(n_el),
        Vec::with_capacity(n_el),
    ]);
    let (plain_sweeps, traced_sweeps, replayed_sweeps) = (Cell::new(0), Cell::new(0), Cell::new(0));
    let off_ratios = Cell::new(0u64);
    let mut drift = 0.0f64;
    let (spans, part_spans) = (&mut tracer, &mut parts_tracer);
    let mut passes = [
        Pass::new("run_vmc", |_| {
            let sweep = plain_sweeps.replace(plain_sweeps.get() + 1);
            let r = run_vmc(&mut by_driver.borrow_mut(), &sweep_cfg(cfg.seed, sweep));
            let (by_cat, total) = &mut *profile.borrow_mut();
            for (acc, cat) in by_cat.iter_mut().zip(cats) {
                *acc += r.profile.duration(cat);
            }
            *total += r.profile.total();
            results.borrow_mut().push(r);
        }),
        Pass::new("traced sweep", |window| {
            let sweep = traced_sweeps.replace(traced_sweeps.get() + 1);
            let mut moves = spare.borrow_mut().pop().unwrap_or_default();
            moves.clear();
            spans.set_window(window);
            let r = traced_sweep(
                &mut by_harness.borrow_mut(),
                spans,
                &names,
                sweep_cfg(cfg.seed, 5000 + sweep).seed,
                &mut moves,
            );
            recorded.borrow_mut().push_back(moves);
            results.borrow_mut().push(r);
        }),
        Pass::new("component replay", |window| {
            let moves = recorded.borrow_mut().pop_front().expect("a recorded sweep");
            part_spans.set_window(window);
            let mut parts = parts.borrow_mut();
            let parts = parts.as_mut().expect("built before round 0");
            let bad = replay_sweep(parts, part_spans, &part_names, &moves);
            off_ratios.set(off_ratios.get() + bad);
            replayed_sweeps.set(replayed_sweeps.get() + 1);
            spare.borrow_mut().push(moves);
        }),
    ];
    interleave(cfg.budget(1.0), &mut passes, |round| {
        if round % DRIFT_CHECK_ROUNDS == 0 {
            let by_harness = &mut by_harness.borrow_mut();
            check_drift(&mut by_driver.borrow_mut(), cfg, outcome);
            drift = drift.max(check_drift(by_harness, cfg, outcome));
            let spo = SpoSet::new(orbitals.clone(), sys.lattice);
            *parts.borrow_mut() =
                Some(Components::new(&sys, spo, &by_harness.electrons().to_aos()));
        }
    });
    let (plain, traced_w, replayed) = (
        windows_of(&passes, "run_vmc"),
        windows_of(&passes, "traced sweep"),
        windows_of(&passes, "component replay"),
    );
    let traced = samples_of(&passes, "traced sweep").to_vec();
    let replayed_windows = samples_of(&passes, "component replay").to_vec();
    drop(passes);
    drift = drift.max(check_drift(&mut by_harness.borrow_mut(), cfg, outcome));
    for (index, r) in results.borrow().iter().enumerate() {
        check_sweep(r, n_el, index, outcome);
    }
    let (replayed_sweeps, off_ratios) = (replayed_sweeps.get(), off_ratios.get());
    outcome
        .tally
        .checked((replayed_sweeps * n_el) as u64, off_ratios);
    outcome.put_validity(&traced_w, &plain, n_el as f64);
    outcome.note_windows("component replay", &replayed);
    let (profile, profile_total) = profile.into_inner();

    for (metric, acc) in [
        "miniqmc.profile.bspline_frac",
        "miniqmc.profile.distance_frac",
        "miniqmc.profile.jastrow_frac",
        "miniqmc.profile.determinant_frac",
    ]
    .into_iter()
    .zip(profile)
    {
        outcome.put(metric, acc.as_secs_f64() / profile_total.as_secs_f64());
    }

    let ledger = tracer.ledger(&traced);
    for (metric, span) in [
        (
            "miniqmc.wavefunction.ratio_us",
            "miniqmc.wavefunction.ratio",
        ),
        (
            "miniqmc.wavefunction.accept_us",
            "miniqmc.wavefunction.accept",
        ),
        (
            "miniqmc.wavefunction.reject_us",
            "miniqmc.wavefunction.reject",
        ),
        (
            "miniqmc.wavefunction.log_derivs_us",
            "miniqmc.wavefunction.log_derivs",
        ),
    ] {
        outcome.put(metric, ledger.self_per_call_s(span) * 1e6);
    }
    // The spans partition each sweep: wavefunction self times plus the
    // driver's own must add up to the sweeps' wall time.
    let sweeps_s = ledger.total_dur_s("miniqmc.vmc.sweep");
    let driver_s = ledger.total_self_s("miniqmc.vmc.sweep");
    let calls_s: f64 = ["ratio", "accept", "reject", "log_derivs"]
        .iter()
        .map(|c| ledger.total_self_s(&format!("miniqmc.wavefunction.{c}")))
        .sum();
    let wall: f64 = traced.iter().map(|s| s.secs).sum();
    outcome.put("miniqmc.vmc.driver_self_frac", driver_s / sweeps_s);
    outcome.notes.push(format!(
        "accounting: wavefunction spans {calls_s:.4} s + driver self {driver_s:.4} s = {:.4} s of {wall:.4} s sweep wall time ({:+.3} % unaccounted)",
        calls_s + driver_s,
        100.0 * (wall - calls_s - driver_s) / wall
    ));
    let accepted = ledger.total_count("miniqmc.wavefunction.accept");
    outcome.put(
        "miniqmc.vmc.acceptance",
        accepted as f64 / traced.len() as f64,
    );
    outcome.put("miniqmc.wavefunction.log_psi_drift", drift);
    tracer.write_for(
        Path::new("bench/out/vmc_pbyp.trace.jsonl"),
        "vmc_pbyp",
        outcome,
    );

    let parts_ledger = parts_tracer.ledger(&replayed_windows);
    for (metric, span) in [
        ("miniqmc.spo.v_one_us", "miniqmc.spo.v_one"),
        ("miniqmc.spo.vgl_one_us", "miniqmc.spo.vgl_one"),
        ("miniqmc.spo.vgh_batch_us", "miniqmc.spo.vgh_batch"),
        ("miniqmc.determinant.ratio_us", "miniqmc.determinant.ratio"),
        (
            "miniqmc.determinant.accept_us",
            "miniqmc.determinant.accept",
        ),
        ("miniqmc.distance.move_us", "miniqmc.distance.move"),
        ("miniqmc.distance.accept_us", "miniqmc.distance.accept"),
        ("miniqmc.jastrow.ratio_us", "miniqmc.jastrow.ratio"),
        ("miniqmc.jastrow.accept_us", "miniqmc.jastrow.accept"),
    ] {
        outcome.put(metric, parts_ledger.self_per_call_s(span) * 1e6);
    }
    let parts = parts.into_inner().expect("built before round 0");
    outcome.put(
        "miniqmc.determinant.inverse_error",
        parts.dets[0]
            .inverse_error()
            .max(parts.dets[1].inverse_error()),
    );
    outcome.notes.push(format!(
        "component replay: {replayed_sweeps} sweeps, {off_ratios} of {} ratios off the recorded ones",
        replayed_sweeps * n_el
    ));
    parts_tracer.write_for(
        Path::new("bench/out/vmc_pbyp.replay.trace.jsonl"),
        "vmc_pbyp component replay",
        outcome,
    );
}
