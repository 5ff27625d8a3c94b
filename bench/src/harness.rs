//! What every workload shares: run configuration, seeded inputs, the
//! window loop, failure accounting and the result record.

use crate::estimator::{median, Sample, Windows, CLASSES};
use crate::host;
use bspline::PosBlock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The paper's production grid: 48 intervals per dimension.
pub const GRID: usize = 48;
/// Orbitals in the spline workloads' table (136 MB at f32 on 48³).
pub const N_SPLINES: usize = 256;
/// Positions per `PosBlock` (the service's `max_batch`).
pub const BATCH: usize = 32;
/// Edge of the confinement sub-box in grid cells: 4 cells touch
/// 7 grid points per dimension, 343 coefficient lines in all.
pub const CONFINE_CELLS: usize = 4;
/// Complete constructions timed for `setup_s`; the last one is kept.
pub const SETUPS: usize = 9;

/// One invocation's parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Input seed: same seed, same inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced ledger run instead of the end-to-end run.
    pub trace: bool,
    /// ~1 s smoke run through the same code paths (the tests).
    pub quick: bool,
    /// Self-test: corrupt every reference before comparing, so that a
    /// run whose checks could not fail is told apart from a correct one.
    pub corrupt: bool,
}

impl RunCfg {
    /// Share `frac` of the measuring time.
    pub fn budget(&self, frac: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * frac)
    }

    /// Size of an input pool or sample: `full`, or `small` when quick.
    pub fn pick(&self, full: usize, small: usize) -> usize {
        if self.quick {
            small
        } else {
            full
        }
    }
}

/// An independent generator per (seed, purpose): inputs of one purpose
/// do not shift when another purpose draws more.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream))
}

/// SplitMix64 finaliser over `a` advanced by `b` steps of the golden
/// increment: cheap, and distinct `(a, b)` pairs do not collide by
/// simple arithmetic the way `a + b` or `a ^ b` would.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where positions fall: the harness's working-set control.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Locality {
    /// Uniform in one seeded 4×4×4-cell sub-box: the hot coefficient
    /// set (343 lines × N × 4 B ≈ 343 KB) stays in the private L2.
    Confined,
    /// Uniform in the whole cell: streams from the host-shared L3.
    CellWide,
}

/// `n` fractional positions on the [`GRID`]³ unit cube.
pub fn positions(rng: &mut StdRng, n: usize, locality: Locality) -> Vec<[f32; 3]> {
    let (base, span) = match locality {
        Locality::Confined => {
            let mut b = [0.0; 3];
            for d in &mut b {
                *d = rng.random_range(0..GRID - CONFINE_CELLS) as f64;
            }
            (b, CONFINE_CELLS as f64)
        }
        Locality::CellWide => ([0.0; 3], GRID as f64),
    };
    (0..n)
        .map(|_| {
            let mut p = [0.0f32; 3];
            for d in 0..3 {
                // Stay a hair inside the box so f32 rounding cannot
                // land on the next cell's lower edge.
                let u = rng.random::<f64>() * 0.999_999;
                p[d] = ((base[d] + span * u) / GRID as f64) as f32;
            }
            p
        })
        .collect()
}

/// Cut a position pool into [`BATCH`]-sized blocks.
pub fn blocks_of(pool: &[[f32; 3]]) -> Vec<PosBlock<f32>> {
    pool.chunks_exact(BATCH)
        .map(PosBlock::from_positions)
        .collect()
}

/// Round-robin cursor over a slice.
pub struct Cycle<'a, B> {
    items: &'a [B],
    next: usize,
}

impl<'a, B> Cycle<'a, B> {
    /// Start at the first item.
    pub fn new(items: &'a [B]) -> Self {
        Self { items, next: 0 }
    }

    /// The next item, wrapping.
    #[inline]
    pub fn next(&mut self) -> &'a B {
        let item = &self.items[self.next];
        self.next = (self.next + 1) % self.items.len();
        item
    }
}

/// Fewest windows of a series (enough for a ten-beyond percentile).
pub const MIN_WINDOWS: usize = 25;

/// A constructed workload: what the end-to-end run times.
pub trait Timed {
    /// One window of fixed work.
    fn window(&mut self, index: usize);
    /// Untimed work after window `index` (periodic output checks).
    fn between(&mut self, _index: usize) {}
    /// Untimed work before the construction is checked or dropped.
    fn finish(&mut self) {}
}

/// The end-to-end run: [`SETUPS`] constructions (`build` = build →
/// first op), each followed by its share of the timed windows, the last
/// one kept for the output checks. One `Instant` pair per window and
/// two clock readings around it, nothing per op. Windows alternate
/// between the two stack classes; constructions do too.
///
/// Set-ups and windows alternate so that the set-ups, whose wall time
/// is what counts (page faults and table fills do not follow the core
/// clock), do not all fall into one stretch of the host's moods.
///
/// Returns the kept construction, the set-ups and the windows.
pub fn measure<S: Timed>(
    cfg: &RunCfg,
    mut build: impl FnMut() -> S,
) -> (S, Vec<Sample>, Vec<Sample>) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut windows = Vec::with_capacity(1 << 14);
    let mut kept: Option<S> = None;
    let share = cfg.budget(1.0 / SETUPS as f64);
    let cpus = host::allowed_cpus();
    for setup in 0..SETUPS {
        drop(kept.take());
        // The construction, its threads and its windows on one CPU:
        // `service_mixed` with a CPU for each of its two threads follows
        // two cores' clocks and spread 19.0 % between ten runs (2.9 %
        // this way); the one-thread workloads read the same either way.
        // The next construction on the next CPU, so that a neighbour
        // that sits on one of them spoils only half the run
        // (REPEATABILITY.md, "One mechanism at a time").
        host::run_on(&[cpus[setup % cpus.len()]]);
        setups.push(host::sample(setup, &mut || kept = Some(build())));
        let state = kept.as_mut().expect("just built");
        let start = Instant::now();
        let first = windows.len();
        while windows.len() - first < MIN_WINDOWS.div_ceil(SETUPS) || start.elapsed() < share {
            let index = windows.len();
            windows.push(host::sample(index, &mut || state.window(index)));
            state.between(index);
        }
        state.finish();
    }
    host::run_on(&cpus);
    (kept.expect("SETUPS > 0"), setups, windows)
}

/// One unrecorded window of `window`, then one recorded window in each
/// stack class. A series that shares the run with other code is
/// measured in such visits: the clock a core grants follows the
/// instructions it has just seen, so the reading before a window
/// brackets it only if the same code ran before; and whatever state the
/// other code left (a drained pipeline, a cold cache) is the first
/// window's to absorb. `window` gets the index its sample will have in
/// `samples`, or `None` for the unrecorded one.
fn visit(samples: &mut Vec<Sample>, window: &mut dyn FnMut(Option<usize>)) {
    window(None);
    for class in 0..CLASSES {
        let index = samples.len();
        samples.push(host::sample(class, &mut || window(Some(index))));
    }
}

/// One series of windows among several that run interleaved.
pub struct Pass<'a> {
    name: &'static str,
    window: Box<dyn FnMut(Option<usize>) + 'a>,
    samples: Vec<Sample>,
}

impl<'a> Pass<'a> {
    /// A pass of `window`s (see [`visit`] for its argument).
    pub fn new(name: &'static str, window: impl FnMut(Option<usize>) + 'a) -> Self {
        Self {
            name,
            window: Box::new(window),
            samples: Vec::with_capacity(1024),
        }
    }
}

/// Run the passes round-robin — one [`visit`] of each per round, after
/// `before_round(round)` — until `budget` has passed and every pass
/// holds [`MIN_WINDOWS`] windows. Passes that are compared with one
/// another (traced against untraced, one engine against another) share
/// the host's quiet and disturbed stretches this way; back to back, one
/// of them regularly sits in a disturbed stretch throughout.
pub fn interleave(budget: Duration, passes: &mut [Pass<'_>], mut before_round: impl FnMut(usize)) {
    let start = Instant::now();
    let mut round = 0;
    while round * CLASSES < MIN_WINDOWS || start.elapsed() < budget {
        before_round(round);
        for p in passes.iter_mut() {
            visit(&mut p.samples, &mut p.window);
        }
        round += 1;
    }
}

/// The windows of pass `name`.
pub fn samples_of<'p>(passes: &'p [Pass<'_>], name: &str) -> &'p [Sample] {
    &passes
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no pass named {name}"))
        .samples
}

/// [`samples_of`], summarised.
pub fn windows_of(passes: &[Pass<'_>], name: &str) -> Windows {
    Windows::of(samples_of(passes, name))
}

/// Ops attempted and failed, and a running hash of sampled output bits.
#[derive(Clone, Copy, Debug)]
pub struct Tally {
    /// Ops run (timed or checked).
    pub attempted: u64,
    /// Ops failed, shed, non-finite or failing an output check.
    pub failed: u64,
    /// FNV-1a over the bits of sampled outputs: equal seeds, equal
    /// fingerprints.
    pub fingerprint: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Tally {
    /// Count `n` ops that ran without a per-op check.
    pub fn ran(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `n` checked ops, `bad` of which failed.
    pub fn checked(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Fold 32 output bits into the fingerprint.
    #[inline]
    pub fn absorb(&mut self, bits: u32) {
        for b in bits.to_le_bytes() {
            self.fingerprint =
                (self.fingerprint ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold 64 output bits into the fingerprint.
    pub fn absorb64(&mut self, bits: u64) {
        self.absorb(bits as u32);
        self.absorb((bits >> 32) as u32);
    }

    /// Failed ÷ attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Failure accounting and fingerprint.
    pub tally: Tally,
    /// `(name, value)` for every metric this run measured.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the human-readable report (validity of the run).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Empty outcome.
    pub fn new() -> Self {
        Self {
            tally: Tally::default(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "metric {name} recorded twice"
        );
        self.metrics.push((name, value));
    }

    /// Record the three end-to-end metrics of a [`measure`]d run.
    pub fn put_end_to_end(
        &mut self,
        ops_per_window: f64,
        setups: Vec<Sample>,
        windows: Vec<Sample>,
    ) {
        let w = Windows::of(&windows);
        self.put("ops_per_s", w.rate(ops_per_window));
        self.notes.push(format!(
            "ops_per_s is at the reference clock ({:.3} GHz); on the wall clock this run made {:.1} ops/s at a median core clock of {:.3} GHz",
            crate::estimator::REFERENCE_HZ / 1e9,
            w.wall_rate(ops_per_window),
            w.clock_ghz
        ));
        // Wall seconds: a construction is page faults and table fills,
        // which follow the memory system, not the core clock.
        let wall: Vec<f64> = setups.iter().map(|s| s.secs).collect();
        self.put("setup_s", median(&wall));
        self.put("peak_rss_mib", peak_rss_mib());
        self.notes.push(format!(
            "setup: median of {} constructions spread over the run; wall seconds {}",
            wall.len(),
            wall.iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        if !host::classes_differ() {
            self.notes
                .push("WARNING the two stack classes coincide in this build".into());
        }
        self.note_windows("timed windows", &w);
    }

    /// Note a window series' validity numbers.
    pub fn note_windows(&mut self, what: &str, w: &Windows) {
        self.notes.push(format!(
            "{what}: {} windows, {:.3} ms at the reference clock, {:.3} ms on the wall clock, steady {:.3}, harness.quiet_frac {:.3}, harness.mean_over_fast {:.3}",
            w.n,
            w.fast_s * 1e3,
            w.wall_s * 1e3,
            w.steady_frac,
            w.quiet_frac,
            w.mean_over_fast()
        ));
        if w.quiet_frac < 0.02 {
            self.notes.push(format!(
                "WARNING {what}: fewer than 2 % of windows near the estimate; the host was hardly ever quiet"
            ));
        }
    }

    /// Record the validity metrics of a traced run.
    pub fn put_validity(&mut self, traced: &Windows, untraced: &Windows, ops_per_window: f64) {
        self.put("harness.windows", traced.n as f64);
        self.put("harness.quiet_frac", traced.quiet_frac);
        self.put("harness.mean_over_fast", traced.mean_over_fast());
        // What the rescaling divides out of every reference-clock number
        // of this run: the clock the host granted the untraced op, and
        // the rate that made on the wall clock.
        self.put("harness.clock_ghz", untraced.clock_ghz);
        self.put("harness.wall_ops_per_s", untraced.wall_rate(ops_per_window));
        self.put(
            "harness.trace_overhead_frac",
            1.0 - traced.rate(ops_per_window) / untraced.rate(ops_per_window),
        );
        self.note_windows("untraced reference", untraced);
        self.note_windows("traced replay", traced);
    }
}

/// Process high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `a[i] = b[i] + s·c[i]` over arrays far beyond the private L2
/// (3 × 64 MiB): what this host's shared L3/DRAM gives one thread,
/// measured in the same run as the kernels it is compared with.
pub struct Triad {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Triad {
    /// Bytes one sweep moves.
    pub const BYTES: f64 = 3.0 * 4.0 * Self::N as f64;
    const N: usize = 16 << 20;

    /// Allocate and touch the arrays.
    pub fn new() -> Self {
        Self {
            a: vec![0.0; Self::N],
            b: vec![1.0; Self::N],
            c: vec![2.0; Self::N],
        }
    }

    /// One sweep.
    pub fn sweep(&mut self, i: usize) {
        let s = 1.0 + i as f32;
        for ((x, y), z) in self.a.iter_mut().zip(&self.b).zip(&self.c) {
            *x = y + s * z;
        }
        std::hint::black_box(&mut self.a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_are_independent() {
        let a = positions(&mut rng_for(7, 1), 64, Locality::Confined);
        let b = positions(&mut rng_for(7, 1), 64, Locality::Confined);
        let c = positions(&mut rng_for(8, 1), 64, Locality::Confined);
        let d = positions(&mut rng_for(7, 2), 64, Locality::Confined);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn confined_positions_touch_343_grid_points() {
        for seed in 0..20 {
            let pool = positions(&mut rng_for(seed, 1), 4096, Locality::Confined);
            let mut cells = [
                std::collections::BTreeSet::new(),
                Default::default(),
                Default::default(),
            ];
            for p in &pool {
                for d in 0..3 {
                    assert!((0.0..1.0).contains(&p[d]));
                    cells[d].insert((f64::from(p[d]) * GRID as f64) as usize);
                }
            }
            for c in &cells {
                assert_eq!(c.len(), CONFINE_CELLS, "seed {seed}: cells {c:?}");
                assert_eq!(c.last().unwrap() - c.first().unwrap(), CONFINE_CELLS - 1);
            }
        }
        let wide = positions(&mut rng_for(3, 1), 4096, Locality::CellWide);
        let xs: std::collections::BTreeSet<usize> = wide
            .iter()
            .map(|p| (f64::from(p[0]) * GRID as f64) as usize)
            .collect();
        assert_eq!(xs.len(), GRID);
    }

    const PER_SETUP: usize = MIN_WINDOWS.div_ceil(SETUPS);

    struct Counter {
        windows: usize,
        betweens: usize,
        finished: bool,
    }

    impl Timed for Counter {
        fn window(&mut self, index: usize) {
            assert_eq!(
                index % PER_SETUP,
                self.windows,
                "window indices run on across set-ups"
            );
            self.windows += 1;
        }
        fn between(&mut self, _index: usize) {
            self.betweens += 1;
        }
        fn finish(&mut self) {
            self.finished = true;
        }
    }

    #[test]
    fn measure_alternates_setups_and_windows_and_keeps_the_last() {
        let cfg = RunCfg {
            seed: 0,
            seconds: 0.0,
            trace: false,
            quick: true,
            corrupt: false,
        };
        let mut built = 0;
        let (kept, setups, windows) = measure(&cfg, || {
            built += 1;
            Counter {
                windows: 0,
                betweens: 0,
                finished: false,
            }
        });
        assert_eq!((built, setups.len()), (SETUPS, SETUPS));
        assert_eq!(windows.len(), PER_SETUP * SETUPS);
        assert_eq!(
            (kept.windows, kept.betweens, kept.finished),
            (PER_SETUP, PER_SETUP, true)
        );
        assert!(peak_rss_mib() > 1.0);
    }

    #[test]
    fn interleaved_passes_take_turns() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut passes = [
            Pass::new("a", |i| order.borrow_mut().push(('a', i))),
            Pass::new("b", |i| order.borrow_mut().push(('b', i))),
        ];
        let mut rounds = Vec::new();
        interleave(Duration::ZERO, &mut passes, |round| rounds.push(round));
        assert_eq!(
            rounds,
            (0..MIN_WINDOWS.div_ceil(CLASSES)).collect::<Vec<_>>()
        );
        let recorded = MIN_WINDOWS.next_multiple_of(CLASSES);
        assert_eq!(samples_of(&passes, "a").len(), recorded);
        assert_eq!(
            samples_of(&passes, "a")[3].class,
            1,
            "a visit covers both stack classes"
        );
        assert_eq!(windows_of(&passes, "b").n, recorded);
        drop(passes);
        let order = order.into_inner();
        let visit = |pass, first| [(pass, None), (pass, Some(first)), (pass, Some(first + 1))];
        assert_eq!(
            &order[..12],
            &[visit('a', 0), visit('b', 0), visit('a', 2), visit('b', 2)].concat()
        );
    }

    #[test]
    fn tally_counts_and_fingerprints() {
        let mut a = Tally::default();
        a.ran(10);
        a.checked(4, 1);
        assert_eq!((a.attempted, a.failed), (14, 1));
        assert!((a.fail_frac() - 1.0 / 14.0).abs() < 1e-15);
        let mut b = Tally::default();
        a.absorb(1.5f32.to_bits());
        b.absorb(1.5f32.to_bits());
        assert_eq!(a.fingerprint, b.fingerprint);
        b.absorb(0);
        assert_ne!(a.fingerprint, b.fingerprint);
    }
}
