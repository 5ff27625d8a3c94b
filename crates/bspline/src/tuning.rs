//! Tile-size and block-budget auto-tuning — the paper's plan "to
//! provide an auto-tuning capability using miniQMC to guide the
//! production runs similar to FFTW's solution using wisdom files"
//! (Sec. VI).
//!
//! Both sweeps time the one tiled engine ([`BlockedEngine`]) through
//! its batched view, one candidate width at a time, in one shared
//! timing loop: [`tune_tile_size`] over explicit tile widths `Nb` (the
//! AoSoA decomposition), [`tune_block_budget`] over the byte budgets of
//! the cache hierarchy ([`BlockBudgets`]). [`Wisdom`] caches tile-size
//! outcomes keyed by (kernel, grid, N) in a plain-text format so
//! production runs can skip the sweep. The optimal tile size is a
//! property of the cache hierarchy, not the problem size (paper
//! Sec. VI-B), so wisdom learned on one problem transfers to others on
//! the same machine.

use crate::aosoa::BsplineAoSoA;
use crate::batch::PosBlock;
use crate::blocked::BlockedEngine;
use crate::engine::SpoEngine;
use crate::layout::Kernel;
use crate::walker::random_positions;
use einspline::multi::MultiCoefs;
use einspline::Real;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Cache probes and the block-budget sweep.

/// Fallback L2 size when sysfs is unreadable (bytes).
const FALLBACK_L2: usize = 1 << 20;
/// Fallback shared-LLC size when sysfs is unreadable (bytes).
const FALLBACK_L3: usize = 32 << 20;

/// The live sysfs root the cache and NUMA probes read under.
const SYSFS_ROOT: &str = "/sys/devices/system";

/// Parse a sysfs cache-size string (`"2048K"`, `"260M"`).
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.trim().parse::<usize>().ok().map(|v| v * mult)
}

/// Read `<root>/cpu/cpu0/cache/index{index}/size` — the injectable-root
/// core of [`read_cache_size`], unit-testable against fixture trees
/// (missing files and garbage sizes both yield `None`, so the callers'
/// fallbacks apply).
fn read_cache_size_at(root: &std::path::Path, index: usize) -> Option<usize> {
    let path = root.join(format!("cpu/cpu0/cache/index{index}/size"));
    parse_cache_size(&std::fs::read_to_string(path).ok()?)
}

fn read_cache_size(index: usize) -> Option<usize> {
    read_cache_size_at(std::path::Path::new(SYSFS_ROOT), index)
}

/// The three block-budget candidates of the paper's sizing story:
/// private L2 (per-core residency), shared LLC divided by the worker
/// count (each nested thread's fair slice), and the whole table (B = 1,
/// the monolithic engine as a degenerate decomposition).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockBudgets {
    /// Private per-core L2 size in bytes.
    pub l2: usize,
    /// Shared last-level cache divided by the active worker count.
    pub l3_per_core: usize,
    /// The full coefficient-table footprint (yields B = 1).
    pub whole_table: usize,
}

impl BlockBudgets {
    /// Detect from sysfs (`cpu0/cache/index{2,3}/size`), with
    /// conservative fallbacks (1 MiB / 32 MiB) off-Linux, and the
    /// worker count from `rayon::current_num_threads()` (which honors
    /// `QMC_THREADS`, so tuning runs are pinnable).
    pub fn detect(table_bytes: usize) -> Self {
        Self::detect_at(
            std::path::Path::new(SYSFS_ROOT),
            table_bytes,
            rayon::current_num_threads(),
        )
    }

    /// The injectable-root core of [`BlockBudgets::detect`]: read the
    /// cache sizes under `root` (a sysfs tree or a test fixture) and
    /// divide the LLC among `workers`. Missing or unparsable size files
    /// fall back exactly as the live path does.
    pub fn detect_at(root: &std::path::Path, table_bytes: usize, workers: usize) -> Self {
        let l2 = read_cache_size_at(root, 2).unwrap_or(FALLBACK_L2);
        let l3 = read_cache_size_at(root, 3).unwrap_or(FALLBACK_L3);
        let cores = workers.max(1);
        Self {
            l2: l2.max(1),
            l3_per_core: (l3 / cores).max(1),
            whole_table: table_bytes.max(1),
        }
    }

    /// The sweep order: L2, LLC/cores, whole table.
    pub fn candidates(&self) -> [usize; 3] {
        [self.l2, self.l3_per_core, self.whole_table]
    }
}

// ---------------------------------------------------------------------------
// NUMA-domain detection (the sharding counterpart of the cache probes
// above; consumed by the service router's shard resolution).

/// Count the memory domains under `<root>/node` (`node0`, `node1`, …) —
/// the injectable-root core of [`numa_domains`], unit-testable against
/// fixture trees. A missing or empty node directory reads as one
/// domain (UMA / off-Linux).
pub fn numa_domains_at(root: &std::path::Path) -> usize {
    let Ok(entries) = std::fs::read_dir(root.join("node")) else {
        return 1;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.strip_prefix("node").is_some_and(|rest| {
                !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit())
            })
        })
        .count()
        .max(1)
}

/// Strict parse of a `QMC_NUMA_DOMAINS` override: a positive decimal
/// domain count. Garbage or zero panics naming the variable (the same
/// contract as the rayon stub's `QMC_THREADS`) — a silently ignored
/// typo would fall back to single-domain FIFO routing and quietly
/// invalidate a routed measurement.
fn parse_numa_domains(raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(0) => panic!("QMC_NUMA_DOMAINS must be at least 1, got 0"),
        Ok(n) => n,
        Err(_) => panic!("QMC_NUMA_DOMAINS must be a positive integer, got {raw:?}"),
    }
}

/// The NUMA-domain count shard routing resolves against:
/// `QMC_NUMA_DOMAINS` when set (strictly parsed, so multi-domain
/// routing is exercisable on a single-domain host), else the sysfs
/// node count (`/sys/devices/system/node/node*`), else 1. Cached for
/// the process lifetime like the rayon stub's thread count.
pub fn numa_domains() -> usize {
    static DOMAINS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DOMAINS.get_or_init(|| match std::env::var("QMC_NUMA_DOMAINS") {
        Ok(raw) => parse_numa_domains(&raw),
        Err(_) => numa_domains_at(std::path::Path::new(SYSFS_ROOT)),
    })
}

/// Outcome of a block-budget sweep.
#[derive(Clone, Debug)]
pub struct BlockTuneResult {
    /// The winning byte budget.
    pub best_budget: usize,
    /// The block width that budget produced on the tuned table.
    pub best_nb: usize,
    /// `(budget, nb, orbital evaluations per second)` per candidate
    /// (deduplicated: budgets resolving to the same nb measure once).
    pub sweep: Vec<(usize, usize, f64)>,
}

/// Measure the blocked engine's batched throughput at each candidate
/// budget of [`BlockBudgets::detect`] and return the fastest — the
/// autotuner that picks the blocked engine's default decomposition on a
/// new host.
pub fn tune_block_budget<T: Real>(
    coefs: &MultiCoefs<T>,
    kernel: Kernel,
    cfg: &TuneConfig,
) -> BlockTuneResult {
    let budgets = BlockBudgets::detect(coefs.bytes());
    let block = tune_positions(coefs, cfg);
    let mut sweep: Vec<(usize, usize, f64)> = Vec::new();
    let mut best = (0usize, 0usize, 0.0f64);
    for budget in budgets.candidates() {
        let nb = coefs.block_splines_for_budget(budget);
        if sweep.iter().any(|&(_, done_nb, _)| done_nb == nb) {
            continue;
        }
        let engine = BlockedEngine::from_multi(coefs, budget);
        let ops = batched_evals_per_sec(&engine, kernel, &block, cfg.reps);
        sweep.push((budget, nb, ops));
        if ops > best.2 {
            best = (budget, nb, ops);
        }
    }
    BlockTuneResult {
        best_budget: best.0,
        best_nb: best.1,
        sweep,
    }
}

/// The block budget production runs should use for a table of
/// `table_bytes` when no per-host sweep has run. The policy:
///
/// * **Table ≤ LLC**: the **whole table** (B = 1) — blocking has
///   nothing to gain while the monolithic slab already fits the shared
///   LLC, so the decomposition would only add per-block loop overhead.
/// * **Table > LLC**: **LLC/workers** — each worker's block slab can
///   stay LLC-resident while a generation's positions re-touch it,
///   where the monolithic slab would be re-streamed from DRAM.
///
/// Nothing here is a recorded speed-up. To reproduce the
/// blocked-vs-monolithic comparison on a host, run
/// `cargo run --release -p qmc-bench --bin fig9` (one VGH generation at
/// this budget against the single multi-spline object) or
/// `cargo run --release --example blocked_scaling`
/// (`examples/blocked_scaling.rs`: one row per `{L2, LLC/workers,
/// whole table}` candidate). The last recording on this 1-domain
/// shared host (N = 2048, 334 MiB f32 table, `QMC_THREADS=4` on one
/// hardware thread) read **0.58×** — blocked 17.04 vs monolithic 29.58
/// M-evals/s — so the super-LLC branch is unproven here; re-judging it
/// needs real multi-core hardware (ROADMAP carry-over "Strong
/// scaling").
pub fn default_block_budget(table_bytes: usize) -> usize {
    let llc = read_cache_size(3).unwrap_or(FALLBACK_L3);
    if table_bytes <= llc {
        return table_bytes.max(1); // fits the shared LLC: B = 1
    }
    let cores = rayon::current_num_threads().max(1);
    (llc / cores).max(1)
}

/// Parameters of one tuning run.
#[derive(Clone, Copy, Debug)]
pub struct TuneConfig {
    /// Random positions per repetition (the paper's ns; the touched
    /// working set scales with it, so use production-like values).
    pub ns: usize,
    /// Timed repetitions per candidate (best-of).
    pub reps: usize,
    /// RNG seed for the position set.
    pub seed: u64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            ns: 128,
            reps: 3,
            seed: 0x715e,
        }
    }
}

/// Result of a tuning sweep.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// The winning tile size.
    pub best_nb: usize,
    /// `(Nb, orbital evaluations per second)` for every candidate.
    pub sweep: Vec<(usize, f64)>,
}

/// Measure the AoSoA engine's batched throughput at every candidate
/// tile size and return the fastest. Candidates larger than N are
/// skipped; the untiled case can be included by passing `n_splines`
/// itself.
///
/// The optimum follows the cache hierarchy, not the pack width: the
/// `tile_tuning` example (VGH, 24³ grid, cell-wide positions, N = 512
/// and 1024) reads `Nb* = 256` in every run on the 2 MiB-L2 host of the
/// `bench/` ledger, both under `QMC_SIMD=avx2` (8 lanes, N = 512:
/// 0.046–0.048 G-evals/s at 256 against 0.019–0.037 at 16–128, two
/// runs) and with the 16-lane AVX-512 packs (0.066–0.081 at 256 over
/// three runs, against 0.017–0.059 at 16–128 in one); at N = 1024 the
/// untiled walk loses to 256 at both widths. The ledger's fixed
/// `AOSOA_NB` = 64 is the paper's CPU value, not a tuned one.
pub fn tune_tile_size<T: Real>(
    coefs: &MultiCoefs<T>,
    kernel: Kernel,
    candidates: &[usize],
    cfg: &TuneConfig,
) -> TuneResult {
    let n = coefs.n_splines();
    let block = tune_positions(coefs, cfg);
    let mut sweep = Vec::new();
    let mut best = (0usize, 0.0f64);
    for &nb in candidates {
        if nb == 0 || nb > n {
            continue;
        }
        let engine = BsplineAoSoA::from_multi(coefs, nb);
        let ops = batched_evals_per_sec(&engine, kernel, &block, cfg.reps);
        sweep.push((nb, ops));
        if ops > best.1 {
            best = (nb, ops);
        }
    }
    assert!(!sweep.is_empty(), "no valid tile-size candidates");
    TuneResult {
        best_nb: best.0,
        sweep,
    }
}

/// The positions both sweeps time: `cfg.ns` random positions over the
/// table's domain, one [`PosBlock`].
fn tune_positions<T: Real>(coefs: &MultiCoefs<T>, cfg: &TuneConfig) -> PosBlock<T> {
    let (gx, gy, gz) = coefs.grids();
    let domain = [
        (gx.start(), gx.end()),
        (gy.start(), gy.end()),
        (gz.start(), gz.end()),
    ];
    let mut rng = crate::walker::walker_rng(cfg.seed, 0);
    random_positions(&mut rng, cfg.ns, domain).into_iter().collect()
}

/// The one timing loop of both sweeps: best-of-`reps` orbital
/// evaluations per second of `engine` over `block` through its batched
/// (block-major) view, after one warm-up call. Construction stays
/// outside the timed region, matching production use where the
/// decomposition is built once per run.
fn batched_evals_per_sec<T: Real, E: SpoEngine<T>>(
    engine: &E,
    kernel: Kernel,
    block: &PosBlock<T>,
    reps: usize,
) -> f64 {
    let mut out = engine.make_batch_out(block.len());
    engine.eval_batch(kernel, block, &mut out); // warm-up
    let mut best_t = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        engine.eval_batch(kernel, block, &mut out);
        best_t = best_t.min(t0.elapsed().as_secs_f64());
    }
    (engine.n_splines() * block.len()) as f64 / best_t
}

/// The default candidate ladder (powers of two from 16, as in the
/// paper's Fig. 7c sweep).
pub fn default_candidates(n: usize) -> Vec<usize> {
    let mut c = Vec::new();
    let mut nb = 16;
    while nb <= n {
        c.push(nb);
        nb *= 2;
    }
    if c.last() != Some(&n) {
        c.push(n);
    }
    c
}

/// A wisdom key: the tuning context that the optimal tile depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WisdomKey {
    /// Which kernel was tuned.
    pub kernel_tag: u8,
    /// Grid dimensions.
    pub grid: (usize, usize, usize),
    /// Problem size N.
    pub n_splines: usize,
}

impl WisdomKey {
    fn kernel_tag(kernel: Kernel) -> u8 {
        match kernel {
            Kernel::V => 0,
            Kernel::Vgl => 1,
            Kernel::Vgh => 2,
        }
    }
}

/// Persistent tuning knowledge (FFTW-wisdom-style).
///
/// Serialized as one line per entry:
/// `kernel grid_x grid_y grid_z n_splines best_nb`.
#[derive(Clone, Debug, Default)]
pub struct Wisdom {
    entries: BTreeMap<WisdomKey, usize>,
}

impl Wisdom {
    /// Empty wisdom.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record a tuned tile size.
    pub fn record<T: Real>(&mut self, coefs: &MultiCoefs<T>, kernel: Kernel, best_nb: usize) {
        let (gx, gy, gz) = coefs.grids();
        self.entries.insert(
            WisdomKey {
                kernel_tag: WisdomKey::kernel_tag(kernel),
                grid: (gx.num(), gy.num(), gz.num()),
                n_splines: coefs.n_splines(),
            },
            best_nb,
        );
    }

    /// Exact lookup.
    pub fn lookup<T: Real>(&self, coefs: &MultiCoefs<T>, kernel: Kernel) -> Option<usize> {
        let (gx, gy, gz) = coefs.grids();
        self.entries
            .get(&WisdomKey {
                kernel_tag: WisdomKey::kernel_tag(kernel),
                grid: (gx.num(), gy.num(), gz.num()),
                n_splines: coefs.n_splines(),
            })
            .copied()
    }

    /// Fuzzy lookup: the optimal Nb is problem-size independent, so fall
    /// back to any entry with the same kernel and grid (paper Sec. VI-B:
    /// "tuned once for each architecture").
    pub fn lookup_any_n<T: Real>(
        &self,
        coefs: &MultiCoefs<T>,
        kernel: Kernel,
    ) -> Option<usize> {
        self.lookup(coefs, kernel).or_else(|| {
            let (gx, gy, gz) = coefs.grids();
            let tag = WisdomKey::kernel_tag(kernel);
            let grid = (gx.num(), gy.num(), gz.num());
            self.entries
                .iter()
                .find(|(k, _)| k.kernel_tag == tag && k.grid == grid)
                .map(|(k, &nb)| nb.min(coefs.n_splines().max(k.n_splines.min(nb))))
        })
    }

    /// Tune if unknown, then remember (the FFTW `plan` pattern).
    pub fn tile_size_for<T: Real>(
        &mut self,
        coefs: &MultiCoefs<T>,
        kernel: Kernel,
        cfg: &TuneConfig,
    ) -> usize {
        if let Some(nb) = self.lookup(coefs, kernel) {
            return nb;
        }
        let result = tune_tile_size(
            coefs,
            kernel,
            &default_candidates(coefs.n_splines()),
            cfg,
        );
        self.record(coefs, kernel, result.best_nb);
        result.best_nb
    }
}

impl fmt::Display for Wisdom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, nb) in &self.entries {
            writeln!(
                f,
                "{} {} {} {} {} {}",
                k.kernel_tag, k.grid.0, k.grid.1, k.grid.2, k.n_splines, nb
            )?;
        }
        Ok(())
    }
}

impl FromStr for Wisdom {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut w = Wisdom::new();
        for (lineno, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<usize> = line
                .split_whitespace()
                .map(|t| t.parse().map_err(|e| format!("line {}: {e}", lineno + 1)))
                .collect::<Result<_, _>>()?;
            if fields.len() != 6 {
                return Err(format!("line {}: expected 6 fields", lineno + 1));
            }
            w.entries.insert(
                WisdomKey {
                    kernel_tag: fields[0] as u8,
                    grid: (fields[1], fields[2], fields[3]),
                    n_splines: fields[4],
                },
                fields[5],
            );
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use einspline::Grid1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize) -> MultiCoefs<f32> {
        let g = Grid1::periodic(0.0, 1.0, 8);
        let mut m = MultiCoefs::new(g, g, g, n);
        m.fill_random(&mut StdRng::seed_from_u64(4));
        m
    }

    fn quick_cfg() -> TuneConfig {
        TuneConfig {
            ns: 4,
            reps: 1,
            seed: 1,
        }
    }

    #[test]
    fn tuner_returns_a_candidate() {
        let t = table(64);
        let r = tune_tile_size(&t, Kernel::Vgh, &[16, 32, 64], &quick_cfg());
        assert!([16, 32, 64].contains(&r.best_nb));
        assert_eq!(r.sweep.len(), 3);
        for (_, ops) in &r.sweep {
            assert!(*ops > 0.0);
        }
    }

    #[test]
    fn oversized_candidates_are_skipped() {
        let t = table(32);
        let r = tune_tile_size(&t, Kernel::V, &[16, 32, 512], &quick_cfg());
        assert_eq!(r.sweep.len(), 2);
    }

    #[test]
    fn default_candidate_ladder() {
        assert_eq!(default_candidates(128), vec![16, 32, 64, 128]);
        assert_eq!(default_candidates(100), vec![16, 32, 64, 100]);
        assert_eq!(default_candidates(16), vec![16]);
    }

    #[test]
    fn wisdom_roundtrip_through_text() {
        let t = table(64);
        let mut w = Wisdom::new();
        w.record(&t, Kernel::Vgh, 32);
        w.record(&t, Kernel::V, 64);
        let text = w.to_string();
        let w2: Wisdom = text.parse().expect("parse");
        assert_eq!(w2.len(), 2);
        assert_eq!(w2.lookup(&t, Kernel::Vgh), Some(32));
        assert_eq!(w2.lookup(&t, Kernel::V), Some(64));
        assert_eq!(w2.lookup(&t, Kernel::Vgl), None);
    }

    #[test]
    fn wisdom_rejects_bad_text() {
        assert!("1 2 3".parse::<Wisdom>().is_err());
        assert!("a b c d e f".parse::<Wisdom>().is_err());
        let ok: Wisdom = "# comment\n\n2 8 8 8 64 32\n".parse().unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn fuzzy_lookup_transfers_across_n() {
        let t64 = table(64);
        let t128 = table(128);
        let mut w = Wisdom::new();
        w.record(&t64, Kernel::Vgh, 32);
        assert_eq!(w.lookup(&t128, Kernel::Vgh), None);
        assert_eq!(w.lookup_any_n(&t128, Kernel::Vgh), Some(32));
    }

    #[test]
    fn cache_size_strings_parse() {
        assert_eq!(parse_cache_size("2048K"), Some(2 << 20));
        assert_eq!(parse_cache_size("260M\n"), Some(260 << 20));
        assert_eq!(parse_cache_size("1G"), Some(1 << 30));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
        // Suffix variants sysfs trees show in the wild: lower-case,
        // surrounding whitespace, and non-suffix garbage.
        assert_eq!(parse_cache_size("64k"), Some(64 << 10));
        assert_eq!(parse_cache_size(" 3072K \n"), Some(3 << 20));
        assert_eq!(parse_cache_size("2048KB"), None);
        assert_eq!(parse_cache_size("lots"), None);
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("-1K"), None);
    }

    /// Build a throwaway sysfs-shaped fixture tree; each test gets its
    /// own directory so parallel test threads never collide.
    fn fixture_root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!(
            "qmc-tuning-fixture-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        root
    }

    fn write_fixture(root: &std::path::Path, rel: &str, contents: &str) {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture file has a parent"))
            .expect("create fixture dirs");
        std::fs::write(path, contents).expect("write fixture file");
    }

    #[test]
    fn detect_reads_a_well_formed_fixture_tree() {
        let root = fixture_root("well-formed");
        write_fixture(&root, "cpu/cpu0/cache/index2/size", "2048K\n");
        write_fixture(&root, "cpu/cpu0/cache/index3/size", "105M\n");
        let b = BlockBudgets::detect_at(&root, 1 << 30, 4);
        assert_eq!(b.l2, 2 << 20);
        assert_eq!(b.l3_per_core, (105 << 20) / 4);
        assert_eq!(b.whole_table, 1 << 30);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn detect_falls_back_on_missing_files() {
        let root = fixture_root("missing");
        // index2 exists, index3 does not: L2 parsed, LLC falls back.
        write_fixture(&root, "cpu/cpu0/cache/index2/size", "512K");
        let b = BlockBudgets::detect_at(&root, 4096, 1);
        assert_eq!(b.l2, 512 << 10);
        assert_eq!(b.l3_per_core, FALLBACK_L3);
        // An entirely absent tree falls back on both levels.
        let b = BlockBudgets::detect_at(&root.join("no-such-subtree"), 4096, 1);
        assert_eq!(b.l2, FALLBACK_L2);
        assert_eq!(b.l3_per_core, FALLBACK_L3);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn detect_falls_back_on_garbage_sizes() {
        let root = fixture_root("garbage");
        write_fixture(&root, "cpu/cpu0/cache/index2/size", "lots\n");
        write_fixture(&root, "cpu/cpu0/cache/index3/size", "64QB");
        let b = BlockBudgets::detect_at(&root, 4096, 2);
        assert_eq!(b.l2, FALLBACK_L2);
        assert_eq!(b.l3_per_core, FALLBACK_L3 / 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn numa_domains_counts_node_dirs() {
        let root = fixture_root("numa");
        for d in ["node/node0", "node/node1", "node/node12"] {
            std::fs::create_dir_all(root.join(d)).expect("node dir");
        }
        // Non-node entries are ignored: files, other names, bare "node".
        std::fs::create_dir_all(root.join("node/possible")).expect("dir");
        std::fs::create_dir_all(root.join("node/nodeX")).expect("dir");
        write_fixture(&root, "node/online", "0-2\n");
        assert_eq!(numa_domains_at(&root), 3);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn numa_domains_missing_tree_is_single_domain() {
        let root = fixture_root("numa-missing");
        assert_eq!(numa_domains_at(&root), 1);
        // An empty node dir also reads as UMA.
        std::fs::create_dir_all(root.join("node")).expect("dir");
        assert_eq!(numa_domains_at(&root), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn numa_override_parses_strictly() {
        assert_eq!(parse_numa_domains("2"), 2);
        assert_eq!(parse_numa_domains(" 8\n"), 8);
    }

    #[test]
    #[should_panic(expected = "QMC_NUMA_DOMAINS must be a positive integer")]
    fn numa_override_rejects_garbage() {
        parse_numa_domains("two");
    }

    #[test]
    #[should_panic(expected = "QMC_NUMA_DOMAINS must be at least 1")]
    fn numa_override_rejects_zero() {
        parse_numa_domains("0");
    }

    #[test]
    fn block_budgets_are_positive_and_ordered_sensibly() {
        let b = BlockBudgets::detect(123_456);
        assert!(b.l2 >= 1);
        assert!(b.l3_per_core >= 1);
        assert_eq!(b.whole_table, 123_456);
        assert_eq!(b.candidates().len(), 3);
        // Sub-LLC tables get the whole-table budget (B = 1)…
        assert_eq!(default_block_budget(1024), 1024);
        // …and only super-LLC tables a strict decomposition.
        assert!(default_block_budget(usize::MAX) < usize::MAX);
        assert!(default_block_budget(usize::MAX) >= 1);
    }

    #[test]
    fn block_budget_tuner_returns_a_candidate() {
        let t = table(64);
        let r = tune_block_budget(&t, Kernel::Vgh, &quick_cfg());
        assert!(!r.sweep.is_empty());
        assert!(r.best_nb >= 1 && r.best_nb <= 64);
        assert!(r.sweep.iter().any(|&(b, _, _)| b == r.best_budget));
        // The whole-table candidate always resolves to B = 1 (nb = N).
        assert!(r.sweep.iter().any(|&(_, nb, _)| nb == 64));
        // Deduplication: every nb measured at most once.
        let mut nbs: Vec<usize> = r.sweep.iter().map(|&(_, nb, _)| nb).collect();
        nbs.sort_unstable();
        nbs.dedup();
        assert_eq!(nbs.len(), r.sweep.len());
    }

    #[test]
    fn tile_size_for_tunes_once_then_caches() {
        let t = table(32);
        let mut w = Wisdom::new();
        let nb1 = w.tile_size_for(&t, Kernel::Vgl, &quick_cfg());
        assert_eq!(w.len(), 1);
        let nb2 = w.tile_size_for(&t, Kernel::Vgl, &quick_cfg());
        assert_eq!(nb1, nb2);
        assert_eq!(w.len(), 1);
    }
}
