//! Cache probes, and the block-budget policy built on them.
//!
//! [`BlockBudgets`] reads the cache hierarchy's natural block budgets
//! (private L2, LLC per worker, whole table) from sysfs;
//! [`default_block_budget`] is the policy that picks one of them for a
//! table. The paper lists an FFTW-style auto-tuner as future work
//! (Sec. VI); none is built here. The Nb sweep is `qmc-bench`'s `fig7c`
//! binary, and `examples/blocked_scaling.rs` compares the budget
//! candidates.

/// Fallback L2 size when sysfs is unreadable (bytes).
const FALLBACK_L2: usize = 1 << 20;
/// Fallback shared-LLC size when sysfs is unreadable (bytes).
const FALLBACK_L3: usize = 32 << 20;

/// The live sysfs root the cache probes read under.
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
    digits.trim().parse::<usize>().ok()?.checked_mul(mult)
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
    /// The full coefficient-table footprint (yields B = 1, whose one
    /// block shares the caller's table: no copy).
    pub whole_table: usize,
}

impl BlockBudgets {
    /// Detect from sysfs (`cpu0/cache/index{2,3}/size`), with
    /// conservative fallbacks (1 MiB / 32 MiB) off-Linux, and the
    /// worker count from `rayon::current_num_threads()` (which honors
    /// `QMC_THREADS`, so budget comparisons are pinnable).
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
}

/// The block budget production runs use for a table of `table_bytes`.
/// The policy:
///
/// * **Table ≤ LLC**: the **whole table** (B = 1) — blocking has
///   nothing to gain while the monolithic slab already fits the shared
///   LLC, so the decomposition would only add per-block loop overhead.
///   The one block is the caller's table, shared copy-on-write, so
///   B = 1 costs no copy and no second table's memory.
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

#[cfg(test)]
mod tests {
    use super::*;
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
        // A size past `usize` (2^64 bytes) is garbage, not a wrap to 0.
        assert_eq!(parse_cache_size("18014398509481984K"), None);
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
    fn block_budgets_are_positive_and_ordered_sensibly() {
        let b = BlockBudgets::detect(123_456);
        assert!(b.l2 >= 1);
        assert!(b.l3_per_core >= 1);
        assert_eq!(b.whole_table, 123_456);
        // Sub-LLC tables get the whole-table budget (B = 1)…
        assert_eq!(default_block_budget(1024), 1024);
        // …and only super-LLC tables a strict decomposition.
        assert!(default_block_budget(usize::MAX) < usize::MAX);
        assert!(default_block_budget(usize::MAX) >= 1);
    }
}
