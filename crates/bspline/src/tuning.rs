//! Cache probes, and the block-budget policy built on them.
//!
//! [`default_block_budget`] reads the shared LLC's size from sysfs and
//! picks a table's block budget from it. The paper lists an FFTW-style
//! auto-tuner as future work (Sec. VI); none is built here. The Nb
//! sweep is `qmc-bench`'s `fig7c` binary, and its `fig9` binary
//! compares this budget against the monolithic engine.

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
/// this budget against the single multi-spline object, and the
/// nested-thread sweep at a fixed machine thread count). The last
/// recording on this 1-domain shared host (N = 2048, 334 MiB f32
/// table, `QMC_THREADS=4` on one hardware thread) read **0.58×** —
/// blocked 17.04 vs monolithic 29.58 M-evals/s — so the super-LLC
/// branch is unproven here; re-judging it
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
        assert_eq!(read_cache_size_at(&root, 2), Some(2 << 20));
        assert_eq!(read_cache_size_at(&root, 3), Some(105 << 20));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn detect_falls_back_on_missing_files() {
        let root = fixture_root("missing");
        // index2 exists, index3 does not: L2 parsed, no LLC size.
        write_fixture(&root, "cpu/cpu0/cache/index2/size", "512K");
        assert_eq!(read_cache_size_at(&root, 2), Some(512 << 10));
        assert_eq!(read_cache_size_at(&root, 3), None);
        // An entirely absent tree reads nothing at either level.
        let absent = root.join("no-such-subtree");
        assert_eq!(read_cache_size_at(&absent, 2), None);
        assert_eq!(read_cache_size_at(&absent, 3), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn detect_falls_back_on_garbage_sizes() {
        let root = fixture_root("garbage");
        write_fixture(&root, "cpu/cpu0/cache/index2/size", "lots\n");
        write_fixture(&root, "cpu/cpu0/cache/index3/size", "64QB");
        assert_eq!(read_cache_size_at(&root, 2), None);
        assert_eq!(read_cache_size_at(&root, 3), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn block_budgets_are_positive_and_ordered_sensibly() {
        // Sub-LLC tables get the whole-table budget (B = 1)…
        assert_eq!(default_block_budget(1024), 1024);
        assert_eq!(default_block_budget(0), 1);
        // …and only super-LLC tables a strict decomposition.
        assert!(default_block_budget(usize::MAX) < usize::MAX);
        assert!(default_block_budget(usize::MAX) >= 1);
    }
}
