//! The inventory of environment knobs: every `"QMC_…"` string literal in
//! the workspace's program sources (`crates/*/src`, `crates/*/examples`,
//! `examples/`, `src/`, `stubs/*/src`) must be one of the names listed
//! below, and every listed name must still occur. A knob added or removed
//! without editing [`KNOBS`] fails here, so "this change adds no option"
//! is a checked claim rather than a promise. Tests are not scanned: they
//! may set a knob, but they cannot add one.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Every env knob the program reads, by the literal that names it.
const KNOBS: [&str; 8] = [
    // SIMD backend and worker pin (bspline, the rayon stub).
    "QMC_SIMD",
    "QMC_THREADS",
    // qmc-bench's quick mode for the table/figure binaries.
    "QMC_BENCH_QUICK",
    // examples/dmc_population.rs (the campaign driver).
    "QMC_DMC_GENERATIONS",
    "QMC_DMC_CHECKPOINT_EVERY",
    "QMC_DMC_CKPT_DIR",
    "QMC_DMC_RESUME",
    "QMC_DMC_SLEEP_MS",
];

/// The `.rs` files under `dir`, recursively; nothing if `dir` is absent.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `"QMC_[A-Z0-9_]+"` string literal in `text`.
fn knob_literals(text: &str) -> Vec<String> {
    let is_name = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    let mut found = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"QMC_") {
        let after = &rest[at + 1..];
        let len = after.find(|c: char| !is_name(c)).unwrap_or(after.len());
        if len > "QMC_".len() && after[len..].starts_with('"') {
            found.push(after[..len].to_string());
        }
        rest = &after[len..];
    }
    found
}

/// The program source directories the inventory covers.
fn scanned_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("examples"), root.join("src")];
    for (parent, subs) in [
        ("crates", &["src", "examples"][..]),
        ("stubs", &["src"][..]),
    ] {
        let members = fs::read_dir(root.join(parent)).expect("member directory");
        for member in members {
            let member = member.expect("readable directory entry").path();
            dirs.extend(subs.iter().map(|s| member.join(s)));
        }
    }
    dirs
}

#[test]
fn scanner_finds_only_whole_literals() {
    let text = r#"var("QMC_A1"); "QMC_lower"; "QMC_B" "QMC_C_"; "xQMC_D"; "QMC_""#;
    assert_eq!(knob_literals(text), ["QMC_A1", "QMC_B", "QMC_C_"]);
}

#[test]
fn env_knobs_match_the_inventory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in scanned_dirs(root) {
        rust_files(&dir, &mut files);
    }
    assert!(files.len() >= 50, "scanned {} files", files.len());
    let mut found = BTreeSet::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source file");
        found.extend(knob_literals(&text));
    }
    let listed: BTreeSet<String> = KNOBS.iter().map(|k| k.to_string()).collect();
    let added: Vec<_> = found.difference(&listed).collect();
    let gone: Vec<_> = listed.difference(&found).collect();
    assert!(
        added.is_empty() && gone.is_empty(),
        "env knobs changed without the inventory: new {added:?}, no longer read {gone:?}"
    );
}
