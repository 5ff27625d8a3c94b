//! The kernels' code generation depends on the release profile (fat
//! LTO, one codegen unit): the benchmark must build the library the way
//! the repo does, so its `[profile.release]` mirrors the root's.

use std::collections::BTreeMap;

fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

#[test]
fn release_profile_mirrors_the_root_manifest() {
    let root = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
    let bench = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    assert_eq!(
        root.get("lto").map(String::as_str),
        Some("true"),
        "root profile read"
    );
    assert_eq!(
        root.get("codegen-units").map(String::as_str),
        Some("1"),
        "root profile read"
    );
    assert_eq!(
        bench, root,
        "bench/Cargo.toml [profile.release] drifted from the root manifest"
    );
}
