//! The harness end to end in `--quick` mode: the same code paths as a
//! full run, ~1 s of windows per workload. Run with `--release`; a
//! debug build of the kernels makes every fixed-work window ~10x longer.

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "spline_batch",
    "spline_onemove",
    "vmc_pbyp",
    "service_mixed",
];

/// Run the benchmark from the repo root, as the driver does.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qmc-ledger"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run qmc-ledger")
}

fn result_line(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().last().unwrap_or_default().to_string()
}

fn field(line: &str, key: &str) -> String {
    let at = line
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("{key} in {line}"));
    let rest = &line[at + key.len() + 4..];
    rest[..rest.find([',', '}']).unwrap()].to_string()
}

fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} in {line}"));
    let rest = &line[at + key.len()..];
    rest[..rest.find(',').unwrap()].parse().unwrap()
}

#[test]
fn every_workload_reports_the_end_to_end_metrics_and_passes_its_checks() {
    for w in WORKLOADS {
        let out = run(&["--workload", w, "--seed", "11", "--trace", "0", "--quick"]);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = result_line(&out);
        assert_eq!(field(&line, "correct"), "true", "{w}");
        assert_eq!(field(&line, "failed"), "0", "{w}");
        assert!(field(&line, "attempted").parse::<u64>().unwrap() > 0, "{w}");
        for m in ["ops_per_s", "setup_s", "peak_rss_mib"] {
            assert!(metric(&line, m) > 0.0, "{w} {m}");
        }
    }
}

#[test]
fn traced_runs_print_the_whole_ledger_and_write_a_trace() {
    let dictionary = run(&["--print-benchmark-json"]);
    let dictionary = String::from_utf8_lossy(&dictionary.stdout).to_string();
    let per_layer = &dictionary[dictionary.find("\"per_layer\"").unwrap()..];
    let names: Vec<&str> = per_layer
        .split("{\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').unwrap()])
        .collect();
    assert!(names.len() > 80);
    for w in WORKLOADS {
        let out = run(&["--workload", w, "--seed", "11", "--trace", "1", "--quick"]);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = result_line(&out);
        assert_eq!(field(&line, "correct"), "true", "{w}");
        for name in &names {
            assert!(metric(&line, name).is_finite(), "{w} {name}");
        }
        assert!(metric(&line, "harness.windows") >= 25.0, "{w}");
        let trace = format!("{}/out/{w}.trace.jsonl", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("{trace}: {e}"));
        assert!(text.lines().count() > 25, "{w}");
        assert!(text.lines().nth(1).unwrap().contains("\"start_ns\""), "{w}");
    }
}

#[test]
fn same_seed_same_fingerprint_and_another_seed_another() {
    // One workload whose checks sample a fixed set of ops, and the one
    // whose checks follow the sweeps (however many the host let run).
    for workload in ["spline_onemove", "vmc_pbyp"] {
        fingerprints_follow_the_seed(workload);
    }
}

fn fingerprints_follow_the_seed(workload: &str) {
    let print = |seed: &str| {
        let out = run(&["--workload", workload, "--seed", seed, "--quick"]);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let at = text
            .find("harness.fingerprint ")
            .expect("fingerprint in the report");
        text[at + 20..at + 36].to_string()
    };
    let (a, b, c) = (print("5"), print("5"), print("6"));
    assert_eq!(a, b, "{workload}");
    assert_ne!(a, c, "{workload}");
}

#[test]
fn a_corrupted_reference_is_counted_as_failures() {
    for w in WORKLOADS {
        let out = run(&[
            "--workload",
            w,
            "--seed",
            "11",
            "--quick",
            "--self-test-corrupt",
        ]);
        assert!(!out.status.success(), "{w}: corrupted references passed");
        let line = result_line(&out);
        assert_eq!(field(&line, "correct"), "false", "{w}");
        assert!(field(&line, "failed").parse::<u64>().unwrap() > 0, "{w}");
    }
}

#[test]
fn bad_arguments_are_refused() {
    assert_eq!(run(&["--workload", "nope"]).status.code(), Some(2));
    assert_eq!(run(&["--trace", "7"]).status.code(), Some(2));
}
