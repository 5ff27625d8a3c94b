//! `qmc-ledger`: the repo's benchmark (see `bench/README.md`).
//!
//! ```text
//! qmc-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//! runs one workload and prints, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Without
//! `--workload` every workload runs, each in a process of its own (so
//! that `peak_rss_mib` is that workload's), and a summary follows.
//! `--repeat K` runs K such sets on seeds `seed..seed+K` and prints the
//! spread of every end-to-end metric.

mod checks;
mod estimator;
mod harness;
mod host;
mod metrics;
mod service_mixed;
mod spline_batch;
mod spline_onemove;
mod trace;
mod vmc_pbyp;

use harness::{Outcome, RunCfg};
use metrics::{ALL, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: qmc-ledger [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
                  [--quick] [--repeat <K>] [--print-benchmark-json]
workloads: spline_batch spline_onemove vmc_pbyp service_mixed (default: all, one process each)";

struct Args {
    workload: Option<String>,
    cfg: RunCfg,
    repeat: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        cfg: RunCfg {
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            quick: false,
            corrupt: false,
        },
        repeat: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => out.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                out.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--repeat" => {
                out.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            "--quick" => out.cfg.quick = true,
            "--self-test-corrupt" => out.cfg.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.cfg.quick && !seconds_given {
        out.cfg.seconds = 1.0;
    }
    if !(out.cfg.seconds > 0.0 && out.cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(out)
}

fn run_workload(name: &str, cfg: &RunCfg) -> Outcome {
    match name {
        "spline_batch" => spline_batch::run(cfg),
        "spline_onemove" => spline_onemove::run(cfg),
        "vmc_pbyp" => vmc_pbyp::run(cfg),
        "service_mixed" => service_mixed::run(cfg),
        _ => unreachable!("workload names are validated by parse"),
    }
}

/// Every metric this invocation must print, in dictionary order.
fn reported(
    name: &str,
    cfg: &RunCfg,
    outcome: &mut Outcome,
) -> Vec<(&'static str, &'static str, f64)> {
    if !cfg.trace {
        return END_TO_END
            .iter()
            .map(|m| {
                let v = outcome.metrics.iter().find(|(n, _)| *n == m.name);
                (
                    m.name,
                    m.unit,
                    v.unwrap_or_else(|| panic!("{} not measured", m.name)).1,
                )
            })
            .collect();
    }
    outcome.put("harness.fail_frac", outcome.tally.fail_frac());
    // 52 bits survive the trip through an f64; the notes carry all 64.
    outcome.put(
        "harness.fingerprint",
        (outcome.tally.fingerprint >> 12) as f64,
    );
    PER_LAYER
        .iter()
        .map(|&(metric, unit, _, owner)| {
            let v = outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == metric)
                .map(|m| m.1);
            let v = match v {
                Some(v) => v,
                // A layer this workload never calls has no spans: 0.
                None if owner != name && owner != ALL => 0.0,
                None => panic!("{metric} belongs to {name} and was not measured"),
            };
            (metric, unit, v)
        })
        .collect()
}

fn single(name: &str, cfg: &RunCfg) -> ExitCode {
    let mut outcome = run_workload(name, cfg);
    let rows = reported(name, cfg, &mut outcome);
    let finite = rows.iter().all(|r| r.2.is_finite());
    let correct = outcome.tally.failed == 0 && finite;

    println!(
        "# {name}  seed {}  seconds {}  trace {}{}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.quick { "  (quick)" } else { "" }
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# attempted {}  failed {}  fail_frac {:e}  harness.fingerprint {:016x}",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.fail_frac(),
        outcome.tally.fingerprint
    );
    for (metric, unit, v) in &rows {
        println!("{metric:<44} {v:>18.6} {unit}");
    }
    let body: Vec<String> = rows
        .iter()
        .map(|(metric, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{metric}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The value of `metric` in a child's result line.
fn value_in(line: &str, metric: &str) -> Option<f64> {
    let key = format!("\"{metric}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Run one workload in a child process; relay its report; return its
/// result line if it exited cleanly.
fn child(name: &str, cfg: &RunCfg, relay: bool) -> Option<String> {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--workload", name, "--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .stdin(Stdio::null());
    if cfg.quick {
        cmd.arg("--quick");
    }
    if cfg.corrupt {
        cmd.arg("--self-test-corrupt");
    }
    let out = cmd.output().expect("spawn a workload process");
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let (last, report) = lines.split_last()?;
    if relay {
        for l in report {
            println!("{l}");
        }
    }
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        println!("# {name}: FAILED ({})", out.status);
        return None;
    }
    Some(last.to_string())
}

fn names(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// Every workload, one process each, then the end-to-end table.
fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut table = Vec::new();
    for name in names(args) {
        match child(name, &args.cfg, true) {
            Some(line) => table.push((name, line)),
            None => ok = false,
        }
        println!();
    }
    if !args.cfg.trace {
        println!(
            "{:<16} {:>16} {:>12} {:>14}",
            "workload", "ops_per_s [1/s]", "setup_s [s]", "peak_rss [MiB]"
        );
        for (name, line) in &table {
            let v = |m| value_in(line, m).unwrap_or(f64::NAN);
            println!(
                "{name:<16} {:>16.1} {:>12.4} {:>14.2}",
                v("ops_per_s"),
                v("setup_s"),
                v("peak_rss_mib")
            );
        }
    }
    println!(
        "{}",
        if ok {
            "all output checks passed (fail_frac = 0)"
        } else {
            "FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// K sets on seeds `seed..seed+K`; spread of every end-to-end metric.
fn repeat(args: &Args, k: usize) -> ExitCode {
    let mut ok = true;
    let mut samples: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for run in 0..k {
        let cfg = RunCfg {
            seed: args.cfg.seed + run as u64,
            ..args.cfg
        };
        for (w, name) in names(args).into_iter().enumerate() {
            let Some(line) = child(name, &cfg, false) else {
                ok = false;
                continue;
            };
            let mut row = format!("run {run:>2} seed {:>3} {name:<15}", cfg.seed);
            for (m, metric) in END_TO_END.iter().enumerate() {
                let v = value_in(&line, metric.name).unwrap_or(f64::NAN);
                samples[w][m].push(v);
                row.push_str(&format!(" {} {v:.6}", metric.name));
            }
            println!("{row}");
        }
    }
    println!();
    println!(
        "{:<15} {:<13} {:>14} {:>14} {:>14} {:>9} {:>9} {:>6}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "maxdev", "bound"
    );
    for (w, name) in names(args).into_iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let xs = &samples[w][m];
            if xs.len() < 2 {
                continue;
            }
            let (q1, med, q3) = estimator::quartiles(xs);
            let maxdev = xs.iter().map(|x| (x - med).abs() / med).fold(0.0, f64::max);
            println!(
                "{name:<15} {:<13} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>9.4} {maxdev:>9.4} {:>6}",
                metric.name,
                (q3 - q1) / med,
                metric.bound
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.repeat, &args.workload) {
        (Some(k), _) => repeat(&args, k),
        (None, Some(name)) => single(name, &args.cfg),
        (None, None) => all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse(&argv("--workload vmc_pbyp --seed 9 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("vmc_pbyp"));
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (9, 20.0, true));
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--trace 2")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--seed")).is_err());
        let q = parse(&argv("--quick")).unwrap();
        assert_eq!(q.cfg.seconds, 1.0);
    }

    #[test]
    fn result_lines_are_read_back() {
        let line = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"ops_per_s": {"value": 123.5, "unit": "1/s"}, "setup_s": {"value": 0.25, "unit": "s"}}}"#;
        assert_eq!(value_in(line, "ops_per_s"), Some(123.5));
        assert_eq!(value_in(line, "setup_s"), Some(0.25));
        assert_eq!(value_in(line, "peak_rss_mib"), None);
    }
}
