//! `--all` and `--repeat N`: full sets of runs, one child process per
//! workload and tracing mode, the self-check over repeated sets, and one
//! run of every workload's second instance.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::report::median;
use crate::workloads::{workloads, Metric, Workload, END_TO_END, PER_LAYER, SECOND_INSTANCE};
use crate::Args;

/// The metrics one child printed, by name, and whether it was correct.
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    correct: bool,
}

/// Runs one workload in a child of this same binary and reads back its
/// `metric <name> <value> <unit>` lines. A child whose inputs drifted
/// from the recorded hash exits non-zero, and so does the set.
fn child(
    args: &Args,
    workload: &str,
    traced: bool,
    instance_seed: Option<u64>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(seed) = instance_seed {
        cmd.args(["--instance-seed", &seed.to_string()]);
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (traced {traced}) exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut run = ChildRun {
        metrics: BTreeMap::new(),
        correct: false,
    };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", name, value, _unit] => {
                let v = value.parse().map_err(|e| format!("metric {name}: {e}"))?;
                run.metrics.insert((*name).to_string(), v);
            }
            ["failed_frac", frac, ..] => run.correct = *frac == "0",
            _ => {}
        }
    }
    Ok(run)
}

/// One full set: every workload untraced, then traced.
struct Set {
    /// `runs[workload] = (untraced, traced)`.
    runs: Vec<(ChildRun, ChildRun)>,
}

fn run_set(args: &Args) -> Result<Set, String> {
    let mut runs = Vec::new();
    for w in workloads() {
        let plain = child(args, w.name, false, None)?;
        let traced = child(args, w.name, true, None)?;
        runs.push((plain, traced));
    }
    Ok(Set { runs })
}

fn print_set(set: &Set) {
    for (w, (plain, traced)) in workloads().iter().zip(&set.runs) {
        println!("== {}", w.name);
        for m in END_TO_END {
            println!(
                "  {:<34} {:>16.6} {}",
                m.name, plain.metrics[m.name], m.unit
            );
        }
        for m in PER_LAYER {
            println!(
                "  {:<34} {:>16.6} {}",
                m.name, traced.metrics[m.name], m.unit
            );
        }
        // End-to-end numbers come from the untraced run; the traced run's
        // own round time against it is what tracing cost.
        let overhead = traced.metrics["trace.round_s"] / plain.metrics["round_s"] - 1.0;
        println!("  {:<34} {overhead:>16.6} ratio", "trace.overhead_frac");
        println!(
            "  correct: untraced {}, traced {}",
            plain.correct, traced.correct
        );
    }
}

/// Largest distance from the median, as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    let far = values.iter().map(|v| (v - mid).abs()).fold(0.0, f64::max);
    if mid == 0.0 {
        far
    } else {
        far / mid.abs()
    }
}

/// Checks one metric over the sets of one workload; prints a row and
/// returns false when the metric breaks its rule: equality where the
/// workload's work repeats exactly, else the bound if it has one.
fn check_metric(w: &Workload, m: &Metric, values: &[f64], bounded: bool) -> bool {
    let s = spread(values);
    let exact = m.exact && w.exact;
    let (rule, ok) = if exact {
        ("exact", values.iter().all(|v| *v == values[0]))
    } else if bounded {
        ("bound", s <= m.bound)
    } else {
        ("free", true)
    };
    println!(
        "  {:<34} median {:>14.6} spread {:>9.5} {rule:<5} {:>6} {}",
        m.name,
        median(values),
        s,
        if bounded && !exact {
            format!("{}", m.bound)
        } else {
            "-".into()
        },
        if ok { "ok" } else { "FAIL" }
    );
    ok
}

pub fn run(args: &Args) -> ExitCode {
    let n = args.repeat.unwrap_or(1);
    let mut sets = Vec::with_capacity(n);
    for i in 0..n {
        match run_set(args) {
            Ok(set) => {
                println!("# set {} of {n}", i + 1);
                print_set(&set);
                sets.push(set);
            }
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut ok = sets
        .iter()
        .all(|s| s.runs.iter().all(|(p, t)| p.correct && t.correct));
    if !ok {
        println!("FAIL: a run reported failed operations");
    }
    if n >= 2 {
        println!("# repeat check over {n} sets: spread = max |v - median| / median");
        for (wi, w) in workloads().iter().enumerate() {
            println!("== {}", w.name);
            for m in END_TO_END {
                let values: Vec<f64> = sets.iter().map(|s| s.runs[wi].0.metrics[m.name]).collect();
                ok &= check_metric(w, m, &values, true);
            }
            for m in PER_LAYER {
                let values: Vec<f64> = sets.iter().map(|s| s.runs[wi].1.metrics[m.name]).collect();
                ok &= check_metric(w, m, &values, false);
            }
        }
    }
    println!("# second instance (--instance-seed {SECOND_INSTANCE}): every operation must succeed");
    for w in workloads() {
        match child(args, w.name, false, Some(SECOND_INSTANCE)) {
            Ok(run) => {
                println!("== {}", w.name);
                for m in END_TO_END {
                    println!("  {:<34} {:>16.6} {}", m.name, run.metrics[m.name], m.unit);
                }
                println!("  correct: {}", run.correct);
                ok &= run.correct;
            }
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
