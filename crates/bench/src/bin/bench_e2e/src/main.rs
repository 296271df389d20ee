//! `bench_e2e`: one allocation-round benchmark over the realistic
//! portfolio, with per-layer attribution. See `README.md` beside the
//! manifest for the metric and workload definitions.
//!
//! One process runs one workload:
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--smoke] [--instance-seed <n>]
//! bench_e2e --all      [--seed <n>] [--seconds <s>] [--smoke]
//! bench_e2e --repeat N [--seed <n>] [--seconds <s>] [--smoke]
//! bench_e2e --describe
//! ```

mod check;
mod driver;
mod gen;
mod json;
mod layers;
mod report;
mod sets;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Json;
use ras_core::cast::rounded_usize;
use workloads::{Workload, END_TO_END, MIN_ROUNDS, PER_LAYER, RUN_SECONDS};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Replaces the workload's recorded instance seed.
    pub instance_seed: Option<u64>,
    pub all: bool,
    pub repeat: Option<usize>,
    pub describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        instance_seed: None,
        all: false,
        repeat: None,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--instance-seed" => {
                args.instance_seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--instance-seed: {e}"))?,
                )
            }
            "--all" => args.all = true,
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(2..=100).contains(&n) {
                    return Err("--repeat must be in 2..=100".into());
                }
                args.repeat = Some(n);
            }
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `BENCHMARK.json`, printed from the tables in `workloads.rs`.
fn describe() -> Json {
    let metric = |m: &workloads::Metric, bounded: bool| {
        let mut fields = vec![
            ("name".to_string(), Json::str(m.name)),
            ("unit".to_string(), Json::str(m.unit)),
            ("better".to_string(), Json::str(m.better)),
        ];
        if bounded {
            fields.push(("bound".to_string(), Json::Num(m.bound)));
        }
        Json::Obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "crates/bench/src/bin/bench_e2e/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        (
            "paths",
            Json::Arr(vec![Json::str("crates/bench/src/bin/bench_e2e")]),
        ),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::workloads()
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

/// nproc, CPU model, rustc and git commit of this machine and checkout.
fn machine_fingerprint() -> Json {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(command("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Timed rounds for a run: the workload's recorded count, scaled by
/// `--seconds` over the recorded run length.
fn timed_rounds(w: &Workload, seconds: f64) -> usize {
    let scaled = rounded_usize(w.shape.rounds as f64 * seconds / RUN_SECONDS as f64);
    scaled.max(MIN_ROUNDS.min(w.shape.rounds))
}

fn run_one(w: &Workload, args: &Args) -> Result<(), String> {
    let rounds = timed_rounds(w, args.seconds);
    let inputs_hash = gen::generate(&w.shape, rounds, args.seed).hash;
    // Only the recorded instance has a recorded hash.
    if args.instance_seed.is_none() && inputs_hash != w.inputs_hash {
        return Err(format!(
            "the inputs of {} drifted: inputs_hash {inputs_hash:#018x}, recorded {:#018x}",
            w.name, w.inputs_hash
        ));
    }
    let run = driver::run(w, args.seed, rounds, args.traced)?;
    let outcome = report::outcome(&run);
    let (metrics, values) = if args.traced {
        (PER_LAYER, report::per_layer(&run))
    } else {
        (END_TO_END, report::end_to_end(&run))
    };

    println!(
        "workload {} seed {} traced {} timed_rounds {} inputs_hash {:016x}",
        w.name,
        args.seed,
        u8::from(args.traced),
        run.rounds.len(),
        inputs_hash
    );
    for (m, v) in metrics.iter().zip(&values) {
        println!("metric {} {v} {}", m.name, m.unit);
    }
    println!(
        "failed_frac {} ({} of {})",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for (kind, n) in &outcome.kinds {
        println!("failure {kind} {n}");
    }
    for (i, round) in run.rounds.iter().enumerate() {
        if let Some(e) = &round.error {
            println!("round {} error {e}", i + 1);
        }
    }
    report::write_files(
        w,
        args,
        inputs_hash,
        &run,
        &outcome,
        metrics,
        &values,
        machine_fingerprint(),
    );
    println!("{}", report::result_line(&outcome, metrics, &values));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        println!("{}", describe());
        return ExitCode::SUCCESS;
    }
    if args.all || args.repeat.is_some() {
        return sets::run(&args);
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("bench_e2e: give --workload <name>, --all, --repeat N or --describe");
        return ExitCode::from(2);
    };
    let Some(mut w) = workloads::workloads().into_iter().find(|w| w.name == name) else {
        eprintln!("bench_e2e: unknown workload {name}");
        return ExitCode::from(2);
    };
    if args.smoke {
        w = workloads::smoke(w);
    }
    if let Some(seed) = args.instance_seed {
        w.shape.instance_seed = seed;
    }
    match run_one(&w, &args) {
        // An incorrect run still reports; the result line says so.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
