//! The benchmark harness of the HORNET-RS simulator. See `../README.md`.
//!
//! ```text
//! harness --workload NAME --seed N --seconds S --trace 0|1   one run; the last
//!                                                            line is the result
//! harness [--seed N] [--seconds S] [--quick] [--selfcheck]   every workload, each
//!                                                            in a child process
//! ```

mod host;
mod layers;
mod measure;
mod metrics;
mod probes;
mod spans;
mod stats;
mod sys;
mod traced;
mod workloads;

use metrics::{Better, Outcome, END_TO_END, RUN_SECONDS};
use std::process::{Command, ExitCode, Stdio};

/// `--quick` runs every workload at this fraction of its size.
const QUICK_SHRINK: u64 = 20;

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--print-manifest" => {
                print!("{}", metrics::benchmark_json());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run of one workload: prints every metric by name and, last, the
/// one-line result.
fn run_one(args: &Args, name: &str) -> Result<Outcome, String> {
    let shrink = if args.quick { QUICK_SHRINK } else { 1 };
    let w = workloads::by_name(name, shrink).ok_or_else(|| format!("no workload called {name}"))?;
    let (outcome, notes) = if args.trace {
        // Repetitions behind each comparison; the traced run itself and the
        // probes are fixed work, whatever --seconds says.
        let side = if args.quick || args.seconds < 10 {
            1
        } else {
            2
        };
        let stamp = host::stamp(w.name, args.seed, side as u64);
        println!("# {stamp}");
        let l = layers::per_layer(&w, args.seed, side, shrink, &stamp)?;
        for (name, value, unit) in &l.outcome.metrics {
            println!("{name:<40} {value:>16.4} {unit}");
        }
        (l.outcome, l.notes)
    } else {
        let e = measure::end_to_end(&w, args.seed, args.seconds as f64, args.quick)?;
        println!("# {}", host::stamp(w.name, args.seed, e.outcome.attempted));
        for ((name, unit, _, _), s) in END_TO_END.iter().zip(&e.summaries) {
            println!(
                "{name:<24} median {:>14.4} {unit:<12} q1 {:.4} q3 {:.4} n {} spread {:.4}",
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.spread()
            );
        }
        println!(
            "failed_run_share         {} of {}",
            e.outcome.failed, e.outcome.attempted
        );
        (e.outcome, e.notes)
    };
    if w.parallelism() > host::nproc() {
        println!("# \"floor\": true — more simulator threads or processes than host cores");
    }
    for note in notes {
        println!("# {note}");
    }
    println!("{}", outcome.to_json());
    Ok(outcome)
}

/// Runs one workload in a fresh child process of this harness, echoing what
/// it prints, and reads back its result line.
fn run_child(args: &Args, name: &str, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Err(format!(
            "{name} (trace {trace}) exited with {}",
            output.status
        ));
    }
    text.lines()
        .last()
        .and_then(Outcome::from_json)
        .ok_or_else(|| format!("{name} (trace {trace}) printed no result"))
}

/// `(end-to-end, per-layer)` results of every workload, in order.
fn run_set(args: &Args) -> Result<Vec<(&'static str, Outcome, Outcome)>, String> {
    workloads::all(1)
        .iter()
        .map(|w| {
            println!("\n== {} ==", w.name);
            Ok((
                w.name,
                run_child(args, w.name, false)?,
                run_child(args, w.name, true)?,
            ))
        })
        .collect()
}

/// True if `second` is worse than `first` by more than `bound` of `first`.
fn regressed(first: f64, second: f64, better: Better, bound: f64) -> bool {
    match better {
        Better::Higher => second < first * (1.0 - bound),
        Better::Lower => second > first * (1.0 + bound),
    }
}

/// Simulated-time counts that must repeat exactly at a fixed seed.
fn is_exact_count(name: &str) -> bool {
    name.starts_with("net.sim.") || name == "core.ff.skipped_cycle_share"
}

fn run_all(args: &Args) -> Result<bool, String> {
    let first = run_set(args)?;
    let mut ok = first.iter().all(|(_, e, l)| e.correct && l.correct);
    println!("\n== summary ==");
    if !args.selfcheck {
        for (name, e, _) in &first {
            for (metric, value, unit) in &e.metrics {
                println!("{name:<20} {metric:<24} {value:>14.4} {unit}");
            }
            println!(
                "{name:<20} failed_run_share         {} of {}",
                e.failed, e.attempted
            );
        }
        return Ok(ok);
    }
    let second = run_set(args)?;
    ok &= second.iter().all(|(_, e, l)| e.correct && l.correct);
    println!("\n== selfcheck: two sets of runs of the same build ==");
    for ((name, e1, l1), (_, e2, l2)) in first.iter().zip(&second) {
        for (metric, _, better, bound) in END_TO_END {
            let (a, b) = (
                e1.value(metric).unwrap_or(0.0),
                e2.value(metric).unwrap_or(0.0),
            );
            let pass = args.quick || !regressed(a, b, better, bound);
            ok &= pass;
            println!(
                "{name:<20} {metric:<24} {a:>14.4} {b:>14.4} ratio {:.4} bound {bound} {}",
                b / a,
                if pass { "pass" } else { "FAIL" }
            );
        }
        for (metric, a, _) in l1.metrics.iter().filter(|(n, _, _)| is_exact_count(n)) {
            let b = l2.value(metric).unwrap_or(f64::NAN);
            let pass = *a == b;
            ok &= pass;
            if !pass {
                println!("{name:<20} {metric:<24} {a} {b} FAIL: counts differ");
            }
        }
    }
    println!("simulated counts repeat exactly: checked");
    Ok(ok)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match &args.workload {
        Some(name) => run_one(&args, name).map(|_| true),
        None => run_all(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("harness: a check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::FAILURE
        }
    }
}
