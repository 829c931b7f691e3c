// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! The one benchmark of this repository: five workloads, nine
//! end-to-end metrics, and a per-layer ledger measured from outside.
//! See README.md; `BENCHMARK.json` at the repo root is the contract.
//!
//! With `--workload` this process runs that one workload once and
//! prints its result as the last line. Without, it runs every workload
//! in a process of its own (tracing off), then the traced pass of each,
//! prints the metric table and writes `benchmark/out/results.json`.

mod gen;
mod host;
mod ledger;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;
use workloads::Ctx;

/// `run_seconds` of `BENCHMARK.json`: the measured window of one run.
const RUN_SECONDS: f64 = 15.0;
/// The measured window of a `--smoke` run: long enough for one call.
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--smoke] [--seed <u64>]\n       run.sh --workload <{}> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke]\nseeds: default {}, held back for claims {}",
        WORKLOADS.join("|"),
        gen::DEFAULT_SEED,
        gen::HELD_BACK_SEED
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = Some(value),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0.0 => args.seconds = Some(s),
                _ => usage(),
            },
            "--trace" if value == "0" || value == "1" => args.trace = value == "1",
            _ => usage(),
        }
    }
    args
}

fn run_one(workload: &str, trace: bool, ctx: &Ctx) -> Outcome {
    match (workload, trace) {
        ("train_vgg_p1", false) => workloads::train_vgg_p1::run(ctx),
        ("train_mlp_sync_p4", false) => workloads::train_mlp_sync_p4::run(ctx),
        ("train_mlp_measgd_t2", false) => workloads::train_mlp_measgd_t2::run(ctx),
        ("sim_p1024", false) => workloads::sim_p1024::run(ctx),
        ("serve_lenet", false) => workloads::serve_lenet::run(ctx),
        ("train_vgg_p1", true) => ledger::train_vgg_p1::run(ctx),
        ("train_mlp_sync_p4", true) => ledger::train_mlp_sync_p4::run(ctx),
        ("train_mlp_measgd_t2", true) => ledger::train_mlp_measgd_t2::run(ctx),
        ("sim_p1024", true) => ledger::sim_p1024::run(ctx),
        ("serve_lenet", true) => ledger::serve_lenet::run(ctx),
        _ => unreachable!("parse_args admits only the five workloads"),
    }
}

/// One workload, this process: header, checks, `metric` lines, and the
/// JSON result as the last line of standard output.
fn single(workload: &str, args: &Args, start: Instant) {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        }),
        start,
        smoke: args.smoke,
    };
    let out = run_one(workload, args.trace, &ctx);
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    println!(
        "operations attempted {} failed {}",
        out.attempted.max(1),
        out.failed
    );
    for (name, unit, value) in out.rows(args.trace) {
        println!("metric {name} {value} {unit}");
    }
    println!("{}", out.result_line(args.trace));
}

/// What the parent keeps of one child run.
struct ChildRun {
    ok: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a process of its own, echoing its output.
fn child(workload: &str, trace: bool, args: &Args) -> ChildRun {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives this one.
    let output = cmd.output().expect("start a workload process");
    let text = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        ok: output.status.success(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", name, value, _unit] => {
                run.metrics
                    .push(((*name).to_string(), value.parse().unwrap_or(f64::NAN)));
            }
            ["operations", "attempted", a, "failed", f] => {
                run.attempted = a.parse().unwrap_or(0);
                run.failed = f.parse().unwrap_or(u64::MAX);
            }
            _ if line.starts_with('{') => {}
            _ => println!("  {line}"),
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    run.ok &= run.failed == 0 && run.attempted > 0;
    run
}

/// Every workload untraced, then traced; the table; `results.json`.
fn all(args: &Args) -> bool {
    let mut ok = true;
    let mut runs: Vec<(&str, bool, ChildRun)> = Vec::new();
    let passes: &[bool] = if args.smoke { &[false] } else { &[false, true] };
    for &trace in passes {
        for w in WORKLOADS {
            println!("== {w} (trace {})", u8::from(trace));
            let run = child(w, trace, args);
            println!(
                "  operations attempted {} failed {}{}",
                run.attempted,
                run.failed,
                if run.ok { "" } else { "  <-- FAILED" }
            );
            ok &= run.ok;
            runs.push((w, trace, run));
        }
    }
    if args.smoke {
        println!(
            "smoke: {}",
            if ok { "every check passed" } else { "FAILED" }
        );
        return ok;
    }

    let value = |w: &str, trace: bool, name: &str| {
        runs.iter()
            .find(|(rw, rt, _)| *rw == w && *rt == trace)
            .and_then(|(_, _, r)| r.metrics.iter().find(|(n, _)| n == name))
            .map(|(_, v)| *v)
    };
    let mut json = format!("{{\"seed\": {}, \"ok\": {ok}, \"workloads\": {{", args.seed);
    for (trace, title, names) in [
        (false, "end-to-end (tracing off)", &END_TO_END[..]),
        (
            true,
            "per-layer (traced pass; 0 = the workload bypasses the layer)",
            &PER_LAYER[..],
        ),
    ] {
        println!("\n{title}");
        print!("{:<38} {:<8}", "metric", "unit");
        for w in WORKLOADS {
            print!(" {w:>20}");
        }
        println!();
        for (name, unit) in names {
            print!("{name:<38} {unit:<8}");
            for w in WORKLOADS {
                match value(w, trace, name) {
                    Some(v) => print!(" {:>20}", format!("{v:.6}")),
                    None => print!(" {:>20}", "missing"),
                }
            }
            println!();
        }
    }
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = write!(json, "{}\"{w}\": {{", if i == 0 { "" } else { ", " });
        let mut first = true;
        for (_, _, run) in runs.iter().filter(|(rw, _, _)| rw == w) {
            for (name, v) in &run.metrics {
                let _ = write!(json, "{}\"{name}\": {v}", if first { "" } else { ", " });
                first = false;
            }
        }
        json.push('}');
    }
    json.push_str("}}\n");
    let path = std::path::Path::new("benchmark/out/results.json");
    let written =
        std::fs::create_dir_all("benchmark/out").and_then(|()| std::fs::write(path, json));
    match written {
        Ok(()) => println!("\nresults written to {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

fn main() {
    let start = Instant::now();
    let args = parse_args();
    if let Err(e) = host::check_build() {
        eprintln!("error: refusing to measure: {e}");
        std::process::exit(2);
    }
    match &args.workload {
        Some(w) => single(w, &args, start),
        None => {
            if !all(&args) {
                std::process::exit(1);
            }
        }
    }
}
