//! CLI for the workspace static-analysis subsystem.
//!
//! ```text
//! cargo run -p easgd-xtask -- lint                      # lint every workspace .rs file
//! cargo run -p easgd-xtask -- lint --json               # findings as JSON
//! cargo run -p easgd-xtask -- explore                   # CAS interleaving scenarios
//! cargo run -p easgd-xtask -- explore --protocol        # comm protocol checker
//! ```
//!
//! `lint` exits non-zero if any finding is reported; `explore` exits
//! non-zero if a correct kernel/protocol shows a violation or a
//! deliberately broken negative scenario fails to produce one.

use easgd_xtask::interleave::{
    scenario_elastic_center, scenario_fetch_add, scenario_racy_add_negative,
    scenario_two_component, Outcome,
};
use easgd_xtask::lint::{findings_to_json, lint_workspace};
use easgd_xtask::protocol;
use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // Under `cargo run`, CARGO_MANIFEST_DIR points at crates/xtask; the
    // workspace root is two levels up. Fall back to the current directory
    // when invoked as a bare binary.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir)
            .ancestors()
            .nth(2)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".")),
        Err(_) => PathBuf::from("."),
    }
}

fn run_lint(json: bool) -> ExitCode {
    let root = workspace_root();
    match lint_workspace(&root) {
        Ok(findings) if json => {
            println!("{}", findings_to_json(&findings));
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(findings) if findings.is_empty() => {
            println!("xtask lint: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("xtask lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_explore() -> ExitCode {
    let mut failed = false;
    let scenarios: Vec<(&str, Outcome, bool)> = vec![
        (
            "fetch_add 2 threads x 2 adds",
            scenario_fetch_add(2, 2),
            true,
        ),
        (
            "fetch_add 3 threads x 1 add",
            scenario_fetch_add(3, 1),
            true,
        ),
        (
            "elastic center, workers {1.0, -0.5}, alpha 0.25, 2 rounds",
            scenario_elastic_center(&[1.0, -0.5], 0.25, 2),
            true,
        ),
        (
            "two-component adds, 2 threads",
            scenario_two_component(2),
            true,
        ),
        (
            "racy blind-store add (negative: must violate)",
            scenario_racy_add_negative(2),
            false,
        ),
    ];
    for (name, outcome, expect_pass) in scenarios {
        let stats = outcome.stats();
        match (&outcome, expect_pass) {
            (Outcome::Pass(_), true) => {
                println!(
                    "ok   {name}: {} interleavings, {} steps",
                    stats.executions, stats.steps
                );
            }
            (Outcome::Fail(v, _), false) => {
                println!(
                    "ok   {name}: counterexample found after {} interleavings ({v})",
                    stats.executions
                );
            }
            (Outcome::Fail(v, _), true) => {
                println!("FAIL {name}: {v}");
                failed = true;
            }
            (Outcome::Pass(_), false) => {
                println!(
                    "FAIL {name}: exhaustive search ({} interleavings) found no \
                     violation in a kernel that is racy by construction",
                    stats.executions
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the comm-protocol suite: each scenario's rank closure under every
/// order its `recv_any`s can see. Production scenarios must pass;
/// negative controls must fail, and their counterexample with the
/// fewest picks is printed.
fn run_explore_protocol() -> ExitCode {
    println!("protocol checker — the shipped rank closures on the event backend");
    // The negatives panic on purpose: the verdicts below report them.
    std::panic::set_hook(Box::new(|_| {}));
    let mut failed = false;
    for sc in protocol::suite() {
        let outcome = sc.check();
        let stats = *outcome.stats();
        match (&outcome, sc.expect_pass) {
            (protocol::Outcome::Pass(_), true) => println!(
                "ok   {}: {} schedules verified deadlock-, loss-, and leak-free \
                 ({} branch points)",
                sc.name, stats.executions, stats.branch_points
            ),
            (protocol::Outcome::Fail(v, _), false) => {
                println!(
                    "ok   {}: violation found after {} schedule(s): {}",
                    sc.name,
                    stats.executions,
                    v.message.lines().next().unwrap_or("")
                );
                println!(
                    "     minimal counterexample ({} picks): {:?}",
                    v.picks.len(),
                    v.picks
                );
            }
            (protocol::Outcome::Fail(v, _), true) => {
                println!("FAIL {}: {v}", sc.name);
                failed = true;
            }
            (protocol::Outcome::Pass(_), false) => {
                println!(
                    "FAIL {}: every one of {} schedules passed a protocol that is broken \
                     by construction",
                    sc.name, stats.executions
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(flag("--json")),
        Some("explore") if flag("--protocol") => run_explore_protocol(),
        Some("explore") => run_explore(),
        _ => {
            eprintln!("usage: easgd-xtask <lint [--json] | explore [--protocol]>");
            ExitCode::FAILURE
        }
    }
}
