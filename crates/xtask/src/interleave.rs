//! Bounded deterministic interleaving explorer for small Hogwild kernels.
//!
//! The real Hogwild trainers (`easgd_tensor::AtomicBuffer`) run lock-free
//! updates as per-component CAS loops under `Ordering::Relaxed`. This module
//! model-checks that design on tiny instances: each thread runs a short
//! straight-line program of atomic operations, and the explorer enumerates
//! **every** interleaving of their atomic steps (depth-first over scheduler
//! choices, in deterministic thread-index order) and evaluates an invariant
//! in each terminal state.
//!
//! An operation is modeled exactly as the production CAS loop executes it,
//! as two distinct atomic steps with a preemption point between them:
//!
//! 1. **load** — observe the current cell value;
//! 2. **CAS** — compare-and-swap the computed new value; on failure the op
//!    falls back to step 1 (retry).
//!
//! This two-phase split is what makes lost-update bugs expressible: a
//! scheduler may run thread A's load, then thread B's whole op, then A's
//! CAS. The correct kernels recover by retrying; the deliberately broken
//! [`Op::RacyAdd`] (load + *blind store*) does not, and the explorer's
//! negative test proves the harness can find that schedule.
//!
//! Termination does not rely on the step bound: a CAS only fails when some
//! other thread's store landed in between, and the total number of
//! successful stores is bounded by the (finite) sum of program lengths, so
//! every execution path is finite. `max_steps` is a pure safety net.

use std::fmt;

/// One atomic operation in a thread's program. Values live in `f32` cells
/// (stored as bit patterns, mirroring `AtomicF32`'s `AtomicU32` carrier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `fetch_add(delta)` as a load + CAS retry loop — the
    /// `AtomicF32::fetch_add` / `AtomicBuffer::sgd_update` kernel.
    CasAdd { addr: usize, delta: f32 },
    /// One component of the Hogwild elastic center update
    /// `center += alpha * (w - center)` as a load + CAS retry loop — the
    /// `AtomicBuffer::elastic_center_update` kernel, with this thread's
    /// local weight component `w` held constant.
    CasElastic { addr: usize, alpha: f32, w: f32 },
    /// **Deliberately broken** add: load, then *blind store* of
    /// `observed + delta` with no compare. Exists so the negative test can
    /// prove the explorer finds lost-update schedules.
    RacyAdd { addr: usize, delta: f32 },
}

impl Op {
    fn addr(&self) -> usize {
        match *self {
            Op::CasAdd { addr, .. } | Op::CasElastic { addr, .. } | Op::RacyAdd { addr, .. } => {
                addr
            }
        }
    }

    fn apply(&self, observed: f32) -> f32 {
        match *self {
            Op::CasAdd { delta, .. } | Op::RacyAdd { delta, .. } => observed + delta,
            Op::CasElastic { alpha, w, .. } => observed + alpha * (w - observed),
        }
    }
}

/// A thread's execution state: program counter plus the pending observed
/// value when the current op is between its load and its CAS/store.
#[derive(Debug, Clone, PartialEq)]
struct ThreadState {
    program: Vec<Op>,
    pc: usize,
    observed: Option<f32>,
}

impl ThreadState {
    fn done(&self) -> bool {
        self.pc >= self.program.len()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct State {
    mem: Vec<f32>,
    threads: Vec<ThreadState>,
}

impl State {
    /// Advances thread `t` by exactly one atomic step.
    fn step(&mut self, t: usize) {
        let op = self.threads[t].program[self.threads[t].pc];
        let cell = op.addr();
        match self.threads[t].observed {
            None => {
                // Step 1: the load.
                self.threads[t].observed = Some(self.mem[cell]);
            }
            Some(obs) => {
                match op {
                    Op::CasAdd { .. } | Op::CasElastic { .. } => {
                        // Step 2: the CAS. Bit-exact compare, like
                        // compare_exchange on the u32 carrier.
                        if self.mem[cell].to_bits() == obs.to_bits() {
                            self.mem[cell] = op.apply(obs);
                            self.threads[t].pc += 1;
                        }
                        // On failure: fall back to the load (retry).
                        self.threads[t].observed = None;
                    }
                    Op::RacyAdd { .. } => {
                        // Step 2: blind store — no compare, no retry.
                        self.mem[cell] = op.apply(obs);
                        self.threads[t].pc += 1;
                        self.threads[t].observed = None;
                    }
                }
            }
        }
    }
}

/// Exploration statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Complete executions (terminal states checked).
    pub executions: usize,
    /// Total atomic steps taken across all executions.
    pub steps: usize,
}

/// A schedule that drove the system into a state violating the invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Thread index chosen at each step, in order.
    pub schedule: Vec<usize>,
    /// Terminal memory contents under that schedule.
    pub state: Vec<f32>,
    /// The invariant checker's message.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violated: {} (schedule {:?}, terminal state {:?})",
            self.message, self.schedule, self.state
        )
    }
}

/// Result of a full exploration.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every interleaving satisfied the invariant.
    Pass(Stats),
    /// A counterexample schedule was found (search stops at the first).
    Fail(Box<Violation>, Stats),
}

impl Outcome {
    /// The statistics regardless of verdict.
    pub fn stats(&self) -> Stats {
        match self {
            Outcome::Pass(s) => *s,
            Outcome::Fail(_, s) => *s,
        }
    }
}

/// Safety net on execution length; never reached by the CAS kernels (see
/// module docs for the termination argument).
pub const MAX_STEPS: usize = 10_000;

/// Exhaustively explores every interleaving of the threads' atomic steps
/// from `init`, calling `check` on each terminal memory state. `check`
/// returns `Err(message)` to report a violation; exploration is
/// depth-first in thread-index order, so results are deterministic.
pub fn explore<F>(init: &[f32], programs: &[Vec<Op>], check: F) -> Outcome
where
    F: Fn(&[f32]) -> Result<(), String>,
{
    for p in programs {
        for op in p {
            assert!(op.addr() < init.len(), "op {op:?} addresses out of range");
        }
    }
    let mut state = State {
        mem: init.to_vec(),
        threads: programs
            .iter()
            .map(|p| ThreadState {
                program: p.clone(),
                pc: 0,
                observed: None,
            })
            .collect(),
    };
    let mut stats = Stats::default();
    let mut schedule = Vec::new();
    match dfs(&mut state, &mut schedule, &check, &mut stats) {
        Some(v) => Outcome::Fail(Box::new(v), stats),
        None => Outcome::Pass(stats),
    }
}

fn dfs<F>(
    state: &mut State,
    schedule: &mut Vec<usize>,
    check: &F,
    stats: &mut Stats,
) -> Option<Violation>
where
    F: Fn(&[f32]) -> Result<(), String>,
{
    assert!(
        schedule.len() <= MAX_STEPS,
        "step bound exceeded — a kernel op does not terminate"
    );
    let enabled: Vec<usize> = (0..state.threads.len())
        .filter(|&t| !state.threads[t].done())
        .collect();
    if enabled.is_empty() {
        stats.executions += 1;
        return check(&state.mem).err().map(|message| Violation {
            schedule: schedule.clone(),
            state: state.mem.clone(),
            message,
        });
    }
    for t in enabled {
        // Clone-and-step keeps the search simple and allocation-bounded by
        // depth; instance sizes here are tiny by design.
        let saved = state.clone();
        state.step(t);
        stats.steps += 1;
        schedule.push(t);
        if let Some(v) = dfs(state, schedule, check, stats) {
            return Some(v);
        }
        schedule.pop();
        *state = saved;
    }
    None
}

// ---------------------------------------------------------------------------
// Canned scenarios, shared by `cargo test` (root tests/interleavings.rs) and
// the `easgd-xtask explore` CLI.
// ---------------------------------------------------------------------------

/// All threads `fetch_add(1.0)` into one cell, `adds_per_thread` times each.
/// Invariant: no update is lost — the final value is exactly the total
/// number of adds (exact in f32 for these small integers).
pub fn scenario_fetch_add(threads: usize, adds_per_thread: usize) -> Outcome {
    let expected = (threads * adds_per_thread) as f32;
    let program = vec![
        Op::CasAdd {
            addr: 0,
            delta: 1.0
        };
        adds_per_thread
    ];
    explore(&[0.0], &vec![program; threads], move |mem| {
        if mem[0] == expected {
            Ok(())
        } else {
            Err(format!(
                "lost update: {} adds landed as {}",
                expected, mem[0]
            ))
        }
    })
}

/// Hogwild elastic center: workers with fixed local weights `ws` race
/// `center += alpha * (w_i - center)` on a single component, `rounds`
/// times each. Invariant: every update is a convex combination of the
/// center and some `w_i`, so the terminal center must stay inside
/// `[min(0, ws), max(0, ws)]` — the iterates are bounded no matter the
/// interleaving.
pub fn scenario_elastic_center(ws: &[f32], alpha: f32, rounds: usize) -> Outcome {
    let lo = ws.iter().copied().fold(0.0f32, f32::min);
    let hi = ws.iter().copied().fold(0.0f32, f32::max);
    let programs: Vec<Vec<Op>> = ws
        .iter()
        .map(|&w| vec![Op::CasElastic { addr: 0, alpha, w }; rounds])
        .collect();
    explore(&[0.0], &programs, move |mem| {
        let c = mem[0];
        if c.is_finite() && (lo..=hi).contains(&c) {
            Ok(())
        } else {
            Err(format!("center {c} escaped [{lo}, {hi}]"))
        }
    })
}

/// Two workers each add `1.0` into both components of a 2-vector.
/// Invariant: per-component sums are independent — both cells end at 2.0.
pub fn scenario_two_component(threads: usize) -> Outcome {
    let expected = threads as f32;
    let program = vec![
        Op::CasAdd {
            addr: 0,
            delta: 1.0,
        },
        Op::CasAdd {
            addr: 1,
            delta: 1.0,
        },
    ];
    explore(&[0.0, 0.0], &vec![program; threads], move |mem| {
        if mem[0] == expected && mem[1] == expected {
            Ok(())
        } else {
            Err(format!("component sums {mem:?}, expected {expected} each"))
        }
    })
}

/// Negative self-test: the blind-store kernel MUST exhibit a lost update
/// under some schedule. Returns the outcome so callers can assert it is
/// [`Outcome::Fail`].
pub fn scenario_racy_add_negative(threads: usize) -> Outcome {
    let expected = threads as f32;
    let program = vec![Op::RacyAdd {
        addr: 0,
        delta: 1.0,
    }];
    explore(&[0.0], &vec![program; threads], move |mem| {
        if mem[0] == expected {
            Ok(())
        } else {
            Err(format!("lost update: final {} != {expected}", mem[0]))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_add_two_threads_never_loses_updates() {
        match scenario_fetch_add(2, 2) {
            Outcome::Pass(stats) => {
                assert!(stats.executions > 1, "explorer must branch: {stats:?}")
            }
            Outcome::Fail(v, _) => panic!("unexpected violation: {v}"),
        }
    }

    #[test]
    fn fetch_add_three_threads_never_loses_updates() {
        assert!(matches!(scenario_fetch_add(3, 1), Outcome::Pass(_)));
    }

    #[test]
    fn elastic_center_stays_bounded() {
        assert!(matches!(
            scenario_elastic_center(&[1.0, -0.5], 0.25, 2),
            Outcome::Pass(_)
        ));
    }

    #[test]
    fn two_component_sums_are_independent() {
        assert!(matches!(scenario_two_component(2), Outcome::Pass(_)));
    }

    #[test]
    fn racy_add_violation_is_found() {
        // The harness must find the A-load, B-op, A-store schedule.
        match scenario_racy_add_negative(2) {
            Outcome::Fail(v, _) => {
                assert!(v.message.contains("lost update"), "{v}");
                assert_eq!(v.state, vec![1.0], "blind store overwrote one add");
            }
            Outcome::Pass(s) => panic!("racy kernel passed exhaustive search: {s:?}"),
        }
    }

    #[test]
    fn cas_retry_recovers_from_preemption() {
        // Force the canonical preemption by hand: t0 load, t1 load, t1 CAS,
        // t0 CAS (fails), t0 load, t0 CAS. The explorer covers this path;
        // here we just pin it to document the retry semantics.
        let mut st = State {
            mem: vec![0.0],
            threads: vec![
                ThreadState {
                    program: vec![Op::CasAdd {
                        addr: 0,
                        delta: 1.0,
                    }],
                    pc: 0,
                    observed: None,
                },
                ThreadState {
                    program: vec![Op::CasAdd {
                        addr: 0,
                        delta: 1.0,
                    }],
                    pc: 0,
                    observed: None,
                },
            ],
        };
        for &t in &[0usize, 1, 1, 0, 0, 0] {
            st.step(t);
        }
        assert_eq!(st.mem, vec![2.0]);
        assert!(st.threads.iter().all(ThreadState::done));
    }

    #[test]
    fn schedule_replay_is_deterministic() {
        let a = scenario_racy_add_negative(2);
        let b = scenario_racy_add_negative(2);
        assert_eq!(a, b, "DFS order must be deterministic");
    }
}
