// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! Spans recorded from outside the library: around the calls into each
//! crate's public functions, from the benchmark's own files.
//!
//! A [`Lane`] is one thread's (or one simulated rank's) span stack with
//! a buffer preallocated before the measured work starts; nothing is
//! written until the run is over. Spans of one step / round / request
//! share an `op_id`. A span's *self time* is its duration minus the
//! part its direct children cover, so the parts of a step can be summed
//! without counting anything twice.

use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same lane, or [`NO_PARENT`].
    pub parent: u32,
    pub op_id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's spans. Not shared: each rank or worker owns its lane
/// and hands it back when it finishes.
pub struct Lane {
    pub label: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Spans that did not fit the preallocated buffer (reported, never
    /// silently lost: a full buffer must not start allocating mid-run).
    pub dropped: u64,
}

impl Lane {
    /// A lane whose timestamps count from `epoch`, with room for
    /// `capacity` spans.
    pub fn new(label: impl Into<String>, epoch: Instant, capacity: usize) -> Self {
        Self {
            label: label.into(),
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `enter` returned. Spans close innermost first.
    pub fn exit(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op_id);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// All lanes of one traced run.
#[derive(Default)]
pub struct Trace {
    pub lanes: Vec<Lane>,
}

impl Trace {
    pub fn push(&mut self, lane: Lane) {
        self.lanes.push(lane);
    }

    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    fn each(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_owned();
        self.lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .filter(move |s| s.name == name)
    }

    /// Summed duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.each(name).map(|s| s.ns() as f64).sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.each(name).count()
    }

    /// Summed self time (ns) of every span whose name starts with
    /// `prefix`: duration minus what its direct children cover.
    pub fn self_ns(&self, prefix: &str) -> f64 {
        let mut total = 0.0;
        for lane in &self.lanes {
            let mut covered = vec![0u64; lane.spans.len()];
            for s in &lane.spans {
                if s.parent != NO_PARENT {
                    covered[s.parent as usize] += s.ns();
                }
            }
            for (s, c) in lane.spans.iter().zip(&covered) {
                if s.name.starts_with(prefix) {
                    total += s.ns().saturating_sub(*c) as f64;
                }
            }
        }
        total
    }

    /// Writes every span as JSON. Parent indices are rebased so they
    /// index the one flat `spans` array.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> Result<(), String> {
        let mut out = String::with_capacity(
            128 * self.lanes.iter().map(|l| l.spans.len()).sum::<usize>() + 256,
        );
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"dropped_spans\": {}, \"lanes\": [",
            self.dropped()
        );
        for (i, l) in self.lanes.iter().enumerate() {
            let _ = write!(out, "{}\"{}\"", if i == 0 { "" } else { ", " }, l.label);
        }
        out.push_str("],\n\"spans\": [\n");
        let mut base = 0usize;
        let mut first = true;
        for (li, lane) in self.lanes.iter().enumerate() {
            for s in &lane.spans {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    (base + s.parent as usize) as i64
                };
                let _ = writeln!(
                    out,
                    "{}{{\"name\": \"{}\", \"lane\": {li}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}",
                    if first { "" } else { "," },
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.op_id
                );
                first = false;
            }
            base += lane.spans.len();
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_with(spans: &[(&'static str, u64, u64, u32)]) -> Lane {
        let mut lane = Lane::new("t", Instant::now(), spans.len());
        for &(name, start_ns, end_ns, parent) in spans {
            lane.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op_id: 0,
            });
        }
        lane
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100] ⊃ fwd [10,60] ⊃ gemm [20,50]; step ⊃ bwd [60,90].
        let mut t = Trace::default();
        t.push(lane_with(&[
            ("step", 0, 100, NO_PARENT),
            ("fwd", 10, 60, 0),
            ("gemm", 20, 50, 1),
            ("bwd", 60, 90, 0),
        ]));
        assert_eq!(t.self_ns("step"), 20.0); // 100 − 50 − 30
        assert_eq!(t.self_ns("fwd"), 20.0); // 50 − 30
        assert_eq!(t.self_ns("gemm"), 30.0);
        assert_eq!(t.total_ns("bwd"), 30.0);
        // Self times of all spans sum to the root's duration.
        let all: f64 = ["step", "fwd", "gemm", "bwd"]
            .iter()
            .map(|n| t.self_ns(n))
            .sum();
        assert_eq!(all, 100.0);
    }

    #[test]
    fn nesting_and_capacity_are_enforced() {
        let mut lane = Lane::new("t", Instant::now(), 2);
        let a = lane.enter("a", 1);
        let b = lane.enter("b", 1);
        let c = lane.enter("c", 1); // buffer full: dropped, not grown
        assert_eq!(c, NO_PARENT);
        lane.exit(c);
        lane.exit(b);
        lane.exit(a);
        assert_eq!(lane.dropped, 1);
        assert_eq!(lane.spans().len(), 2);
        assert_eq!(lane.spans()[1].parent, 0);
        assert!(lane.spans()[0].end_ns >= lane.spans()[1].end_ns);
    }

    #[test]
    fn json_rebases_parents_across_lanes() {
        let mut t = Trace::default();
        t.push(lane_with(&[("a", 0, 10, NO_PARENT)]));
        t.push(lane_with(&[("b", 0, 10, NO_PARENT), ("c", 2, 4, 0)]));
        // Under the package's ignored `out/`, so the test writes nothing outside the repo.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.json");
        t.write_json(&path, "w").expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert!(text.contains(
            "\"name\": \"c\", \"lane\": 1, \"start_ns\": 2, \"end_ns\": 4, \"parent\": 1"
        ));
        assert!(text.contains(
            "\"name\": \"a\", \"lane\": 0, \"start_ns\": 0, \"end_ns\": 10, \"parent\": -1"
        ));
    }
}
