//! The one writer and the one validator of the checked-in `BENCH_*.json`
//! artifacts, and the one place each acceptance key is declared.
//!
//! **Keep-rule.** A row or key lives in a `BENCH_*.json` only if (i) it
//! regenerates a table or figure of the paper, (ii) a library constant is
//! read from it (`gemm_par_vs_serial` → `par::FORK_JOIN_FLOPS`), or
//! (iii) it is deterministic simulated- or logical-time output that
//! `benchmark/` does not produce. Wall-clock step, exchange and serving
//! numbers belong to `benchmark/`; allocation and bit-identity gates
//! belong to tests.
//!
//! A bin fills a [`Report`] for its [`Artifact`] and calls
//! [`Report::finish`]; `--bin schema_check` runs [`validate`] over the
//! same declarations. The workspace carries no JSON dependency, so the
//! format is fixed by the writer: one header field, acceptance key or
//! entry per line.

use crate::arg_value;
use easgd::weak_scaling::{INTEL_CAFFE_GOOGLENET_2176, INTEL_CAFFE_VGG_2176};
use easgd_tensor::par;
use std::path::Path;

/// What a recorded acceptance value must satisfy. `AtLeast(0.0)` marks a
/// number that is recorded for the reader and only has to be present.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    AtLeast(f64),
    AtMost(f64),
    Equals(f64),
    /// A correctness gate: present and literally `true`.
    True,
}

/// One acceptance key of an artifact.
#[derive(Debug)]
pub struct Key {
    pub name: &'static str,
    pub bound: Bound,
    /// The bound speaks about full-size numbers: a `--smoke` run does not
    /// hold its own value to it, only the checked-in one.
    pub full_run_only: bool,
}

const fn key(name: &'static str, bound: Bound) -> Key {
    Key {
        name,
        bound,
        full_run_only: false,
    }
}

const fn full_run(name: &'static str, bound: Bound) -> Key {
    Key {
        name,
        bound,
        full_run_only: true,
    }
}

/// One checked-in artifact: `BENCH_<bin>.json`, written by `--bin <bin>`.
#[derive(Debug)]
pub struct Artifact {
    pub bin: &'static str,
    /// Its rows are wall-clock measurements, so the allocator settings
    /// move them.
    pub wall_clock: bool,
    pub keys: &'static [Key],
}

use Bound::{AtLeast, AtMost, Equals, True};

/// The fork-join gate's ledger and the Figure 12-style partition table.
pub const KERNELS: Artifact = Artifact {
    bin: "kernels",
    wall_clock: true,
    keys: &[
        full_run("gemm_min_par_over_serial", AtLeast(0.95)),
        full_run("fork_join_flops", Equals(par::FORK_JOIN_FLOPS as f64)),
        full_run("largest_losing_fork_flops", AtLeast(0.0)),
        full_run("smallest_winning_fork_flops", AtLeast(0.0)),
    ],
};

/// Tree vs flat reduce and the pipelined-overlap efficiency, simulated.
pub const COMM: Artifact = Artifact {
    bin: "comm",
    wall_clock: false,
    keys: &[
        key("tree_over_flat_time_ratio_p8", AtMost(1.0)),
        full_run("overlap_efficiency_p8", AtLeast(0.5)),
        // Strictly below 1 at the three recorded decimals.
        full_run("pipelined_over_serial_step_ratio_p8", AtMost(0.999)),
        key("pipelined_allocs_per_round", Equals(0.0)),
    ],
};

/// Table 4 / Figure 13 and the tree fit, live on the event backend.
pub const CLUSTER: Artifact = Artifact {
    bin: "cluster",
    wall_clock: false,
    keys: &[
        key("max_abs_efficiency_delta_vs_model", AtMost(1e-9)),
        key(
            "googlenet_efficiency_2176_cores",
            AtLeast(INTEL_CAFFE_GOOGLENET_2176),
        ),
        key("vgg_efficiency_2176_cores", AtLeast(INTEL_CAFFE_VGG_2176)),
        full_run("googlenet_efficiency_p8192", AtMost(1.0)),
        full_run("vgg_efficiency_p8192", AtLeast(0.0)),
        full_run("googlenet_above_vgg_at_p8192", True),
        key("tree_fit_r2", AtLeast(0.999)),
        key("tree_slope_s_per_doubling", AtLeast(0.0)),
        // Logarithmic, not linear: strictly below 2 at four decimals.
        full_run("tree_growth_ratio_8192_over_512", AtMost(1.9999)),
        full_run("max_event_ranks", AtLeast(8192.0)),
        key("figure13_speedup_monotone", True),
    ],
};

/// The logical-time serving sweep.
pub const SERVE: Artifact = Artifact {
    bin: "serve",
    wall_clock: false,
    keys: &[
        key("qps_batch8_over_batch1", AtLeast(3.0)),
        key("p99_within_deadline_bound", True),
        key("sim_bit_identical", True),
    ],
};

/// Every checked-in artifact.
pub const ARTIFACTS: [&Artifact; 4] = [&KERNELS, &COMM, &CLUSTER, &SERVE];

/// The allocator settings `benchmark/run.sh` exports; every artifact
/// records the ones in force.
const MALLOC_SETTINGS: [(&str, &str); 4] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_MMAP_THRESHOLD_", "1073741824"),
    ("MALLOC_TRIM_THRESHOLD_", "8589934592"),
    ("MALLOC_TOP_PAD_", "268435456"),
];

/// The repo root, where the artifacts live (the crate sits at
/// `crates/bench`).
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

impl Artifact {
    /// File name at the repo root.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.bin)
    }
}

/// Escapes `s` for a JSON string literal.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A `{"bench", "shape", "impl", …}` row; `fields` are its remaining
/// rendered `"key": value` pairs.
pub fn bench_row(bench: &str, shape: &str, implementation: &str, fields: &str) -> String {
    format!(
        "{{\"bench\": \"{}\", \"shape\": \"{}\", \"impl\": \"{}\", {fields}}}",
        json_escape(bench),
        json_escape(shape),
        json_escape(implementation),
    )
}

/// One artifact being filled by its bin.
pub struct Report {
    artifact: &'static Artifact,
    header: Vec<(&'static str, String)>,
    values: Vec<(&'static str, String)>,
    entries: Vec<String>,
}

impl Report {
    /// An empty report. A wall-clock bin started under default glibc
    /// malloc is told once which settings the checked-in rows were
    /// recorded with.
    pub fn new(artifact: &'static Artifact) -> Self {
        if artifact.wall_clock
            && MALLOC_SETTINGS
                .iter()
                .any(|(var, _)| std::env::var(var).is_err())
        {
            let settings: Vec<String> = MALLOC_SETTINGS
                .iter()
                .map(|(var, value)| format!("{var}={value}"))
                .collect();
            eprintln!(
                "warning: default glibc malloc moves wall-clock GEMM ratios (0.42-0.74x vs \
                 0.84-1.52x measured); benchmark/run.sh records under {}",
                settings.join(" ")
            );
        }
        Self {
            artifact,
            header: Vec::new(),
            values: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// A further top-level field; `json` is its rendered value.
    pub fn header(&mut self, name: &'static str, json: String) {
        self.header.push((name, json));
    }

    /// The value of a declared acceptance key, rendered at the precision
    /// it is recorded with.
    ///
    /// # Panics
    /// Panics if the artifact does not declare `name`.
    pub fn set(&mut self, name: &'static str, value: impl ToString) {
        assert!(
            self.artifact.keys.iter().any(|k| k.name == name),
            "{} declares no acceptance key {name}",
            self.artifact.file()
        );
        self.values.push((name, value.to_string()));
    }

    /// One row: a rendered JSON object.
    pub fn entry(&mut self, json_object: String) {
        self.entries.push(json_object);
    }

    /// The artifact's text: the host block first, then the bin's header
    /// fields, the acceptance keys in declaration order, and the rows.
    pub fn render(&self) -> String {
        let malloc: Vec<String> = MALLOC_SETTINGS
            .iter()
            .map(|(var, _)| {
                let value = std::env::var(var).unwrap_or_else(|_| "default".to_string());
                format!("\"{var}\": \"{}\"", json_escape(&value))
            })
            .collect();
        let mut out = format!(
            "{{\n  \"schema\": 3,\n  \"generated_by\": \"cargo run --release -p easgd-bench --bin {}\",\n  \
             \"host\": {{\"cpus\": {}, \"thread_budget\": {}, \"malloc\": {{{}}}}},\n",
            self.artifact.bin,
            par::max_threads(),
            par::current_threads(),
            malloc.join(", ")
        );
        for (name, json) in &self.header {
            out.push_str(&format!("  \"{name}\": {json},\n"));
        }
        let acceptance: Vec<String> = self
            .artifact
            .keys
            .iter()
            .filter_map(|k| self.values.iter().find(|(name, _)| *name == k.name))
            .map(|(name, value)| format!("    \"{name}\": {value}"))
            .collect();
        out.push_str(&format!(
            "  \"acceptance\": {{\n{}\n  }},\n  \"entries\": [\n",
            acceptance.join(",\n")
        ));
        let rows: Vec<String> = self.entries.iter().map(|e| format!("    {e}")).collect();
        out.push_str(&format!("{}\n  ]\n}}\n", rows.join(",\n")));
        out
    }

    /// Ends the bin. `--smoke`: the run's own report must hold every bound
    /// that speaks about any run, and the checked-in file every bound.
    /// Otherwise the report must validate in full and is written. The path
    /// is `--out`, or the artifact's place at the repo root. Exits 1 with
    /// the failing key's name on any miss.
    pub fn finish(&self, smoke: bool) {
        let path = arg_value("--out").unwrap_or_else(|| format!("{ROOT}/{}", self.artifact.file()));
        let text = self.render();
        let outcome = validate(self.artifact, &text, smoke).and_then(|()| {
            if smoke {
                let checked_in = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                validate(self.artifact, &checked_in, false)
            } else {
                std::fs::write(&path, &text).map_err(|e| format!("failed to write {path}: {e}"))
            }
        });
        match outcome {
            Ok(()) if smoke => println!("\nsmoke run ok; checked-in {path} acceptance holds"),
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => {
                eprintln!("acceptance failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The body of the top-level object `"name": {…}` (nested braces
/// matched).
fn object<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\": {{");
    let body = &text[text.find(&needle)? + needle.len()..];
    let mut depth = 1usize;
    for (at, c) in body.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return Some(&body[..at]);
        }
    }
    None
}

/// The text following the first `"key":` in `scope`.
fn after_key<'a>(scope: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    Some(scope[scope.find(&needle)? + needle.len()..].trim_start())
}

/// The number `rest` starts with.
fn leading_number(rest: &str) -> Option<f64> {
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Validates an artifact's text against its declaration: the frame, every
/// acceptance key's bound (`smoke_run` skips the full-run-only ones), and
/// no row recorded at more threads than the recording host has. Keys are
/// looked up inside the `"acceptance"` object only, so a row's field can
/// never stand in for one.
pub fn validate(artifact: &Artifact, text: &str, smoke_run: bool) -> Result<(), String> {
    let file = artifact.file();
    let trimmed = text.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err(format!("{file}: not a JSON object"));
    }
    for field in ["schema", "generated_by", "host", "acceptance", "entries"] {
        if after_key(text, field).is_none() {
            return Err(format!("{file}: missing \"{field}\""));
        }
    }
    let acceptance = object(text, "acceptance").ok_or(format!("{file}: malformed acceptance"))?;
    for k in artifact
        .keys
        .iter()
        .filter(|k| !(smoke_run && k.full_run_only))
    {
        let name = k.name;
        let value =
            after_key(acceptance, name).ok_or(format!("{file}: missing acceptance key {name}"))?;
        let recorded = value.split([',', '\n']).next().unwrap_or("").trim();
        let number = || {
            leading_number(recorded).ok_or(format!("{file}: acceptance key {name} is not a number"))
        };
        let (holds, want) = match k.bound {
            AtLeast(x) => (number()? >= x, format!(">= {x}")),
            AtMost(x) => (number()? <= x, format!("<= {x}")),
            Equals(x) => (number()? == x, format!("{x}")),
            True => (recorded == "true", "true".to_string()),
        };
        if !holds {
            return Err(format!("{file}: {name} = {recorded}, want {want}"));
        }
    }
    let cpus = object(text, "host")
        .and_then(|host| after_key(host, "cpus"))
        .and_then(leading_number)
        .ok_or(format!("{file}: missing host.cpus"))?;
    let rows = after_key(text, "entries").unwrap_or("");
    for row in rows.lines() {
        let threads = after_key(row, "threads").and_then(leading_number);
        if threads.is_some_and(|threads| threads > cpus) {
            return Err(format!(
                "{file}: row recorded at more threads than the host's {cpus} cpus: {}",
                row.trim()
            ));
        }
    }
    Ok(())
}

/// Validates every artifact under `root`; one line per failure.
pub fn validate_all(root: &Path) -> Vec<String> {
    ARTIFACTS
        .iter()
        .filter_map(|artifact| {
            let file = artifact.file();
            match std::fs::read_to_string(root.join(&file)) {
                Ok(text) => validate(artifact, &text, false).err(),
                Err(e) => Some(format!("{file}: unreadable ({e})")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A serve report that satisfies its declaration.
    fn good() -> Report {
        let mut report = Report::new(&SERVE);
        report.header("service_model", "{\"fixed_us\": 80.000}".to_string());
        report.set("qps_batch8_over_batch1", "7.11");
        report.set("p99_within_deadline_bound", "true");
        report.set("sim_bit_identical", "true");
        report.entry("{\"arrival\": \"uniform\", \"batch_cap\": 1, \"qps\": 4000.13}".to_string());
        report.entry("{\"arrival\": \"burst\", \"batch_cap\": 8, \"qps\": 4001.29}".to_string());
        report
    }

    #[test]
    fn a_rendered_report_validates_against_itself() {
        let text = good().render();
        assert_eq!(validate(&SERVE, &text, false), Ok(()));
        assert_eq!(validate(&SERVE, &text, true), Ok(()));
    }

    #[test]
    fn a_missing_key_an_out_of_bound_number_and_a_false_flag_fail_by_name() {
        let text = good().render();

        let missing = text.replace("    \"sim_bit_identical\": true\n", "");
        let err = validate(&SERVE, &missing, false).unwrap_err();
        assert!(
            err.contains("missing acceptance key sim_bit_identical"),
            "{err}"
        );

        let low = text.replace("7.11", "2.50");
        let err = validate(&SERVE, &low, false).unwrap_err();
        assert!(
            err.contains("qps_batch8_over_batch1 = 2.50, want >= 3"),
            "{err}"
        );

        let falsy = text.replace(
            "\"p99_within_deadline_bound\": true",
            "\"p99_within_deadline_bound\": false",
        );
        let err = validate(&SERVE, &falsy, false).unwrap_err();
        assert!(
            err.contains("p99_within_deadline_bound = false, want true"),
            "{err}"
        );
    }

    #[test]
    fn a_row_field_cannot_stand_in_for_an_acceptance_key() {
        let mut report = good();
        report.entry("{\"arrival\": \"x\", \"qps_batch8_over_batch1\": 9.0}".to_string());
        let text = report
            .render()
            .replace("    \"qps_batch8_over_batch1\": 7.11,\n", "");
        let err = validate(&SERVE, &text, false).unwrap_err();
        assert!(
            err.contains("missing acceptance key qps_batch8_over_batch1"),
            "{err}"
        );
    }

    #[test]
    fn full_run_only_bounds_are_skipped_for_a_smoke_run() {
        let mut report = Report::new(&COMM);
        report.set("tree_over_flat_time_ratio_p8", "0.429");
        report.set("overlap_efficiency_p8", "0.100");
        report.set("pipelined_over_serial_step_ratio_p8", "0.615");
        report.set("pipelined_allocs_per_round", "0.00");
        let text = report.render();
        assert_eq!(validate(&COMM, &text, true), Ok(()));
        let err = validate(&COMM, &text, false).unwrap_err();
        assert!(
            err.contains("overlap_efficiency_p8 = 0.100, want >= 0.5"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "declares no acceptance key")]
    fn setting_an_undeclared_key_panics() {
        Report::new(&SERVE).set("steady_state_allocs_per_request", "0.00");
    }

    /// The parent commit's `BENCH_kernels.json` carried this row, recorded
    /// on 2 vCPUs.
    #[test]
    fn rejects_the_parents_p8_row_on_a_two_cpu_host() {
        let p8 = "{\"bench\": \"partitioned_easgd\", \"shape\": \"lenet_tiny/P8\", \
                  \"impl\": \"sync_tree\", \"threads\": 8, \"ms\": 1.6856, \"rounds_per_s\": 593.259}";
        let text = format!(
            "{{\n  \"schema\": 3,\n  \"generated_by\": \"x\",\n  \
             \"host\": {{\"cpus\": 2, \"thread_budget\": 2, \"malloc\": {{}}}},\n  \
             \"acceptance\": {{\n    \"gemm_min_par_over_serial\": 0.957,\n    \
             \"fork_join_flops\": {},\n    \"largest_losing_fork_flops\": 1,\n    \
             \"smallest_winning_fork_flops\": 2\n  }},\n  \"entries\": [\n    \
             {{\"bench\": \"partitioned_easgd\", \"shape\": \"lenet_tiny/P2\", \"threads\": 2}},\n    {p8}\n  ]\n}}\n",
            par::FORK_JOIN_FLOPS
        );
        let err = validate(&KERNELS, &text, false).unwrap_err();
        assert!(
            err.contains("lenet_tiny/P8") && err.contains("2 cpus"),
            "{err}"
        );
        assert_eq!(
            validate(&KERNELS, &text.replace(&format!(",\n    {p8}"), ""), false),
            Ok(())
        );
    }

    #[test]
    fn rejects_structural_damage() {
        assert!(validate(&SERVE, "not json", false).is_err());
        let no_accept = good().render().replace("\"acceptance\":", "\"acc\":");
        assert!(validate(&SERVE, &no_accept, false).is_err());
        let no_host = good().render().replace("\"host\":", "\"box\":");
        let err = validate(&SERVE, &no_host, false).unwrap_err();
        assert!(err.contains("missing \"host\""), "{err}");
    }

    #[test]
    fn number_parser_reads_scientific_notation() {
        assert_eq!(
            leading_number("2.220e-16,"),
            Some(2.220e-16),
            "cluster artifact uses scientific notation"
        );
    }

    #[test]
    fn checked_in_artifacts_all_conform() {
        let errors = validate_all(Path::new(ROOT));
        assert!(errors.is_empty(), "artifact violations: {errors:#?}");
    }
}
