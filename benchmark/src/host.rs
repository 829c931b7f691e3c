// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! What the benchmark reads about its host and its own build: the
//! guards that refuse to measure a wrong build, and the `/proc` counters
//! behind `peak_rss_mb` and the context-switch ledger row.

use std::fs;

/// A named field of a `/proc/<..>/status` file, e.g. `VmHWM` in kB.
fn status_field(path: &str, field: &str) -> Result<u64, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))
        .ok_or_else(|| format!("{path} has no {field} line"))?;
    line[field.len() + 1..]
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: cannot parse `{line}`"))
}

/// Peak resident set of this process so far, in MB (`VmHWM`). An error,
/// never 0, when `/proc` cannot be read: a memory metric that silently
/// reads zero would pass every regression bound.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(status_field("/proc/self/status", "VmHWM")? as f64 / 1024.0)
}

/// Voluntary context switches of the calling thread so far.
pub fn thread_voluntary_switches() -> Result<u64, String> {
    status_field("/proc/thread-self/status", "voluntary_ctxt_switches")
}

/// Threads one process may use here, as the OS says — beside the
/// library's own `threads`, which should agree.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Size of the largest cache `cpu0` reports, in bytes, if sysfs says.
pub fn llc_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|i| {
            let s = fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()?;
            let s = s.trim();
            let (num, mul) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1024),
                b'M' => (&s[..s.len() - 1], 1024 * 1024),
                _ => (s, 1),
            };
            num.parse::<u64>().ok().map(|n| n * mul)
        })
        .max()
}

fn host_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// glibc malloc settings `run.sh` exports: one arena (peak RSS must not
/// depend on thread timing) and no return of freed memory to the OS
/// (page-fault cost drifts on the sizing host); see README.md.
const ALLOCATOR_ENV: [(&str, &str); 4] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_MMAP_THRESHOLD_", "1073741824"),
    ("MALLOC_TRIM_THRESHOLD_", "8589934592"),
    ("MALLOC_TOP_PAD_", "268435456"),
];

/// Refuses to measure a wrong build or environment. `RUSTFLAGS` in the environment
/// makes cargo drop `.cargo/config.toml`'s `target-cpu=native` (the
/// documented ~20× non-FMA cliff); `run.sh` refuses it before building,
/// and the tier check here catches the same mistake however it was made.
pub fn check_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built with debug assertions: measure release builds only".into());
    }
    if std::env::var_os("RUSTFLAGS").is_some() {
        return Err(
            "RUSTFLAGS is set: cargo then ignores .cargo/config.toml's target-cpu=native; unset it"
                .into(),
        );
    }
    for (name, value) in ALLOCATOR_ENV {
        if std::env::var(name).as_deref() != Ok(value) {
            return Err(format!(
                "{name} is not {value}: the allocator settings are part of the measured \
                 environment; start the benchmark through benchmark/run.sh"
            ));
        }
    }
    let tier = easgd_tensor::active_tier();
    if tier == "scalar" && host_has_avx2() {
        return Err(
            "kernel tier is `scalar` on a host with AVX2+FMA: build from the repo root so \
             .cargo/config.toml applies (benchmark/run.sh does)"
                .into(),
        );
    }
    peak_rss_mb().map(|_| ())
}

/// Idle-priority helper processes that spin so that no vCPU of the host
/// ever halts, for the one workload whose time is thread hand-offs.
///
/// On a virtualised host a halted vCPU takes tens of microseconds to
/// wake, and the hypervisor's halt-polling flips that between two
/// states for minutes at a time: `sim_p1024` read 15 ms or 60–80 ms per
/// simulated round with nothing changed (a 256-float ping-pong, 3 µs or
/// 42 µs). At `nice 19` the helpers only take cycles nobody wants, so
/// what is left is the program's own cost per hand-off. Each helper
/// ends by itself when this process is gone, or after a few minutes.
pub struct KeepAwake(Vec<std::process::Child>);

impl KeepAwake {
    /// One helper per vCPU. Without `nice` or `sh` the run goes on
    /// without them and says so.
    pub fn start() -> Self {
        const SPIN: &str = "n=0; while [ $n -lt 4000 ] && kill -0 $PPID 2>/dev/null; do \
                            i=0; while [ $i -lt 50000 ]; do i=$((i+1)); done; n=$((n+1)); done";
        let helpers: Vec<_> = (0..nproc())
            .filter_map(|_| {
                std::process::Command::new("nice")
                    .args(["-n", "19", "sh", "-c", SPIN])
                    .stdin(std::process::Stdio::null())
                    .spawn()
                    .ok()
            })
            .collect();
        println!("keep-awake helpers running: {}", helpers.len());
        Self(helpers)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        for child in &mut self.0 {
            // Errors mean the helper is already gone, which is the goal.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Prints the one line of facts a reader needs before comparing two runs.
pub fn print_header(workload: &str, seed: u64, trace: bool, input_digest: u64) {
    println!(
        "# workload {workload} seed {seed} trace {} threads {} nproc {} simd_tier {} commit {} input_digest {input_digest:016x}",
        u8::from(trace),
        easgd_tensor::par::max_threads(),
        nproc(),
        easgd_tensor::active_tier(),
        std::env::var("BENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable_and_positive() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        let _ = thread_voluntary_switches().expect("ctx switches");
        assert!(status_field("/proc/self/status", "NoSuchField").is_err());
        assert!(status_field("/proc/self/no-such-file", "VmHWM").is_err());
    }

    #[test]
    fn field_match_is_exact() {
        // `Vm` must not match `VmHWM:`.
        assert!(status_field("/proc/self/status", "Vm").is_err());
    }
}
