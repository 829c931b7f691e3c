// xtask: allow(wall-clock) — a benchmark harness measures real time by
// definition; the pragma is confined to this bench timer binary.
//! Training-step perf harness.
//!
//! Measures the zero-allocation training step of ISSUE 5 — the pooled
//! `forward_backward` path (activations, gradients, masks, and im2col
//! panels sized through the counted [`easgd_tensor::TrainScratch`])
//! against the **seed allocating path**, frozen byte-faithfully in
//! [`seed`]: the pre-arena
//! layer code, per-element im2col/col2im, and the seed GEMM with its
//! per-call packing allocations. Freezing the baseline keeps the A/B
//! honest — kernel improvements in the live library cannot leak into the
//! side they are measured against — and the harness asserts the two
//! paths produce bit-identical losses *and* bit-identical gradients
//! before any timing, so the speedup column measures implementation
//! cost only. Results are recorded at the thread count in the JSON
//! (`threads`); the frozen baseline keeps the seed's serial kernels.
//!
//! ```text
//! cargo run --release -p easgd-bench --bin train            # full run, writes JSON
//! cargo run --release -p easgd-bench --bin train -- --smoke # short run + validate checked-in JSON
//! cargo run --release -p easgd-bench --bin train -- --out p # write JSON to `p`
//! ```
//!
//! Acceptance (checked in, re-validated by `--smoke` in CI): the pooled
//! path must report 0 scratch allocations per steady-state training step
//! (the frozen seed path must report a nonzero count), must produce
//! bit-identical losses and gradients to the seed path, and must run the
//! VGG-shaped step ≥ 1.2× faster.

mod seed;

use easgd_bench::arg_value;
use easgd_bench::schema::{json_escape, json_number};
use easgd_bench::timing::time_pair_ms;
use easgd_nn::models::lenet;
use easgd_nn::{Network, NetworkBuilder};
use easgd_tensor::{Rng, Tensor};

/// One measured training-step row.
struct Entry {
    model: &'static str,
    shape: String,
    implementation: &'static str,
    ms: f64,
    /// Samples per step (the batch size).
    batch: usize,
}

impl Entry {
    /// Throughput in samples per second.
    fn rate(&self) -> f64 {
        self.batch as f64 / (self.ms / 1e3).max(1e-12)
    }
}

/// A VGG-shaped classifier: stacked 3×3 same-pad conv blocks with
/// channel doubling between max-pools, then a dense head — the
/// conv-dominated step profile whose im2col panels dominate the seed
/// path's allocation churn.
fn vgg_shaped(seed: u64) -> Network {
    NetworkBuilder::new([3, 32, 32])
        .conv2d(32, 3, 1, 1)
        .relu()
        .conv2d(32, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .conv2d(64, 3, 1, 1)
        .relu()
        .conv2d(64, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .conv2d(128, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .flatten()
        .dense(256)
        .relu()
        .dense(10)
        .build(seed)
}

/// The frozen-seed mirror of [`lenet`] — same stack, same segment order.
fn seed_lenet() -> seed::SeedNet {
    seed::SeedNet::new([1, 28, 28])
        .conv2d(20, 5, 1, 0)
        .maxpool(2, 2)
        .conv2d(50, 5, 1, 0)
        .maxpool(2, 2)
        .flatten()
        .dense(500)
        .relu()
        .dense(10)
}

/// The frozen-seed mirror of [`vgg_shaped`].
fn seed_vgg_shaped() -> seed::SeedNet {
    seed::SeedNet::new([3, 32, 32])
        .conv2d(32, 3, 1, 1)
        .relu()
        .conv2d(32, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .conv2d(64, 3, 1, 1)
        .relu()
        .conv2d(64, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .conv2d(128, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .flatten()
        .dense(256)
        .relu()
        .dense(10)
}

/// What one model's A/B run produced.
struct ModelOutcome {
    seed_ms: f64,
    pooled_ms: f64,
    pooled_allocs_per_step: f64,
    seed_allocs_per_step: f64,
}

impl ModelOutcome {
    fn speedup(&self) -> f64 {
        if self.pooled_ms > 0.0 {
            self.seed_ms / self.pooled_ms
        } else {
            0.0
        }
    }
}

/// Runs the frozen-seed-vs-pooled comparison on one model: asserts the
/// two paths produce bit-identical losses and gradients, windows the
/// allocation counters over pure steady-state steps, then interleaves the
/// wall timing.
fn bench_model(
    entries: &mut Vec<Entry>,
    smoke: bool,
    model: &'static str,
    net: Network,
    mut seed_net: seed::SeedNet,
    batch: usize,
) -> ModelOutcome {
    let mut pooled = net;
    let mut shape = vec![batch];
    shape.extend_from_slice(pooled.input_shape());
    let mut rng = Rng::new(0xbe7c);
    let mut x = Tensor::zeros(shape);
    rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
    let labels: Vec<usize> = (0..batch).map(|i| i % pooled.num_classes()).collect();

    // Warm-up (the pooled path's one allowed allocating step).
    let lp = pooled.forward_backward(&x, &labels).loss;

    // The frozen seed step runs on a clone of the same parameters and
    // must reproduce the pooled loss AND every gradient bit — the
    // honesty gate for the whole A/B: any baseline drift or live-kernel
    // reordering fails here, loudly, before a single timing sample.
    let params = pooled.params().clone();
    let mut seed_grads = pooled.grads().clone();
    let ls = seed_net.step(&params, &mut seed_grads, x.as_slice(), batch, &labels);
    assert_eq!(
        lp.to_bits(),
        ls.to_bits(),
        "{model}: frozen seed loss diverged from pooled path"
    );
    assert_eq!(
        seed_grads.segments().len(),
        pooled.grads().segments().len(),
        "{model}: frozen seed and pooled paths disagree on segment count"
    );
    for i in 0..seed_grads.segments().len() {
        let (sg, pg) = (seed_grads.segment(i), pooled.grads().segment(i));
        assert_eq!(sg.len(), pg.len(), "{model}: grad segment {i} shape");
        for (j, (a, b)) in sg.iter().zip(pg).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{model}: grad segment {i} elem {j} diverged between frozen seed and pooled paths"
            );
        }
    }

    // Allocation counters over a pure steady-state window per path.
    let alloc_steps: u64 = if smoke { 1 } else { 4 };
    let before = pooled.scratch_stats();
    for _ in 0..alloc_steps {
        let _ = pooled.forward_backward(&x, &labels);
    }
    let pooled_delta = pooled.scratch_stats().since(&before);
    let seed_before = seed_net.allocs;
    for _ in 0..alloc_steps {
        let _ = seed_net.step(&params, &mut seed_grads, x.as_slice(), batch, &labels);
    }
    let seed_allocs_per_step = (seed_net.allocs - seed_before) as f64 / alloc_steps as f64;

    let (seed_ms, pooled_ms) = time_pair_ms(
        smoke,
        8.0,
        || {
            let _ = seed_net.step(&params, &mut seed_grads, x.as_slice(), batch, &labels);
        },
        || {
            let _ = pooled.forward_backward(&x, &labels);
        },
    );
    for (implementation, ms) in [("seed", seed_ms), ("pooled", pooled_ms)] {
        entries.push(Entry {
            model,
            shape: format!("b{batch}"),
            implementation,
            ms,
            batch,
        });
    }
    ModelOutcome {
        seed_ms,
        pooled_ms,
        pooled_allocs_per_step: pooled_delta.allocations() as f64 / alloc_steps as f64,
        seed_allocs_per_step,
    }
}

struct Acceptance {
    lenet_speedup: f64,
    vgg_speedup: f64,
    pooled_allocs_per_step: f64,
    seed_allocs_per_step: f64,
}

fn render_json(entries: &[Entry], acc: &Acceptance) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str("  \"generated_by\": \"cargo run --release -p easgd-bench --bin train\",\n");
    out.push_str(&format!(
        "  \"threads\": {},\n",
        easgd_tensor::par::max_threads()
    ));
    out.push_str("  \"acceptance\": {\n");
    out.push_str(&format!(
        "    \"lenet_step_speedup_vs_seed\": {:.2},\n",
        acc.lenet_speedup
    ));
    out.push_str(&format!(
        "    \"vgg_step_speedup_vs_seed\": {:.2},\n",
        acc.vgg_speedup
    ));
    out.push_str(&format!(
        "    \"pooled_allocs_per_train_step\": {:.2},\n",
        acc.pooled_allocs_per_step
    ));
    out.push_str(&format!(
        "    \"seed_allocs_per_train_step\": {:.2}\n",
        acc.seed_allocs_per_step
    ));
    out.push_str("  },\n");
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"shape\": \"{}\", \"impl\": \"{}\", \"ms\": {:.4}, \"samples_per_s\": {:.1}}}{}\n",
            json_escape(e.model),
            json_escape(&e.shape),
            json_escape(e.implementation),
            e.ms,
            e.rate(),
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// `--smoke` also re-validates the checked-in acceptance numbers, so CI
/// fails if someone regenerates `BENCH_train.json` below the bar (or
/// forgets to check it in).
fn validate_checked_in(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let allocs = json_number(&text, "pooled_allocs_per_train_step")
        .ok_or("missing pooled_allocs_per_train_step")?;
    let seed_allocs = json_number(&text, "seed_allocs_per_train_step")
        .ok_or("missing seed_allocs_per_train_step")?;
    let vgg =
        json_number(&text, "vgg_step_speedup_vs_seed").ok_or("missing vgg_step_speedup_vs_seed")?;
    if allocs != 0.0 {
        return Err(format!("pooled_allocs_per_train_step = {allocs}, want 0"));
    }
    if seed_allocs <= 0.0 {
        return Err(format!(
            "seed_allocs_per_train_step = {seed_allocs}, want > 0 (baseline must churn)"
        ));
    }
    if vgg < 1.2 {
        return Err(format!("vgg_step_speedup_vs_seed = {vgg}, want >= 1.2"));
    }
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut entries = Vec::new();

    let (lenet_batch, vgg_batch) = if smoke { (4, 2) } else { (32, 8) };
    let lenet_out = bench_model(
        &mut entries,
        smoke,
        "lenet",
        lenet(41),
        seed_lenet(),
        lenet_batch,
    );
    let vgg_out = bench_model(
        &mut entries,
        smoke,
        "vgg_shaped",
        vgg_shaped(42),
        seed_vgg_shaped(),
        vgg_batch,
    );

    let acc = Acceptance {
        lenet_speedup: lenet_out.speedup(),
        vgg_speedup: vgg_out.speedup(),
        pooled_allocs_per_step: lenet_out
            .pooled_allocs_per_step
            .max(vgg_out.pooled_allocs_per_step),
        seed_allocs_per_step: lenet_out
            .seed_allocs_per_step
            .min(vgg_out.seed_allocs_per_step),
    };

    println!(
        "{:<12} {:<8} {:<12} {:>10} {:>14}",
        "model", "shape", "impl", "ms", "samples/s"
    );
    for e in &entries {
        println!(
            "{:<12} {:<8} {:<12} {:>10.3} {:>14.1}",
            e.model,
            e.shape,
            e.implementation,
            e.ms,
            e.rate(),
        );
    }
    println!(
        "\nlenet speedup {:.2}x | vgg speedup {:.2}x | allocs/step pooled {:.2} seed {:.2}",
        acc.lenet_speedup, acc.vgg_speedup, acc.pooled_allocs_per_step, acc.seed_allocs_per_step,
    );

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    let out_path = arg_value("--out").unwrap_or_else(|| default_out.to_string());
    if smoke {
        // Smoke runs must still hold the structural invariants that do
        // not depend on timing.
        if acc.pooled_allocs_per_step != 0.0 {
            eprintln!(
                "smoke: pooled path allocated ({} allocs/step)",
                acc.pooled_allocs_per_step
            );
            std::process::exit(1);
        }
        if acc.seed_allocs_per_step <= 0.0 {
            eprintln!("smoke: frozen seed baseline reported no allocations — counter broken");
            std::process::exit(1);
        }
        match validate_checked_in(&out_path) {
            Ok(()) => println!("smoke run ok; checked-in {out_path} acceptance holds"),
            Err(e) => {
                eprintln!("checked-in {out_path} fails acceptance: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let json = render_json(&entries, &acc);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
