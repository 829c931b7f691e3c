// xtask: allow(wall-clock) — a benchmark harness measures real time by
// definition; the pragma is confined to the bench crate's timers.
//! Wall-clock timers shared by the perf-harness bins (`kernels`, `comm`,
//! `train`).

use std::time::Instant;

/// Best-of-several wall time for `f`, in milliseconds. In smoke mode a
/// single iteration (compile-and-run sanity, no timing claims).
pub fn time_ms(smoke: bool, mut f: impl FnMut()) -> f64 {
    if smoke {
        let t = Instant::now();
        f();
        return t.elapsed().as_secs_f64() * 1e3;
    }
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut iters = 0u32;
    while iters < 3 || (spent < 0.6 && iters < 40) {
        let t = Instant::now();
        f();
        let s = t.elapsed().as_secs_f64();
        best = best.min(s);
        spent += s;
        iters += 1;
    }
    best * 1e3
}

/// Interleaved A/B measurement: alternates the two implementations and
/// reports the minimum wall time of each side. A sequential "time A, then
/// time B" layout hands whichever side runs first the colder cache and
/// higher turbo headroom; interleaving spreads thermal drift over both
/// sides, and the per-side minimum estimates true cost under transient
/// noisy-neighbor load (which only ever adds time, never subtracts it).
pub fn time_pair_ms(
    smoke: bool,
    budget_s: f64,
    mut fa: impl FnMut(),
    mut fb: impl FnMut(),
) -> (f64, f64) {
    if smoke {
        let (a, b) = (time_ms(true, &mut fa), time_ms(true, &mut fb));
        return (a, b);
    }
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    let mut spent = 0.0;
    let mut rounds = 0u32;
    // The rounds cap bounds pathological cases only — fast pairs must be
    // allowed to fill their whole budget, otherwise a sub-millisecond
    // kernel samples a ~100 ms window and the minimum never sees a calm
    // slice of this (noisy, shared) box.
    while rounds < 5 || (spent < budget_s && rounds < 4000) {
        for (best, f) in [
            (&mut best_a, &mut fa as &mut dyn FnMut()),
            (&mut best_b, &mut fb),
        ] {
            let t = Instant::now();
            f();
            let s = t.elapsed().as_secs_f64();
            *best = best.min(s);
            spent += s;
        }
        rounds += 1;
    }
    (best_a * 1e3, best_b * 1e3)
}
