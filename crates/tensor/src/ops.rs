//! Vector kernels: BLAS-1 style operations on `f32` slices.
//!
//! These are the primitives the elastic-averaging updates (Equations 1, 2,
//! 5, 6 of the paper) and the optimizer steps are built from. They operate
//! on raw slices so they can be applied to whole packed parameter arenas
//! (§5.2) as easily as to individual layer buffers.
//!
//! Every mutating kernel is one unconditional [`par::fan_out`] over its
//! operands cut into [`par::band_len`]-element chunks. Below
//! [`par::PAR_ELEMS`] (LeNet-class arenas) or under a one-thread budget
//! that is a single chunk, run inline on the calling thread; an
//! arena-sized input (VGG-class models) is one contiguous band per
//! thread of the budget, the caller working the first. Every element is
//! written by exactly one thread with the same arithmetic as the serial
//! loop — results are bit-identical at any thread count.
//!
//! The per-band bodies of the elastic updates (Equations 1, 2, 5/6, axpy
//! and the Σ-form dilution) are the explicit-SIMD kernels of
//! [`crate::simd`]: 16-lane AVX-512 bodies that apply the *exact* scalar
//! operation tree (no FMA contraction), bit-identical to the scalar
//! definitions — so the golden training digests pinned by the core crate
//! are tier-independent. Note [`crate::with_scalar_kernels`] is
//! per-thread: it pins the calling thread's dispatch, which covers every
//! inline call and the caller's own band; the other bands are pinned
//! bit-identical to it by the band-split contract above.
//!
//! These kernels are memory-bound, so their element rates follow their
//! stream counts: [`axpy`] moves three streams per element (reads x and
//! y, writes y), Equations (5)–(6) move six (read W, V, ΔW, W̄; write W,
//! V). On the VGG arena the benchmark measures 5 454 Melem/s for `axpy`
//! and 2 805 for [`elastic_momentum_update`] — 16.4 against 16.8
//! Gstream-elements/s, the same memory bandwidth, so the 2× ratio is the
//! kernel's definition and there is nothing left in it to fuse away.

use crate::par;
use crate::simd;

/// With `strict-invariants`, debug-asserts every element of `xs` is
/// finite — a NaN/Inf escaping an update kernel poisons all further
/// training silently, so catch it at the source.
#[cfg(feature = "strict-invariants")]
#[inline]
pub(crate) fn debug_check_finite(what: &str, xs: &[f32]) {
    debug_assert!(
        xs.iter().all(|x| x.is_finite()),
        "{what}: non-finite value in output"
    );
}
#[cfg(not(feature = "strict-invariants"))]
#[inline]
pub(crate) fn debug_check_finite(_what: &str, _xs: &[f32]) {}

/// `y += alpha * x` (BLAS `axpy`).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    let c = par::band_len(y.len());
    par::fan_out(y.chunks_mut(c).zip(x.chunks(c)), |(yc, xc)| {
        simd::axpy_band(alpha, yc, xc)
    });
}

/// `x *= alpha` (BLAS `scal`).
pub fn scale(alpha: f32, x: &mut [f32]) {
    par::fan_out(x.chunks_mut(par::band_len(x.len())), |xc| {
        for xi in xc {
            *xi *= alpha;
        }
    });
}

/// Dot product of two equally long slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut acc = 0.0f32;
    // Four accumulators: breaks the dependency chain so the compiler can
    // vectorize without -ffast-math-style reassociation.
    let mut a0 = 0.0f32;
    let mut a1 = 0.0f32;
    let mut a2 = 0.0f32;
    let mut a3 = 0.0f32;
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        a0 += x[i] * y[i];
        a1 += x[i + 1] * y[i + 1];
        a2 += x[i + 2] * y[i + 2];
        a3 += x[i + 3] * y[i + 3];
    }
    for i in chunks * 4..x.len() {
        acc += x[i] * y[i];
    }
    acc + a0 + a1 + a2 + a3
}

/// Element-wise `out = a - b`.
///
/// # Panics
/// Panics if lengths differ.
pub fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    assert_eq!(a.len(), out.len(), "sub output length mismatch");
    let c = par::band_len(out.len());
    par::fan_out(
        out.chunks_mut(c).zip(a.chunks(c)).zip(b.chunks(c)),
        |((oc, ac), bc)| {
            for ((o, ai), bi) in oc.iter_mut().zip(ac).zip(bc) {
                *o = ai - bi;
            }
        },
    );
}

/// Element-wise `d ← ((d + p₁) + p₂) + … + p_c` over the partials in
/// the order given: `d += p` for one partial, a reduction's fold of its
/// children in one banded sweep for several. Each band folds every
/// partial one L1-sized block at a time, so the block of `d` is read and
/// written once per partial from cache rather than once per partial
/// from memory; the per-element chain is exactly that of one `d += p`
/// sweep per partial in turn.
///
/// # Panics
/// Panics if a partial's length differs from `d`'s.
pub fn fold_sum<P: AsRef<[f32]> + Sync>(d: &mut [f32], partials: &[P]) {
    /// Floats of `d` folded against every partial before the next block.
    const BLOCK: usize = 2048;
    for p in partials {
        assert_eq!(p.as_ref().len(), d.len(), "fold_sum length mismatch");
    }
    let c = par::band_len(d.len());
    par::fan_out(d.chunks_mut(c).enumerate(), |(band, dc)| {
        for (blk, db) in dc.chunks_mut(BLOCK).enumerate() {
            let at = band * c + blk * BLOCK;
            for p in partials {
                let pb = &p.as_ref()[at..at + db.len()];
                db.iter_mut().zip(pb).for_each(|(dv, pv)| *dv += pv);
            }
        }
    });
}

/// Copies `src` into `dst`.
///
/// # Panics
/// Panics if lengths differ.
pub fn copy(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "copy length mismatch");
    dst.copy_from_slice(src);
}

/// Sum of all elements.
pub fn sum(x: &[f32]) -> f32 {
    x.iter().sum()
}

/// Squared L2 norm.
pub fn norm_sq(x: &[f32]) -> f32 {
    dot(x, x)
}

/// Index of the first maximum element, or `None` if empty.
pub fn argmax(x: &[f32]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[best] {
            best = i;
        }
    }
    Some(best)
}

/// The elastic update of Equation (1):
/// `W_i ← W_i − η(ΔW_i + ρ(W_i − W̄))`.
///
/// `local` is the worker's weight `W_i`, `grad` its sub-gradient `ΔW_i`,
/// `center` the global weight `W̄`.
///
/// # Panics
/// Panics if lengths differ.
pub fn elastic_worker_update(eta: f32, rho: f32, local: &mut [f32], grad: &[f32], center: &[f32]) {
    assert_eq!(local.len(), grad.len(), "elastic update length mismatch");
    assert_eq!(local.len(), center.len(), "elastic update length mismatch");
    let c = par::band_len(local.len());
    par::fan_out(
        local
            .chunks_mut(c)
            .zip(grad.chunks(c))
            .zip(center.chunks(c)),
        |((lc, gc), cc)| simd::eq1_band(eta, rho, lc, gc, cc),
    );
    debug_check_finite("elastic_worker_update", local);
}

/// The center update of Equation (2) for a single arriving worker:
/// `W̄ ← W̄ + ηρ(W_i − W̄)`.
///
/// Calling this once per worker realizes the full sum of Equation (2).
///
/// # Panics
/// Panics if lengths differ.
pub fn elastic_center_update(eta: f32, rho: f32, center: &mut [f32], local: &[f32]) {
    assert_eq!(center.len(), local.len(), "center update length mismatch");
    let er = eta * rho;
    let c = par::band_len(center.len());
    par::fan_out(center.chunks_mut(c).zip(local.chunks(c)), |(cc, lc)| {
        simd::eq2_band(er, cc, lc)
    });
    debug_check_finite("elastic_center_update", center);
}

/// Momentum update of Equations (3)–(4):
/// `V ← µV − ηΔW; W ← W + V`.
///
/// # Panics
/// Panics if lengths differ.
pub fn momentum_update(eta: f32, mu: f32, weight: &mut [f32], velocity: &mut [f32], grad: &[f32]) {
    assert_eq!(weight.len(), grad.len(), "momentum update length mismatch");
    assert_eq!(
        weight.len(),
        velocity.len(),
        "momentum update length mismatch"
    );
    let c = par::band_len(weight.len());
    par::fan_out(
        weight
            .chunks_mut(c)
            .zip(velocity.chunks_mut(c))
            .zip(grad.chunks(c)),
        |((wc, vc), gc)| {
            for ((wi, vi), gi) in wc.iter_mut().zip(vc).zip(gc) {
                *vi = mu * *vi - eta * gi;
                *wi += *vi;
            }
        },
    );
    debug_check_finite("momentum_update", weight);
}

/// Momentum-elastic worker update of Equations (5)–(6):
/// `Vᵢ ← µVᵢ − ηΔWᵢ; Wᵢ ← Wᵢ + Vᵢ − ηρ(Wᵢ − W̄)`.
///
/// # Panics
/// Panics if lengths differ.
pub fn elastic_momentum_update(
    eta: f32,
    mu: f32,
    rho: f32,
    local: &mut [f32],
    velocity: &mut [f32],
    grad: &[f32],
    center: &[f32],
) {
    assert_eq!(local.len(), grad.len(), "measgd update length mismatch");
    assert_eq!(local.len(), velocity.len(), "measgd update length mismatch");
    assert_eq!(local.len(), center.len(), "measgd update length mismatch");
    // `η·ρ` premultiplied: `eta * rho * x` associates as `(eta·rho)·x`,
    // so hoisting the product is bit-invisible.
    let er = eta * rho;
    let c = par::band_len(local.len());
    par::fan_out(
        local
            .chunks_mut(c)
            .zip(velocity.chunks_mut(c))
            .zip(grad.chunks(c))
            .zip(center.chunks(c)),
        |(((lc, vc), gc), cc)| simd::eq56_band(eta, mu, er, lc, vc, gc, cc),
    );
    debug_check_finite("elastic_momentum_update", local);
}

/// The fused exchange-step kernel: captures the pre-update worker weight
/// `Wᵢ` into `contribution` (the Equation (2) reduce input) and applies
/// the Equation (1) pull in the same sweep —
/// `contribution ← Wᵢ; Wᵢ ← Wᵢ − η(ΔWᵢ + ρ(Wᵢ − W̄))`.
///
/// Bit-identical to `copy(local, contribution)` followed by
/// [`elastic_worker_update`]: the captured value and the update both read
/// the same pre-update element, exactly as the two-pass composition does,
/// so fusing removes two of the seven memory streams without moving a
/// single rounding.
///
/// The sweep is cache-blocked: each `EXCHANGE_BLOCK`-element band is
/// captured with one straight `copy_from_slice` (which vectorizes as a
/// plain memcpy) and then updated while still resident in L1 — the
/// four-stream interleaved form defeats the copy's vectorization and
/// measured *slower* than two passes.
///
/// # Panics
/// Panics if lengths differ.
pub fn elastic_exchange(
    eta: f32,
    rho: f32,
    local: &mut [f32],
    contribution: &mut [f32],
    grad: &[f32],
    center: &[f32],
) {
    assert_eq!(
        local.len(),
        contribution.len(),
        "elastic exchange length mismatch"
    );
    assert_eq!(local.len(), grad.len(), "elastic exchange length mismatch");
    assert_eq!(
        local.len(),
        center.len(),
        "elastic exchange length mismatch"
    );
    let c = par::band_len(local.len());
    par::fan_out(
        local
            .chunks_mut(c)
            .zip(contribution.chunks_mut(c))
            .zip(grad.chunks(c))
            .zip(center.chunks(c)),
        |(((lc, oc), gc), cc)| {
            // Capture-then-update per block: each element's captured value
            // and update read the identical pre-update weight, so the
            // blocking is invisible to the FP result. The update is exactly
            // Equation (1), so it shares the Eq. 1 SIMD band kernel.
            for start in (0..lc.len()).step_by(EXCHANGE_BLOCK) {
                let end = (start + EXCHANGE_BLOCK).min(lc.len());
                oc[start..end].copy_from_slice(&lc[start..end]);
                simd::eq1_band(
                    eta,
                    rho,
                    &mut lc[start..end],
                    &gc[start..end],
                    &cc[start..end],
                );
            }
        },
    );
    debug_check_finite("elastic_exchange", local);
}

/// Band width (elements) of [`elastic_exchange`]'s capture-then-update
/// blocking: 16 KiB of f32 — comfortably L1-resident alongside the
/// gradient and center streams.
const EXCHANGE_BLOCK: usize = 4096;

/// Equation (2) in bulk-synchronous Σ-form:
/// `W̄ ← W̄ + ηρ(ΣWᵢ − P·W̄)` — the single center update Sync EASGD's
/// tree reduction produces. The FP evaluation order (one fused pass over
/// the sum) is pinned by the golden-trace tests.
///
/// # Panics
/// Panics if lengths differ.
pub fn center_dilution(eta: f32, rho: f32, center: &mut [f32], weight_sum: &[f32], workers: usize) {
    assert_eq!(center.len(), weight_sum.len(), "dilution length mismatch");
    let scale = eta * rho;
    let p = workers as f32;
    let c = par::band_len(center.len());
    par::fan_out(
        center.chunks_mut(c).zip(weight_sum.chunks(c)),
        |(cc, sc)| simd::dilution_band(scale, p, cc, sc),
    );
    debug_check_finite("center_dilution", center);
}

/// Plain SGD step `W ← W − ηΔW`.
///
/// # Panics
/// Panics if lengths differ.
pub fn sgd_update(eta: f32, weight: &mut [f32], grad: &[f32]) {
    axpy(-eta, grad, weight);
    debug_check_finite("sgd_update", weight);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32) {
        assert!((a - b).abs() < 1e-5, "{a} != {b}");
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 10.0]);
    }

    #[test]
    fn dot_matches_naive_on_odd_lengths() {
        let x: Vec<f32> = (0..11).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..11).map(|i| (i * 2) as f32).collect();
        let naive: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert_close(dot(&x, &y), naive);
    }

    #[test]
    fn scale_and_sum() {
        let mut x = vec![1.0, 2.0, 3.0];
        scale(2.0, &mut x);
        assert_eq!(sum(&x), 12.0);
    }

    #[test]
    fn sub_and_fold_sum_are_inverse() {
        let a = vec![5.0, 6.0];
        let b = vec![1.0, 2.0];
        let mut d = vec![0.0; 2];
        sub(&a, &b, &mut d);
        let mut r = b.clone();
        fold_sum(&mut r, &[d]);
        assert_eq!(r, a);
    }

    #[test]
    fn elastic_worker_update_matches_equation_1() {
        // W=1, grad=0.5, center=0 → W - η(grad + ρ(W - W̄)) = 1 - 0.1(0.5 + 0.2*1)
        let mut w = vec![1.0];
        elastic_worker_update(0.1, 0.2, &mut w, &[0.5], &[0.0]);
        assert_close(w[0], 1.0 - 0.1 * (0.5 + 0.2));
    }

    #[test]
    fn elastic_center_update_matches_equation_2() {
        let mut c = vec![0.0];
        elastic_center_update(0.1, 0.5, &mut c, &[2.0]);
        assert_close(c[0], 0.1 * 0.5 * 2.0);
    }

    #[test]
    fn center_update_is_convex_pull() {
        // With ηρ ∈ (0,1) the center moves toward the worker without
        // overshooting: this is the stability property EASGD relies on.
        let mut c = vec![0.0];
        for _ in 0..1000 {
            elastic_center_update(0.1, 0.5, &mut c, &[1.0]);
        }
        assert!(c[0] > 0.99 && c[0] <= 1.0);
    }

    #[test]
    fn momentum_update_matches_equations_3_4() {
        let mut w = vec![1.0];
        let mut v = vec![0.5];
        momentum_update(0.1, 0.9, &mut w, &mut v, &[1.0]);
        // v = 0.9*0.5 - 0.1*1 = 0.35; w = 1 + 0.35
        assert_close(v[0], 0.35);
        assert_close(w[0], 1.35);
    }

    #[test]
    fn elastic_momentum_matches_equations_5_6() {
        let mut w = vec![1.0];
        let mut v = vec![0.0];
        elastic_momentum_update(0.1, 0.9, 0.5, &mut w, &mut v, &[1.0], &[0.0]);
        // v = -0.1; w = 1 - 0.1 - 0.1*0.5*(1-0) = 0.85
        assert_close(w[0], 0.85);
    }

    #[test]
    fn sgd_update_descends() {
        let mut w = vec![1.0];
        sgd_update(0.5, &mut w, &[2.0]);
        assert_eq!(w, vec![0.0]);
    }

    #[test]
    fn elastic_exchange_is_bit_identical_to_copy_then_eq1() {
        let n = 257;
        let grad: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let center: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
        let start: Vec<f32> = (0..n).map(|i| 0.5 - (i % 17) as f32 * 0.03).collect();

        let mut two_pass = start.clone();
        let mut want_contrib = vec![0.0f32; n];
        want_contrib.copy_from_slice(&two_pass);
        elastic_worker_update(0.05, 0.3, &mut two_pass, &grad, &center);

        let mut fused = start.clone();
        let mut contrib = vec![0.0f32; n];
        elastic_exchange(0.05, 0.3, &mut fused, &mut contrib, &grad, &center);

        for i in 0..n {
            assert_eq!(fused[i].to_bits(), two_pass[i].to_bits(), "local[{i}]");
            assert_eq!(
                contrib[i].to_bits(),
                want_contrib[i].to_bits(),
                "contrib[{i}]"
            );
        }
    }

    /// One op applied to (primary, secondary, grad, center) operands.
    type Apply = fn(&mut [f32], &mut [f32], &[f32], &[f32]);

    /// Every mutating kernel of this module ([`sgd_update`] is `axpy`).
    const OPS: [(&str, Apply); 10] = [
        ("axpy", |l, _, g, _| axpy(0.37, g, l)),
        ("scale", |l, _, _, _| scale(0.37, l)),
        ("sub", |l, _, g, c| sub(g, c, l)),
        ("eq1", |l, _, g, c| {
            elastic_worker_update(0.05, 0.3, l, g, c)
        }),
        ("eq2", |l, _, _, c| elastic_center_update(0.05, 0.3, l, c)),
        ("eq3_4", |l, v, g, _| momentum_update(0.05, 0.9, l, v, g)),
        ("eq5_6", |l, v, g, c| {
            elastic_momentum_update(0.05, 0.9, 0.3, l, v, g, c)
        }),
        ("exchange", |l, v, g, c| {
            elastic_exchange(0.05, 0.3, l, v, g, c)
        }),
        ("dilution", |l, _, g, _| center_dilution(0.05, 0.3, l, g, 4)),
        ("fold", |l, _, g, c| fold_sum(l, &[g, c])),
    ];

    /// `(start, grad, center)` operands of `n` elements.
    fn operands(n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        (
            (0..n).map(|i| 0.5 - (i % 17) as f32 * 0.03).collect(),
            (0..n).map(|i| (i as f32 * 0.37).sin()).collect(),
            (0..n).map(|i| (i as f32 * 0.11).cos()).collect(),
        )
    }

    fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}");
        let diff = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits());
        assert_eq!(diff, None, "{what}: first differing element");
    }

    #[test]
    fn elastic_updates_are_simd_tier_invariant() {
        // Every elastic kernel must produce the same bits whether the
        // AVX-512 band bodies or the scalar definitions run — this is
        // what keeps the core crate's golden training digests stable
        // across build targets. Length chosen to exercise the 16-lane
        // vector body plus a ragged tail.
        let n = 1003;
        let (start, grad, center) = operands(n);
        for (name, apply) in OPS {
            let mut l_fast = start.clone();
            let mut v_fast = vec![0.25f32; n];
            apply(&mut l_fast, &mut v_fast, &grad, &center);
            let mut l_ref = start.clone();
            let mut v_ref = vec![0.25f32; n];
            crate::simd::with_scalar_kernels(|| apply(&mut l_ref, &mut v_ref, &grad, &center));
            assert_same_bits(&format!("{name} primary"), &l_fast, &l_ref);
            assert_same_bits(&format!("{name} secondary"), &v_fast, &v_ref);
        }
    }

    #[test]
    fn banded_ops_match_the_inline_path_and_spawn_one_thread_per_extra_band() {
        // Above the gate with a ragged tail, so the last band is short.
        let n = par::PAR_ELEMS + 37;
        let (start, grad, center) = operands(n);
        // Applies `apply` to fresh `len`-element operands; returns both
        // outputs and the threads the calling thread spawned doing it.
        let run = |apply: Apply, len: usize| {
            let (mut l, mut v) = (start[..len].to_vec(), vec![0.25f32; len]);
            let before = par::threads_spawned();
            apply(&mut l, &mut v, &grad[..len], &center[..len]);
            (l, v, par::threads_spawned() - before)
        };
        for (name, apply) in OPS {
            let (l_one, v_one, spawned) = par::with_budget(1, || run(apply, n));
            assert_eq!(spawned, 0, "{name}: a one-thread budget forked");
            for k in [2usize, 3, 5] {
                let (l, v, spawned) = par::with_budget(k, || run(apply, n));
                assert_same_bits(&format!("{name} k={k} primary"), &l, &l_one);
                assert_same_bits(&format!("{name} k={k} secondary"), &v, &v_one);
                // k bands: the caller works the first.
                assert_eq!(spawned, k as u64 - 1, "{name} k={k}");
            }
            let (_, _, spawned) = par::with_budget(5, || run(apply, par::PAR_ELEMS - 1));
            assert_eq!(spawned, 0, "{name}: forked below PAR_ELEMS");
            // Inside a fan_out job the budget is one thread, whatever
            // the caller's was: the op must stay on the job's thread.
            // (The slots start as the empty-slice result: zero chunks.)
            let mut outs = [run(apply, 0), run(apply, 0)];
            par::with_budget(4, || {
                par::fan_out(outs.iter_mut(), |out| *out = run(apply, n));
            });
            for (l, v, spawned) in &outs {
                assert_same_bits(&format!("{name} in-job primary"), l, &l_one);
                assert_same_bits(&format!("{name} in-job secondary"), v, &v_one);
                assert_eq!(*spawned, 0, "{name}: forked inside a fan_out job");
            }
        }
    }

    #[test]
    fn fold_sum_is_one_add_per_partial_in_order() {
        // Partials of different magnitudes, so any other association
        // order would round differently; lengths straddle the band gate
        // and end inside a block.
        for n in [par::PAR_ELEMS - 3, par::PAR_ELEMS + 2053] {
            let (start, grad, _) = operands(n);
            let parts: Vec<Vec<f32>> = (0..10i32)
                .map(|c| grad.iter().map(|g| g * 10f32.powi(c % 5 - 2)).collect())
                .collect();
            for children in 1..=parts.len() {
                let mut sequential = start.clone();
                for p in &parts[..children] {
                    sequential.iter_mut().zip(p).for_each(|(d, v)| *d += v);
                }
                for threads in [1, 2, 3] {
                    let mut folded = start.clone();
                    par::with_budget(threads, || fold_sum(&mut folded, &parts[..children]));
                    let what = format!("n={n} children={children} threads={threads}");
                    assert_same_bits(&what, &folded, &sequential);
                }
            }
        }
    }

    #[test]
    fn center_dilution_fixed_point_is_the_worker_mean() {
        // ΣWᵢ = P·W̄ ⇒ no movement.
        let mut c = vec![2.0f32, -1.0];
        center_dilution(0.1, 0.5, &mut c, &[8.0, -4.0], 4);
        assert_eq!(c, vec![2.0, -1.0]);
    }
}
