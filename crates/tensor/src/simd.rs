//! Explicit-SIMD kernel tier: the hand-tiled FMA microkernel behind the
//! blocked GEMM ([`mod@crate::gemm`]) and the wide-lane bodies behind the
//! elastic-update kernels ([`crate::ops`], Equations 1/2/5/6 and axpy).
//!
//! # Tier selection
//!
//! The tier is fixed at **compile time** from the build's target features
//! (the repo builds with `-C target-cpu=native`, see `.cargo/config.toml`);
//! there is no runtime dispatch on the hot path:
//!
//! * `avx512f` + `fma` — 8×32 tile as 16 zmm accumulator chains; two
//!   B-vector loads and eight broadcast-FMA pairs per `p` step.
//! * `avx2` + `fma` (without AVX-512) — the same 8×32 tile as two 8×16
//!   half-passes, 16 ymm accumulator chains each, so the register file
//!   never spills.
//! * anything else — the scalar microkernel (straight-line `mul_add`
//!   rows, autovectorized by LLVM), which is also the reference every
//!   SIMD tier is tested bit-identical against.
//!
//! # Bit-identity contract
//!
//! Every tier performs, per output element, the *same* IEEE-754 operation
//! sequence as the scalar reference within one build:
//!
//! * microkernel: one in-order FMA chain over `p` per `(r, j)` element —
//!   vector width only changes how many independent chains run at once,
//!   never the order within a chain;
//! * elastic kernels: the exact scalar expression tree (multiplies, adds,
//!   subtracts — **no** FMA contraction, because the scalar kernels do
//!   not contract either), so the golden training digests pinned by the
//!   core crate do not move.
//!
//! [`with_scalar_kernels`] forces the scalar tier on the current thread;
//! the bit-identity tests (and `easgd-bench` A/B runs) compare a normal
//! call against a forced-scalar call of the same routine.
//!
//! # Safety story
//!
//! This module is the **only** place in the workspace allowed to use
//! `unsafe` (the tensor crate denies `unsafe_code`; this module opts out
//! file-wide below, and `cargo run -p easgd-xtask -- lint` enforces that
//! the allowlist stays exactly this file and that every `unsafe` site
//! carries a `SAFETY:` justification). The public surface is entirely
//! safe: slice lengths are asserted before any raw-pointer arithmetic,
//! and `#[target_feature]` functions are only reachable through
//! dispatchers that are compiled solely when the feature is statically
//! enabled for the whole binary.
#![allow(unsafe_code)]

use std::cell::Cell;

/// Microkernel tile rows (C rows accumulated in registers).
pub(crate) const MR: usize = 8;
/// Microkernel tile columns: two AVX-512 vectors (or four AVX2 vectors)
/// wide, giving `MR·2 = 16` independent zmm accumulator chains — enough
/// to hide the 4-cycle FMA latency across two FMA ports, while halving
/// the A-broadcast traffic per FMA relative to an `8×16` tile (measured
/// 108 vs 71 GFLOP/s at 1024³ on an Ice-Lake-class Xeon; the tile sweep
/// lives in DESIGN.md §8).
pub(crate) const NR: usize = 32;
/// Columns of C one [`dot_tile`] call produces: one zmm of lanes (two
/// ymm on the AVX2 tier).
pub(crate) const TW: usize = 16;

/// The compile-time SIMD tier this build selected (see module docs).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "fma"
))]
const TIER: &str = "avx512f";
/// The compile-time SIMD tier this build selected (see module docs).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(target_feature = "avx512f")
))]
const TIER: &str = "avx2+fma";
/// The compile-time SIMD tier this build selected (see module docs).
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "fma",
    any(target_feature = "avx512f", target_feature = "avx2")
)))]
const TIER: &str = "scalar";

thread_local! {
    /// Per-thread override routing every dispatcher to the scalar tier;
    /// set only through [`with_scalar_kernels`].
    static FORCE_SCALAR: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn scalar_forced() -> bool {
    FORCE_SCALAR.with(Cell::get)
}

/// Runs `f` with every kernel dispatch on *this thread* forced to the
/// scalar reference tier — the hook behind the microkernel-vs-scalar
/// bit-identity tests and the bench's tier A/B columns. Nests and
/// unwinds safely (the previous state is restored on panic).
pub fn with_scalar_kernels<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            let prev = self.0;
            FORCE_SCALAR.with(|c| c.set(prev));
        }
    }
    let _reset = Reset(FORCE_SCALAR.with(|c| c.replace(true)));
    f()
}

/// Name of the kernel tier calls on this thread currently use —
/// recorded in `BENCH_kernels.json`'s header.
pub fn active_tier() -> &'static str {
    if scalar_forced() {
        "scalar"
    } else {
        TIER
    }
}

// ---------------------------------------------------------------------------
// Scalar reference tier.
// ---------------------------------------------------------------------------

/// One row of the register tile: `acc[j] += a · b[j]` for all `NR` lanes.
///
/// Takes and returns the row *by value* so each row lives in an SSA
/// value LLVM can keep in one zmm (or two ymm) register across the whole
/// `p` loop; in-place `&mut` rows tend to stay memory-resident and the
/// vectorizer then emits gather/scatter traffic instead.
///
/// `mul_add` is gated on compile-time FMA support: with the feature it is
/// one `vfmadd` (double throughput, one rounding) — the same operation
/// the explicit tiers perform, which is what makes them bit-identical to
/// this reference; without it each call would lower to a *libm `fmaf`
/// routine per element* — measured 20× slower than the naive kernel — so
/// non-FMA builds (anything overriding the repo's `target-cpu=native` in
/// `.cargo/config.toml`, e.g. an external `RUSTFLAGS`) fall back to
/// separate multiply-add, which stays autovectorizable on any target.
#[inline(always)]
fn fma_row(mut acc: [f32; NR], a: f32, b: &[f32; NR]) -> [f32; NR] {
    for j in 0..NR {
        acc[j] = madd(acc[j], a, b[j]);
    }
    acc
}

/// `acc + a·b` as every GEMM chain in this build computes it: one fused
/// `mul_add` where the build has FMA, a separate multiply and add where
/// it does not (see [`fma_row`]).
#[inline(always)]
fn madd(acc: f32, a: f32, b: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        b.mul_add(a, acc)
    } else {
        acc + a * b
    }
}

/// Scalar [`fma_rows`]: one partial row at a time, each element's
/// chain over the `N` rows of B in row order.
fn fma_rows_scalar<const N: usize, const R: usize>(
    t: &mut [f32],
    w: usize,
    a: [[f32; N]; R],
    b: [&[f32]; N],
) {
    let b = b.map(|row| &row[..w]);
    for (tr, ar) in t.chunks_exact_mut(w).zip(&a) {
        for (j, tj) in tr.iter_mut().enumerate() {
            let mut v = *tj;
            for q in 0..N {
                v = madd(v, ar[q], b[q][j]);
            }
            *tj = v;
        }
    }
}

/// Scalar [`dot_tile`], the definition the vector tiers are tested
/// against: one chain per element, seeded at +0.0 and run over `p` in
/// ascending order.
fn dot_tile_scalar<const R: usize>(
    a: [&[f32]; R],
    b: &[f32],
    ldb: usize,
    cols: usize,
    len: usize,
) -> [[f32; TW]; R] {
    let mut t = [[0.0f32; TW]; R];
    for (tr, ar) in t.iter_mut().zip(a) {
        for (j, tj) in tr.iter_mut().enumerate().take(cols) {
            let brow = &b[j * ldb..][..len];
            *tj = ar[..len]
                .iter()
                .zip(brow)
                .fold(0.0, |acc, (&x, &y)| madd(acc, x, y));
        }
    }
    t
}

/// The scalar register-tiled core: returns the `MR×NR` tile
/// `acc[r][j] = Σ_p ap[p][r] · bp[p][j]` accumulated over one packed
/// A-panel (`kc×MR`) and B-panel (`kc×NR`), for rows `r < R`; rows
/// `R..MR` of the A panel are never read and come back zero.
fn microkernel_scalar<const R: usize>(apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    // MR independent row accumulators as straight-line locals: constant
    // trip counts everywhere, so LLVM fully unrolls and SLP-vectorizes
    // each row to vector FMAs with the accumulators register-resident.
    // `R > r` is a constant, so rows past R compile away.
    let mut c0 = [0.0f32; NR];
    let mut c1 = [0.0f32; NR];
    let mut c2 = [0.0f32; NR];
    let mut c3 = [0.0f32; NR];
    let mut c4 = [0.0f32; NR];
    let mut c5 = [0.0f32; NR];
    let mut c6 = [0.0f32; NR];
    let mut c7 = [0.0f32; NR];
    for (ak, bk) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        let (Ok(ak), Ok(bk)) = (<&[f32; MR]>::try_from(ak), <&[f32; NR]>::try_from(bk)) else {
            // Unreachable: chunks_exact yields exactly MR/NR elements.
            continue;
        };
        c0 = fma_row(c0, ak[0], bk);
        if R > 1 {
            c1 = fma_row(c1, ak[1], bk);
        }
        if R > 2 {
            c2 = fma_row(c2, ak[2], bk);
            c3 = fma_row(c3, ak[3], bk);
        }
        if R > 4 {
            c4 = fma_row(c4, ak[4], bk);
            c5 = fma_row(c5, ak[5], bk);
            c6 = fma_row(c6, ak[6], bk);
            c7 = fma_row(c7, ak[7], bk);
        }
    }
    [c0, c1, c2, c3, c4, c5, c6, c7]
}

/// Scalar strip pack: `dst[p·NR..][..NR] = src[off + p·ld..][..NR]`.
fn pack_strip_scalar(src: &[f32], off: usize, ld: usize, rows: usize, dst: &mut [f32]) {
    for p in 0..rows {
        dst[p * NR..(p + 1) * NR].copy_from_slice(&src[off + p * ld..][..NR]);
    }
}

/// Scalar transposing pack, rows `p0..len` — the definition the vector
/// tier is tested against, and its `len % 8` tail:
/// `dst[p·W + j] = src[off + j·ld + p]` for `j < lanes`, `0.0` for the
/// padding lanes `lanes..W`. Walks one source run at a time, so reads
/// are contiguous and the scatter stays inside one `len·W` strip.
fn pack_transposed_scalar<const W: usize>(
    src: &[f32],
    off: usize,
    ld: usize,
    lanes: usize,
    p0: usize,
    len: usize,
    dst: &mut [f32],
) {
    for j in 0..W {
        if j < lanes {
            let run = &src[off + j * ld..][..len];
            for p in p0..len {
                dst[p * W + j] = run[p];
            }
        } else {
            for p in p0..len {
                dst[p * W + j] = 0.0;
            }
        }
    }
}

/// Scalar fused accumulate over the first `R` rows: `acc = α·tile`
/// (seed) or `acc += α·tile`, where `tile` is the [`microkernel_scalar`]
/// result; rows `R..MR` of `acc` are left as they are. The two arms are
/// the expression trees of `gemm.rs`'s first-pass seed and later-pass
/// accumulate, so the fused kernel stays bit-identical to the unfused
/// tile-then-update sequence.
fn microkernel_acc_scalar<const R: usize>(
    apanel: &[f32],
    bpanel: &[f32],
    alpha: f32,
    acc: &mut [[f32; NR]; MR],
    seed: bool,
) {
    let tile = microkernel_scalar::<R>(apanel, bpanel);
    for (accr, tr) in acc.iter_mut().zip(tile.iter()).take(R) {
        if seed {
            for (av, tv) in accr.iter_mut().zip(tr.iter()) {
                *av = alpha * tv;
            }
        } else {
            for (av, tv) in accr.iter_mut().zip(tr.iter()) {
                *av += alpha * tv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512F tier.
// ---------------------------------------------------------------------------

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "fma"
))]
mod x86 {
    //! 512-bit kernels. Compiled only when AVX-512F and FMA are enabled
    //! for the *whole build* (`-C target-cpu=native` on such a host), so
    //! every call site in this binary may execute them.
    use super::{MR, NR, TW};
    use std::arch::x86_64::*;

    /// 8×32 microkernel: 16 zmm accumulators, two B loads and eight
    /// broadcast-FMA pairs per `p`. Each `(r, j)` element is one in-order
    /// FMA chain over `p` — bit-identical to the scalar `mul_add` chain.
    #[target_feature(enable = "avx512f")]
    pub(super) fn microkernel(apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
        let kc = apanel.len() / MR;
        assert!(apanel.len() == kc * MR && bpanel.len() == kc * NR);
        let mut out = [[0.0f32; NR]; MR];
        // SAFETY: all pointer reads stay inside `apanel` (kc·MR floats,
        // advanced MR per step for kc steps, offsets 0..8 within a step)
        // and `bpanel` (kc·NR floats, advanced NR per step, two 16-lane
        // loads per step); the stores cover exactly the MR rows of `out`,
        // NR floats each. Lengths are asserted above. Unaligned
        // load/store intrinsics are used throughout, so no alignment
        // requirement exists beyond f32's.
        unsafe {
            let mut acc = [_mm512_setzero_ps(); 16];
            let mut ap = apanel.as_ptr();
            let mut bp = bpanel.as_ptr();
            for _ in 0..kc {
                let b0 = _mm512_loadu_ps(bp);
                let b1 = _mm512_loadu_ps(bp.add(16));
                macro_rules! row {
                    ($r:expr) => {
                        let a = _mm512_set1_ps(*ap.add($r));
                        acc[2 * $r] = _mm512_fmadd_ps(a, b0, acc[2 * $r]);
                        acc[2 * $r + 1] = _mm512_fmadd_ps(a, b1, acc[2 * $r + 1]);
                    };
                }
                row!(0);
                row!(1);
                row!(2);
                row!(3);
                row!(4);
                row!(5);
                row!(6);
                row!(7);
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            for (r, orow) in out.iter_mut().enumerate() {
                _mm512_storeu_ps(orow.as_mut_ptr(), acc[2 * r]);
                _mm512_storeu_ps(orow.as_mut_ptr().add(16), acc[2 * r + 1]);
            }
        }
        out
    }

    /// [`microkernel`] with the tile update fused in, over the first `R`
    /// rows: the finished zmm accumulators are scaled by α and written
    /// into (`seed`) or added onto (`!seed`) the caller's persistent tile
    /// without ever leaving the register file; rows `R..MR` are neither
    /// computed nor touched. The skinny GEMM nest calls this once per
    /// `(tile, KC block)` — the unfused path's store + reload of a 1 KiB
    /// scratch tile per call is what it saves. α is applied as a separate
    /// multiply (`add(acc, mul(α, t))`), matching the uncontracted scalar
    /// `acc += α·t` bit-for-bit.
    #[target_feature(enable = "avx512f")]
    pub(super) fn microkernel_acc<const R: usize>(
        apanel: &[f32],
        bpanel: &[f32],
        alpha: f32,
        out: &mut [[f32; NR]; MR],
        seed: bool,
    ) {
        let kc = apanel.len() / MR;
        assert!(apanel.len() == kc * MR && bpanel.len() == kc * NR);
        // SAFETY: identical access pattern to `microkernel` (see its
        // SAFETY note), restricted to rows r < R ≤ MR — panel reads
        // bounded by the assert, stores (and the `!seed` loads) cover
        // the first R rows of `out`, NR floats each.
        unsafe {
            let mut acc = [_mm512_setzero_ps(); 16];
            let mut ap = apanel.as_ptr();
            let mut bp = bpanel.as_ptr();
            for _ in 0..kc {
                let b0 = _mm512_loadu_ps(bp);
                let b1 = _mm512_loadu_ps(bp.add(16));
                // `$r < R` is a constant: rows past R compile away.
                macro_rules! row {
                    ($r:expr) => {
                        if $r < R {
                            let a = _mm512_set1_ps(*ap.add($r));
                            acc[2 * $r] = _mm512_fmadd_ps(a, b0, acc[2 * $r]);
                            acc[2 * $r + 1] = _mm512_fmadd_ps(a, b1, acc[2 * $r + 1]);
                        }
                    };
                }
                row!(0);
                row!(1);
                row!(2);
                row!(3);
                row!(4);
                row!(5);
                row!(6);
                row!(7);
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            let av = _mm512_set1_ps(alpha);
            for (r, orow) in out.iter_mut().enumerate().take(R) {
                let t0 = _mm512_mul_ps(av, acc[2 * r]);
                let t1 = _mm512_mul_ps(av, acc[2 * r + 1]);
                if seed {
                    _mm512_storeu_ps(orow.as_mut_ptr(), t0);
                    _mm512_storeu_ps(orow.as_mut_ptr().add(16), t1);
                } else {
                    let o0 = _mm512_loadu_ps(orow.as_ptr());
                    let o1 = _mm512_loadu_ps(orow.as_ptr().add(16));
                    _mm512_storeu_ps(orow.as_mut_ptr(), _mm512_add_ps(o0, t0));
                    _mm512_storeu_ps(orow.as_mut_ptr().add(16), _mm512_add_ps(o1, t1));
                }
            }
        }
    }

    /// Strip pack with explicit vector copies: four strided rows per
    /// iteration (two zmm loads + stores each) so the loads to different
    /// rows overlap their cache misses — `copy_from_slice`'s per-row
    /// memcpy call serializes them (measured ~8 → ~20 GB/s effective on
    /// the skinny-GEMM pack phase).
    #[target_feature(enable = "avx512f")]
    pub(super) fn pack_strip(src: &[f32], off: usize, ld: usize, rows: usize, dst: &mut [f32]) {
        assert!(rows == 0 || (off + (rows - 1) * ld + NR <= src.len() && rows * NR <= dst.len()));
        // SAFETY: row p reads src[off + p·ld .. +NR] and writes
        // dst[p·NR .. +NR] for p < rows — both in bounds by the assert
        // (ld ≥ 0 and the last row is the furthest read). Unaligned
        // intrinsics, so no alignment requirement.
        unsafe {
            let base = src.as_ptr().add(off);
            let out = dst.as_mut_ptr();
            let mut p = 0;
            while p + 4 <= rows {
                let s0 = base.add(p * ld);
                let s1 = base.add((p + 1) * ld);
                let s2 = base.add((p + 2) * ld);
                let s3 = base.add((p + 3) * ld);
                let v00 = _mm512_loadu_ps(s0);
                let v01 = _mm512_loadu_ps(s0.add(16));
                let v10 = _mm512_loadu_ps(s1);
                let v11 = _mm512_loadu_ps(s1.add(16));
                let v20 = _mm512_loadu_ps(s2);
                let v21 = _mm512_loadu_ps(s2.add(16));
                let v30 = _mm512_loadu_ps(s3);
                let v31 = _mm512_loadu_ps(s3.add(16));
                let d = out.add(p * NR);
                _mm512_storeu_ps(d, v00);
                _mm512_storeu_ps(d.add(16), v01);
                _mm512_storeu_ps(d.add(32), v10);
                _mm512_storeu_ps(d.add(48), v11);
                _mm512_storeu_ps(d.add(64), v20);
                _mm512_storeu_ps(d.add(80), v21);
                _mm512_storeu_ps(d.add(96), v30);
                _mm512_storeu_ps(d.add(112), v31);
                p += 4;
            }
            while p < rows {
                let s = base.add(p * ld);
                let v0 = _mm512_loadu_ps(s);
                let v1 = _mm512_loadu_ps(s.add(16));
                let d = out.add(p * NR);
                _mm512_storeu_ps(d, v0);
                _mm512_storeu_ps(d.add(16), v1);
                p += 1;
            }
        }
    }

    /// Vector [`super::fma_rows_scalar`]: per 16-lane chunk of the
    /// partial rows, the `R` rows sit in registers while the `N` rows of
    /// B are loaded once each and folded in row order, against the
    /// `R·N` coefficients broadcast once per call; a masked chunk takes
    /// the ragged end. Each lane is the scalar chain, one `vfmadd` per
    /// step.
    #[target_feature(enable = "avx512f")]
    pub(super) fn fma_rows<const N: usize, const R: usize>(
        t: &mut [f32],
        w: usize,
        a: [[f32; N]; R],
        b: [&[f32]; N],
    ) {
        assert!(t.len() == R * w && b.iter().all(|row| row.len() >= w));
        // SAFETY: chunk `j` touches lanes j..j+16 of row r (offset r·w)
        // of `t` and lanes j..j+16 of each B row, all below `w` — full
        // chunks by the loop bound, the last one through a mask of its
        // `w − j` live lanes, which masked loads and stores never go
        // past. Lengths are asserted above; unaligned intrinsics.
        unsafe {
            let coef: [[__m512; N]; R] =
                std::array::from_fn(|r| std::array::from_fn(|q| _mm512_set1_ps(a[r][q])));
            let tp = t.as_mut_ptr();
            let mut j = 0;
            while j < w {
                let mask: __mmask16 = if w - j >= 16 {
                    0xFFFF
                } else {
                    (1u16 << (w - j)) - 1
                };
                let mut acc: [__m512; R] =
                    std::array::from_fn(|r| _mm512_maskz_loadu_ps(mask, tp.add(r * w + j)));
                for q in 0..N {
                    let bq = _mm512_maskz_loadu_ps(mask, b[q].as_ptr().add(j));
                    for r in 0..R {
                        acc[r] = _mm512_fmadd_ps(coef[r][q], bq, acc[r]);
                    }
                }
                for (r, v) in acc.iter().enumerate() {
                    _mm512_mask_storeu_ps(tp.add(r * w + j), mask, *v);
                }
                j += 16;
            }
        }
    }

    /// Vector [`super::dot_tile_scalar`]: per 16-step chunk of `p`, the
    /// `cols` rows of B are loaded one zmm each, transposed in registers
    /// ([`transpose16`]), and the 16 resulting `p` vectors are folded in
    /// order into the `R` row accumulators against broadcasts of A —
    /// each lane the scalar chain, one `vfmadd` per step. A ragged last
    /// chunk loads through a mask of its live steps and folds only
    /// those; dead B rows are zero registers, never loads.
    #[target_feature(enable = "avx512f")]
    pub(super) fn dot_tile<const R: usize>(
        a: [&[f32]; R],
        b: &[f32],
        ldb: usize,
        cols: usize,
        len: usize,
    ) -> [[f32; TW]; R] {
        assert!(
            (1..=TW).contains(&cols)
                && a.iter().all(|row| row.len() >= len)
                && (len == 0 || (cols - 1) * ldb + len <= b.len())
        );
        let mut out = [[0.0f32; TW]; R];
        // SAFETY: a load reads b[j·ldb + l .. +16] for j < cols, through
        // a mask of the `len − l` live steps when fewer than 16 remain
        // (masked-off lanes are never read), so it ends at or before
        // (cols−1)·ldb + len ≤ b.len(); a broadcast reads a[i][l + p]
        // with l + p < len ≤ a[i].len(); the stores cover out[i]'s 16
        // floats. All bounds are asserted above; unaligned intrinsics.
        unsafe {
            let mut acc = [_mm512_setzero_ps(); R];
            let mut l = 0;
            while l < len {
                let live = (len - l).min(16);
                let mask: __mmask16 = if live == 16 {
                    0xFFFF
                } else {
                    (1u16 << live) - 1
                };
                let row = |j: usize| _mm512_maskz_loadu_ps(mask, b.as_ptr().add(j * ldb + l));
                let rows: [__m512; 16] = if cols == TW {
                    std::array::from_fn(row)
                } else {
                    std::array::from_fn(|j| {
                        if j < cols {
                            row(j)
                        } else {
                            _mm512_setzero_ps()
                        }
                    })
                };
                let t = transpose16(rows);
                let step = |acc: &mut [__m512; R], p: usize| {
                    for (i, acc) in acc.iter_mut().enumerate() {
                        let av = _mm512_set1_ps(*a[i].as_ptr().add(l + p));
                        *acc = _mm512_fmadd_ps(av, t[p], *acc);
                    }
                };
                // A full chunk's step count is a constant, so `t` stays
                // in registers; only the ragged tail indexes it.
                if live == 16 {
                    (0..16).for_each(|p| step(&mut acc, p));
                } else {
                    (0..live).for_each(|p| step(&mut acc, p));
                }
                l += 16;
            }
            for (o, v) in out.iter_mut().zip(acc) {
                _mm512_storeu_ps(o.as_mut_ptr(), v);
            }
        }
        out
    }

    /// 16×16 in-register transpose: `out[p]` lane `j` is `rows[j]` lane
    /// `p`. Interleaves 32-bit, then 64-bit elements inside each 128-bit
    /// lane, then exchanges 128-bit lanes twice — 64 shuffles.
    #[target_feature(enable = "avx512f")]
    fn transpose16(r: [__m512; 16]) -> [__m512; 16] {
        // t[2g], t[2g+1]: rows 2g, 2g+1 interleaved (columns 4q, 4q+1 and
        // 4q+2, 4q+3 of each 128-bit lane q).
        let mut t = r;
        for g in 0..8 {
            t[2 * g] = _mm512_unpacklo_ps(r[2 * g], r[2 * g + 1]);
            t[2 * g + 1] = _mm512_unpackhi_ps(r[2 * g], r[2 * g + 1]);
        }
        // u[4g + c]: column 4q + c of rows 4g..4g+4, in lane q.
        let mut u = t;
        for g in 0..4 {
            let (x, y) = (4 * g, 4 * g + 2);
            u[x] = _mm512_shuffle_ps::<0x44>(t[x], t[y]);
            u[x + 1] = _mm512_shuffle_ps::<0xEE>(t[x], t[y]);
            u[x + 2] = _mm512_shuffle_ps::<0x44>(t[x + 1], t[y + 1]);
            u[x + 3] = _mm512_shuffle_ps::<0xEE>(t[x + 1], t[y + 1]);
        }
        // Gather lane q of u[c], u[4+c], u[8+c], u[12+c] into out[4q + c].
        let mut out = u;
        for c in 0..4 {
            let v0 = _mm512_shuffle_f32x4::<0x88>(u[c], u[4 + c]);
            let v1 = _mm512_shuffle_f32x4::<0xDD>(u[c], u[4 + c]);
            let w0 = _mm512_shuffle_f32x4::<0x88>(u[8 + c], u[12 + c]);
            let w1 = _mm512_shuffle_f32x4::<0xDD>(u[8 + c], u[12 + c]);
            out[c] = _mm512_shuffle_f32x4::<0x88>(v0, w0);
            out[8 + c] = _mm512_shuffle_f32x4::<0xDD>(v0, w0);
            out[4 + c] = _mm512_shuffle_f32x4::<0x88>(v1, w1);
            out[12 + c] = _mm512_shuffle_f32x4::<0xDD>(v1, w1);
        }
        out
    }

    /// Generates one 16-lane elastic band kernel: the vector body applies
    /// the *same* mul/add/sub tree as the scalar expression (no FMA
    /// contraction), and the tail runs the scalar expression itself.
    /// An optional `[mut x]`-marked second operand is a second mutable
    /// slice (the Eq 5/6 velocity); the rest are read-only.
    macro_rules! band_kernel {
        ($name:ident, ($($scalars:ident),*), ($y:ident $(, [mut $y2:ident])? $(, $rd:ident)*),
         vec: |$i:ident| $vbody:block, tail: |$j:ident| $tbody:block) => {
            #[target_feature(enable = "avx512f")]
            #[allow(clippy::too_many_arguments)]
            pub(super) fn $name($($scalars: f32,)* $y: &mut [f32] $(, $y2: &mut [f32])? $(, $rd: &[f32])*) {
                let n = $y.len();
                $(assert_eq!(n, $y2.len());)?
                $(assert_eq!(n, $rd.len());)*
                let mut $i = 0;
                // SAFETY: every load/store in the vector body touches
                // lanes [$i, $i+16) of slices asserted equal-length above,
                // and the loop bound keeps $i+16 ≤ n. Unaligned
                // intrinsics, so no alignment requirement.
                unsafe {
                    while $i + 16 <= n {
                        $vbody
                        $i += 16;
                    }
                }
                for $j in $i..n {
                    $tbody
                }
            }
        };
    }

    band_kernel!(axpy, (alpha), (y, x),
        vec: |i| {
            let xv = _mm512_loadu_ps(x.as_ptr().add(i));
            let yv = _mm512_loadu_ps(y.as_ptr().add(i));
            let r = _mm512_add_ps(yv, _mm512_mul_ps(_mm512_set1_ps(alpha), xv));
            _mm512_storeu_ps(y.as_mut_ptr().add(i), r);
        },
        tail: |j| { y[j] += alpha * x[j]; });

    band_kernel!(eq1, (eta, rho), (local, grad, center),
        vec: |i| {
            let lv = _mm512_loadu_ps(local.as_ptr().add(i));
            let gv = _mm512_loadu_ps(grad.as_ptr().add(i));
            let cv = _mm512_loadu_ps(center.as_ptr().add(i));
            // l − η·(g + ρ·(l − c)), evaluated exactly as the scalar tree.
            let pull = _mm512_mul_ps(_mm512_set1_ps(rho), _mm512_sub_ps(lv, cv));
            let step = _mm512_mul_ps(_mm512_set1_ps(eta), _mm512_add_ps(gv, pull));
            _mm512_storeu_ps(local.as_mut_ptr().add(i), _mm512_sub_ps(lv, step));
        },
        tail: |j| { local[j] -= eta * (grad[j] + rho * (local[j] - center[j])); });

    band_kernel!(eq2, (c), (center, local),
        vec: |i| {
            let cv = _mm512_loadu_ps(center.as_ptr().add(i));
            let lv = _mm512_loadu_ps(local.as_ptr().add(i));
            // c + ηρ·(l − c)
            let pull = _mm512_mul_ps(_mm512_set1_ps(c), _mm512_sub_ps(lv, cv));
            _mm512_storeu_ps(center.as_mut_ptr().add(i), _mm512_add_ps(cv, pull));
        },
        tail: |j| { center[j] += c * (local[j] - center[j]); });

    band_kernel!(eq56, (eta, mu, er), (local, [mut velocity], grad, center),
    vec: |i| {
        let lv = _mm512_loadu_ps(local.as_ptr().add(i));
        let vv = _mm512_loadu_ps(velocity.as_ptr().add(i));
        let gv = _mm512_loadu_ps(grad.as_ptr().add(i));
        let cv = _mm512_loadu_ps(center.as_ptr().add(i));
        // v′ = µ·v − η·g
        let vnew = _mm512_sub_ps(
            _mm512_mul_ps(_mm512_set1_ps(mu), vv),
            _mm512_mul_ps(_mm512_set1_ps(eta), gv),
        );
        // l + (v′ − ηρ·(l − c))
        let pull = _mm512_mul_ps(_mm512_set1_ps(er), _mm512_sub_ps(lv, cv));
        let lnew = _mm512_add_ps(lv, _mm512_sub_ps(vnew, pull));
        _mm512_storeu_ps(velocity.as_mut_ptr().add(i), vnew);
        _mm512_storeu_ps(local.as_mut_ptr().add(i), lnew);
    },
    tail: |j| {
        velocity[j] = mu * velocity[j] - eta * grad[j];
        local[j] += velocity[j] - er * (local[j] - center[j]);
    });

    band_kernel!(dilution, (scale, p), (center, weight_sum),
        vec: |i| {
            let cv = _mm512_loadu_ps(center.as_ptr().add(i));
            let sv = _mm512_loadu_ps(weight_sum.as_ptr().add(i));
            // c + ηρ·(Σw − P·c)
            let drift = _mm512_sub_ps(sv, _mm512_mul_ps(_mm512_set1_ps(p), cv));
            let r = _mm512_add_ps(cv, _mm512_mul_ps(_mm512_set1_ps(scale), drift));
            _mm512_storeu_ps(center.as_mut_ptr().add(i), r);
        },
        tail: |j| { center[j] += scale * (weight_sum[j] - p * center[j]); });
}

// ---------------------------------------------------------------------------
// AVX2+FMA tier (microkernel + strip pack; the memory-bound elastic
// kernels keep their autovectorized scalar bodies on this tier).
// ---------------------------------------------------------------------------

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(target_feature = "avx512f")
))]
mod x86 {
    //! 256-bit kernels. Compiled only when AVX2 and FMA are enabled for
    //! the whole build and AVX-512F is not.
    use super::{MR, NR, TW};
    use std::arch::x86_64::*;

    /// 8×32 microkernel as two 8×16 half-passes over the same packed
    /// panels: each half keeps 16 ymm accumulators (the full ymm file),
    /// so nothing spills. Per `(r, j)` element the FMA chain over `p` is
    /// identical to the scalar `mul_add` chain — the half split only
    /// changes which chains run concurrently.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn microkernel(apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
        let kc = apanel.len() / MR;
        assert!(apanel.len() == kc * MR && bpanel.len() == kc * NR);
        let mut out = [[0.0f32; NR]; MR];
        for half in 0..2 {
            let col = half * 16;
            // SAFETY: reads stay inside `apanel` (offsets r < MR within
            // each MR-stride step, kc steps) and `bpanel` (two 8-lane
            // loads at p·NR + col + {0, 8}, col ≤ 16, so ≤ p·NR + 31);
            // stores cover out[r][col..col+16]. Lengths asserted above;
            // unaligned intrinsics throughout.
            unsafe {
                let mut acc = [_mm256_setzero_ps(); 16];
                let mut ap = apanel.as_ptr();
                let mut bp = bpanel.as_ptr().add(col);
                for _ in 0..kc {
                    let b0 = _mm256_loadu_ps(bp);
                    let b1 = _mm256_loadu_ps(bp.add(8));
                    macro_rules! row {
                        ($r:expr) => {
                            let a = _mm256_set1_ps(*ap.add($r));
                            acc[2 * $r] = _mm256_fmadd_ps(a, b0, acc[2 * $r]);
                            acc[2 * $r + 1] = _mm256_fmadd_ps(a, b1, acc[2 * $r + 1]);
                        };
                    }
                    row!(0);
                    row!(1);
                    row!(2);
                    row!(3);
                    row!(4);
                    row!(5);
                    row!(6);
                    row!(7);
                    ap = ap.add(MR);
                    bp = bp.add(NR);
                }
                for (r, orow) in out.iter_mut().enumerate() {
                    _mm256_storeu_ps(orow.as_mut_ptr().add(col), acc[2 * r]);
                    _mm256_storeu_ps(orow.as_mut_ptr().add(col + 8), acc[2 * r + 1]);
                }
            }
        }
        out
    }

    /// [`microkernel`] with the tile update fused in, over the first `R`
    /// rows (see the AVX-512 tier's `microkernel_acc` for the rationale):
    /// per half-pass the finished ymm accumulators are scaled by α and
    /// written into (`seed`) or added onto (`!seed`) the caller's tile;
    /// rows `R..MR` are neither computed nor touched. α is a separate
    /// multiply — no contraction — matching the scalar `acc += α·t`
    /// bit-for-bit.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn microkernel_acc<const R: usize>(
        apanel: &[f32],
        bpanel: &[f32],
        alpha: f32,
        out: &mut [[f32; NR]; MR],
        seed: bool,
    ) {
        let kc = apanel.len() / MR;
        assert!(apanel.len() == kc * MR && bpanel.len() == kc * NR);
        for half in 0..2 {
            let col = half * 16;
            // SAFETY: identical access pattern to `microkernel` (see its
            // SAFETY note), restricted to rows r < R ≤ MR — panel reads
            // bounded by the assert, stores (and the `!seed` loads) cover
            // out[r][col..col+16] for those rows.
            unsafe {
                let mut acc = [_mm256_setzero_ps(); 16];
                let mut ap = apanel.as_ptr();
                let mut bp = bpanel.as_ptr().add(col);
                for _ in 0..kc {
                    let b0 = _mm256_loadu_ps(bp);
                    let b1 = _mm256_loadu_ps(bp.add(8));
                    // `$r < R` is a constant: rows past R compile away.
                    macro_rules! row {
                        ($r:expr) => {
                            if $r < R {
                                let a = _mm256_set1_ps(*ap.add($r));
                                acc[2 * $r] = _mm256_fmadd_ps(a, b0, acc[2 * $r]);
                                acc[2 * $r + 1] = _mm256_fmadd_ps(a, b1, acc[2 * $r + 1]);
                            }
                        };
                    }
                    row!(0);
                    row!(1);
                    row!(2);
                    row!(3);
                    row!(4);
                    row!(5);
                    row!(6);
                    row!(7);
                    ap = ap.add(MR);
                    bp = bp.add(NR);
                }
                let av = _mm256_set1_ps(alpha);
                for (r, orow) in out.iter_mut().enumerate().take(R) {
                    let t0 = _mm256_mul_ps(av, acc[2 * r]);
                    let t1 = _mm256_mul_ps(av, acc[2 * r + 1]);
                    let p0 = orow.as_mut_ptr().add(col);
                    let p1 = orow.as_mut_ptr().add(col + 8);
                    if seed {
                        _mm256_storeu_ps(p0, t0);
                        _mm256_storeu_ps(p1, t1);
                    } else {
                        let o0 = _mm256_loadu_ps(p0);
                        let o1 = _mm256_loadu_ps(p1);
                        _mm256_storeu_ps(p0, _mm256_add_ps(o0, t0));
                        _mm256_storeu_ps(p1, _mm256_add_ps(o1, t1));
                    }
                }
            }
        }
    }

    /// Strip pack with explicit ymm copies (four loads + stores per row)
    /// — avoids the per-row memcpy call of `copy_from_slice`.
    #[target_feature(enable = "avx2")]
    pub(super) fn pack_strip(src: &[f32], off: usize, ld: usize, rows: usize, dst: &mut [f32]) {
        assert!(rows == 0 || (off + (rows - 1) * ld + NR <= src.len() && rows * NR <= dst.len()));
        // SAFETY: row p reads src[off + p·ld .. +NR] and writes
        // dst[p·NR .. +NR] for p < rows — in bounds by the assert.
        // Unaligned intrinsics, so no alignment requirement.
        unsafe {
            let base = src.as_ptr().add(off);
            let out = dst.as_mut_ptr();
            for p in 0..rows {
                let s = base.add(p * ld);
                let v0 = _mm256_loadu_ps(s);
                let v1 = _mm256_loadu_ps(s.add(8));
                let v2 = _mm256_loadu_ps(s.add(16));
                let v3 = _mm256_loadu_ps(s.add(24));
                let d = out.add(p * NR);
                _mm256_storeu_ps(d, v0);
                _mm256_storeu_ps(d.add(8), v1);
                _mm256_storeu_ps(d.add(16), v2);
                _mm256_storeu_ps(d.add(24), v3);
            }
        }
    }

    /// Vector [`super::dot_tile_scalar`] as two 8-column halves: per
    /// 8-step chunk of `p`, a half's rows of B are loaded one ymm each,
    /// transposed in registers ([`super::x86_pack::transpose8`]), and the
    /// 8 `p` vectors are folded in order into the `R` row accumulators —
    /// each lane the scalar chain. A ragged last chunk loads through a
    /// mask of its live steps and folds only those.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn dot_tile<const R: usize>(
        a: [&[f32]; R],
        b: &[f32],
        ldb: usize,
        cols: usize,
        len: usize,
    ) -> [[f32; TW]; R] {
        assert!(
            (1..=TW).contains(&cols)
                && a.iter().all(|row| row.len() >= len)
                && (len == 0 || (cols - 1) * ldb + len <= b.len())
        );
        let mut out = [[0.0f32; TW]; R];
        for j0 in (0..cols).step_by(8) {
            let live_cols = (cols - j0).min(8);
            // SAFETY: a load reads b[(j0 + j)·ldb + l .. +8] for
            // j0 + j < cols, through a mask of the `len − l` live steps
            // when fewer than 8 remain (masked-off lanes are never read),
            // so it ends at or before (cols−1)·ldb + len ≤ b.len(); a
            // broadcast reads a[i][l + p] with l + p < len ≤ a[i].len();
            // the stores cover out[i][j0..j0 + 8], j0 + 8 ≤ TW. Bounds
            // asserted above; unaligned intrinsics.
            unsafe {
                let mut acc = [_mm256_setzero_ps(); R];
                let mut l = 0;
                while l < len {
                    let live = (len - l).min(8);
                    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                    let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(live as i32), lanes);
                    let row = |j: usize| {
                        if j >= live_cols {
                            return _mm256_setzero_ps();
                        }
                        let src = b.as_ptr().add((j0 + j) * ldb + l);
                        if live == 8 {
                            _mm256_loadu_ps(src)
                        } else {
                            _mm256_maskload_ps(src, mask)
                        }
                    };
                    let t = super::x86_pack::transpose8(std::array::from_fn(row));
                    let step = |acc: &mut [__m256; R], p: usize| {
                        for (i, acc) in acc.iter_mut().enumerate() {
                            let av = _mm256_set1_ps(*a[i].as_ptr().add(l + p));
                            *acc = _mm256_fmadd_ps(av, t[p], *acc);
                        }
                    };
                    if live == 8 {
                        (0..8).for_each(|p| step(&mut acc, p));
                    } else {
                        (0..live).for_each(|p| step(&mut acc, p));
                    }
                    l += 8;
                }
                for (o, v) in out.iter_mut().zip(acc) {
                    _mm256_storeu_ps(o.as_mut_ptr().add(j0), v);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Transposing pack: one 256-bit routine for both vector tiers.
// ---------------------------------------------------------------------------

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "fma",
    any(target_feature = "avx512f", target_feature = "avx2")
))]
mod x86_pack {
    //! The 8×8 in-register block transposer behind both transposing
    //! packs. AVX2 only, which either vector tier's build enables.
    use std::arch::x86_64::*;

    /// Vector [`super::pack_transposed_scalar`]. One block is eight
    /// lanes by eight `p` steps: eight contiguous 8-float loads (one per
    /// source run; padding lanes are zero registers, never loads), three
    /// shuffle levels, eight 8-float stores — where the scalar scatter
    /// issues 64 dependent 4-byte stores. Blocks go `p`-outermost in
    /// 16-step slabs, so every source cache line is consumed whole the
    /// moment it arrives and `dst` fills front to back (30 GB/s from L2
    /// at `ld = 800` against 23 lane-group-outermost; a 16×16 zmm block
    /// measured within 5 % of this one and was not kept). The `len % 8`
    /// tail rows go through the scalar routine.
    #[target_feature(enable = "avx2")]
    pub(super) fn pack_transposed<const W: usize>(
        src: &[f32],
        off: usize,
        ld: usize,
        lanes: usize,
        len: usize,
        dst: &mut [f32],
    ) {
        const { assert!(W.is_multiple_of(8), "whole 8-lane groups") };
        assert!(
            (1..=W).contains(&lanes)
                && dst.len() == len * W
                && (len == 0 || off + (lanes - 1) * ld + len <= src.len())
        );
        let full = len - len % 8;
        // SAFETY: a load reads src[off + j·ld + p .. +8] with j < lanes
        // and p + 8 ≤ full ≤ len, so it ends at or before
        // off + (lanes−1)·ld + len ≤ src.len(); a store writes
        // dst[(p+i)·W + j0 .. +8] with p + i < full and j0 + 8 ≤ W, inside
        // dst's len·W floats. Both bounds are asserted above. Unaligned
        // intrinsics, so no alignment requirement.
        unsafe {
            let base = src.as_ptr().add(off);
            let out = dst.as_mut_ptr();
            for slab in (0..full).step_by(16) {
                for j0 in (0..W).step_by(8) {
                    let live = lanes.saturating_sub(j0).min(8);
                    for p in (slab..full.min(slab + 16)).step_by(8) {
                        let run = |i: usize| _mm256_loadu_ps(base.add((j0 + i) * ld + p));
                        let mut r = [_mm256_setzero_ps(); 8];
                        // Full groups load straight-line: left to the
                        // `live`-bounded loop alone, every block pays a
                        // compare ladder (8–15 % of an m ≤ 8 NT product).
                        if live == 8 {
                            r = std::array::from_fn(run);
                        } else {
                            (0..live).for_each(|i| r[i] = run(i));
                        }
                        for (i, v) in transpose8(r).into_iter().enumerate() {
                            _mm256_storeu_ps(out.add((p + i) * W + j0), v);
                        }
                    }
                }
            }
        }
        super::pack_transposed_scalar::<W>(src, off, ld, lanes, full, len, dst);
    }

    /// 8×8 in-register transpose: `out[p]` lane `j` is `r[j]` lane `p`.
    /// Interleaves 32-bit, then 64-bit elements inside each 128-bit
    /// half, then swaps the halves — 24 shuffles.
    #[target_feature(enable = "avx2")]
    pub(super) fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let (mut u, mut s) = (r, r);
        for i in [0, 2, 4, 6] {
            u[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
            u[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
        }
        // s[i], s[i + 4]: column c of rows 0..4 and 4..8 in each half,
        // with c = [0, 2, 1, 3][i].
        for i in [0, 1, 4, 5] {
            s[i] = _mm256_shuffle_ps::<0x44>(u[i], u[i + 2]);
            s[i + 2] = _mm256_shuffle_ps::<0xEE>(u[i], u[i + 2]);
        }
        let mut out = r;
        for (i, c) in [0, 2, 1, 3].into_iter().enumerate() {
            let (lo, hi) = (s[i], s[i + 4]);
            out[c] = _mm256_permute2f128_ps::<0x20>(lo, hi);
            out[c + 4] = _mm256_permute2f128_ps::<0x31>(lo, hi);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Safe dispatchers — the only entry points the rest of the crate sees.
// ---------------------------------------------------------------------------

/// The register-tiled GEMM core: returns the `MR×NR` tile
/// `acc[r][j] = Σ_p ap[p][r] · bp[p][j]` over one packed A-panel
/// (`kc×MR`, layout `[p][r]`) and B-panel (`kc×NR`, layout `[p][j]`).
///
/// # Panics
/// Panics if `apanel.len()` is not a multiple of `MR` or the panel
/// lengths disagree on `kc`.
#[inline]
pub(crate) fn microkernel(apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    assert_eq!(apanel.len() % MR, 0, "A panel not a whole number of steps");
    assert_eq!(
        apanel.len() / MR * NR,
        bpanel.len(),
        "panel kc mismatch between A and B"
    );
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "fma",
        any(target_feature = "avx512f", target_feature = "avx2")
    ))]
    if !scalar_forced() {
        // SAFETY: the `x86` module — and this call — are compiled only
        // when its required target features are statically enabled for
        // the entire binary (`cfg` above), so the CPU executing this code
        // supports them.
        return unsafe { x86::microkernel(apanel, bpanel) };
    }
    microkernel_scalar::<MR>(apanel, bpanel)
}

/// [`microkernel`] with the tile update fused, over the first `R` rows:
/// computes rows `0..R` of the `MR×NR` tile over the packed panels, then
/// applies `acc = α·tile` (`seed`) or `acc += α·tile` (`!seed`) to those
/// rows without the tile ever reaching memory on the SIMD tiers. Rows
/// `R..MR` of `acc` are neither computed nor touched — a short row block
/// (the `m = 2` of a small-batch `Dense` layer) pays for its live rows
/// only. The A panel keeps its `MR` stride whatever `R` is, and each
/// computed element runs exactly the FMA chain `microkernel` gives it,
/// followed by the corresponding update — the skinny GEMM nest's hot
/// call.
///
/// # Panics
/// Panics if `apanel.len()` is not a multiple of `MR` or the panel
/// lengths disagree on `kc`. `R` must be 1, 2, 4 or 8 (a compile error
/// otherwise).
#[inline]
pub(crate) fn microkernel_acc<const R: usize>(
    apanel: &[f32],
    bpanel: &[f32],
    alpha: f32,
    acc: &mut [[f32; NR]; MR],
    seed: bool,
) {
    const { assert!(R.is_power_of_two() && R <= MR, "R must be 1, 2, 4 or 8") };
    assert_eq!(apanel.len() % MR, 0, "A panel not a whole number of steps");
    assert_eq!(
        apanel.len() / MR * NR,
        bpanel.len(),
        "panel kc mismatch between A and B"
    );
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "fma",
        any(target_feature = "avx512f", target_feature = "avx2")
    ))]
    if !scalar_forced() {
        // SAFETY: the `x86` module — and this call — are compiled only
        // when its required target features are statically enabled for
        // the entire binary (`cfg` above), so the CPU executing this code
        // supports them.
        unsafe { x86::microkernel_acc::<R>(apanel, bpanel, alpha, acc, seed) };
        return;
    }
    microkernel_acc_scalar::<R>(apanel, bpanel, alpha, acc, seed);
}

/// The pack-free GEMM nest's inner loop: `R` partial rows of width `w`,
/// back to back in `t`, each folded with `N` rows of a row-major B in
/// row order — `t[r][j] ← (…(t[r][j] + a[r][0]·b₀[j]) + …) +
/// a[r][N−1]·b_{N−1}[j]`, one multiply-add per step as [`fma_row`]
/// does it: the chain the microkernel runs for one element, `N` steps
/// of it per pass over `t`.
///
/// # Panics
/// Panics unless `t` is `R·w` floats and every row of `b` at least `w`.
#[inline]
pub(crate) fn fma_rows<const N: usize, const R: usize>(
    t: &mut [f32],
    w: usize,
    a: [[f32; N]; R],
    b: [&[f32]; N],
) {
    assert_eq!(t.len(), R * w, "{R} partial rows of {w}");
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "fma"
    ))]
    if !scalar_forced() {
        // SAFETY: the `x86` module — and this call — are compiled only
        // when AVX-512F and FMA are statically enabled for the entire
        // binary (`cfg` above), so the CPU executing this code supports
        // them.
        unsafe { x86::fma_rows::<N, R>(t, w, a, b) };
        return;
    }
    fma_rows_scalar::<N, R>(t, w, a, b);
}

/// The transposed stream nest's kernel: `R` rows of A against the
/// `cols ≤ TW` rows of B that start `ldb` floats apart in `b`, both read
/// as stored, contiguous in `p` — returns
/// `t[r][j] = Σ_{p < len} a[r][p] · b[j·ldb + p]`, each element one
/// chain seeded at +0.0 and run over `p` in ascending order, one
/// multiply-add per step as [`fma_row`] does it: the chain the
/// microkernel runs for a tile over the same `len` steps. Lanes
/// `cols..TW` are unspecified. The vector tiers transpose B in registers,
/// so no pack buffer is written or read.
///
/// # Panics
/// Panics unless `1 ≤ cols ≤ TW`, every row of `a` holds `len` floats,
/// and `b` holds the last row's `len` floats.
#[inline]
pub(crate) fn dot_tile<const R: usize>(
    a: [&[f32]; R],
    b: &[f32],
    ldb: usize,
    cols: usize,
    len: usize,
) -> [[f32; TW]; R] {
    assert!(
        (1..=TW).contains(&cols) && a.iter().all(|row| row.len() >= len),
        "dot tile: {cols} columns of {TW}, {len} steps"
    );
    assert!(
        len == 0 || (cols - 1) * ldb + len <= b.len(),
        "dot tile reads past its B"
    );
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "fma",
        any(target_feature = "avx512f", target_feature = "avx2")
    ))]
    if !scalar_forced() {
        // SAFETY: the `x86` module — and this call — are compiled only
        // when its required target features are statically enabled for
        // the entire binary (`cfg` above), so the CPU executing this code
        // supports them.
        return unsafe { x86::dot_tile::<R>(a, b, ldb, cols, len) };
    }
    dot_tile_scalar::<R>(a, b, ldb, cols, len)
}

/// Packs a full-width `rows × NR` strip of a row-major matrix into the
/// microkernel's `[p][j]` order: `dst[p·NR..][..NR] = src[off + p·ld..][..NR]`.
/// A plain strided copy — no arithmetic — so the tiers are trivially
/// bit-identical; the SIMD versions exist because the pack phase is the
/// bottleneck of skinny-M GEMMs (see `gemm.rs`).
///
/// # Panics
/// Panics if the last row read or the destination would be out of bounds.
#[inline]
pub(crate) fn pack_strip(src: &[f32], off: usize, ld: usize, rows: usize, dst: &mut [f32]) {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "fma",
        any(target_feature = "avx512f", target_feature = "avx2")
    ))]
    if !scalar_forced() {
        // SAFETY: the `x86` module — and this call — are compiled only
        // when its required target features are statically enabled for
        // the entire binary (`cfg` above), so the CPU executing this code
        // supports them.
        return unsafe { x86::pack_strip(src, off, ld, rows, dst) };
    }
    pack_strip_scalar(src, off, ld, rows, dst);
}

/// The transposing pack: `len` steps of up to `W` source runs that are
/// each contiguous in `p` (row-major `A` rows, the rows of a stored-
/// transposed `B`) into the microkernel's `[p][lane]` order —
/// `dst[p·W + j] = src[off + j·ld + p]` for `j < lanes`, `0.0` for the
/// padding lanes of a short tile. Moves bytes only, so the tiers are
/// bit-identical by construction; the vector tier exists because this is
/// every `Dense` forward's weight traffic (see `gemm.rs`).
///
/// # Panics
/// Panics unless `1 ≤ lanes ≤ W`, `dst.len() == len·W`, and the last
/// element read, `src[off + (lanes−1)·ld + len − 1]`, is in bounds.
#[inline]
pub(crate) fn pack_transposed<const W: usize>(
    src: &[f32],
    off: usize,
    ld: usize,
    lanes: usize,
    len: usize,
    dst: &mut [f32],
) {
    assert!(
        (1..=W).contains(&lanes) && dst.len() == len * W,
        "transposing pack: {lanes} lanes of {W} into {} floats for {len} steps",
        dst.len()
    );
    assert!(
        len == 0 || off + (lanes - 1) * ld + len <= src.len(),
        "transposing pack reads past its source"
    );
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "fma",
        any(target_feature = "avx512f", target_feature = "avx2")
    ))]
    if !scalar_forced() {
        // SAFETY: the `x86_pack` module — and this call — are compiled
        // only when AVX2 (implied by AVX-512F) is statically enabled for
        // the entire binary (`cfg` above), so the CPU executing this code
        // supports it.
        return unsafe { x86_pack::pack_transposed::<W>(src, off, ld, lanes, len, dst) };
    }
    pack_transposed_scalar::<W>(src, off, ld, lanes, 0, len, dst);
}

/// Generates the safe dispatcher for one elastic band kernel: AVX-512
/// body when that tier is compiled in (and not overridden), the scalar
/// expression otherwise. The scalar arm *is* the kernel's definition;
/// the vector arm is tested bit-identical to it.
macro_rules! band_dispatch {
    ($(#[$doc:meta])* $name:ident / $inner:ident, ($($scalars:ident),*),
     ($y:ident $(, [mut $y2:ident])? $(, $rd:ident)*),
     |$j:ident| $tbody:block) => {
        $(#[$doc])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name($($scalars: f32,)* $y: &mut [f32] $(, $y2: &mut [f32])? $(, $rd: &[f32])*) {
            $(assert_eq!($y.len(), $y2.len(), "band kernel length mismatch");)?
            $(assert_eq!($y.len(), $rd.len(), "band kernel length mismatch");)*
            #[cfg(all(
                target_arch = "x86_64",
                target_feature = "avx512f",
                target_feature = "fma"
            ))]
            if !scalar_forced() {
                // SAFETY: the `x86` module — and this call — are compiled
                // only when AVX-512F and FMA are statically enabled for
                // the entire binary (`cfg` above), so the CPU executing
                // this code supports them.
                unsafe { x86::$inner($($scalars,)* $y $(, $y2)? $(, $rd)*) };
                return;
            }
            for $j in 0..$y.len() {
                $tbody
            }
        }
    };
}

band_dispatch!(
    /// `y += α·x` — the axpy band body.
    axpy_band / axpy, (alpha), (y, x),
    |j| { y[j] += alpha * x[j]; });

band_dispatch!(
    /// Equation (1) band body: `l ← l − η(g + ρ(l − c))`.
    eq1_band / eq1, (eta, rho), (local, grad, center),
    |j| { local[j] -= eta * (grad[j] + rho * (local[j] - center[j])); });

band_dispatch!(
    /// Equation (2) band body for one worker: `c ← c + ηρ(l − c)`
    /// (`c` here is the premultiplied `η·ρ`).
    eq2_band / eq2, (c), (center, local),
    |j| { center[j] += c * (local[j] - center[j]); });

band_dispatch!(
/// Equations (5)–(6) band body: `v ← µv − ηg; l ← l + v − ηρ(l − c)`
/// (`er` is the premultiplied `η·ρ`).
eq56_band / eq56, (eta, mu, er), (local, [mut velocity], grad, center),
|j| {
    velocity[j] = mu * velocity[j] - eta * grad[j];
    local[j] += velocity[j] - er * (local[j] - center[j]);
});

band_dispatch!(
    /// Σ-form Equation (2) band body: `c ← c + ηρ(Σw − P·c)`
    /// (`scale` is the premultiplied `η·ρ`, `p` the worker count).
    dilution_band / dilution, (scale, p), (center, weight_sum),
    |j| { center[j] += scale * (weight_sum[j] - p * center[j]); });

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut r = crate::rng::Rng::new(seed);
        (0..n).map(|_| r.uniform_in(-1.0, 1.0)).collect()
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn microkernel_matches_scalar_bitwise() {
        // Odd kc values straddle any unroll width in the SIMD tiers.
        for kc in [1usize, 3, 17, 256, 301] {
            let ap = rand_vec(kc * MR, kc as u64);
            let bp = rand_vec(kc * NR, kc as u64 + 7);
            let fast = microkernel(&ap, &bp);
            let slow = with_scalar_kernels(|| microkernel(&ap, &bp));
            for r in 0..MR {
                assert_bits_eq(&fast[r], &slow[r], "tile row");
            }
        }
        // The fused kernel at every row count it is built for.
        check_fused_rows::<1>();
        check_fused_rows::<2>();
        check_fused_rows::<4>();
        check_fused_rows::<MR>();
    }

    /// `microkernel_acc::<R>` against `microkernel` + the seed/accumulate
    /// update loops, on the SIMD tier and the forced-scalar tier: rows
    /// `0..R` carry exactly those bits, rows `R..MR` are untouched.
    fn check_fused_rows<const R: usize>() {
        for kc in [1usize, 17, 256, 301] {
            let ap = rand_vec(kc * MR, kc as u64 + 31);
            let bp = rand_vec(kc * NR, kc as u64 + 41);
            let alpha = -1.25f32;
            for seed in [true, false] {
                for force_scalar in [false, true] {
                    let run = |f: &dyn Fn() -> [[f32; NR]; MR]| {
                        if force_scalar {
                            with_scalar_kernels(f)
                        } else {
                            f()
                        }
                    };
                    let fused = run(&|| {
                        let mut acc = [[0.5f32; NR]; MR];
                        microkernel_acc::<R>(&ap, &bp, alpha, &mut acc, seed);
                        acc
                    });
                    let unfused = run(&|| {
                        let mut acc = [[0.5f32; NR]; MR];
                        let tile = microkernel(&ap, &bp);
                        for (accr, tr) in acc.iter_mut().zip(tile.iter()).take(R) {
                            for (av, tv) in accr.iter_mut().zip(tr.iter()) {
                                if seed {
                                    *av = alpha * tv;
                                } else {
                                    *av += alpha * tv;
                                }
                            }
                        }
                        acc
                    });
                    for r in 0..MR {
                        let what = format!("R={R} kc={kc} seed={seed} scalar={force_scalar} row");
                        assert_bits_eq(&fused[r], &unfused[r], &what);
                    }
                }
            }
        }
    }

    #[test]
    fn pack_strip_matches_scalar() {
        let ld = 100;
        let src = rand_vec(40 * ld, 5);
        for rows in [0usize, 1, 3, 4, 7, 33] {
            let mut fast = vec![0.0f32; rows * NR];
            let mut slow = vec![0.0f32; rows * NR];
            pack_strip(&src, 11, ld, rows, &mut fast);
            with_scalar_kernels(|| pack_strip(&src, 11, ld, rows, &mut slow));
            assert_bits_eq(&fast, &slow, "strip");
        }
    }

    /// One pack width over the ragged cases: every tier against the
    /// definition, on a source that ends exactly where the pack may last
    /// read and a NaN-poisoned `dst` of exactly `len·W`.
    fn check_pack_transposed<const W: usize>() {
        for lanes in [1usize, 7, 8, 20, 31, 32].into_iter().filter(|&l| l <= W) {
            for len in [1usize, 5, 16, 47, 244, 256] {
                // Runs back to back (`ld == len`), and strided.
                for (off, ld) in [(3usize, len), (11, len + 13)] {
                    let src = rand_vec(off + (lanes - 1) * ld + len, (lanes * len) as u64);
                    let mut want = vec![0.0f32; len * W];
                    for (p, row) in want.chunks_mut(W).enumerate() {
                        for (j, v) in row.iter_mut().enumerate().take(lanes) {
                            *v = src[off + j * ld + p];
                        }
                    }
                    let mut fast = vec![f32::NAN; len * W];
                    pack_transposed::<W>(&src, off, ld, lanes, len, &mut fast);
                    assert_bits_eq(&fast, &want, "transposing pack");
                    let mut slow = vec![f32::NAN; len * W];
                    with_scalar_kernels(|| {
                        pack_transposed::<W>(&src, off, ld, lanes, len, &mut slow)
                    });
                    assert_bits_eq(&slow, &want, "scalar transposing pack");
                }
            }
        }
    }

    #[test]
    fn pack_transposed_matches_its_definition_on_every_tier() {
        check_pack_transposed::<MR>();
        check_pack_transposed::<NR>();
    }

    /// `dot_tile::<R>` on every tier against its definition, over ragged
    /// column counts and step counts on both sides of a vector chunk, on
    /// a B that ends exactly at the last float the tile may read. A NaN
    /// follows every row of A and of B: a step past `len` that reached a
    /// chain would poison it.
    fn check_dot_tile<const R: usize>() {
        for cols in [1usize, 7, 8, 9, 15, 16] {
            for len in [1usize, 5, 8, 15, 16, 17, 33, 256] {
                let ldb = len + 3;
                let mut b = rand_vec((cols - 1) * ldb + len, (cols * len) as u64);
                for row in b.chunks_mut(ldb) {
                    row.iter_mut().skip(len).for_each(|v| *v = f32::NAN);
                }
                let mut a_store = rand_vec(R * (len + 1), (R + len) as u64);
                for row in a_store.chunks_mut(len + 1) {
                    row[len] = f32::NAN;
                }
                let a: [&[f32]; R] = std::array::from_fn(|r| &a_store[r * (len + 1)..][..len]);
                let fast = dot_tile::<R>(a, &b, ldb, cols, len);
                let slow = with_scalar_kernels(|| dot_tile::<R>(a, &b, ldb, cols, len));
                for r in 0..R {
                    let want: Vec<f32> = (0..cols)
                        .map(|j| (0..len).fold(0.0, |acc, p| madd(acc, a[r][p], b[j * ldb + p])))
                        .collect();
                    let what = format!("R={R} cols={cols} len={len} row {r}");
                    assert_bits_eq(&fast[r][..cols], &want, &what);
                    assert_bits_eq(&slow[r][..cols], &want, &what);
                }
            }
        }
    }

    #[test]
    fn dot_tile_matches_its_definition_on_every_tier() {
        check_dot_tile::<1>();
        check_dot_tile::<2>();
        check_dot_tile::<3>();
        check_dot_tile::<8>();
    }

    #[test]
    fn pack_transposed_rejects_bad_bounds_before_touching_memory() {
        let src = rand_vec(3 * 40, 9);
        // (lanes, len, src floats, dst floats): one source float short,
        // dst one float long, no lanes, too many lanes.
        for (lanes, len, src_len, dst_len) in [
            (3usize, 40usize, 119usize, 40 * MR),
            (3, 40, 120, 40 * MR + 1),
            (0, 40, 120, 40 * MR),
            (MR + 1, 10, 120, 10 * MR),
        ] {
            let caught = std::panic::catch_unwind(|| {
                let mut dst = vec![0.0f32; dst_len];
                pack_transposed::<MR>(&src[..src_len], 0, 40, lanes, len, &mut dst);
            });
            assert!(
                caught.is_err(),
                "lanes={lanes} len={len} src={src_len} dst={dst_len}"
            );
        }
    }

    /// Prints the tier this build runs; `scripts/simd_tiers.sh` greps it
    /// in each leg so a cfg slip cannot test the native tier thrice.
    #[test]
    fn build_reports_its_simd_tier() {
        println!("simd tier under test: {TIER}");
        assert_eq!(active_tier(), TIER);
    }

    #[test]
    fn with_scalar_kernels_restores_tier_on_unwind() {
        let before = active_tier();
        let caught = std::panic::catch_unwind(|| {
            with_scalar_kernels(|| {
                assert_eq!(active_tier(), "scalar");
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        assert_eq!(active_tier(), before);
    }

    /// Checks one band kernel against its scalar definition, bit for bit,
    /// on a length that exercises both the vector body and the tail.
    fn check_band(
        n: usize,
        fast: impl Fn(&mut [f32], &mut [f32]),
        slow: impl Fn(&mut [f32], &mut [f32]),
    ) {
        let mut y_fast = rand_vec(n, 1);
        let mut y2_fast = rand_vec(n, 2);
        let mut y_slow = y_fast.clone();
        let mut y2_slow = y2_fast.clone();
        fast(&mut y_fast, &mut y2_fast);
        with_scalar_kernels(|| slow(&mut y_slow, &mut y2_slow));
        assert_bits_eq(&y_fast, &y_slow, "primary");
        assert_bits_eq(&y2_fast, &y2_slow, "secondary");
    }

    #[test]
    fn band_kernels_match_scalar_bitwise() {
        let n = 1037; // 64 full vectors + a 13-lane tail
        let a = rand_vec(n, 11);
        let b = rand_vec(n, 12);
        check_band(
            n,
            |y, _| axpy_band(0.37, y, &a),
            |y, _| axpy_band(0.37, y, &a),
        );
        check_band(
            n,
            |l, _| eq1_band(0.05, 0.3, l, &a, &b),
            |l, _| eq1_band(0.05, 0.3, l, &a, &b),
        );
        check_band(
            n,
            |c, _| eq2_band(0.015, c, &a),
            |c, _| eq2_band(0.015, c, &a),
        );
        check_band(
            n,
            |l, v| eq56_band(0.05, 0.9, 0.05 * 0.3, l, v, &a, &b),
            |l, v| eq56_band(0.05, 0.9, 0.05 * 0.3, l, v, &a, &b),
        );
        check_band(
            n,
            |c, _| dilution_band(0.015, 4.0, c, &a),
            |c, _| dilution_band(0.015, 4.0, c, &a),
        );
    }
}
