//! Single-precision general matrix multiply.
//!
//! `gemm` computes `C ← α·op(A)·op(B) + β·C` for row-major matrices, with
//! optional transposition of either operand — the workhorse behind every
//! worker's forward/backward pass (dense layers and im2col convolution),
//! so its efficiency decides whether the repo's benchmark ratios measure
//! the paper's *communication* co-design or mere kernel waste.
//!
//! Three tiers, picked by a `2·m·n·k` flop count (see DESIGN.md §8):
//!
//! * **tiny** — a direct row loop; packing overhead would dominate.
//! * **blocked serial** — the cache-blocked packed kernel: A- and
//!   B-panels are packed once per `MC×KC` / `KC×NC` block into
//!   contiguous, microkernel-ordered buffers, and the explicit `MR×NR`
//!   broadcast-FMA register tile in [`crate::simd`] (hand-tiled AVX-512 /
//!   AVX2 intrinsics behind a bit-identical scalar fallback — see
//!   DESIGN.md §15) does the flops. All four [`Transpose`] combinations
//!   are normalized away by the packing step, so the microkernel sees
//!   one layout: an operand whose tile lanes are contiguous in memory is
//!   copied in vector slivers, and one whose `k` runs are contiguous —
//!   `B` stored transposed (every `Dense` forward's weights, conv
//!   `gradW`'s `gy`) and `A` as stored — is transposed in 8×8 register
//!   blocks by `simd::pack_transposed`. The packs are also the only
//!   readers of an operand, so it need not be in memory: through
//!   [`Operand`] they gather a convolution's im2col matrix tile by tile
//!   from the padded image ([`Lowered`]) and nothing upstream of them
//!   changes — same blocks, same nests, same float chains. Skinny outputs (`m ≤ 64` — the
//!   fully-connected layers of a small-batch step) switch to a
//!   column-major nest that keeps the register tiles live across every
//!   `KC` block, touching C once instead of `k/KC` times (the `vgg_fc6`
//!   cliff fix, DESIGN.md §15).
//! * **blocked fork-join** — at or above [`par::FORK_JOIN_FLOPS`], when
//!   the calling thread's budget allows more than one thread, the output
//!   is cut into one band per thread along its *larger* dimension and
//!   each band runs the serial loop nest on a scoped thread
//!   ([`par::fan_out`]) against the caller's own operands. Row bands are
//!   contiguous in C and are written in place; column bands (skinny-M
//!   layers) interleave in C's rows, so each computes into its `m×band`
//!   window of a reused staging buffer that the caller copies back.
//!   Either way every element runs the exact operation sequence of
//!   `gemm_serial` — the result is bit-identical at any thread count.
//!
//! The seed's naive kernel is retained as [`gemm_naive`], the reference
//! the tests compare against.

use crate::im2col::Lowered;
use crate::par;
use crate::simd::{self, MR, NR};

/// Whether an operand is used as stored or transposed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// Use the matrix as stored.
    No,
    /// Use the transpose of the stored matrix.
    Yes,
}

/// A GEMM operand as the packs read it: a matrix in memory, or one that
/// exists only as the tiles the packs gather from a padded image.
#[derive(Copy, Clone, Debug)]
pub enum Operand<'a> {
    /// A dense row-major matrix.
    Stored(&'a [f32]),
    /// The im2col matrix of a padded image ([`Lowered`]); it has no
    /// stored transpose, so it is only valid under [`Transpose::No`].
    Lowered(Lowered<'a>),
}

impl<'a> Operand<'a> {
    /// Panics unless the operand can serve as a `rows×cols` `op(X)`.
    fn check(&self, name: &str, t: Transpose, rows: usize, cols: usize) {
        match self {
            Self::Stored(x) => assert!(
                x.len() >= rows * cols,
                "{name} buffer too small: {} < {}",
                x.len(),
                rows * cols
            ),
            Self::Lowered(v) => assert!(
                t == Transpose::No && v.rows() >= rows && v.cols() == cols,
                "lowered {name} is {}x{} as stored, not a {rows}x{cols} operand under {t:?}",
                v.rows(),
                v.cols()
            ),
        }
    }

    /// The operand as a matrix in memory: itself, or its `rows()×cols()`
    /// lowering written into `scratch` — for the direct row loop, whose
    /// whole product is smaller than one pack block.
    fn stored<'s>(self, scratch: &'s mut Vec<f32>) -> &'s [f32]
    where
        'a: 's,
    {
        match self {
            Self::Stored(x) => x,
            Self::Lowered(v) => {
                let (rows, cols) = (v.rows(), v.cols());
                if scratch.len() < rows * cols {
                    scratch.resize(rows * cols, 0.0);
                }
                v.gather(0, rows, 0, cols, scratch, cols);
                &scratch[..rows * cols]
            }
        }
    }
}

/// Rows of packed A per L2-resident block (multiple of `MR`).
const MC: usize = 256;
/// Shared inner dimension per panel: `MR·KC` floats of A-panel and
/// `NR·KC` of B-panel stay L1-resident inside the microkernel.
const KC: usize = 256;
/// Columns of packed B per outer block (multiple of `NR`); bounds the
/// packed-B working set to `KC·NC` floats.
const NC: usize = 2048;

/// Below this many flops (`2·m·n·k`) the direct row loop wins: packing
/// would touch more memory than the multiply itself.
const SMALL_FLOPS: u64 = 1 << 17;

// The microkernel spells out its MR row accumulators as straight-line
// locals, so the row count is pinned at compile time.
const _: () = assert!(MR == 8, "microkernel is hand-unrolled for MR = 8");

/// Output row count at or below which the skinny nest applies (together
/// with `k > KC`, the regime where the standard nest's repeated C passes
/// dominate): a whole `mc0 ≤ SKINNY_M` row block fits one persistent
/// register-tile column of at most `SKINNY_M/MR` accumulators.
const SKINNY_M: usize = 64;
const _: () = assert!(
    SKINNY_M.is_multiple_of(MR),
    "skinny tile column must be whole tiles"
);

/// Column-panel width of the skinny nest: the staged B strips for one
/// panel (`SKINNY_NC·KC` floats ≈ 224 KiB) stay L2-resident, so B's rows
/// are read from DRAM exactly once *in row-major streaming order* — the
/// per-tile strip copy of the standard nest walks rows at an `n`-float
/// stride (16 KiB for the 4096-wide fc layers), which lands every read
/// in the same L1 set and defeats the DRAM prefetcher entirely.
const SKINNY_NC: usize = 224;
const _: () = assert!(
    SKINNY_NC.is_multiple_of(NR),
    "skinny panel must be whole tiles"
);

/// Pad (in floats, one cache line) between consecutive staged strips:
/// an unpadded strip stride of `KC·NR` floats (32 KiB) would alias every
/// strip's row-`p` sliver to the same L1 set during the scatter.
const STRIP_SKEW: usize = 16;

/// Whether a `mc0`-row output window with inner dimension `k` should run
/// the column-major skinny nest ([`skinny_accumulate`]) instead of the
/// standard one. Skinny outputs lose most of their time in the standard
/// nest re-reading and re-writing C once per `KC` block (`k/KC` sweeps of
/// a tile that never leaves a handful of registers in the skinny nest);
/// at `k ≤ KC` there is only one pass, so the nests are identical work.
fn use_skinny_nest(mc0: usize, k: usize) -> bool {
    #[cfg(test)]
    if FORCE_STANDARD_NEST.with(|f| f.get()) {
        return false;
    }
    mc0 <= SKINNY_M && k > KC
}

#[cfg(test)]
thread_local! {
    /// Test-only override: route skinny shapes through the standard nest
    /// so the two nests can be compared bit-for-bit.
    static FORCE_STANDARD_NEST: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with the skinny nest disabled on this thread (test-only; see
/// [`FORCE_STANDARD_NEST`]). Restores the previous state on unwind.
#[cfg(test)]
fn with_standard_nest<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCE_STANDARD_NEST.with(|flag| flag.set(self.0));
        }
    }
    let _guard = Reset(FORCE_STANDARD_NEST.with(|flag| flag.replace(true)));
    f()
}

/// Flop count of one GEMM call (each output element takes `k` fused
/// multiply-adds = `2k` flops).
fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[allow(clippy::too_many_arguments)]
fn check_dims(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    a: Operand,
    b: Operand,
    c: &[f32],
) {
    a.check("A", ta, m, k);
    b.check("B", tb, k, n);
    assert!(
        c.len() >= m * n,
        "C buffer too small: {} < {}",
        c.len(),
        m * n
    );
}

/// `C ← β·C` over the `m·n` output region.
fn apply_beta(c: &mut [f32], beta: f32) {
    if beta == 0.0 {
        c.iter_mut().for_each(|x| *x = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|x| *x *= beta);
    }
}

/// `C ← α·op(A)·op(B) + β·C`.
///
/// Dimensions are those of the *operated* matrices: `op(A)` is `m×k`,
/// `op(B)` is `k×n`, `C` is `m×n`. All matrices are dense row-major.
///
/// # Panics
/// Panics if any buffer is smaller than its dimensions imply.
// BLAS sgemm signature by design: callers pass the full (op, dims, scalars,
// buffers) tuple exactly as in the reference interface.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    gemm_view(
        ta,
        tb,
        m,
        n,
        k,
        alpha,
        Operand::Stored(a),
        Operand::Stored(b),
        beta,
        c,
    );
}

/// [`gemm`] with either operand read through an [`Operand`] view: the
/// same tiers, nests and per-element float chains, so a product over a
/// [`Lowered`] operand holds the bits [`gemm`] gives over the `im2col`
/// matrix it stands for.
///
/// # Panics
/// Panics if an operand or `c` is smaller than its dimensions imply, or
/// a lowered operand is asked for transposed.
#[allow(clippy::too_many_arguments)]
pub fn gemm_view(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: Operand,
    b: Operand,
    beta: f32,
    c: &mut [f32],
) {
    check_dims(ta, tb, m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    if k == 0 || alpha == 0.0 {
        apply_beta(c, beta);
        return;
    }
    if gemm_flops(m, n, k) < SMALL_FLOPS {
        apply_beta(c, beta);
        naive_rows(ta, tb, m, n, k, alpha, a, b, 0, c);
        return;
    }
    blocked_dispatch(ta, tb, m, n, k, alpha, a, b, beta, c);
}

/// `C ← α·op(A)·op(B) + β·C` with the kernel chosen by **per-row** work
/// `2·n·k` instead of the total `2·m·n·k`.
///
/// [`gemm`]'s tiny/blocked split keys on total flops, so the same output
/// row can be computed by the direct row loop in one call and the packed
/// FMA kernel in another purely because the calls carry different row
/// counts — the two kernels round differently (`mul_add` vs separate
/// mul/add), so row bits depend on batch size. Serving dispatches
/// *ragged* batches and promises a request the exact bits it would get
/// in any other batch (the eval-mode batch-size-invariance contract, see
/// `easgd-serve`), so its eval path needs a dispatch that is a pure
/// function of the per-row shape `(n, k)`.
///
/// Every blocked variant (serial, skinny, SIMD tiers, fork-join) is
/// pinned bit-identical per row, and both kernels compute row `r` from
/// row `r` of `op(A)` alone, so per-row dispatch makes the whole result
/// row-stable: parallelism may still engage by total flops without
/// affecting bits.
///
/// # Panics
/// Panics if any buffer is smaller than its dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn gemm_rowstable(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    let (a, b) = (Operand::Stored(a), Operand::Stored(b));
    check_dims(ta, tb, m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    if k == 0 || alpha == 0.0 {
        apply_beta(c, beta);
        return;
    }
    if gemm_flops(1, n, k) < SMALL_FLOPS {
        apply_beta(c, beta);
        naive_rows(ta, tb, m, n, k, alpha, a, b, 0, c);
        return;
    }
    // Same fork-join gate as `gemm` (total-flops keyed): the banded
    // path is bit-identical to the serial one, so this m-dependence
    // cannot change bits.
    blocked_dispatch(ta, tb, m, n, k, alpha, a, b, beta, c);
}

/// The blocked kernel forced onto the calling thread (no fork-join), for
/// single-threaded A/B measurement against [`gemm_naive`].
///
/// # Panics
/// Panics if any buffer is smaller than its dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn gemm_serial(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    let (a, b) = (Operand::Stored(a), Operand::Stored(b));
    check_dims(ta, tb, m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    if k == 0 || alpha == 0.0 {
        apply_beta(c, beta);
        return;
    }
    blocked_accumulate(ta, tb, m, n, k, 0, m, 0, n, alpha, a, b, beta, c, n);
}

/// Rows `i0..i0 + c_band.len()/n` of `C ← α·op(A)·op(B) + β·C`, computed
/// on the calling thread into `c_band` (those rows of C, contiguous).
///
/// `a` and `b` are the operands of the *whole* `m×n×k` product and the
/// kernel tier is chosen from its flop count, so the band holds exactly
/// the bits [`gemm`] would put in those rows: a caller that owns a
/// fork-join of its own (the convolution's weight gradient, whose `a` is
/// a [`Lowered`] input) can hand each thread a row band and keep the
/// unsplit product's bits.
///
/// # Panics
/// Panics if `a` or `b` is smaller than its dimensions imply, or
/// `c_band` is not a whole number of rows inside `C`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_row_band(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    alpha: f32,
    a: Operand,
    b: &[f32],
    beta: f32,
    c_band: &mut [f32],
) {
    if n == 0 || c_band.is_empty() {
        return;
    }
    let mc0 = c_band.len() / n;
    assert!(
        c_band.len() == mc0 * n && i0 + mc0 <= m,
        "row band {i0}+{}/{n} is not whole rows of a {m}x{n} C",
        c_band.len()
    );
    let b = Operand::Stored(b);
    a.check("A", ta, m, k);
    b.check("B", tb, k, n);
    if k == 0 || alpha == 0.0 {
        apply_beta(c_band, beta);
    } else if gemm_flops(m, n, k) < SMALL_FLOPS {
        apply_beta(c_band, beta);
        naive_rows(ta, tb, m, n, k, alpha, a, b, i0, c_band);
    } else {
        blocked_accumulate(ta, tb, m, n, k, i0, mc0, 0, n, alpha, a, b, beta, c_band, n);
    }
}

// ---------------------------------------------------------------------------
// Packing: normalize any (Transpose, layout) into the microkernel order.
// ---------------------------------------------------------------------------

/// Packs `op(A)[ic..ic+mcb, pc..pc+kcb]` into `ap` as row-tiles of `MR`:
/// layout `[tile][p][r]`, short tiles zero-padded so the microkernel
/// always runs full-width.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    ta: Transpose,
    a: Operand,
    m: usize,
    k: usize,
    ic: usize,
    mcb: usize,
    pc: usize,
    kcb: usize,
    ap: &mut [f32],
) {
    let a = match a {
        Operand::Stored(a) => a,
        Operand::Lowered(v) => return pack_a_lowered(v, ic, mcb, pc, kcb, ap),
    };
    let tiles = mcb.div_ceil(MR);
    for it in 0..tiles {
        let dst = &mut ap[it * kcb * MR..(it + 1) * kcb * MR];
        let rows = MR.min(mcb - it * MR);
        match ta {
            // op(A)[i][l] = a[i·k + l]: rows are contiguous in `l`.
            Transpose::No => {
                simd::pack_transposed::<MR>(a, (ic + it * MR) * k + pc, k, rows, kcb, dst)
            }
            Transpose::Yes => {
                // op(A)[i][l] = a[l·m + i]: each `p` step is contiguous
                // in `r`, so copy MR-wide slivers.
                let base = ic + it * MR;
                for p in 0..kcb {
                    let d = &mut dst[p * MR..(p + 1) * MR];
                    let src = &a[(pc + p) * m + base..][..rows];
                    d[..rows].copy_from_slice(src);
                    d[rows..].iter_mut().for_each(|v| *v = 0.0);
                }
            }
        }
    }
}

/// [`pack_a`] of a lowered operand: a tile's `MR` row segments are
/// gathered back to back — 8 KiB of stack that stay in L1 between the
/// gather and the transposing pack a stored `A` goes through.
fn pack_a_lowered(a: Lowered, ic: usize, mcb: usize, pc: usize, kcb: usize, ap: &mut [f32]) {
    let mut runs = [0.0f32; MR * KC];
    for (it, dst) in ap.chunks_mut(kcb * MR).take(mcb.div_ceil(MR)).enumerate() {
        let rows = MR.min(mcb - it * MR);
        let runs = &mut runs[..rows * kcb];
        a.gather(ic + it * MR, rows, pc, kcb, runs, kcb);
        simd::pack_transposed::<MR>(runs, 0, kcb, rows, kcb, dst);
    }
}

/// Packs `op(B)[pc..pc+kcb, jc..jc+ncb]` into `bp` as column-tiles of
/// `NR`: layout `[tile][p][j]`, zero-padded like [`pack_a`].
#[allow(clippy::too_many_arguments)]
fn pack_b(
    tb: Transpose,
    b: Operand,
    k: usize,
    n: usize,
    pc: usize,
    kcb: usize,
    jc: usize,
    ncb: usize,
    bp: &mut [f32],
) {
    let tiles = ncb.div_ceil(NR);
    for jt in 0..tiles {
        let dst = &mut bp[jt * kcb * NR..(jt + 1) * kcb * NR];
        let cols = NR.min(ncb - jt * NR);
        let b = match b {
            Operand::Stored(b) => b,
            Operand::Lowered(v) => {
                if cols < NR {
                    dst.fill(0.0);
                }
                v.gather(pc, kcb, jc + jt * NR, cols, dst, NR);
                continue;
            }
        };
        match tb {
            Transpose::No => {
                // op(B)[l][j] = b[l·n + j]: each `p` step is contiguous in `j`.
                if cols == NR {
                    // Full-width tile — the hot case: explicit vector
                    // strip copy, which overlaps the strided row misses
                    // where a per-row memcpy call would serialize them.
                    simd::pack_strip(b, pc * n + jc + jt * NR, n, kcb, dst);
                } else {
                    for p in 0..kcb {
                        let d = &mut dst[p * NR..(p + 1) * NR];
                        let src = &b[(pc + p) * n + jc + jt * NR..][..cols];
                        d[..cols].copy_from_slice(src);
                        d[cols..].iter_mut().for_each(|v| *v = 0.0);
                    }
                }
            }
            // op(B)[l][j] = b[j·k + l]: columns are contiguous in `l`.
            Transpose::Yes => {
                simd::pack_transposed::<NR>(b, (jc + jt * NR) * k + pc, k, cols, kcb, dst)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Micro / macro kernels.
// ---------------------------------------------------------------------------

/// Adds `α·acc` into the `mr×nr` valid corner of the C tile at
/// `(row0, col0)` of a row-major region with row stride `ldc`.
#[allow(clippy::too_many_arguments)]
fn write_tile(
    acc: &[[f32; NR]; MR],
    alpha: f32,
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
) {
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let crow = &mut c[(row0 + r) * ldc + col0..][..nr];
        for (cj, accj) in crow.iter_mut().zip(accr.iter()) {
            *cj += alpha * accj;
        }
    }
}

/// First-`KC`-pass tile write: `C ← α·acc + β·C`, so the caller needs no
/// separate `β·C` sweep over the output before the loop nest. With
/// `β = 0` the tile is *stored*, not read — the common `C = A·B` case
/// never reads the old C at all, saving one full read-modify-write pass
/// over the output per call.
#[allow(clippy::too_many_arguments)]
fn write_tile_blend(
    acc: &[[f32; NR]; MR],
    alpha: f32,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
) {
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let crow = &mut c[(row0 + r) * ldc + col0..][..nr];
        if beta == 0.0 {
            for (cj, accj) in crow.iter_mut().zip(accr.iter()) {
                *cj = alpha * accj;
            }
        } else {
            for (cj, accj) in crow.iter_mut().zip(accr.iter()) {
                *cj = alpha * accj + beta * *cj;
            }
        }
    }
}

/// `C[i0.., j0..] ← α · op(A)[i0..i0+mc0, :] · op(B)[:, j0..j0+nc0] + β·C`
/// with the full blocked loop nest. `c` is the row-major region holding
/// exactly that output window (row stride `ldc`, origin at `(i0, j0)`).
///
/// `β` is folded into the first `KC` pass (`pc == 0`), which blends or —
/// for `β = 0` — plainly stores each tile; later passes accumulate. The
/// caller must not pre-scale C. Requires `k ≥ 1` so the first pass
/// exists (callers handle `k = 0` as pure `β·C`).
#[allow(clippy::too_many_arguments)]
fn blocked_accumulate(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    mc0: usize,
    j0: usize,
    nc0: usize,
    alpha: f32,
    a: Operand,
    b: Operand,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    // Packing scratch is thread-local and grows monotonically: a GEMM in
    // a warmed-up training step touches the allocator zero times. The
    // panels are fully overwritten by `pack_a`/`pack_b` (short tiles are
    // zero-padded explicitly), so dirty reuse is safe.
    PACK_SCRATCH.with(|cell| {
        let (ap, bp) = &mut cell.borrow_mut().0;
        // The skinny nest packs *all* of op(A)'s K extent up front (the
        // whole row block is at most SKINNY_M·k floats — e.g. 512 KiB for
        // the 32×4096×4096 fc layer); the standard nest packs one MC×KC
        // block at a time.
        let ap_len = if use_skinny_nest(mc0, k) {
            mc0.div_ceil(MR) * MR * k
        } else {
            MC * KC
        };
        if ap.len() < ap_len {
            ap.resize(ap_len, 0.0);
        }
        let bp_cols = NC.min(nc0.next_multiple_of(NR));
        // The skinny nest's staged strips carry a `STRIP_SKEW` pad each,
        // so its panel needs slightly more than `KC·panel_cols` floats.
        let skinny_tiles = nc0.div_ceil(NR).min(SKINNY_NC / NR);
        let bp_len = (KC * bp_cols).max(skinny_tiles * (KC * NR + STRIP_SKEW));
        if bp.len() < bp_len {
            bp.resize(bp_len, 0.0);
        }
        blocked_accumulate_with(
            ta, tb, m, n, k, i0, mc0, j0, nc0, alpha, a, b, beta, c, ldc, ap, bp,
        );
    });
}

/// A thread's (A-panel, B-panel) packing buffers, handed on when the
/// thread exits: a fork-join's threads live for one band, so buffers that
/// died with their thread would be allocated and zero-filled (over 1 MiB
/// at the conv shapes) once per fork.
struct PackLease(PackBuffers);

/// An (A-panel, B-panel) pair.
type PackBuffers = (Vec<f32>, Vec<f32>);

/// Packing buffers of exited threads, waiting for the next one.
static SPARE_PACKS: std::sync::Mutex<Vec<PackBuffers>> = std::sync::Mutex::new(Vec::new());

impl Drop for PackLease {
    fn drop(&mut self) {
        // A poisoned list only means some thread panicked mid-push; the
        // buffers are then simply freed.
        if let Ok(mut spare) = SPARE_PACKS.lock() {
            spare.push(std::mem::take(&mut self.0));
        }
    }
}

thread_local! {
    /// Per-thread packing buffers for [`blocked_accumulate`] (see the
    /// reuse note there), leased from [`SPARE_PACKS`] on first use.
    static PACK_SCRATCH: std::cell::RefCell<PackLease> = std::cell::RefCell::new(PackLease(
        SPARE_PACKS
            .lock()
            .ok()
            .and_then(|mut spare| spare.pop())
            .unwrap_or_default(),
    ));
}

/// [`blocked_accumulate`] against caller-provided packing buffers.
#[allow(clippy::too_many_arguments)]
fn blocked_accumulate_with(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    mc0: usize,
    j0: usize,
    nc0: usize,
    alpha: f32,
    a: Operand,
    b: Operand,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    ap: &mut [f32],
    bp: &mut [f32],
) {
    // Skinny outputs take the column-major nest when the caller sized
    // `ap` for it (always true via `blocked_accumulate`; band jobs and
    // tests reach here the same way).
    if use_skinny_nest(mc0, k) && ap.len() >= mc0.div_ceil(MR) * MR * k {
        skinny_accumulate(
            ta, tb, m, n, k, i0, mc0, j0, nc0, alpha, a, b, beta, c, ldc, ap, bp,
        );
        return;
    }
    let mut jc = j0;
    while jc < j0 + nc0 {
        let ncb = NC.min(j0 + nc0 - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            pack_b(tb, b, k, n, pc, kcb, jc, ncb, bp);
            let mut ic = i0;
            while ic < i0 + mc0 {
                let mcb = MC.min(i0 + mc0 - ic);
                pack_a(ta, a, m, k, ic, mcb, pc, kcb, ap);
                let row_tiles = mcb.div_ceil(MR);
                let col_tiles = ncb.div_ceil(NR);
                for jt in 0..col_tiles {
                    let bpanel = &bp[jt * kcb * NR..(jt + 1) * kcb * NR];
                    for it in 0..row_tiles {
                        let apanel = &ap[it * kcb * MR..(it + 1) * kcb * MR];
                        let acc = simd::microkernel(apanel, bpanel);
                        let row0 = ic - i0 + it * MR;
                        let col0 = jc - j0 + jt * NR;
                        let mr = MR.min(mcb - it * MR);
                        let nr = NR.min(ncb - jt * NR);
                        if pc == 0 {
                            write_tile_blend(&acc, alpha, beta, c, ldc, row0, col0, mr, nr);
                        } else {
                            write_tile(&acc, alpha, c, ldc, row0, col0, mr, nr);
                        }
                    }
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// The skinny-output nest: [`blocked_accumulate_with`] reorganized for
/// `mc0 ≤ SKINNY_M`, `k > KC` (small-batch fully-connected layers, e.g.
/// 32×4096×4096 `vgg_fc6`).
///
/// The standard nest walks `pc` outermost, so every `KC` block rewrites
/// the whole `mc0×nc0` output — for `k = 4096` that is 16 read-modify-
/// write sweeps of a C that is itself bigger than L2, and throughput
/// collapses to memory bandwidth. Here the whole row block's A is packed
/// *once* up front (it is at most `SKINNY_M·k` floats), the output is
/// walked in `SKINNY_NC`-column panels, and one panel's worth of
/// accumulator tiles stays live in a stack array across *every* `KC`
/// block, so C is touched exactly once per element.
///
/// Within a panel, each `KC` block of B is staged into `NR`-wide strips
/// by [`stage_b_rows`] *before* any microkernel runs: the stage reads
/// B's rows in contiguous `SKINNY_NC`-float slivers (DRAM-prefetcher
/// friendly; B is read from memory exactly once overall) and the
/// microkernels then consume the ~224 KiB staged panel from L2. A naive
/// per-tile strip copy instead walks B at an `n`-float row stride —
/// 16 KiB for the fc layers, which maps every row to the same L1 set and
/// degenerates to uncovered DRAM latency per 128-byte sliver (measured
/// ~54 vs ~90+ GFLOP/s on 32×4096×4096).
///
/// Bit-identity with the standard nest: per output element the standard
/// nest computes `((α·t₀ ⊕β) + α·t₁) + α·t₂ …` where `t_p` is the
/// microkernel tile of `KC` block `p` (in order) and `⊕β` is the
/// first-pass blend of [`write_tile_blend`]. The accumulator here is
/// seeded `α·t₀ + β·C` with the same expression shape and then adds
/// `α·t_p` in the same `pc` order, so every element sees the identical
/// float operation sequence — only *where* the intermediate lives (stack
/// tile vs C row) changes; the panel/staging reorganization interleaves
/// *which tile* runs when, never the per-element chain order.
#[allow(clippy::too_many_arguments)]
fn skinny_accumulate(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    mc0: usize,
    j0: usize,
    nc0: usize,
    alpha: f32,
    a: Operand,
    b: Operand,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    ap: &mut [f32],
    bp: &mut [f32],
) {
    debug_assert!(mc0 <= SKINNY_M && mc0 > 0);
    let row_tiles = mc0.div_ceil(MR);

    // Pack every KC block of op(A)'s row stripe once. Block `pc` lands at
    // offset `row_tiles·MR·pc` — the sum of all earlier blocks' `kcb`
    // extents is exactly `pc`.
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        pack_a(
            ta,
            a,
            m,
            k,
            i0,
            mc0,
            pc,
            kcb,
            &mut ap[row_tiles * MR * pc..][..row_tiles * MR * kcb],
        );
        pc += kcb;
    }

    // One panel's worth of persistent accumulator tiles, indexed
    // `[t·row_tiles + it]`; `pc == 0` seeds every entry, so dirty reuse
    // across panels is safe. At most 128 KiB of stack.
    let mut acc = [[[0.0f32; NR]; MR]; (SKINNY_NC / NR) * (SKINNY_M / MR)];

    let mut jp = 0;
    while jp < nc0 {
        let pw = SKINNY_NC.min(nc0 - jp);
        let tiles = pw.div_ceil(NR);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            let stride = kcb * NR + STRIP_SKEW;
            // Stage this KC block's panel of B into skewed strips first
            // (row-major streaming reads; see the doc comment above). A
            // transposed or lowered B has no rows in memory to stream and
            // is packed strip by strip.
            if let (Transpose::No, Operand::Stored(b)) = (tb, b) {
                stage_b_rows(b, n, pc, kcb, j0 + jp, pw, stride, bp);
            } else {
                for t in 0..tiles {
                    let jc = j0 + jp + t * NR;
                    let jn = NR.min(j0 + nc0 - jc);
                    pack_b(
                        tb,
                        b,
                        k,
                        n,
                        pc,
                        kcb,
                        jc,
                        jn,
                        &mut bp[t * stride..][..kcb * NR],
                    );
                }
            }
            for t in 0..tiles {
                let strip = &bp[t * stride..][..kcb * NR];
                let jc = j0 + jp + t * NR;
                let jn = NR.min(j0 + nc0 - jc);
                for it in 0..row_tiles {
                    let at = &mut acc[t * row_tiles + it];
                    let apanel = &ap[row_tiles * MR * pc + it * kcb * MR..][..kcb * MR];
                    // Fused kernel: seeds α·t₀ everywhere at pc == 0
                    // (padding rows/cols included — they are never
                    // written back), adds α·t_p after.
                    simd::microkernel_acc(apanel, strip, alpha, at, pc == 0);
                    if pc == 0 && beta != 0.0 {
                        // Blend β·C into the valid corner with the
                        // `write_tile_blend` expression shape; β = 0
                        // never reads C.
                        let mr = MR.min(mc0 - it * MR);
                        for (r, atr) in at.iter_mut().enumerate().take(mr) {
                            let crow = &c[(it * MR + r) * ldc + (jc - j0)..][..jn];
                            for (av, cv) in atr.iter_mut().zip(crow.iter()) {
                                *av += beta * cv;
                            }
                        }
                    }
                }
            }
            pc += kcb;
        }
        // Single store pass over the panel's valid corners.
        for t in 0..tiles {
            let jc = j0 + jp + t * NR;
            let jn = NR.min(j0 + nc0 - jc);
            for it in 0..row_tiles {
                let at = &acc[t * row_tiles + it];
                let mr = MR.min(mc0 - it * MR);
                for (r, atr) in at.iter().enumerate().take(mr) {
                    let crow = &mut c[(it * MR + r) * ldc + (jc - j0)..][..jn];
                    crow.copy_from_slice(&atr[..jn]);
                }
            }
        }
        jp += pw;
    }
}

/// Stages `B[pc..pc+kcb, jc0..jc0+pw]` (no-transpose, row-major) into
/// `pw.div_ceil(NR)` microkernel strips of layout `[p][j]` at `stride`
/// floats apart in `bp`, zero-padding a short final tile. Reads walk B
/// one contiguous `pw`-float row sliver at a time — the whole point of
/// the skinny nest's staging (see [`skinny_accumulate`]) — and the
/// skewed `stride` keeps the per-row scatter writes out of a single L1
/// set.
#[allow(clippy::too_many_arguments)]
fn stage_b_rows(
    b: &[f32],
    n: usize,
    pc: usize,
    kcb: usize,
    jc0: usize,
    pw: usize,
    stride: usize,
    bp: &mut [f32],
) {
    let full = pw / NR;
    let tail = pw - full * NR;
    for p in 0..kcb {
        let src = &b[(pc + p) * n + jc0..][..pw];
        for (t, chunk) in src.chunks_exact(NR).enumerate() {
            // Fixed-size copy: two zmm (four ymm) moves, no memcpy call.
            // `chunks_exact(NR)` guarantees the chunk is exactly NR long,
            // so `first_chunk` never returns None.
            if let Some(chunk) = chunk.first_chunk::<NR>() {
                let dst = &mut bp[t * stride + p * NR..][..NR];
                dst.copy_from_slice(chunk);
            }
        }
        if tail != 0 {
            let dst = &mut bp[full * stride + p * NR..][..NR];
            dst[..tail].copy_from_slice(&src[full * NR..]);
            dst[tail..].iter_mut().for_each(|v| *v = 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Fork-join over output bands.
// ---------------------------------------------------------------------------

/// The blocked kernel over the whole `m×n` output: forked over the
/// calling thread's budget when [`par::fork_threads`] says the flop count
/// pays for it, otherwise the serial nest. `k ≥ 1`, `α ≠ 0`.
#[allow(clippy::too_many_arguments)]
fn blocked_dispatch(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: Operand,
    b: Operand,
    beta: f32,
    c: &mut [f32],
) {
    let threads = par::fork_threads(gemm_flops(m, n, k));
    if threads > 1 {
        fork_join_bands(threads, ta, tb, m, n, k, alpha, a, b, beta, c);
    } else {
        blocked_accumulate(ta, tb, m, n, k, 0, m, 0, n, alpha, a, b, beta, c, n);
    }
}

thread_local! {
    /// The calling thread's staging buffer for column bands
    /// ([`gemm_fork_join`]); grows monotonically like
    /// [`PACK_SCRATCH`].
    static COL_STAGE: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The fork-join tier with an explicit thread count instead of
/// [`par::fork_threads`] — the bit-identity tests and the kernels
/// harness force a split through this entry point whatever the gate and
/// the host say (the `par_*_bands` idiom).
///
/// Cuts the output into `threads` tile-aligned bands along its larger
/// dimension and runs the blocked nest on each, one scoped thread per
/// band ([`par::fan_out`]), all borrowing the caller's `a` and `b`.
///
/// A row band is a contiguous run of C and is computed in place. A
/// column band is not (its rows interleave with its siblings'), so it is
/// computed in its own `m×band` window of the caller's staging buffer —
/// seeded from C when `β ≠ 0`, never read when `β = 0` — and the caller
/// copies the windows back after the join.
///
/// Each band runs the real `β` through the first `KC` pass and
/// accumulates later passes in the same `pc` order as [`gemm_serial`],
/// and every output element belongs to exactly one band, so the result
/// is bit-identical to the serial kernel — and hence across runs and
/// thread counts (the Sync-EASGD determinism property extends down
/// through the compute kernel).
///
/// # Panics
/// Panics if `threads == 0` or any buffer is smaller than its dimensions
/// imply.
#[allow(clippy::too_many_arguments)]
pub fn gemm_fork_join(
    threads: usize,
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert!(threads > 0, "a fork-join needs at least one thread");
    let (a, b) = (Operand::Stored(a), Operand::Stored(b));
    check_dims(ta, tb, m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    if k == 0 || alpha == 0.0 {
        apply_beta(c, beta);
        return;
    }
    fork_join_bands(threads, ta, tb, m, n, k, alpha, a, b, beta, c);
}

/// [`gemm_fork_join`]'s band split over checked operands: `c` is exactly
/// `m·n` floats, `k ≥ 1`, `α ≠ 0`.
#[allow(clippy::too_many_arguments)]
fn fork_join_bands(
    threads: usize,
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: Operand,
    b: Operand,
    beta: f32,
    c: &mut [f32],
) {
    if m >= n {
        let band = m.div_ceil(threads).next_multiple_of(MR);
        par::fan_out(c.chunks_mut(band * n).enumerate(), |(i, rows)| {
            let mc0 = rows.len() / n;
            blocked_accumulate(
                ta,
                tb,
                m,
                n,
                k,
                i * band,
                mc0,
                0,
                n,
                alpha,
                a,
                b,
                beta,
                rows,
                n,
            );
        });
        return;
    }
    let band = n.div_ceil(threads).next_multiple_of(NR);
    COL_STAGE.with(|cell| {
        let stage = &mut *cell.borrow_mut();
        if stage.len() < m * n {
            stage.resize(m * n, 0.0);
        }
        // Band `j` covers columns `j·band..`; its window sits at offset
        // `m·j·band` with row stride equal to its own width.
        let seed: &[f32] = c;
        par::fan_out(
            stage[..m * n].chunks_mut(m * band).enumerate(),
            |(j, window)| {
                let (j0, nc0) = (j * band, window.len() / m);
                if beta != 0.0 {
                    for (r, row) in window.chunks_mut(nc0).enumerate() {
                        row.copy_from_slice(&seed[r * n + j0..][..nc0]);
                    }
                }
                blocked_accumulate(
                    ta, tb, m, n, k, 0, m, j0, nc0, alpha, a, b, beta, window, nc0,
                );
            },
        );
        for (j, window) in stage[..m * n].chunks(m * band).enumerate() {
            let (j0, nc0) = (j * band, window.len() / m);
            for (r, row) in window.chunks(nc0).enumerate() {
                c[r * n + j0..][..nc0].copy_from_slice(row);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Retained naive baseline (the seed kernel) for in-repo A/B measurement.
// ---------------------------------------------------------------------------

/// The seed's row kernel — axpy/dot loops streaming strided operands
/// straight from memory — over rows `i0..` of the product, as many as
/// `c` holds. A lowered operand is written out into this thread's pack
/// buffer first: the direct loop only runs products smaller than the
/// buffer.
#[allow(clippy::too_many_arguments)]
fn naive_rows(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: Operand,
    b: Operand,
    i0: usize,
    c: &mut [f32],
) {
    let mut rows = |a: &[f32], b: &[f32]| {
        for (i, c_row) in c.chunks_mut(n).enumerate() {
            naive_row(ta, tb, m, n, k, alpha, a, b, i0 + i, c_row);
        }
    };
    match (a, b) {
        (Operand::Stored(a), Operand::Stored(b)) => rows(a, b),
        _ => PACK_SCRATCH.with(|cell| {
            let (ap, bp) = &mut cell.borrow_mut().0;
            rows(a.stored(ap), b.stored(bp));
        }),
    }
}

#[allow(clippy::too_many_arguments)]
fn naive_row(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    i: usize,
    c_row: &mut [f32],
) {
    match (ta, tb) {
        (Transpose::No, Transpose::No) => {
            // C[i,:] += α Σ_l A[i,l]·B[l,:]  (axpy over contiguous B rows)
            for l in 0..k {
                let ail = alpha * a[i * k + l];
                if ail != 0.0 {
                    let b_row = &b[l * n..l * n + n];
                    for (cj, bj) in c_row.iter_mut().zip(b_row) {
                        *cj += ail * bj;
                    }
                }
            }
        }
        (Transpose::No, Transpose::Yes) => {
            // C[i,j] += α·dot(A.row(i), B.row(j)); B stored n×k.
            let a_row = &a[i * k..i * k + k];
            for (j, cj) in c_row.iter_mut().enumerate() {
                let b_row = &b[j * k..j * k + k];
                *cj += alpha * crate::ops::dot(a_row, b_row);
            }
        }
        (Transpose::Yes, Transpose::No) => {
            // A stored k×m: C[i,j] += α Σ_l A[l,i]·B[l,j].
            for l in 0..k {
                let ali = alpha * a[l * m + i];
                if ali != 0.0 {
                    let b_row = &b[l * n..l * n + n];
                    for (cj, bj) in c_row.iter_mut().zip(b_row) {
                        *cj += ali * bj;
                    }
                }
            }
        }
        (Transpose::Yes, Transpose::Yes) => {
            // Rare; A stored k×m, B stored n×k.
            for (j, cj) in c_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[l * m + i] * b[j * k + l];
                }
                *cj += alpha * acc;
            }
        }
    }
}

/// The seed GEMM — the naive row kernel run serially — kept as the
/// reference the tests compare the blocked kernels against.
///
/// # Panics
/// Panics if any buffer is smaller than its dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    let (a, b) = (Operand::Stored(a), Operand::Stored(b));
    check_dims(ta, tb, m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    apply_beta(c, beta);
    if k == 0 || alpha == 0.0 {
        return;
    }
    naive_rows(ta, tb, m, n, k, alpha, a, b, 0, c);
}

/// Convenience: `C = A·B` with fresh output.
pub fn matmul(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0; m * n];
    gemm(
        Transpose::No,
        Transpose::No,
        m,
        n,
        k,
        1.0,
        a,
        b,
        0.0,
        &mut c,
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: naive triple loop with explicit indexing.
    fn naive(
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let get_a = |i: usize, l: usize| match ta {
            Transpose::No => a[i * k + l],
            Transpose::Yes => a[l * m + i],
        };
        let get_b = |l: usize, j: usize| match tb {
            Transpose::No => b[l * n + j],
            Transpose::Yes => b[j * k + l],
        };
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += get_a(i, l) * get_b(l, j);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut r = crate::rng::Rng::new(seed);
        (0..n).map(|_| r.uniform_in(-1.0, 1.0)).collect()
    }

    fn assert_all_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < tol * (1.0 + y.abs()),
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn small_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let c = matmul(2, 2, 2, &[1., 2., 3., 4.], &[5., 6., 7., 8.]);
        assert_eq!(c, vec![19., 22., 43., 50.]);
    }

    #[test]
    fn all_transpose_variants_match_naive() {
        let (m, n, k) = (7, 9, 11);
        for (ta, a_len) in [(Transpose::No, m * k), (Transpose::Yes, k * m)] {
            for (tb, b_len) in [(Transpose::No, k * n), (Transpose::Yes, n * k)] {
                let a = rand_vec(a_len, 1);
                let b = rand_vec(b_len, 2);
                let mut c = vec![0.0; m * n];
                gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                assert_all_close(&c, &naive(ta, tb, m, n, k, &a, &b), 1e-4);
            }
        }
    }

    #[test]
    fn blocked_serial_matches_naive_across_tile_boundaries() {
        // Sizes straddling MR/NR (8), MC (64) and KC (256) edges.
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR, NR, 3),
            (MR + 1, NR - 1, KC + 3),
            (MC - 1, NR + 1, 5),
            (MC + 7, 2 * NR + 3, KC),
            (3, 130, KC + 1),
            (130, 3, 70),
            (65, 65, 65),
        ] {
            for (ta, a_len) in [(Transpose::No, m * k), (Transpose::Yes, k * m)] {
                for (tb, b_len) in [(Transpose::No, k * n), (Transpose::Yes, n * k)] {
                    let a = rand_vec(a_len, m as u64);
                    let b = rand_vec(b_len, n as u64 + 100);
                    let mut c = vec![0.0; m * n];
                    gemm_serial(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                    let r = naive(ta, tb, m, n, k, &a, &b);
                    assert_all_close(&c, &r, 1e-3);
                }
            }
        }
    }

    #[test]
    fn naive_baselines_match_reference() {
        let (m, n, k) = (65, 67, 33);
        let a = rand_vec(m * k, 21);
        let b = rand_vec(k * n, 22);
        let r = naive(Transpose::No, Transpose::No, m, n, k, &a, &b);
        let mut c1 = vec![0.0; m * n];
        gemm_naive(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c1,
        );
        assert_all_close(&c1, &r, 1e-3);
    }

    #[test]
    fn alpha_beta_blend() {
        let a = rand_vec(4 * 3, 3);
        let b = rand_vec(3 * 5, 4);
        let c0 = rand_vec(4 * 5, 5);
        let mut c = c0.clone();
        gemm(
            Transpose::No,
            Transpose::No,
            4,
            5,
            3,
            2.0,
            &a,
            &b,
            0.5,
            &mut c,
        );
        let p = naive(Transpose::No, Transpose::No, 4, 5, 3, &a, &b);
        for i in 0..c.len() {
            assert!((c[i] - (2.0 * p[i] + 0.5 * c0[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn alpha_beta_blend_on_blocked_path() {
        // Large enough to take the blocked path; β blends the old C in.
        let (m, n, k) = (70, 71, 72);
        let a = rand_vec(m * k, 31);
        let b = rand_vec(k * n, 32);
        let c0 = rand_vec(m * n, 33);
        let mut c = c0.clone();
        gemm_serial(
            Transpose::No,
            Transpose::Yes,
            m,
            n,
            k,
            -1.5,
            &a,
            &b,
            0.25,
            &mut c,
        );
        let p = naive(Transpose::No, Transpose::Yes, m, n, k, &a, &b);
        for i in 0..c.len() {
            let want = -1.5 * p[i] + 0.25 * c0[i];
            assert!(
                (c[i] - want).abs() < 1e-3 * (1.0 + want.abs()),
                "{i}: {} vs {want}",
                c[i]
            );
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn simd_microkernel_is_bit_identical_to_scalar_fallback() {
        // The whole blocked kernel (both nests, all packing paths) must
        // produce the same bits whether the explicit-SIMD tier or the
        // scalar fallback does the flops — the contract that makes the
        // scalar-build CI leg meaningful and tier choice unobservable.
        for &(m, n, k) in &[
            (70, 90, KC + 37),     // standard nest, ragged tiles
            (32, 300, 2 * KC + 9), // skinny nest, k spanning 3 KC blocks
            (257, 65, 300),        // multi-MC rows
        ] {
            for (ta, a_len) in [(Transpose::No, m * k), (Transpose::Yes, k * m)] {
                for (tb, b_len) in [(Transpose::No, k * n), (Transpose::Yes, n * k)] {
                    for beta in [0.0f32, 0.5, 1.0] {
                        let a = rand_vec(a_len, 7 * m as u64 + 1);
                        let b = rand_vec(b_len, 13 * n as u64 + 2);
                        let c0 = rand_vec(m * n, 17 * k as u64 + 3);
                        let mut c_fast = c0.clone();
                        gemm_serial(ta, tb, m, n, k, 1.25, &a, &b, beta, &mut c_fast);
                        let mut c_scalar = c0.clone();
                        crate::simd::with_scalar_kernels(|| {
                            gemm_serial(ta, tb, m, n, k, 1.25, &a, &b, beta, &mut c_scalar);
                        });
                        assert_eq!(
                            bits(&c_fast),
                            bits(&c_scalar),
                            "tier mismatch: m={m} n={n} k={k} ta={ta:?} tb={tb:?} beta={beta}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn skinny_nest_is_bit_identical_to_standard_nest() {
        // The vgg_fc6-cliff nest must be a pure reassociation-free
        // reordering: same bits as the standard nest (itself pinned to
        // the scalar fallback by the test above), for every transpose
        // combination and β path, including a shape crossing NC.
        for &(m, n, k) in &[
            (32, 300, 2 * KC + 5),
            (SKINNY_M, 97, KC + 1),
            (MR, 2 * NC + 33, KC + 300),
        ] {
            for (ta, a_len) in [(Transpose::No, m * k), (Transpose::Yes, k * m)] {
                for (tb, b_len) in [(Transpose::No, k * n), (Transpose::Yes, n * k)] {
                    for beta in [0.0f32, 0.5, 1.0] {
                        let a = rand_vec(a_len, 3 * m as u64 + 11);
                        let b = rand_vec(b_len, 5 * n as u64 + 12);
                        let c0 = rand_vec(m * n, 7 * k as u64 + 13);
                        let mut c_skinny = c0.clone();
                        gemm_serial(ta, tb, m, n, k, -0.75, &a, &b, beta, &mut c_skinny);
                        let mut c_std = c0.clone();
                        with_standard_nest(|| {
                            gemm_serial(ta, tb, m, n, k, -0.75, &a, &b, beta, &mut c_std);
                        });
                        assert_eq!(
                            bits(&c_skinny),
                            bits(&c_std),
                            "nest mismatch: m={m} n={n} k={k} ta={ta:?} tb={tb:?} beta={beta}"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn gemm_is_tier_and_nest_invariant_at_band_boundaries(
            mi in 0usize..3, ni in 0usize..3, ki in 0usize..2,
            dm in 0usize..3, dn in 0usize..3, dk in 0usize..3,
            bi in 0usize..3,
        ) {
            // Shapes perturbed ±1 around tile/block boundaries — the
            // off-by-one regime where packing pads and ragged corners
            // diverge first if any tier or nest mishandles them.
            let m = [MR, SKINNY_M, MC][mi] + dm - 1;
            let n = [NR, 4 * NR, NC][ni] + dn - 1;
            let k = [KC, 2 * KC][ki] + dk - 1;
            proptest::prop_assume!(m > 0 && n > 0 && k > 0);
            let beta = [0.0f32, 0.5, 1.0][bi];
            let a = rand_vec(m * k, (m * n) as u64);
            let b = rand_vec(k * n, (n + k) as u64);
            let c0 = rand_vec(m * n, (m + k) as u64);
            let mut c_fast = c0.clone();
            gemm_serial(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, beta, &mut c_fast);
            let mut c_ref = c0.clone();
            crate::simd::with_scalar_kernels(|| with_standard_nest(|| {
                gemm_serial(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, beta, &mut c_ref);
            }));
            proptest::prop_assert_eq!(bits(&c_fast), bits(&c_ref));
        }
    }

    #[test]
    fn parallel_path_is_bit_identical_to_serial() {
        // Forced thread counts, regardless of host core count. Shapes
        // cross the KC boundary (k > 256) with β ≠ 0 — the case where a
        // pre-scale-then-add scheme would associate the β·C term
        // differently from the serial kernel — in both split directions
        // (m ≥ n: in-place row bands; m < n: staged column bands), with
        // more threads than tiles, and a k = 0 degenerate. β = 0 runs
        // over a poisoned C: a column band must not read what it stores.
        for &(m, n, k) in &[
            (96, 96, 33),
            (257, 19, 130),
            (19, 257, 130),
            (257, 257, 257),
            (70, 300, KC + 9),
            (32, 600, 300), // skinny nest inside column bands
            (9, 5, 40),     // fewer tiles than threads, rows
            (5, 17, 40),    // fewer tiles than threads, columns
            (40, 40, 0),
        ] {
            for (ta, a_len) in [(Transpose::No, m * k), (Transpose::Yes, k * m)] {
                for (tb, b_len) in [(Transpose::No, k * n), (Transpose::Yes, n * k)] {
                    for (threads, beta) in [(2, 0.5f32), (3, 0.0), (5, 1.0)] {
                        let a = rand_vec(a_len, 6);
                        let b = rand_vec(b_len, 7);
                        let mut c_par = rand_vec(m * n, 8);
                        if beta == 0.0 {
                            c_par.fill(f32::NAN);
                        }
                        let mut c_ser = c_par.clone();
                        gemm_fork_join(threads, ta, tb, m, n, k, 2.0, &a, &b, beta, &mut c_par);
                        gemm_serial(ta, tb, m, n, k, 2.0, &a, &b, beta, &mut c_ser);
                        assert_eq!(
                            bits(&c_par),
                            bits(&c_ser),
                            "m={m} n={n} k={k} ta={ta:?} tb={tb:?} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_band_holds_the_bits_of_the_unsplit_product() {
        // One shape per tier: under SMALL_FLOPS (direct row loop — a band
        // keyed on its own flops would pick it for the second shape too)
        // and over it (packed kernel), bands not aligned to MR.
        for &(m, n, k) in &[(27, 8, 64), (27, 40, 300)] {
            let a = rand_vec(m * k, 11);
            let b = rand_vec(n * k, 12);
            let c0 = rand_vec(m * n, 13);
            let mut whole = c0.clone();
            gemm(
                Transpose::No,
                Transpose::Yes,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                1.0,
                &mut whole,
            );
            let mut banded = c0.clone();
            for (i, band) in banded.chunks_mut(10 * n).enumerate() {
                gemm_row_band(
                    Transpose::No,
                    Transpose::Yes,
                    m,
                    n,
                    k,
                    i * 10,
                    1.0,
                    Operand::Stored(&a),
                    &b,
                    1.0,
                    band,
                );
            }
            assert_eq!(bits(&banded), bits(&whole), "m={m} n={n} k={k}");
        }
    }

    /// `(forward, gradW)` of one conv sample computed the stored way —
    /// `im2col`, then [`gemm`] on the matrix — and through [`Lowered`]
    /// operands, the weight gradient in two row bands: the view changes
    /// where a pack reads, never a float chain.
    fn conv_products(g: &crate::Conv2dGeometry, oc: usize, forced_threads: usize) {
        use crate::im2col::{im2col, pad_image};
        let (rows, cols) = (g.col_rows(), g.col_cols());
        let image = rand_vec(g.input_len(), (rows * cols) as u64);
        let w = rand_vec(oc * rows, rows as u64);
        let gy = rand_vec(oc * cols, cols as u64);
        let gw0 = rand_vec(rows * oc, oc as u64);
        let mut col = vec![0.0; rows * cols];
        im2col(g, &image, &mut col);
        let mut padded = vec![0.0; g.padded_len()];
        pad_image(g, &image, &mut padded);
        let lowered = Operand::Lowered(Lowered::new(g, &padded));
        let (no, yes) = (Transpose::No, Transpose::Yes);
        let at = format!("{g:?} oc={oc}");

        let mut want_y = vec![f32::NAN; oc * cols];
        gemm(no, no, oc, cols, rows, 1.0, &w, &col, 0.0, &mut want_y);
        let mut y = vec![f32::NAN; oc * cols];
        gemm_view(
            no,
            no,
            oc,
            cols,
            rows,
            1.0,
            Operand::Stored(&w),
            lowered,
            0.0,
            &mut y,
        );
        assert_eq!(bits(&y), bits(&want_y), "forward, {at}");
        if gemm_flops(oc, cols, rows) >= SMALL_FLOPS {
            // What `gemm_view` forks into above the gate: column bands
            // when `oc < cols`, row bands otherwise.
            y.fill(f32::NAN);
            fork_join_bands(
                forced_threads,
                no,
                no,
                oc,
                cols,
                rows,
                1.0,
                Operand::Stored(&w),
                lowered,
                0.0,
                &mut y,
            );
            assert_eq!(bits(&y), bits(&want_y), "forked forward, {at}");
        }

        let mut want_gw = gw0.clone();
        gemm(no, yes, rows, oc, cols, 1.0, &col, &gy, 1.0, &mut want_gw);
        let mut gw = gw0.clone();
        let split = rows.div_ceil(forced_threads);
        for (i, band) in gw.chunks_mut(split * oc).enumerate() {
            gemm_row_band(
                no,
                yes,
                rows,
                oc,
                cols,
                i * split,
                1.0,
                lowered,
                &gy,
                1.0,
                band,
            );
        }
        assert_eq!(bits(&gw), bits(&want_gw), "gradW, {at}");
    }

    #[test]
    fn lowered_operands_hold_the_bits_of_the_im2col_matrix_in_every_tier() {
        // (in_channels, h, w, k_h, k_w, stride, pad, oc)
        for &(c, h, w, k_h, k_w, stride, pad, oc) in &[
            (3, 32, 32, 3, 3, 1, 1, 32), // VGG conv1: k = 27, gradW skinny (27 rows, k = 1024)
            (32, 16, 16, 3, 3, 1, 1, 64), // VGG conv3: forward skinny (64 rows, k = 288)
            (64, 8, 8, 3, 3, 1, 1, 72),  // standard nest both ways, k = 576 in three blocks
            (1, 28, 28, 5, 5, 1, 0, 20), // LeNet conv1: 24-wide output rows, pad 0
            (20, 12, 12, 5, 5, 1, 0, 50), // LeNet conv2: k = 500, 8-wide rows, 64-column last tile
            (2, 9, 8, 3, 2, 2, 1, 40),   // stride 2: the strided gather
            (1, 6, 6, 3, 3, 1, 0, 4),    // under SMALL_FLOPS: the direct row loop
        ] {
            let g = crate::Conv2dGeometry {
                in_channels: c,
                in_h: h,
                in_w: w,
                k_h,
                k_w,
                stride,
                pad,
            };
            conv_products(&g, oc, 2);
            crate::simd::with_scalar_kernels(|| conv_products(&g, oc, 3));
        }
    }

    proptest::proptest! {
        #[test]
        fn lowered_operands_hold_the_bits_of_the_im2col_matrix(
            dims in (1usize..6, 1usize..6, 1usize..4, 0usize..3),
            extent in (1usize..9, 0usize..20, 0usize..20),
            oc in 1usize..40,
            threads in 1usize..4,
        ) {
            conv_products(&crate::Conv2dGeometry::sampled(dims, extent), oc, threads);
        }
    }

    #[test]
    #[should_panic(expected = "lowered A is 9x4 as stored")]
    fn a_lowered_operand_cannot_be_transposed() {
        let g = crate::Conv2dGeometry {
            in_channels: 1,
            in_h: 4,
            in_w: 4,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 0,
        };
        let padded = vec![0.0; g.padded_len()];
        let a = Operand::Lowered(Lowered::new(&g, &padded));
        let mut c = vec![0.0; 4 * 2];
        gemm_view(
            Transpose::Yes,
            Transpose::No,
            4,
            2,
            9,
            1.0,
            a,
            Operand::Stored(&[0.0; 18]),
            0.0,
            &mut c,
        );
    }

    #[test]
    fn rowstable_rows_are_invariant_to_row_count() {
        // Shapes on both sides of the per-row SMALL_FLOPS threshold, with
        // batch sizes that make `gemm`'s *total*-flops dispatch straddle
        // the naive/blocked split (the bug this entry exists to fix: the
        // lenet fc layers served at ragged batch sizes).
        for &(n, k) in &[(32, 288), (64, 700), (500, 800)] {
            let b = rand_vec(k * n, 21);
            let a_full = rand_vec(8 * k, 22);
            let mut c_full = vec![0.0; 8 * n];
            gemm_rowstable(
                Transpose::No,
                Transpose::Yes,
                8,
                n,
                k,
                1.0,
                &a_full,
                &b,
                0.0,
                &mut c_full,
            );
            for (start, rows) in [(0usize, 1usize), (3, 2), (7, 1), (2, 5)] {
                let mut c_sub = vec![0.0; rows * n];
                gemm_rowstable(
                    Transpose::No,
                    Transpose::Yes,
                    rows,
                    n,
                    k,
                    1.0,
                    &a_full[start * k..(start + rows) * k],
                    &b,
                    0.0,
                    &mut c_sub,
                );
                assert_eq!(
                    bits(&c_sub),
                    bits(&c_full[start * n..(start + rows) * n]),
                    "n={n} k={k} rows {start}..{}",
                    start + rows
                );
            }
        }
    }

    #[test]
    fn rowstable_matches_reference_product() {
        let (m, n, k) = (5, 40, 60);
        let a = rand_vec(m * k, 31);
        let b = rand_vec(k * n, 32);
        let mut c = vec![0.0; m * n];
        gemm_rowstable(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
        );
        let want = matmul(m, n, k, &a, &b);
        for (got, want) in c.iter().zip(&want) {
            assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));
        }
    }

    #[test]
    fn parallel_path_is_bit_deterministic() {
        // Two forked runs must agree bit-for-bit: every output element
        // is computed by exactly one band in a fixed loop order, so
        // scheduling cannot perturb float summation order.
        let (m, n, k) = (203, 111, 97);
        let a = rand_vec(m * k, 40);
        let b = rand_vec(k * n, 41);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        for c in [&mut c1, &mut c2] {
            gemm_fork_join(
                5,
                Transpose::Yes,
                Transpose::No,
                m,
                n,
                k,
                1.0,
                &a[..k * m],
                &b,
                0.0,
                c,
            );
        }
        let bits1: Vec<u32> = c1.iter().map(|v| v.to_bits()).collect();
        let bits2: Vec<u32> = c2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits1, bits2);
    }

    #[test]
    fn flops_threshold_covers_degenerate_shapes() {
        // Tall-skinny m×1 (weight gradients) and wide 1×n — the shapes
        // the old m·n element threshold misjudged — stay correct through
        // whatever path the flop count picks.
        for &(m, n, k) in &[(4096, 1, 300), (1, 4096, 300)] {
            let a = rand_vec(m * k, 60);
            let b = rand_vec(k * n, 61);
            let mut c = vec![0.0; m * n];
            gemm(
                Transpose::No,
                Transpose::No,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
            );
            assert_all_close(
                &c,
                &naive(Transpose::No, Transpose::No, m, n, k, &a, &b),
                1e-3,
            );
        }
    }

    #[test]
    fn budgeted_dispatch_is_bit_identical_to_serial() {
        // A partition-group GEMM (dispatch under `par::with_budget`) must
        // produce exactly the serial result: with a multi-thread budget
        // via the banded fork-join, and with a single-thread group via
        // serial fall-through, which must not spawn at all — a partition
        // never borrows threads it does not own. Shape chosen above
        // FORK_JOIN_FLOPS so dispatch actually consults the budget.
        let (m, n, k) = (336, 336, 336);
        assert!(gemm_flops(m, n, k) >= par::FORK_JOIN_FLOPS);
        let a = rand_vec(m * k, 70);
        let b = rand_vec(k * n, 71);
        let mut reference = vec![0.25; m * n];
        gemm_serial(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.5,
            &mut reference,
        );
        for threads in [1usize, 4] {
            let mut c = vec![0.25; m * n];
            let before = par::threads_spawned();
            par::with_budget(threads, || {
                gemm(
                    Transpose::No,
                    Transpose::No,
                    m,
                    n,
                    k,
                    1.0,
                    &a,
                    &b,
                    0.5,
                    &mut c,
                );
            });
            assert_eq!(bits(&reference), bits(&c), "threads={threads}");
            assert_eq!(
                par::threads_spawned() - before,
                threads as u64 - 1,
                "one band per budgeted thread, the caller running the first"
            );
        }
    }

    #[test]
    fn zero_k_scales_c_only() {
        let mut c = vec![2.0; 4];
        gemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            0,
            1.0,
            &[],
            &[],
            0.5,
            &mut c,
        );
        assert_eq!(c, vec![1.0; 4]);
    }

    #[test]
    fn zero_m_or_n_is_noop() {
        let mut c: Vec<f32> = vec![];
        gemm(
            Transpose::No,
            Transpose::No,
            0,
            5,
            3,
            1.0,
            &[],
            &[0.0; 15],
            0.0,
            &mut c,
        );
        gemm(
            Transpose::No,
            Transpose::No,
            5,
            0,
            3,
            1.0,
            &[0.0; 15],
            &[],
            0.0,
            &mut c,
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_short_buffers() {
        let mut c = vec![0.0; 4];
        gemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            &[0.0; 3],
            &[0.0; 4],
            0.0,
            &mut c,
        );
    }
}
