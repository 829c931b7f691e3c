//! Single-precision general matrix multiply.
//!
//! `gemm` computes `C ← α·op(A)·op(B) + β·C` for row-major matrices, with
//! optional transposition of either operand — the workhorse behind every
//! worker's forward/backward pass (dense layers and im2col convolution),
//! so its efficiency decides whether the repo's benchmark ratios measure
//! the paper's *communication* co-design or mere kernel waste.
//!
//! Every product with `k ≥ 1` and `α ≠ 0` runs one of two tiers (see
//! DESIGN.md §8), picked by [`par::fork_threads`]' two-sided rule —
//! flops, or the floats the product streams — and both give each output
//! element **one float chain**: `α·t₀ + β·C`, then `+ α·t_p` for every
//! later `KC` block `p` in order, where `t_p` is a `mul_add` chain over
//! that block seeded at +0.0. The chain depends on `k` and `KC` alone, so
//! row `r`'s bits never depend on `m`, on the other rows of the product,
//! on how the output is cut into bands, on the thread budget, or on
//! whether an operand is stored, lowered or packed: a band of a product
//! is a product of a band.
//!
//! * **blocked serial** — one of four loop nests over an output window,
//!   every one of them giving each element that chain:
//!   - *standard* — the cache-blocked packed kernel: A- and B-panels are
//!     packed once per `MC×KC` / `KC×NC` block into contiguous,
//!     microkernel-ordered buffers, and the explicit `MR×NR`
//!     broadcast-FMA register tile in [`crate::simd`] (hand-tiled
//!     AVX-512 / AVX2 intrinsics behind a bit-identical scalar fallback
//!     — see DESIGN.md §15) does the flops. Inside a block the tiles go
//!     row strip by row strip when the packed B block fits L1
//!     (`kcb·ncb ≤ ROW_ORDER_B_FLOATS`: a small-batch `Dense` weight
//!     gradient, `k = 2`, writes C in `MR` contiguous rows rather than
//!     down an `n`-float stride), column tile by column tile otherwise.
//!     All four [`Transpose`] combinations are normalized away by the
//!     packing step, so the microkernel sees one layout: an operand
//!     whose tile lanes are contiguous in memory is copied in vector
//!     slivers, and one whose `k` runs are contiguous — `B` stored
//!     transposed (every `Dense` forward's weights, conv `gradW`'s `gy`)
//!     and `A` as stored — is transposed in 8×8 register blocks by
//!     `simd::pack_transposed`. The packs are also the only readers of
//!     an operand, so it need not be in memory: through [`Operand`]
//!     they gather a convolution's im2col matrix tile by tile from the
//!     padded image ([`Lowered`]), or borrow the tiles of a weight packed
//!     once ([`Panels`]), and nothing upstream of them changes — same
//!     blocks, same nests, same float chains.
//!   - *skinny* — outputs of `m ≤ 64` rows with `k > KC` (the
//!     fully-connected layers of a small-batch step) keep the register
//!     tiles live across every `KC` block in a column-major nest,
//!     touching C once instead of `k/KC` times (the `vgg_fc6` cliff fix,
//!     DESIGN.md §15). A short row block runs the fused microkernel at
//!     its live rows only (`simd::microkernel_acc`'s `R`): the `m = 2`
//!     of a small-batch step computes 2 rows, not 8.
//!   - *stream* — at most `MR` rows against a B stored row-major and
//!     untransposed (the `Dense` input gradient `gy·W`) packs nothing:
//!     B's rows stream through once, in memory order, into per-`KC`-block
//!     partial rows (`simd::fma_rows`), which land in C as the skinny
//!     nest's tiles do.
//!   - *transposed stream* — at most `MR` rows of a stored A against a
//!     stored B read transposed (every training `Dense` forward, `x·Wᵀ`)
//!     packs nothing either: B's rows stream in once, `simd::TW` at a
//!     time and each in memory order, and `simd::dot_tile` transposes
//!     16×16 (AVX-512) or 8×8 (AVX2) blocks in registers straight into
//!     the live accumulator rows, which land in C the same way.
//!
//!   Each call is counted once, on the calling thread, by the nest the
//!   serial run takes ([`counts`]): calls, flops, floats packed, forks.
//! * **blocked fork-join** — at or above [`par::FORK_JOIN_FLOPS`] flops
//!   or [`par::PAR_ELEMS`] streamed floats (`max(m·k, k·n, m·n)`: the
//!   weight of a small-batch `Dense` layer is one DRAM-bound pass), when
//!   the calling thread's budget allows more than one thread, the output
//!   is cut into one band per thread along its *larger* dimension and
//!   each band runs the serial loop nest on a scoped thread
//!   ([`par::fan_out`]) against the caller's own operands. Row bands are
//!   contiguous in C and are written in place; column bands (skinny-M
//!   layers) interleave in C's rows, so each computes into its `m×band`
//!   window of a reused staging buffer that the caller copies back.
//!   Either way every element runs the serial nest's chain — the result
//!   is bit-identical at any thread count.
//!
//! The seed's naive kernel is retained as [`gemm_naive`], the reference
//! the tests compare against: it rounds `mul` and `add` separately, so it
//! agrees with the tiers to a tolerance, not to the bit.

use crate::im2col::Lowered;
use crate::par;
use crate::simd::{self, MR, NR, TW};

/// Whether an operand is used as stored or transposed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// Use the matrix as stored.
    No,
    /// Use the transpose of the stored matrix.
    Yes,
}

/// A GEMM operand as the packs read it: a matrix in memory, one that
/// exists only as the tiles the packs gather from a padded image, or one
/// packed once into the panels the packs would cut from it.
#[derive(Copy, Clone, Debug)]
pub enum Operand<'a> {
    /// A dense row-major matrix.
    Stored(&'a [f32]),
    /// The im2col matrix of a padded image ([`Lowered`]); it has no
    /// stored transpose, so it is only valid under [`Transpose::No`].
    Lowered(Lowered<'a>),
    /// A matrix already in microkernel panels ([`Panels::pack`]): its
    /// packs are borrows. Valid only as the side and under the
    /// transpose it was packed for.
    Packed(Panels, &'a [f32]),
}

/// Which operand of `C = op(A)·op(B)` a matrix is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Side {
    A,
    B,
}

impl Operand<'_> {
    /// Panics unless the operand can serve as a `rows×cols` `op(X)`.
    fn check(&self, side: Side, t: Transpose, rows: usize, cols: usize) {
        match self {
            Self::Stored(x) => assert!(
                x.len() >= rows * cols,
                "{side:?} buffer too small: {} < {}",
                x.len(),
                rows * cols
            ),
            Self::Lowered(v) => assert!(
                t == Transpose::No && v.rows() >= rows && v.cols() == cols,
                "lowered {side:?} is {}x{} as stored, not a {rows}x{cols} operand under {t:?}",
                v.rows(),
                v.cols()
            ),
            Self::Packed(p, x) => assert!(
                p.side == side && p.t == t && p.dims() == (rows, cols) && x.len() == p.floats(),
                "{p:?} in {} floats is not a {rows}x{cols} {side:?} under {t:?}",
                x.len()
            ),
        }
    }
}

/// The microkernel-panel layout of a matrix packed once, for a weight
/// that many products read unchanged (a serving replica's): `KC` blocks
/// back to back, and in block `pc` every `MR`-row tile of `op(A)` — or
/// `NR`-column tile of `op(B)` — exactly as `pack_a` (`pack_b`)
/// writes it. A pack of any window that starts on a tile is then a
/// borrow, and the microkernel reads the floats a call would have packed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Panels {
    side: Side,
    /// The transpose the stored matrix is read under.
    t: Transpose,
    /// `op(X)`'s extent along the tiles: `m` for A, `n` for B.
    lanes: usize,
    k: usize,
}

impl Panels {
    /// The panels of `A` where `op(A)` is `m×k` under `t`.
    pub fn a(t: Transpose, m: usize, k: usize) -> Self {
        let (side, lanes) = (Side::A, m);
        Self { side, t, lanes, k }
    }

    /// The panels of `B` where `op(B)` is `k×n` under `t`.
    pub fn b(t: Transpose, k: usize, n: usize) -> Self {
        let (side, lanes) = (Side::B, n);
        Self { side, t, lanes, k }
    }

    fn width(&self) -> usize {
        match self.side {
            Side::A => MR,
            Side::B => NR,
        }
    }

    /// `op(X)`'s `(rows, cols)`.
    fn dims(&self) -> (usize, usize) {
        match self.side {
            Side::A => (self.lanes, self.k),
            Side::B => (self.k, self.lanes),
        }
    }

    /// Floats the panels take: `op(X)` with its tiles padded to full width.
    pub fn floats(&self) -> usize {
        self.lanes.next_multiple_of(self.width()) * self.k
    }

    /// Packs the stored matrix `x` into `dst`, [`floats`](Self::floats)
    /// long, through the packs a call runs on it.
    ///
    /// # Panics
    /// Panics unless `x` is exactly the matrix and `dst` that long.
    pub fn pack(&self, x: &[f32], dst: &mut [f32]) {
        let sizes = (x.len(), dst.len());
        assert_eq!(sizes, (self.lanes * self.k, self.floats()), "{self:?}");
        let x = Operand::Stored(x);
        let stripe = self.lanes.next_multiple_of(self.width());
        let (t, lanes, k) = (self.t, self.lanes, self.k);
        for pc in (0..k).step_by(KC) {
            let kcb = KC.min(k - pc);
            let block = &mut dst[stripe * pc..][..stripe * kcb];
            match self.side {
                Side::A => pack_a(t, x, lanes, k, 0, lanes, pc, kcb, block),
                Side::B => pack_b(t, x, k, lanes, pc, kcb, 0, lanes, block),
            };
        }
    }

    /// The tiles of `KC` block `pc` covering `first..first + extent` along
    /// the tile axis.
    fn block<'a>(&self, x: &'a [f32], pc: usize, first: usize, extent: usize) -> &'a [f32] {
        let (w, kcb) = (self.width(), KC.min(self.k - pc));
        assert!(
            first.is_multiple_of(w),
            "{self:?} cut at {first}, inside a {w}-wide tile"
        );
        let stripe = self.lanes.next_multiple_of(w);
        &x[stripe * pc + first * kcb..][..extent.next_multiple_of(w) * kcb]
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

/// Floats of packed B (`kcb·ncb`) up to which the standard nest walks a
/// block's tiles row strip by row strip: the B block then stays in L1
/// across a strip, and C is written in `MR` contiguous rows instead of
/// one `NR`-wide column tile at a time down an `n`-float row stride (the
/// `k = 2` weight gradient of a small-batch `Dense` layer, DESIGN.md
/// §8.1). A larger block runs column tiles outer, so one B strip stays
/// in L1 across the rows that reuse it.
const ROW_ORDER_B_FLOATS: usize = 8192;

/// Floats of partial rows the stream nest keeps L1-resident while B's
/// rows pass: a window wider than `STREAM_PART_FLOATS / mc0` columns is
/// streamed one column block at a time.
const STREAM_PART_FLOATS: usize = 4096;

/// Which loop nest computes a window of the product.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Nest {
    /// [`blocked_accumulate_with`]'s packed `jc → pc → ic` nest.
    Standard,
    /// [`skinny_accumulate`]: register tiles live across every `KC` block.
    Skinny,
    /// [`stream_accumulate`]: no packs; B's rows stream into partial rows.
    Stream,
    /// [`transposed_stream_accumulate`]: no packs; a transposed B's rows
    /// stream through register transposes into the accumulator rows.
    TransposedStream,
}

/// The nest a `mc0`-row output window with inner dimension `k` runs.
///
/// * **stream** — at most one register tile of rows (`mc0 ≤ MR`, the
///   `m = 2` or `8` of a small-batch step) against a B stored row-major
///   and untransposed (the `Dense` input gradient `gy·W`): each row of B
///   is read once, contiguously, and packing it would cost more than
///   the flops it feeds.
/// * **transposed stream** — the same short window of a stored,
///   untransposed A against a stored B read transposed (every training
///   `Dense` forward, `x·Wᵀ`): B's rows are read once, contiguously, and
///   transposed in registers instead of through a pack.
/// * **skinny** — `mc0 ≤ SKINNY_M` otherwise, with `k > KC`: skinny
///   outputs lose most of their time in the standard nest re-reading and
///   re-writing C once per `KC` block (`k/KC` sweeps of a tile that
///   never leaves a handful of registers in the skinny nest); at
///   `k ≤ KC` there is only one pass, so the nests are identical work.
/// * **standard** — everything else.
fn nest_for(mc0: usize, k: usize, ta: Transpose, tb: Transpose, a: Operand, b: Operand) -> Nest {
    let force = overrides();
    let stored = matches!((a, b), (Operand::Stored(_), Operand::Stored(_)));
    let short = mc0 <= MR && stored && !force.staged;
    if force.standard_nest {
        Nest::Standard
    } else if short && tb == Transpose::No {
        Nest::Stream
    } else if short && ta == Transpose::No {
        Nest::TransposedStream
    } else if mc0 <= SKINNY_M && k > KC {
        Nest::Skinny
    } else {
        Nest::Standard
    }
}

/// Test-only routing overrides, so that every nest and visiting order
/// can be compared bit for bit against the others on one shape. Outside
/// tests they are all off.
#[derive(Copy, Clone, Debug, Default)]
struct Overrides {
    /// Every window runs the standard nest.
    standard_nest: bool,
    /// Both stream nests are skipped: a short window runs the nest it
    /// would without them (skinny past `KC`, standard otherwise).
    staged: bool,
    /// The standard nest visits column tiles outer whatever the B block.
    column_order: bool,
}

/// This thread's [`Overrides`]: all off outside tests.
fn overrides() -> Overrides {
    #[cfg(test)]
    return OVERRIDES.with(std::cell::Cell::get);
    #[cfg(not(test))]
    Overrides::default()
}

#[cfg(test)]
thread_local! {
    /// This thread's [`Overrides`]; set only through [`with_overrides`].
    static OVERRIDES: std::cell::Cell<Overrides> = std::cell::Cell::new(Overrides::default());
}

/// Runs `f` with `force` routing this thread's products (test-only).
/// Restores the previous state on unwind.
#[cfg(test)]
fn with_overrides<R>(force: Overrides, f: impl FnOnce() -> R) -> R {
    struct Reset(Overrides);
    impl Drop for Reset {
        fn drop(&mut self) {
            OVERRIDES.with(|o| o.set(self.0));
        }
    }
    let _guard = Reset(OVERRIDES.with(|o| o.replace(force)));
    f()
}

/// Runs `f` with every window on the standard nest (test-only).
#[cfg(test)]
fn with_standard_nest<R>(f: impl FnOnce() -> R) -> R {
    let force = Overrides {
        standard_nest: true,
        ..Overrides::default()
    };
    with_overrides(force, f)
}

/// Flop count of one GEMM call (each output element takes `k` fused
/// multiply-adds = `2k` flops).
fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// Floats one GEMM call streams, as the fork gate counts them: its
/// largest operand, `max(m·k, k·n, m·n)` — the weight of a small-batch
/// `Dense` layer, the output of its `gradW`.
fn gemm_floats(m: usize, n: usize, k: usize) -> usize {
    (m * k).max(k * n).max(m * n)
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
    a.check(Side::A, ta, m, k);
    b.check(Side::B, tb, k, n);
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
/// [`Lowered`] or packed operand holds the bits [`gemm`] gives over the
/// stored matrix it stands for.
///
/// # Panics
/// Panics if an operand or `c` is smaller than its dimensions imply, a
/// lowered operand is asked for transposed, or a packed one other than
/// as packed.
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
    blocked_dispatch(ta, tb, m, n, k, alpha, a, b, beta, c);
}

/// [`gemm`] under a budget of one thread: the serial nest, for
/// single-threaded measurement against the forked tier.
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
    par::with_budget(1, || gemm(ta, tb, m, n, k, alpha, a, b, beta, c));
}

// ---------------------------------------------------------------------------
// Packing: normalize any (Transpose, layout) into the microkernel order.
// ---------------------------------------------------------------------------

/// Packs `op(A)[ic..ic+mcb, pc..pc+kcb]` into `ap` as row-tiles of `MR`:
/// layout `[tile][p][r]`, short tiles zero-padded so the microkernel
/// always runs full-width. Returns the packed tiles: their place in `ap`,
/// or in a packed operand's own panels.
#[allow(clippy::too_many_arguments)]
fn pack_a<'p>(
    ta: Transpose,
    a: Operand<'p>,
    m: usize,
    k: usize,
    ic: usize,
    mcb: usize,
    pc: usize,
    kcb: usize,
    ap: &'p mut [f32],
) -> &'p [f32] {
    let a = match a {
        Operand::Stored(a) => a,
        Operand::Lowered(v) => {
            pack_a_lowered(v, ic, mcb, pc, kcb, ap);
            return &ap[..mcb.next_multiple_of(MR) * kcb];
        }
        Operand::Packed(p, x) => return p.block(x, pc, ic, mcb),
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
    &ap[..mcb.next_multiple_of(MR) * kcb]
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
/// `NR`: layout `[tile][p][j]`, zero-padded like [`pack_a`], and returns
/// the tiles like it.
#[allow(clippy::too_many_arguments)]
fn pack_b<'p>(
    tb: Transpose,
    b: Operand<'p>,
    k: usize,
    n: usize,
    pc: usize,
    kcb: usize,
    jc: usize,
    ncb: usize,
    bp: &'p mut [f32],
) -> &'p [f32] {
    let tiles = ncb.div_ceil(NR);
    let b = match b {
        Operand::Stored(b) => b,
        Operand::Lowered(v) => {
            for (jt, dst) in bp.chunks_mut(kcb * NR).take(tiles).enumerate() {
                let cols = NR.min(ncb - jt * NR);
                if cols < NR {
                    dst.fill(0.0);
                }
                v.gather(pc, kcb, jc + jt * NR, cols, dst, NR);
            }
            return &bp[..tiles * kcb * NR];
        }
        Operand::Packed(p, x) => return p.block(x, pc, jc, ncb),
    };
    for jt in 0..tiles {
        let dst = &mut bp[jt * kcb * NR..(jt + 1) * kcb * NR];
        let cols = NR.min(ncb - jt * NR);
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
    &bp[..tiles * kcb * NR]
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
    let nest = nest_for(mc0, k, ta, tb, a, b);
    PACK_SCRATCH.with(|cell| {
        let (ap, bp) = &mut cell.borrow_mut().0;
        // The skinny nest packs *all* of op(A)'s K extent up front (the
        // whole row block is at most SKINNY_M·k floats — e.g. 512 KiB for
        // the 32×4096×4096 fc layer); the standard nest packs one MC×KC
        // block at a time; the stream nests pack nothing. A packed
        // operand packs nothing either.
        let ap_len = match (nest, a) {
            (Nest::Stream | Nest::TransposedStream, _) | (_, Operand::Packed(..)) => 0,
            (Nest::Skinny, _) => mc0.div_ceil(MR) * MR * k,
            (Nest::Standard, _) => MC * KC,
        };
        if ap.len() < ap_len {
            ap.resize(ap_len, 0.0);
        }
        let bp_cols = NC.min(nc0.next_multiple_of(NR));
        // The skinny nest's staged strips carry a `STRIP_SKEW` pad each,
        // so its panel needs slightly more than `KC·panel_cols` floats;
        // the stream nest's partial rows take one column block, and the
        // transposed stream nest's accumulators live in registers.
        let skinny_tiles = nc0.div_ceil(NR).min(SKINNY_NC / NR);
        let bp_len = match (nest, b) {
            (Nest::Stream, _) => STREAM_PART_FLOATS,
            (Nest::TransposedStream, _) | (_, Operand::Packed(..)) => 0,
            _ => (KC * bp_cols).max(skinny_tiles * (KC * NR + STRIP_SKEW)),
        };
        if bp.len() < bp_len {
            bp.resize(bp_len, 0.0);
        }
        let (ap, bp) = (&mut ap[..], &mut bp[..]);
        match (nest, a, b) {
            (Nest::Stream, Operand::Stored(a), Operand::Stored(b)) => {
                stream_accumulate(ta, m, n, k, i0, mc0, j0, nc0, alpha, a, b, beta, c, ldc, bp)
            }
            (Nest::TransposedStream, Operand::Stored(a), Operand::Stored(b)) => {
                let a = &a[i0 * k..];
                transposed_stream_accumulate(k, mc0, j0, nc0, alpha, a, b, beta, c, ldc)
            }
            (Nest::Skinny, ..) => skinny_accumulate(
                ta, tb, m, n, k, i0, mc0, j0, nc0, alpha, a, b, beta, c, ldc, ap, bp,
            ),
            _ => blocked_accumulate_with(
                ta, tb, m, n, k, i0, mc0, j0, nc0, alpha, a, b, beta, c, ldc, ap, bp,
            ),
        }
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

/// The standard nest of [`blocked_accumulate`], against its packing
/// buffers: `jc → pc → ic` blocks, and inside a block the `MR×NR` tiles
/// row strip by row strip when the packed B block fits L1
/// ([`ROW_ORDER_B_FLOATS`]), column tile by column tile otherwise. The
/// order only decides when a tile runs: each tile is one microkernel
/// call per `KC` block and the same blend, in `pc` order, so both
/// orders give every element the same operation sequence.
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
    let column_order = overrides().column_order;
    let mut jc = j0;
    while jc < j0 + nc0 {
        let ncb = NC.min(j0 + nc0 - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            let bpanels = pack_b(tb, b, k, n, pc, kcb, jc, ncb, bp);
            let rows_outer = kcb * ncb <= ROW_ORDER_B_FLOATS && !column_order;
            let mut ic = i0;
            while ic < i0 + mc0 {
                let mcb = MC.min(i0 + mc0 - ic);
                let apanels = pack_a(ta, a, m, k, ic, mcb, pc, kcb, ap);
                let row_tiles = mcb.div_ceil(MR);
                let col_tiles = ncb.div_ceil(NR);
                let mut tile = |it: usize, jt: usize| {
                    let bpanel = &bpanels[jt * kcb * NR..(jt + 1) * kcb * NR];
                    let apanel = &apanels[it * kcb * MR..(it + 1) * kcb * MR];
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
                };
                if rows_outer {
                    (0..row_tiles).for_each(|it| (0..col_tiles).for_each(|jt| tile(it, jt)));
                } else {
                    (0..col_tiles).for_each(|jt| (0..row_tiles).for_each(|it| tile(it, jt)));
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

    // Pack every KC block of op(A)'s row stripe once (a packed A already
    // is). Block `pc` lands at offset `row_tiles·MR·pc` — the sum of all
    // earlier blocks' `kcb` extents is exactly `pc`.
    if !matches!(a, Operand::Packed(..)) {
        for pc in (0..k).step_by(KC) {
            let kcb = KC.min(k - pc);
            let block = &mut ap[row_tiles * MR * pc..][..row_tiles * MR * kcb];
            pack_a(ta, a, m, k, i0, mc0, pc, kcb, block);
        }
    }
    let ap = &*ap;

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
            let skewed = kcb * NR + STRIP_SKEW;
            // Stage this KC block's panel of B into skewed strips first
            // (row-major streaming reads; see the doc comment above). A
            // transposed or lowered B has no rows in memory to stream and
            // is packed strip by strip; a packed B's strips are in place.
            let (strips, stride) = match (tb, b) {
                (_, Operand::Packed(p, x)) => (p.block(x, pc, j0 + jp, pw), kcb * NR),
                (Transpose::No, Operand::Stored(b)) => {
                    stage_b_rows(b, n, pc, kcb, j0 + jp, pw, skewed, bp);
                    (&*bp, skewed)
                }
                _ => {
                    for t in 0..tiles {
                        let jc = j0 + jp + t * NR;
                        let jn = NR.min(j0 + nc0 - jc);
                        let strip = &mut bp[t * skewed..][..kcb * NR];
                        pack_b(tb, b, k, n, pc, kcb, jc, jn, strip);
                    }
                    (&*bp, skewed)
                }
            };
            let apanels = match a {
                Operand::Packed(p, x) => p.block(x, pc, i0, mc0),
                _ => &ap[row_tiles * MR * pc..][..row_tiles * MR * kcb],
            };
            for t in 0..tiles {
                let strip = &strips[t * stride..][..kcb * NR];
                let jc = j0 + jp + t * NR;
                let jn = NR.min(j0 + nc0 - jc);
                for it in 0..row_tiles {
                    let at = &mut acc[t * row_tiles + it];
                    let apanel = &apanels[it * kcb * MR..][..kcb * MR];
                    let mr = MR.min(mc0 - it * MR);
                    // Fused kernel over the tile's live rows: seeds α·t₀
                    // at pc == 0 (padding cols included — they are never
                    // written back), adds α·t_p after.
                    tile_acc(mr, apanel, strip, alpha, at, pc == 0);
                    if pc == 0 && beta != 0.0 {
                        // Blend β·C into the valid corner with the
                        // `write_tile_blend` expression shape; β = 0
                        // never reads C.
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

/// [`simd::microkernel_acc`] over the first `mr` rows of a tile, rounded
/// up to the kernel's row counts: a short row block (`m = 2`, the batch
/// of a small-batch `Dense` layer) computes 2 rows, not 8. Rows past
/// `mr` are padding whose accumulators are never written back.
fn tile_acc(
    mr: usize,
    apanel: &[f32],
    bpanel: &[f32],
    alpha: f32,
    acc: &mut [[f32; NR]; MR],
    seed: bool,
) {
    match mr {
        1 => simd::microkernel_acc::<1>(apanel, bpanel, alpha, acc, seed),
        2 => simd::microkernel_acc::<2>(apanel, bpanel, alpha, acc, seed),
        3 | 4 => simd::microkernel_acc::<4>(apanel, bpanel, alpha, acc, seed),
        _ => simd::microkernel_acc::<MR>(apanel, bpanel, alpha, acc, seed),
    }
}

/// The stream nest: `C[i0.., j0..] ← α·op(A)·B + β·C` for a window of at
/// most `MR` rows against a B stored row-major and untransposed, with
/// neither operand packed, and `part` at least [`STREAM_PART_FLOATS`]
/// long for its partial rows.
///
/// Per `KC` block `pc`, the block's rows of B stream through once, in
/// memory order, and each is folded into every partial row:
/// `t_i ← t_i + a[i][l]·B[l][·]` ([`simd::fma_rows`]), chains seeded at
/// +0.0 and run in ascending `l` — the chain the microkernel runs for
/// tile `t_p`. The block then lands in C exactly as the skinny nest's
/// tiles do: `α·t₀ + β·C` (`α·t₀` at `β = 0`, C unread) on the first
/// block, `+ α·t_p` after — so every element gets the standard nest's
/// operation sequence, bit for bit.
#[allow(clippy::too_many_arguments)]
fn stream_accumulate(
    ta: Transpose,
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    mc0: usize,
    j0: usize,
    nc0: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    part: &mut [f32],
) {
    /// Rows of B folded per pass over a partial row.
    const LANES: usize = 4;
    debug_assert!((1..=MR).contains(&mc0));
    let a_at = |i: usize, l: usize| match ta {
        Transpose::No => a[(i0 + i) * k + l],
        Transpose::Yes => a[l * m + i0 + i],
    };
    // Column blocks of the window whose partial rows fit L1 together.
    let width = (STREAM_PART_FLOATS / mc0).min(nc0);
    for jb in (0..nc0).step_by(width) {
        let w = width.min(nc0 - jb);
        let part = &mut part[..mc0 * w];
        let b_row = |l: usize| &b[l * n + j0 + jb..][..w];
        for pc in (0..k).step_by(KC) {
            let end = pc + KC.min(k - pc);
            part.fill(0.0);
            let mut l = pc;
            while l < end {
                if end - l >= LANES {
                    fold_rows::<LANES>(part, w, l, &a_at, &b_row);
                    l += LANES;
                } else {
                    fold_rows::<1>(part, w, l, &a_at, &b_row);
                    l += 1;
                }
            }
            for (i, t) in part.chunks_exact(w).enumerate() {
                land(&mut c[i * ldc + jb..][..w], t, alpha, beta, pc == 0);
            }
        }
    }
}

/// Lands `KC` block partials `t` in a run of C the way every nest lands
/// its tiles: `α·t₀ + β·C` on the first block (`α·t₀` at `β = 0`, C
/// unread), `+ α·t_p` after.
fn land(crow: &mut [f32], t: &[f32], alpha: f32, beta: f32, first: bool) {
    let pairs = crow.iter_mut().zip(t);
    if !first {
        pairs.for_each(|(cv, tv)| *cv += alpha * tv);
    } else if beta == 0.0 {
        pairs.for_each(|(cv, tv)| *cv = alpha * tv);
    } else {
        pairs.for_each(|(cv, tv)| *cv = alpha * tv + beta * *cv);
    }
}

/// The transposed stream nest: `C[.., j0..] ← α·A·Bᵀ + β·C` for a
/// window of `mc0 ≤ MR` rows of a stored, untransposed A (`a` starts at
/// the window's first row) against a B stored `n×k` and read
/// transposed, with neither operand packed — every training `Dense`
/// forward, `x·Wᵀ`.
///
/// B's rows stream in `TW` at a time, each once and in memory order
/// through every `KC` block: per block, [`simd::dot_tile`] transposes
/// them in registers and folds them into the live accumulator rows,
/// chains seeded at +0.0 and run in ascending `p` — the microkernel's
/// chain for tile `t_p`. The block then lands in C as the other nests'
/// tiles do ([`land`]), so every element gets the standard nest's
/// operation sequence, bit for bit.
#[allow(clippy::too_many_arguments)]
fn transposed_stream_accumulate(
    k: usize,
    mc0: usize,
    j0: usize,
    nc0: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    let w = (k, j0, nc0, alpha, a, b, beta);
    match mc0 {
        1 => transposed_stream::<1>(w, c, ldc),
        2 => transposed_stream::<2>(w, c, ldc),
        3 => transposed_stream::<3>(w, c, ldc),
        4 => transposed_stream::<4>(w, c, ldc),
        5 => transposed_stream::<5>(w, c, ldc),
        6 => transposed_stream::<6>(w, c, ldc),
        7 => transposed_stream::<7>(w, c, ldc),
        _ => transposed_stream::<MR>(w, c, ldc),
    }
}

/// [`transposed_stream_accumulate`] at `R` rows.
fn transposed_stream<const R: usize>(
    (k, j0, nc0, alpha, a, b, beta): (usize, usize, usize, f32, &[f32], &[f32], f32),
    c: &mut [f32],
    ldc: usize,
) {
    for jt in (0..nc0).step_by(TW) {
        let cols = TW.min(nc0 - jt);
        let b = &b[(j0 + jt) * k..];
        for pc in (0..k).step_by(KC) {
            let kcb = KC.min(k - pc);
            let rows = std::array::from_fn(|i| &a[i * k + pc..][..kcb]);
            let t = simd::dot_tile::<R>(rows, &b[pc..], k, cols, kcb);
            for (i, t) in t.iter().enumerate() {
                land(
                    &mut c[i * ldc + jt..][..cols],
                    &t[..cols],
                    alpha,
                    beta,
                    pc == 0,
                );
            }
        }
    }
}

/// Folds rows `l..l + N` of B into every partial row of `part` (rows of
/// width `w`), four, two, then one partial row at a time: the stream
/// nest's step ([`simd::fma_rows`]).
fn fold_rows<'b, const N: usize>(
    part: &mut [f32],
    w: usize,
    l: usize,
    a_at: &impl Fn(usize, usize) -> f32,
    b_row: &impl Fn(usize) -> &'b [f32],
) {
    let b = std::array::from_fn(|q| b_row(l + q));
    let coef = |i: usize| std::array::from_fn(|q| a_at(i, l + q));
    let mut i = 0;
    for t in part.chunks_mut(4 * w) {
        match t.len() / w {
            4 => simd::fma_rows::<N, 4>(t, w, std::array::from_fn(|r| coef(i + r)), b),
            3 => {
                let (t2, t1) = t.split_at_mut(2 * w);
                simd::fma_rows::<N, 2>(t2, w, [coef(i), coef(i + 1)], b);
                simd::fma_rows::<N, 1>(t1, w, [coef(i + 2)], b);
            }
            2 => simd::fma_rows::<N, 2>(t, w, [coef(i), coef(i + 1)], b),
            _ => simd::fma_rows::<N, 1>(t, w, [coef(i)], b),
        }
        i += 4;
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
/// calling thread's budget when [`par::fork_threads`] says the product's
/// flops or the floats it streams pay for it, otherwise the serial nest.
/// `k ≥ 1`, `α ≠ 0`.
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
    let threads = par::fork_threads(gemm_flops(m, n, k), gemm_floats(m, n, k));
    count(ta, tb, m, n, k, a, b, threads);
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
    count(ta, tb, m, n, k, a, b, threads);
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
// Counted work.
// ---------------------------------------------------------------------------

/// Calls one nest ran and the flops they did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NestCounts {
    /// Products routed to the nest.
    pub calls: u64,
    /// Their flops, `2·m·n·k` each.
    pub flops: u64,
}

/// The work this thread's GEMM calls did: counted once per call, from
/// the call's shape, operands and nest — never per element — so the
/// counts repeat exactly from run to run. A call counts as the serial
/// nest over its whole output would run it, whatever its bands do, so
/// the same calls count the same at every thread budget but for
/// `forks`; and [`par::fan_out`] hands its jobs' counts back to the
/// caller, so work done on spawned threads is not lost (a caller that
/// cuts its own work by the budget, as the conv's `gradW` bands do,
/// makes other calls, with the same flops).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// The standard nest.
    pub standard: NestCounts,
    /// The skinny nest.
    pub skinny: NestCounts,
    /// The stream nest (`gy·W`).
    pub stream: NestCounts,
    /// The transposed stream nest (`x·Wᵀ`).
    pub transposed_stream: NestCounts,
    /// Floats of `op(A)` the nests write into pack buffers, padding
    /// included (a packed or streamed A writes none).
    pub a_packed: u64,
    /// Floats of `op(B)` likewise.
    pub b_packed: u64,
    /// Calls that forked over more than one thread.
    pub forks: u64,
}

impl Counts {
    /// `f` over every pair of fields.
    fn zip(self, o: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let nest = |x: NestCounts, y: NestCounts| NestCounts {
            calls: f(x.calls, y.calls),
            flops: f(x.flops, y.flops),
        };
        Self {
            standard: nest(self.standard, o.standard),
            skinny: nest(self.skinny, o.skinny),
            stream: nest(self.stream, o.stream),
            transposed_stream: nest(self.transposed_stream, o.transposed_stream),
            a_packed: f(self.a_packed, o.a_packed),
            b_packed: f(self.b_packed, o.b_packed),
            forks: f(self.forks, o.forks),
        }
    }

    /// The work done between `earlier` (a [`counts`] reading) and `self`.
    pub fn since(&self, earlier: &Self) -> Self {
        self.zip(*earlier, u64::wrapping_sub)
    }
}

thread_local! {
    /// This thread's [`Counts`].
    static COUNTS: std::cell::Cell<Counts> = std::cell::Cell::new(Counts::default());
}

/// The work this thread's GEMM calls have done so far.
pub fn counts() -> Counts {
    COUNTS.with(std::cell::Cell::get)
}

/// Adds `more` to this thread's counts: a joined job's work
/// ([`par::fan_out`]).
pub(crate) fn absorb_counts(more: Counts) {
    COUNTS.with(|c| c.set(c.get().zip(more, u64::wrapping_add)));
}

/// Counts one call that forks over `threads` (1: serial).
#[allow(clippy::too_many_arguments)]
fn count(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    a: Operand,
    b: Operand,
    threads: usize,
) {
    let nest = nest_for(m, k, ta, tb, a, b);
    // Σ over `block`-long blocks of `len` of each block padded to `tile`.
    let padded = |len: usize, block: usize, tile: usize| {
        (len / block * block + (len % block).next_multiple_of(tile)) as u64
    };
    // Floats per `k` step the nest packs of each operand.
    let (a_lanes, b_lanes) = match nest {
        Nest::Stream | Nest::TransposedStream => (0, 0),
        Nest::Skinny => (m.next_multiple_of(MR) as u64, padded(n, SKINNY_NC, NR)),
        Nest::Standard => (
            (n.div_ceil(NC) as u64) * padded(m, MC, MR),
            padded(n, NC, NR),
        ),
    };
    let packs = |x: Operand, lanes: u64| match x {
        Operand::Packed(..) => 0,
        _ => lanes * k as u64,
    };
    let mut one = Counts {
        a_packed: packs(a, a_lanes),
        b_packed: packs(b, b_lanes),
        forks: u64::from(threads > 1),
        ..Counts::default()
    };
    *match nest {
        Nest::Standard => &mut one.standard,
        Nest::Skinny => &mut one.skinny,
        Nest::Stream => &mut one.stream,
        Nest::TransposedStream => &mut one.transposed_stream,
    } = NestCounts {
        calls: 1,
        flops: gemm_flops(m, n, k),
    };
    absorb_counts(one);
}

// ---------------------------------------------------------------------------
// Retained naive baseline (the seed kernel) for in-repo A/B measurement.
// ---------------------------------------------------------------------------

/// The seed GEMM — axpy/dot loops streaming strided operands straight
/// from memory, `mul` and `add` rounded separately — kept as the
/// reference the tests compare the blocked kernels against. Like them it
/// follows IEEE: a zero coefficient times a NaN or an infinity is NaN.
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
    check_dims(ta, tb, m, n, k, Operand::Stored(a), Operand::Stored(b), c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    apply_beta(c, beta);
    if k == 0 || alpha == 0.0 {
        return;
    }
    for (i, c_row) in c.chunks_mut(n).enumerate() {
        match (ta, tb) {
            (Transpose::No, Transpose::No) => {
                // C[i,:] += α Σ_l A[i,l]·B[l,:]  (axpy over contiguous B rows)
                for l in 0..k {
                    let ail = alpha * a[i * k + l];
                    for (cj, bj) in c_row.iter_mut().zip(&b[l * n..][..n]) {
                        *cj += ail * bj;
                    }
                }
            }
            (Transpose::No, Transpose::Yes) => {
                // C[i,j] += α·dot(A.row(i), B.row(j)); B stored n×k.
                let a_row = &a[i * k..][..k];
                for (j, cj) in c_row.iter_mut().enumerate() {
                    *cj += alpha * crate::ops::dot(a_row, &b[j * k..][..k]);
                }
            }
            (Transpose::Yes, Transpose::No) => {
                // A stored k×m: C[i,j] += α Σ_l A[l,i]·B[l,j].
                for l in 0..k {
                    let ali = alpha * a[l * m + i];
                    for (cj, bj) in c_row.iter_mut().zip(&b[l * n..][..n]) {
                        *cj += ali * bj;
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
            (MR - 3, 90, KC + 37), // stream nest under a row-major B
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
        // Every row count of a short block, 1..=MR, runs the fused
        // kernel at its live rows only.
        let short = (1..=MR).map(|m| (m, 2 * NR + 5, KC + 3));
        for (m, n, k) in [
            (32, 300, 2 * KC + 5),
            (SKINNY_M, 97, KC + 1),
            (MR, 2 * NC + 33, KC + 300),
        ]
        .into_iter()
        .chain(short)
        {
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

    #[test]
    fn row_strip_order_is_bit_identical_to_column_order() {
        // The standard nest's two visiting orders, one forced against the
        // other. n = 31 keeps a KC-deep B block under ROW_ORDER_B_FLOATS
        // (so k = 257 walks rows too); n = 101 and 1000 are ragged in NR,
        // and 1000 at k ≤ 8 is the weight-gradient regime.
        let order = |column_order| Overrides {
            standard_nest: true,
            column_order,
            ..Overrides::default()
        };
        for m in [1, 7, 8, 33, 1024] {
            for k in [1, 2, 8, 257] {
                for n in [31, 101, 1000] {
                    if n * k > 8 * 1000 && m > 33 {
                        continue; // column order either way; covered at small m
                    }
                    for (ta, tb) in [
                        (Transpose::No, Transpose::No),
                        (Transpose::Yes, Transpose::No),
                    ] {
                        let a = rand_vec(m * k, (m + k) as u64);
                        let b = rand_vec(k * n, (k * n) as u64);
                        let c0 = rand_vec(m * n, (m * n + 1) as u64);
                        for alpha in [1.0f32, 0.5] {
                            for beta in [0.0f32, 1.0, 0.25] {
                                let run = |column_order| {
                                    let mut c = c0.clone();
                                    with_overrides(order(column_order), || {
                                        gemm_serial(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c);
                                    });
                                    bits(&c)
                                };
                                assert_eq!(
                                    run(false),
                                    run(true),
                                    "m={m} n={n} k={k} ta={ta:?} α={alpha} β={beta}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stream_nest_is_bit_identical_to_the_staged_and_standard_nests() {
        // Every short row count against a row-major B, k on both sides of
        // one and four KC blocks: the stream nest against the nest the
        // window ran before it (skinny past KC, standard at or below),
        // against the standard nest, and split into column bands.
        let staged = Overrides {
            staged: true,
            ..Overrides::default()
        };
        for m in 1..=MR {
            for k in [KC - 1, KC, KC + 1, 4 * KC] {
                let n = 2 * NR + 5;
                for ta in [Transpose::No, Transpose::Yes] {
                    let a = rand_vec(m * k, (3 * m + k) as u64);
                    let b = rand_vec(k * n, (5 * k) as u64);
                    let c0 = rand_vec(m * n, (7 * m * k) as u64);
                    for beta in [0.0f32, 0.5, 1.0] {
                        let no = Transpose::No;
                        let run = |force: Overrides| {
                            let mut c = c0.clone();
                            with_overrides(force, || {
                                gemm_serial(ta, no, m, n, k, -0.75, &a, &b, beta, &mut c)
                            });
                            bits(&c)
                        };
                        let stream = run(Overrides::default());
                        let what = format!("m={m} k={k} ta={ta:?} beta={beta}");
                        assert_eq!(stream, run(staged), "stream vs staged: {what}");
                        let standard = Overrides {
                            standard_nest: true,
                            ..Overrides::default()
                        };
                        assert_eq!(stream, run(standard), "stream vs standard: {what}");
                        let mut banded = c0.clone();
                        gemm_fork_join(3, ta, no, m, n, k, -0.75, &a, &b, beta, &mut banded);
                        assert_eq!(stream, bits(&banded), "stream vs column bands: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_stream_nest_is_bit_identical_to_the_skinny_and_standard_nests() {
        // Every short row count against a stored-transposed B, with k and
        // n ragged around the 16-lane transpose, one KC block and a
        // Dense layer's widths: the transposed stream nest at budgets
        // 1–3 and forked into forced bands, against the nest the window
        // ran before it (skinny past KC, standard at or below) and
        // against the standard nest.
        let (no, yes) = (Transpose::No, Transpose::Yes);
        let force = |staged, standard_nest| Overrides {
            staged,
            standard_nest,
            ..Overrides::default()
        };
        for m in 1..=MR {
            for k in [1, 15, 16, 17, 255, 256, 257, 500, 784, 1024] {
                for n in [1, 10, 15, 16, 17, 31, 33, 1024] {
                    let a = rand_vec(m * k, (3 * m + k) as u64);
                    let b = rand_vec(n * k, (5 * k + n) as u64);
                    let c0 = rand_vec(m * n, (7 * m * n + k) as u64);
                    for (alpha, beta) in [1.0f32, -0.75]
                        .into_iter()
                        .flat_map(|alpha| [0.0f32, 0.5, 1.0].map(|beta| (alpha, beta)))
                    {
                        let what = format!("m={m} k={k} n={n} α={alpha} β={beta}");
                        let run = |f: &dyn Fn(&mut [f32])| {
                            let mut c = c0.clone();
                            f(&mut c);
                            bits(&c)
                        };
                        let nest = |o: Overrides| {
                            run(&|c| {
                                with_overrides(o, || {
                                    gemm_serial(no, yes, m, n, k, alpha, &a, &b, beta, c)
                                })
                            })
                        };
                        let want = nest(force(true, false));
                        assert_eq!(want, nest(force(false, true)), "staged vs standard: {what}");
                        assert_eq!(want, nest(Overrides::default()), "transposed: {what}");
                        for budget in 2..=3 {
                            let got = run(&|c| {
                                par::with_budget(budget, || {
                                    gemm(no, yes, m, n, k, alpha, &a, &b, beta, c)
                                })
                            });
                            assert_eq!(want, got, "budget {budget}: {what}");
                            let forked = run(&|c| {
                                gemm_fork_join(budget, no, yes, m, n, k, alpha, &a, &b, beta, c)
                            });
                            assert_eq!(want, forked, "{budget} forced bands: {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn counts_follow_the_nest_and_not_the_budget() {
        let (no, yes) = (Transpose::No, Transpose::Yes);
        // (ta, tb, m, n, k): a Dense forward, input gradient and weight
        // gradient at batch 2, a skinny product and a cube.
        let shapes = [
            (no, yes, 2, 1024, 1024),
            (no, no, 2, 1024, 1024),
            (yes, no, 1024, 784, 2),
            (no, no, 32, 300, 2 * KC + 5),
            (no, no, 300, 300, 300),
        ];
        let run = |budget: usize| {
            let before = counts();
            for (ta, tb, m, n, k) in shapes {
                let (a, b) = (rand_vec(m * k, 1), rand_vec(k * n, 2));
                let mut c = vec![0.0; m * n];
                par::with_budget(budget, || gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c));
            }
            counts().since(&before)
        };
        let serial = run(1);
        let flops = |m: usize, n: usize, k: usize| 2 * (m * n * k) as u64;
        let one = |m, n, k| NestCounts {
            calls: 1,
            flops: flops(m, n, k),
        };
        assert_eq!(serial.transposed_stream, one(2, 1024, 1024));
        assert_eq!(serial.stream, one(2, 1024, 1024));
        assert_eq!(serial.skinny, one(32, 300, 2 * KC + 5));
        let standard = flops(1024, 784, 2) + flops(300, 300, 300);
        assert_eq!(
            serial.standard,
            NestCounts {
                calls: 2,
                flops: standard
            }
        );
        // Standard: every jc block packs its A rows, B once; skinny packs
        // A once and B per panel — each padded to whole tiles.
        let a_packed = (1024 * 2 + 32 * (2 * KC + 5) + 304 * 300) as u64;
        let b_packed = (800 * 2 + (2 * KC + 5) * (224 + 96) + 300 * 320) as u64;
        assert_eq!(
            (serial.a_packed, serial.b_packed, serial.forks),
            (a_packed, b_packed, 0)
        );
        for budget in 2..=3 {
            let forked = run(budget);
            assert!(forked.forks > 0, "budget {budget} forked nothing");
            assert_eq!(Counts { forks: 0, ..forked }, serial, "budget {budget}");
        }
        // A packed B is read in place: nothing of it is packed.
        let (k, n) = (300, 40);
        let panels = Panels::b(no, k, n);
        let (a, b) = (rand_vec(64 * k, 3), rand_vec(k * n, 4));
        let mut packed = vec![0.0; panels.floats()];
        panels.pack(&b, &mut packed);
        let mut c = vec![0.0; 64 * n];
        let before = counts();
        let (a, b) = (Operand::Stored(&a), Operand::Packed(panels, &packed));
        gemm_view(no, no, 64, n, k, 1.0, a, b, 0.0, &mut c);
        let got = counts().since(&before);
        assert_eq!(
            (got.skinny.calls, got.a_packed, got.b_packed),
            (1, 64 * k as u64, 0)
        );
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
    fn forked_bands_borrow_packed_panels_and_keep_the_bits() {
        // Row bands (m ≥ n) start on A's tiles, column bands (m < n) on
        // B's; either way each band borrows its part of a packed operand.
        // The last shape is a served fc1 at a batch of 8.
        let (no, yes) = (Transpose::No, Transpose::Yes);
        for &(m, n, k) in &[(257, 40, 300), (19, 257, 130), (8, 500, 800)] {
            let (a, b) = (rand_vec(m * k, 1), rand_vec(n * k, 2));
            let (pa, pb) = (Panels::a(no, m, k), Panels::b(yes, k, n));
            let (mut a_panels, mut b_panels) = (vec![0.0; pa.floats()], vec![0.0; pb.floats()]);
            pa.pack(&a, &mut a_panels);
            pb.pack(&b, &mut b_panels);
            let mut want = vec![f32::NAN; m * n];
            gemm_serial(no, yes, m, n, k, 1.0, &a, &b, 0.0, &mut want);
            let (a_stored, b_stored) = (Operand::Stored(&a), Operand::Stored(&b));
            let (a_packed, b_packed) = (
                Operand::Packed(pa, &a_panels),
                Operand::Packed(pb, &b_panels),
            );
            for threads in [2, 3] {
                for (a, b) in [
                    (a_packed, b_stored),
                    (a_stored, b_packed),
                    (a_packed, b_packed),
                ] {
                    let mut c = vec![f32::NAN; m * n];
                    fork_join_bands(threads, no, yes, m, n, k, 1.0, a, b, 0.0, &mut c);
                    assert_eq!(bits(&c), bits(&want), "m={m} n={n} k={k} threads={threads}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inside a 8-wide tile")]
    fn a_packed_operand_cannot_be_cut_inside_a_tile() {
        let (no, yes, (m, n, k)) = (Transpose::No, Transpose::Yes, (16, 40, 300));
        let p = Panels::a(no, m, k);
        let mut panels = vec![0.0; p.floats()];
        p.pack(&rand_vec(m * k, 3), &mut panels);
        let (a, b) = (Operand::Packed(p, &panels), rand_vec(n * k, 4));
        let mut band = vec![0.0; 5 * n];
        let b = Operand::Stored(&b);
        blocked_accumulate(no, yes, m, n, k, 3, 5, 0, n, 1.0, a, b, 0.0, &mut band, n);
    }

    #[test]
    fn a_packed_b_is_read_without_a_pack_buffer() {
        // A served fc1 at a batch of 65 (the standard nest) as the first
        // GEMM of a new thread whose pack buffers are empty, as a thread
        // that finds no spare starts: a packed B is borrowed, never
        // written into them, so nothing sizes them for it.
        let (no, yes, (m, n, k)) = (Transpose::No, Transpose::Yes, (65, 500, 800));
        let (a, b) = (rand_vec(m * k, 5), rand_vec(n * k, 6));
        let p = Panels::b(yes, k, n);
        let mut panels = vec![0.0; p.floats()];
        p.pack(&b, &mut panels);
        let mut want = vec![0.0; m * n];
        gemm(no, yes, m, n, k, 1.0, &a, &b, 0.0, &mut want);
        let got = std::thread::spawn(move || {
            PACK_SCRATCH.with(|cell| cell.borrow_mut().0 = PackBuffers::default());
            let mut c = vec![f32::NAN; m * n];
            let (a, b) = (Operand::Stored(&a), Operand::Packed(p, &panels));
            par::with_budget(1, || gemm_view(no, yes, m, n, k, 1.0, a, b, 0.0, &mut c));
            c
        })
        .join()
        .unwrap();
        assert_eq!(bits(&got), bits(&want));
    }

    /// `(forward, gradW)` of one conv sample computed the stored way —
    /// `im2col`, then [`gemm`] on the matrix — and through [`Lowered`]
    /// operands, the weight gradient as one product per row window of the
    /// lowering: the view changes where a pack reads, never a float chain.
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
        // What `gemm_view` forks into above the gate: column bands when
        // `oc < cols`, row bands otherwise.
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

        let mut want_gw = gw0.clone();
        gemm(no, yes, rows, oc, cols, 1.0, &col, &gy, 1.0, &mut want_gw);
        let mut gw = gw0.clone();
        let split = rows.div_ceil(forced_threads);
        for (i, band) in gw.chunks_mut(split * oc).enumerate() {
            let window = Operand::Lowered(Lowered::new(g, &padded).rows_from(i * split));
            let (b, mc0) = (Operand::Stored(&gy), band.len() / oc);
            gemm_view(no, yes, mc0, oc, cols, 1.0, window, b, 1.0, band);
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
            (1, 6, 6, 3, 3, 1, 0, 4),    // a 4x16x9 forward: one short tile
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

    /// `op(A)` of an `m×k` product as its stored matrix under `ta`, from
    /// the rows of a row-major `m×k` matrix.
    fn stored_as(ta: Transpose, rows: &[f32], m: usize, k: usize) -> Vec<f32> {
        match ta {
            Transpose::No => rows.to_vec(),
            Transpose::Yes => (0..k * m).map(|x| rows[(x % m) * k + x / m]).collect(),
        }
    }

    proptest::proptest! {
        /// The one-chain invariant: row `r` of an `m`-row product holds the
        /// bits of that row computed alone — whatever `m` (across `MR`,
        /// `SKINNY_M` and the old 2¹⁷-flop line), the transposes, the
        /// thread budget, a forced fork into bands, the SIMD tier, and
        /// whether `A` is stored, packed or a row window of a lowering,
        /// or `B` stored or packed. The rows alone run stored, serial,
        /// untransposed `A`, in the build's own tier.
        #[test]
        fn a_row_holds_the_bits_it_has_alone(
            m in 1usize..71,
            ki in 0usize..6,
            threads in 1usize..4,
            forked in proptest::prop::bool::ANY,
            scalar in proptest::prop::bool::ANY,
        ) {
            use crate::im2col::{im2col, pad_image};
            let k = [1, 27, 255, 256, 257, 800][ki];
            let n = 37;
            // A 3×3, pad-1 conv over a 1-row image `k` wide: its lowering
            // is 72×k, and rows `72 - m..` of it are op(A).
            let g = crate::Conv2dGeometry {
                in_channels: 8,
                in_h: 1,
                in_w: k,
                k_h: 3,
                k_w: 3,
                stride: 1,
                pad: 1,
            };
            let image = rand_vec(g.input_len(), (m * k) as u64);
            let (mut col, mut padded) = (vec![0.0; 72 * k], vec![0.0; g.padded_len()]);
            im2col(&g, &image, &mut col);
            pad_image(&g, &image, &mut padded);
            let row0 = 72 - m;
            let rows = &col[row0 * k..];
            let b_rows = rand_vec(k * n, (k + n) as u64);
            let c0 = rand_vec(m * n, (m + n) as u64);
            let (alpha, beta) = (0.5f32, 0.75f32);
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let ta = if ta { Transpose::Yes } else { Transpose::No };
                let tb = if tb { Transpose::Yes } else { Transpose::No };
                let (a, b) = (stored_as(ta, rows, m, k), stored_as(tb, &b_rows, k, n));
                let (pa, pb) = (Panels::a(ta, m, k), Panels::b(tb, k, n));
                let (mut a_panels, mut b_panels) = (vec![0.0; pa.floats()], vec![0.0; pb.floats()]);
                pa.pack(&a, &mut a_panels);
                pb.pack(&b, &mut b_panels);
                let mut alone = c0.clone();
                for (r, c_row) in alone.chunks_mut(n).enumerate() {
                    let a_row = &rows[r * k..][..k];
                    gemm(Transpose::No, tb, 1, n, k, alpha, a_row, &b, beta, c_row);
                }
                let (a_stored, b_stored) = (Operand::Stored(&a), Operand::Stored(&b));
                let mut operands = vec![
                    (a_stored, b_stored, "stored"),
                    (Operand::Packed(pa, &a_panels), b_stored, "packed A"),
                    (a_stored, Operand::Packed(pb, &b_panels), "packed B"),
                ];
                if ta == Transpose::No {
                    let window = Lowered::new(&g, &padded).rows_from(row0);
                    operands.push((Operand::Lowered(window), b_stored, "lowered A"));
                }
                for (a, b, what) in operands {
                    let mut c = c0.clone();
                    let mut run = || if forked {
                        fork_join_bands(threads, ta, tb, m, n, k, alpha, a, b, beta, &mut c);
                    } else {
                        par::with_budget(threads, || {
                            gemm_view(ta, tb, m, n, k, alpha, a, b, beta, &mut c)
                        });
                    };
                    if scalar {
                        crate::simd::with_scalar_kernels(run);
                    } else {
                        run();
                    }
                    proptest::prop_assert_eq!(
                        bits(&c),
                        bits(&alone),
                        "m={} k={} {:?} {:?} {} threads={} forked={} scalar={}",
                        m, k, ta, tb, what, threads, forked, scalar
                    );
                }
            }
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
    fn a_skinny_gemm_forks_on_the_floats_it_streams() {
        // 2×1024×1024 — a small-batch `Dense` forward — is 4.2 MFLOP, far
        // under the flop gate, but streams a 4 MiB weight: it forks
        // once under a two-thread budget (one column band per thread, the
        // caller running the first), never under one, and keeps the bits
        // of the serial nest either way.
        let (m, n, k) = (2, 1024, 1024);
        assert!(gemm_flops(m, n, k) < par::FORK_JOIN_FLOPS);
        assert!(gemm_floats(m, n, k) >= par::PAR_ELEMS);
        let a = rand_vec(m * k, 80);
        let b = rand_vec(n * k, 81);
        let (no, yes) = (Transpose::No, Transpose::Yes);
        let mut reference = vec![0.0; m * n];
        gemm_serial(no, yes, m, n, k, 1.0, &a, &b, 0.0, &mut reference);
        for (threads, forks) in [(1usize, 0u64), (2, 1)] {
            let mut c = vec![0.0; m * n];
            let before = par::threads_spawned();
            par::with_budget(threads, || gemm(no, yes, m, n, k, 1.0, &a, &b, 0.0, &mut c));
            assert_eq!(par::threads_spawned() - before, forks, "budget {threads}");
            assert_eq!(bits(&reference), bits(&c), "budget {threads}");
        }
        // Under both gates: 2×512×512 streams a third of PAR_ELEMS.
        let (n, k) = (512, 512);
        assert!(gemm_floats(m, n, k) < par::PAR_ELEMS);
        let mut c = vec![0.0; m * n];
        let before = par::threads_spawned();
        par::with_budget(2, || gemm(no, yes, m, n, k, 1.0, &a, &b, 0.0, &mut c));
        assert_eq!(par::threads_spawned(), before, "forked below both gates");
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
