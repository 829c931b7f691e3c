//! Property-based tests (proptest) on the core data structures and the
//! algebraic invariants the algorithms rely on.

use knl_easgd::hardware::collective::{
    allreduce_rabenseifner, ceil_log2, reduce_tree, round_robin_exchange,
};
use knl_easgd::prelude::{
    AlphaBeta, ClusterConfig, ParamArena, SyntheticSpec, TimeCategory, VirtualCluster,
};
use knl_easgd::tensor::Rng;
use knl_easgd::tensor::{
    gemm, gemm_naive, gemm_packs, gemm_row_band, gemm_rowstable, gemm_serial, gemm_view, ops,
    with_scalar_kernels, Operand, Panels, Transpose,
};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// Maps a raw draw onto a GEMM dimension that lands on or one off the
/// packed kernel's tile and block boundaries (MR = 8, NR = 32, the 64-ish
/// small-matrix region, MC = KC = 256). These ±1 edges are exactly where
/// the zero-padded partial tiles have to be handled; interior sizes add
/// nothing a boundary size doesn't already cover.
fn boundary_dim(anchor: usize, off: usize) -> usize {
    const ANCHORS: [usize; 9] = [1, 2, 8, 31, 32, 33, 64, 255, 256];
    (ANCHORS[anchor % ANCHORS.len()] + off)
        .saturating_sub(1)
        .max(1)
}

fn transpose_of(t: bool) -> Transpose {
    if t {
        Transpose::Yes
    } else {
        Transpose::No
    }
}

/// Packing moves bytes, never arithmetic: on the skinny shapes serving and
/// the MLP trainers issue — short row tiles (m < 8), a 20-column last
/// tile (n = 500), `k` blocks that are not whole vectors (27, 244 = 500 −
/// 256, 257) — every entry point gives the bits of its forced-scalar
/// run, for all four transpose pairs; and row `r` of an 8-row NT
/// `gemm_rowstable` is the 1-row product of that row (the serving
/// contract at the tensor level). The grid is walked whole, which is why
/// this is not one more draw of the sampled property below.
#[test]
fn gemm_entry_points_are_tier_invariant_on_skinny_ragged_shapes() {
    type Entry = fn(Transpose, Transpose, usize, usize, usize, &[f32], &[f32], &mut [f32]);
    let entries: [(&str, Entry); 3] = [
        ("gemm", |ta, tb, m, n, k, a, b, c| {
            gemm(ta, tb, m, n, k, 0.5, a, b, 1.0, c)
        }),
        ("gemm_rowstable", |ta, tb, m, n, k, a, b, c| {
            gemm_rowstable(ta, tb, m, n, k, 0.5, a, b, 1.0, c)
        }),
        ("gemm_row_band", |ta, tb, m, n, k, a, b, c| {
            let split = (m / 2) * n;
            let (top, bottom) = c.split_at_mut(split);
            gemm_row_band(ta, tb, m, n, k, 0, 0.5, Operand::Stored(a), b, 1.0, top);
            gemm_row_band(
                ta,
                tb,
                m,
                n,
                k,
                m / 2,
                0.5,
                Operand::Stored(a),
                b,
                1.0,
                bottom,
            );
        }),
    ];
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mut rng = Rng::new(20);
    for n in [10usize, 33, 500] {
        for k in [27usize, 244, 257, 800] {
            let a: Vec<f32> = (0..9 * k).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            let c0: Vec<f32> = (0..9 * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            for m in 1..=9usize {
                for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                    let (ta, tb) = (transpose_of(ta), transpose_of(tb));
                    for (name, entry) in entries {
                        let mut fast = c0[..m * n].to_vec();
                        entry(ta, tb, m, n, k, &a[..m * k], &b, &mut fast);
                        let mut scalar = c0[..m * n].to_vec();
                        with_scalar_kernels(|| {
                            entry(ta, tb, m, n, k, &a[..m * k], &b, &mut scalar)
                        });
                        assert_eq!(
                            bits(&fast),
                            bits(&scalar),
                            "{name} m={m} n={n} k={k} {ta:?} {tb:?}"
                        );
                    }
                }
            }
            let (no, yes) = (Transpose::No, Transpose::Yes);
            let mut batch = vec![0.0; 8 * n];
            gemm_rowstable(no, yes, 8, n, k, 1.0, &a[..8 * k], &b, 0.0, &mut batch);
            for r in 0..8 {
                let mut alone = vec![0.0; n];
                gemm_rowstable(no, yes, 1, n, k, 1.0, &a[r * k..][..k], &b, 0.0, &mut alone);
                assert_eq!(
                    bits(&alone),
                    bits(&batch[r * n..][..n]),
                    "row {r} n={n} k={k}"
                );
            }
        }
    }
}

proptest! {
    /// GEMM against the naive triple loop, random shapes and transposes.
    #[test]
    fn gemm_matches_naive(
        m in 1usize..8,
        n in 1usize..8,
        k in 0usize..8,
        ta in prop::bool::ANY,
        tb in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let mut rng = Rng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let (ta, tb) = (
            if ta { Transpose::Yes } else { Transpose::No },
            if tb { Transpose::Yes } else { Transpose::No },
        );
        let get_a = |i: usize, l: usize| match ta {
            Transpose::No => a[i * k + l],
            Transpose::Yes => a[l * m + i],
        };
        let get_b = |l: usize, j: usize| match tb {
            Transpose::No => b[l * n + j],
            Transpose::Yes => b[j * k + l],
        };
        let mut c = vec![0.0f32; m * n];
        gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += get_a(i, l) * get_b(l, j);
                }
                prop_assert!((c[i * n + j] - acc).abs() < 1e-3);
            }
        }
    }

    /// The blocked/packed GEMM agrees with the naive triple loop at and
    /// around every tile and cache-block boundary, for all four transpose
    /// combinations and both β regimes. Shapes here are big enough to take
    /// the packed path (unlike `gemm_matches_naive` above, which pins the
    /// small-matrix fallback).
    #[test]
    fn blocked_gemm_matches_naive_at_tile_boundaries(
        ma in 0usize..9, moff in 0usize..3,
        na in 0usize..9, noff in 0usize..3,
        ka in 0usize..9, koff in 0usize..3,
        ta in prop::bool::ANY,
        tb in prop::bool::ANY,
        accumulate in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let (m, n, k) = (
            boundary_dim(ma, moff),
            boundary_dim(na, noff),
            boundary_dim(ka, koff),
        );
        let mut rng = Rng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let (alpha, beta) = if accumulate { (0.5, 1.0) } else { (1.0, 0.0) };
        let (ta, tb) = (transpose_of(ta), transpose_of(tb));

        let mut c = c0.clone();
        gemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c);
        let mut want = c0;
        gemm_naive(ta, tb, m, n, k, alpha, &a, &b, beta, &mut want);

        // f32 accumulation order differs between the kernels; the gap
        // grows like √k · ε · |partial sums|.
        let tol = 1e-5 * (k as f32).sqrt().max(1.0) * 8.0;
        for (i, (got, want)) in c.iter().zip(&want).enumerate() {
            prop_assert!((got - want).abs() < tol, "c[{i}]: {got} vs {want} (m={m} n={n} k={k})");
        }
    }

    /// GEMM is bit-deterministic: repeated calls produce identical bits,
    /// and the dispatching entry point (which may fan out over the worker
    /// pool) is bit-identical to the serial kernel — the property the
    /// reproducible-trajectory harness rests on (DESIGN.md §8).
    #[test]
    fn gemm_is_bit_deterministic(
        ma in 0usize..9, moff in 0usize..3,
        na in 0usize..9, noff in 0usize..3,
        ka in 0usize..9, koff in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let (m, n, k) = (
            boundary_dim(ma, moff),
            boundary_dim(na, noff),
            boundary_dim(ka, koff),
        );
        let mut rng = Rng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();

        let mut c1 = c0.clone();
        gemm(Transpose::No, Transpose::Yes, m, n, k, 1.0, &a, &b, 0.5, &mut c1);
        let mut c2 = c0.clone();
        gemm(Transpose::No, Transpose::Yes, m, n, k, 1.0, &a, &b, 0.5, &mut c2);
        prop_assert_eq!(&c1, &c2);

        // Below the small-matrix flop threshold `gemm` dispatches to the
        // naive row loop, whose summation order legitimately differs from
        // the blocked kernel — serial equivalence is a blocked-path claim.
        if 2 * (m as u64) * (n as u64) * (k as u64) >= (1 << 17) {
            let mut cs = c0;
            gemm_serial(Transpose::No, Transpose::Yes, m, n, k, 1.0, &a, &b, 0.5, &mut cs);
            prop_assert_eq!(&c1, &cs);
        }
    }

    /// A weight packed once reads as the matrix it was packed from. Around
    /// every tile and block edge of a product that takes the packs — the
    /// only products a packed operand is valid in — so in both nests, with
    /// either operand packed, under every transpose (freezing packs a
    /// conv's A as stored and a dense layer's B transposed), and in both β
    /// regimes, `gemm_view` over the packed operand holds the bits of
    /// `gemm` over the stored one, in the build's tier and the scalar one.
    #[test]
    fn packed_operands_hold_the_bits_of_the_stored_ones(
        ma in 0usize..9, moff in 0usize..3,
        na in 0usize..9, noff in 0usize..3,
        ka in 0usize..9, koff in 0usize..3,
        accumulate in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let (m, n, k) = (
            boundary_dim(ma, moff),
            boundary_dim(na, noff),
            boundary_dim(ka, koff),
        );
        prop_assume!(gemm_packs(m, n, k));
        let mut rng = Rng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let (alpha, beta) = if accumulate { (0.5, 1.0) } else { (1.0, 0.0) };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        // Few drawn shapes take the packs, so each runs every side and
        // transpose rather than drawing them.
        for (ta, tb, pack_b) in (0..8).map(|i| (i & 1 != 0, i & 2 != 0, i & 4 != 0)) {
            let (ta, tb) = (transpose_of(ta), transpose_of(tb));
            let (panels, stored) = if pack_b {
                (Panels::b(tb, k, n), &b)
            } else {
                (Panels::a(ta, m, k), &a)
            };
            let mut packed = vec![f32::NAN; panels.floats()];
            panels.pack(stored, &mut packed);
            let (a_op, b_op) = if pack_b {
                (Operand::Stored(&a), Operand::Packed(panels, &packed))
            } else {
                (Operand::Packed(panels, &packed), Operand::Stored(&b))
            };
            for scalar in [false, true] {
                let (mut want, mut got) = (c0.clone(), c0.clone());
                let mut run = || {
                    gemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut want);
                    gemm_view(ta, tb, m, n, k, alpha, a_op, b_op, beta, &mut got);
                };
                if scalar {
                    with_scalar_kernels(run);
                } else {
                    run();
                }
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "m={} n={} k={} {:?} {:?} pack_b={} scalar={}",
                    m, n, k, ta, tb, pack_b, scalar
                );
            }
        }
    }

    /// The elastic center update is a convex pull: the center never
    /// overshoots past the worker (for ηρ ≤ 1), and the gap shrinks
    /// monotonically — the stability property EASGD convergence rests on.
    #[test]
    fn elastic_center_update_contracts(
        center0 in finite_vec(16),
        worker in finite_vec(16),
        eta in 0.01f32..1.0,
        rho in 0.0f32..1.0,
    ) {
        prop_assume!(eta * rho <= 1.0);
        let mut center = center0.clone();
        ops::elastic_center_update(eta, rho, &mut center, &worker);
        for i in 0..16 {
            let before = (center0[i] - worker[i]).abs();
            let after = (center[i] - worker[i]).abs();
            prop_assert!(after <= before + 1e-5);
        }
    }

    /// Equation (1) with zero gradient is also a convex pull toward the
    /// center.
    #[test]
    fn elastic_worker_update_contracts_without_gradient(
        local0 in finite_vec(8),
        center in finite_vec(8),
        eta in 0.01f32..1.0,
        rho in 0.0f32..1.0,
    ) {
        prop_assume!(eta * rho <= 1.0);
        let zero = vec![0.0f32; 8];
        let mut local = local0.clone();
        ops::elastic_worker_update(eta, rho, &mut local, &zero, &center);
        for i in 0..8 {
            prop_assert!((local[i] - center[i]).abs() <= (local0[i] - center[i]).abs() + 1e-5);
        }
    }

    /// The atomic Hogwild buffer agrees with the scalar kernels when
    /// used single-threaded.
    #[test]
    fn atomic_buffer_matches_scalar_updates(
        w0 in finite_vec(12),
        grad in finite_vec(12),
        eta in 0.001f32..0.5,
    ) {
        let buf = knl_easgd::tensor::AtomicBuffer::from_slice(&w0);
        buf.sgd_update(eta, &grad);
        let mut scalar = w0.clone();
        ops::sgd_update(eta, &mut scalar, &grad);
        let snap = buf.snapshot();
        for i in 0..12 {
            prop_assert!((snap[i] - scalar[i]).abs() < 1e-6);
        }
    }

    /// Packed arenas: segments tile the arena exactly — no gaps, no
    /// overlap, order preserved (the §5.2 contiguity invariant).
    #[test]
    fn arena_segments_tile_exactly(lens in proptest::collection::vec(0usize..50, 1..12)) {
        let mut b = ParamArena::builder();
        for (i, &l) in lens.iter().enumerate() {
            b.push(format!("seg{i}"), l);
        }
        let arena = b.build();
        let mut expected_offset = 0;
        for (i, seg) in arena.segments().iter().enumerate() {
            prop_assert_eq!(seg.offset, expected_offset);
            prop_assert_eq!(seg.len, lens[i]);
            expected_offset += seg.len;
        }
        prop_assert_eq!(arena.len(), expected_offset);
    }

    /// Tree reduction never loses to round-robin, and the gap is the
    /// predicted Θ(P/log P) factor.
    #[test]
    fn tree_never_loses_to_round_robin(p in 1usize..512, kb in 1usize..10_000) {
        let link = AlphaBeta::qdr_infiniband();
        let bytes = kb * 1024;
        let tree = reduce_tree(&link, p, bytes);
        let rr = round_robin_exchange(&link, p, bytes);
        prop_assert!(tree <= rr + 1e-15);
        if p > 1 {
            let ratio = rr / tree;
            prop_assert!((ratio - p as f64 / ceil_log2(p) as f64).abs() < 1e-6);
        }
    }

    /// Rabenseifner allreduce beats two tree traversals once messages
    /// are large (bandwidth-dominated regime).
    #[test]
    fn rabenseifner_wins_for_large_messages(p in 2usize..256) {
        let link = AlphaBeta::fdr_infiniband();
        let bytes = 64 * 1024 * 1024;
        prop_assert!(
            allreduce_rabenseifner(&link, p, bytes) <= 2.0 * reduce_tree(&link, p, bytes)
        );
    }

    /// Synthetic datasets: any spec yields normalized data with labels in
    /// range and round-robin class coverage.
    #[test]
    fn synthetic_generation_invariants(
        seed in 0u64..1_000,
        n in 10usize..80,
        size in 6usize..16,
    ) {
        let spec = SyntheticSpec {
            name: "prop".to_string(),
            classes: 5,
            channels: 1,
            size,
            coarse: 3,
            noise: 0.5,
            max_shift: 1,
        };
        let d = spec.task(seed).generate(n, seed ^ 0xABCD);
        prop_assert_eq!(d.len(), n);
        for i in 0..n {
            prop_assert_eq!(d.label(i), i % 5);
            prop_assert!(d.image(i).iter().all(|v| v.is_finite()));
        }
    }

    /// The virtual cluster's allreduce really sums: random rank count and
    /// payload, every rank sees Σ contributions.
    #[test]
    fn cluster_allreduce_sums_exactly(p in 1usize..9, len in 1usize..33, seed in 0u64..100) {
        let cfg = ClusterConfig::new(p);
        let mut rng = Rng::new(seed);
        let inputs: Vec<Vec<f32>> = (0..p)
            .map(|_| (0..len).map(|_| rng.uniform_in(-1.0, 1.0)).collect())
            .collect();
        let mut expect = vec![0.0f32; len];
        ops::fold_sum(&mut expect, &inputs);
        let inputs_ref = &inputs;
        let outs = VirtualCluster::run(&cfg, move |comm| {
            let mut sum = inputs_ref[comm.rank()].clone();
            knl_easgd::cluster::tree_allreduce_sum(comm, &mut sum, TimeCategory::Other);
            sum
        });
        for out in outs {
            for i in 0..len {
                prop_assert!((out[i] - expect[i]).abs() < 1e-4);
            }
        }
    }

    /// The executable ring allreduce matches the sum computed locally
    /// from the known inputs, for any rank count and vector length
    /// (including lengths < P).
    #[test]
    fn ring_allreduce_matches_the_local_sum(p in 1usize..7, len in 1usize..40, seed in 0u64..50) {
        let cfg = ClusterConfig::new(p);
        let mut rng = Rng::new(seed);
        let inputs: Vec<Vec<f32>> = (0..p)
            .map(|_| (0..len).map(|_| rng.uniform_in(-2.0, 2.0)).collect())
            .collect();
        let mut expect = vec![0.0f32; len];
        ops::fold_sum(&mut expect, &inputs);
        let inputs_ref = &inputs;
        let outs = VirtualCluster::run(&cfg, move |comm| {
            let mut ring = inputs_ref[comm.rank()].clone();
            knl_easgd::cluster::ring_allreduce_sum(comm, &mut ring, TimeCategory::Other);
            ring
        });
        for ring in outs {
            for (a, b) in ring.iter().zip(&expect) {
                prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    /// Horizontal flip is an involution and preserves the pixel multiset
    /// per row.
    #[test]
    fn flip_is_involutive(seed in 0u64..200, h in 1usize..6, w in 1usize..6) {
        use knl_easgd::data::Augment;
        let mut rng = Rng::new(seed);
        let mut img: Vec<f32> = (0..2 * h * w).map(|_| rng.uniform()).collect();
        let orig = img.clone();
        let policy = Augment { flip_prob: 1.0, crop_pad: 0 };
        // Two different rngs: the policy flips unconditionally, so the
        // rng draws don't matter for the flip decision.
        policy.apply(&mut Rng::new(1), 2, h, w, &mut img);
        policy.apply(&mut Rng::new(2), 2, h, w, &mut img);
        prop_assert_eq!(img, orig);
    }

    /// im2col / col2im stay adjoint for random geometries — the property
    /// conv backward correctness rests on.
    #[test]
    fn im2col_col2im_adjoint(
        seed in 0u64..100,
        c in 1usize..3,
        hw in 3usize..8,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        use knl_easgd::tensor::{col2im, im2col, Conv2dGeometry};
        let g = Conv2dGeometry {
            in_channels: c,
            in_h: hw,
            in_w: hw,
            k_h: k,
            k_w: k,
            stride,
            pad,
        };
        prop_assume!(g.is_valid());
        let mut rng = Rng::new(seed);
        let x: Vec<f32> = (0..g.input_len()).map(|_| rng.normal()).collect();
        let y: Vec<f32> = (0..g.col_rows() * g.col_cols()).map(|_| rng.normal()).collect();
        let mut cx = vec![0.0; y.len()];
        im2col(&g, &x, &mut cx);
        let mut aty = vec![0.0; x.len()];
        col2im(&g, &y, &mut aty);
        let lhs = ops::dot(&cx, &y) as f64;
        let rhs = ops::dot(&x, &aty) as f64;
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    /// LR schedules never go negative and (except Constant) never grow.
    #[test]
    fn schedules_are_nonincreasing(base in 0.001f32..1.0, t in 0usize..100_000) {
        use knl_easgd::algorithms::LrSchedule;
        for s in [
            LrSchedule::Constant { base },
            LrSchedule::Step { base, gamma: 0.5, every: 1000 },
            LrSchedule::Poly { base, power: 1.5, max_iter: 50_000 },
            LrSchedule::Inv { base, gamma: 1e-4, power: 0.75 },
        ] {
            let now = s.at(t);
            let later = s.at(t + 1000);
            prop_assert!(now >= 0.0 && later >= 0.0);
            prop_assert!(later <= now + 1e-9, "{s:?} grew: {now} -> {later}");
        }
    }

    /// Momentum update reduces to plain SGD when µ = 0 and velocity = 0.
    #[test]
    fn momentum_degenerates_to_sgd(w0 in finite_vec(8), grad in finite_vec(8), eta in 0.001f32..0.5) {
        let mut w_m = w0.clone();
        let mut v = vec![0.0f32; 8];
        ops::momentum_update(eta, 0.0, &mut w_m, &mut v, &grad);
        let mut w_s = w0.clone();
        ops::sgd_update(eta, &mut w_s, &grad);
        for i in 0..8 {
            prop_assert!((w_m[i] - w_s[i]).abs() < 1e-6);
        }
    }
}

proptest! {
    /// SimClock is monotone: any sequence of charge/advance_to calls with
    /// non-negative durations never moves time backwards, and the
    /// breakdown total always equals elapsed time.
    #[test]
    fn sim_clock_advances_monotonically(steps in proptest::collection::vec(0.0f64..10.0, 1..40), kind in 0usize..3) {
        use knl_easgd::prelude::SimClock;
        let mut clock = SimClock::new();
        let mut prev = clock.now();
        for (i, &dt) in steps.iter().enumerate() {
            let cat = TimeCategory::ALL[i % TimeCategory::ALL.len()];
            match (i + kind) % 3 {
                0 => clock.charge(cat, dt),
                1 => clock.advance_to(prev + dt, cat),
                // Attempting to advance into the past must be a no-op.
                _ => clock.advance_to(prev - dt, cat),
            }
            prop_assert!(clock.now() >= prev, "clock went backwards: {prev} -> {}", clock.now());
            prev = clock.now();
        }
        prop_assert!((clock.breakdown().total() - clock.now()).abs() < 1e-9 * clock.now().max(1.0));
    }
}

proptest! {
    /// The fused exchange-step kernel is bit-identical to the two-pass
    /// composition it replaces (copy the pre-update weights out, then
    /// apply the Equation (1) worker pull), and stays bit-identical when
    /// cut into bands the way the ops cut theirs (`fan_out` over zipped
    /// chunks) at small lengths that do *not* divide evenly — many
    /// ragged tails, where the arena-sized banding test in `ops.rs` has
    /// one.
    #[test]
    fn fused_elastic_exchange_matches_two_pass_composition(
        bands in 2usize..8,
        quot in 1usize..40,
        rem in 0usize..8,
        eta in 0.01f32..0.5,
        rho in 0.01f32..0.9,
        seed in 0u64..1_000,
    ) {
        use knl_easgd::tensor::par;
        // Lengths straddling band boundaries: len % bands ranges over
        // 0..bands, including the ragged remainders.
        let len = bands * quot + (rem % bands);
        let mut rng = Rng::new(seed);
        let w0: Vec<f32> = (0..len).map(|_| rng.uniform_in(-2.0, 2.0)).collect();
        let grad: Vec<f32> = (0..len).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let center: Vec<f32> = (0..len).map(|_| rng.uniform_in(-2.0, 2.0)).collect();

        // Two-pass reference: publish a copy, then Equation (1).
        let published = w0.clone();
        let mut two_pass = w0.clone();
        ops::elastic_worker_update(eta, rho, &mut two_pass, &grad, &center);

        // Fused serial kernel.
        let mut fused = w0.clone();
        let mut contribution = vec![0.0f32; len];
        ops::elastic_exchange(eta, rho, &mut fused, &mut contribution, &grad, &center);
        for i in 0..len {
            prop_assert_eq!(fused[i].to_bits(), two_pass[i].to_bits(), "local[{}]", i);
            prop_assert_eq!(contribution[i].to_bits(), published[i].to_bits(), "contribution[{}]", i);
        }

        // The same sweep forced through an explicit band split must not
        // move a single bit relative to the serial fused kernel.
        let mut banded = w0.clone();
        let mut banded_contribution = vec![0.0f32; len];
        let c = len.div_ceil(bands);
        par::fan_out(
            banded
                .chunks_mut(c)
                .zip(banded_contribution.chunks_mut(c))
                .zip(grad.chunks(c))
                .zip(center.chunks(c)),
            |(((lc, oc), gc), cc)| {
                for (((li, oi), gi), ci) in lc.iter_mut().zip(oc.iter_mut()).zip(gc).zip(cc) {
                    let w = *li;
                    *oi = w;
                    *li = w - eta * (gi + rho * (w - ci));
                }
            },
        );
        for i in 0..len {
            prop_assert_eq!(banded[i].to_bits(), fused[i].to_bits(), "banded local[{}]", i);
            prop_assert_eq!(
                banded_contribution[i].to_bits(),
                contribution[i].to_bits(),
                "banded contribution[{}]", i
            );
        }
    }
}

// --- Buffer pool accounting (the zero-allocation exchange substrate) ----

proptest! {
    /// Every nonzero-length `take` increments exactly one of
    /// `fresh`/`grown`/`reused` — the BENCH_comm allocs-per-step column
    /// rests on this partition being exact. (Only `take`/`put` are
    /// driven: `note_external_alloc` deliberately books into `grown` for
    /// non-pooled buffers and would shift the identity.)
    #[test]
    fn pool_take_accounting_partitions_exactly(
        // Each op packs (take-or-put, len) into one integer: bit 0 picks
        // the operation, the remaining bits give the take length 0..64.
        ops in proptest::collection::vec(0u64..128, 0..60),
    ) {
        use knl_easgd::cluster::pool::BufferPool;
        let pool = BufferPool::new();
        let mut live: Vec<Vec<f32>> = Vec::new();
        let mut nonzero_takes = 0u64;
        for op in ops {
            let (is_take, len) = (op & 1 == 1, (op >> 1) as usize);
            if is_take {
                let buf = pool.take(len);
                prop_assert!(buf.is_empty(), "taken buffers arrive cleared");
                prop_assert!(buf.capacity() >= len);
                if len > 0 {
                    nonzero_takes += 1;
                }
                live.push(buf);
            } else if let Some(buf) = live.pop() {
                pool.put(buf);
            }
        }
        let s = pool.stats();
        prop_assert_eq!(
            s.fresh + s.grown + s.reused,
            nonzero_takes,
            "stats {:?}",
            s
        );
        prop_assert_eq!(s.allocations(), s.fresh + s.grown);
    }

    /// Size-aware reuse: a `take` never touches the allocator while a
    /// free buffer with `len ≤ capacity ≤ 2·len` exists (and then hands
    /// out the smallest such), never regrows anything, and otherwise
    /// allocates fresh — checked against a model of the free capacities.
    #[test]
    fn pool_take_reuses_the_best_fit_and_never_grows(
        ops in proptest::collection::vec(0u64..1024, 0..80),
    ) {
        use knl_easgd::cluster::pool::BufferPool;
        let pool = BufferPool::new();
        let mut live: Vec<Vec<f32>> = Vec::new();
        let mut free_caps: Vec<usize> = Vec::new();
        for op in ops {
            let (is_take, len) = (op & 1 == 1, (op >> 1) as usize);
            if is_take {
                let before = pool.stats();
                let buf = pool.take(len);
                let d = pool.stats().since(&before);
                prop_assert!(buf.is_empty(), "taken buffers arrive cleared");
                prop_assert!(buf.capacity() >= len, "capacity contract broken");
                prop_assert_eq!(d.grown, 0, "the pool never regrows a buffer");
                let fit = free_caps
                    .iter()
                    .copied()
                    .filter(|&c| len > 0 && c >= len && c <= 2 * len)
                    .min();
                match fit {
                    Some(cap) => {
                        prop_assert_eq!((d.fresh, d.reused), (0, 1), "allocated past a fit");
                        prop_assert_eq!(buf.capacity(), cap, "not the best fit");
                        let i = free_caps.iter().position(|&c| c == cap).unwrap();
                        free_caps.swap_remove(i);
                    }
                    None => prop_assert_eq!((d.fresh, d.reused), (u64::from(len > 0), 0)),
                }
                live.push(buf);
            } else if let Some(buf) = live.pop() {
                if buf.capacity() > 0 {
                    free_caps.push(buf.capacity());
                }
                pool.put(buf);
            }
        }
    }

    /// A moved-in `recv_into` leaves `out` equal to the sent payload
    /// whatever `out` held before — empty, shorter, or longer than the
    /// message, zero-length messages included.
    #[test]
    fn recv_into_leaves_out_equal_to_the_sent_payload(
        cases in proptest::collection::vec((0usize..300, 0usize..300), 1..10),
    ) {
        use knl_easgd::cluster::tags::SYNC_DATA;
        let cases = &cases;
        let value = |case: usize, j: usize| (case * 1000 + j) as f32;
        let cfg = ClusterConfig::new(2);
        let ok = VirtualCluster::run(&cfg, |comm| {
            let mut ok = true;
            for (case, &(len, out_len)) in cases.iter().enumerate() {
                if comm.rank() == 0 {
                    let mut buf = comm.take_buffer(len);
                    buf.extend((0..len).map(|j| value(case, j)));
                    comm.send_from(1, SYNC_DATA, buf, TimeCategory::Other);
                } else {
                    let mut out = vec![-1.0f32; out_len];
                    comm.recv_into(0, SYNC_DATA, TimeCategory::Other, &mut out);
                    ok &= out.len() == len
                        && out.iter().enumerate().all(|(j, &x)| x == value(case, j));
                }
            }
            ok
        });
        prop_assert!(ok[1], "recv_into returned something other than the payload");
    }

    /// `bytes_copied` is monotone under `note_copy` and sums exactly.
    #[test]
    fn pool_bytes_copied_is_monotone_and_exact(
        copies in proptest::collection::vec(0usize..10_000, 0..40),
    ) {
        use knl_easgd::cluster::pool::BufferPool;
        let pool = BufferPool::new();
        let mut last = 0u64;
        let mut total = 0u64;
        for c in copies {
            pool.note_copy(c);
            total += c as u64;
            let now = pool.stats().bytes_copied;
            prop_assert!(now >= last, "bytes_copied went backwards");
            last = now;
        }
        prop_assert_eq!(last, total);
        // The other counters are untouched by note_copy.
        let s = pool.stats();
        prop_assert_eq!((s.fresh, s.grown, s.reused), (0, 0, 0));
    }

    /// Recycling foreign buffers (caller-allocated, any capacity,
    /// including capacity 0) never corrupts the free list: subsequent
    /// takes still hand out cleared buffers of adequate capacity, and
    /// the accounting identity still holds.
    #[test]
    fn pool_survives_foreign_capacity_recycles(
        foreign in proptest::collection::vec(0usize..128, 0..20),
        takes in proptest::collection::vec(1usize..128, 1..20),
    ) {
        use knl_easgd::cluster::pool::BufferPool;
        let pool = BufferPool::new();
        for cap in foreign {
            // A caller-allocated buffer with arbitrary capacity and
            // leftover contents, as `recycle_buffer` accepts.
            let mut v = Vec::with_capacity(cap);
            v.resize(cap.min(7), 3.5);
            pool.put(v);
        }
        let n = takes.len() as u64;
        for len in takes {
            let buf = pool.take(len);
            prop_assert!(buf.is_empty(), "stale contents leaked out of the pool");
            prop_assert!(buf.capacity() >= len, "capacity contract broken");
        }
        let s = pool.stats();
        prop_assert_eq!(s.fresh + s.grown + s.reused, n, "stats {:?}", s);
    }
}
