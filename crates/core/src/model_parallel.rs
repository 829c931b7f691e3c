//! Model parallelism (§2.3, Figure 4.2) — implemented so the paper's
//! *choice against it* can be demonstrated rather than asserted.
//!
//! Model parallelism partitions each layer's matrix operation across P
//! machines: here, a dense layer's weight `W[out, in]` is split by output
//! rows; each rank computes its slice of `Y = X·Wᵀ` and the full
//! activation is assembled with an allgather. Gradients flow back with a
//! reduce over the partial input-gradients. The result is *numerically
//! identical* to the single-machine layer (the §2.3 claim: “model
//! parallelism can get the same solution as the single-machine case”).
//!
//! The paper's argument for data parallelism (§2.3): batch (≤ 2048) and
//! picture sizes are small, so these per-layer matrix operations are too
//! small to amortize per-layer communication — “parallelizing a
//! 2048×1024×1024 matrix multiplication only needs one or two machines.”
//! [`model_parallel_speedup`] prices exactly that trade.

use easgd_cluster::{tree_allreduce_sum, tree_broadcast, Comm, TimeCategory};
use easgd_hardware::net::AlphaBeta;
use easgd_tensor::{gemm, Transpose};

/// Row-partition bounds: output rows of rank `r` when `out` rows are
/// split over `p` ranks.
pub fn partition_rows(out: usize, p: usize, r: usize) -> (usize, usize) {
    let base = out / p;
    let extra = out % p;
    let start = r * base + r.min(extra);
    (start, start + base + usize::from(r < extra))
}

/// Distributed dense forward: each rank holds `W` rows
/// `[rows_r, in]` and the bias slice; computes its output slice for the
/// whole batch and allgathers the full `[batch, out]` activation.
///
/// Returns the assembled activation (identical on every rank).
pub fn model_parallel_dense_forward(
    comm: &mut Comm,
    x: &[f32],
    batch: usize,
    in_features: usize,
    out_features: usize,
    w_slice: &[f32],
    b_slice: &[f32],
) -> Vec<f32> {
    let p = comm.size();
    let r = comm.rank();
    let (r0, r1) = partition_rows(out_features, p, r);
    let rows = r1 - r0;
    assert_eq!(w_slice.len(), rows * in_features, "weight slice shape");
    assert_eq!(b_slice.len(), rows, "bias slice shape");
    // Partial output, batch-major within the slice: [batch, rows].
    let mut part = vec![0.0f32; batch * rows];
    gemm(
        Transpose::No,
        Transpose::Yes,
        batch,
        rows,
        in_features,
        1.0,
        x,
        w_slice,
        0.0,
        &mut part,
    );
    for row in part.chunks_mut(rows) {
        for (v, b) in row.iter_mut().zip(b_slice) {
            *v += b;
        }
    }
    // Allgather: each owner broadcasts its [batch, rows] slice down the
    // tree, and every rank interleaves it into [batch, out].
    let mut out = vec![0.0f32; batch * out_features];
    for owner in 0..p {
        let mut slice = if owner == r {
            std::mem::take(&mut part)
        } else {
            Vec::new()
        };
        tree_broadcast(comm, owner, &mut slice, TimeCategory::GpuGpuParam);
        let (s0, s1) = partition_rows(out_features, p, owner);
        let w = s1 - s0;
        for b in 0..batch {
            out[b * out_features + s0..b * out_features + s1]
                .copy_from_slice(&slice[b * w..(b + 1) * w]);
        }
    }
    out
}

/// Distributed dense backward (input gradient only, which is what the
/// §2.3 comparison needs): each rank computes `∂L/∂X` from its weight
/// slice and the matching slice of `∂L/∂Y`, and the partial input
/// gradients are summed with an allreduce.
pub fn model_parallel_dense_backward(
    comm: &mut Comm,
    grad_y: &[f32],
    batch: usize,
    in_features: usize,
    out_features: usize,
    w_slice: &[f32],
) -> Vec<f32> {
    let p = comm.size();
    let r = comm.rank();
    let (r0, r1) = partition_rows(out_features, p, r);
    let rows = r1 - r0;
    // Extract this rank's grad_y slice [batch, rows].
    let mut gy = vec![0.0f32; batch * rows];
    for b in 0..batch {
        gy[b * rows..(b + 1) * rows]
            .copy_from_slice(&grad_y[b * out_features + r0..b * out_features + r1]);
    }
    // Partial ∂L/∂X = gy · W_slice  ([batch, rows]·[rows, in]).
    let mut gx = vec![0.0f32; batch * in_features];
    gemm(
        Transpose::No,
        Transpose::No,
        batch,
        in_features,
        rows,
        1.0,
        &gy,
        w_slice,
        0.0,
        &mut gx,
    );
    tree_allreduce_sum(comm, &mut gx, TimeCategory::GpuGpuParam);
    gx
}

/// The §2.3 cost argument, priced: speedup of `p`-way model parallelism
/// over one machine for a `[batch × in] · [in × out]` layer, given a
/// device's sustained flops and an interconnect. Values ≤ 1 mean model
/// parallelism *loses* — the regime the paper's workloads live in.
pub fn model_parallel_speedup(
    batch: usize,
    in_features: usize,
    out_features: usize,
    p: usize,
    sustained_flops: f64,
    link: &AlphaBeta,
) -> f64 {
    let flops = 2.0 * batch as f64 * in_features as f64 * out_features as f64;
    let single = flops / sustained_flops;
    // Per-rank compute + allgather of the [batch, out] activation
    // (ring-style: (p−1)/p of the data crosses the wire per rank).
    let compute = single / p as f64;
    let bytes = batch * out_features * 4;
    let comm = if p > 1 {
        (p - 1) as f64 * link.alpha_s
            + ((p - 1) as f64 / p as f64) * bytes as f64 * link.beta_s_per_byte
    } else {
        0.0
    };
    single / (compute + comm)
}

/// Reference single-machine forward for the tests.
pub fn dense_forward_reference(
    x: &[f32],
    batch: usize,
    in_features: usize,
    out_features: usize,
    w: &[f32],
    bias: &[f32],
) -> Vec<f32> {
    let mut y = vec![0.0f32; batch * out_features];
    gemm(
        Transpose::No,
        Transpose::Yes,
        batch,
        out_features,
        in_features,
        1.0,
        x,
        w,
        0.0,
        &mut y,
    );
    for row in y.chunks_mut(out_features) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_cluster::{ClusterConfig, VirtualCluster};
    use easgd_tensor::Rng;

    #[test]
    fn partition_rows_cover_exactly() {
        for (out, p) in [(10usize, 3usize), (8, 4), (5, 7)] {
            let mut next = 0;
            let mut total = 0;
            for r in 0..p {
                let (s, e) = partition_rows(out, p, r);
                assert_eq!(s, next);
                total += e - s;
                next = e;
            }
            assert_eq!(total, out);
        }
    }

    #[test]
    fn distributed_forward_matches_single_machine() {
        // The §2.3 claim: same solution as the single-machine case.
        let (batch, inf, outf, p) = (4usize, 6usize, 10usize, 3usize);
        let mut rng = Rng::new(1);
        let x: Vec<f32> = (0..batch * inf).map(|_| rng.normal()).collect();
        let w: Vec<f32> = (0..outf * inf).map(|_| rng.normal()).collect();
        let bias: Vec<f32> = (0..outf).map(|_| rng.normal()).collect();
        let reference = dense_forward_reference(&x, batch, inf, outf, &w, &bias);

        let (xr, wr, br) = (&x, &w, &bias);
        let cfg = ClusterConfig::new(p);
        let outs = VirtualCluster::run(&cfg, move |comm| {
            let (r0, r1) = partition_rows(outf, p, comm.rank());
            let w_slice = &wr[r0 * inf..r1 * inf];
            let b_slice = &br[r0..r1];
            model_parallel_dense_forward(comm, xr, batch, inf, outf, w_slice, b_slice)
        });
        for y in outs {
            for (a, b) in y.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn distributed_backward_matches_single_machine() {
        let (batch, inf, outf, p) = (3usize, 5usize, 8usize, 2usize);
        let mut rng = Rng::new(2);
        let w: Vec<f32> = (0..outf * inf).map(|_| rng.normal()).collect();
        let gy: Vec<f32> = (0..batch * outf).map(|_| rng.normal()).collect();
        // Reference: gx = gy · W.
        let mut reference = vec![0.0f32; batch * inf];
        gemm(
            Transpose::No,
            Transpose::No,
            batch,
            inf,
            outf,
            1.0,
            &gy,
            &w,
            0.0,
            &mut reference,
        );
        let (wr, gyr) = (&w, &gy);
        let cfg = ClusterConfig::new(p);
        let outs = VirtualCluster::run(&cfg, move |comm| {
            let (r0, r1) = partition_rows(outf, p, comm.rank());
            let w_slice = &wr[r0 * inf..r1 * inf];
            model_parallel_dense_backward(comm, gyr, batch, inf, outf, w_slice)
        });
        for gx in outs {
            for (a, b) in gx.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn small_layers_do_not_benefit_from_model_parallelism() {
        // §2.3: "parallelizing a 2048×1024×1024 matrix multiplication
        // only needs one or two machines" — at the paper's layer sizes,
        // P-way model parallelism over InfiniBand loses or barely wins.
        let link = AlphaBeta::fdr_infiniband();
        let sustained = 1.8e12; // K80-class sustained
        let s8 = model_parallel_speedup(2048, 1024, 1024, 8, sustained, &link);
        let s2 = model_parallel_speedup(2048, 1024, 1024, 2, sustained, &link);
        assert!(s2 > 1.0, "2 machines should still help a little: {s2:.2}");
        assert!(
            s8 < 2.0 * s2,
            "8 machines must be far from linear: s8 {s8:.2} vs s2 {s2:.2}"
        );
        // At a genuinely small layer (batch 64), even 2-way parallelism
        // is a wash or a loss.
        let small = model_parallel_speedup(64, 256, 256, 2, sustained, &link);
        assert!(small < 1.3, "small-layer speedup {small:.2}");
    }
}
