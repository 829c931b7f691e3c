//! Executable collectives over the point-to-point layer.
//!
//! The priced collectives in [`crate::comm`] gather at a hub rank and
//! charge a closed-form cost. This module is the *executable* schedule:
//! every message is priced where it is sent, so simulated time emerges
//! from the α-β send/recv accounting instead of a formula. Three
//! families live here:
//!
//! * [`ring_allreduce_sum`] — reduce-scatter + allgather, `2(P−1)`
//!   messages of `n/P` elements per rank: the bandwidth-optimal pattern
//!   whose cost the
//!   [`allreduce_rabenseifner`](easgd_hardware::collective::allreduce_rabenseifner)
//!   formula approximates, and the reason VGG's weak-scaling efficiency
//!   flattens in Table 4.
//! * [`tree_reduce_sum`] / [`tree_broadcast`] / [`tree_allreduce_sum`] —
//!   binomial trees, `Θ(log P)` full-size messages on the critical path:
//!   the §6.1 schedule Sync EASGD runs — Table 3's timeline is what
//!   these messages cost.
//!   The `_among` variants run the same trees over a subgroup of ranks
//!   (Sync EASGD's GPU set, excluding the data-serving CPU rank).
//! * [`flat_gather_sum`] — the `Θ(P)` root-serialized baseline the tree
//!   is measured against in `BENCH_comm.json`.
//!
//! The trees move buffers instead of copying them: a broadcast is one
//! shared [`Payload`] (the root's single pooled copy, forwarded by
//! reference), a reduce climbs by handing each rank's own buffer to its
//! parent. Steady-state collectives allocate no payload storage; what a
//! call does allocate is O(log P): an interior rank's [`TreeRole`] child
//! list and the set of partials it waits for. The all-ranks forms build
//! no participant list — a rank's tree position is arithmetic on its id.

use crate::clock::TimeCategory;
use crate::comm::{Comm, Payload};
use crate::tags;

/// Chunk boundaries: `n` elements into `p` nearly equal chunks.
fn chunk_bounds(n: usize, p: usize, chunk: usize) -> (usize, usize) {
    let base = n / p;
    let extra = n % p;
    let start = chunk * base + chunk.min(extra);
    let len = base + usize::from(chunk < extra);
    (start, start + len)
}

/// In-place ring allreduce-sum of `data` across all ranks of `comm`.
///
/// After the call every rank holds the element-wise sum. Charges real
/// α-β costs for each of the `2(P−1)` ring messages to `category`.
///
/// # Panics
/// Panics if ranks disagree on `data.len()`.
pub fn ring_allreduce_sum(comm: &mut Comm, data: &mut [f32], category: TimeCategory) {
    let p = comm.size();
    if p == 1 {
        return;
    }
    let me = comm.rank();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    let n = data.len();
    let mut incoming = comm.take_buffer(n.div_ceil(p));

    // Phase 1 — reduce-scatter: after P−1 steps, rank r owns the full sum
    // of chunk (r+1) mod P.
    for step in 0..p - 1 {
        let send_chunk = (me + p - step) % p;
        let recv_chunk = (me + p - step - 1) % p;
        let (s0, s1) = chunk_bounds(n, p, send_chunk);
        let tag = tags::ring(0, step);
        comm.send(right, tag, &data[s0..s1], category);
        comm.recv_into(left, tag, category, &mut incoming);
        let (r0, r1) = chunk_bounds(n, p, recv_chunk);
        assert_eq!(incoming.len(), r1 - r0, "ring chunk size mismatch");
        for (d, v) in data[r0..r1].iter_mut().zip(&incoming) {
            *d += v;
        }
    }
    // Phase 2 — allgather: circulate the completed chunks.
    for step in 0..p - 1 {
        let send_chunk = (me + 1 + p - step) % p;
        let recv_chunk = (me + p - step) % p;
        let (s0, s1) = chunk_bounds(n, p, send_chunk);
        let tag = tags::ring(1, step);
        comm.send(right, tag, &data[s0..s1], category);
        comm.recv_into(left, tag, category, &mut incoming);
        let (r0, r1) = chunk_bounds(n, p, recv_chunk);
        assert_eq!(incoming.len(), r1 - r0, "ring chunk size mismatch");
        data[r0..r1].copy_from_slice(&incoming);
    }
    comm.recycle_buffer(incoming);
}

/// Position of `rank` in `ranks`.
///
/// # Panics
/// Panics if `rank` is not a participant.
fn vrank_of(ranks: &[usize], rank: usize) -> usize {
    ranks
        .iter()
        .position(|&r| r == rank)
        .unwrap_or_else(|| panic!("rank {rank} is not in the participant set {ranks:?}"))
}

/// A rank's position in the binomial tree over `ranks` rooted at `root`
/// — the one edge set the serial collectives here and the segmented
/// (pipelined) schedules walk: same parent, same children, same
/// per-element fold order, which is what makes the pipelined exchange
/// bit-identical to the whole-vector one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeRole {
    /// `(real rank, level mask)` of the tree parent: where a broadcast
    /// is received from and a reduce partial is sent to. `None` for the
    /// root.
    pub parent: Option<(usize, usize)>,
    /// `(real rank, level mask)` of each child, in **mask-descending**
    /// order — the broadcast fan-out order. The reduce gathers children
    /// in the reverse (mask-ascending) order.
    pub children: Vec<(usize, usize)>,
}

impl TreeRole {
    /// Computes the role of `me` in the binomial tree over `ranks`
    /// rooted at `root` (both must be participants).
    pub fn compute(ranks: &[usize], root: usize, me: usize) -> TreeRole {
        let p = ranks.len();
        let vroot = vrank_of(ranks, root);
        let vr = (vrank_of(ranks, me) + p - vroot) % p;
        Self::at(vr, p, |v| ranks[(v + vroot) % p])
    }

    /// [`compute`](Self::compute) over all `p` ranks of a cluster: a rank
    /// is its own position, so no list is built and none is searched.
    fn among_all(p: usize, root: usize, me: usize) -> TreeRole {
        assert!(root < p && me < p, "rank {root} or {me} outside 0..{p}");
        Self::at((me + p - root) % p, p, |v| (v + root) % p)
    }

    /// The role at position `vr` (the root is 0) of a `p`-rank tree whose
    /// positions `to_real` maps to ranks.
    fn at(vr: usize, p: usize, to_real: impl Fn(usize) -> usize) -> TreeRole {
        // Climb to the mask at which this rank receives (the root never
        // does).
        let mut parent = None;
        let mut mask = 1usize;
        while mask < p {
            if vr & mask != 0 {
                parent = Some((to_real(vr - mask), mask));
                break;
            }
            mask <<= 1;
        }
        // Fan out below that mask.
        let mut children = Vec::new();
        mask >>= 1;
        while mask > 0 {
            if vr + mask < p {
                children.push((to_real(vr + mask), mask));
            }
            mask >>= 1;
        }
        TreeRole { parent, children }
    }

    /// The reduce half: folds the children's partials, hands the sum up.
    fn reduce(&self, comm: &mut Comm, data: &mut Vec<f32>, category: TimeCategory) {
        if !self.children.is_empty() {
            // Mask-ascending, the fold order. Nothing goes up before the
            // last partial is in, so all of them are awaited at once.
            let tagged = |&(child, mask): &(usize, usize)| (child, tags::TREE_REDUCE | mask as u32);
            let partials = || self.children.iter().rev().map(tagged);
            comm.await_all(partials());
            // Where the partials land: each `recv_into` moves the arrived
            // buffer in and recycles the one before it, so it starts empty.
            let mut arrived = comm.take_buffer(0);
            for (child, tag) in partials() {
                comm.recv_into(child, tag, category, &mut arrived);
                assert_eq!(arrived.len(), data.len(), "tree reduce length mismatch");
                for (d, v) in data.iter_mut().zip(&arrived) {
                    *d += v;
                }
            }
            comm.recycle_buffer(arrived);
        }
        if let Some((parent, mask)) = self.parent {
            // My subtree is folded; hand the buffer itself to the parent.
            let spare = comm.take_buffer_sized(data.len());
            let partial = std::mem::replace(data, spare);
            comm.send_from(parent, tags::TREE_REDUCE | mask as u32, partial, category);
        }
    }

    /// The broadcast half, as one shared payload the caller releases.
    fn broadcast_shared(&self, comm: &mut Comm, data: &[f32], category: TimeCategory) -> Payload {
        let payload = match self.parent {
            Some((parent, mask)) => {
                comm.recv_payload(parent, tags::TREE_BCAST | mask as u32, category)
            }
            None => comm.make_payload(data),
        };
        let hop = comm.link_time(payload.len() * 4);
        for &(child, mask) in &self.children {
            comm.send_payload_costed(
                child,
                tags::TREE_BCAST | mask as u32,
                &payload,
                hop,
                category,
            );
        }
        payload
    }

    /// The broadcast half, into `data`.
    fn broadcast(&self, comm: &mut Comm, data: &mut Vec<f32>, category: TimeCategory) {
        if self.parent.is_none() && self.children.is_empty() {
            return; // a tree of one
        }
        let payload = self.broadcast_shared(comm, data, category);
        if self.parent.is_none() {
            comm.release_payload(payload);
        } else {
            comm.release_payload_into(payload, data);
        }
    }
}

/// Binomial-tree reduce-sum over the subgroup `ranks`, rooted at `root`
/// (which must be a member). Every participant calls with its own
/// `data`; after the call **only `root`'s `data` holds the sum**. Every
/// other participant's buffer has *moved* to its tree parent (which
/// folds it in mask-ascending order and recycles it) and been replaced
/// by a pooled one of the same length with unspecified contents.
/// Non-participant ranks must not call.
///
/// The critical path is `ceil(log2(ranks.len()))` full-size messages —
/// the executable form of
/// [`reduce_tree`](easgd_hardware::collective::reduce_tree).
pub fn tree_reduce_sum_among(
    comm: &mut Comm,
    ranks: &[usize],
    root: usize,
    data: &mut Vec<f32>,
    category: TimeCategory,
) {
    TreeRole::compute(ranks, root, comm.rank()).reduce(comm, data, category);
}

/// [`tree_reduce_sum_among`] over all ranks of the cluster.
pub fn tree_reduce_sum(comm: &mut Comm, root: usize, data: &mut Vec<f32>, category: TimeCategory) {
    TreeRole::among_all(comm.size(), root, comm.rank()).reduce(comm, data, category);
}

/// Binomial-tree broadcast of `root`'s `data` over the subgroup `ranks`
/// as **one shared payload** (§5.2's packed message): the root copies
/// `data` once into a pooled buffer, interior ranks forward the
/// reference they received, and every participant returns holding one —
/// read it in place, then [`Comm::release_payload`] it. Only the root's
/// `data` is read. Each hop is charged the link's α-β price.
pub fn tree_broadcast_shared_among(
    comm: &mut Comm,
    ranks: &[usize],
    root: usize,
    data: &[f32],
    category: TimeCategory,
) -> Payload {
    TreeRole::compute(ranks, root, comm.rank()).broadcast_shared(comm, data, category)
}

/// [`tree_broadcast_shared_among`] into every participant's own `data`
/// (lengths need not agree beforehand): moved out of the payload by its
/// last holder, copied by the others.
pub fn tree_broadcast_among(
    comm: &mut Comm,
    ranks: &[usize],
    root: usize,
    data: &mut Vec<f32>,
    category: TimeCategory,
) {
    TreeRole::compute(ranks, root, comm.rank()).broadcast(comm, data, category);
}

/// [`tree_broadcast_among`] over all ranks of the cluster.
pub fn tree_broadcast(comm: &mut Comm, root: usize, data: &mut Vec<f32>, category: TimeCategory) {
    TreeRole::among_all(comm.size(), root, comm.rank()).broadcast(comm, data, category);
}

/// Executable allreduce: [`tree_reduce_sum_among`] to `root`, then
/// [`tree_broadcast_among`] of the sum — §6.1's `Θ(2 log P)` schedule.
pub fn tree_allreduce_sum_among(
    comm: &mut Comm,
    ranks: &[usize],
    root: usize,
    data: &mut Vec<f32>,
    category: TimeCategory,
) {
    let role = TreeRole::compute(ranks, root, comm.rank());
    role.reduce(comm, data, category);
    role.broadcast(comm, data, category);
}

/// [`tree_allreduce_sum_among`] over all ranks of the cluster.
pub fn tree_allreduce_sum(comm: &mut Comm, data: &mut Vec<f32>, category: TimeCategory) {
    let role = TreeRole::among_all(comm.size(), 0, comm.rank());
    role.reduce(comm, data, category);
    role.broadcast(comm, data, category);
}

/// The `Θ(P)` baseline the tree is measured against: every non-root
/// sends its full vector straight to `root`, whose timeline absorbs the
/// `P−1` transfers *serially* (each priced at the link's α-β cost on the
/// root's clock — a root NIC draining one message at a time). Only
/// `root`'s `data` ends up holding the sum.
pub fn flat_gather_sum(comm: &mut Comm, root: usize, data: &mut [f32], category: TimeCategory) {
    let p = comm.size();
    if p == 1 {
        return;
    }
    if comm.rank() != root {
        // The root's clock carries the transfer cost, mirroring
        // `recv_costed`'s receiver-driven accounting.
        comm.send_costed(root, tags::FLAT_GATHER, data, 0.0, category);
        return;
    }
    let bytes = data.len() * 4;
    let mut tmp = comm.take_buffer(data.len());
    for r in 0..p {
        if r == root {
            continue;
        }
        let transfer = comm.link_time(bytes);
        comm.recv_costed_into(r, tags::FLAT_GATHER, transfer, category, category, &mut tmp);
        assert_eq!(tmp.len(), data.len(), "flat gather length mismatch");
        for (d, v) in data.iter_mut().zip(tmp.iter()) {
            *d += v;
        }
    }
    comm.recycle_buffer(tmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, VirtualCluster};

    #[test]
    fn chunk_bounds_cover_exactly() {
        for (n, p) in [(10usize, 3usize), (7, 7), (5, 2), (16, 4), (3, 5)] {
            let mut total = 0;
            let mut expected_start = 0;
            for c in 0..p {
                let (s, e) = chunk_bounds(n, p, c);
                assert_eq!(s, expected_start);
                total += e - s;
                expected_start = e;
            }
            assert_eq!(total, n);
        }
    }

    #[test]
    fn matches_hub_allreduce() {
        for p in [2usize, 3, 4, 7] {
            let cfg = ClusterConfig::new(p);
            let outs = VirtualCluster::run(&cfg, |comm| {
                let n = 23;
                let mut ring: Vec<f32> = (0..n).map(|i| (comm.rank() * n + i) as f32).collect();
                let mut hub = Vec::new();
                comm.allreduce_sum_into(&ring, TimeCategory::Other, &mut hub);
                ring_allreduce_sum(comm, &mut ring, TimeCategory::GpuGpuParam);
                (ring, hub)
            });
            for (ring, hub) in outs {
                for (a, b) in ring.iter().zip(&hub) {
                    assert!((a - b).abs() < 1e-3, "p={p}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let cfg = ClusterConfig::new(1);
        let outs = VirtualCluster::run(&cfg, |comm| {
            let mut v = vec![1.0f32, 2.0, 3.0];
            ring_allreduce_sum(comm, &mut v, TimeCategory::Other);
            v
        });
        assert_eq!(outs[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn short_vectors_with_more_ranks_than_elements() {
        let cfg = ClusterConfig::new(5);
        let outs = VirtualCluster::run(&cfg, |comm| {
            let mut v = vec![1.0f32, 1.0];
            ring_allreduce_sum(comm, &mut v, TimeCategory::Other);
            v
        });
        for v in outs {
            assert_eq!(v, vec![5.0, 5.0]);
        }
    }

    #[test]
    fn ring_charges_bandwidth_efficient_time() {
        // For a large vector the executable ring's simulated time must be
        // close to the Rabenseifner closed form and below the tree cost.
        let p = 8;
        let n = 1_000_000; // 4 MB
        let cfg = ClusterConfig::new(p);
        let link = cfg.link.clone();
        let times = VirtualCluster::run(&cfg, |comm| {
            let mut v = vec![1.0f32; n];
            ring_allreduce_sum(comm, &mut v, TimeCategory::GpuGpuParam);
            comm.now()
        });
        let ring_time = times.iter().cloned().fold(0.0f64, f64::max);
        let tree = 2.0 * easgd_hardware::collective::reduce_tree(&link, p, n * 4);
        assert!(
            ring_time < tree,
            "ring {ring_time:.6}s should beat 2x tree {tree:.6}s for large messages"
        );
        // Within 3x of the ideal closed form (the executable schedule has
        // pipeline fill effects the formula ignores).
        let ideal = easgd_hardware::collective::allreduce_rabenseifner(&link, p, n * 4);
        assert!(ring_time < 3.0 * ideal, "ring {ring_time} vs ideal {ideal}");
    }

    #[test]
    fn tree_allreduce_matches_hub_allreduce() {
        for p in [2usize, 3, 4, 7, 8] {
            let cfg = ClusterConfig::new(p);
            let outs = VirtualCluster::run(&cfg, |comm| {
                let n = 19;
                let mut mine: Vec<f32> = (0..n).map(|i| (comm.rank() * n + i) as f32).collect();
                let mut hub = Vec::new();
                comm.allreduce_sum_into(&mine, TimeCategory::Other, &mut hub);
                tree_allreduce_sum(comm, &mut mine, TimeCategory::GpuGpuParam);
                (mine, hub)
            });
            for (tree, hub) in outs {
                for (a, b) in tree.iter().zip(&hub) {
                    assert!((a - b).abs() < 1e-3, "p={p}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn tree_reduce_delivers_sum_to_root_only_contract() {
        let p = 6;
        let root = 2;
        let cfg = ClusterConfig::new(p);
        let outs = VirtualCluster::run(&cfg, |comm| {
            let mut v = vec![comm.rank() as f32 + 1.0; 5];
            tree_reduce_sum(comm, root, &mut v, TimeCategory::Other);
            v
        });
        let expected: f32 = (1..=p as i32).map(|r| r as f32).sum();
        assert_eq!(outs[root], vec![expected; 5]);
    }

    #[test]
    fn tree_among_subgroup_leaves_outsiders_untouched() {
        // Ranks {1, 2, 3} reduce + broadcast among themselves; rank 0
        // never participates.
        let cfg = ClusterConfig::new(4);
        let participants = [1usize, 2, 3];
        let outs = VirtualCluster::run(&cfg, |comm| {
            let mut v = vec![comm.rank() as f32; 3];
            if participants.contains(&comm.rank()) {
                tree_reduce_sum_among(comm, &participants, 1, &mut v, TimeCategory::Other);
                tree_broadcast_among(comm, &participants, 1, &mut v, TimeCategory::Other);
            }
            v
        });
        assert_eq!(outs[0], vec![0.0; 3]);
        for r in participants {
            assert_eq!(outs[r], vec![6.0; 3], "rank {r}");
        }
    }

    #[test]
    fn executable_tree_time_matches_formula_at_powers_of_two() {
        // At P = 2^k the binomial critical path is exactly
        // ceil(log2 P) serial full-size hops — the reduce_tree formula.
        for p in [2usize, 4, 8] {
            let n = 50_000;
            let cfg = ClusterConfig::new(p);
            let link = cfg.link.clone();
            let times = VirtualCluster::run(&cfg, |comm| {
                let mut v = vec![1.0f32; n];
                tree_reduce_sum(comm, 0, &mut v, TimeCategory::GpuGpuParam);
                comm.now()
            });
            let exec = times.iter().cloned().fold(0.0f64, f64::max);
            let formula = easgd_hardware::collective::reduce_tree(&link, p, n * 4);
            assert!(
                (exec - formula).abs() < 1e-12,
                "p={p}: executable {exec} vs formula {formula}"
            );
        }
        // Off powers of two the executable path can only be faster.
        let p = 6;
        let n = 50_000;
        let cfg = ClusterConfig::new(p);
        let link = cfg.link.clone();
        let times = VirtualCluster::run(&cfg, |comm| {
            let mut v = vec![1.0f32; n];
            tree_reduce_sum(comm, 0, &mut v, TimeCategory::GpuGpuParam);
            comm.now()
        });
        let exec = times.iter().cloned().fold(0.0f64, f64::max);
        let formula = easgd_hardware::collective::reduce_tree(&link, p, n * 4);
        assert!(exec <= formula + 1e-12, "p={p}: {exec} vs {formula}");
    }

    #[test]
    fn tree_role_edges_are_mutually_consistent() {
        // For every participant-set size and root: each non-root has
        // exactly one parent, the parent lists it as a child under the
        // same mask, and the edges form one tree spanning all ranks.
        for p in 1..=9usize {
            let ranks: Vec<usize> = (0..p).map(|r| r + 3).collect(); // offset real ids
            for &root in &ranks {
                let roles: Vec<TreeRole> = ranks
                    .iter()
                    .map(|&me| TreeRole::compute(&ranks, root, me))
                    .collect();
                let mut edges = 0;
                for (i, role) in roles.iter().enumerate() {
                    let me = ranks[i];
                    if me == root {
                        assert!(role.parent.is_none(), "root has no parent");
                    } else {
                        let (parent, mask) = role.parent.expect("non-root has a parent");
                        let pi = ranks.iter().position(|&r| r == parent).unwrap();
                        assert!(
                            roles[pi].children.contains(&(me, mask)),
                            "p={p} root={root}: parent {parent} must list {me} (mask {mask})"
                        );
                        edges += 1;
                    }
                    // Children are in mask-descending (broadcast) order.
                    for w in role.children.windows(2) {
                        assert!(w[0].1 > w[1].1, "children must descend by mask");
                    }
                }
                let total_children: usize = roles.iter().map(|r| r.children.len()).sum();
                assert_eq!(
                    total_children, edges,
                    "every child edge has one parent edge"
                );
                assert_eq!(edges, p - 1, "a spanning tree has p-1 edges");
            }
        }
    }

    #[test]
    fn arithmetic_all_ranks_role_equals_the_listed_one() {
        for p in 1..=130usize {
            let identity: Vec<usize> = (0..p).collect();
            for root in 0..p {
                for me in 0..p {
                    let listed = TreeRole::compute(&identity, root, me);
                    assert_eq!(TreeRole::among_all(p, root, me), listed);
                }
            }
        }
    }

    /// `1 + seed % p` distinct ranks of a `p`-rank cluster in seeded
    /// random order, and one of them as root.
    fn random_subgroup(seed: u64, p: usize) -> (Vec<usize>, usize) {
        let mut rng = proptest::test_runner::TestRng::from_name(&seed.to_string());
        let mut ranks: Vec<usize> = (0..p).collect();
        for i in (1..p).rev() {
            ranks.swap(i, rng.next_u64() as usize % (i + 1));
        }
        ranks.truncate(1 + seed as usize % p);
        let root = ranks[rng.next_u64() as usize % ranks.len()];
        (ranks, root)
    }

    proptest::proptest! {
        #[test]
        fn every_subgroup_member_but_the_root_has_one_parent_that_lists_it(
            seed in 0u64..u64::MAX,
            p in 1usize..65,
        ) {
            let (ranks, root) = random_subgroup(seed, p);
            let role = |me| TreeRole::compute(&ranks, root, me);
            assert_eq!(role(root).parent, None);
            for &me in ranks.iter().filter(|&&me| me != root) {
                let (parent, mask) = role(me).parent.expect("non-root has a parent");
                let naming_me = |r: &&usize| role(**r).children.iter().any(|c| c.0 == me);
                assert_eq!(ranks.iter().filter(naming_me).collect::<Vec<_>>(), [&parent]);
                assert!(role(parent).children.contains(&(me, mask)));
            }
        }

        #[test]
        fn subgroup_tree_allreduce_is_bit_identical_on_threads_and_events(
            seed in 0u64..u64::MAX,
            p in 1usize..65,
        ) {
            use crate::backend::ClusterBackend::{Events, Threads};
            let (ranks, root) = random_subgroup(seed, p);
            let run = |backend| {
                VirtualCluster::run(&ClusterConfig::new(p).with_backend(backend), |comm| {
                    let me = comm.rank();
                    let mut v: Vec<f32> = (0..5).map(|i| 1.0 / (1 + me * 5 + i) as f32).collect();
                    if ranks.contains(&me) {
                        comm.charge(TimeCategory::ForwardBackward, 1e-4 * (me % 7) as f64);
                        tree_allreduce_sum_among(comm, &ranks, root, &mut v, TimeCategory::Other);
                    }
                    let bits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
                    (bits, comm.now().to_bits())
                })
            };
            assert_eq!(run(Threads), run(Events), "ranks {ranks:?} root {root}");
        }
    }

    #[test]
    fn tree_role_matches_the_serial_broadcast_schedule() {
        // Drive a broadcast purely from TreeRole edges (recv from parent,
        // send to children in listed order) and check it agrees with the
        // serial tree_broadcast_among — same tags, same values.
        let cfg = ClusterConfig::new(5);
        let participants = [0usize, 1, 2, 3, 4];
        let root = 2;
        let outs = VirtualCluster::run(&cfg, |comm| {
            let role = TreeRole::compute(&participants, root, comm.rank());
            let mut data = if comm.rank() == root {
                vec![42.0f32; 4]
            } else {
                Vec::new()
            };
            if let Some((parent, mask)) = role.parent {
                comm.recv_into(
                    parent,
                    tags::TREE_BCAST | mask as u32,
                    TimeCategory::Other,
                    &mut data,
                );
            }
            for &(child, mask) in &role.children {
                comm.send(
                    child,
                    tags::TREE_BCAST | mask as u32,
                    &data,
                    TimeCategory::Other,
                );
            }
            data
        });
        for v in outs {
            assert_eq!(v, vec![42.0; 4]);
        }
    }

    #[test]
    fn tree_reduce_beats_flat_gather_at_eight_ranks() {
        let p = 8;
        let n = 200_000;
        let run = |use_tree: bool| {
            let cfg = ClusterConfig::new(p);
            let times = VirtualCluster::run(&cfg, |comm| {
                let mut v = vec![1.0f32; n];
                if use_tree {
                    tree_reduce_sum(comm, 0, &mut v, TimeCategory::GpuGpuParam);
                } else {
                    flat_gather_sum(comm, 0, &mut v, TimeCategory::GpuGpuParam);
                }
                (comm.now(), v)
            });
            // The root's completion time is the collective's cost.
            assert_eq!(times[0].1, vec![p as f32; n]);
            times[0].0
        };
        let tree = run(true);
        let flat = run(false);
        assert!(
            tree <= flat,
            "tree reduce {tree:.6}s must not exceed flat gather-sum {flat:.6}s at P={p}"
        );
    }
}
