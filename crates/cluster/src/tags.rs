//! The workspace tag-range registry.
//!
//! Every point-to-point tag in the tree — trainer exchanges and
//! executable collectives alike — is drawn from a named constant (or
//! range constructor) defined here, so the full `u32` tag space is
//! partitioned in one auditable place and no two subsystems can collide.
//! xtask lint rule 7 (`tag-discipline`) enforces the discipline: comm
//! call sites in `crates/cluster/src/` and `crates/core/src/` may not
//! pass bare integer literals as tags, and tag constants may not be
//! defined from literals outside this module.
//!
//! Layout (see [`RANGES`] for the machine-readable table):
//!
//! | range                       | owner                                    |
//! |-----------------------------|------------------------------------------|
//! | `0x0100_0000`               | Sync EASGD batch fan-out (CPU → GPUs)    |
//! | `0x0200_0000..=0x0200_0002` | Original EASGD data / center / weight    |
//! | `0x0300_0000`               | Async parameter-server requests          |
//! | `0x0310_0000 + worker`      | Async parameter-server replies           |
//! | `0x0400_0000 + round % 4096`| Hierarchical intra-node reduce rounds    |
//! | `0x4100_0000 \| mask`       | Binomial-tree reduce steps               |
//! | `0x4200_0000 \| mask`       | Binomial-tree broadcast steps            |
//! | `0x4300_0000`               | Flat gather-sum baseline                 |
//! | `0x4400_0000 \| …`          | Nonblocking segmented exchange           |
//! | `0x4500_0000 \| kind, root` | Hub collectives (`Comm::barrier`, …)     |
//! | `0x8000_0000 \| …`          | Ring allreduce (phase, step)             |

/// Sync EASGD's CPU→GPU batch fan-out ([`BatchMsg`](crate::BatchMsg)
/// payloads).
pub const SYNC_DATA: u32 = 0x0100_0000;

/// Original EASGD: one training batch from the master.
pub const ORIG_DATA: u32 = 0x0200_0000;
/// Original EASGD: the center variable `W̄` pushed down to a worker.
pub const ORIG_CENTER: u32 = 0x0200_0001;
/// Original EASGD: a worker's weights pushed up to the master.
pub const ORIG_WEIGHT: u32 = 0x0200_0002;

/// Async parameter server: worker→master requests (gradients or
/// weights, per [`AsyncVariant`](../easgd/enum.AsyncVariant.html)).
pub const ASYNC_REQ: u32 = 0x0300_0000;
/// Base of the async master→worker reply range; use [`async_reply`].
pub const ASYNC_REPLY_BASE: u32 = 0x0310_0000;
/// Width of the async reply range (one tag per worker rank).
pub const ASYNC_REPLY_SPAN: u32 = 0x0001_0000;

/// The async master's reply tag for `worker` (per-destination tags keep
/// a slow worker's stale reply from being matched by a later request
/// cycle on another rank).
pub fn async_reply(worker: usize) -> u32 {
    debug_assert!(
        (worker as u32) < ASYNC_REPLY_SPAN,
        "worker rank out of tag range"
    );
    ASYNC_REPLY_BASE + worker as u32
}

/// Base of the hierarchical intra-node reduce range; use [`hier_round`].
pub const HIER_ROUND_BASE: u32 = 0x0400_0000;
/// Number of distinct round tags before the hierarchical range wraps.
pub const HIER_ROUND_SPAN: u32 = 0x1000;

/// Hierarchical EASGD's per-round intra-node reduce tag. Rounds are
/// disambiguated modulo [`HIER_ROUND_SPAN`] — far more in-flight rounds
/// than any schedule can overlap.
pub fn hier_round(round: usize) -> u32 {
    HIER_ROUND_BASE + (round as u32 % HIER_ROUND_SPAN)
}

/// Binomial-tree reduce steps (`| mask` disambiguates tree levels).
pub const TREE_REDUCE: u32 = 0x4100_0000;
/// Binomial-tree broadcast steps (`| mask` disambiguates tree levels).
pub const TREE_BCAST: u32 = 0x4200_0000;
/// Width of each tree range: the level mask occupies the low 24 bits.
pub const TREE_SPAN: u32 = 0x0100_0000;
/// The flat gather-sum baseline (single tag; sources disambiguate).
pub const FLAT_GATHER: u32 = 0x4300_0000;

/// Base of the nonblocking segmented-exchange range; use [`seg_tree`].
/// Reserved for the pipelined executable tree: every `isend`/`irecv`
/// pair on that path draws its tag from here, so out-of-order waits can
/// never cross-match two segments (or a segment against a whole-vector
/// tree step).
pub const SEG_EXCHANGE_BASE: u32 = 0x4400_0000;
/// Width of the segmented-exchange range: segment (8 bits) << 16,
/// phase (1 bit) << 15, tree level mask (15 bits).
pub const SEG_EXCHANGE_SPAN: u32 = 0x0100_0000;
/// [`seg_tree`] phase selector: the broadcast half of the exchange.
pub const SEG_PHASE_BCAST: u32 = 0;
/// [`seg_tree`] phase selector: the reduce half of the exchange.
pub const SEG_PHASE_REDUCE: u32 = 1;

/// Pipelined segmented-exchange tag: `segment` is the parameter-arena
/// segment index, `phase` is [`SEG_PHASE_BCAST`] or [`SEG_PHASE_REDUCE`],
/// and `mask` is the binomial-tree level (as in the whole-vector tree
/// tags).
pub fn seg_tree(segment: usize, phase: u32, mask: usize) -> u32 {
    debug_assert!(
        segment < 256 && phase < 2 && mask < 0x8000,
        "segmented-exchange tag out of range: segment {segment}, phase {phase}, mask {mask}"
    );
    SEG_EXCHANGE_BASE | ((segment as u32) << 16) | (phase << 15) | (mask as u32)
}

/// Base of the hub-collective range; use [`hub`].
pub const HUB_BASE: u32 = 0x4500_0000;
/// Width of the hub range: op kind (4 bits) << 20.
pub const HUB_SPAN: u32 = 0x0100_0000;

/// Tag of one hub collective (`Comm::barrier`, `allreduce_sum_into`, …),
/// for contributions and result alike. One per op `kind`, so ranks that
/// disagree about the collective they are in never match each other's
/// messages: a deadlock, not an answer.
pub fn hub(kind: u32) -> u32 {
    debug_assert!(kind < 16, "hub tag out of range: kind {kind}");
    HUB_BASE | (kind << 20)
}

/// Base of the ring-allreduce range; use [`ring`].
pub const RING_BASE: u32 = 0x8000_0000;
/// Width of the ring range: phase (1 bit) << 16 | step (16 bits).
pub const RING_SPAN: u32 = 0x0002_0000;

/// Ring allreduce step tag: `phase` 0 is the reduce-scatter, 1 the
/// allgather; `step` is the ring iteration.
pub fn ring(phase: u32, step: usize) -> u32 {
    debug_assert!(
        phase < 2 && (step as u32) < 0x1_0000,
        "ring tag out of range"
    );
    RING_BASE | (phase << 16) | (step as u32)
}

/// The registry as `(owner, start, width)` half-open ranges — the
/// machine-readable form of the module-level table, used by the
/// disjointness test below and available to diagnostics.
pub const RANGES: &[(&str, u32, u32)] = &[
    ("sync-data", SYNC_DATA, 1),
    ("orig-data", ORIG_DATA, 3),
    ("async-req", ASYNC_REQ, 1),
    ("async-reply", ASYNC_REPLY_BASE, ASYNC_REPLY_SPAN),
    ("hier-round", HIER_ROUND_BASE, HIER_ROUND_SPAN),
    ("tree-reduce", TREE_REDUCE, TREE_SPAN),
    ("tree-bcast", TREE_BCAST, TREE_SPAN),
    ("flat-gather", FLAT_GATHER, 1),
    ("seg-exchange", SEG_EXCHANGE_BASE, SEG_EXCHANGE_SPAN),
    ("hub", HUB_BASE, HUB_SPAN),
    ("ring", RING_BASE, RING_SPAN),
];

/// The registry range containing `tag`, if any (for diagnostics).
pub fn owner_of(tag: u32) -> Option<&'static str> {
    RANGES
        .iter()
        .find(|(_, start, width)| (*start..start + width).contains(&tag))
        .map(|(name, _, _)| *name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_pairwise_disjoint() {
        for (i, (na, sa, wa)) in RANGES.iter().enumerate() {
            for (nb, sb, wb) in &RANGES[i + 1..] {
                let a = *sa as u64..*sa as u64 + *wa as u64;
                let b = *sb as u64..*sb as u64 + *wb as u64;
                assert!(
                    a.end <= b.start || b.end <= a.start,
                    "tag ranges {na} and {nb} overlap"
                );
            }
        }
    }

    #[test]
    fn constructors_stay_inside_their_ranges() {
        assert_eq!(owner_of(async_reply(0)), Some("async-reply"));
        assert_eq!(owner_of(async_reply(65535)), Some("async-reply"));
        assert_eq!(owner_of(hier_round(0)), Some("hier-round"));
        assert_eq!(owner_of(hier_round(123_456)), Some("hier-round"));
        assert_eq!(owner_of(ring(0, 0)), Some("ring"));
        assert_eq!(owner_of(ring(1, 65_535)), Some("ring"));
        assert_eq!(owner_of(TREE_REDUCE | 0x40), Some("tree-reduce"));
        assert_eq!(owner_of(TREE_BCAST | 0x40), Some("tree-bcast"));
        assert_eq!(
            owner_of(seg_tree(0, SEG_PHASE_BCAST, 0)),
            Some("seg-exchange")
        );
        assert_eq!(
            owner_of(seg_tree(255, SEG_PHASE_REDUCE, 0x7fff)),
            Some("seg-exchange")
        );
        assert_eq!(owner_of(hub(0)), Some("hub"));
        assert_eq!(owner_of(hub(15)), Some("hub"));
    }

    #[test]
    fn seg_tree_tags_are_injective_over_the_pipeline_schedule() {
        // Distinct (segment, phase, mask) triples must never collide:
        // out-of-order waits rely on per-segment tag selectivity.
        let mut seen = std::collections::HashSet::new();
        for segment in [0usize, 1, 7, 255] {
            for phase in [SEG_PHASE_BCAST, SEG_PHASE_REDUCE] {
                for mask in [0usize, 1, 2, 4, 0x4000] {
                    assert!(seen.insert(seg_tree(segment, phase, mask)));
                }
            }
        }
    }

    #[test]
    fn owner_of_unregistered_tag_is_none() {
        assert_eq!(owner_of(0x7fff_ffff), None);
    }
}
