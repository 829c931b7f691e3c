//! Worker dataset shards and the *one* seed-derivation rule.
//!
//! Every trainer in the family gives worker `w` a private RNG stream
//! derived from the run seed. Before the engine existed each trainer
//! hand-rolled the XOR-multiply expression; the variants that matter are
//! now named here:
//!
//! * [`worker_rng`] — `seed ⊕ (w+1)·salt`, the per-worker rule of the
//!   shared-memory trainers (salt [`SALT_PHI`]) and the Hogwild family
//!   (salt [`SALT_HOGWILD`]; a different salt so the lock-free runs do
//!   not replay the locked runs' sample sequences).
//! * [`rank_rng`] — `seed ⊕ rank·salt`, the simulated-cluster rule where
//!   rank 0 is the master (so computing ranks start at 1 and no `+1`
//!   offset is needed); the FCFS server's jitter draws from it under
//!   [`SALT_JITTER`].
//! * [`additive_rng`] — `seed + offset`, the synchronous simulators'
//!   rule.
//!
//! These must not be "simplified" into one another: golden-trace tests
//! pin the exact sample sequences each rule produces.

use easgd_data::{Batch, Dataset};
use easgd_tensor::Rng;

/// Weyl-sequence increment (2⁶⁴/φ): the salt of the locked shared-memory
/// family, the simulated-cluster workers, and the KNL partition groups.
pub const SALT_PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Salt of the Hogwild (lock-free) family.
pub const SALT_HOGWILD: u64 = 0xA24B_AED4_963E_E407;

/// Salt of the simulated FCFS server's compute jitter: a stream of its
/// own, so the draws leave each worker's batch stream (`SALT_PHI`) as
/// the locked server reads it.
pub const SALT_JITTER: u64 = 0xD6E8_FEB8_6659_FD93;

/// The seed-derivation rule: stream `i` draws from `seed ⊕ i·salt`.
pub fn derive_seed(seed: u64, salt: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(salt)
}

/// RNG of worker `w` in a 0-indexed worker pool: stream `w + 1`, so
/// worker 0 does not collapse onto the raw seed.
pub fn worker_rng(seed: u64, salt: u64, worker: usize) -> Rng {
    Rng::new(derive_seed(seed, salt, worker as u64 + 1))
}

/// RNG of cluster rank `rank` where rank 0 is a master: stream `rank`
/// with no offset (computing ranks are already ≥ 1).
pub fn rank_rng(seed: u64, salt: u64, rank: usize) -> Rng {
    Rng::new(derive_seed(seed, salt, rank as u64))
}

/// RNG from a plain additive offset (the synchronous simulators' rule).
pub fn additive_rng(seed: u64, offset: u64) -> Rng {
    Rng::new(seed.wrapping_add(offset))
}

/// One worker's slice of the training set plus its private batch cursor:
/// the dataset partition and the RNG stream that samples from it.
pub struct WorkerShard {
    worker: usize,
    data: Dataset,
    rng: Rng,
}

impl WorkerShard {
    /// Wraps an already-partitioned dataset for worker `worker`.
    pub fn new(worker: usize, data: Dataset, rng: Rng) -> Self {
        Self { worker, data, rng }
    }

    /// Partitions `train` across `workers` workers, deriving each
    /// worker's RNG with [`worker_rng`] under `salt`.
    pub fn from_partition(train: &Dataset, workers: usize, seed: u64, salt: u64) -> Vec<Self> {
        train
            .partition(workers)
            .into_iter()
            .enumerate()
            .map(|(w, data)| Self::new(w, data, worker_rng(seed, salt, w)))
            .collect()
    }

    /// Draws the next mini-batch from this worker's shard.
    pub fn next_batch(&mut self, batch: usize) -> Batch {
        self.data.sample_batch(&mut self.rng, batch)
    }

    /// This shard's 0-indexed worker id.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The shard's dataset slice.
    pub fn data(&self) -> &Dataset {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_data::SyntheticSpec;

    #[test]
    fn derive_seed_matches_the_historical_expressions() {
        let seed = 0x5C17u64;
        // Shared-memory worker rule.
        assert_eq!(
            derive_seed(seed, SALT_PHI, 3 + 1),
            seed ^ (4u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        );
        // Hogwild worker rule.
        assert_eq!(
            derive_seed(seed, SALT_HOGWILD, 1),
            seed ^ 0xA24B_AED4_963E_E407
        );
    }

    #[test]
    fn worker_and_rank_rules_differ_by_the_offset() {
        // rank_rng(r) must equal worker_rng(r-1): the cluster rule has no
        // +1 because rank 0 is the master.
        let a = worker_rng(7, SALT_PHI, 1).next_u64();
        let b = rank_rng(7, SALT_PHI, 2).next_u64();
        assert_eq!(a, b);
        // And rank 1 is NOT worker 1.
        let c = rank_rng(7, SALT_PHI, 1).next_u64();
        assert_ne!(a, c);
    }

    #[test]
    fn shards_cover_the_training_set() {
        let task = SyntheticSpec::mnist_small().task(5);
        let (train, _) = task.train_test(64, 16, 6);
        let shards = WorkerShard::from_partition(&train, 4, 9, SALT_PHI);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.data().len()).sum();
        assert_eq!(total, train.len());
        for (w, s) in shards.iter().enumerate() {
            assert_eq!(s.worker(), w);
        }
    }

    #[test]
    fn next_batch_replays_the_historical_sampler() {
        let task = SyntheticSpec::mnist_small().task(5);
        let (train, _) = task.train_test(64, 16, 6);
        let seed = 0xAB;
        let mut shards = WorkerShard::from_partition(&train, 2, seed, SALT_PHI);
        // The pre-engine trainers did: partition, then
        // sample_batch(&mut worker_rng, b) on the w-th piece.
        let pieces = train.partition(2);
        let mut rng = worker_rng(seed, SALT_PHI, 1);
        let want = pieces[1].sample_batch(&mut rng, 8);
        let got = shards[1].next_batch(8);
        assert_eq!(got.labels, want.labels);
        assert_eq!(got.images.as_slice(), want.images.as_slice());
    }
}
