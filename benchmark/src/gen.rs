// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! Seeded input generators: `--seed` is the only source of randomness.
//!
//! Schedules and payload choices come from a generator owned here
//! (SplitMix64), so a later change to the library's `Rng` cannot move
//! the benchmark's inputs. Image data comes from `easgd-data`'s
//! synthetic tasks — the library's generator is itself a measured layer
//! (`data.generate_s`) — seeded from the same `--seed`.

use easgd_data::{Dataset, SyntheticSpec};

/// The default seed of `run.sh`, and the seed held back for claims
/// (see README.md): a gain must also hold on the second, which no
/// change was tuned on.
pub const DEFAULT_SEED: u64 = 20170811;
pub const HELD_BACK_SEED: u64 = 1708_02983;

/// SplitMix64: tiny, well mixed, and every output is a pure function of
/// `(seed, draw index)`.
#[derive(Clone, Debug)]
pub struct Prng(u64);

impl Prng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.uniform() * n as f64) as usize
    }
}

/// Independent sub-seed `stream` of the run seed, so the dataset, the
/// model initialisation, the schedule and the payload choice never
/// share a random stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut p = Prng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    p.next_u64()
}

/// Open-loop Poisson schedule: due times in microseconds from the phase
/// start, exponential gaps with mean `1e6 / rate_per_s`, until
/// `duration_us`. Independent users, so no due time depends on a reply.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_us: u64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "rate must be positive");
    let mean_gap_us = 1e6 / rate_per_s;
    let mut rng = Prng::new(seed);
    let mut due = Vec::with_capacity((rate_per_s * duration_us as f64 / 1e6 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 − u is in (0, 1], so the logarithm is finite.
        t += -mean_gap_us * (1.0 - rng.uniform()).ln();
        if t >= duration_us as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// Which image of a `pool`-image payload pool each of `n` requests carries.
pub fn payload_choices(seed: u64, n: usize, pool: usize) -> Vec<u32> {
    let mut rng = Prng::new(seed);
    (0..n).map(|_| rng.below(pool) as u32).collect()
}

/// Train and test sets of a synthetic task generated by `easgd-data`.
/// The noise is lowered from the crate's preset so that every seed
/// clears the workloads' accuracy checks within their short calls: the
/// benchmark needs a task on which no operation fails, not a hard one.
pub fn task_data(
    spec: SyntheticSpec,
    seed: u64,
    n_train: usize,
    n_test: usize,
) -> (Dataset, Dataset) {
    let spec = SyntheticSpec {
        noise: spec.noise * 0.5,
        ..spec
    };
    spec.task(sub_seed(seed, 1))
        .train_test(n_train, n_test, sub_seed(seed, 2))
}

/// FNV-1a 64 over everything a run generated, printed in the run header
/// so two runs can be seen to have had byte-identical inputs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn words<const N: usize>(&mut self, words: impl Iterator<Item = [u8; N]>) {
        for b in words.flatten() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f32s(&mut self, xs: &[f32]) {
        self.words(xs.iter().map(|x| x.to_bits().to_le_bytes()));
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        self.words(xs.iter().map(|x| x.to_bits().to_le_bytes()));
    }

    pub fn u64s(&mut self, xs: &[u64]) {
        self.words(xs.iter().map(|x| x.to_le_bytes()));
    }

    pub fn u32s(&mut self, xs: &[u32]) {
        self.words(xs.iter().map(|x| x.to_le_bytes()));
    }

    pub fn dataset(&mut self, d: &Dataset) {
        for i in 0..d.len() {
            self.f32s(d.image(i));
        }
        self.words(d.labels().iter().map(|&l| (l as u64).to_le_bytes()));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(seed: u64) -> u64 {
        let (train, test) = task_data(SyntheticSpec::mnist_small(), seed, 40, 10);
        let mut d = Digest::default();
        d.dataset(&train);
        d.dataset(&test);
        d.u64s(&poisson_schedule(sub_seed(seed, 3), 2500.0, 200_000));
        d.u32s(&payload_choices(sub_seed(seed, 4), 500, 64));
        d.finish()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(digest_of(7), digest_of(7));
        let (a, _) = task_data(SyntheticSpec::mnist_small(), 7, 40, 10);
        let (b, _) = task_data(SyntheticSpec::mnist_small(), 7, 40, 10);
        for i in 0..a.len() {
            let (x, y) = (a.image(i), b.image(i));
            assert!(x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
        assert_eq!(
            poisson_schedule(9, 500.0, 1_000_000),
            poisson_schedule(9, 500.0, 1_000_000)
        );
        assert_eq!(payload_choices(9, 100, 16), payload_choices(9, 100, 16));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(digest_of(7), digest_of(8));
        assert_ne!(
            poisson_schedule(9, 500.0, 1_000_000),
            poisson_schedule(10, 500.0, 1_000_000)
        );
        assert_ne!(payload_choices(9, 100, 16), payload_choices(10, 100, 16));
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
    }

    #[test]
    fn poisson_schedule_is_sorted_and_near_its_rate() {
        let due = poisson_schedule(5, 2500.0, 4_000_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| t < 4_000_000));
        // 10 000 expected, standard deviation 100: ±5σ.
        assert!(
            (9_500..=10_500).contains(&due.len()),
            "{} arrivals",
            due.len()
        );
    }

    #[test]
    fn payload_choices_stay_inside_the_pool() {
        assert!(payload_choices(3, 10_000, 7).iter().all(|&c| c < 7));
    }

    #[test]
    fn the_two_named_seeds_differ() {
        assert_ne!(DEFAULT_SEED, HELD_BACK_SEED);
    }
}
