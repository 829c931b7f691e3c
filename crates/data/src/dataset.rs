//! The in-memory dataset container and batch sampler.

use easgd_tensor::{Rng, Tensor};

/// One training batch: images `[B, …shape]` and integer labels.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Batched images.
    pub images: Tensor,
    /// One label per sample.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Batch size.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// A labelled image dataset held in memory.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Dataset name (diagnostics).
    pub name: String,
    /// Per-sample shape, e.g. `[1, 28, 28]`.
    pub shape: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
    images: Vec<f32>,
    labels: Vec<usize>,
}

impl Dataset {
    /// Wraps raw storage.
    ///
    /// # Panics
    /// Panics if buffer sizes are inconsistent or a label is out of range.
    pub fn new(
        name: impl Into<String>,
        shape: Vec<usize>,
        classes: usize,
        images: Vec<f32>,
        labels: Vec<usize>,
    ) -> Self {
        let per: usize = shape.iter().product();
        assert!(per > 0, "empty sample shape");
        assert_eq!(
            images.len(),
            labels.len() * per,
            "images/labels size mismatch"
        );
        assert!(
            labels.iter().all(|&l| l < classes),
            "label out of range for {classes} classes"
        );
        Self {
            name: name.into(),
            shape,
            classes,
            images,
            labels,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Elements per sample.
    pub fn sample_len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Dataset size in bytes (f32 images) — what the KNL partitioning
    /// experiment (§6.2) feeds its MCDRAM capacity check.
    pub fn size_bytes(&self) -> usize {
        self.images.len() * 4
    }

    /// The raw image of sample `i`.
    pub fn image(&self, i: usize) -> &[f32] {
        let per = self.sample_len();
        &self.images[i * per..(i + 1) * per]
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// All images as one tensor `[N, …shape]` (for whole-set evaluation).
    pub fn as_tensor(&self) -> Tensor {
        let mut dims = vec![self.len()];
        dims.extend_from_slice(&self.shape);
        Tensor::from_vec(dims, self.images.clone())
    }

    /// Normalizes in place to zero mean and unit variance over the whole
    /// set (Algorithm 1 line 1: “Normalize X … E(X) = 0, σ(X) = 1”).
    ///
    /// No-op on an empty or constant dataset (σ would be 0).
    pub fn normalize(&mut self) {
        if self.images.is_empty() {
            return;
        }
        let n = self.images.len() as f64;
        let mean = self.images.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = self
            .images
            .iter()
            .map(|&x| (x as f64 - mean) * (x as f64 - mean))
            .sum::<f64>()
            / n;
        if var <= f64::EPSILON {
            return;
        }
        let inv_std = (1.0 / var.sqrt()) as f32;
        let mean = mean as f32;
        for x in &mut self.images {
            *x = (*x - mean) * inv_std;
        }
    }

    /// Draws a batch of `b` samples uniformly at random with replacement
    /// (Algorithm 1 line 8: “randomly picks b samples”).
    ///
    /// # Panics
    /// Panics on an empty dataset or `b == 0`.
    pub fn sample_batch(&self, rng: &mut Rng, b: usize) -> Batch {
        assert!(b > 0, "batch size must be > 0");
        assert!(!self.is_empty(), "cannot sample from an empty dataset");
        let per = self.sample_len();
        let mut images = Vec::with_capacity(b * per);
        let mut labels = Vec::with_capacity(b);
        for _ in 0..b {
            let i = rng.below(self.len());
            images.extend_from_slice(self.image(i));
            labels.push(self.labels[i]);
        }
        let mut dims = vec![b];
        dims.extend_from_slice(&self.shape);
        Batch {
            images: Tensor::from_vec(dims, images),
            labels,
        }
    }

    /// Partitions the dataset into `p` contiguous shards (data
    /// parallelism, §2.3: “the dataset is partitioned into P parts and
    /// each machine only gets one part”). Shard sizes differ by at most 1.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn partition(&self, p: usize) -> Vec<Dataset> {
        assert!(p > 0, "cannot partition into 0 shards");
        let per = self.sample_len();
        let n = self.len();
        let mut shards = Vec::with_capacity(p);
        let base = n / p;
        let extra = n % p;
        let mut start = 0;
        for i in 0..p {
            let count = base + usize::from(i < extra);
            let end = start + count;
            shards.push(Dataset {
                name: format!("{}-shard{i}", self.name),
                shape: self.shape.clone(),
                classes: self.classes,
                images: self.images[start * per..end * per].to_vec(),
                labels: self.labels[start..end].to_vec(),
            });
            start = end;
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        // 6 samples of shape [2], labels 0..2 repeating.
        let images = (0..12).map(|i| i as f32).collect();
        let labels = vec![0, 1, 2, 0, 1, 2];
        Dataset::new("t", vec![2], 3, images, labels)
    }

    #[test]
    fn accessors() {
        let d = tiny();
        assert_eq!(d.len(), 6);
        assert_eq!(d.sample_len(), 2);
        assert_eq!(d.image(2), &[4.0, 5.0]);
        assert_eq!(d.label(2), 2);
        assert_eq!(d.size_bytes(), 48);
    }

    #[test]
    fn normalize_gives_zero_mean_unit_var() {
        let mut d = tiny();
        d.normalize();
        let n = 12.0;
        let mean: f32 = d.images.iter().sum::<f32>() / n;
        let var: f32 = d
            .images
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / n;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-4);
    }

    #[test]
    fn normalize_constant_dataset_is_noop() {
        let mut d = Dataset::new("c", vec![2], 1, vec![3.0; 8], vec![0; 4]);
        d.normalize();
        assert!(d.images.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn sample_batch_draws_valid_pairs() {
        let d = tiny();
        let mut rng = Rng::new(1);
        let b = d.sample_batch(&mut rng, 10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.images.shape().dims(), &[10, 2]);
        // Each drawn image must match its label's source sample.
        for (s, &label) in b.labels.iter().enumerate() {
            let img = &b.images.as_slice()[s * 2..(s + 1) * 2];
            let found = (0..d.len()).any(|i| d.label(i) == label && d.image(i) == img);
            assert!(found);
        }
    }

    #[test]
    fn partition_covers_everything_once() {
        let d = tiny();
        let shards = d.partition(4);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, d.len());
        // Sizes differ by at most one.
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![2, 2, 1, 1]);
        assert_eq!(shards[0].image(0), d.image(0));
        assert_eq!(shards[3].image(0), d.image(5));
    }

    #[test]
    fn as_tensor_shape() {
        let d = tiny();
        let t = d.as_tensor();
        assert_eq!(t.shape().dims(), &[6, 2]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn new_rejects_inconsistent_buffers() {
        let _ = Dataset::new("bad", vec![2], 2, vec![0.0; 5], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_bad_labels() {
        let _ = Dataset::new("bad", vec![1], 2, vec![0.0; 2], vec![0, 2]);
    }
}
