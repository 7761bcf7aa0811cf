//! In-memory datasets, train/test splits and per-worker shards.

use crate::synthetic::{SyntheticImageSpec, SyntheticVectorSpec};
use dssp_tensor::Tensor;
use std::ops::Range;

/// Which portion of a dataset an operation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// The training split (sharded across workers).
    Train,
    /// The held-out test split (used for accuracy evaluation).
    Test,
}

/// The example count of each worker's block when `train_len` training examples are
/// split over `workers`: the first `train_len % workers` blocks hold one example more
/// than the rest. The one place that arithmetic lives ([`Dataset::shard_train`],
/// [`Examples::into_shard`] and every server's iteration targets use it).
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn shard_sizes(train_len: usize, workers: usize) -> Vec<usize> {
    assert!(workers > 0, "cannot shard across zero workers");
    (0..workers)
        .map(|w| train_len / workers + usize::from(w < train_len % workers))
        .collect()
}

/// One generated split: flat features plus labels, in generation order. A role that
/// reads one split generates only it (`SyntheticImageSpec::generate_split`) and moves
/// out what it reads.
#[derive(Debug, Clone)]
pub struct Examples {
    pub(crate) features: Vec<f32>,
    pub(crate) labels: Vec<usize>,
    pub(crate) example_len: usize,
    pub(crate) example_dims: Vec<usize>,
    pub(crate) classes: usize,
}

impl Examples {
    /// Worker `rank`'s shard of this (training) split over `workers`, moved out in
    /// place: the same examples as `Dataset::shard_train(workers)[rank]`, without
    /// copying the other workers' blocks.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `rank` is out of range.
    pub fn into_shard(mut self, workers: usize, rank: usize) -> Shard {
        let sizes = shard_sizes(self.labels.len(), workers);
        assert!(
            rank < workers,
            "worker rank {rank} out of range for {workers} workers"
        );
        let start: usize = sizes[..rank].iter().sum();
        let (end, len) = (start + sizes[rank], self.example_len);
        self.features.truncate(end * len);
        self.features.drain(..start * len);
        self.features.shrink_to_fit();
        self.labels.truncate(end);
        self.labels.drain(..start);
        self.labels.shrink_to_fit();
        Shard {
            worker: rank,
            features: self.features,
            labels: self.labels,
            example_len: len,
            example_dims: self.example_dims,
        }
    }

    /// The first `max_examples` examples as one batch, moved rather than copied: the
    /// same batch as [`Dataset::test_batch`] when this is the test split.
    pub fn into_batch(mut self, max_examples: usize) -> (Tensor, Vec<usize>) {
        let n = self.labels.len().min(max_examples);
        self.features.truncate(n * self.example_len);
        self.labels.truncate(n);
        let mut dims = vec![n];
        dims.extend_from_slice(&self.example_dims);
        (Tensor::from_vec(self.features, &dims), self.labels)
    }

    /// A copy of the block `range` as worker `worker`'s shard.
    fn shard(&self, worker: usize, range: Range<usize>) -> Shard {
        let len = self.example_len;
        Shard {
            worker,
            features: self.features[range.start * len..range.end * len].to_vec(),
            labels: self.labels[range].to_vec(),
            example_len: len,
            example_dims: self.example_dims.clone(),
        }
    }
}

/// A complete in-memory dataset with a train and a test split.
#[derive(Debug, Clone)]
pub struct Dataset {
    train: Examples,
    test: Examples,
}

impl Dataset {
    /// Generates a synthetic image dataset from a spec with the given seed: both of
    /// [`SyntheticImageSpec::generate_split`]'s splits.
    pub fn generate(spec: &SyntheticImageSpec, seed: u64) -> Self {
        Self {
            train: spec.generate_split(seed, Split::Train),
            test: spec.generate_split(seed, Split::Test),
        }
    }

    /// Generates a synthetic flat-vector dataset from a spec with the given seed: both
    /// of [`SyntheticVectorSpec::generate_split`]'s splits.
    pub fn generate_vectors(spec: &SyntheticVectorSpec, seed: u64) -> Self {
        Self {
            train: spec.generate_split(seed, Split::Train),
            test: spec.generate_split(seed, Split::Test),
        }
    }

    /// Number of training examples.
    pub fn train_len(&self) -> usize {
        self.train.labels.len()
    }

    /// Number of test examples.
    pub fn test_len(&self) -> usize {
        self.test.labels.len()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.train.classes
    }

    /// Per-example tensor dimensions (without the batch dimension).
    pub fn example_dims(&self) -> &[usize] {
        &self.train.example_dims
    }

    /// Assembles a batch tensor and label vector from the given example indices of a
    /// split.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for the split.
    pub fn batch(&self, split: Split, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let raw = match split {
            Split::Train => &self.train,
            Split::Test => &self.test,
        };
        assemble_batch(raw, indices)
    }

    /// Returns the whole test split as one batch, capped at `max_examples` examples to
    /// keep evaluation cheap inside the simulator.
    pub fn test_batch(&self, max_examples: usize) -> (Tensor, Vec<usize>) {
        let n = self.test_len().min(max_examples);
        let indices: Vec<usize> = (0..n).collect();
        self.batch(Split::Test, &indices)
    }

    /// The example count of each worker's [`Dataset::shard_train`] block, without
    /// copying the examples (see [`shard_sizes`]).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn shard_sizes(&self, workers: usize) -> Vec<usize> {
        shard_sizes(self.train_len(), workers)
    }

    /// Splits the training set into `workers` equal-sized shards (the paper's data
    /// parallelism: "the training data is partitioned based on the number of workers").
    ///
    /// Each worker receives a contiguous block of the training set; because the
    /// generator interleaves classes, every block of at least `classes` examples covers
    /// every class.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn shard_train(&self, workers: usize) -> Vec<Shard> {
        let mut start = 0;
        shard_sizes(self.train_len(), workers)
            .into_iter()
            .enumerate()
            .map(|(rank, size)| {
                start += size;
                self.train.shard(rank, start - size..start)
            })
            .collect()
    }
}

fn assemble_batch(raw: &Examples, indices: &[usize]) -> (Tensor, Vec<usize>) {
    let mut features = Vec::with_capacity(indices.len() * raw.example_len);
    let mut labels = Vec::with_capacity(indices.len());
    for &i in indices {
        assert!(i < raw.labels.len(), "example index {i} out of range");
        let start = i * raw.example_len;
        features.extend_from_slice(&raw.features[start..start + raw.example_len]);
        labels.push(raw.labels[i]);
    }
    let mut dims = vec![indices.len()];
    dims.extend_from_slice(&raw.example_dims);
    (Tensor::from_vec(features, &dims), labels)
}

/// One worker's partition of the training data.
///
/// A shard owns its examples so it can be moved onto a worker thread in the threaded
/// runtime or held by a simulated worker process.
#[derive(Debug, Clone)]
pub struct Shard {
    worker: usize,
    features: Vec<f32>,
    labels: Vec<usize>,
    example_len: usize,
    example_dims: Vec<usize>,
}

impl Shard {
    /// The worker index this shard was created for.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Number of examples in the shard.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns true if the shard has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-example tensor dimensions.
    pub fn example_dims(&self) -> &[usize] {
        &self.example_dims
    }

    /// Assembles a batch from local example indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let mut features = Tensor::default();
        let mut labels = Vec::new();
        self.batch_into(indices, &mut features, &mut labels);
        (features, labels)
    }

    /// [`Shard::batch`] writing into caller-provided buffers (both are overwritten and
    /// reused without reallocation once they have held a batch of this size).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn batch_into(&self, indices: &[usize], features: &mut Tensor, labels: &mut Vec<usize>) {
        // The batch dims, built on the stack: `[N, example dims...]`.
        let mut dims = [0usize; 8];
        let rank = 1 + self.example_dims.len();
        assert!(rank <= dims.len(), "examples of rank > 7 are not supported");
        dims[0] = indices.len();
        dims[1..rank].copy_from_slice(&self.example_dims);
        features.ensure_shape(&dims[..rank]);
        labels.clear();
        for (&i, row) in indices
            .iter()
            .zip(features.as_mut_slice().chunks_exact_mut(self.example_len))
        {
            assert!(i < self.len(), "shard index {i} out of range");
            let start = i * self.example_len;
            row.copy_from_slice(&self.features[start..start + self.example_len]);
            labels.push(self.labels[i]);
        }
    }

    /// The label of a single local example.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SyntheticImageSpec, SyntheticVectorSpec};

    fn small_dataset() -> Dataset {
        let spec = SyntheticImageSpec::cifar10_like()
            .with_sizes(100, 20)
            .with_image_side(8);
        Dataset::generate(&spec, 1)
    }

    #[test]
    fn sizes_match_spec() {
        let d = small_dataset();
        assert_eq!(d.train_len(), 100);
        assert_eq!(d.test_len(), 20);
        assert_eq!(d.classes(), 10);
        assert_eq!(d.example_dims(), &[3, 8, 8]);
    }

    #[test]
    fn batch_has_batch_dimension_first() {
        let d = small_dataset();
        let (x, y) = d.batch(Split::Train, &[0, 5, 7]);
        assert_eq!(x.shape().dims(), &[3, 3, 8, 8]);
        assert_eq!(y.len(), 3);
    }

    #[test]
    fn test_batch_is_capped() {
        let d = small_dataset();
        let (x, y) = d.test_batch(8);
        assert_eq!(x.shape().dim(0), 8);
        assert_eq!(y.len(), 8);
    }

    #[test]
    fn shards_partition_the_training_set() {
        let d = small_dataset();
        let shards = d.shard_train(4);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, d.train_len());
        // Equal-sized partitions (paper: "a partition is assigned to each worker ...
        // equal-sized partition of the entire training data").
        for s in &shards {
            assert_eq!(s.len(), 25);
        }
    }

    #[test]
    fn shards_see_every_class() {
        let d = small_dataset();
        for shard in d.shard_train(4) {
            let mut seen = vec![false; d.classes()];
            for i in 0..shard.len() {
                seen[shard.label(i)] = true;
            }
            assert!(
                seen.iter().all(|&s| s),
                "worker {} missing a class",
                shard.worker()
            );
        }
    }

    #[test]
    fn shard_batch_matches_dataset_batch() {
        let d = small_dataset();
        let shards = d.shard_train(2);
        // Worker 1 got the second contiguous block (global indices 50..100); its local
        // example 3 is global example 53.
        let (from_shard, label_shard) = shards[1].batch(&[3]);
        let (from_dataset, label_dataset) = d.batch(Split::Train, &[53]);
        assert_eq!(from_shard.as_slice(), from_dataset.as_slice());
        assert_eq!(label_shard, label_dataset);
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Each split generated alone is bit for bit the split the whole dataset holds,
    /// and a shard or the evaluation batch moved out of it is the one copied out of
    /// the dataset: for every rank of a training set that 4 does not divide.
    #[test]
    fn split_wise_generation_is_bitwise_the_whole_dataset() {
        let mut image = SyntheticImageSpec::cifar10_like()
            .with_sizes(103, 20)
            .with_image_side(8);
        image.distortion_prob = 0.5; // the training stream makes extra draws
        let vector = SyntheticVectorSpec::small().with_sizes(103, 20);
        let cases = [
            (
                Dataset::generate(&image, 4),
                image.generate_split(4, Split::Train),
                image.generate_split(4, Split::Test),
            ),
            (
                Dataset::generate_vectors(&vector, 4),
                vector.generate_split(4, Split::Train),
                vector.generate_split(4, Split::Test),
            ),
        ];
        for (whole, train, test) in cases {
            for (alone, held) in [(&train, &whole.train), (&test, &whole.test)] {
                assert_eq!(bits(&alone.features), bits(&held.features));
                assert_eq!(alone.labels, held.labels);
            }
            assert_eq!(whole.shard_sizes(4), vec![26, 26, 26, 25]);
            for (rank, copied) in whole.shard_train(4).into_iter().enumerate() {
                let moved = train.clone().into_shard(4, rank);
                assert_eq!(moved.worker(), copied.worker());
                assert_eq!(bits(&moved.features), bits(&copied.features));
                assert_eq!(moved.labels, copied.labels);
                assert_eq!(moved.example_dims(), copied.example_dims());
            }
            let (x, y) = test.into_batch(8);
            let (copied_x, copied_y) = whole.test_batch(8);
            assert_eq!(x.shape(), copied_x.shape());
            assert_eq!(bits(x.as_slice()), bits(copied_x.as_slice()));
            assert_eq!(y, copied_y);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_batch_index_panics() {
        let d = small_dataset();
        d.batch(Split::Test, &[1000]);
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn zero_workers_panics() {
        small_dataset().shard_train(0);
    }
}
