//! Mini-batch iteration over a worker's shard.

use crate::Shard;
use dssp_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An endless mini-batch iterator over one worker's data shard.
///
/// Each epoch visits every example exactly once in a freshly shuffled order; the
/// iterator then reshuffles and continues, so workers can run for any number of
/// iterations (as they do under ASP/SSP/DSSP where workers complete different numbers of
/// iterations in the same wall-clock time).
#[derive(Debug, Clone)]
pub struct BatchIter {
    shard: Shard,
    batch_size: usize,
    order: Vec<usize>,
    cursor: usize,
    epoch: usize,
    rng: ChaCha8Rng,
}

impl BatchIter {
    /// Creates an iterator over `shard` producing batches of `batch_size`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero or the shard is empty.
    pub fn new(shard: Shard, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(!shard.is_empty(), "cannot iterate an empty shard");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..shard.len()).collect();
        order.shuffle(&mut rng);
        Self {
            shard,
            batch_size,
            order,
            cursor: 0,
            epoch: 0,
            rng,
        }
    }

    /// The number of completed epochs.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// The worker's shard.
    pub fn shard(&self) -> &Shard {
        &self.shard
    }

    /// Produces the next mini-batch, advancing (and reshuffling at) epoch boundaries.
    /// Allocating convenience over [`BatchIter::next_batch_into`].
    pub fn next_batch(&mut self) -> (Tensor, Vec<usize>) {
        let mut features = Tensor::default();
        let mut labels = Vec::new();
        self.next_batch_into(&mut features, &mut labels);
        (features, labels)
    }

    /// [`BatchIter::next_batch`] writing into caller-provided buffers: no heap
    /// allocation once they have held a full batch (the training hot path).
    pub fn next_batch_into(&mut self, features: &mut Tensor, labels: &mut Vec<usize>) {
        if self.cursor >= self.order.len() {
            self.order.shuffle(&mut self.rng);
            self.cursor = 0;
            self.epoch += 1;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        self.shard
            .batch_into(&self.order[self.cursor..end], features, labels);
        self.cursor = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, SyntheticImageSpec};

    fn shard() -> Shard {
        let spec = SyntheticImageSpec::cifar10_like()
            .with_sizes(50, 10)
            .with_image_side(8);
        Dataset::generate(&spec, 3).shard_train(1).remove(0)
    }

    #[test]
    fn batches_have_requested_size() {
        let mut it = BatchIter::new(shard(), 8, 1);
        let (x, y) = it.next_batch();
        assert_eq!(x.shape().dim(0), 8);
        assert_eq!(y.len(), 8);
    }

    #[test]
    fn epoch_advances_after_visiting_all_examples() {
        let mut it = BatchIter::new(shard(), 8, 1);
        for _ in 0..7 {
            // ceil(50 / 8) batches make one epoch
            it.next_batch();
        }
        assert_eq!(it.epoch(), 0);
        it.next_batch();
        assert_eq!(it.epoch(), 1);
    }

    #[test]
    fn one_epoch_visits_every_example_once() {
        let s = shard();
        let mut it = BatchIter::new(s.clone(), 7, 5);
        let mut label_counts = vec![0usize; 10];
        let mut seen = 0usize;
        while seen < s.len() {
            let (_, labels) = it.next_batch();
            seen += labels.len();
            for l in labels {
                label_counts[l] += 1;
            }
        }
        // The shard has 5 examples per class (50 examples, 10 classes).
        assert!(label_counts.iter().all(|&c| c == 5), "{label_counts:?}");
    }

    #[test]
    fn same_seed_produces_same_order() {
        let s = shard();
        let mut a = BatchIter::new(s.clone(), 4, 9);
        let mut b = BatchIter::new(s, 4, 9);
        for _ in 0..5 {
            let (xa, ya) = a.next_batch();
            let (xb, yb) = b.next_batch();
            assert_eq!(xa.as_slice(), xb.as_slice());
            assert_eq!(ya, yb);
        }
    }

    #[test]
    fn different_seeds_produce_different_orders() {
        let s = shard();
        let mut a = BatchIter::new(s.clone(), 16, 1);
        let mut b = BatchIter::new(s, 16, 2);
        let (_, ya) = a.next_batch();
        let (_, yb) = b.next_batch();
        assert_ne!(ya, yb);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        BatchIter::new(shard(), 0, 1);
    }
}
