//! Held-out evaluation in training-batch-sized chunks.

use crate::loss::correct_predictions;
use crate::{Model, Sequential, Workspace};
use dssp_tensor::Tensor;

/// A model replica, a held-out batch and the scratch to score one on the other.
///
/// [`Evaluator::accuracy`] forwards the held-out examples `chunk_rows` at a time
/// through one [`Workspace`], counts the correct predictions of every chunk and divides
/// once. Every layer of the model zoo treats the rows of a batch independently (there
/// are no batch statistics), so the result is the same `f32`, bit for bit, as one
/// forward pass over the whole batch — while every per-layer cache (column matrices,
/// masks, activations) is sized for `chunk_rows` rows instead of for the whole batch.
/// With `chunk_rows` equal to the training batch size, evaluation has the working set
/// of a training step and no longer evicts it.
#[derive(Debug)]
pub struct Evaluator {
    model: Sequential,
    features: Tensor,
    labels: Vec<usize>,
    chunk_rows: usize,
    ws: Workspace,
    /// The rows of the current chunk, and their dims (`[rows, example dims...]`).
    chunk: Tensor,
    chunk_dims: Vec<usize>,
}

impl Evaluator {
    /// Scores `model`'s architecture on `held_out` (`[N, ...]` features and `N` labels),
    /// `chunk_rows` examples per forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows` is zero or the label count differs from the row count.
    pub fn new(model: Sequential, held_out: (Tensor, Vec<usize>), chunk_rows: usize) -> Self {
        assert!(
            chunk_rows > 0,
            "evaluation chunk must hold at least one row"
        );
        let (features, labels) = held_out;
        let chunk_dims = features.shape().dims().to_vec();
        assert_eq!(
            chunk_dims.first().copied().unwrap_or(0),
            labels.len(),
            "one label per held-out example required"
        );
        Self {
            model,
            features,
            labels,
            chunk_rows,
            ws: Workspace::new(),
            chunk: Tensor::default(),
            chunk_dims,
        }
    }

    /// Parameter count of the evaluated architecture.
    pub fn param_len(&self) -> usize {
        self.model.param_len()
    }

    /// Copies `weights` into the replica and returns the fraction of held-out examples
    /// whose argmax logit equals the label (0.0 for an empty held-out batch). The
    /// replica only runs forward passes, so it never holds a gradient vector.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the parameter count.
    pub fn accuracy(&mut self, weights: &[f32]) -> f32 {
        let n = self.labels.len();
        if n == 0 {
            return 0.0;
        }
        self.model.params_mut().copy_from_slice(weights);
        let row_len = self.features.len() / n;
        let mut correct = 0usize;
        for (rows, labels) in self
            .features
            .as_slice()
            .chunks(self.chunk_rows * row_len)
            .zip(self.labels.chunks(self.chunk_rows))
        {
            self.chunk_dims[0] = labels.len();
            self.chunk.ensure_shape(&self.chunk_dims);
            self.chunk.as_mut_slice().copy_from_slice(rows);
            let logits = self.model.forward_ws(&self.chunk, false, &mut self.ws);
            correct += correct_predictions(logits, labels);
        }
        correct as f32 / n as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accuracy, models};
    use dssp_tensor::uniform_init;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Chunked evaluation equals one forward pass over the whole batch, bit for
        /// bit, also when the last chunk is short (and when one chunk holds it all).
        #[test]
        fn chunked_accuracy_is_bitwise_the_single_batch_accuracy(
            n in 1usize..40, chunk in 1usize..12, conv in 0usize..2, seed in 0u64..1000,
        ) {
            let conv = conv == 1;
            let build = || if conv {
                models::resnet_cifar(8, 2, 10, seed)
            } else {
                models::mlp(24, &[16], 10, seed)
            };
            let x = if conv {
                uniform_init(&[n, 3, 8, 8], 1.0, seed + 1)
            } else {
                uniform_init(&[n, 24], 1.0, seed + 1)
            };
            let labels: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % 10).collect();
            // Non-trivial weights: the residual blocks' second convolutions start at zero.
            let weights = uniform_init(&[build().param_len()], 0.3, seed + 2);
            let mut whole = build();
            whole.params_mut().copy_from_slice(weights.as_slice());
            let reference = accuracy(&whole.forward(&x, false), &labels);
            let mut chunked = Evaluator::new(build(), (x, labels), chunk);
            prop_assert_eq!(chunked.accuracy(weights.as_slice()).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn empty_held_out_batch_scores_zero() {
        let model = models::mlp(4, &[], 3, 1);
        let weights = model.params_flat();
        let mut eval = Evaluator::new(model, (Tensor::zeros(&[0, 4]), Vec::new()), 8);
        assert_eq!(eval.accuracy(&weights), 0.0);
    }
}
