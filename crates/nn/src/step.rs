//! The mini-batch gradient computation every training worker runs.

use crate::{Model, Sequential, SoftmaxCrossEntropy, Workspace};
use dssp_tensor::Tensor;

/// A model replica with the loss and the scratch to compute one mini-batch gradient on
/// it — Algorithm 1, worker lines 3–4. The simulator's workers and the runtimes'
/// `dssp_core::driver::WorkerStep` both run this one step.
///
/// The replica holds the worker's one copy of the weights and of the gradient
/// ([`crate::Sequential`]'s two flat vectors): a pull writes the weights in place
/// ([`TrainStep::arenas`]), [`TrainStep::gradient`] computes on them and leaves the
/// gradient in place, and the push reads it from there ([`TrainStep::grads`]).
///
/// The caller owns the data side (its batch iterator and batch buffers) and whatever
/// it counts; after the first call a step performs no heap allocation.
#[derive(Debug)]
pub struct TrainStep {
    model: Sequential,
    loss_fn: SoftmaxCrossEntropy,
    ws: Workspace,
    grad_logits: Tensor,
}

impl TrainStep {
    /// Wraps a freshly built replica.
    pub fn new(model: Sequential) -> Self {
        Self {
            model,
            loss_fn: SoftmaxCrossEntropy::new(),
            ws: Workspace::new(),
            grad_logits: Tensor::default(),
        }
    }

    /// Parameter count of the replica (the flat weight/gradient vector length).
    pub fn param_len(&self) -> usize {
        self.model.param_len()
    }

    /// The replica's weights, for a pull to write in place, and its gradient, for the
    /// push that goes out at the same time.
    pub fn arenas(&mut self) -> (&mut Vec<f32>, &[f32]) {
        self.model.arenas()
    }

    /// The gradient of the last step (empty before the first).
    pub fn grads(&self) -> &[f32] {
        self.model.grads()
    }

    /// Runs the forward and the training backward pass
    /// ([`Sequential::backward_params_ws`]: no input gradient below the first layer
    /// with parameters) over the mini-batch `(x, labels)` on the replica's weights and
    /// leaves the gradient — the mean over the mini-batch, the paper's
    /// `g ← (1/m) Σ ∂loss` — in [`TrainStep::grads`]. Returns the mini-batch training
    /// loss.
    ///
    /// # Panics
    ///
    /// Panics if the weights were given another length than the parameter count.
    pub fn gradient(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.model.forward_ws(x, true, &mut self.ws);
        let loss = self
            .loss_fn
            .loss_and_grad_into(logits, labels, &mut self.grad_logits);
        self.model.zero_grads();
        self.model
            .backward_params_ws(&self.grad_logits, &mut self.ws);
        loss
    }

    /// [`TrainStep::gradient`] on a copy of `weights`, with a copy of the gradient
    /// written into `out` (resized to the parameter count). Returns the loss.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the parameter count.
    pub fn gradient_into(
        &mut self,
        weights: &[f32],
        x: &Tensor,
        labels: &[usize],
        out: &mut Vec<f32>,
    ) -> f32 {
        self.model.params_mut().copy_from_slice(weights);
        let loss = self.gradient(x, labels);
        out.clear();
        out.extend_from_slice(self.model.grads());
        loss
    }
}
