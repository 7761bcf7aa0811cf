//! The mini-batch gradient computation every training worker runs.

use crate::{Model, Sequential, SoftmaxCrossEntropy, Workspace};
use dssp_tensor::Tensor;

/// A model replica with the loss and the scratch to compute one mini-batch gradient on
/// it — Algorithm 1, worker lines 3–4. The simulator's workers and the runtimes'
/// `dssp_core::driver::WorkerStep` both run this one step.
///
/// The caller owns the data side (its batch iterator and batch buffers) and whatever
/// it counts; after the first call [`TrainStep::gradient_into`] performs no heap
/// allocation.
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

    /// Installs `weights` in the replica, runs the forward and the training backward
    /// pass ([`Sequential::backward_params_ws`]: no input gradient below the first
    /// layer with parameters) over the mini-batch `(x, labels)` and writes the flat
    /// gradient — the mean over the mini-batch, the paper's `g ← (1/m) Σ ∂loss` — into
    /// `out` (resized to the parameter count). Returns the mini-batch training loss.
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
        self.model.set_params_flat(weights);
        let logits = self.model.forward_ws(x, true, &mut self.ws);
        let loss = self
            .loss_fn
            .loss_and_grad_into(logits, labels, &mut self.grad_logits);
        self.model.zero_grads();
        self.model
            .backward_params_ws(&self.grad_logits, &mut self.ws);
        out.resize(self.model.param_len(), 0.0);
        self.model.read_grads_into(out);
        loss
    }
}
