//! A simulated worker: a model replica, a data shard, and the per-iteration state
//! described in Algorithm 1 (worker part).

use dssp_data::BatchIter;
use dssp_nn::{Sequential, TrainStep};
use dssp_tensor::Tensor;

/// The lifecycle state of a simulated worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerState {
    /// Running an iteration; its push arrival is in the event queue.
    Computing,
    /// Pushed and waiting for the server's deferred `OK`.
    Blocked,
    /// Finished its configured number of epochs.
    Done,
}

/// One simulated worker.
pub(crate) struct SimWorker {
    pub id: usize,
    /// The model replica and the scratch of its gradient step; after the first
    /// iteration `compute_gradient` performs no heap allocations.
    step: TrainStep,
    pub batches: BatchIter,
    pub state: WorkerState,
    /// Completed iterations (pushes sent).
    pub iterations: u64,
    /// Target number of iterations (epochs × batches per epoch).
    pub target_iterations: u64,
    /// Accumulated time spent waiting for deferred `OK`s.
    pub waiting_time: f64,
    /// Virtual time at which the worker last pushed (used to attribute waiting time).
    pub last_push_time: f64,
    /// Sum of training losses observed by this worker (for the running average).
    pub loss_sum: f64,
    batch_x: Tensor,
    batch_labels: Vec<usize>,
    grad_buf: Vec<f32>,
}

impl SimWorker {
    pub fn new(id: usize, model: Sequential, batches: BatchIter, target_iterations: u64) -> Self {
        Self {
            id,
            step: TrainStep::new(model),
            batches,
            state: WorkerState::Computing,
            iterations: 0,
            target_iterations,
            waiting_time: 0.0,
            last_push_time: 0.0,
            loss_sum: 0.0,
            batch_x: Tensor::default(),
            batch_labels: Vec::new(),
            grad_buf: Vec::new(),
        }
    }

    /// Whether the worker has completed all its configured iterations.
    pub fn finished(&self) -> bool {
        self.iterations >= self.target_iterations
    }

    /// The worker's local epoch (completed passes over its shard).
    pub fn epoch(&self) -> usize {
        self.batches.epoch()
    }

    /// Runs one mini-batch forward/backward pass against the supplied global weights
    /// (Algorithm 1, worker lines 2–5) and returns the gradient to push.
    ///
    /// The returned gradient is the mean over the mini-batch, matching the paper's
    /// `g ← (1/m) Σ ∂loss`.
    pub fn compute_gradient(&mut self, global_weights: &[f32]) -> &[f32] {
        // Line 4's mini-batch, drawn into reused batch buffers; line 3 (replace local
        // weights with the pulled global weights) and the gradient are the shared step.
        self.batches
            .next_batch_into(&mut self.batch_x, &mut self.batch_labels);
        let loss = self.step.gradient_into(
            global_weights,
            &self.batch_x,
            &self.batch_labels,
            &mut self.grad_buf,
        );
        self.loss_sum += f64::from(loss);
        &self.grad_buf
    }

    /// Mean training loss observed by this worker so far.
    #[cfg(test)]
    pub fn mean_loss(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.loss_sum / self.iterations as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_data::{Dataset, SyntheticVectorSpec};
    use dssp_nn::{models, Model};

    fn model() -> Sequential {
        models::mlp(8, &[8], 3, 2)
    }

    fn worker() -> SimWorker {
        let spec = SyntheticVectorSpec {
            classes: 3,
            dim: 8,
            train_size: 30,
            test_size: 10,
            noise_std: 0.5,
        };
        let data = Dataset::generate_vectors(&spec, 1);
        let shard = data.shard_train(1).remove(0);
        SimWorker::new(0, model(), BatchIter::new(shard, 10, 3), 6)
    }

    #[test]
    fn gradient_has_model_parameter_length() {
        let mut w = worker();
        let params = model().params_flat();
        let grad = w.compute_gradient(&params);
        assert_eq!(grad.len(), params.len());
        assert!(grad.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn compute_gradient_adopts_global_weights() {
        let mut w = worker();
        let zeros = vec![0.0; model().param_len()];
        let _ = w.compute_gradient(&zeros);
        // All-zero weights give all-zero logits, so the loss is exactly that of a
        // uniform prediction over the 3 classes — not the initial replica's.
        assert!((w.loss_sum - 3f64.ln()).abs() < 1e-6, "{}", w.loss_sum);
    }

    #[test]
    fn loss_accumulates_and_finished_flag_fires() {
        let mut w = worker();
        let params = model().params_flat();
        for i in 0..6 {
            assert!(!w.finished(), "not finished before iteration {i}");
            let _ = w.compute_gradient(&params);
            w.iterations += 1;
        }
        assert!(w.finished());
        assert!(w.mean_loss() > 0.0);
    }

    #[test]
    fn epoch_tracks_batch_iterator() {
        let mut w = worker();
        let params = model().params_flat();
        assert_eq!(w.epoch(), 0);
        for _ in 0..4 {
            let _ = w.compute_gradient(&params);
        }
        assert_eq!(w.epoch(), 1);
    }
}
