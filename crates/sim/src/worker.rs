//! A simulated worker — Algorithm 1, worker part — in the two halves the simulator's
//! pool cuts it into: the event loop's bookkeeping ([`SimWorker`]) and the compute
//! lane ([`ComputeLane`]) whose gradient task runs between the worker's pull and its
//! push.

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

/// The event loop's side of one worker: what the gate, the learning-rate schedule and
/// the trace read, all of it as of the worker's last push.
pub(crate) struct SimWorker {
    pub id: usize,
    pub state: WorkerState,
    /// Completed iterations (pushes sent).
    pub iterations: u64,
    /// Target number of iterations (epochs × batches per epoch).
    pub target_iterations: u64,
    /// Accumulated time spent waiting for deferred `OK`s.
    pub waiting_time: f64,
    /// Virtual time at which the worker last pushed (used to attribute waiting time).
    pub last_push_time: f64,
    /// Sum of the training losses of the pushed gradients (for the running average).
    pub loss_sum: f64,
    /// Completed passes over the shard when the last pushed batch was drawn.
    epoch: usize,
}

impl SimWorker {
    pub fn new(id: usize, target_iterations: u64) -> Self {
        Self {
            id,
            state: WorkerState::Computing,
            iterations: 0,
            target_iterations,
            waiting_time: 0.0,
            last_push_time: 0.0,
            loss_sum: 0.0,
            epoch: 0,
        }
    }

    /// Whether the worker has completed all its configured iterations.
    pub fn finished(&self) -> bool {
        self.iterations >= self.target_iterations
    }

    /// The worker's local epoch (completed passes over its shard) as of its last push.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Publishes the gradient `lane` computed and returns it for the push: its loss
    /// joins the running sum and its batch's epoch becomes the worker's. Call it at the
    /// push and read the epoch only from here: once the lane's next task runs, its
    /// batch iterator may already be in the next epoch, which would move the server's
    /// learning-rate schedule early.
    pub fn publish<'l>(&mut self, lane: &'l ComputeLane) -> &'l [f32] {
        self.loss_sum += f64::from(lane.loss);
        self.epoch = lane.epoch;
        &lane.grad
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

/// The compute side of one worker: everything its gradient depends on — the weights
/// it pulled, its replica and its batch stream — and what the gradient produces.
pub(crate) struct ComputeLane {
    /// The global weights pulled at the start of the iteration.
    pub weights: Vec<f32>,
    /// The model replica and the scratch of its gradient step; after the first
    /// iteration `compute_gradient` performs no heap allocations.
    step: TrainStep,
    batches: BatchIter,
    batch_x: Tensor,
    batch_labels: Vec<usize>,
    grad: Vec<f32>,
    loss: f32,
    /// The batch iterator's epoch after the draw.
    epoch: usize,
}

impl ComputeLane {
    /// A lane whose replica is `model`, drawing from `batches`, with `weights` pulled.
    pub fn new(model: Sequential, batches: BatchIter, weights: Vec<f32>) -> Self {
        Self {
            weights,
            step: TrainStep::new(model),
            batches,
            batch_x: Tensor::default(),
            batch_labels: Vec::new(),
            grad: Vec::new(),
            loss: 0.0,
            epoch: 0,
        }
    }

    /// Runs one mini-batch forward/backward pass against the pulled weights
    /// (Algorithm 1, worker lines 2–5) and keeps the gradient, its loss and the epoch
    /// until [`SimWorker::publish`].
    ///
    /// The gradient is the mean over the mini-batch, matching the paper's
    /// `g ← (1/m) Σ ∂loss`.
    pub fn compute_gradient(&mut self) {
        // Line 4's mini-batch, drawn into reused batch buffers; line 3 (replace local
        // weights with the pulled global weights) and the gradient are the shared step.
        self.batches
            .next_batch_into(&mut self.batch_x, &mut self.batch_labels);
        self.loss = self.step.gradient_into(
            &self.weights,
            &self.batch_x,
            &self.batch_labels,
            &mut self.grad,
        );
        self.epoch = self.batches.epoch();
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

    fn worker() -> (SimWorker, ComputeLane) {
        let spec = SyntheticVectorSpec {
            classes: 3,
            dim: 8,
            train_size: 30,
            test_size: 10,
            noise_std: 0.5,
        };
        let data = Dataset::generate_vectors(&spec, 1);
        let shard = data.shard_train(1).remove(0);
        let lane = ComputeLane::new(model(), BatchIter::new(shard, 10, 3), model().params_flat());
        (SimWorker::new(0, 6), lane)
    }

    /// One iteration as the event loop runs it: pull, the gradient task, the push.
    fn iterate<'l>(w: &mut SimWorker, lane: &'l mut ComputeLane, weights: &[f32]) -> &'l [f32] {
        lane.weights.copy_from_slice(weights);
        lane.compute_gradient();
        w.publish(lane)
    }

    #[test]
    fn gradient_has_model_parameter_length() {
        let (mut w, mut lane) = worker();
        let params = model().params_flat();
        let grad = iterate(&mut w, &mut lane, &params);
        assert_eq!(grad.len(), params.len());
        assert!(grad.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn compute_gradient_adopts_global_weights() {
        let (mut w, mut lane) = worker();
        let zeros = vec![0.0; model().param_len()];
        let _ = iterate(&mut w, &mut lane, &zeros);
        // All-zero weights give all-zero logits, so the loss is exactly that of a
        // uniform prediction over the 3 classes — not the initial replica's.
        assert!((w.loss_sum - 3f64.ln()).abs() < 1e-6, "{}", w.loss_sum);
    }

    #[test]
    fn loss_accumulates_and_finished_flag_fires() {
        let (mut w, mut lane) = worker();
        let params = model().params_flat();
        for i in 0..6 {
            assert!(!w.finished(), "not finished before iteration {i}");
            let _ = iterate(&mut w, &mut lane, &params);
            w.iterations += 1;
        }
        assert!(w.finished());
        assert!(w.mean_loss() > 0.0);
    }

    #[test]
    fn epoch_tracks_batch_iterator() {
        let (mut w, mut lane) = worker();
        let params = model().params_flat();
        assert_eq!(w.epoch(), 0);
        for _ in 0..4 {
            let _ = iterate(&mut w, &mut lane, &params);
        }
        assert_eq!(w.epoch(), 1);
    }

    #[test]
    fn epoch_moves_at_the_push_not_at_the_draw() {
        let (mut w, mut lane) = worker();
        let params = model().params_flat();
        for _ in 0..3 {
            let _ = iterate(&mut w, &mut lane, &params);
        }
        // The fourth batch opens epoch 1; until its gradient is pushed the worker (and
        // so the server's schedule) is still in epoch 0.
        lane.compute_gradient();
        assert_eq!(w.epoch(), 0);
        let _ = w.publish(&lane);
        assert_eq!(w.epoch(), 1);
    }
}
