//! A simulated worker — Algorithm 1, worker part — in the two halves the simulator's
//! pool cuts it into: the event loop's bookkeeping ([`SimWorker`]) and the compute
//! lane, the worker's [`WorkerStep`], whose gradient task runs between the worker's
//! pull and its push: the pull copies the global weights into its replica, the task
//! leaves the gradient there, and the push reads it from there. How far a worker has
//! got is the server loop's push count, not either half's.

/// The lifecycle state of a simulated worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum WorkerState {
    /// Running an iteration; its push arrival is in the event queue.
    #[default]
    Computing,
    /// Pushed and waiting for the server's deferred `OK`.
    Blocked,
    /// Finished its configured number of epochs.
    Done,
}

/// The event loop's side of one worker: its state, the time it waited, and the loss
/// the trace averages.
#[derive(Default)]
pub(crate) struct SimWorker {
    pub state: WorkerState,
    /// Accumulated time spent waiting for deferred `OK`s.
    pub waiting_time: f64,
    /// Virtual time at which the worker last pushed (used to attribute waiting time).
    pub last_push_time: f64,
    /// Sum of the training losses of the pushed gradients (for the running average).
    pub loss_sum: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{JobConfig, WorkerStep};
    use crate::DataSpec;
    use dssp_data::SyntheticVectorSpec;
    use dssp_nn::models::ModelSpec;
    use dssp_nn::Model;
    use dssp_ps::PolicyKind;

    /// One worker on 30 examples in batches of 10 (3 iterations per epoch), 2 epochs.
    fn job() -> JobConfig {
        JobConfig {
            model: ModelSpec::Mlp {
                input_dim: 8,
                hidden: vec![8],
                classes: 3,
            },
            data: DataSpec::Vector(SyntheticVectorSpec {
                classes: 3,
                dim: 8,
                train_size: 30,
                test_size: 10,
                noise_std: 0.5,
            }),
            num_workers: 1,
            batch_size: 10,
            seed: 2,
            ..JobConfig::small(PolicyKind::Asp)
        }
    }

    fn lane() -> WorkerStep {
        WorkerStep::for_rank(&job(), 0)
    }

    #[test]
    fn gradient_has_model_parameter_length() {
        let mut lane = lane();
        lane.compute();
        let grads = lane.grads();
        assert_eq!(grads.len(), job().model.build(1).param_len());
        assert!(grads.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn compute_gradient_adopts_global_weights() {
        let mut lane = lane();
        lane.arenas().0.fill(0.0);
        lane.compute();
        // All-zero weights give all-zero logits, so the loss is exactly that of a
        // uniform prediction over the 3 classes — not the initial replica's.
        assert!(
            (f64::from(lane.loss()) - 3f64.ln()).abs() < 1e-6,
            "{}",
            lane.loss()
        );
    }

    #[test]
    fn loss_accumulates_and_finished_flag_fires() {
        let mut lane = lane();
        let mut worker = SimWorker::default();
        for i in 0..6 {
            assert!(!lane.finished(), "not finished before iteration {i}");
            lane.compute();
            worker.loss_sum += f64::from(lane.loss());
        }
        assert!(lane.finished());
        assert!(worker.loss_sum > 0.0);
    }

    #[test]
    fn epoch_tracks_batch_iterator() {
        let mut lane = lane();
        assert_eq!(lane.epoch(), 0);
        for _ in 0..4 {
            lane.compute();
        }
        assert_eq!(lane.epoch(), 1);
    }
}
