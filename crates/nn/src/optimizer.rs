//! SGD with momentum and the step learning-rate schedule used in the paper.

use dssp_tensor::sgd_apply;
use serde::{Deserialize, Serialize};

/// An epoch-indexed learning-rate schedule.
///
/// The paper uses the step variant for the ResNets ("learning rate 0.05 and decay 0.1
/// twice at epoch 200 and 250 in 300 epochs") and a constant rate for the downsized
/// AlexNet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// A constant learning rate.
    Constant {
        /// The learning rate used in every epoch.
        base_lr: f32,
    },
    /// Multiply the rate by `decay_factor` at each milestone epoch (kept sorted).
    Step {
        /// The epoch-0 learning rate.
        base_lr: f32,
        /// Multiplicative decay applied at each milestone.
        decay_factor: f32,
        /// Epochs at which the decay is applied.
        milestones: Vec<usize>,
    },
}

impl LrSchedule {
    /// A constant learning rate (no decay).
    pub fn constant(base_lr: f32) -> Self {
        LrSchedule::Constant { base_lr }
    }

    /// A step schedule multiplying the rate by `decay_factor` at each milestone epoch.
    pub fn step(base_lr: f32, decay_factor: f32, milestones: &[usize]) -> Self {
        let mut m = milestones.to_vec();
        m.sort_unstable();
        LrSchedule::Step {
            base_lr,
            decay_factor,
            milestones: m,
        }
    }

    /// Learning rate to use during `epoch` (0-based).
    pub fn lr_at_epoch(&self, epoch: usize) -> f32 {
        match self {
            LrSchedule::Constant { base_lr } => *base_lr,
            LrSchedule::Step {
                base_lr,
                decay_factor,
                milestones,
            } => {
                let passed = milestones.iter().filter(|&&m| epoch >= m).count() as i32;
                base_lr * decay_factor.powi(passed)
            }
        }
    }

    /// The base learning rate (the rate at epoch 0).
    pub fn base_lr(&self) -> f32 {
        match self {
            LrSchedule::Constant { base_lr } | LrSchedule::Step { base_lr, .. } => *base_lr,
        }
    }
}

/// Configuration for [`Sgd`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Momentum coefficient (0.0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            schedule: LrSchedule::constant(0.01),
            momentum: 0.9,
            weight_decay: 0.0,
        }
    }
}

/// Stochastic gradient descent with momentum over a flat parameter vector.
///
/// In the parameter-server architecture the optimizer state lives at the **server**: the
/// server applies each worker's pushed gradient to the globally shared weights
/// (Algorithm 1, server line 2). `Sgd` therefore operates on the flat `f32` parameter
/// vector held by `dssp-ps`.
#[derive(Debug, Clone)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<f32>,
    current_epoch: usize,
}

impl Sgd {
    /// Creates an optimizer for a parameter vector of length `param_len`.
    pub fn new(config: SgdConfig, param_len: usize) -> Self {
        Self {
            config,
            velocity: vec![0.0; param_len],
            current_epoch: 0,
        }
    }

    /// Informs the optimizer of the current epoch so the schedule can take effect.
    pub fn set_epoch(&mut self, epoch: usize) {
        self.current_epoch = epoch;
    }

    /// The learning rate that the next [`Sgd::step`] call will use.
    pub fn current_lr(&self) -> f32 {
        self.config.schedule.lr_at_epoch(self.current_epoch)
    }

    /// Applies one SGD update: `v = momentum*v + (grad + wd*param); param -= lr * v`,
    /// element by element on the tile cascade ([`dssp_tensor::sgd_apply`]).
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` lengths differ from the length the optimizer was
    /// created with.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.velocity.len(), "param length mismatch");
        assert_eq!(grads.len(), self.velocity.len(), "grad length mismatch");
        let lr = self.current_lr();
        let (momentum, wd) = (self.config.momentum, self.config.weight_decay);
        sgd_apply(params, grads, &mut self.velocity, lr, momentum, wd);
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// The momentum velocity vector, for checkpointing.
    pub fn velocity(&self) -> &[f32] {
        &self.velocity
    }

    /// The epoch the schedule currently operates at, for checkpointing.
    pub fn current_epoch(&self) -> usize {
        self.current_epoch
    }

    /// Rebuilds an optimizer from checkpointed state. The velocity length must match
    /// the parameter vector it will later step (checked by [`Sgd::step`]).
    pub fn restore(config: SgdConfig, velocity: Vec<f32>, current_epoch: usize) -> Self {
        Self {
            config,
            velocity,
            current_epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_never_decays() {
        let s = LrSchedule::constant(0.1);
        assert_eq!(s.lr_at_epoch(0), 0.1);
        assert_eq!(s.lr_at_epoch(1000), 0.1);
    }

    #[test]
    fn step_schedule_matches_paper_resnet_settings() {
        // lr 0.05, decay 0.1 at epochs 200 and 250
        let s = LrSchedule::step(0.05, 0.1, &[200, 250]);
        assert!((s.lr_at_epoch(0) - 0.05).abs() < 1e-9);
        assert!((s.lr_at_epoch(199) - 0.05).abs() < 1e-9);
        assert!((s.lr_at_epoch(200) - 0.005).abs() < 1e-9);
        assert!((s.lr_at_epoch(249) - 0.005).abs() < 1e-9);
        assert!((s.lr_at_epoch(250) - 0.0005).abs() < 1e-9);
    }

    #[test]
    fn sgd_without_momentum_is_plain_gradient_descent() {
        let cfg = SgdConfig {
            schedule: LrSchedule::constant(0.5),
            momentum: 0.0,
            weight_decay: 0.0,
        };
        let mut sgd = Sgd::new(cfg, 2);
        let mut p = vec![1.0, 2.0];
        sgd.step(&mut p, &[0.2, -0.4]);
        assert!((p[0] - 0.9).abs() < 1e-6);
        assert!((p[1] - 2.2).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let cfg = SgdConfig {
            schedule: LrSchedule::constant(1.0),
            momentum: 0.5,
            weight_decay: 0.0,
        };
        let mut sgd = Sgd::new(cfg, 1);
        let mut p = vec![0.0];
        sgd.step(&mut p, &[1.0]); // v=1, p=-1
        sgd.step(&mut p, &[1.0]); // v=1.5, p=-2.5
        assert!((p[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_parameters_toward_zero() {
        let cfg = SgdConfig {
            schedule: LrSchedule::constant(0.1),
            momentum: 0.0,
            weight_decay: 0.1,
        };
        let mut sgd = Sgd::new(cfg, 1);
        let mut p = vec![10.0];
        sgd.step(&mut p, &[0.0]);
        assert!(p[0] < 10.0);
    }

    #[test]
    fn epoch_changes_learning_rate() {
        let cfg = SgdConfig {
            schedule: LrSchedule::step(1.0, 0.1, &[5]),
            momentum: 0.0,
            weight_decay: 0.0,
        };
        let mut sgd = Sgd::new(cfg, 1);
        assert_eq!(sgd.current_lr(), 1.0);
        sgd.set_epoch(5);
        assert!((sgd.current_lr() - 0.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "param length mismatch")]
    fn mismatched_lengths_panic() {
        let mut sgd = Sgd::new(SgdConfig::default(), 2);
        let mut p = vec![0.0; 3];
        sgd.step(&mut p, &[0.0; 3]);
    }
}
