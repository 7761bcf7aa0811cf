//! Experiment configuration and execution on the simulator.

use dssp_cluster::ClusterSpec;
use dssp_data::SyntheticVectorSpec;
use dssp_nn::models::ModelSpec;
use dssp_nn::{LrSchedule, SgdConfig};
use dssp_ps::PolicyKind;
use dssp_sim::{DataSpec, RunTrace, SimConfig, Simulation};

/// A fully configured distributed-training experiment.
///
/// `Experiment` is a thin, validated wrapper over [`dssp_sim::SimConfig`]; use
/// [`ExperimentBuilder`] to construct one fluently.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: SimConfig,
}

impl Experiment {
    /// The underlying simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the experiment on the discrete-event simulator.
    pub fn run(&self) -> RunTrace {
        Simulation::new(self.config.clone()).run()
    }

    /// Runs the same experiment once per policy, returning the traces in the same order.
    ///
    /// Everything except the synchronization paradigm (data, initial weights, cluster,
    /// jitter seeds) is held fixed, matching the paper's methodology of comparing
    /// paradigms on identical workloads.
    pub fn compare(&self, policies: &[PolicyKind]) -> Vec<RunTrace> {
        policies
            .iter()
            .map(|&policy| {
                let mut config = self.config.clone();
                config.policy = policy;
                Simulation::new(config).run()
            })
            .collect()
    }
}

/// Fluent builder for [`Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    config: SimConfig,
}

impl ExperimentBuilder {
    /// A small MLP on a synthetic vector task over the heterogeneous two-worker cluster:
    /// quick enough for tests and the quickstart example.
    pub fn small_mlp() -> Self {
        let config = SimConfig {
            model: ModelSpec::Mlp {
                input_dim: 32,
                hidden: vec![32],
                classes: 10,
            },
            data: DataSpec::Vector(SyntheticVectorSpec {
                classes: 10,
                dim: 32,
                train_size: 1_000,
                test_size: 250,
                noise_std: 0.8,
            }),
            cluster: ClusterSpec::heterogeneous_pair(),
            policy: PolicyKind::Dssp { s_l: 3, r_max: 12 },
            batch_size: 32,
            epochs: 3,
            sgd: SgdConfig {
                schedule: LrSchedule::constant(0.05),
                momentum: 0.9,
                weight_decay: 0.0,
            },
            seed: 42,
            eval_every_pushes: 16,
            eval_max_examples: 250,
            cost_override: None,
        };
        Self { config }
    }

    /// Sets the model architecture.
    pub fn model(mut self, model: ModelSpec) -> Self {
        self.config.model = model;
        self
    }

    /// Trains on a synthetic flat-vector dataset.
    pub fn vector_data(mut self, spec: SyntheticVectorSpec) -> Self {
        self.config.data = DataSpec::Vector(spec);
        self
    }

    /// Sets the cluster (devices, link, slowdowns).
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.config.cluster = cluster;
        self
    }

    /// Sets the synchronization paradigm.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Sets the number of passes each worker makes over its shard.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.epochs = epochs;
        self
    }

    /// Sets the server-side SGD configuration.
    pub fn sgd(mut self, sgd: SgdConfig) -> Self {
        self.config.sgd = sgd;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets how often (in applied pushes) test accuracy is sampled.
    pub fn eval_every(mut self, pushes: u64) -> Self {
        self.config.eval_every_pushes = pushes;
        self
    }

    /// Builds the experiment without running it.
    pub fn build(self) -> Experiment {
        Experiment {
            config: self.config,
        }
    }

    /// Builds and runs the experiment.
    pub fn run(self) -> RunTrace {
        self.build().run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrips_settings() {
        let exp = ExperimentBuilder::small_mlp()
            .policy(PolicyKind::Bsp)
            .batch_size(16)
            .epochs(1)
            .seed(7)
            .eval_every(5)
            .build();
        assert_eq!(exp.config().policy, PolicyKind::Bsp);
        assert_eq!(exp.config().batch_size, 16);
        assert_eq!(exp.config().epochs, 1);
        assert_eq!(exp.config().seed, 7);
        assert_eq!(exp.config().eval_every_pushes, 5);
    }

    #[test]
    fn compare_runs_one_trace_per_policy() {
        let exp = ExperimentBuilder::small_mlp().epochs(1).build();
        let traces = exp.compare(&[PolicyKind::Bsp, PolicyKind::Asp]);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].policy, "BSP");
        assert_eq!(traces[1].policy, "ASP");
        // Identical total work: same number of pushes in both runs.
        assert_eq!(traces[0].total_pushes, traces[1].total_pushes);
    }

    #[test]
    fn run_produces_non_trivial_accuracy() {
        let trace = ExperimentBuilder::small_mlp().epochs(2).run();
        assert!(
            trace.final_accuracy() > 0.2,
            "accuracy {}",
            trace.final_accuracy()
        );
    }
}
