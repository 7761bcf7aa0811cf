//! The four workloads: what each one runs, and why it is in the set.
//!
//! Load is a closed loop: two workers (the host has two cores), each waiting for its
//! `OK` before it starts the next round. The seed reaches the program only as
//! `JobConfig.seed` / `SimConfig.seed`.

use dssp_core::driver::JobConfig;
use dssp_core::presets::{dssp_reference, resnet110_heterogeneous, Scale};
use dssp_data::SyntheticVectorSpec;
use dssp_nn::models::ModelSpec;
use dssp_ps::PolicyKind;
use dssp_sim::{DataSpec, SimConfig};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 2019;

/// Workers in every workload: closed loop, one per core of the reference host.
pub const WORKERS: usize = 2;

/// The job a workload hands to its substrate adapter.
#[derive(Debug, Clone)]
pub enum Job {
    /// A simulated run (virtual clock, one thread).
    Sim(SimConfig),
    /// A real-time run on `core::runtime` threads.
    Threads(JobConfig),
    /// A real-time run on `dssp_net::serve` + `run_worker` over localhost TCP.
    Tcp(JobConfig),
    /// A real-time run on a `dssp_coord` group over localhost TCP.
    Group(JobConfig),
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the set, in one line.
    pub why: &'static str,
    /// Pushes a complete run applies: epochs × batches per epoch × workers.
    pub expected_pushes: u64,
    /// Final test accuracy below this fails the run (see README.md for how the
    /// floors were set).
    pub accuracy_floor: f64,
    /// Workers whose rounds overlap in wall time: 1 on the simulator (one thread plays
    /// every worker in turn), [`WORKERS`] elsewhere. Turns `pushes_per_s` into the wall
    /// time of one worker's round.
    pub concurrency: usize,
    /// Wall seconds one repeat (set-up and training) takes on the reference host. The
    /// number of timed repeats is planned from it, so that it does not depend on how
    /// fast the host happens to be during the run.
    pub nominal_repeat_s: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "sim_hetero",
        why: "Paper Fig. 4 on the simulator: tensor/nn kernels are >=90% of wall time, net and coord do nothing, and the virtual clock makes busy_share exact.",
        expected_pushes: 576,
        accuracy_floor: 0.50,
        concurrency: 1,
        nominal_repeat_s: 3.0,
    },
    Workload {
        name: "tcp_comm",
        why: "FC-heavy 307 KB model over one localhost TCP server: wire, tcp and the ps apply/pull path carry the round, compute is a small share (paper Sec. V-C).",
        expected_pushes: 4096,
        accuracy_floor: 0.80,
        concurrency: WORKERS,
        nominal_repeat_s: 2.2,
    },
    Workload {
        name: "group_comm",
        why: "The tcp_comm job on a 2-server dssp-coord group: slices, fan-out and a clock hop; a single-server gain that costs the group path shows here.",
        expected_pushes: 4096,
        accuracy_floor: 0.80,
        concurrency: WORKERS,
        nominal_repeat_s: 2.5,
    },
    Workload {
        name: "thr_straggler",
        why: "Threads, no sockets, one worker 2 ms slower per round: gate-bound, the fast worker spends half the run waiting for deferred OKs; comms and kernel changes must not move it.",
        expected_pushes: 2048,
        accuracy_floor: 0.80,
        concurrency: WORKERS,
        nominal_repeat_s: 2.5,
    },
];

/// The seed of repeat `index` of a run under `seed` (SplitMix64 of the pair). Every
/// repeat trains under another seed, so that a run's medians do not hinge on how one
/// seed's data order and jitter happen to fall: on the simulator the wait share ranges
/// over 0.07–0.22 from seed to seed (README.md, "Noise").
pub fn repeat_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds [`virtual_twin`]s are run under to average the simulator's `busy_share`.
pub const VIRTUAL_SEEDS: u64 = 256;

/// A simulator job with the virtual timeline of `config` and next to no compute.
///
/// Virtual time comes from the cluster time model (cluster, cost profile, batch, seed)
/// and from the gate, which sees push times and clocks, never gradients. So a job
/// that keeps all of those — and the push schedule: workers, shard sizes, batch,
/// epochs — but trains a 4-dimensional logistic regression reaches the same virtual
/// times, waits and gate statistics, bit for bit, in milliseconds instead of seconds.
/// `run.rs` checks that equality against the full job on every run.
///
/// # Panics
///
/// Panics if `config` has no cost override: the twin must not take its virtual costs
/// from its own tiny model.
pub fn virtual_twin(config: &SimConfig) -> SimConfig {
    assert!(
        config.cost_override.is_some(),
        "a virtual twin needs the original's cost profile"
    );
    let train_size = match &config.data {
        DataSpec::Image(spec) => spec.train_size,
        DataSpec::Vector(spec) => spec.train_size,
    };
    SimConfig {
        model: ModelSpec::LogisticRegression {
            input_dim: 4,
            classes: 2,
        },
        data: DataSpec::Vector(SyntheticVectorSpec {
            classes: 2,
            dim: 4,
            train_size,
            test_size: 2,
            noise_std: 1.0,
        }),
        eval_every_pushes: u64::MAX,
        eval_max_examples: 2,
        ..config.clone()
    }
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Builds this workload's job for `seed`.
    pub fn job(&self, seed: u64) -> Job {
        match self.name {
            "sim_hetero" => {
                let mut config = resnet110_heterogeneous(dssp_reference(), Scale::Full);
                config.seed = seed;
                // The preset's 400 test examples make `Simulation::new` too short to
                // time. Evaluation reads only the first `eval_max_examples` of the
                // test stream and the training stream is generated apart from it, so a
                // longer test set changes set-up time and nothing else.
                if let DataSpec::Image(spec) = &mut config.data {
                    spec.test_size = 16_000;
                }
                Job::Sim(config)
            }
            "tcp_comm" => Job::Tcp(comm_job(seed, 1)),
            "group_comm" => Job::Group(comm_job(seed, 2)),
            "thr_straggler" => Job::Threads(straggler_job(seed)),
            other => unreachable!("no job for workload {other}"),
        }
    }

    /// The job of the peak-memory probes of `run.rs`: this workload's job cut to one
    /// epoch, and its test set cut to the examples evaluation reads. The model, the
    /// training data, the threads and the buffers are the full job's; what is gone is
    /// the padding [`Workload::job`] gives the test set so that set-up can be timed.
    /// On the socket substrates every role generates that padding for itself (8 MiB
    /// each, dropped at once), and how many of those overlap, not what the job needs,
    /// would decide the peak (README.md, "Noise").
    pub fn probe_job(&self, seed: u64) -> Job {
        fn unpadded(data: DataSpec, test_size: usize) -> DataSpec {
            match data {
                DataSpec::Image(spec) => {
                    DataSpec::Image(dssp_data::SyntheticImageSpec { test_size, ..spec })
                }
                DataSpec::Vector(spec) => {
                    DataSpec::Vector(SyntheticVectorSpec { test_size, ..spec })
                }
            }
        }
        let probe = |job: JobConfig| JobConfig {
            epochs: 1,
            data: unpadded(job.data, job.eval_max_examples),
            ..job
        };
        match self.job(seed) {
            Job::Sim(config) => Job::Sim(SimConfig {
                epochs: 1,
                data: unpadded(config.data, config.eval_max_examples),
                ..config
            }),
            Job::Threads(job) => Job::Threads(probe(job)),
            Job::Tcp(job) => Job::Tcp(probe(job)),
            Job::Group(job) => Job::Group(probe(job)),
        }
    }

    /// This workload's shape — model, data, batch, policy, shards — as a job the
    /// hand-driven round of trace mode can play on one thread: one server, no
    /// artificial delay, no mid-run evaluation.
    pub fn shape_job(&self, seed: u64) -> JobConfig {
        match self.job(seed) {
            Job::Sim(config) => JobConfig {
                model: config.model,
                data: config.data,
                num_workers: config.cluster.num_workers(),
                batch_size: config.batch_size,
                epochs: config.epochs,
                sgd: config.sgd,
                seed,
                eval_every_pushes: u64::MAX,
                eval_max_examples: config.eval_max_examples,
                ..JobConfig::small(config.policy)
            },
            Job::Threads(job) | Job::Tcp(job) | Job::Group(job) => JobConfig {
                servers: 1,
                extra_compute_delay_ms: Vec::new(),
                ..job
            },
        }
    }
}

/// An MLP job on a synthetic vector task, without mid-run evaluation (the final
/// evaluation in `ServerLoop::finish` still gives the accuracy that is checked).
fn mlp_job(seed: u64, hidden: usize, train_size: usize, policy: PolicyKind) -> JobConfig {
    const DIM: usize = 64;
    const CLASSES: usize = 10;
    JobConfig {
        model: ModelSpec::Mlp {
            input_dim: DIM,
            hidden: vec![hidden],
            classes: CLASSES,
        },
        data: DataSpec::Vector(SyntheticVectorSpec {
            classes: CLASSES,
            dim: DIM,
            train_size,
            // Sized so that set-up (dataset generation on the server and in every
            // worker) takes at least 0.05 s and `setup_s` is measurable.
            test_size: 32_768,
            noise_std: 1.0,
        }),
        num_workers: WORKERS,
        seed,
        eval_every_pushes: u64::MAX,
        eval_max_examples: 512,
        ..JobConfig::small(policy)
    }
}

/// The communication-bound job: 76 810 parameters (307 KB push and pull frames),
/// batch 4, so a round is mostly encode, socket, apply and pull.
/// 2048 examples × 8 epochs over 2 workers = 4096 pushes.
pub fn comm_job(seed: u64, servers: usize) -> JobConfig {
    JobConfig {
        batch_size: 4,
        epochs: 8,
        shards: 8,
        servers,
        delta_pulls: true,
        ..mlp_job(seed, 1024, 2048, dssp_reference())
    }
}

/// The gate-bound job: a small model, worker 1 sleeps 2 ms per round, so worker 0
/// spends about half its time waiting for deferred `OK`s. The strict policy is used
/// because literal `Dssp` is bimodal here (README.md, "Workloads").
/// 8192 examples × 4 epochs over 2 workers = 2048 pushes.
pub fn straggler_job(seed: u64) -> JobConfig {
    JobConfig {
        batch_size: 16,
        epochs: 4,
        extra_compute_delay_ms: vec![0, 2],
        ..mlp_job(
            seed,
            256,
            8192,
            PolicyKind::DsspStrict { s_l: 3, r_max: 12 },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_nn::Model;

    #[test]
    fn names_are_unique_and_findable() {
        for w in &ALL {
            assert_eq!(find(w.name), Some(w));
            assert_eq!(ALL.iter().filter(|o| o.name == w.name).count(), 1);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(find("nope"), None);
    }

    #[test]
    fn repeat_seeds_differ_by_seed_and_by_index() {
        let seeds: Vec<u64> = (0..4)
            .flat_map(|s| (0..4).map(move |i| repeat_seed(s, i)))
            .collect();
        for (i, a) in seeds.iter().enumerate() {
            assert!(seeds[i + 1..].iter().all(|b| a != b));
        }
        assert_eq!(repeat_seed(2019, 3), repeat_seed(2019, 3));
    }

    #[test]
    fn virtual_twin_keeps_the_schedule_and_drops_the_compute() {
        let Job::Sim(full) = ALL[0].job(7) else {
            panic!("sim_hetero is a simulator job")
        };
        let twin = virtual_twin(&full);
        assert_eq!(
            (
                twin.seed,
                twin.batch_size,
                twin.epochs,
                twin.policy,
                twin.cost_override
            ),
            (
                full.seed,
                full.batch_size,
                full.epochs,
                full.policy,
                full.cost_override
            )
        );
        assert_eq!(twin.cluster, full.cluster);
        assert!(twin.model.build(1).param_len() < 20);
    }

    #[test]
    fn comm_shape_is_the_documented_one() {
        let job = comm_job(1, 2);
        assert_eq!(job.model.build(1).param_len(), 76_810);
        assert_eq!((job.shards, job.servers, job.batch_size), (8, 2, 4));
        job.validate();
        straggler_job(1).validate();
    }

    #[test]
    fn probe_job_is_the_job_with_one_epoch_and_no_test_set_padding() {
        fn sizes(data: &DataSpec) -> (usize, usize) {
            match data {
                DataSpec::Image(spec) => (spec.train_size, spec.test_size),
                DataSpec::Vector(spec) => (spec.train_size, spec.test_size),
            }
        }
        for w in &ALL {
            let (full, probe) = match (w.job(5), w.probe_job(5)) {
                (Job::Sim(full), Job::Sim(probe)) => {
                    assert_eq!((probe.epochs, &probe.model), (1, &full.model));
                    assert_eq!(sizes(&probe.data).1, full.eval_max_examples);
                    (full.data, probe.data)
                }
                (Job::Threads(full), Job::Threads(probe))
                | (Job::Tcp(full), Job::Tcp(probe))
                | (Job::Group(full), Job::Group(probe)) => {
                    assert_eq!((probe.epochs, &probe.model), (1, &full.model));
                    assert_eq!((probe.servers, probe.shards), (full.servers, full.shards));
                    assert_eq!(sizes(&probe.data).1, full.eval_max_examples);
                    (full.data, probe.data)
                }
                _ => panic!("{}: the probe runs on another substrate", w.name),
            };
            assert_eq!(sizes(&probe).0, sizes(&full).0, "{}", w.name);
            assert!(sizes(&probe).1 < sizes(&full).1, "{}", w.name);
        }
    }

    #[test]
    fn seed_reaches_the_job() {
        for w in &ALL {
            let seed = match w.job(77) {
                Job::Sim(c) => c.seed,
                Job::Threads(j) | Job::Tcp(j) | Job::Group(j) => j.seed,
            };
            assert_eq!(seed, 77, "{}", w.name);
        }
    }
}
