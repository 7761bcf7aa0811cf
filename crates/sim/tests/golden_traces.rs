//! Whole-run golden traces of small simulations: the FNV-1a hash of each `RunTrace`'s
//! `{:?}` rendering, pinned. The figure digests cover six presets; these cases reach
//! the corners of the simulator's server side they may miss:
//!
//! * unequal shard targets, so a worker stays blocked after its peers finished and the
//!   end-of-training drain has to restart it (`bsp3`);
//! * a step learning-rate schedule whose milestones are crossed mid-run;
//! * a last push that lands on the evaluation cadence, so the closing evaluation
//!   repeats its point;
//! * three and four workers of unequal speed under every synchronization policy.
//!
//! A refactor of the simulator must keep every hash. A change that alters results on
//! purpose updates the table in the same commit; the failure message prints every
//! case's current hash.

use dssp_cluster::{ClusterSpec, DeviceProfile, LinkProfile, WorkerSpec};
use dssp_data::SyntheticVectorSpec;
use dssp_nn::models::ModelSpec;
use dssp_nn::{CostProfile, LrSchedule, SgdConfig};
use dssp_ps::PolicyKind;
use dssp_sim::{DataSpec, RunTrace, SimConfig, Simulation};

fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn cluster(devices: &[DeviceProfile]) -> ClusterSpec {
    ClusterSpec::new(
        devices.iter().cloned().map(WorkerSpec::single).collect(),
        LinkProfile::ethernet_10g(),
    )
}

/// An MLP on a vector task with a step schedule that decays at epochs 1 and 2.
fn base(policy: PolicyKind) -> SimConfig {
    SimConfig {
        model: ModelSpec::Mlp {
            input_dim: 16,
            hidden: vec![12],
            classes: 4,
        },
        data: DataSpec::Vector(SyntheticVectorSpec {
            classes: 4,
            dim: 16,
            train_size: 256,
            test_size: 64,
            noise_std: 0.7,
        }),
        cluster: cluster(&[
            DeviceProfile::gtx1060(),
            DeviceProfile::gtx1080ti(),
            DeviceProfile::p100(),
            DeviceProfile::gtx1060(),
        ]),
        policy,
        batch_size: 16,
        epochs: 3,
        sgd: SgdConfig {
            schedule: LrSchedule::step(0.05, 0.1, &[1, 2]),
            momentum: 0.9,
            weight_decay: 0.0,
        },
        seed: 17,
        // 4 workers × 12 iterations = 48 pushes: the last one is an evaluation point.
        eval_every_pushes: 8,
        eval_max_examples: 64,
        // A compute-bound iteration (the ResNet-110 stand-in's cost), so the devices'
        // speeds set the pace and the gate has leads to judge.
        cost_override: Some(CostProfile {
            flops_per_example: 3_200_000,
            param_count: 3_400,
            has_fc_layers: false,
        }),
    }
}

/// Three workers on shards of 34, 33 and 33 examples with batches of 11: worker 0 runs
/// 8 iterations, the others 6 (20 pushes, so the last one evaluates too).
fn unequal(policy: PolicyKind) -> SimConfig {
    SimConfig {
        data: DataSpec::Vector(SyntheticVectorSpec {
            classes: 4,
            dim: 16,
            train_size: 100,
            test_size: 64,
            noise_std: 0.7,
        }),
        cluster: cluster(&[
            DeviceProfile::gtx1080ti(),
            DeviceProfile::gtx1060(),
            DeviceProfile::p100(),
        ]),
        batch_size: 11,
        epochs: 2,
        sgd: SgdConfig {
            schedule: LrSchedule::step(0.05, 0.5, &[1]),
            momentum: 0.9,
            weight_decay: 0.0,
        },
        eval_every_pushes: 5,
        ..base(policy)
    }
}

const POLICIES: [(&str, PolicyKind); 5] = [
    ("bsp", PolicyKind::Bsp),
    ("asp", PolicyKind::Asp),
    ("ssp", PolicyKind::Ssp { s: 1 }),
    ("dssp", PolicyKind::Dssp { s_l: 1, r_max: 3 }),
    ("strict", PolicyKind::DsspStrict { s_l: 1, r_max: 3 }),
];

/// `(case, hash)`: the case name is the policy, then the worker count.
const GOLDEN: [(&str, u64); 10] = [
    ("bsp4", 0xe8f0_bf6a_2fa7_7806),
    ("asp4", 0x81f7_5aa2_ccb6_2726),
    ("ssp4", 0x2180_49e7_9461_3726),
    ("dssp4", 0x94ef_6c4a_8ef2_3c06),
    ("strict4", 0xdbf8_84d5_57c6_3d84),
    ("bsp3", 0xacdf_05c7_52e5_908f),
    ("asp3", 0xd8c3_a57a_9a1b_f04a),
    ("ssp3", 0x1b7e_c58e_7a53_14ff),
    ("dssp3", 0xcc5b_745b_509f_9666),
    ("strict3", 0xabb0_346a_7239_e520),
];

fn run_all() -> Vec<(String, RunTrace)> {
    let mut runs = Vec::new();
    for (workers, build) in [(4, base as fn(PolicyKind) -> SimConfig), (3, unequal)] {
        for (name, policy) in POLICIES {
            runs.push((
                format!("{name}{workers}"),
                Simulation::new(build(policy)).run(),
            ));
        }
    }
    runs
}

#[test]
fn whole_run_traces_match_their_golden_hashes() {
    let runs = run_all();
    let actual: Vec<(String, u64)> = runs
        .iter()
        .map(|(case, trace)| (case.clone(), fnv1a(&format!("{trace:?}"))))
        .collect();
    let table: String = actual
        .iter()
        .map(|(case, hash)| format!("    (\"{case}\", {hash:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|&(case, hash)| (case.to_string(), hash))
        .collect();
    assert_eq!(actual, expected, "current hashes:\n{table}");
}

/// The cases reach what they are named for.
#[test]
fn the_cases_cover_the_corners_they_pin() {
    let runs = run_all();
    let get = |case: &str| &runs.iter().find(|(c, _)| c == case).expect("case").1;
    for (case, trace) in &runs {
        // The last push lands on the cadence, and the closing evaluation repeats it.
        let n = trace.points.len();
        assert!(n >= 2, "{case}");
        assert_eq!(
            trace.points[n - 1].pushes,
            trace.points[n - 2].pushes,
            "{case}"
        );
        // The step schedule's first milestone is crossed before the end.
        assert!(trace.points.iter().any(|p| p.epoch >= 1), "{case}");
    }
    let bsp3 = get("bsp3");
    let iterations: Vec<u64> = bsp3.worker_summaries.iter().map(|w| w.iterations).collect();
    assert_eq!(iterations, vec![8, 6, 6]);
    // Worker 0 outlives the peers that could release it: its last pushes wait for the
    // drain, so it waits although it is the fastest device.
    assert!(bsp3.worker_summaries[0].waiting_time_s > 0.0);
    assert!(get("dssp4").server_stats.credits_granted > 0);
}
