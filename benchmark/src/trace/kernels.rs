//! Kernel and data probes. Their shapes are fixed — 256³ GEMMs, the residual-block
//! convolution and the whole ResNet-110 analogue at batch 32 — so that they read the
//! same under every workload; only the data probes follow the workload's dataset.

use super::Probe;
use dssp_core::driver::JobConfig;
use dssp_data::BatchIter;
use dssp_nn::models::{resnet_cifar, ModelSpec};
use dssp_nn::{Model, SoftmaxCrossEntropy, Workspace};
use dssp_sim::{DataSpec, SimConfig, Simulation};
use dssp_tensor::{
    conv2d_backward_into, conv2d_into, uniform_init, Conv2dSpec, ConvScratch, Tensor,
};
use std::hint::black_box;

/// Batch size of the compute shape (the presets' batch).
const BATCH: usize = 32;

/// Appends the kernel, model, data and simulator-engine metrics.
pub fn measure(
    probe: &mut Probe,
    job: &JobConfig,
    seed: u64,
    metrics: &mut Vec<(&'static str, f64)>,
) {
    matmuls(probe, metrics);
    convolution(probe, metrics);
    model(probe, metrics);
    data(probe, job, metrics);
    sim_engine(probe, seed, metrics);
}

/// The three GEMM variants at 256³ (ROADMAP 1b: `matmul_nt` is the slow one).
fn matmuls(probe: &mut Probe, metrics: &mut Vec<(&'static str, f64)>) {
    let a = uniform_init(&[256, 256], 1.0, 1);
    let b = uniform_init(&[256, 256], 1.0, 2);
    let mut c = Tensor::default();
    let us = probe.time("tensor.matmul", || a.matmul_into(&b, &mut c)) / 1e3;
    metrics.push(("tensor.matmul_us", us));
    let us = probe.time("tensor.matmul_nt", || a.matmul_nt_into(&b, &mut c)) / 1e3;
    metrics.push(("tensor.matmul_nt_us", us));
    let us = probe.time("tensor.matmul_tn", || a.matmul_tn_into(&b, &mut c)) / 1e3;
    metrics.push(("tensor.matmul_tn_us", us));
    black_box(&c);
}

/// The residual-block convolution of the ResNet analogues: 32×8×4×4 input, 8 filters
/// of 3×3, padding 1 — forward, then backward from its cached column matrix.
fn convolution(probe: &mut Probe, metrics: &mut Vec<(&'static str, f64)>) {
    const SIDE: usize = 4;
    let spec = Conv2dSpec {
        in_channels: 8,
        out_channels: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let input = uniform_init(&[BATCH, 8, SIDE, SIDE], 1.0, 3);
    let weight = uniform_init(&[8, spec.weight_count() / 8], 1.0, 4);
    let bias = uniform_init(&[8], 1.0, 5);
    let grad_out = uniform_init(&[BATCH, 8, SIDE, SIDE], 1.0, 6);
    let mut cols = Tensor::default();
    let mut scratch = ConvScratch::default();
    let mut out = Tensor::default();
    let fwd = probe.time("tensor.conv2d_fwd", || {
        conv2d_into(
            &input,
            &weight,
            &bias,
            SIDE,
            SIDE,
            &spec,
            &mut cols,
            &mut scratch,
            &mut out,
        )
    });
    let (mut g_t, mut grad_cols_t) = (Tensor::default(), Tensor::default());
    let (mut grad_input, mut grad_weight, mut grad_bias) =
        (Tensor::default(), Tensor::default(), Tensor::default());
    let bwd = probe.time("tensor.conv2d_bwd", || {
        conv2d_backward_into(
            &grad_out,
            &cols,
            &weight,
            BATCH,
            SIDE,
            SIDE,
            &spec,
            &mut g_t,
            &mut grad_cols_t,
            &mut scratch,
            &mut grad_input,
            &mut grad_weight,
            &mut grad_bias,
        )
    });
    black_box((&out, &grad_input));
    metrics.push(("tensor.conv2d_fwd_us", fwd / 1e3));
    metrics.push(("tensor.conv2d_bwd_us", bwd / 1e3));
}

/// Forward and backward passes of the ResNet-110 analogue on the workspace path.
fn model(probe: &mut Probe, metrics: &mut Vec<(&'static str, f64)>) {
    let x = uniform_init(&[BATCH, 3, 8, 8], 1.0, 7);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 20).collect();
    let mut net = resnet_cifar(8, 9, 20, 1);
    let mut ws = Workspace::new();
    let fwd = probe.time("nn.forward", || {
        black_box(net.forward_ws(&x, true, &mut ws));
    });
    let mut grad = Tensor::default();
    SoftmaxCrossEntropy::new().loss_and_grad_into(
        net.forward_ws(&x, true, &mut ws),
        &labels,
        &mut grad,
    );
    let bwd = probe.time("nn.backward", || {
        net.zero_grads();
        black_box(net.backward_ws(&grad, &mut ws));
    });
    metrics.push(("nn.forward_us", fwd / 1e3));
    metrics.push(("nn.backward_us", bwd / 1e3));
}

/// Generating the workload's dataset, and drawing one mini-batch from a worker's shard.
fn data(probe: &mut Probe, job: &JobConfig, metrics: &mut Vec<(&'static str, f64)>) {
    let generate = probe.time("data.generate", || {
        black_box(job.data.generate(job.seed));
    });
    let shard = job
        .data
        .generate(job.seed)
        .shard_train(job.num_workers)
        .swap_remove(0);
    let mut batches = BatchIter::new(shard, job.batch_size, job.seed.wrapping_add(1));
    let next = probe.time("data.next_batch", || {
        black_box(batches.next_batch());
    });
    metrics.push(("data.generate_ms", generate / 1e6));
    metrics.push(("data.next_batch_us", next / 1e3));
}

/// The simulator's own cost per push: a 16-dimensional logistic regression, where the
/// gradient is a few hundred flops and what remains is the event loop, the weight
/// copies and the server.
fn sim_engine(probe: &mut Probe, seed: u64, metrics: &mut Vec<(&'static str, f64)>) {
    let config = SimConfig {
        model: ModelSpec::LogisticRegression {
            input_dim: 16,
            classes: 4,
        },
        data: DataSpec::Vector(dssp_data::SyntheticVectorSpec {
            classes: 4,
            dim: 16,
            train_size: 2048,
            test_size: 64,
            noise_std: 0.6,
        }),
        batch_size: 16,
        epochs: 1,
        eval_every_pushes: u64::MAX,
        seed,
        ..SimConfig::default_small()
    };
    let mut pushes = 0;
    let run_ns = probe.time_round(&["sim.engine_run"], |rec| {
        let simulation = Simulation::new(config.clone()); // set-up stays outside the span
        pushes = rec.span("sim.engine_run", || simulation.run()).total_pushes;
    })[0];
    metrics.push(("sim.engine_us_per_push", run_ns / 1e3 / pushes as f64));
}
