//! Equivalence of the workspace-backed training path against the allocating `Model`
//! API, plus the steady-state regression: a warmed [`Workspace`] must not grow.
//!
//! Two identically seeded replicas of each architecture run the same batches, one via
//! `forward`/`backward`, one via `forward_ws`/`backward_ws`. Outputs, input gradients
//! and accumulated parameter gradients must agree bitwise (both paths share the same
//! kernels), across varying batch sizes including ragged last batches.

use dssp_nn::models::{downsized_alexnet, mlp, resnet_cifar};
use dssp_nn::{Model, Sequential, SoftmaxCrossEntropy, Workspace};
use dssp_tensor::{uniform_init, Tensor};
use proptest::prelude::*;

fn image_models() -> Vec<(Sequential, Sequential)> {
    vec![
        (downsized_alexnet(8, 10, 7), downsized_alexnet(8, 10, 7)),
        (resnet_cifar(8, 2, 10, 9), resnet_cifar(8, 2, 10, 9)),
    ]
}

fn assert_paths_agree(
    alloc_model: &mut Sequential,
    ws_model: &mut Sequential,
    ws: &mut Workspace,
    x: &Tensor,
    labels: &[usize],
) {
    let loss = SoftmaxCrossEntropy::new();

    let logits_alloc = alloc_model.forward(x, true);
    let (loss_alloc, grad_alloc) = loss.loss_and_grad(&logits_alloc, labels);
    alloc_model.zero_grads();
    let gin_alloc = alloc_model.backward(&grad_alloc);

    let mut grad_ws = Tensor::default();
    let logits_ws = ws_model.forward_ws(x, true, ws);
    assert_eq!(logits_ws.as_slice(), logits_alloc.as_slice());
    let loss_ws = loss.loss_and_grad_into(logits_ws, labels, &mut grad_ws);
    assert_eq!(loss_ws.to_bits(), loss_alloc.to_bits());
    assert_eq!(grad_ws.as_slice(), grad_alloc.as_slice());
    ws_model.zero_grads();
    let gin_ws = ws_model.backward_ws(&grad_ws, ws);
    assert_eq!(gin_ws.as_slice(), gin_alloc.as_slice());

    assert_eq!(ws_model.grads(), alloc_model.grads());
}

#[test]
fn workspace_path_is_bitwise_equal_for_image_models() {
    for (mut alloc_model, mut ws_model) in image_models() {
        let mut ws = Workspace::new();
        // Several steps with varying batch sizes, including a ragged small batch.
        for (step, &batch) in [4usize, 7, 2, 7].iter().enumerate() {
            let x = uniform_init(&[batch, 3, 8, 8], 1.0, 100 + step as u64);
            let labels: Vec<usize> = (0..batch).map(|i| (i + step) % 10).collect();
            assert_paths_agree(&mut alloc_model, &mut ws_model, &mut ws, &x, &labels);
        }
    }
}

#[test]
fn warmed_workspace_performs_no_buffer_growth() {
    let mut model = resnet_cifar(8, 3, 10, 3);
    let mut ws = Workspace::new();
    let loss = SoftmaxCrossEntropy::new();
    let mut grad = Tensor::default();
    let x = uniform_init(&[6, 3, 8, 8], 1.0, 5);
    let labels: Vec<usize> = (0..6).map(|i| i % 10).collect();

    let step = |model: &mut Sequential, ws: &mut Workspace, grad: &mut Tensor| {
        let logits = model.forward_ws(&x, true, ws);
        let _ = loss.loss_and_grad_into(logits, &labels, grad);
        model.zero_grads();
        model.backward_ws(grad, ws);
    };

    // Warm-up step sizes every buffer.
    step(&mut model, &mut ws, &mut grad);
    let warmed = ws.total_capacity();
    let warmed_grad = grad.capacity();
    assert!(warmed > 0);

    // Further steps must not grow any workspace buffer.
    for _ in 0..3 {
        step(&mut model, &mut ws, &mut grad);
        assert_eq!(ws.total_capacity(), warmed, "workspace buffers grew");
        assert_eq!(grad.capacity(), warmed_grad, "loss gradient buffer grew");
    }
}

#[test]
fn smaller_batches_reuse_the_warmed_workspace() {
    let mut model = downsized_alexnet(8, 10, 11);
    let mut ws = Workspace::new();
    let loss = SoftmaxCrossEntropy::new();
    let mut grad = Tensor::default();

    let step = |model: &mut Sequential, ws: &mut Workspace, grad: &mut Tensor, b: usize| {
        let x = uniform_init(&[b, 3, 8, 8], 1.0, b as u64);
        let labels: Vec<usize> = (0..b).map(|i| i % 10).collect();
        let logits = model.forward_ws(&x, true, ws);
        let _ = loss.loss_and_grad_into(logits, &labels, grad);
        model.zero_grads();
        model.backward_ws(grad, ws);
    };

    step(&mut model, &mut ws, &mut grad, 8);
    let warmed = ws.total_capacity();
    // A ragged (smaller) batch and a repeat of the full batch must fit in place.
    step(&mut model, &mut ws, &mut grad, 3);
    assert_eq!(ws.total_capacity(), warmed);
    step(&mut model, &mut ws, &mut grad, 8);
    assert_eq!(ws.total_capacity(), warmed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mlp_workspace_path_matches_allocating_path(batch in 1usize..9, hidden in 4usize..24, seed in 0u64..500) {
        let mut alloc_model = mlp(12, &[hidden], 5, seed);
        let mut ws_model = mlp(12, &[hidden], 5, seed);
        let mut ws = Workspace::new();
        let x = uniform_init(&[batch, 12], 1.0, seed + 1);
        let labels: Vec<usize> = (0..batch).map(|i| i % 5).collect();
        assert_paths_agree(&mut alloc_model, &mut ws_model, &mut ws, &x, &labels);
    }
}
