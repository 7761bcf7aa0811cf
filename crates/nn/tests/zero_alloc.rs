//! The zero-allocation guarantee, enforced with a counting global allocator: once a
//! [`Workspace`] is warmed by one training step, subsequent steps must perform **zero**
//! heap allocations in the model forward/backward passes and the loss kernel.

use dssp_nn::models::{downsized_alexnet, resnet_cifar};
use dssp_nn::{Model, Sequential, SoftmaxCrossEntropy, Workspace};
use dssp_tensor::{uniform_init, Tensor};
use dssp_testalloc::{thread_allocations_during, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn assert_steady_state_steps_do_not_allocate(mut model: Sequential, arch: &str) {
    let x = uniform_init(&[8, 3, 8, 8], 1.0, 3);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let loss = SoftmaxCrossEntropy::new();
    let mut ws = Workspace::new();
    let mut grad = Tensor::default();

    let step = |model: &mut Sequential, ws: &mut Workspace, grad: &mut Tensor| {
        let logits = model.forward_ws(&x, true, ws);
        let _ = loss.loss_and_grad_into(logits, &labels, grad);
        model.zero_grads();
        model.backward_ws(grad, ws);
    };

    // Warm-up: buffers grow here, allocations are expected and uncounted.
    step(&mut model, &mut ws, &mut grad);

    for i in 0..3 {
        let count = thread_allocations_during(|| step(&mut model, &mut ws, &mut grad));
        assert_eq!(
            count, 0,
            "{arch}: steady-state training step #{i} performed {count} heap allocations"
        );
    }
}

#[test]
fn alexnet_steady_state_steps_are_allocation_free() {
    assert_steady_state_steps_do_not_allocate(downsized_alexnet(8, 10, 1), "downsized-alexnet");
}

#[test]
fn resnet_steady_state_steps_are_allocation_free() {
    assert_steady_state_steps_do_not_allocate(resnet_cifar(8, 3, 10, 1), "resnet-cifar");
}
