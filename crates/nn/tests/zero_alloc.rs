//! The zero-allocation guarantee, enforced with a counting global allocator: once a
//! [`Workspace`] is warmed by one training step, subsequent steps must perform **zero**
//! heap allocations in the model forward/backward passes and the loss kernel, and so
//! must a warm [`TrainStep`] (weights in, training backward, flat gradient out). The
//! same allocator bounds what a replica holds: one parameter copy until it trains.

use dssp_nn::models::{downsized_alexnet, logistic_regression, mlp, resnet_cifar};
use dssp_nn::{Model, Sequential, SoftmaxCrossEntropy, TrainStep, Workspace};
use dssp_tensor::{uniform_init, Tensor};
use dssp_testalloc::{thread_allocations_during, thread_bytes_during, CountingAlloc};

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

#[test]
fn warm_train_steps_are_allocation_free_for_every_preset() {
    let image = uniform_init(&[8, 3, 8, 8], 1.0, 3);
    let vector = uniform_init(&[8, 24], 1.0, 4);
    let cases = [
        ("mlp", mlp(24, &[40], 10, 1), &vector),
        ("logreg", logistic_regression(24, 10, 2), &vector),
        ("downsized-alexnet", downsized_alexnet(8, 10, 3), &image),
        ("resnet-cifar", resnet_cifar(8, 3, 10, 4), &image),
    ];
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    for (arch, model, x) in cases {
        let weights = model.params_flat();
        let mut step = TrainStep::new(model);
        let mut grads = Vec::new();
        // Warm-up: buffers grow here, allocations are expected and uncounted.
        step.gradient_into(&weights, x, &labels, &mut grads);
        for i in 0..3 {
            let count = thread_allocations_during(|| {
                step.gradient_into(&weights, x, &labels, &mut grads);
            });
            assert_eq!(
                count, 0,
                "{arch}: warm train step #{i} performed {count} heap allocations"
            );
        }
    }
}

/// A model to build: its name, its constructor and an input batch it trains on.
type BuildCase<'a> = (&'static str, fn() -> Sequential, &'a Tensor);

/// A replica holds one copy of its parameters until it trains: building the
/// communication-bound MLP (64 → 1024 → 10, 76 810 parameters) or the downsized
/// AlexNet asks the allocator for less than 1.5 × the parameter bytes, and the
/// replica's gradient vector is allocated by its first training step.
#[test]
fn a_replica_holds_one_parameter_copy_until_it_trains() {
    let vector = uniform_init(&[4, 64], 1.0, 4);
    let image = uniform_init(&[4, 3, 8, 8], 1.0, 3);
    let cases: [BuildCase; 2] = [
        ("mlp", || mlp(64, &[1024], 10, 1), &vector),
        ("downsized-alexnet", || downsized_alexnet(8, 10, 1), &image),
    ];
    let labels: Vec<usize> = (0..4).map(|i| i % 10).collect();
    for (arch, build, x) in cases {
        let mut model = None;
        let built = thread_bytes_during(|| model = Some(build()));
        let model = model.expect("built");
        let param_bytes = (model.param_len() * std::mem::size_of::<f32>()) as u64;
        assert!(
            2 * built < 3 * param_bytes,
            "{arch}: the build asked for {built} B, {:.2} x the {param_bytes} parameter bytes",
            built as f64 / param_bytes as f64
        );
        assert!(
            model.grads().is_empty(),
            "{arch}: gradients before training"
        );
        let mut step = TrainStep::new(model);
        let first = thread_bytes_during(|| {
            step.gradient(x, &labels);
        });
        assert_eq!(step.grads().len(), step.param_len(), "{arch}");
        assert!(
            first >= param_bytes,
            "{arch}: the first step asked for {first} B, less than one gradient vector"
        );
    }
}
