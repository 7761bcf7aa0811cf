//! The training backward is the full backward minus what nobody reads.
//!
//! [`TrainStep::gradient_into`] runs [`Sequential::backward_params_ws`], which stops at
//! a model's first layer with parameters: that layer computes no input gradient and the
//! layers below it (an image model's `PackLanes`) do not run. For every architecture
//! the presets build, this suite holds it to the full [`Sequential::backward_ws`]:
//!
//! * over several batches of varying size and changing weights, the flat gradient and
//!   the loss are bit for bit those of `zero_grads` + `backward_ws`, read from `grads`;
//! * a workspace that only trains never sizes the model input's gradient: it is smaller
//!   than a fully run one by exactly that buffer, and nothing else differs.

use dssp_nn::models::{downsized_alexnet, logistic_regression, mlp, resnet_cifar};
use dssp_nn::{Model, Sequential, SoftmaxCrossEntropy, TrainStep, Workspace};
use dssp_tensor::{uniform_init, Tensor};

const CLASSES: usize = 10;

/// A preset architecture at test size: its name, a builder, the shape of one example.
type Preset = (&'static str, fn() -> Sequential, Vec<usize>);

fn presets() -> Vec<Preset> {
    vec![
        ("mlp", || mlp(24, &[40], CLASSES, 3), vec![24]),
        ("logreg", || logistic_regression(24, CLASSES, 4), vec![24]),
        (
            "alexnet",
            || downsized_alexnet(8, CLASSES, 5),
            vec![3, 8, 8],
        ),
        ("resnet", || resnet_cifar(8, 2, CLASSES, 6), vec![3, 8, 8]),
    ]
}

fn batch(example: &[usize], size: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let dims: Vec<usize> = std::iter::once(size)
        .chain(example.iter().copied())
        .collect();
    let labels = (0..size)
        .map(|i| (i * 7 + seed as usize) % CLASSES)
        .collect();
    (uniform_init(&dims, 1.0, seed), labels)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn training_gradient_is_bitwise_the_full_backward_gradient() {
    for (arch, build, example) in presets() {
        let mut step = TrainStep::new(build());
        let mut full = build();
        let mut ws = Workspace::new();
        let loss_fn = SoftmaxCrossEntropy::new();
        let (mut grad_logits, mut trained) = (Tensor::default(), vec![]);
        let mut weights = full.params_flat();
        for (i, &size) in [4usize, 7, 2, 7].iter().enumerate() {
            // A pull between steps: every weight moves.
            for (j, w) in weights.iter_mut().enumerate() {
                *w += 1e-3 * ((i * 31 + j) % 17) as f32 - 8e-3;
            }
            let (x, labels) = batch(&example, size, 100 + i as u64);
            let loss = step.gradient_into(&weights, &x, &labels, &mut trained);

            full.params_mut().copy_from_slice(&weights);
            let logits = full.forward_ws(&x, true, &mut ws);
            let full_loss = loss_fn.loss_and_grad_into(logits, &labels, &mut grad_logits);
            full.zero_grads();
            full.backward_ws(&grad_logits, &mut ws);
            let expected = full.grads();

            assert_eq!(loss.to_bits(), full_loss.to_bits(), "{arch} step {i}: loss");
            assert_eq!(bits(&trained), bits(expected), "{arch} step {i}: gradient");
        }
    }
}

#[test]
fn a_training_workspace_never_sizes_the_input_gradient() {
    for (arch, build, example) in presets() {
        let (mut trained, mut full) = (build(), build());
        let (mut train_ws, mut full_ws) = (Workspace::new(), Workspace::new());
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut grad_logits = Tensor::default();
        let mut input_grad_capacity = 0;
        for (i, &size) in [6usize, 3, 6].iter().enumerate() {
            let (x, labels) = batch(&example, size, 200 + i as u64);
            let logits = trained.forward_ws(&x, true, &mut train_ws);
            loss_fn.loss_and_grad_into(logits, &labels, &mut grad_logits);
            trained.backward_params_ws(&grad_logits, &mut train_ws);

            let logits = full.forward_ws(&x, true, &mut full_ws);
            loss_fn.loss_and_grad_into(logits, &labels, &mut grad_logits);
            let input_grad = full.backward_ws(&grad_logits, &mut full_ws);
            assert_eq!(input_grad.shape().dims(), x.shape().dims(), "{arch}");
            input_grad_capacity = input_grad.capacity();
        }
        assert!(input_grad_capacity > 0, "{arch}");
        assert_eq!(
            train_ws.total_capacity() + input_grad_capacity,
            full_ws.total_capacity(),
            "{arch}: the training workspace differs by more than the input gradient"
        );
    }
}
