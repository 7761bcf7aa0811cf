//! Calibration helper: trains each stand-in architecture single-process (no parameter
//! server) on its synthetic task and prints the accuracy trajectory. Used to verify
//! that the reproduction's models and datasets are learnable before running the
//! distributed experiments, and to pick learning rates for the presets.

use dssp_data::{Dataset, SyntheticImageSpec};
use dssp_nn::models::ModelSpec;
use dssp_nn::{accuracy, LrSchedule, Model, Sgd, SgdConfig, SoftmaxCrossEntropy};

fn train(
    label: &str,
    model_spec: ModelSpec,
    data_spec: SyntheticImageSpec,
    lr: f32,
    steps: usize,
    batch: usize,
) {
    let data = Dataset::generate(&data_spec, 7);
    let shard = data.shard_train(1).remove(0);
    let mut batches = dssp_data::BatchIter::new(shard, batch, 3);
    let mut model = model_spec.build(1);
    let mut sgd = Sgd::new(
        SgdConfig {
            schedule: LrSchedule::constant(lr),
            momentum: 0.9,
            weight_decay: 1e-4,
        },
        model.param_len(),
    );
    let loss_fn = SoftmaxCrossEntropy::new();
    let (tx, ty) = data.test_batch(256);
    println!("== {label}: {} params, lr {lr} ==", model.param_len());
    for step in 0..steps {
        let (x, labels) = batches.next_batch();
        let logits = model.forward(&x, true);
        let (loss, grad) = loss_fn.loss_and_grad(&logits, &labels);
        model.zero_grads();
        model.backward(&grad);
        let (params, grads) = model.arenas();
        sgd.step(params, grads);
        if step % (steps / 8).max(1) == 0 || step + 1 == steps {
            let test_logits = model.forward(&tx, false);
            let acc = accuracy(&test_logits, &ty);
            println!("  step {step:>5}  train_loss {loss:.3}  test_acc {acc:.3}");
        }
    }
}

fn main() {
    let lr: f32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.08);
    let steps: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(800);
    train(
        "downsized-alexnet / cifar10-like",
        ModelSpec::DownsizedAlexNet {
            image_side: 8,
            classes: 10,
        },
        SyntheticImageSpec::cifar10_like()
            .with_image_side(8)
            .with_sizes(2000, 400),
        lr,
        steps,
        32,
    );
    train(
        "resnet-cifar-9b / cifar100-like (20 classes)",
        ModelSpec::ResNetCifar {
            image_side: 8,
            blocks: 9,
            classes: 20,
        },
        SyntheticImageSpec::cifar100_like()
            .with_image_side(8)
            .with_classes(20)
            .with_sizes(2000, 400),
        lr,
        steps,
        32,
    );
}
