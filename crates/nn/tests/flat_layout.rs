//! The flat parameter layout, pinned.
//!
//! Wire frames, checkpoints and the figure digests all assume one order of a model's
//! parameters: layer by layer, each layer's weights row-major and then its bias, with
//! every layer initialised from its own seed. This suite pins that order for each
//! preset architecture and for the 64 → 1024 → 10 MLP of the communication-bound
//! workload: the FNV-1a hash of the bits of `params_flat()` right after the build, and
//! the loss and the gradient hash of one [`TrainStep`] on a fixed batch. A change to
//! how a replica stores its parameters must leave every row equal; a failure names
//! the model that moved.

use dssp_nn::models::{downsized_alexnet, logistic_regression, mlp, resnet_cifar};
use dssp_nn::{Model, Sequential, TrainStep};
use dssp_tensor::{uniform_init, Tensor};

const CLASSES: usize = 10;

/// FNV-1a over the little-endian bytes of each value's bits.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// A model, the shape of one of its examples, and its pinned readings: the parameter
/// hash after the build, the loss bits and the gradient hash of one step.
struct Pinned {
    name: &'static str,
    build: fn() -> Sequential,
    example: &'static [usize],
    params: u64,
    loss_bits: u32,
    grads: u64,
}

fn pinned() -> Vec<Pinned> {
    vec![
        Pinned {
            name: "mlp",
            build: || mlp(24, &[40], CLASSES, 3),
            example: &[24],
            params: 0x484d_1233_d991_1eca,
            loss_bits: 0x4021_fb02,
            grads: 0xbf2d_e69f_7d3b_4b9f,
        },
        Pinned {
            name: "logreg",
            build: || logistic_regression(24, CLASSES, 4),
            example: &[24],
            params: 0xee13_e4b7_c6df_5705,
            loss_bits: 0x4032_bad6,
            grads: 0x9e5f_7c4c_7a5f_35f8,
        },
        Pinned {
            name: "alexnet",
            build: || downsized_alexnet(8, CLASSES, 5),
            example: &[3, 8, 8],
            params: 0xf65a_155a_7f2e_f1a6,
            loss_bits: 0x4019_f097,
            grads: 0x5df9_741a_5886_fd78,
        },
        Pinned {
            name: "resnet",
            build: || resnet_cifar(8, 2, CLASSES, 6),
            example: &[3, 8, 8],
            params: 0x4aeb_7943_6419_e5db,
            loss_bits: 0x4054_bfd3,
            grads: 0x1f0e_8092_9c8a_5bb5,
        },
        Pinned {
            name: "comm-mlp",
            build: || mlp(64, &[1024], CLASSES, 2019),
            example: &[64],
            params: 0xac6c_36f1_5b43_8f0b,
            loss_bits: 0x4011_6bd0,
            grads: 0x484a_9cd7_29dd_3d6f,
        },
    ]
}

fn batch(example: &[usize]) -> (Tensor, Vec<usize>) {
    const SIZE: usize = 5;
    let dims: Vec<usize> = std::iter::once(SIZE)
        .chain(example.iter().copied())
        .collect();
    let labels = (0..SIZE).map(|i| (i * 7 + 3) % CLASSES).collect();
    (uniform_init(&dims, 1.0, 77), labels)
}

#[test]
fn every_model_keeps_its_flat_layout() {
    let mut moved = Vec::new();
    for p in pinned() {
        let model = (p.build)();
        let weights = model.params_flat();
        assert_eq!(weights.len(), model.param_len(), "{}", p.name);
        // Non-trivial weights for the step: the residual blocks' second convolutions
        // start at zero.
        let moved_weights: Vec<f32> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| w + 1e-3 * ((i % 13) as f32 - 6.0))
            .collect();
        let (x, labels) = batch(p.example);
        let mut step = TrainStep::new(model);
        let mut grads = Vec::new();
        let loss = step.gradient_into(&moved_weights, &x, &labels, &mut grads);
        assert_eq!(grads.len(), weights.len(), "{}", p.name);
        let got = (fnv1a(&weights), loss.to_bits(), fnv1a(&grads));
        if got != (p.params, p.loss_bits, p.grads) {
            moved.push(format!(
                "{}: params {:#018x}, loss_bits {:#010x}, grads {:#018x}",
                p.name, got.0, got.1, got.2
            ));
        }
    }
    assert!(moved.is_empty(), "layout moved:\n{}", moved.join("\n"));
}
