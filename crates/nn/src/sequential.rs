//! A sequential container over [`Layer`]s implementing [`Model`].

use crate::workspace::{LayerScratch, Workspace};
use crate::{Layer, Model};
use dssp_tensor::Tensor;
use std::ops::Range;

/// A feed-forward stack of layers executed in order.
///
/// `Sequential` is the model representation every worker replica holds in the DSSP
/// reproduction: the downsized AlexNet, the CIFAR ResNets and the MLP baselines are all
/// built as `Sequential` stacks by [`crate::models`].
///
/// It holds the replica's one copy of the parameters, a flat vector in layer order
/// (each layer's weights row-major, then its bias), and one flat gradient vector laid
/// out the same way; every pass hands each layer its own range of both (the
/// "arena"). A pull writes the parameter vector in place and a push reads the gradient
/// vector as it is: nothing is copied between the model and the wire. The gradient
/// vector is allocated by the first backward pass, so a replica that only evaluates
/// holds none.
pub struct Sequential {
    arch_name: String,
    layers: Vec<Box<dyn Layer>>,
    /// Each layer's range of the two vectors, in layer order.
    ranges: Vec<Range<usize>>,
    params: Vec<f32>,
    /// Empty until the first backward pass, then as long as `params`.
    grads: Vec<f32>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("arch", &self.arch_name)
            .field("layers", &self.layers.len())
            .field("params", &self.param_len())
            .finish()
    }
}

impl Sequential {
    /// Builds a model from its layers, in order: allocates the parameter vector once
    /// and has every layer initialise its range of it.
    pub fn new(arch_name: impl Into<String>, layers: Vec<Box<dyn Layer>>) -> Self {
        let mut end = 0;
        let ranges: Vec<Range<usize>> = layers
            .iter()
            .map(|layer| {
                let start = end;
                end += layer.param_len();
                start..end
            })
            .collect();
        let mut params = vec![0.0; end];
        for (layer, range) in layers.iter().zip(&ranges) {
            layer.init_params(&mut params[range.clone()]);
        }
        Self {
            arch_name: arch_name.into(),
            layers,
            ranges,
            params,
            grads: Vec::new(),
        }
    }

    /// The parameter vector for a pull to write and the gradient vector for the push
    /// that goes out at the same time (a group worker's push reads the weights of the
    /// next round in).
    pub fn arenas(&mut self) -> (&mut Vec<f32>, &[f32]) {
        (&mut self.params, &self.grads)
    }

    /// Panics unless the parameter vector has the model's length.
    fn check_params(&self) {
        assert_eq!(
            self.params.len(),
            self.param_len(),
            "the parameter vector of {} holds {} values, the model has {} parameters",
            self.arch_name,
            self.params.len(),
            self.param_len()
        );
    }

    /// Allocates the gradient vector, zeroed, unless a backward pass already has.
    fn ensure_grads(&mut self) {
        if self.grads.is_empty() {
            self.grads = vec![0.0; self.params.len()];
        }
    }

    /// Workspace-backed forward pass over the whole stack, on the parameter vector.
    ///
    /// Activations ping-pong between the workspace's two activation buffers, and each
    /// layer keeps its intermediates in its own [`crate::LayerScratch`], so once `ws`
    /// has been warmed by one step this performs no heap allocations. Returns a
    /// reference to the output activation (owned by `ws`).
    ///
    /// # Panics
    ///
    /// Panics if the parameter vector's length is not [`Model::param_len`].
    pub fn forward_ws<'w>(
        &mut self,
        input: &Tensor,
        train: bool,
        ws: &'w mut Workspace,
    ) -> &'w Tensor {
        self.check_params();
        ws.ensure_layers(self.layers.len());
        ws.ping.assign(input);
        let mut flip = false;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (src, dst) = if flip {
                (&ws.pong, &mut ws.ping)
            } else {
                (&ws.ping, &mut ws.pong)
            };
            let params = &self.params[self.ranges[i].clone()];
            layer.forward_ws(params, src, dst, train, &mut ws.layers[i]);
            flip = !flip;
        }
        if flip {
            &ws.pong
        } else {
            &ws.ping
        }
    }

    /// Workspace-backed backward pass, mirroring [`Sequential::forward_ws`].
    ///
    /// Parameter gradients accumulate into the gradient vector; the returned reference
    /// is the gradient with respect to the model input (owned by `ws`).
    pub fn backward_ws<'w>(&mut self, grad_output: &Tensor, ws: &'w mut Workspace) -> &'w Tensor {
        if self.layers.is_empty() {
            ws.input_grad.assign(grad_output);
        }
        self.backward_layers(grad_output, ws, true);
        &ws.input_grad
    }

    /// The training backward: accumulates every parameter gradient, bit for bit as
    /// [`Sequential::backward_ws`] does, and computes no gradient that only the model
    /// input's would need. It stops at the first layer with parameters, which computes
    /// no input gradient, and runs no layer below it (an image model's
    /// [`crate::PackLanes`]).
    pub fn backward_params_ws(&mut self, grad_output: &Tensor, ws: &mut Workspace) {
        self.backward_layers(grad_output, ws, false);
    }

    /// The one backward loop. Gradients ping-pong between the workspace's two buffers
    /// from the top layer down. With `input_grad` every layer runs and the bottom one
    /// writes the model input's gradient into `ws.input_grad`; without, the loop ends at
    /// the first layer with parameters, which is handed no input-gradient buffer. The
    /// first call allocates the gradient vector, zeroed.
    fn backward_layers(&mut self, grad_output: &Tensor, ws: &mut Workspace, input_grad: bool) {
        self.check_params();
        self.ensure_grads();
        ws.ensure_layers(self.layers.len());
        let bottom = if input_grad {
            0
        } else {
            let first = self.layers.iter().position(|l| l.param_len() > 0);
            first.unwrap_or(self.layers.len())
        };
        ws.ping.assign(grad_output);
        let mut flip = false;
        for (i, layer) in self.layers.iter_mut().enumerate().skip(bottom).rev() {
            let (src, dst) = if flip {
                (&ws.pong, &mut ws.ping)
            } else {
                (&ws.ping, &mut ws.pong)
            };
            let dst = if i > bottom {
                Some(dst)
            } else {
                input_grad.then_some(&mut ws.input_grad)
            };
            let range = self.ranges[i].clone();
            layer.backward_ws(
                &self.params[range.clone()],
                &mut self.grads[range],
                src,
                dst,
                &mut ws.layers[i],
            );
            flip = !flip;
        }
    }

    /// Total parameter count in the fully connected layers only.
    ///
    /// Used to classify a model into the paper's "with FC layers" / "without FC layers"
    /// categories (the final classifier head is excluded by convention, matching the
    /// paper's note that the softmax layer does not count).
    pub fn dense_param_len_excluding_head(&self) -> usize {
        let dense_layers: Vec<&Box<dyn Layer>> = self
            .layers
            .iter()
            .filter(|l| l.name().starts_with("dense"))
            .collect();
        if dense_layers.is_empty() {
            return 0;
        }
        // Exclude the last dense layer (the softmax classifier head).
        dense_layers[..dense_layers.len() - 1]
            .iter()
            .map(|l| l.param_len())
            .sum()
    }
}

/// The allocating passes are a plain chain, independent of the workspace's ping-pong:
/// every layer writes into a fresh tensor with fresh scratch (bitwise the same result
/// as [`Sequential::forward_ws`] and [`Sequential::backward_ws`]).
impl Model for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.check_params();
        let mut x = input.clone();
        for (layer, range) in self.layers.iter_mut().zip(&self.ranges) {
            let mut out = Tensor::default();
            let params = &self.params[range.clone()];
            layer.forward_ws(params, &x, &mut out, train, &mut LayerScratch::default());
            x = out;
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.check_params();
        self.ensure_grads();
        let mut g = grad_output.clone();
        for (layer, range) in self.layers.iter_mut().zip(&self.ranges).rev() {
            let mut grad_input = Tensor::default();
            layer.backward_ws(
                &self.params[range.clone()],
                &mut self.grads[range.clone()],
                &g,
                Some(&mut grad_input),
                &mut LayerScratch::default(),
            );
            g = grad_input;
        }
        g
    }

    fn param_len(&self) -> usize {
        self.ranges.last().map_or(0, |r| r.end)
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Vec<f32> {
        &mut self.params
    }

    fn grads(&self) -> &[f32] {
        &self.grads
    }

    fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }

    fn flops_per_example(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_per_example()).sum()
    }

    fn arch_name(&self) -> &str {
        &self.arch_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{DenseLayer, ReluLayer};
    use dssp_tensor::uniform_init;

    fn tiny_mlp() -> Sequential {
        Sequential::new(
            "tiny",
            vec![
                Box::new(DenseLayer::new(4, 8, 1)),
                Box::new(ReluLayer::new()),
                Box::new(DenseLayer::new(8, 3, 2)),
            ],
        )
    }

    #[test]
    fn forward_produces_logits_of_right_shape() {
        let mut m = tiny_mlp();
        let x = uniform_init(&[5, 4], 1.0, 3);
        let y = m.forward(&x, true);
        assert_eq!(y.shape().dims(), &[5, 3]);
    }

    #[test]
    fn params_flat_roundtrip() {
        let mut m = tiny_mlp();
        assert_eq!(m.params_flat().len(), m.param_len());
        let new: Vec<f32> = (0..m.param_len()).map(|i| i as f32 * 1e-3).collect();
        m.params_mut().copy_from_slice(&new);
        assert_eq!(m.params_flat(), new);
        // A pass runs on the vector as written: all-zero weights, all-zero logits.
        m.params_mut().fill(0.0);
        let x = uniform_init(&[2, 4], 1.0, 4);
        assert!(m.forward(&x, true).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "the parameter vector of tiny holds 3 values, the model has 67")]
    fn set_params_with_wrong_length_panics() {
        let mut m = tiny_mlp();
        m.params_mut().truncate(3);
        m.forward(&uniform_init(&[2, 4], 1.0, 4), true);
    }

    #[test]
    fn gradients_are_allocated_by_the_first_backward() {
        let mut m = tiny_mlp();
        m.zero_grads();
        assert!(m.grads().is_empty());
        let y = m.forward(&uniform_init(&[2, 4], 1.0, 5), true);
        m.backward(&Tensor::ones(y.shape().dims()));
        assert_eq!(m.grads().len(), m.param_len());
    }

    #[test]
    fn zero_grads_resets_accumulation() {
        let mut m = tiny_mlp();
        let x = uniform_init(&[2, 4], 1.0, 5);
        let y = m.forward(&x, true);
        m.backward(&Tensor::ones(y.shape().dims()));
        assert!(m.grads().iter().any(|&g| g != 0.0));
        m.zero_grads();
        assert!(m.grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let mut m = tiny_mlp();
        let x = uniform_init(&[2, 4], 1.0, 6);
        let y = m.forward(&x, true);
        let ones = Tensor::ones(y.shape().dims());
        m.backward(&ones);
        let g1 = m.grads().to_vec();
        let _ = m.forward(&x, true);
        m.backward(&ones);
        for (a, b) in g1.iter().zip(m.grads()) {
            assert!((b - 2.0 * a).abs() < 1e-4);
        }
    }

    #[test]
    fn layer_names_and_counts() {
        let m = tiny_mlp();
        assert_eq!(m.layers.len(), 3);
        assert_eq!(m.layers[1].name(), "relu");
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn dense_param_len_excludes_classifier_head() {
        let m = tiny_mlp();
        // Only the first dense layer counts; the 8x3 head is excluded.
        assert_eq!(m.dense_param_len_excluding_head(), 4 * 8 + 8);
    }
}
