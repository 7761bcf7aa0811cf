//! A sequential container over [`Layer`]s implementing [`Model`].

use crate::workspace::Workspace;
use crate::{Layer, Model};
use dssp_tensor::Tensor;

/// A feed-forward stack of layers executed in order.
///
/// `Sequential` is the model representation every worker replica holds in the DSSP
/// reproduction: the downsized AlexNet, the CIFAR ResNets and the MLP baselines are all
/// built as `Sequential` stacks by [`crate::models`].
pub struct Sequential {
    arch_name: String,
    layers: Vec<Box<dyn Layer>>,
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
    /// Creates an empty model with the given architecture name.
    pub fn new(arch_name: impl Into<String>) -> Self {
        Self {
            arch_name: arch_name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer, returning `self` for chaining.
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Workspace-backed forward pass over the whole stack.
    ///
    /// Activations ping-pong between the workspace's two activation buffers, and each
    /// layer keeps its intermediates in its own [`crate::LayerScratch`], so once `ws`
    /// has been warmed by one step this performs no heap allocations. Returns a
    /// reference to the output activation (owned by `ws`).
    pub fn forward_ws<'w>(
        &mut self,
        input: &Tensor,
        train: bool,
        ws: &'w mut Workspace,
    ) -> &'w Tensor {
        ws.ensure_layers(self.layers.len());
        ws.ping.assign(input);
        let mut flip = false;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (src, dst) = if flip {
                (&ws.pong, &mut ws.ping)
            } else {
                (&ws.ping, &mut ws.pong)
            };
            layer.forward_ws(src, dst, train, &mut ws.layers[i]);
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
    /// Parameter gradients accumulate inside the layers exactly as with
    /// [`Model::backward`]; the returned reference is the gradient with respect to the
    /// model input (owned by `ws`).
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
    /// the first layer with parameters, which is handed no input-gradient buffer.
    fn backward_layers(&mut self, grad_output: &Tensor, ws: &mut Workspace, input_grad: bool) {
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
            layer.backward_ws(src, dst, &mut ws.layers[i]);
            flip = !flip;
        }
    }

    /// Copies all accumulated gradients into `out` (length must be
    /// [`Model::param_len`]), the allocation-free sibling of [`Model::grads_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.param_len()`.
    pub fn read_grads_into(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.param_len(),
            "gradient buffer length mismatch for {}",
            self.arch_name
        );
        let mut offset = 0;
        for layer in &self.layers {
            let n = layer.param_len();
            layer.read_grads(&mut out[offset..offset + n]);
            offset += n;
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

impl Model for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn param_len(&self) -> usize {
        self.layers.iter().map(|l| l.param_len()).sum()
    }

    fn params_flat(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.param_len()];
        let mut offset = 0;
        for layer in &self.layers {
            let n = layer.param_len();
            layer.read_params(&mut out[offset..offset + n]);
            offset += n;
        }
        out
    }

    fn set_params_flat(&mut self, src: &[f32]) {
        assert_eq!(
            src.len(),
            self.param_len(),
            "parameter vector length mismatch for {}",
            self.arch_name
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            let n = layer.param_len();
            layer.write_params(&src[offset..offset + n]);
            offset += n;
        }
    }

    fn grads_flat(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.param_len()];
        let mut offset = 0;
        for layer in &self.layers {
            let n = layer.param_len();
            layer.read_grads(&mut out[offset..offset + n]);
            offset += n;
        }
        out
    }

    fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
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
        Sequential::new("tiny")
            .push(Box::new(DenseLayer::new(4, 8, 1)))
            .push(Box::new(ReluLayer::new()))
            .push(Box::new(DenseLayer::new(8, 3, 2)))
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
        let p = m.params_flat();
        assert_eq!(p.len(), m.param_len());
        let new: Vec<f32> = (0..p.len()).map(|i| i as f32 * 1e-3).collect();
        m.set_params_flat(&new);
        assert_eq!(m.params_flat(), new);
    }

    #[test]
    #[should_panic(expected = "parameter vector length mismatch")]
    fn set_params_with_wrong_length_panics() {
        let mut m = tiny_mlp();
        m.set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn zero_grads_resets_accumulation() {
        let mut m = tiny_mlp();
        let x = uniform_init(&[2, 4], 1.0, 5);
        let y = m.forward(&x, true);
        m.backward(&dssp_tensor::Tensor::ones(y.shape().dims()));
        assert!(m.grads_flat().iter().any(|&g| g != 0.0));
        m.zero_grads();
        assert!(m.grads_flat().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let mut m = tiny_mlp();
        let x = uniform_init(&[2, 4], 1.0, 6);
        let y = m.forward(&x, true);
        let ones = dssp_tensor::Tensor::ones(y.shape().dims());
        m.backward(&ones);
        let g1 = m.grads_flat();
        let _ = m.forward(&x, true);
        m.backward(&ones);
        let g2 = m.grads_flat();
        for (a, b) in g1.iter().zip(&g2) {
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
