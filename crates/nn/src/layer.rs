//! The [`Layer`] and [`Model`] traits: the contract between the training substrate and
//! the distributed runtimes.

use crate::workspace::LayerScratch;
use dssp_tensor::Tensor;

/// A differentiable layer.
///
/// A layer owns no parameters. Its model keeps one flat parameter vector and one flat
/// gradient vector for all of its layers (the replica's "arena", see
/// [`crate::Sequential`]); a pass hands each layer its own range of both, `param_len()`
/// values long, in layer order. A layer reads its weights from its parameter range
/// and accumulates its gradients into its gradient range. That flat view is exactly
/// what a worker pulls from the parameter server and pushes back to it, mirroring the
/// key-value tensor slices MXNet's KVStore exchanges in the paper's implementation.
///
/// The forward pass caches whatever intermediate state the backward pass needs **in
/// the layer itself**, so a layer instance must be used in strict forward → backward
/// order for a given mini-batch (which is how both the simulator and the threaded
/// runtime drive it).
pub trait Layer: Send {
    /// Human-readable layer name used in diagnostics.
    fn name(&self) -> &str;

    /// Forward pass on the parameters `params` (this layer's range of the model's
    /// parameter vector): writes the output into `out`, taking any temporary it needs
    /// from `scratch`, so a warmed workspace runs without heap allocations. `train`
    /// selects training-time behaviour where relevant.
    ///
    /// `scratch` holds reusable buffers only; it carries nothing from this call to the
    /// matching [`Layer::backward_ws`] (that state lives in the layer).
    fn forward_ws(
        &mut self,
        params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
        train: bool,
        scratch: &mut LayerScratch,
    );

    /// Backward pass given the gradient with respect to this layer's output:
    /// accumulates the parameter gradients into `grads` (this layer's range of the
    /// model's gradient vector) and, when `grad_input` is `Some`, writes the gradient
    /// with respect to the layer input into it. `params` is the range the matching
    /// forward pass read.
    ///
    /// `None` means nobody reads the input gradient: the layer accumulates its
    /// parameter gradients, bitwise as with `Some`, and computes nothing else (a layer
    /// without parameters does nothing at all). The training backward,
    /// [`crate::Sequential::backward_params_ws`], passes `None` to a model's first
    /// layer with parameters and runs no layer below it.
    fn backward_ws(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
        scratch: &mut LayerScratch,
    );

    /// Number of learnable parameters in this layer: the length of its ranges.
    fn param_len(&self) -> usize {
        0
    }

    /// Writes this layer's initial parameters into `params` (its range of a freshly
    /// built model's parameter vector), each layer from its own seed.
    fn init_params(&self, _params: &mut [f32]) {}

    /// Floating-point operations needed for one example's forward + backward pass.
    ///
    /// Used by the cluster time model to derive per-iteration compute time.
    fn flops_per_example(&self) -> u64;
}

/// A trainable model: the object a data-parallel worker replicates.
///
/// A replica holds one copy of its parameters, the flat vector a pull writes into
/// ([`Model::params_mut`]), and, once it has run a backward pass, one flat gradient
/// vector a push reads ([`Model::grads`]); both are in layer order, row-major within
/// layers. A replica that only evaluates never holds gradients.
///
/// [`crate::Sequential`] is the only implementation in this crate, but the trait keeps
/// the distributed runtimes decoupled from the concrete architecture.
pub trait Model: Send {
    /// Runs the forward pass over a mini-batch.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Runs the backward pass, accumulating parameter gradients.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Total number of learnable parameters.
    fn param_len(&self) -> usize;

    /// The parameter vector (layer order, row-major within layers).
    fn params(&self) -> &[f32];

    /// The parameter vector, for a pull to write in place. A caller that changes its
    /// length breaks the replica until it is restored: a pass over a vector of any
    /// length but [`Model::param_len`] panics.
    fn params_mut(&mut self) -> &mut Vec<f32>;

    /// Returns a copy of the parameter vector.
    fn params_flat(&self) -> Vec<f32> {
        self.params().to_vec()
    }

    /// The accumulated gradients, in the parameter vector's order: empty until the
    /// first backward pass allocates them, [`Model::param_len`] long after.
    fn grads(&self) -> &[f32];

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// Floating-point operations for one example (forward + backward).
    fn flops_per_example(&self) -> u64;

    /// Human-readable architecture name (e.g. `"downsized-alexnet"`).
    fn arch_name(&self) -> &str;
}
