//! Concrete layer implementations: dense, convolution, pooling, activation, residual.
//!
//! The convolutional family — [`Conv2dLayer`], [`MaxPool2dLayer`], [`ResidualBlock`] —
//! takes and returns batch-lane `[C, H, W, N]` tensors (the layout of `dssp_tensor`'s
//! kernels). [`PackLanes`] at the front of a model moves the `[N, C, H, W]` batch into
//! it once and [`Flatten`] moves it out once, in front of the dense head.
//!
//! Every layer implements the workspace-backed [`Layer::forward_ws`] /
//! [`Layer::backward_ws`] pair on the `*_into` kernels, reusing every intermediate
//! buffer across iterations. A parameter layer's range of its model's parameter
//! vector is its weights, row-major, then its bias; its gradient range is laid out the
//! same way.

use crate::workspace::LayerScratch;
use crate::Layer;
use dssp_tensor::{
    add_assign_slice, conv2d_lanes_backward_into, conv2d_lanes_into, he_normal,
    max_pool2d_backward_into, max_pool2d_into, xavier_uniform, Conv2dSpec, ConvScratch, Pool2dSpec,
    Tensor,
};

/// Fully connected (dense) layer: `y = x W + b`, with `W` its `in x out` weights.
///
/// Dense layers are what give the paper's "DNNs with fully connected layers" category
/// (the downsized AlexNet) its large parameter count relative to compute, and therefore
/// its low compute/communication ratio.
#[derive(Debug)]
pub struct DenseLayer {
    name: String,
    in_features: usize,
    out_features: usize,
    seed: u64,
    cached_input: Option<Tensor>,
}

impl DenseLayer {
    /// Creates a dense layer whose weights initialise Xavier-uniform from `seed`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Self {
            name: format!("dense_{in_features}x{out_features}"),
            in_features,
            out_features,
            seed,
            cached_input: None,
        }
    }

    /// Length of the weight part of the layer's range; the bias follows it.
    fn weight_len(&self) -> usize {
        self.in_features * self.out_features
    }

    /// Stores a copy of the forward input for the backward pass, reusing the cache
    /// buffer across iterations.
    fn cache_input(&mut self, input: &Tensor) {
        self.cached_input
            .get_or_insert_with(Tensor::default)
            .assign(input);
    }
}

impl Layer for DenseLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_ws(
        &mut self,
        params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _scratch: &mut LayerScratch,
    ) {
        debug_assert_eq!(input.shape().dim(1), self.in_features);
        self.cache_input(input);
        let (weight, bias) = params.split_at(self.weight_len());
        input.matmul_slice_into(weight, self.out_features, out);
        out.add_row_broadcast_inplace(bias);
    }

    fn backward_ws(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
        scratch: &mut LayerScratch,
    ) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let w = self.weight_len();
        let (grad_weight, grad_bias) = grads.split_at_mut(w);
        // dW += x^T g (in one pass) ; db += sum_rows(g) ; dx = g W^T if asked for
        input.matmul_tn_add_into(grad_output, grad_weight);
        let db = scratch.buf(0);
        grad_output.sum_rows_into(db);
        add_assign_slice(grad_bias, db.as_slice());
        if let Some(grad_input) = grad_input {
            grad_output.matmul_nt_slice_into(&params[..w], self.in_features, grad_input);
        }
    }

    fn param_len(&self) -> usize {
        self.weight_len() + self.out_features
    }

    fn init_params(&self, params: &mut [f32]) {
        let (weight, bias) = params.split_at_mut(self.weight_len());
        xavier_uniform(self.in_features, self.out_features, weight, self.seed);
        bias.fill(0.0);
    }

    fn flops_per_example(&self) -> u64 {
        // forward matmul + backward weight grad + backward input grad
        6 * (self.in_features as u64) * (self.out_features as u64)
    }
}

/// Moves an `[N, C, H, W]` batch into the batch-lane layout `[C, H, W, N]` of the
/// convolutional family: the one packing pass of a model, at its front.
#[derive(Debug)]
pub struct PackLanes;

impl Layer for PackLanes {
    fn name(&self) -> &str {
        "pack-lanes"
    }

    fn forward_ws(
        &mut self,
        _params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _scratch: &mut LayerScratch,
    ) {
        input.batch_to_lanes_into(out);
    }

    fn backward_ws(
        &mut self,
        _params: &[f32],
        _grads: &mut [f32],
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
        _scratch: &mut LayerScratch,
    ) {
        if let Some(grad_input) = grad_input {
            grad_output.lanes_to_batch_into(grad_input);
        }
    }

    fn flops_per_example(&self) -> u64 {
        0
    }
}

/// 2-D convolution layer over `[C, H, W, N]` input with square kernels. Its weights
/// are `[OC, C*K*K]` (filters flattened row-major).
#[derive(Debug)]
pub struct Conv2dLayer {
    name: String,
    spec: Conv2dSpec,
    in_h: usize,
    in_w: usize,
    seed: u64,
    /// The input as the convolution kernels packed it (`[C, H+2p, W+2p, N]`).
    cached_packed: Option<Tensor>,
    conv_scratch: ConvScratch,
}

impl Conv2dLayer {
    /// Creates a convolution layer whose filters initialise He-normal from `seed`.
    ///
    /// `in_h`/`in_w` are the spatial dimensions this layer will receive; our models use
    /// fixed input sizes so the output size is known statically.
    pub fn new(spec: Conv2dSpec, in_h: usize, in_w: usize, seed: u64) -> Self {
        Self {
            name: format!(
                "conv_{}x{}x{}k{}",
                spec.in_channels, spec.out_channels, spec.kernel, spec.stride
            ),
            spec,
            in_h,
            in_w,
            seed,
            cached_packed: None,
            conv_scratch: ConvScratch::default(),
        }
    }

    /// Output spatial side length.
    pub fn out_h(&self) -> usize {
        self.spec.out_size(self.in_h)
    }

    /// Output spatial side length (width).
    pub fn out_w(&self) -> usize {
        self.spec.out_size(self.in_w)
    }
}

impl Layer for Conv2dLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_ws(
        &mut self,
        params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _scratch: &mut LayerScratch,
    ) {
        let (weight, bias) = params.split_at(self.spec.weight_count());
        let packed = self.cached_packed.get_or_insert_with(Tensor::default);
        conv2d_lanes_into(
            input,
            weight,
            bias,
            self.in_h,
            self.in_w,
            &self.spec,
            packed,
            &mut self.conv_scratch,
            out,
        );
    }

    fn backward_ws(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
        _scratch: &mut LayerScratch,
    ) {
        let packed = self
            .cached_packed
            .as_ref()
            .expect("backward called before forward");
        let w = self.spec.weight_count();
        // The kernels add the weight and bias gradients into their ranges themselves.
        let (grad_weight, grad_bias) = grads.split_at_mut(w);
        conv2d_lanes_backward_into(
            grad_output,
            packed,
            &params[..w],
            self.in_h,
            self.in_w,
            &self.spec,
            &mut self.conv_scratch,
            grad_input,
            grad_weight,
            grad_bias,
        );
    }

    fn param_len(&self) -> usize {
        self.spec.weight_count() + self.spec.out_channels
    }

    fn init_params(&self, params: &mut [f32]) {
        let fan_in = self.spec.in_channels * self.spec.kernel * self.spec.kernel;
        let (weight, bias) = params.split_at_mut(self.spec.weight_count());
        he_normal(fan_in, weight, self.seed);
        bias.fill(0.0);
    }

    fn flops_per_example(&self) -> u64 {
        let k2c = (self.spec.kernel * self.spec.kernel * self.spec.in_channels) as u64;
        let out_positions = (self.out_h() * self.out_w()) as u64;
        // forward + weight-grad + input-grad multiplications
        6 * k2c * out_positions * self.spec.out_channels as u64
    }
}

/// Rectified linear unit activation.
#[derive(Debug, Default)]
pub struct ReluLayer {
    mask: Vec<bool>,
    shape: Vec<usize>,
}

impl ReluLayer {
    /// Creates a new ReLU activation layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReluLayer {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward_ws(
        &mut self,
        _params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _scratch: &mut LayerScratch,
    ) {
        self.shape.clear();
        self.shape.extend_from_slice(input.shape().dims());
        out.ensure_shape(&self.shape);
        self.mask.resize(input.len(), false);
        // Single fused pass: activation and backward mask together.
        for ((o, &v), m) in out
            .as_mut_slice()
            .iter_mut()
            .zip(input.as_slice())
            .zip(self.mask.iter_mut())
        {
            let keep = v > 0.0;
            *m = keep;
            *o = if keep { v } else { 0.0 };
        }
    }

    fn backward_ws(
        &mut self,
        _params: &[f32],
        _grads: &mut [f32],
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
        _scratch: &mut LayerScratch,
    ) {
        let Some(grad_input) = grad_input else {
            return;
        };
        grad_input.ensure_shape(&self.shape);
        for ((o, &g), &m) in grad_input
            .as_mut_slice()
            .iter_mut()
            .zip(grad_output.as_slice())
            .zip(&self.mask)
        {
            *o = if m { g } else { 0.0 };
        }
    }

    fn flops_per_example(&self) -> u64 {
        1
    }
}

/// 2-D max pooling layer over `[C, H, W, N]` input.
#[derive(Debug)]
pub struct MaxPool2dLayer {
    spec: Pool2dSpec,
    in_h: usize,
    in_w: usize,
    winners: Vec<u32>,
}

impl MaxPool2dLayer {
    /// Creates a pooling layer for inputs of spatial size `in_h` × `in_w`.
    pub fn new(kernel: usize, stride: usize, in_h: usize, in_w: usize) -> Self {
        Self {
            spec: Pool2dSpec { kernel, stride },
            in_h,
            in_w,
            winners: Vec::new(),
        }
    }
}

impl Layer for MaxPool2dLayer {
    fn name(&self) -> &str {
        "maxpool"
    }

    fn forward_ws(
        &mut self,
        _params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _scratch: &mut LayerScratch,
    ) {
        max_pool2d_into(
            input,
            self.in_h,
            self.in_w,
            &self.spec,
            out,
            &mut self.winners,
        );
    }

    fn backward_ws(
        &mut self,
        _params: &[f32],
        _grads: &mut [f32],
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
        _scratch: &mut LayerScratch,
    ) {
        let Some(grad_input) = grad_input else {
            return;
        };
        // `[C, OH, OW, N]` came back; `[C, H, W, N]` went in.
        let (c, n) = (grad_output.shape().dim(0), grad_output.shape().dim(3));
        let input_dims = [c, self.in_h, self.in_w, n];
        max_pool2d_backward_into(grad_output, &self.winners, &input_dims, grad_input);
    }

    fn flops_per_example(&self) -> u64 {
        (self.in_h * self.in_w) as u64
    }
}

/// Moves batch-lane `[C, H, W, N]` activations out into `[N, C*H*W]` rows for the dense
/// head — the features of a row in `(c, y, x)` order, as a flattened `[N, C, H, W]`
/// batch has them. The one unpacking pass of a model.
#[derive(Debug, Default)]
pub struct Flatten {
    input_dims: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn forward_ws(
        &mut self,
        _params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _scratch: &mut LayerScratch,
    ) {
        self.input_dims.clear();
        self.input_dims.extend_from_slice(input.shape().dims());
        input.lanes_to_batch_into(out);
        let n = out.shape().dim(0);
        out.reshape_inplace(&[n, out.len() / n.max(1)]);
    }

    fn backward_ws(
        &mut self,
        _params: &[f32],
        _grads: &mut [f32],
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
        _scratch: &mut LayerScratch,
    ) {
        if let Some(grad_input) = grad_input {
            grad_output.batch_to_lanes_into(grad_input);
            grad_input.reshape_inplace(&self.input_dims);
        }
    }

    fn flops_per_example(&self) -> u64 {
        0
    }
}

/// A pre-activation residual block with two same-channel convolutions:
/// `y = relu(conv2(relu(conv1(x))) + x)`.
///
/// Stacking these blocks gives the "pure convolutional" model family of the paper
/// (ResNet-50 / ResNet-110 analogues): high compute per parameter, no fully connected
/// layers except the softmax head.
pub struct ResidualBlock {
    name: String,
    conv1: Conv2dLayer,
    relu1: ReluLayer,
    conv2: Conv2dLayer,
    relu_out: ReluLayer,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualBlock")
            .field("name", &self.name)
            .finish()
    }
}

impl ResidualBlock {
    /// Creates a residual block operating on `channels`-channel feature maps of spatial
    /// size `h` × `w`.
    ///
    /// The second convolution is zero-initialised so the block starts as the identity
    /// function; this keeps activation variance constant when many blocks are stacked
    /// (the role BatchNorm's zero-gamma initialisation plays in full-size ResNets) and
    /// lets deep stacks train without normalisation layers.
    pub fn new(channels: usize, h: usize, w: usize, seed: u64) -> Self {
        let spec = Conv2dSpec {
            in_channels: channels,
            out_channels: channels,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        Self {
            name: format!("resblock_{channels}ch"),
            conv1: Conv2dLayer::new(spec, h, w, seed.wrapping_mul(31).wrapping_add(1)),
            relu1: ReluLayer::new(),
            conv2: Conv2dLayer::new(spec, h, w, seed.wrapping_mul(31).wrapping_add(2)),
            relu_out: ReluLayer::new(),
        }
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_ws(
        &mut self,
        params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
        train: bool,
        scratch: &mut LayerScratch,
    ) {
        let (p1, p2) = params.split_at(self.conv1.param_len());
        let (bufs, kids) = scratch.parts(2, 4);
        let (a, b) = bufs.split_at_mut(1);
        let (a, b) = (&mut a[0], &mut b[0]);
        self.conv1.forward_ws(p1, input, a, train, &mut kids[0]);
        self.relu1.forward_ws(&[], a, b, train, &mut kids[1]);
        self.conv2.forward_ws(p2, b, a, train, &mut kids[2]);
        // summed = conv2(..) + x, accumulated in place.
        a.add_assign(input);
        self.relu_out.forward_ws(&[], a, out, train, &mut kids[3]);
    }

    fn backward_ws(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
        scratch: &mut LayerScratch,
    ) {
        let n1 = self.conv1.param_len();
        let (p1, p2) = params.split_at(n1);
        let (g1, g2) = grads.split_at_mut(n1);
        let (bufs, kids) = scratch.parts(3, 4);
        let [a, b, own_sum, ..] = bufs else {
            unreachable!("parts(3, _) gives at least three buffers")
        };
        // g_sum, the gradient at the skip-join point, lives in grad_input when there is
        // one and in scratch otherwise.
        let wants_input = grad_input.is_some();
        let g_sum = grad_input.unwrap_or(own_sum);
        self.relu_out
            .backward_ws(&[], &mut [], grad_output, Some(&mut *g_sum), &mut kids[3]);
        // Branch path: conv2 -> relu1 -> conv1.
        self.conv2
            .backward_ws(p2, g2, g_sum, Some(&mut *a), &mut kids[2]);
        self.relu1
            .backward_ws(&[], &mut [], a, Some(&mut *b), &mut kids[1]);
        self.conv1
            .backward_ws(p1, g1, b, wants_input.then_some(&mut *a), &mut kids[0]);
        if wants_input {
            // Skip path contributes g_sum directly: grad_input = g_branch + g_sum.
            for (o, &branch) in g_sum.as_mut_slice().iter_mut().zip(a.as_slice()) {
                *o += branch;
            }
        }
    }

    fn param_len(&self) -> usize {
        self.conv1.param_len() + self.conv2.param_len()
    }

    fn init_params(&self, params: &mut [f32]) {
        let (p1, p2) = params.split_at_mut(self.conv1.param_len());
        self.conv1.init_params(p1);
        // The second convolution starts at zero: see `ResidualBlock::new`.
        p2.fill(0.0);
    }

    fn flops_per_example(&self) -> u64 {
        self.conv1.flops_per_example() + self.conv2.flops_per_example()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_tensor::uniform_init;

    /// The layer's initial parameters, as a freshly built model holds them.
    fn init(layer: &dyn Layer) -> Vec<f32> {
        let mut params = vec![0.0; layer.param_len()];
        layer.init_params(&mut params);
        params
    }

    /// Forward pass on `params` into a fresh tensor with fresh scratch.
    fn fwd(layer: &mut dyn Layer, params: &[f32], x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        layer.forward_ws(params, x, &mut out, true, &mut LayerScratch::default());
        out
    }

    /// Backward pass accumulating into `grads`; returns the input gradient.
    fn bwd(layer: &mut dyn Layer, params: &[f32], grads: &mut [f32], g: &Tensor) -> Tensor {
        let mut grad_input = Tensor::default();
        let scratch = &mut LayerScratch::default();
        layer.backward_ws(params, grads, g, Some(&mut grad_input), scratch);
        grad_input
    }

    #[test]
    fn dense_forward_matches_manual_matmul() {
        let mut layer = DenseLayer::new(3, 2, 1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        assert_eq!(layer.param_len(), 3 * 2 + 2);
        let params = init(&layer);
        let y = fwd(&mut layer, &params, &x);
        // Manual: y_j = sum_i x_i * W[i][j] + b[j]
        let w = &params[..6];
        let b = &params[6..];
        for j in 0..2 {
            let manual = x.as_slice()[0] * w[j]
                + x.as_slice()[1] * w[2 + j]
                + x.as_slice()[2] * w[4 + j]
                + b[j];
            assert!((y.as_slice()[j] - manual).abs() < 1e-5);
        }
    }

    #[test]
    fn dense_gradient_check() {
        let mut layer = DenseLayer::new(4, 3, 7);
        let x = uniform_init(&[2, 4], 1.0, 8);
        let params = init(&layer);
        let y = fwd(&mut layer, &params, &x);
        let grad_out = Tensor::ones(y.shape().dims());
        let mut grads = vec![0.0; layer.param_len()];
        let grad_in = bwd(&mut layer, &params, &mut grads, &grad_out);

        let eps = 1e-2f32;
        for &i in &[0usize, 5, 11, 13] {
            let mut p_plus = params.clone();
            p_plus[i] += eps;
            let out_plus = fwd(&mut layer, &p_plus, &x).sum();
            let mut p_minus = params.clone();
            p_minus[i] -= eps;
            let out_minus = fwd(&mut layer, &p_minus, &x).sum();
            let numeric = (out_plus - out_minus) / (2.0 * eps);
            assert!(
                (numeric - grads[i]).abs() < 0.02 * grads[i].abs().max(1.0),
                "param {i}: numeric {numeric} vs analytic {}",
                grads[i]
            );
        }
        // Input gradient for a sum loss equals the row sums of W broadcast to each row.
        let w_row_sums: Vec<f32> = (0..4)
            .map(|i| (0..3).map(|j| params[i * 3 + j]).sum())
            .collect();
        for r in 0..2 {
            for (i, &sum) in w_row_sums.iter().enumerate() {
                assert!((grad_in.at2(r, i) - sum).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn relu_masks_negative_gradients() {
        let mut relu = ReluLayer::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[1, 4]);
        let y = fwd(&mut relu, &[], &x);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let g = bwd(&mut relu, &[], &mut [], &Tensor::ones(&[1, 4]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = uniform_init(&[3, 4, 4, 2], 1.0, 3);
        let y = fwd(&mut f, &[], &x);
        assert_eq!(y.shape().dims(), &[2, 48]);
        let g = bwd(&mut f, &[], &mut [], &y);
        assert_eq!(g.shape().dims(), &[3, 4, 4, 2]);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn pack_lanes_and_flatten_compose_to_the_nchw_flatten() {
        let x = uniform_init(&[5, 3, 4, 2], 1.0, 3);
        let lanes = fwd(&mut PackLanes, &[], &x);
        assert_eq!(lanes.shape().dims(), &[3, 4, 2, 5]);
        assert_eq!(lanes.as_slice()[7 * 5 + 2], x.as_slice()[2 * 24 + 7]);
        let rows = fwd(&mut Flatten::new(), &[], &lanes);
        assert_eq!(rows.shape().dims(), &[5, 24]);
        assert_eq!(rows.as_slice(), x.as_slice());
        let back = bwd(&mut PackLanes, &[], &mut [], &lanes);
        assert_eq!(back.shape().dims(), x.shape().dims());
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    fn maxpool_layer_halves_spatial_size() {
        let mut p = MaxPool2dLayer::new(2, 2, 4, 4);
        let x = uniform_init(&[2, 4, 4, 1], 1.0, 5);
        let y = fwd(&mut p, &[], &x);
        assert_eq!(y.shape().dims(), &[2, 2, 2, 1]);
        let g = bwd(&mut p, &[], &mut [], &Tensor::ones(y.shape().dims()));
        assert_eq!(g.shape().dims(), &[2, 4, 4, 1]);
        assert_eq!(g.sum(), 8.0);
    }

    #[test]
    #[should_panic(expected = "max_pool2d input has shape [2, 6, 6, 1], expected [2, 4, 4]")]
    fn maxpool_layer_rejects_a_plane_of_another_side() {
        // 36 pixels a plane cut as 16-pixel planes would pool across plane boundaries.
        fwd(
            &mut MaxPool2dLayer::new(2, 2, 4, 4),
            &[],
            &Tensor::zeros(&[2, 6, 6, 1]),
        );
    }

    #[test]
    #[should_panic(expected = "conv2d input has shape [5, 2, 8, 8], expected [2, 8, 8]")]
    fn conv_layer_rejects_an_nchw_batch() {
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut layer = Conv2dLayer::new(spec, 8, 8, 11);
        let params = init(&layer);
        fwd(&mut layer, &params, &Tensor::zeros(&[5, 2, 8, 8]));
    }

    #[test]
    fn conv_layer_param_roundtrip() {
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut layer = Conv2dLayer::new(spec, 8, 8, 11);
        // The range is the filters, then one bias per output channel (zero at first).
        let params = init(&layer);
        assert_eq!(params.len(), 4 * 2 * 9 + 4);
        assert!(params[..72].iter().any(|&v| v != 0.0));
        assert!(params[72..].iter().all(|&v| v == 0.0));
        // With only the bias set, every output element is its channel's bias.
        let mut bias_only = vec![0.0; params.len()];
        bias_only[72..].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let y = fwd(
            &mut layer,
            &bias_only,
            &uniform_init(&[2, 8, 8, 3], 1.0, 12),
        );
        assert_eq!(y.shape().dims(), &[4, 8, 8, 3]);
        for (c, plane) in y.as_slice().chunks(8 * 8 * 3).enumerate() {
            assert!(plane.iter().all(|&v| v == (c + 1) as f32), "channel {c}");
        }
    }

    #[test]
    fn residual_block_preserves_shape_and_has_skip_path() {
        let mut block = ResidualBlock::new(4, 6, 6, 3);
        let params = init(&block);
        let x = uniform_init(&[4, 6, 6, 2], 1.0, 4);
        let y = fwd(&mut block, &params, &x);
        assert_eq!(y.shape().dims(), x.shape().dims());
        let mut grads = vec![0.0; block.param_len()];
        let g = bwd(
            &mut block,
            &params,
            &mut grads,
            &Tensor::ones(y.shape().dims()),
        );
        assert_eq!(g.shape().dims(), x.shape().dims());
        // The skip connection guarantees a non-zero gradient path even if the conv
        // weights were zero.
        assert!(g.norm() > 0.0);
    }

    #[test]
    fn residual_block_gradient_check() {
        let mut block = ResidualBlock::new(2, 4, 4, 9);
        let params = init(&block);
        let x = uniform_init(&[2, 4, 4, 1], 1.0, 10);
        let y = fwd(&mut block, &params, &x);
        let grad_out = Tensor::ones(y.shape().dims());
        let mut grads = vec![0.0; block.param_len()];
        bwd(&mut block, &params, &mut grads, &grad_out);
        let eps = 1e-2f32;
        for &i in &[0usize, 17, 36, 53] {
            let mut p = params.clone();
            p[i] += eps;
            let plus = fwd(&mut block, &p, &x).sum();
            p[i] -= 2.0 * eps;
            let minus = fwd(&mut block, &p, &x).sum();
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - grads[i]).abs() < 0.05 * grads[i].abs().max(1.0),
                "param {i}: numeric {numeric} vs analytic {}",
                grads[i]
            );
        }
    }

    #[test]
    fn flops_are_positive_for_compute_layers() {
        let spec = Conv2dSpec {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert!(Conv2dLayer::new(spec, 16, 16, 0).flops_per_example() > 0);
        assert!(DenseLayer::new(10, 10, 0).flops_per_example() > 0);
    }
}
