//! Convolution and pooling kernels (NCHW layout) built on `im2col`.
//!
//! These kernels are what make the "pure convolutional" models of the paper
//! (ResNet-50/110 analogues) compute-heavy relative to their parameter count, which is
//! the property the paper's Section V-C analysis hinges on.
//!
//! A convolution is one column transform plus GEMMs on the register-tiled kernel of
//! [`Tensor::matmul_into`]: forward `W x cols_t`; backward `cols_t x g_tt` (weights),
//! `W^T x g_t` (columns) and the fold back to the input. The column transforms
//! ([`im2col_t_into`], [`col2im_t_into`]) work channel by channel on zero-bordered
//! scratch planes and move fixed-width row runs, so nothing in the path tests for
//! padding per element. Every sum is taken in ascending order from 0.0: forward output
//! and all three gradients are bitwise equal to the naive `im2col` formulation.

use crate::Tensor;

/// Static description of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels (filters).
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding added on every side.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Returns the output spatial size for an input of side `h`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not produce at least one output position.
    pub fn out_size(&self, h: usize) -> usize {
        let padded = h + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "input of size {h} with padding {} is smaller than kernel {}",
            self.padding,
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// Number of weight parameters (excluding bias) for this convolution.
    pub fn weight_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }
}

/// Static description of a 2-D max pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dSpec {
    /// Square pooling window side length.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
}

impl Pool2dSpec {
    /// Returns the output spatial size for an input of side `h`.
    pub fn out_size(&self, h: usize) -> usize {
        if h < self.kernel {
            0
        } else {
            (h - self.kernel) / self.stride + 1
        }
    }
}

/// Unrolls an `[N, C, H, W]` input into column form `[N * OH * OW, C * K * K]`.
///
/// Each output row contains the receptive field of one output position, so the
/// convolution reduces to a single matrix multiplication with the filter matrix.
pub fn im2col(input: &Tensor, h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    let mut out = Tensor::default();
    im2col_into(input, h, w, spec, &mut out);
    out
}

/// [`im2col`] writing into a caller-provided buffer.
///
/// Every output element is written (padding positions get explicit zeros), so the
/// buffer never needs pre-zeroing and can be reused across iterations without any
/// allocator traffic once warmed.
pub fn im2col_into(input: &Tensor, h: usize, w: usize, spec: &Conv2dSpec, out: &mut Tensor) {
    let dims = input.shape().dims();
    let n = dims[0];
    let c = spec.in_channels;
    debug_assert_eq!(dims[1], c, "im2col channel mismatch");
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let k = spec.kernel;
    let cols_per_row = c * k * k;
    out.ensure_shape(&[n * oh * ow, cols_per_row]);
    let o = out.as_mut_slice();
    let x = input.as_slice();
    let pad = spec.padding as isize;
    let stride = spec.stride;
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * cols_per_row;
                // The valid kx span is the same for every channel and kernel row:
                // ix = ox*stride + kx - pad must land in [0, w).
                let x0 = (ox * stride) as isize - pad;
                let kx_lo = (-x0).clamp(0, k as isize) as usize;
                let kx_hi = (w as isize - x0).clamp(0, k as isize) as usize;
                for ci in 0..c {
                    for ky in 0..k {
                        let iy = (oy * stride) as isize + ky as isize - pad;
                        let col = (ci * k + ky) * k;
                        let dst = &mut o[row + col..row + col + k];
                        if iy < 0 || (iy as usize) >= h || kx_lo >= kx_hi {
                            dst.fill(0.0);
                            continue;
                        }
                        let in_base = ((ni * c + ci) * h + iy as usize) * w;
                        dst[..kx_lo].fill(0.0);
                        let src0 = (in_base as isize + x0 + kx_lo as isize) as usize;
                        dst[kx_lo..kx_hi].copy_from_slice(&x[src0..src0 + (kx_hi - kx_lo)]);
                        dst[kx_hi..].fill(0.0);
                    }
                }
            }
        }
    }
}

/// Folds column form `[N * OH * OW, C * K * K]` back into `[N, C, H, W]`, accumulating
/// overlapping contributions. This is the adjoint of [`im2col`], used for the gradient
/// with respect to the convolution input.
pub fn col2im(cols: &Tensor, n: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    let mut out = Tensor::default();
    col2im_into(cols, n, h, w, spec, &mut out);
    out
}

/// [`col2im`] writing into a caller-provided buffer (zeroed, then accumulated).
pub fn col2im_into(
    cols: &Tensor,
    n: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    out: &mut Tensor,
) {
    let c = spec.in_channels;
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let k = spec.kernel;
    let cols_per_row = c * k * k;
    out.ensure_shape(&[n, c, h, w]);
    let out = out.as_mut_slice();
    out.fill(0.0);
    let src = cols.as_slice();
    let pad = spec.padding as isize;
    let stride = spec.stride;
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * cols_per_row;
                let x0 = (ox * stride) as isize - pad;
                let kx_lo = (-x0).clamp(0, k as isize) as usize;
                let kx_hi = (w as isize - x0).clamp(0, k as isize) as usize;
                for ci in 0..c {
                    for ky in 0..k {
                        let iy = (oy * stride) as isize + ky as isize - pad;
                        if iy < 0 || (iy as usize) >= h || kx_lo >= kx_hi {
                            continue;
                        }
                        let col = (ci * k + ky) * k;
                        let src_row = &src[row + col + kx_lo..row + col + kx_hi];
                        let dst0 =
                            (((ni * c + ci) * h + iy as usize) * w) as isize + x0 + kx_lo as isize;
                        let dst = &mut out[dst0 as usize..dst0 as usize + src_row.len()];
                        for (d, &s) in dst.iter_mut().zip(src_row) {
                            *d += s;
                        }
                    }
                }
            }
        }
    }
}

/// Calls `$body::<W>(args)` with `W` the output width if that width has a fixed-width
/// instance and the stride is 1 (the only stride the model zoo uses), and with `W = 0`
/// — width and stride read at run time — otherwise. With the width a constant, a row
/// run is a vector move (or add) or two instead of a `memcpy` call for 16 bytes.
macro_rules! with_fixed_width {
    ($g:expr, $body:ident($($arg:expr),*)) => {
        match ($g.ow, $g.stride) {
            (2, 1) => $body::<2>($($arg),*),
            (4, 1) => $body::<4>($($arg),*),
            (8, 1) => $body::<8>($($arg),*),
            (16, 1) => $body::<16>($($arg),*),
            _ => $body::<0>($($arg),*),
        }
    };
}

/// Transposed `im2col`: unrolls an `[N, C, H, W]` input into `[C * K * K, N * OH * OW]`
/// column form (one *row* per kernel point, one *column* per output position).
///
/// This is the layout the convolution kernels actually compute with: the GEMM's inner
/// loop then runs over the long `N * OH * OW` dimension, which vectorizes, instead of
/// over the (typically tiny) output-channel count.
///
/// The transform works one channel at a time: the channel's `N` planes are copied into
/// the interiors of `planes`, `N` zero-bordered `(H + 2p) x (W + 2p)` scratch planes,
/// and each of the channel's `K * K` kernel points then fills its output row front to
/// back by reading one shifted window of every plane — `OH` row runs of `OW` elements,
/// with no padding test anywhere. `planes` is resized as needed and reused across
/// calls; it holds one channel, never a padded copy of the whole input.
pub fn im2col_t_into(
    input: &Tensor,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    planes: &mut Vec<f32>,
    out: &mut Tensor,
) {
    let dims = input.shape().dims();
    let n = dims[0];
    debug_assert_eq!(dims[1], spec.in_channels, "im2col channel mismatch");
    let g = Planes::new(n, h, w, spec);
    out.ensure_shape(&[g.c * g.k * g.k, g.npos]);
    // The borders are zeroed here and never written again; the interiors are
    // overwritten by every channel.
    planes.clear();
    planes.resize(g.n * g.ph * g.pw, 0.0);
    let (x, o) = (input.as_slice(), out.as_mut_slice());
    with_fixed_width!(g, unroll_planes(&g, x, planes, o));
}

/// Adjoint of [`im2col_t_into`]: folds `[C * K * K, N * OH * OW]` column form back into
/// `[N, C, H, W]`, accumulating overlapping contributions.
///
/// Channel-wise like [`im2col_t_into`]: the `N` planes of one channel are accumulated in
/// the zero-bordered scratch `planes` (contributions that fall on padding land in a
/// border and are dropped) and their interiors are then copied out. Every input element
/// receives its contributions in kernel-point order (`ky`, then `kx`, ascending) starting
/// from 0.0, so the per-element summation order differs from [`col2im`]'s
/// output-position-major order; the two agree to floating-point reassociation (the
/// usual 1e-6 tolerance).
///
/// Why `N` planes and not one: consecutive kernel points add into the same plane rows
/// at offsets one element apart. With a single plane those read-modify-writes follow
/// each other within a few instructions and every load straddles a store still in
/// flight; with the whole channel in the scratch, a row comes around again only
/// `N * OH` runs later.
pub fn col2im_t_into(
    cols_t: &Tensor,
    n: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    planes: &mut Vec<f32>,
    out: &mut Tensor,
) {
    let g = Planes::new(n, h, w, spec);
    out.ensure_shape(&[n, g.c, h, w]);
    planes.resize(g.n * g.ph * g.pw, 0.0);
    let (src, o) = (cols_t.as_slice(), out.as_mut_slice());
    with_fixed_width!(g, fold_planes(&g, src, planes, o));
}

/// The geometry both column transforms share.
struct Planes {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
    stride: usize,
    /// Padded plane size.
    ph: usize,
    pw: usize,
    oh: usize,
    ow: usize,
    /// Columns of the column matrix: `N * OH * OW`.
    npos: usize,
}

impl Planes {
    fn new(n: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Self {
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        Self {
            n,
            c: spec.in_channels,
            h,
            w,
            k: spec.kernel,
            pad: spec.padding,
            stride: spec.stride,
            ph: h + 2 * spec.padding,
            pw: w + 2 * spec.padding,
            oh,
            ow,
            npos: n * oh * ow,
        }
    }
}

/// The body of [`im2col_t_into`], see [`with_fixed_width`] for `W`.
fn unroll_planes<const W: usize>(g: &Planes, x: &[f32], planes: &mut [f32], o: &mut [f32]) {
    let (ow, stride) = if W > 0 { (W, 1) } else { (g.ow, g.stride) };
    let (hw, phw) = (g.h * g.w, g.ph * g.pw);
    let span = (ow - 1) * stride + 1;
    for ci in 0..g.c {
        for (ni, plane) in planes.chunks_exact_mut(phw).enumerate() {
            let src = &x[(ni * g.c + ci) * hw..][..hw];
            for (row, dst) in src
                .chunks_exact(g.w)
                .zip(plane[g.pad * g.pw + g.pad..].chunks_mut(g.pw))
            {
                // "Same" convolutions (`W == w`) also copy the plane in at fixed width.
                if W > 0 && g.w == W {
                    dst[..W].copy_from_slice(&row[..W]);
                } else {
                    dst[..g.w].copy_from_slice(row);
                }
            }
        }
        // One output row per kernel point, written front to back: image after image,
        // output row after output row.
        for ky in 0..g.k {
            for kx in 0..g.k {
                let col = (ci * g.k + ky) * g.k + kx;
                let mut runs = o[col * g.npos..][..g.npos].chunks_exact_mut(ow);
                for plane in planes.chunks_exact(phw) {
                    let window = &plane[ky * g.pw + kx..];
                    for (oy, dst) in runs.by_ref().take(g.oh).enumerate() {
                        let run = &window[oy * g.pw * stride..][..span];
                        if W > 0 {
                            dst.copy_from_slice(run);
                        } else {
                            for (d, &v) in dst.iter_mut().zip(run.iter().step_by(stride)) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The body of [`col2im_t_into`], see [`with_fixed_width`] for `W`.
fn fold_planes<const W: usize>(g: &Planes, src: &[f32], planes: &mut [f32], o: &mut [f32]) {
    let (ow, stride) = if W > 0 { (W, 1) } else { (g.ow, g.stride) };
    let (hw, phw) = (g.h * g.w, g.ph * g.pw);
    let span = (ow - 1) * stride + 1;
    for ci in 0..g.c {
        planes.fill(0.0);
        for ky in 0..g.k {
            for kx in 0..g.k {
                let col = (ci * g.k + ky) * g.k + kx;
                let mut runs = src[col * g.npos..][..g.npos].chunks_exact(ow);
                for plane in planes.chunks_exact_mut(phw) {
                    let window = &mut plane[ky * g.pw + kx..];
                    for (oy, run) in runs.by_ref().take(g.oh).enumerate() {
                        let dst = &mut window[oy * g.pw * stride..][..span];
                        if W > 0 {
                            // Loaded, summed and stored as one `W`-wide value.
                            let mut sum = [0.0f32; W];
                            sum.copy_from_slice(dst);
                            for (s, &v) in sum.iter_mut().zip(run) {
                                *s += v;
                            }
                            dst.copy_from_slice(&sum);
                        } else {
                            for (d, &v) in dst.iter_mut().step_by(stride).zip(run) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
        for (ni, plane) in planes.chunks_exact(phw).enumerate() {
            let dst = &mut o[(ni * g.c + ci) * hw..][..hw];
            for (row, acc) in dst
                .chunks_exact_mut(g.w)
                .zip(plane[g.pad * g.pw + g.pad..].chunks(g.pw))
            {
                if W > 0 && g.w == W {
                    row[..W].copy_from_slice(&acc[..W]);
                } else {
                    row.copy_from_slice(&acc[..g.w]);
                }
            }
        }
    }
}

/// Forward 2-D convolution.
///
/// * `input`  — `[N, C, H, W]`
/// * `weight` — `[OC, C*K*K]` (filters flattened row-major)
/// * `bias`   — `[OC]`
///
/// Returns `[N, OC, OH, OW]` along with the cached transposed `im2col` matrix
/// (`[C*K*K, N*OH*OW]`, see [`im2col_t_into`]), which the backward pass consumes.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor) {
    let mut cols = Tensor::default();
    let mut scratch = ConvScratch::default();
    let mut out = Tensor::default();
    conv2d_into(
        input,
        weight,
        bias,
        h,
        w,
        spec,
        &mut cols,
        &mut scratch,
        &mut out,
    );
    (out, cols)
}

/// Scratch buffers for the convolution kernels, reused across iterations.
#[derive(Debug, Default)]
pub struct ConvScratch {
    /// The `weight x cols_t` product (`[OC, N*OH*OW]`) before layout rearrangement.
    pub prod: Tensor,
    /// The filter matrix transposed to `[C*K*K, OC]` (used by the backward pass).
    pub weight_t: Tensor,
    /// One channel's `N` zero-bordered `(H+2p) x (W+2p)` planes, shared by both column
    /// transforms.
    planes: Vec<f32>,
    /// The upstream gradient as `[N*OH*OW, OC]` and the weight gradient as
    /// `[C*K*K, OC]`: the right operand and the result of the weight-gradient GEMM.
    g_tt: Tensor,
    grad_weight_t: Tensor,
}

/// [`conv2d`] writing into caller-provided buffers.
///
/// * `cols` receives the **transposed** `im2col` matrix (`[C*K*K, N*OH*OW]`, needed
///   again by the backward pass);
/// * `scratch` holds the pre-rearrangement product;
/// * `out` receives the `[N, OC, OH, OW]` activation.
///
/// The product `weight x cols_t` runs the GEMM inner loop over the long
/// `N*OH*OW` dimension (vectorizable) while accumulating the shared kernel-point
/// dimension in ascending order — bitwise identical to the naive
/// `im2col x weight^T` formulation. The bias addition is fused into the layout
/// rearrangement, which copies one contiguous `OH*OW` run per `(image, channel)` pair.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    cols: &mut Tensor,
    scratch: &mut ConvScratch,
    out: &mut Tensor,
) {
    let n = input.shape().dims()[0];
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    im2col_t_into(input, h, w, spec, &mut scratch.planes, cols);
    // [OC, C*K*K] x [C*K*K, N*OH*OW] -> [OC, N*OH*OW]
    let prod = &mut scratch.prod;
    weight.matmul_into(cols, prod);
    // Rearrange [OC, N*OH*OW] into [N, OC, OH, OW], adding the bias on the way; both
    // sides are contiguous OH*OW runs.
    let oc = spec.out_channels;
    let ohow = oh * ow;
    let npos = n * ohow;
    out.ensure_shape(&[n, oc, oh, ow]);
    let o = out.as_mut_slice();
    let src = prod.as_slice();
    let b = bias.as_slice();
    for co in 0..oc {
        let bias_c = b[co];
        for ni in 0..n {
            let s = &src[co * npos + ni * ohow..co * npos + (ni + 1) * ohow];
            let d = &mut o[(ni * oc + co) * ohow..(ni * oc + co + 1) * ohow];
            for (dv, &sv) in d.iter_mut().zip(s) {
                *dv = sv + bias_c;
            }
        }
    }
}

/// Backward 2-D convolution.
///
/// Given the upstream gradient `grad_out` (`[N, OC, OH, OW]`), the cached `im2col`
/// matrix from the forward pass, and the filter matrix, returns
/// `(grad_input, grad_weight, grad_bias)`.
pub fn conv2d_backward(
    grad_out: &Tensor,
    cols: &Tensor,
    weight: &Tensor,
    n: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let mut scratch = ConvScratch::default();
    let mut g = Tensor::default();
    let mut grad_cols = Tensor::default();
    let mut grad_input = Tensor::default();
    let mut grad_weight = Tensor::default();
    let mut grad_bias = Tensor::default();
    conv2d_backward_into(
        grad_out,
        cols,
        weight,
        n,
        h,
        w,
        spec,
        &mut g,
        &mut grad_cols,
        &mut scratch,
        &mut grad_input,
        &mut grad_weight,
        &mut grad_bias,
    );
    (grad_input, grad_weight, grad_bias)
}

/// [`conv2d_backward`] writing into caller-provided buffers.
///
/// `cols_t` is the transposed column matrix cached by [`conv2d_into`]. `g_t` and
/// `grad_cols_t` are pure scratch (the rearranged upstream gradient and the gradient
/// of the column matrix, both in kernel-point-major layout); `scratch` provides the
/// transposed filter matrix and the operands of the weight-gradient GEMM;
/// `grad_input`, `grad_weight` and `grad_bias` receive the results (overwritten, not
/// accumulated).
///
/// All three GEMMs run on the register-tiled kernel of [`Tensor::matmul_into`], so
/// every output — the weight gradient included — is bitwise equal to the naive
/// formulation that sums over output positions (kernel points for the input gradient)
/// in ascending order.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into(
    grad_out: &Tensor,
    cols_t: &Tensor,
    weight: &Tensor,
    n: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    g_t: &mut Tensor,
    grad_cols_t: &mut Tensor,
    scratch: &mut ConvScratch,
    grad_input: &mut Tensor,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) {
    let oc = spec.out_channels;
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let ohow = oh * ow;
    let npos = n * ohow;
    // Rearrange grad_out [N, OC, OH, OW] twice: g_t [OC, N*OH*OW] (pure contiguous
    // copies; the left operand of the input-gradient GEMM and the source of the bias
    // sums) and its transpose g_tt [N*OH*OW, OC] (one small transpose per image; the
    // right operand of the weight-gradient GEMM).
    g_t.ensure_shape(&[oc, npos]);
    scratch.g_tt.ensure_shape(&[npos, oc]);
    let gd = g_t.as_mut_slice();
    let gtt = scratch.g_tt.as_mut_slice();
    let src = grad_out.as_slice();
    for ni in 0..n {
        for co in 0..oc {
            let run = &src[(ni * oc + co) * ohow..(ni * oc + co + 1) * ohow];
            gd[co * npos + ni * ohow..co * npos + (ni + 1) * ohow].copy_from_slice(run);
            for (pos, &v) in run.iter().enumerate() {
                gtt[(ni * ohow + pos) * oc + co] = v;
            }
        }
    }
    // grad_weight^T = cols_t x g_tt -> [C*K*K, OC] on the register-tiled kernel: every
    // element is the ascending-position sum of the naive g^T x cols formulation, bit
    // for bit. The 576-element result is transposed back into [OC, C*K*K].
    cols_t.matmul_into(&scratch.g_tt, &mut scratch.grad_weight_t);
    scratch.grad_weight_t.transposed_into(grad_weight);
    // grad_bias = per-channel sums of g_t -> [OC]
    g_t.sum_cols_into(grad_bias);
    // grad_cols_t = weight^T x g_t -> [C*K*K, N*OH*OW]
    weight.transposed_into(&mut scratch.weight_t);
    scratch.weight_t.matmul_into(g_t, grad_cols_t);
    col2im_t_into(grad_cols_t, n, h, w, spec, &mut scratch.planes, grad_input);
}

/// Forward 2-D max pooling over an `[N, C, H, W]` input.
///
/// Returns the pooled output `[N, C, OH, OW]` and the flat indices of the winning
/// elements (needed to route gradients in the backward pass).
pub fn max_pool2d(input: &Tensor, h: usize, w: usize, spec: &Pool2dSpec) -> (Tensor, Vec<usize>) {
    let mut out = Tensor::default();
    let mut idx = Vec::new();
    max_pool2d_into(input, h, w, spec, &mut out, &mut idx);
    (out, idx)
}

/// [`max_pool2d`] writing the pooled output and winner indices into caller-provided
/// buffers (both are reused without reallocation once warmed).
pub fn max_pool2d_into(
    input: &Tensor,
    h: usize,
    w: usize,
    spec: &Pool2dSpec,
    out: &mut Tensor,
    idx: &mut Vec<usize>,
) {
    let dims = input.shape().dims();
    let (n, c) = (dims[0], dims[1]);
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let x = input.as_slice();
    out.ensure_shape(&[n, c, oh, ow]);
    let out = out.as_mut_slice();
    idx.resize(n * c * oh * ow, 0);
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for ky in 0..spec.kernel {
                        for kx in 0..spec.kernel {
                            let iy = oy * spec.stride + ky;
                            let ix = ox * spec.stride + kx;
                            if iy < h && ix < w {
                                let i = ((ni * c + ci) * h + iy) * w + ix;
                                if x[i] > best {
                                    best = x[i];
                                    best_i = i;
                                }
                            }
                        }
                    }
                    let o = ((ni * c + ci) * oh + oy) * ow + ox;
                    out[o] = best;
                    idx[o] = best_i;
                }
            }
        }
    }
}

/// Backward 2-D max pooling: routes each upstream gradient element to the input position
/// that won the corresponding pooling window.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    winner_indices: &[usize],
    input_dims: &[usize],
) -> Tensor {
    let mut grad_in = Tensor::default();
    max_pool2d_backward_into(grad_out, winner_indices, input_dims, &mut grad_in);
    grad_in
}

/// [`max_pool2d_backward`] writing into a caller-provided buffer.
pub fn max_pool2d_backward_into(
    grad_out: &Tensor,
    winner_indices: &[usize],
    input_dims: &[usize],
    grad_in: &mut Tensor,
) {
    grad_in.ensure_shape(input_dims);
    let gi = grad_in.as_mut_slice();
    gi.fill(0.0);
    for (g, &i) in grad_out.as_slice().iter().zip(winner_indices) {
        gi[i] += *g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(c: usize, oc: usize, k: usize, stride: usize, pad: usize) -> Conv2dSpec {
        Conv2dSpec {
            in_channels: c,
            out_channels: oc,
            kernel: k,
            stride,
            padding: pad,
        }
    }

    #[test]
    fn out_size_matches_formula() {
        let s = spec(3, 8, 3, 1, 1);
        assert_eq!(s.out_size(32), 32);
        let s2 = spec(3, 8, 3, 2, 1);
        assert_eq!(s2.out_size(32), 16);
        let s3 = spec(3, 8, 5, 1, 0);
        assert_eq!(s3.out_size(32), 28);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 conv with a single filter of weight 1 must copy the input channel.
        let s = spec(1, 1, 1, 1, 0);
        let input = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let weight = Tensor::ones(&[1, 1]);
        let bias = Tensor::zeros(&[1]);
        let (out, _) = conv2d(&input, &weight, &bias, 4, 4, &s);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv_matches_hand_computed_sum_filter() {
        // 2x2 all-ones filter on a 3x3 input, stride 1, no padding:
        // each output is the sum of the corresponding 2x2 window.
        let s = spec(1, 1, 2, 1, 0);
        let input = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6., 7., 8., 9.], &[1, 1, 3, 3]);
        let weight = Tensor::ones(&[1, 4]);
        let bias = Tensor::zeros(&[1]);
        let (out, _) = conv2d(&input, &weight, &bias, 3, 3, &s);
        assert_eq!(out.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn bias_is_added_to_every_position() {
        let s = spec(1, 2, 1, 1, 0);
        let input = Tensor::zeros(&[1, 1, 2, 2]);
        let weight = Tensor::zeros(&[2, 1]);
        let bias = Tensor::from_vec(vec![1.5, -2.0], &[2]);
        let (out, _) = conv2d(&input, &weight, &bias, 2, 2, &s);
        assert_eq!(out.shape().dims(), &[1, 2, 2, 2]);
        assert_eq!(&out.as_slice()[..4], &[1.5; 4]);
        assert_eq!(&out.as_slice()[4..], &[-2.0; 4]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_sum() {
        // <im2col(x), y> == <x, col2im(y)> for arbitrary y: check with a simple case.
        let s = spec(1, 1, 2, 1, 0);
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let cols = im2col(&x, 3, 3, &s);
        let y = Tensor::ones(&[cols.shape().dim(0), cols.shape().dim(1)]);
        let lhs: f32 = cols.mul(&y).sum();
        let back = col2im(&y, 1, 3, 3, &s);
        let rhs: f32 = x.mul(&back).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn conv_backward_gradient_check() {
        // Finite-difference check of dLoss/dWeight where Loss = sum(conv(x)).
        let s = spec(2, 3, 3, 1, 1);
        let x = crate::uniform_init(&[2, 2, 5, 5], 1.0, 3);
        let w = crate::uniform_init(&[3, 2 * 3 * 3], 0.5, 4);
        let b = crate::uniform_init(&[3], 0.5, 5);
        let (out, cols) = conv2d(&x, &w, &b, 5, 5, &s);
        let grad_out = Tensor::ones(out.shape().dims());
        let (_, grad_w, grad_b) = conv2d_backward(&grad_out, &cols, &w, 2, 5, 5, &s);

        let eps = 1e-2f32;
        // Check a few weight entries.
        for &i in &[0usize, 7, 20, 53] {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let (op, _) = conv2d(&x, &wp, &b, 5, 5, &s);
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let (om, _) = conv2d(&x, &wm, &b, 5, 5, &s);
            let numeric = (op.sum() - om.sum()) / (2.0 * eps);
            let analytic = grad_w.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
                "weight grad mismatch at {i}: numeric={numeric} analytic={analytic}"
            );
        }
        // Bias gradient for a sum loss is the number of output positions per channel.
        let positions = (2 * 5 * 5) as f32;
        for &g in grad_b.as_slice() {
            assert!((g - positions).abs() < 1e-3);
        }
    }

    #[test]
    fn conv_backward_input_gradient_check() {
        let s = spec(1, 2, 3, 1, 1);
        let x = crate::uniform_init(&[1, 1, 4, 4], 1.0, 9);
        let w = crate::uniform_init(&[2, 9], 0.5, 10);
        let b = Tensor::zeros(&[2]);
        let (out, cols) = conv2d(&x, &w, &b, 4, 4, &s);
        let grad_out = Tensor::ones(out.shape().dims());
        let (grad_x, _, _) = conv2d_backward(&grad_out, &cols, &w, 1, 4, 4, &s);
        let eps = 1e-2f32;
        for &i in &[0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let (op, _) = conv2d(&xp, &w, &b, 4, 4, &s);
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let (om, _) = conv2d(&xm, &w, &b, 4, 4, &s);
            let numeric = (op.sum() - om.sum()) / (2.0 * eps);
            let analytic = grad_x.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
                "input grad mismatch at {i}: numeric={numeric} analytic={analytic}"
            );
        }
    }

    #[test]
    fn max_pool_selects_window_maxima() {
        let p = Pool2dSpec {
            kernel: 2,
            stride: 2,
        };
        let x = Tensor::from_vec(
            vec![
                1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11., 12., 13., 14., 15., 16.,
            ],
            &[1, 1, 4, 4],
        );
        let (out, idx) = max_pool2d(&x, 4, 4, &p);
        assert_eq!(out.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(idx, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_routes_to_winners() {
        let p = Pool2dSpec {
            kernel: 2,
            stride: 2,
        };
        let x = Tensor::from_vec(
            vec![
                1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11., 12., 13., 14., 15., 16.,
            ],
            &[1, 1, 4, 4],
        );
        let (out, idx) = max_pool2d(&x, 4, 4, &p);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], out.shape().dims());
        let gi = max_pool2d_backward(&g, &idx, &[1, 1, 4, 4]);
        assert_eq!(gi.as_slice()[5], 1.0);
        assert_eq!(gi.as_slice()[7], 2.0);
        assert_eq!(gi.as_slice()[13], 3.0);
        assert_eq!(gi.as_slice()[15], 4.0);
        assert_eq!(gi.sum(), 10.0);
    }

    #[test]
    fn weight_count_matches_dims() {
        assert_eq!(spec(3, 16, 3, 1, 1).weight_count(), 16 * 27);
    }
}
