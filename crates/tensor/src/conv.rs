//! Direct convolution and pooling kernels over batch-lane `[C][H][W][N]` tensors.
//!
//! These kernels are what make the "pure convolutional" models of the paper
//! (ResNet-50/110 analogues) compute-heavy relative to their parameter count, which is
//! the property the paper's Section V-C analysis hinges on.
//!
//! **Layout.** The convolutional family exchanges activations and gradients as
//! `[C][H][W][N]`: the batch is the innermost dimension, so one pixel of one channel is
//! `N` contiguous values and the batch is the vector lane of the forward kernel, the
//! input-gradient kernel and the pooling window search. A model packs its `[N, C, H, W]`
//! batch once ([`Tensor::batch_to_lanes_into`]) and unpacks once, in front of its dense
//! head ([`Tensor::lanes_to_batch_into`]). [`conv2d_lanes_into`] copies its input row by
//! row (`W * N` contiguous values) into a zero-bordered `[C][H+2p][W+2p][N]` buffer,
//! which is all the backward pass needs of the input, and the forward kernel writes the
//! output tensor itself. In [`conv2d_lanes_backward_into`] the upstream gradient is read
//! where it lies, the input-gradient kernel (which runs only when an input gradient is
//! asked for) writes the input gradient itself, and one operand is still permuted: the
//! upstream gradient as `[N*OH*OW][OC]`, where the output channel is the lane of the
//! weight-gradient kernel. The weight and bias gradients are added into the layer's
//! gradient ranges where they lie, each element `c` becoming `c + (0.0 + Σ)` (the
//! accumulate form the dense layers' `AddTn` uses): no scratch holds them and no second
//! pass adds them. No column matrix exists anywhere.
//!
//! [`conv2d_into`] and [`conv2d_backward_into`] take and return `[N, C, H, W]`: shells
//! that transpose in, run the same kernels, and transpose out. No layer calls them; the
//! property tests do, as the oracle the lane entry points are compared with.
//!
//! **Kernels.** Three bodies run on the tile cascade of `tiles.rs`, as the GEMM does: an
//! `R × L` tile of the result lives in registers while one flat list of taps is walked.
//! They run on its three instances (baseline, AVX2, AVX-512), which agree bit for bit.
//! On AVX-512 the forward and input-gradient kernels, whose lane is the batch, run
//! 4×32 tiles (eight 512-bit accumulators); the weight-gradient kernel, whose lane is
//! the output channel (8 in the model zoo), keeps 8-lane strips and runs 8-row bands.
//! Elsewhere every kernel runs the instance's 4-row bands.
//!
//! **Summation orders** are those of the naive `im2col` formulation, each sum starting
//! from 0.0:
//!
//! * forward output: ascending `(ci, ky, kx)`, the bias added last;
//! * input gradient: per kernel point the ascending-`oc` sum, the kernel points then
//!   added in ascending `(ky, kx)`;
//! * weight and bias gradient: ascending `(n, oy, ox)`.
//!
//! **Padding.** The forward kernel skips the taps that would read the border. A sum that
//! starts at +0.0 never becomes -0.0, so adding the `w * 0.0 = ±0.0` of such a tap
//! never changes it: for finite weights the result is bit for bit the one that reads
//! the zeros. A weight of `inf` or NaN differs: its tap on the border would contribute
//! `inf * 0.0 = NaN` to every edge output, and here contributes nothing. The
//! input-gradient kernel visits exactly the kernel points that reach an output position
//! (the others do not exist in the naive fold either), and the weight-gradient kernel
//! reads the zero border, so neither depends on the operands being finite.

use crate::ops::transpose;
use crate::tiles::{run_tiles, Avx512Tile, Tiles};
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

/// Every size the kernels derive from `(n, h, w, spec)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Geometry {
    n: usize,
    c: usize,
    oc: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Padded plane size.
    ph: usize,
    pw: usize,
    oh: usize,
    ow: usize,
    /// Columns of the filter matrix: `C * K * K`.
    ckk: usize,
}

impl Geometry {
    fn new(n: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Self {
        Self {
            n,
            c: spec.in_channels,
            oc: spec.out_channels,
            h,
            w,
            k: spec.kernel,
            stride: spec.stride,
            pad: spec.padding,
            ph: h + 2 * spec.padding,
            pw: w + 2 * spec.padding,
            oh: spec.out_size(h),
            ow: spec.out_size(w),
            ckk: spec.in_channels * spec.kernel * spec.kernel,
        }
    }
}

/// An offset into a packed buffer. Half the size of a `usize`, so the tap lists take
/// half the cache.
fn offset(i: usize) -> u32 {
    u32::try_from(i).expect("packed convolution buffers are indexed with u32")
}

/// The taps an output position's window reads: a range of [`TapLists::fwd_taps`] and
/// the offset of the window's origin in the packed input.
#[derive(Debug, Clone, Copy)]
struct Window {
    taps: (u32, u32),
    origin: u32,
}

/// The flat tap lists of one geometry, built once into reused storage.
#[derive(Debug, Default)]
struct TapLists {
    /// The geometry the lists were built for.
    built_for: Option<Geometry>,
    /// Forward: `(filter column, offset from the window origin in the packed input)` of
    /// every tap that does not read the border, in ascending `(ci, ky, kx)`. Output
    /// positions whose windows meet the border the same way share one list.
    fwd_taps: Vec<(u32, u32)>,
    /// The distinct `(valid ky range, valid kx range)` met so far, with their lists.
    fwd_classes: Vec<([usize; 4], (u32, u32))>,
    /// One window per output position, in `(oy, ox)` order.
    windows: Vec<Window>,
    /// Input gradient: `(ky * K + kx, offset of the output position in the packed
    /// gradient)` of every kernel point that reaches an output position, in ascending
    /// `(ky, kx)`; `bwd_ends[i]` closes the list of input position `i`.
    bwd_taps: Vec<(u32, u32)>,
    bwd_ends: Vec<u32>,
}

impl TapLists {
    fn prepare(&mut self, n: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Geometry {
        let g = Geometry::new(n, h, w, spec);
        if self.built_for == Some(g) {
            return g;
        }
        self.built_for = Some(g);
        self.fwd_taps.clear();
        self.fwd_classes.clear();
        self.windows.clear();
        // The kernel rows (columns) of the window at output row (column) `o` that land
        // inside an input of side `side`.
        let valid = |o: usize, side: usize| {
            let lo = g.pad.saturating_sub(o * g.stride);
            [lo, (g.pad + side).saturating_sub(o * g.stride).min(g.k)]
        };
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                let ([ky_lo, ky_hi], [kx_lo, kx_hi]) = (valid(oy, h), valid(ox, w));
                let class = [ky_lo, ky_hi, kx_lo, kx_hi];
                let taps = match self.fwd_classes.iter().find(|(key, _)| *key == class) {
                    Some(&(_, taps)) => taps,
                    None => {
                        let start = offset(self.fwd_taps.len());
                        for ci in 0..g.c {
                            for ky in ky_lo..ky_hi {
                                for kx in kx_lo..kx_hi {
                                    self.fwd_taps.push((
                                        offset((ci * g.k + ky) * g.k + kx),
                                        offset(((ci * g.ph + ky) * g.pw + kx) * n),
                                    ));
                                }
                            }
                        }
                        let taps = (start, offset(self.fwd_taps.len()));
                        self.fwd_classes.push((class, taps));
                        taps
                    }
                };
                let origin = offset((oy * g.stride * g.pw + ox * g.stride) * n);
                self.windows.push(Window { taps, origin });
            }
        }
        self.bwd_taps.clear();
        self.bwd_ends.clear();
        for iy in 0..h {
            for ix in 0..w {
                for ky in 0..g.k {
                    for kx in 0..g.k {
                        // (iy, ix) is read by the window at (oy, ox) through (ky, kx)
                        // when oy * stride + ky == iy + pad, likewise in x.
                        let (py, px) = (iy + g.pad, ix + g.pad);
                        if py < ky || px < kx {
                            continue;
                        }
                        let (dy, dx) = (py - ky, px - kx);
                        let (oy, ox) = (dy / g.stride, dx / g.stride);
                        if dy % g.stride == 0 && dx % g.stride == 0 && oy < g.oh && ox < g.ow {
                            self.bwd_taps
                                .push((offset(ky * g.k + kx), offset((oy * g.ow + ox) * n)));
                        }
                    }
                }
                self.bwd_ends.push(offset(self.bwd_taps.len()));
            }
        }
        g
    }
}

/// `acc[r][l] += scale[r] * v[l]`: the one update every kernel's inner loop makes.
/// Indexed on purpose: zipping over `scale` by value keeps the accumulators out of
/// vector registers (six times slower at the residual-block shape).
#[inline(always)]
fn axpy_tile<const R: usize, const L: usize>(acc: &mut [[f32; L]; R], scale: [f32; R], v: &[f32]) {
    let v: &[f32; L] = v[..L].try_into().expect("an L-lane segment");
    for r in 0..R {
        for l in 0..L {
            acc[r][l] += scale[r] * v[l];
        }
    }
}

/// `R` slices of `v`, each `len` long, the `r`-th starting at `start(r)`: slices of one
/// length, so that one bounds check serves a tile step's `R` reads of the same index.
/// Built in a loop: `array::from_fn` is called out of line, and the lengths it returns
/// are `R` values to check.
#[inline(always)]
fn row_slices<const R: usize>(
    v: &[f32],
    len: usize,
    start: impl Fn(usize) -> usize,
) -> [&[f32]; R] {
    let mut rows: [&[f32]; R] = [&[]; R];
    for (r, row) in rows.iter_mut().enumerate() {
        *row = &v[start(r)..][..len];
    }
    rows
}

/// Element `at` of each of `R` slices: the `R` values one step of a tile scales by.
/// A loop, not `array::map`, which the AVX-512 instance called out of line at every
/// step.
#[inline(always)]
fn gather<const R: usize>(slices: &[&[f32]; R], at: usize) -> [f32; R] {
    let mut values = [0.0f32; R];
    for (v, s) in values.iter_mut().zip(slices) {
        *v = s[at];
    }
    values
}

/// Forward: rows are output channels, lanes are examples. Reads the packed input,
/// writes the output, `[OC][OH][OW][N]`.
struct Forward<'a> {
    g: Geometry,
    lists: &'a TapLists,
    weight: &'a [f32],
    bias: &'a [f32],
    packed: &'a [f32],
    out: &'a mut [f32],
}

impl Tiles for Forward<'_> {
    const AVX512: Avx512Tile = Avx512Tile::Lanes32;

    #[inline(always)]
    fn tile<const R: usize, const L: usize>(&mut self, oc0: usize, n0: usize) {
        let (ckk, ohow) = (self.g.ckk, self.g.oh * self.g.ow);
        let filters: [&[f32]; R] = row_slices(self.weight, ckk, |r| (oc0 + r) * ckk);
        let bias: [f32; R] = self.bias[oc0..][..R].try_into().expect("R biases");
        for (pos, window) in self.lists.windows.iter().enumerate() {
            let x = &self.packed[window.origin as usize + n0..];
            let mut acc = [[0.0f32; L]; R];
            for &(col, at) in &self.lists.fwd_taps[window.taps.0 as usize..window.taps.1 as usize] {
                let w = gather(&filters, col as usize);
                axpy_tile(&mut acc, w, &x[at as usize..]);
            }
            // The bias added in registers, then whole rows copied out: adding it on the
            // way out kept the tile in memory (30 % slower).
            for (acc_row, &b) in acc.iter_mut().zip(&bias) {
                for a in acc_row {
                    *a += b;
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                self.out[((oc0 + r) * ohow + pos) * self.g.n + n0..][..L].copy_from_slice(acc_row);
            }
        }
    }
}

/// Input gradient: rows are input channels, lanes are examples. Reads the upstream
/// gradient, `[OC][OH][OW][N]`, writes the input gradient, `[C][H][W][N]`.
struct InputGrad<'a> {
    g: Geometry,
    lists: &'a TapLists,
    weight: &'a [f32],
    grad_out: &'a [f32],
    grad_input: &'a mut [f32],
}

impl Tiles for InputGrad<'_> {
    const AVX512: Avx512Tile = Avx512Tile::Lanes32;

    #[inline(always)]
    fn tile<const R: usize, const L: usize>(&mut self, ci0: usize, n0: usize) {
        let g = &self.g;
        let (kk, ckk, hw) = (g.k * g.k, g.ckk, g.h * g.w);
        let channel_stride = g.oh * g.ow * g.n;
        // Row r's filter column for kernel point t in output channel oc is
        // `columns[r][oc * ckk + t]`; each row reaches as far as the last input
        // channel's does, to the end of the weights.
        let columns_len = self.weight.len().saturating_sub((g.c - 1) * kk);
        let columns: [&[f32]; R] = row_slices(self.weight, columns_len, |r| (ci0 + r) * kk);
        let mut start = 0;
        for (pos, &end) in self.lists.bwd_ends.iter().enumerate() {
            let mut acc = [[0.0f32; L]; R];
            for &(t, at) in &self.lists.bwd_taps[start..end as usize] {
                let mut point = [[0.0f32; L]; R];
                let channels = self.grad_out[at as usize + n0..].chunks(channel_stride);
                for (oc, grad) in channels.enumerate() {
                    let w = gather(&columns, oc * ckk + t as usize);
                    axpy_tile(&mut point, w, grad);
                }
                for (acc_row, point_row) in acc.iter_mut().zip(&point) {
                    for (a, &p) in acc_row.iter_mut().zip(point_row) {
                        *a += p;
                    }
                }
            }
            start = end as usize;
            for (r, acc_row) in acc.iter().enumerate() {
                self.grad_input[((ci0 + r) * hw + pos) * g.n + n0..][..L].copy_from_slice(acc_row);
            }
        }
    }
}

/// Weight gradient: rows are filter columns `(ci, ky, kx)`, lanes are output channels.
/// Reads the packed input (border included: a tap there contributes the same `g * 0.0`
/// the column matrix's zero did) and the upstream gradient as `[N*OH*OW][OC]`, and adds
/// each finished tile into the weight gradient, `[OC][C*K*K]`, as `c + (0.0 + Σ)`.
struct WeightGrad<'a> {
    g: Geometry,
    lists: &'a TapLists,
    packed: &'a [f32],
    grad_rows: &'a [f32],
    grad_weight: &'a mut [f32],
}

impl Tiles for WeightGrad<'_> {
    const AVX512: Avx512Tile = Avx512Tile::Rows8;

    #[inline(always)]
    fn tile<const R: usize, const L: usize>(&mut self, col0: usize, oc0: usize) {
        let g = &self.g;
        // Each row's kernel point as the window slides, from the first example of the
        // first window to the last example of the last.
        let span = ((g.oh - 1) * g.stride * g.pw + (g.ow - 1) * g.stride + 1) * g.n;
        let taps: [&[f32]; R] = row_slices(self.packed, span, |r| {
            let (ci, ky, kx) = (
                (col0 + r) / (g.k * g.k),
                (col0 + r) / g.k % g.k,
                (col0 + r) % g.k,
            );
            ((ci * g.ph + ky) * g.pw + kx) * g.n
        });
        let mut acc = [[0.0f32; L]; R];
        let mut grads = self.grad_rows.chunks_exact(g.oc);
        for n in 0..g.n {
            for (window, grad) in self.lists.windows.iter().zip(&mut grads) {
                let x = gather(&taps, window.origin as usize + n);
                axpy_tile(&mut acc, x, &grad[oc0..]);
            }
        }
        // Lane `l` of the tile is `R` consecutive filter columns of output channel
        // `oc0 + l`, so the tile is added in transposed, out of line, from rows staged
        // `2 L` apart. Added in inline, or staged back to back, the rows were vectorised
        // in pairs across the loop above, which then shuffled them at every step (3-5x
        // slower).
        let mut stage = [[[0.0f32; L]; 2]; R];
        for (st, row) in stage.iter_mut().zip(&acc) {
            st[0] = *row;
        }
        add_transposed(&stage, &mut self.grad_weight[oc0 * g.ckk + col0..], g.ckk);
    }
}

/// `dst[l * stride + r] += tile[r][0][l]`: a weight-gradient tile, its row `r` staged in
/// `tile[r][0]` (`tile[r][1]` is a gap, see the caller), added into the `[OC][C*K*K]`
/// gradient.
#[inline(never)]
fn add_transposed<const R: usize, const L: usize>(
    tile: &[[[f32; L]; 2]; R],
    dst: &mut [f32],
    stride: usize,
) {
    for l in 0..L {
        let dst = &mut dst[l * stride..][..R];
        for r in 0..R {
            dst[r] += tile[r][0][l];
        }
    }
}

/// Scratch of the convolution kernels, reused across iterations.
#[derive(Debug, Default)]
pub struct ConvScratch {
    /// The tap lists of the geometry last seen, rebuilt only when it changes.
    lists: TapLists,
    /// The upstream gradient as `[N*OH*OW, OC]`: the operand of the weight-gradient
    /// kernel, whose lane is the output channel.
    grad_rows: Tensor,
}

/// The batch size of a batch-lane tensor whose other dimensions must be `expected`.
fn lanes_of(what: &str, t: &Tensor, expected: [usize; 3]) -> usize {
    let dims = t.shape().dims();
    assert!(
        dims.len() == 4 && dims[..3] == expected,
        "{what} has shape {dims:?}, expected {expected:?} with the batch last"
    );
    dims[3]
}

/// Forward 2-D convolution over a batch-lane input.
///
/// * `input`  — `[C, H, W, N]`
/// * `weight` — `OC x C*K*K` values (filters flattened row-major), and `bias` — `OC`
///   values: a convolution layer's two ranges of its model's parameter vector
/// * `packed` receives the input as zero-bordered `[C, H+2p, W+2p, N]` (needed again
///   by the backward pass);
/// * `scratch` holds the tap lists;
/// * `out` receives the `[OC, OH, OW, N]` activation, written by the kernel itself.
///
/// Every output element is the ascending-`(ci, ky, kx)` sum of its window from 0.0,
/// plus the bias — bitwise the naive `im2col x weight^T` formulation (module docs).
///
/// # Panics
///
/// Panics if `input` is not `[C, h, w, N]` or the parameters do not fit `spec`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_lanes_into(
    input: &Tensor,
    weight: &[f32],
    bias: &[f32],
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    packed: &mut Tensor,
    scratch: &mut ConvScratch,
    out: &mut Tensor,
) {
    let n = lanes_of("conv2d input", input, [spec.in_channels, h, w]);
    let x = input.as_slice();
    // One image row of one channel at a time: W pixels of N examples each, as they lie.
    let copy_row = |row: usize, dst: &mut [f32]| dst.copy_from_slice(&x[row * w * n..][..w * n]);
    forward(n, weight, bias, h, w, spec, packed, scratch, out, copy_row);
}

/// [`conv2d_lanes_into`] for an `[N, C, H, W]` input and an `[N, OC, OH, OW]` output:
/// the input is transposed into `packed`, the output transposed out of its lane layout.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    packed: &mut Tensor,
    scratch: &mut ConvScratch,
    out: &mut Tensor,
) {
    let dims = input.shape().dims();
    let n = dims[0];
    assert_eq!(dims[1..], [spec.in_channels, h, w], "conv2d input shape");
    let (x, example) = (input.as_slice(), spec.in_channels * h * w);
    let transpose_row =
        |row: usize, dst: &mut [f32]| transpose(&x[row * w..], example, dst, n, n, w);
    // The lane-layout output borrows the buffer of the weight-gradient operand, which
    // a backward pass fills before it reads it and a forward pass never touches.
    let mut lanes = std::mem::take(&mut scratch.grad_rows);
    forward(
        n,
        weight.as_slice(),
        bias.as_slice(),
        h,
        w,
        spec,
        packed,
        scratch,
        &mut lanes,
        transpose_row,
    );
    lanes.lanes_to_batch_into(out);
    scratch.grad_rows = lanes;
}

/// The forward pass both entry points share: `pack_row(row, dst)` writes row
/// `row = ci * h + iy` of the input, `[W][N]`, into its place in the packed buffer.
#[allow(clippy::too_many_arguments)]
fn forward(
    n: usize,
    weight: &[f32],
    bias: &[f32],
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    packed: &mut Tensor,
    scratch: &mut ConvScratch,
    out: &mut Tensor,
    pack_row: impl Fn(usize, &mut [f32]),
) {
    let g = scratch.lists.prepare(n, h, w, spec);
    assert_eq!(weight.len(), g.oc * g.ckk, "conv2d weight length");
    assert_eq!(bias.len(), g.oc, "conv2d bias length");
    packed.ensure_shape(&[g.c, g.ph, g.pw, n]);
    let xp = packed.as_mut_slice();
    if g.pad > 0 {
        xp.fill(0.0);
    }
    for row in 0..g.c * h {
        let (ci, iy) = (row / h, row % h);
        let at = ((ci * g.ph + iy + g.pad) * g.pw + g.pad) * n;
        pack_row(row, &mut xp[at..at + w * n]);
    }
    out.ensure_shape(&[g.oc, g.oh, g.ow, n]);
    let mut kernel = Forward {
        g,
        lists: &scratch.lists,
        weight,
        bias,
        packed: xp,
        out: out.as_mut_slice(),
    };
    run_tiles(&mut kernel, g.oc, n);
}

/// [`conv2d_into`] into fresh tensors: returns the `[N, OC, OH, OW]` activation and the
/// packed input, which the backward pass consumes.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor) {
    let mut scratch = ConvScratch::default();
    let [mut packed, mut out]: [Tensor; 2] = Default::default();
    conv2d_into(
        input,
        weight,
        bias,
        h,
        w,
        spec,
        &mut packed,
        &mut scratch,
        &mut out,
    );
    (out, packed)
}

/// Backward 2-D convolution over a batch-lane gradient, its weight and bias gradients
/// added into a layer's gradient ranges.
///
/// `grad_out` is the upstream gradient, `[OC, OH, OW, N]`, and `packed` the packed
/// input cached by the forward pass; `scratch` provides the tap lists and the operand
/// of the weight-gradient kernel. `grad_input` (`[C, H, W, N]`) is written by the kernel
/// itself; with `None` the input-gradient kernel does not run. `grad_weight`
/// (`OC x C*K*K`, row-major) and `grad_bias` (`OC`) are accumulated: each element `c`
/// becomes `c + (0.0 + Σ)`, bit for bit the gradient into a scratch followed by an
/// elementwise add.
///
/// Every sum `Σ` is bitwise the naive formulation that sums over output positions (per
/// kernel point over output channels for the input gradient) in ascending order
/// (module docs).
///
/// # Panics
///
/// Panics if `grad_out` is not `[OC, OH, OW, N]` or `packed`, `weight`, `grad_weight`
/// and `grad_bias` do not fit.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_lanes_backward_into(
    grad_out: &Tensor,
    packed: &Tensor,
    weight: &[f32],
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    scratch: &mut ConvScratch,
    grad_input: Option<&mut Tensor>,
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
) {
    let out_dims = [spec.out_channels, spec.out_size(h), spec.out_size(w)];
    let n = lanes_of("conv2d upstream gradient", grad_out, out_dims);
    let g = scratch.lists.prepare(n, h, w, spec);
    let (ohow, ckk) = (g.oh * g.ow, g.ckk);
    assert_eq!(packed.len(), g.c * g.ph * g.pw * n, "packed input length");
    assert_eq!(weight.len(), g.oc * ckk, "conv2d_backward weight length");
    assert_eq!(
        grad_weight.len(),
        g.oc * ckk,
        "conv2d_backward weight gradient length"
    );
    assert_eq!(
        grad_bias.len(),
        g.oc,
        "conv2d_backward bias gradient length"
    );
    // The one operand still permuted: per output position, `[OC][N]` (rows a channel
    // apart) becomes `[N][OC]` (rows an example apart).
    let grad = grad_out.as_slice();
    scratch.grad_rows.ensure_shape(&[n * ohow, g.oc]);
    let grad_rows = scratch.grad_rows.as_mut_slice();
    for pos in 0..ohow {
        let (src, dst) = (&grad[pos * n..], &mut grad_rows[pos * g.oc..]);
        transpose(src, ohow * n, dst, ohow * g.oc, g.oc, n);
    }
    add_column_sums(grad_rows, grad_bias);
    let mut kernel = WeightGrad {
        g,
        lists: &scratch.lists,
        packed: packed.as_slice(),
        grad_rows,
        grad_weight,
    };
    run_tiles(&mut kernel, ckk, g.oc);
    let Some(grad_input) = grad_input else {
        return;
    };
    grad_input.ensure_shape(&[g.c, h, w, n]);
    let mut kernel = InputGrad {
        g,
        lists: &scratch.lists,
        weight,
        grad_out: grad,
        grad_input: grad_input.as_mut_slice(),
    };
    run_tiles(&mut kernel, g.c, n);
}

/// `acc[j] += 0.0 + Σ_i rows[i][j]`, the sum in ascending `i`, for the rows of
/// `acc.len()` columns that make up `rows`: the bias gradient, eight columns at a time
/// in registers and then one at a time.
fn add_column_sums(rows: &[f32], acc: &mut [f32]) {
    let mut j = 0;
    while j + 8 <= acc.len() {
        add_columns::<8>(rows, j, acc);
        j += 8;
    }
    while j < acc.len() {
        add_columns::<1>(rows, j, acc);
        j += 1;
    }
}

/// Columns `j..j + L` of [`add_column_sums`].
#[inline(always)]
fn add_columns<const L: usize>(rows: &[f32], j: usize, acc: &mut [f32]) {
    let mut sum = [0.0f32; L];
    for row in rows.chunks_exact(acc.len()) {
        let v: &[f32; L] = row[j..][..L].try_into().expect("L columns");
        for l in 0..L {
            sum[l] += v[l];
        }
    }
    for (a, s) in acc[j..][..L].iter_mut().zip(sum) {
        *a += s;
    }
}

/// [`conv2d_lanes_backward_into`] for an `[N, OC, OH, OW]` gradient and an
/// `[N, C, H, W]` input gradient, overwriting `grad_weight` (`[OC, C*K*K]`) and
/// `grad_bias` (`[OC]`) rather than adding into them. `packed_grad` and
/// `packed_grad_input` are pure scratch: the two in their lane layout, before and after
/// the kernels.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into(
    grad_out: &Tensor,
    packed: &Tensor,
    weight: &Tensor,
    n: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    packed_grad: &mut Tensor,
    packed_grad_input: &mut Tensor,
    scratch: &mut ConvScratch,
    grad_input: &mut Tensor,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) {
    let dims = [n, spec.out_channels, spec.out_size(h), spec.out_size(w)];
    assert_eq!(grad_out.shape().dims(), dims, "upstream gradient shape");
    grad_out.batch_to_lanes_into(packed_grad);
    // Overwriting is adding into zeros: a sum from 0.0 is never -0.0, so `0.0 + s` is
    // `s` bit for bit.
    let ckk = spec.in_channels * spec.kernel * spec.kernel;
    grad_weight.ensure_shape(&[spec.out_channels, ckk]);
    grad_weight.as_mut_slice().fill(0.0);
    grad_bias.ensure_shape(&[spec.out_channels]);
    grad_bias.as_mut_slice().fill(0.0);
    conv2d_lanes_backward_into(
        packed_grad,
        packed,
        weight.as_slice(),
        h,
        w,
        spec,
        scratch,
        Some(packed_grad_input),
        grad_weight.as_mut_slice(),
        grad_bias.as_mut_slice(),
    );
    packed_grad_input.lanes_to_batch_into(grad_input);
}

/// [`conv2d_backward_into`] into fresh tensors: returns
/// `(grad_input, grad_weight, grad_bias)`.
pub fn conv2d_backward(
    grad_out: &Tensor,
    packed: &Tensor,
    weight: &Tensor,
    n: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let mut scratch = ConvScratch::default();
    let [mut packed_grad, mut packed_grad_input]: [Tensor; 2] = Default::default();
    let [mut grad_input, mut grad_weight, mut grad_bias]: [Tensor; 3] = Default::default();
    conv2d_backward_into(
        grad_out,
        packed,
        weight,
        n,
        h,
        w,
        spec,
        &mut packed_grad,
        &mut packed_grad_input,
        &mut scratch,
        &mut grad_input,
        &mut grad_weight,
        &mut grad_bias,
    );
    (grad_input, grad_weight, grad_bias)
}

/// Forward 2-D max pooling over a `[C, H, W, N]` input.
///
/// Returns the pooled output `[C, OH, OW, N]` and the flat indices of the winning
/// elements (needed to route gradients in the backward pass).
pub fn max_pool2d(input: &Tensor, h: usize, w: usize, spec: &Pool2dSpec) -> (Tensor, Vec<u32>) {
    let mut out = Tensor::default();
    let mut idx = Vec::new();
    max_pool2d_into(input, h, w, spec, &mut out, &mut idx);
    (out, idx)
}

/// [`max_pool2d`] writing the pooled output and winner indices into caller-provided
/// buffers (both are reused without reallocation once warmed).
///
/// A window's winner is its first maximum in `(ky, kx)` order: the search starts at the
/// window's first element and moves on under strict `>`, as a select over the examples
/// of a pixel, not a branch. A NaN therefore wins only from the first slot, and a window
/// of nothing but `-inf` or NaN routes its gradient to its own first element.
///
/// # Panics
///
/// Panics if `input` is not `[C, h, w, N]`.
pub fn max_pool2d_into(
    input: &Tensor,
    h: usize,
    w: usize,
    spec: &Pool2dSpec,
    out: &mut Tensor,
    idx: &mut Vec<u32>,
) {
    let c = input.shape().dims().first().copied().unwrap_or(0);
    let n = lanes_of("max_pool2d input", input, [c, h, w]);
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    out.ensure_shape(&[c, oh, ow, n]);
    idx.resize(c * oh * ow * n, 0);
    if out.is_empty() {
        return;
    }
    // Every winner is an index into the input: checked once, cast freely below.
    offset(input.len());
    let (x, sides, window) = (input.as_slice(), [h, w, oh, ow], (spec.kernel, spec.stride));
    // 2x2 / stride 2 is the only pooling the model zoo has: the same body with both
    // constants known, so the window loops unroll into four compares and selects.
    if window == (2, 2) {
        pool_planes(x, sides, n, (2, 2), out.as_mut_slice(), idx);
    } else {
        pool_planes(x, sides, n, window, out.as_mut_slice(), idx);
    }
}

/// Pools every `H × W` plane of an `[C, H, W, N]` input: per output position its `N`
/// windows, eight examples at a time and then one at a time.
#[inline(always)]
fn pool_planes(
    x: &[f32],
    [h, w, oh, ow]: [usize; 4],
    n: usize,
    (kernel, stride): (usize, usize),
    best: &mut [f32],
    best_i: &mut [u32],
) {
    let lanes = best.chunks_exact_mut(n).zip(best_i.chunks_exact_mut(n));
    for (o, (best, best_i)) in lanes.enumerate() {
        let (plane, o) = (o / (oh * ow), o % (oh * ow));
        let first = ((plane * h + o / ow * stride) * w + o % ow * stride) * n;
        let mut l = 0;
        while l + 8 <= n {
            pool_lanes::<8>(
                x,
                first + l,
                w * n,
                n,
                kernel,
                &mut best[l..],
                &mut best_i[l..],
            );
            l += 8;
        }
        while l < n {
            pool_lanes::<1>(
                x,
                first + l,
                w * n,
                n,
                kernel,
                &mut best[l..],
                &mut best_i[l..],
            );
            l += 1;
        }
    }
}

/// `L` examples of the window whose first elements are `x[first..first + L]`, its rows
/// `row` and its columns `col` apart. Fixed-size arrays of `f32` values beside `u32`
/// indices: what lets the selects run as vector blends (a `usize` index is twice as wide
/// as the value it travels with, and the loop stays scalar).
#[inline(always)]
fn pool_lanes<const L: usize>(
    x: &[f32],
    first: usize,
    row: usize,
    col: usize,
    kernel: usize,
    best: &mut [f32],
    best_i: &mut [u32],
) {
    let mut top: [f32; L] = x[first..][..L].try_into().expect("L lanes");
    let mut top_i: [u32; L] = std::array::from_fn(|l| (first + l) as u32);
    for ky in 0..kernel {
        for kx in 0..kernel {
            let at = first + ky * row + kx * col;
            let v: &[f32; L] = x[at..][..L].try_into().expect("L lanes");
            for l in 0..L {
                let wins = v[l] > top[l];
                top[l] = if wins { v[l] } else { top[l] };
                top_i[l] = if wins { (at + l) as u32 } else { top_i[l] };
            }
        }
    }
    best[..L].copy_from_slice(&top);
    best_i[..L].copy_from_slice(&top_i);
}

/// Backward 2-D max pooling: routes each upstream gradient element to the input position
/// that won the corresponding pooling window.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    winner_indices: &[u32],
    input_dims: &[usize],
) -> Tensor {
    let mut grad_in = Tensor::default();
    max_pool2d_backward_into(grad_out, winner_indices, input_dims, &mut grad_in);
    grad_in
}

/// [`max_pool2d_backward`] writing into a caller-provided buffer.
pub fn max_pool2d_backward_into(
    grad_out: &Tensor,
    winner_indices: &[u32],
    input_dims: &[usize],
    grad_in: &mut Tensor,
) {
    grad_in.ensure_shape(input_dims);
    let gi = grad_in.as_mut_slice();
    gi.fill(0.0);
    for (g, &i) in grad_out.as_slice().iter().zip(winner_indices) {
        gi[i as usize] += *g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::{run_on, Instance};

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
    fn input_gradient_is_adjoint_of_forward() {
        // <conv(x), y> == <x, conv_backward_input(y)> with a zero bias: check with a
        // simple case.
        let s = spec(1, 1, 2, 1, 0);
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let weight = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[1, 4]);
        let (out, packed) = conv2d(&x, &weight, &Tensor::zeros(&[1]), 3, 3, &s);
        let y = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5], out.shape().dims());
        let lhs: f32 = out.mul(&y).sum();
        let (back, _, _) = conv2d_backward(&y, &packed, &weight, 1, 3, 3, &s);
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
            &[1, 4, 4, 1],
        );
        let (out, idx) = max_pool2d(&x, 4, 4, &p);
        assert_eq!(out.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(idx, vec![5, 7, 13, 15]);
        // A window with nothing above -inf keeps its own first element: the gradient
        // must not leak to element 0 of the batch (another example's pixel). Two
        // examples, pixel `i` of example `e` at `2 * i + e`.
        let mut values = vec![1.0f32; 16 * 2];
        for i in [10, 11, 14, 15] {
            values[2 * i + 1] = f32::NEG_INFINITY;
        }
        values[2 * 11 + 1] = f32::NAN;
        let x = Tensor::from_vec(values, &[1, 4, 4, 2]);
        let (out, idx) = max_pool2d(&x, 4, 4, &p);
        assert_eq!(out.as_slice()[2 * 3 + 1], f32::NEG_INFINITY);
        assert_eq!(idx[2 * 3 + 1], 2 * 10 + 1);
        // The generic loop agrees with the fixed 2x2 path.
        let generic = Pool2dSpec {
            kernel: 2,
            stride: 1,
        };
        let (out, idx) = max_pool2d(&x, 4, 4, &generic);
        assert_eq!(out.as_slice()[2 * 8 + 1], f32::NEG_INFINITY);
        assert_eq!(idx[2 * 8 + 1], 2 * 10 + 1);
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
            &[1, 4, 4, 1],
        );
        let (out, idx) = max_pool2d(&x, 4, 4, &p);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], out.shape().dims());
        let gi = max_pool2d_backward(&g, &idx, &[1, 4, 4, 1]);
        assert_eq!(gi.as_slice()[5], 1.0);
        assert_eq!(gi.as_slice()[7], 2.0);
        assert_eq!(gi.as_slice()[13], 3.0);
        assert_eq!(gi.as_slice()[15], 4.0);
        assert_eq!(gi.sum(), 10.0);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every step of the lane cascades (batches and output-channel counts of 1..=19, 31
    /// and 33..=65 leave every remainder of the 32-, 16- and 8-wide strips) and of the
    /// row cascades (1..=7 input channels give 9..=63 filter columns, every remainder of
    /// the weight gradient's 8-row bands), at strides 1 and 2 with and without padding:
    /// each of the three kernels writes, bit for bit, the same result on every instance
    /// the CPU runs it on (baseline, AVX2, AVX-512), each checked by name, as the
    /// dispatched entry points did. The weight gradient is added into a nonzero
    /// gradient. (That all equal the naive formulation is `tests/proptest_kernels.rs`.)
    #[test]
    fn baseline_and_dispatched_instances_agree_bitwise() {
        for size in (1..20).chain([31, 33, 47, 63, 64, 65]) {
            for (stride, pad) in [(1, 1), (2, 0)] {
                // `size` examples over few channels, then few examples over `size`
                // channels out and up to 7 in.
                for (n, c, oc) in [(size, 3, 5), (2, size.min(7), size)] {
                    let (h, w, s) = (4, 5, spec(c, oc, 3, stride, pad));
                    let x = crate::uniform_init(&[c, h, w, n], 1.0, size as u64);
                    let weight = crate::uniform_init(&[oc, c * 9], 1.0, 1);
                    let bias = crate::uniform_init(&[oc], 1.0, 2);
                    let mut scratch = ConvScratch::default();
                    let (mut packed, mut out) = (Tensor::default(), Tensor::default());
                    conv2d_lanes_into(
                        &x,
                        weight.as_slice(),
                        bias.as_slice(),
                        h,
                        w,
                        &s,
                        &mut packed,
                        &mut scratch,
                        &mut out,
                    );
                    let grad_out = crate::uniform_init(out.shape().dims(), 1.0, 3);
                    let grad_weight = crate::uniform_init(&[oc, c * 9], 1.0, 4);
                    let mut gi = Tensor::default();
                    let (mut gw, mut gb) = (grad_weight.clone(), Tensor::zeros(&[oc]));
                    conv2d_lanes_backward_into(
                        &grad_out,
                        &packed,
                        weight.as_slice(),
                        h,
                        w,
                        &s,
                        &mut scratch,
                        Some(&mut gi),
                        gw.as_mut_slice(),
                        gb.as_mut_slice(),
                    );
                    let g = Geometry::new(n, h, w, &s);
                    for instance in Instance::ALL.into_iter().filter(|i| i.runs::<Forward>()) {
                        let case =
                            format!("{instance:?} n={n} c={c} oc={oc} stride={stride} pad={pad}");
                        // NaN-filled outputs: every element must be overwritten.
                        let mut result = vec![f32::NAN; out.len()];
                        let mut kernel = Forward {
                            g,
                            lists: &scratch.lists,
                            weight: weight.as_slice(),
                            bias: bias.as_slice(),
                            packed: packed.as_slice(),
                            out: &mut result,
                        };
                        run_on(instance, &mut kernel, oc, n);
                        assert_eq!(bits(&result), bits(out.as_slice()), "forward {case}");
                        let mut result = vec![f32::NAN; gi.len()];
                        let mut kernel = InputGrad {
                            g,
                            lists: &scratch.lists,
                            weight: weight.as_slice(),
                            grad_out: grad_out.as_slice(),
                            grad_input: &mut result,
                        };
                        run_on(instance, &mut kernel, c, n);
                        assert_eq!(bits(&result), bits(gi.as_slice()), "input gradient {case}");
                        let mut result = grad_weight.as_slice().to_vec();
                        let mut kernel = WeightGrad {
                            g,
                            lists: &scratch.lists,
                            packed: packed.as_slice(),
                            grad_rows: scratch.grad_rows.as_slice(),
                            grad_weight: &mut result,
                        };
                        run_on(instance, &mut kernel, g.ckk, oc);
                        assert_eq!(bits(&result), bits(gw.as_slice()), "weight gradient {case}");
                    }
                }
            }
        }
    }

    /// The lane backward adds its weight and bias gradients into the ranges it is
    /// handed: from a nonzero gradient (-0.0, ±inf and NaN among it) each element is
    /// that element plus what the backward writes into zeros, bit for bit.
    #[test]
    fn backward_adds_the_parameter_gradients_into_their_ranges() {
        let (n, h, w, s) = (33, 5, 4, spec(2, 9, 3, 1, 1));
        let x = crate::uniform_init(&[2, h, w, n], 1.0, 7);
        let weight = crate::uniform_init(&[9, 18], 1.0, 8);
        let bias = crate::uniform_init(&[9], 1.0, 9);
        let mut scratch = ConvScratch::default();
        let (mut packed, mut out) = (Tensor::default(), Tensor::default());
        let (weight, bias) = (weight.as_slice(), bias.as_slice());
        conv2d_lanes_into(
            &x,
            weight,
            bias,
            h,
            w,
            &s,
            &mut packed,
            &mut scratch,
            &mut out,
        );
        let grad_out = crate::uniform_init(out.shape().dims(), 1.0, 10);
        let mut backward = |grad_weight: &mut [f32], grad_bias: &mut [f32]| {
            let (scratch, packed) = (&mut scratch, &packed);
            conv2d_lanes_backward_into(
                &grad_out,
                packed,
                weight,
                h,
                w,
                &s,
                scratch,
                None,
                grad_weight,
                grad_bias,
            )
        };
        let (mut fresh_w, mut fresh_b) = (vec![0.0; 9 * 18], vec![0.0; 9]);
        backward(&mut fresh_w, &mut fresh_b);
        let special = [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.5];
        let start = |len: usize| -> Vec<f32> { (0..len).map(|i| special[i % 5]).collect() };
        let (mut grad_w, mut grad_b) = (start(9 * 18), start(9));
        backward(&mut grad_w, &mut grad_b);
        // NaN compared as NaN, whatever its payload.
        let expect = |start: Vec<f32>, fresh: &[f32]| -> Vec<u32> {
            start
                .iter()
                .zip(fresh)
                .map(|(c, g)| canonical(c + g))
                .collect()
        };
        let canonical_all = |v: &[f32]| -> Vec<u32> { v.iter().map(|&x| canonical(x)).collect() };
        assert_eq!(canonical_all(&grad_w), expect(start(9 * 18), &fresh_w));
        assert_eq!(canonical_all(&grad_b), expect(start(9), &fresh_b));
    }

    fn canonical(x: f32) -> u32 {
        if x.is_nan() {
            f32::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    #[test]
    fn weight_count_matches_dims() {
        assert_eq!(spec(3, 16, 3, 1, 1).weight_count(), 16 * 27);
    }
}
