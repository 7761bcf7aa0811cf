//! Elementwise, reduction and linear-algebra operations on [`Tensor`].
//!
//! Every allocating operation delegates to a `*_into` kernel that writes into a
//! caller-provided buffer. The `*_into` kernels are the training hot path: together
//! with the workspace machinery in `dssp-nn` they let a steady-state training step run
//! without touching the allocator. `matmul_into` and `matmul_tn_into` are two layouts
//! of one register-tiled microkernel (the private `gemm` module), and
//! `matmul_tn_add_into` is its accumulate form; all three keep the per-element
//! accumulation order of the naive loops (ascending shared dimension from 0.0), so
//! tiled and naive results are bitwise identical; `matmul_nt_into` is the one kernel
//! that reassociates, from a shared dimension of 16 on (see there). `sgd_apply`, the
//! server's optimizer step, runs on the same tile cascade.
//!
//! A layer's parameters and gradients are ranges of its model's flat vectors, not
//! tensors, so the kernels a parameter layer calls take them as slices:
//! `matmul_slice_into` and `matmul_nt_slice_into` read the weight operand from one,
//! `matmul_tn_add_into` accumulates into one, `add_row_broadcast_inplace` reads the
//! bias from one. The `&Tensor` forms are one-line calls into them.

use std::cell::RefCell;

use crate::gemm::{gemm, gemm_tn_add};
use crate::tiles::{run_tiles, Avx512Tile, Tiles};
use crate::{Tensor, TensorError};

/// Rows of `self` that share one pass over a row of `other` in `matmul_nt_into`.
const NT_BLOCK_M: usize = 64;

thread_local! {
    /// `matmul_nt_slice_into`'s right operand packed transposed, below `k = 16`.
    static NT_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Dot product accumulated in eight interleaved lanes (lane `j` sums every eighth
/// element starting at `j`), combined lane 0 through lane 7 and then the remainder in
/// ascending order. The lane loop auto-vectorizes to one SIMD FMA per chunk; the
/// result is deterministic but reassociated relative to a left-to-right sum.
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let a_chunks = a.chunks_exact(8);
    let b_chunks = b.chunks_exact(8);
    let a_rem = a_chunks.remainder();
    let b_rem = b_chunks.remainder();
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for (l, (&x, &y)) in lanes.iter_mut().zip(ca.iter().zip(cb)) {
            *l += x * y;
        }
    }
    let mut acc = 0.0f32;
    for l in lanes {
        acc += l;
    }
    for (&x, &y) in a_rem.iter().zip(b_rem) {
        acc += x * y;
    }
    acc
}

/// Adds `add` into `acc` elementwise: the slice form of [`Tensor::add_assign`], for a
/// layer accumulating a batch's gradient into its range of a model's gradient vector.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add_assign_slice(acc: &mut [f32], add: &[f32]) {
    assert_eq!(
        acc.len(),
        add.len(),
        "add_assign_slice requires equal lengths"
    );
    for (a, b) in acc.iter_mut().zip(add) {
        *a += *b;
    }
}

/// One SGD-with-momentum update of a flat parameter vector, element by element:
/// `v = momentum·v + (g + weight_decay·p)`, then `p -= lr·v`. The lanes of the tile
/// cascade run over the vector (one row), so every instance computes each element in
/// that order and they agree bit for bit with the scalar loop.
///
/// # Panics
///
/// Panics if the three lengths differ.
pub fn sgd_apply(
    params: &mut [f32],
    grads: &[f32],
    velocity: &mut [f32],
    lr: f32,
    momentum: f32,
    weight_decay: f32,
) {
    assert_eq!(params.len(), grads.len(), "sgd_apply gradient length");
    assert_eq!(params.len(), velocity.len(), "sgd_apply velocity length");
    let lanes = params.len();
    let mut kernel = SgdApply {
        params,
        grads,
        velocity,
        lr,
        momentum,
        weight_decay,
    };
    run_tiles(&mut kernel, 1, lanes);
}

/// [`sgd_apply`] as the tile cascade sees it: one row, the parameter vector its lanes.
struct SgdApply<'a> {
    params: &'a mut [f32],
    grads: &'a [f32],
    velocity: &'a mut [f32],
    lr: f32,
    momentum: f32,
    weight_decay: f32,
}

impl Tiles for SgdApply<'_> {
    /// On the AVX2 instance everywhere: at 76 810 parameters on a 2-core AVX-512 host
    /// 32-lane strips were no faster (minimum 19.0 µs against 18.2).
    const AVX512: Avx512Tile = Avx512Tile::None;

    /// `L` parameters from `lane0` on; `R` is 1.
    #[inline(always)]
    fn tile<const R: usize, const L: usize>(&mut self, _row0: usize, lane0: usize) {
        let (lr, momentum, wd) = (self.lr, self.momentum, self.weight_decay);
        let p: &mut [f32; L] = (&mut self.params[lane0..][..L])
            .try_into()
            .expect("L-wide segment");
        let g: &[f32; L] = self.grads[lane0..][..L].try_into().expect("L-wide segment");
        let v: &mut [f32; L] = (&mut self.velocity[lane0..][..L])
            .try_into()
            .expect("L-wide segment");
        // Computed on copies: the stores through `p` and `v`, which the compiler cannot
        // tell apart, kept the loop scalar (4x slower).
        let (mut pv, mut vv) = (*p, *v);
        for l in 0..L {
            vv[l] = momentum * vv[l] + (g[l] + wd * pv[l]);
            pv[l] -= lr * vv[l];
        }
        (*p, *v) = (pv, vv);
    }
}

impl Tensor {
    /// Returns the elementwise sum of `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ. Use [`Tensor::try_add`] for a fallible variant.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.try_add(other).expect("add requires equal shapes")
    }

    /// Returns the elementwise sum of `self` and `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn try_add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Returns the elementwise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "sub", |a, b| a - b)
            .expect("sub requires equal shapes")
    }

    /// Returns the elementwise product of `self` and `other` (Hadamard product).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "mul", |a, b| a * b)
            .expect("mul requires equal shapes")
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert!(
            self.shape().same_as(other.shape()),
            "add_assign requires equal shapes: {} vs {}",
            self.shape(),
            other.shape()
        );
        add_assign_slice(self.as_mut_slice(), other.as_slice());
    }

    /// Adds `scale * other` into `self` in place (axpy).
    ///
    /// This is the hot path for SGD updates and gradient aggregation in the parameter
    /// server.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) {
        assert!(
            self.shape().same_as(other.shape()),
            "axpy requires equal shapes: {} vs {}",
            self.shape(),
            other.shape()
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += scale * *b;
        }
    }

    /// Returns `self` scaled by `factor`.
    pub fn scaled(&self, factor: f32) -> Tensor {
        self.map(|v| v * factor)
    }

    /// Scales the tensor in place.
    pub fn scale_inplace(&mut self, factor: f32) {
        for v in self.as_mut_slice() {
            *v *= factor;
        }
    }

    /// Applies a function to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let mut out = Tensor::with_capacity_of(self);
        self.map_into(&mut out, f);
        out
    }

    /// Applies a function to every element, writing the result into `out`.
    pub fn map_into<F: Fn(f32) -> f32>(&self, out: &mut Tensor, f: F) {
        out.ensure_shape(self.shape().dims());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(self.as_slice()) {
            *o = f(v);
        }
    }

    /// Applies a function to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in self.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// An empty tensor whose backing storage is preallocated to `src`'s exact length.
    fn with_capacity_of(src: &Tensor) -> Tensor {
        Tensor::from_vec(Vec::with_capacity(src.len()), &[0])
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        op: &'static str,
        f: F,
    ) -> Result<Tensor, TensorError> {
        if !self.shape().same_as(other.shape()) {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
                op,
            });
        }
        let mut out = Tensor::with_capacity_of(self);
        self.zip_with_into(other, &mut out, f);
        Ok(out)
    }

    /// Combines `self` and `other` elementwise with `f`, writing into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_with_into<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, out: &mut Tensor, f: F) {
        assert!(
            self.shape().same_as(other.shape()),
            "zip_with_into requires equal shapes: {} vs {}",
            self.shape(),
            other.shape()
        );
        out.ensure_shape(self.shape().dims());
        let a = self.as_slice();
        let b = other.as_slice();
        for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
            *o = f(a[i], b[i]);
        }
    }

    /// Elementwise sum written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_with_into(other, out, |a, b| a + b);
    }

    /// Elementwise difference `self - other` written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_with_into(other, out, |a, b| a - b);
    }

    /// Elementwise product written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_with_into(other, out, |a, b| a * b);
    }

    /// Returns the sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Returns the arithmetic mean of all elements, or 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Returns the maximum element, or negative infinity for an empty tensor.
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Returns the index of the maximum element, or `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let mut best = 0usize;
        let mut best_v = self.as_slice()[0];
        for (i, &v) in self.as_slice().iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        Some(best)
    }

    /// Returns the squared L2 norm of the tensor.
    pub fn squared_norm(&self) -> f32 {
        self.as_slice().iter().map(|&v| v * v).sum()
    }

    /// Returns the L2 norm of the tensor.
    pub fn norm(&self) -> f32 {
        self.squared_norm().sqrt()
    }

    /// Clips every element to `[-limit, limit]` in place.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is negative.
    pub fn clip_inplace(&mut self, limit: f32) {
        assert!(limit >= 0.0, "clip limit must be non-negative");
        self.map_inplace(|v| v.clamp(-limit, limit));
    }

    /// Matrix multiplication of two rank-2 tensors: `(m x k) * (k x n) -> (m x n)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix multiplication `(m x k) * (k x n) -> (m x n)` written into `out`: the
    /// `&Tensor` form of [`Tensor::matmul_slice_into`].
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or if the inner dimensions disagree.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        self.matmul_slice_into(other.as_slice(), other.cols(), out);
    }

    /// Matrix multiplication `(m x k) * (k x n) -> (m x n)` with the right operand a
    /// row-major `k x n` slice (a dense layer's weight range of its model's parameter
    /// vector), written into `out`.
    ///
    /// Runs the register-tiled microkernel: each output tile is accumulated over the
    /// whole shared dimension in ascending order from 0.0, so the result is bitwise
    /// identical to the naive triple loop.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or `rhs` does not hold `k x n` values.
    pub fn matmul_slice_into(&self, rhs: &[f32], n: usize, out: &mut Tensor) {
        assert_eq!(self.shape().rank(), 2, "matmul lhs must be rank-2");
        let (m, k) = (self.rows(), self.cols());
        assert_eq!(
            rhs.len(),
            k * n,
            "matmul inner dimensions must agree: lhs {m}x{k}, rhs {} values for {n} columns",
            rhs.len()
        );
        out.ensure_shape(&[m, n]);
        gemm::<false>(self.as_slice(), rhs, out.as_mut_slice(), m, k, n);
    }

    /// Matrix multiplication with the left operand transposed: `A^T * B`.
    ///
    /// `self` is `(k x m)`, `other` is `(k x n)`, the result is `(m x n)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the shared dimension differs.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// Transposed-left matrix multiplication `A^T * B` written into `out`.
    ///
    /// `self` is `(k x m)`, `other` is `(k x n)`, the result is `(m x n)`. The same
    /// microkernel as [`Tensor::matmul_into`] reading its left operand column-wise;
    /// bitwise identical to the naive loop over the explicit transpose.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the shared dimension differs.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape().rank(), 2, "matmul_tn lhs must be rank-2");
        assert_eq!(other.shape().rank(), 2, "matmul_tn rhs must be rank-2");
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn shared dimension must agree");
        out.ensure_shape(&[m, n]);
        gemm::<true>(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
    }

    /// Adds `self^T * other` into `acc`: the accumulate form of
    /// [`Tensor::matmul_tn_into`], for a weight gradient that sums over mini-batches
    /// into its range of the model's gradient vector.
    ///
    /// `self` is `(k x m)`, `other` is `(k x n)`, `acc` holds `m x n` values row-major.
    /// Every element becomes `c + (0.0 + Σ_p a[p][i] b[p][j])`, the sum in ascending
    /// `p`: bit for bit `matmul_tn_into` into a scratch followed by an elementwise add,
    /// in one pass over `acc` on the same tile cascade and without the scratch.
    ///
    /// # Panics
    ///
    /// Panics if an operand is not rank 2 or the shapes disagree.
    pub fn matmul_tn_add_into(&self, other: &Tensor, acc: &mut [f32]) {
        assert_eq!(self.shape().rank(), 2, "matmul_tn_add lhs must be rank-2");
        assert_eq!(other.shape().rank(), 2, "matmul_tn_add rhs must be rank-2");
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn_add shared dimension must agree");
        assert_eq!(
            acc.len(),
            m * n,
            "matmul_tn_add accumulator must be {m}x{n}"
        );
        gemm_tn_add(self.as_slice(), other.as_slice(), acc, m, k, n);
    }

    /// Matrix multiplication with the right operand transposed: `A * B^T`.
    ///
    /// `self` is `(m x k)`, `other` is `(n x k)`, the result is `(m x n)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the shared dimension differs.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// Transposed-right matrix multiplication `A * B^T` written into `out`: the
    /// `&Tensor` form of [`Tensor::matmul_nt_slice_into`].
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the shared dimension differs.
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        self.matmul_nt_slice_into(other.as_slice(), other.rows(), out);
    }

    /// Transposed-right matrix multiplication `A * B^T` with the right operand a
    /// row-major `n x k` slice (a dense layer's weight range), written into `out`.
    ///
    /// `self` is `(m x k)`, the result is `(m x n)`. Each output element is the dot
    /// product of a row of `self` and a row of `rhs` accumulated in eight interleaved
    /// lanes that are combined in a fixed order at the end (the internal `dot_lanes`
    /// helper): deterministic, and the ascending order for `k < 16`, but reassociated
    /// past that (`proptest_kernels.rs` pins the order bit for bit).
    ///
    /// Below `k = 16`, where that order is the ascending one, `rhs` is packed
    /// transposed into a buffer of the calling thread's, kept from call to call so a
    /// warm call allocates nothing, and the product runs on the register-tiled kernel
    /// of [`Tensor::matmul_slice_into`], which keeps the bits. That is the input
    /// gradient of the MLPs' 10-class heads: `[4, 10] x [1024, 10]^T` on `tcp_comm`,
    /// `[16, 10] x [256, 10]^T` on `thr_straggler`. On a 2-core AVX-512
    /// host the first took 41–58 µs with one `dot_lanes` per output element, longer
    /// than the first layer's tiled product of 6x its multiply-adds, and takes 8–16 µs
    /// packed. From `k = 16` on (the image models' dense layers, whose sums the figure
    /// digests fix) each row of `rhs` is reused across a block of `self` rows, so a
    /// large `rhs` is streamed through cache once per row block rather than once per
    /// output row.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or `rhs` does not hold `n x k` values.
    pub fn matmul_nt_slice_into(&self, rhs: &[f32], n: usize, out: &mut Tensor) {
        assert_eq!(self.shape().rank(), 2, "matmul_nt lhs must be rank-2");
        let (m, k) = (self.rows(), self.cols());
        assert_eq!(rhs.len(), n * k, "matmul_nt shared dimension must agree");
        out.ensure_shape(&[m, n]);
        let (a, o) = (self.as_slice(), out.as_mut_slice());
        if k < 16 {
            NT_PACK.with_borrow_mut(|pack| {
                pack.resize(k * n, 0.0);
                transpose(rhs, k, pack, n, n, k);
                gemm::<false>(a, pack, o, m, k, n);
            });
            return;
        }
        for ib in (0..m).step_by(NT_BLOCK_M) {
            let i_end = (ib + NT_BLOCK_M).min(m);
            for j in 0..n {
                let b_row = &rhs[j * k..(j + 1) * k];
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    o[i * n + j] = dot_lanes(a_row, b_row);
                }
            }
        }
    }

    /// Returns the transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::default();
        self.transposed_into(&mut out);
        out
    }

    /// Writes the transpose of a rank-2 tensor into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transposed_into(&self, out: &mut Tensor) {
        assert_eq!(self.shape().rank(), 2, "transpose requires a rank-2 tensor");
        self.transposed_as(self.rows(), 1, out);
    }

    /// Writes the tensor with its first dimension moved last into `out`: `[N, d...]`
    /// becomes `[d..., N]`, the batch-lane layout of the convolutional family (one
    /// element of one example's feature map is `N` contiguous values, see `conv.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor has rank 0.
    pub fn batch_to_lanes_into(&self, out: &mut Tensor) {
        self.transposed_as(self.shape().dim(0), 1, out);
    }

    /// The inverse of [`Tensor::batch_to_lanes_into`]: `[d..., N]` becomes `[N, d...]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has rank 0.
    pub fn lanes_to_batch_into(&self, out: &mut Tensor) {
        let last = self.shape().rank() - 1;
        let n = self.shape().dim(last);
        self.transposed_as(self.len() / n.max(1), last, out);
    }

    /// Reads the tensor as a `[rows, len / rows]` matrix and writes its transpose into
    /// `out`, under this tensor's dimensions rotated `rotate` places to the left.
    fn transposed_as(&self, rows: usize, rotate: usize, out: &mut Tensor) {
        let cols = self.len() / rows.max(1);
        out.ensure_shape(self.shape().dims());
        out.rotate_dims_left(rotate);
        transpose(self.as_slice(), cols, out.as_mut_slice(), rows, rows, cols);
    }

    /// Adds a bias row vector to every row of a rank-2 tensor in place.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or `bias` length differs from the column count.
    pub fn add_row_broadcast_inplace(&mut self, bias: &[f32]) {
        assert_eq!(self.shape().rank(), 2, "add_row_broadcast requires rank-2");
        let n = self.cols();
        assert_eq!(bias.len(), n, "bias length must equal column count");
        for row in self.as_mut_slice().chunks_mut(n) {
            for (v, &bi) in row.iter_mut().zip(bias) {
                *v += bi;
            }
        }
    }

    /// Sums a rank-2 tensor over its rows, producing a row vector of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::default();
        self.sum_rows_into(&mut out);
        out
    }

    /// Sums a rank-2 tensor over its rows into `out` (a row vector of length `cols`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_rows_into(&self, out: &mut Tensor) {
        assert_eq!(self.shape().rank(), 2, "sum_rows requires rank-2");
        let n = self.cols();
        out.ensure_shape(&[n]);
        let o = out.as_mut_slice();
        o.fill(0.0);
        for row in self.as_slice().chunks(n) {
            for (ov, &v) in o.iter_mut().zip(row) {
                *ov += v;
            }
        }
    }

    /// Row-wise softmax of a rank-2 tensor (numerically stabilised).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = Tensor::default();
        self.softmax_rows_into(&mut out);
        out
    }

    /// Row-wise softmax written into `out` (numerically stabilised).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows_into(&self, out: &mut Tensor) {
        assert_eq!(self.shape().rank(), 2, "softmax_rows requires rank-2");
        let n = self.cols();
        out.ensure_shape(self.shape().dims());
        for (row, src) in out
            .as_mut_slice()
            .chunks_mut(n)
            .zip(self.as_slice().chunks(n))
        {
            let max = src.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (v, &s) in row.iter_mut().zip(src) {
                *v = (s - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }
}

/// `dst[j * dst_stride + i] = src[i * src_stride + j]` for every `i < rows` and
/// `j < cols`: a transpose whose source rows are `src_stride` apart and whose
/// destination rows are `dst_stride` apart. Moved in 4x4 blocks — four row loads,
/// register shuffles, four row stores — with the ragged edges element by element.
pub(crate) fn transpose(
    src: &[f32],
    src_stride: usize,
    dst: &mut [f32],
    dst_stride: usize,
    rows: usize,
    cols: usize,
) {
    let (block_rows, block_cols) = (rows / 4 * 4, cols / 4 * 4);
    for j0 in (0..block_cols).step_by(4) {
        for i0 in (0..block_rows).step_by(4) {
            let block: [[f32; 4]; 4] = std::array::from_fn(|i| {
                src[(i0 + i) * src_stride + j0..][..4]
                    .try_into()
                    .expect("four columns")
            });
            for j in 0..4 {
                let column: [f32; 4] = std::array::from_fn(|i| block[i][j]);
                dst[(j0 + j) * dst_stride + i0..][..4].copy_from_slice(&column);
            }
        }
    }
    for j in 0..cols {
        for i in if j < block_cols { block_rows } else { 0 }..rows {
            dst[j * dst_stride + i] = src[i * src_stride + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::{run_on, Instance};

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims)
    }

    /// Bit patterns with every NaN mapped to one: IEEE 754 leaves a NaN result's
    /// payload open, so two equal computations may differ there.
    fn canonical_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// The SGD kernel across every strip edge (lengths 0..=70: 16-wide strips and
    /// every narrower one, up to four of them and each remainder), with weight decay
    /// on and off and momentum on and off, and -0.0, NaN and ±inf among the
    /// parameters, gradients and velocities. On every instance the CPU runs it on,
    /// each checked by name (baseline and AVX2), and through `sgd_apply`, it equals the
    /// scalar loop bit for bit (NaN compared as NaN).
    #[test]
    fn sgd_apply_is_the_scalar_loop_on_every_instance() {
        const SPECIAL: [f32; 5] = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0];
        // Pseudo-random values in [-2, 2), about one in five of them special.
        let values = |len: usize, seed: u64| -> Vec<f32> {
            (0..len as u64)
                .map(|i| {
                    let h = (i ^ (seed << 8)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                    SPECIAL
                        .get((h % 25) as usize)
                        .copied()
                        .unwrap_or((h as f32 / (1u64 << 22) as f32) - 2.0)
                })
                .collect()
        };
        let coefficients = [
            (0.1, 0.9, 0.0),
            (0.05, 0.9, 5e-4),
            (0.5, 0.0, 0.0),
            (0.2, 0.0, 0.25),
        ];
        for (lr, momentum, wd) in coefficients {
            for len in 0..=70 {
                let (p0, g, v0) = (values(len, 1), values(len, 2), values(len, 3));
                let (mut p, mut v) = (p0.clone(), v0.clone());
                for ((p, &g), v) in p.iter_mut().zip(&g).zip(&mut v) {
                    let effective = g + wd * *p;
                    *v = momentum * *v + effective;
                    *p -= lr * *v;
                }
                let expect = (canonical_bits(&p), canonical_bits(&v));
                let case = format!("len {len}, lr {lr}, momentum {momentum}, wd {wd}");
                for instance in Instance::ALL.into_iter().filter(|i| i.runs::<SgdApply>()) {
                    let (mut p, mut v) = (p0.clone(), v0.clone());
                    let mut kernel = SgdApply {
                        params: &mut p,
                        grads: &g,
                        velocity: &mut v,
                        lr,
                        momentum,
                        weight_decay: wd,
                    };
                    run_on(instance, &mut kernel, 1, len);
                    let got = (canonical_bits(&p), canonical_bits(&v));
                    assert_eq!(got, expect, "{instance:?} {case}");
                }
                let (mut p, mut v) = (p0, v0);
                sgd_apply(&mut p, &g, &mut v, lr, momentum, wd);
                let got = (canonical_bits(&p), canonical_bits(&v));
                assert_eq!(got, expect, "dispatched {case}");
            }
        }
    }

    #[test]
    fn add_sub_mul_elementwise() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn try_add_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let err = a.try_add(&b).unwrap_err();
        assert!(format!("{err}").contains("shape mismatch"));
    }

    #[test]
    fn axpy_accumulates_scaled_values() {
        let mut a = t(&[1.0, 1.0], &[2]);
        let g = t(&[2.0, 4.0], &[2]);
        a.axpy(-0.5, &g);
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn matmul_matches_hand_computed_values() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_with_identity_is_identity_op() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)).as_slice(), a.as_slice());
        assert_eq!(Tensor::eye(2).matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(&[1.0, 0.5, -1.0, 2.0, 0.0, 3.0], &[3, 2]);
        let via_tn = a.matmul_tn(&b);
        let via_t = a.transposed().matmul(&b);
        assert_eq!(via_tn, via_t);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        // matmul_nt accumulates in interleaved lanes, so it may differ from the
        // left-to-right matmul sum by reassociation; compare within tolerance.
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transposed());
        assert_eq!(via_nt.shape().dims(), via_t.shape().dims());
        for (x, y) in via_nt.as_slice().iter().zip(via_t.as_slice()) {
            assert!((x - y).abs() <= 1e-5 * (1.0 + x.abs().max(y.abs())));
        }
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transposed();
        assert_eq!(at.shape().dims(), &[3, 2]);
        assert_eq!(at.at2(2, 1), a.at2(1, 2));
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[4]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.argmax(), Some(3));
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_of_empty_is_none() {
        assert_eq!(Tensor::zeros(&[0]).argmax(), None);
    }

    #[test]
    fn bias_broadcast_and_row_sum_are_inverse_shapes() {
        let mut y = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        y.add_row_broadcast_inplace(&[10.0, 20.0]);
        assert_eq!(y.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(y.sum_rows().as_slice(), &[24.0, 46.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one_and_orders_preserved() {
        let x = t(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = x.softmax_rows();
        for row in s.as_slice().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row[2] > row[1] && row[1] > row[0]);
        }
    }

    #[test]
    fn clip_limits_magnitude() {
        let mut x = t(&[-5.0, 0.5, 5.0], &[3]);
        x.clip_inplace(1.0);
        assert_eq!(x.as_slice(), &[-1.0, 0.5, 1.0]);
    }
}
