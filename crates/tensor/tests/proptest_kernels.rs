//! Property-based equivalence suites for the `*_into` kernels against naive reference
//! implementations written independently in this file.
//!
//! * `matmul_into` / `matmul_tn_into` are two layouts of one register-tiled
//!   microkernel that preserves the naive accumulation order exactly: bitwise equality
//!   is asserted for `m, k, n` in `1..40`, which reaches every edge-tile combination
//!   (the crate's own unit test walks them exhaustively, per compiled instance).
//! * `matmul_tn_add_into` (the dense layers' weight-gradient accumulate) is bitwise
//!   `matmul_tn_into` followed by `add_assign`, with -0.0, ±inf and NaN among the
//!   operands and the accumulator (NaN compared as NaN, whatever its payload).
//! * `matmul_nt_into` accumulates in interleaved lanes — the one kernel that
//!   reassociates. It is held bitwise to that order, written out here (`lanes_dot`),
//!   with ±0.0 and subnormals among the operands, for `k` across 8 and 16 and `n` past
//!   40; below `k = 16` that order is the naive ascending one, which the kernel computes
//!   on the packed, register-tiled path there, and the property checks that too. A 1e-5
//!   relative tolerance against the naive product holds beside it. A faster kernel for
//!   this product must keep the bits.
//! * `conv2d` / `conv2d_backward` (the `[N, C, H, W]` shells) — output, weight, bias and
//!   input gradient — are bitwise equal to the naive `im2col` formulation (`cols x W^T`,
//!   `g^T x cols`, `g x W` folded back in kernel-point-major order), each sum taken in
//!   ascending order, across random `(N, C, OC, H, W, K, stride, padding)`: batches
//!   through every step of the lane cascade, channel counts through the row cascade,
//!   non-square planes, `K = 1`, `padding = 0`. `naive_im2col` and `naive_col2im_t` are
//!   that formulation's private references; the library has no column matrix. The lane
//!   entry points the layers call (`[C, H, W, N]` in and out, the parameter gradients
//!   added into zeroed ranges) are held bitwise to the shells in the same property, and
//!   so are the weight and bias gradients of the lane backward asked for no input
//!   gradient.
//! * The packed input `conv2d` hands to the backward pass is the zero-bordered,
//!   batch-innermost copy of the input, whatever the reused buffer held before.
//! * `max_pool2d` (`[C, H, W, N]`) picks the winners of the plain `[N, C, H, W]` loop it
//!   replaced (kept here as the reference) and routes gradients as that loop's scatter
//!   does: ties, odd sides, `stride != kernel`, batches through the 8-lane body and the
//!   1-lane tail.

use dssp_tensor::{
    conv2d, conv2d_backward, conv2d_into, conv2d_lanes_backward_into, conv2d_lanes_into,
    max_pool2d, max_pool2d_backward, Conv2dSpec, ConvScratch, Pool2dSpec, Tensor,
};
use proptest::prelude::*;

/// Deterministic pseudo-random fill so variable-size inputs don't need a vec strategy.
fn synth(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
            ((h >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

fn naive_im2col(x: &Tensor, h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    let n = x.shape().dim(0);
    let (c, k) = (spec.in_channels, spec.kernel);
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let ckk = c * k * k;
    let mut out = vec![0.0f32; n * oh * ow * ckk];
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                let src = x.as_slice()
                                    [((ni * c + ci) * h + iy as usize) * w + ix as usize];
                                out[((ni * oh + oy) * ow + ox) * ckk + (ci * k + ky) * k + kx] =
                                    src;
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n * oh * ow, ckk])
}

/// Folds `[C*K*K, N*OH*OW]` columns back into `[N, C, H, W]` in the order the input
/// gradient documents: every input element sums its contributions in kernel-point
/// order (`ky`, then `kx`, ascending), starting from 0.0.
fn naive_col2im_t(cols_t: &Tensor, n: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Vec<f32> {
    let (c, k) = (spec.in_channels, spec.kernel);
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let npos = n * oh * ow;
    let mut out = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for ci in 0..c {
            for iy in 0..h {
                for ix in 0..w {
                    let mut acc = 0.0f32;
                    for ky in 0..k {
                        for kx in 0..k {
                            // iy = oy * stride + ky - padding, likewise ix.
                            let (py, px) = (iy + spec.padding, ix + spec.padding);
                            if py < ky || px < kx {
                                continue;
                            }
                            let (dy, dx) = (py - ky, px - kx);
                            if dy % spec.stride != 0 || dx % spec.stride != 0 {
                                continue;
                            }
                            let (oy, ox) = (dy / spec.stride, dx / spec.stride);
                            if oy < oh && ox < ow {
                                let col = (ci * k + ky) * k + kx;
                                acc += cols_t.as_slice()[col * npos + (ni * oh + oy) * ow + ox];
                            }
                        }
                    }
                    out[((ni * c + ci) * h + iy) * w + ix] = acc;
                }
            }
        }
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `synth` with about one value in six replaced by -0.0, +0.0, ±inf or NaN.
fn special(len: usize, seed: u64) -> Vec<f32> {
    const SPECIAL: [f32; 5] = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let picks = synth(len, seed ^ 0x5EED);
    synth(len, seed)
        .into_iter()
        .zip(picks)
        .map(|(v, p)| {
            let slot = ((p + 1.0) * 15.0) as usize;
            SPECIAL.get(slot).copied().unwrap_or(v)
        })
        .collect()
}

/// Bit patterns with every NaN mapped to one: IEEE 754 leaves a NaN result's payload
/// and sign open, so two equal computations may differ there.
fn canonical_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// `synth` with about one value in five replaced by ±0.0 or a subnormal.
fn zeros_and_tiny(len: usize, seed: u64) -> Vec<f32> {
    const SPECIAL: [f32; 4] = [-0.0, 0.0, 1e-40, -3e-39];
    let picks = synth(len, seed ^ 0x7A11);
    synth(len, seed)
        .into_iter()
        .zip(picks)
        .map(|(v, p)| {
            SPECIAL
                .get(((p + 1.0) * 10.0) as usize)
                .copied()
                .unwrap_or(v)
        })
        .collect()
}

/// The summation order of `matmul_nt_into`, written out: lane `j` of eight sums the
/// products at `j, j + 8, …` over the whole chunks of eight, the lanes are added onto
/// 0.0 from lane 0 to lane 7, then the leftover products in ascending order.
fn lanes_dot(a: &[f32], b: &[f32]) -> f32 {
    let whole = a.len() / 8 * 8;
    let mut acc = 0.0f32;
    for lane in 0..8 {
        let mut sum = 0.0f32;
        for i in (lane..whole).step_by(8) {
            sum += a[i] * b[i];
        }
        acc += sum;
    }
    for i in whole..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

fn dot_f64(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&u, &v)| f64::from(u) * f64::from(v))
        .sum()
}

/// `[N, d...]` as `[d..., N]`.
fn to_lanes(t: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    t.batch_to_lanes_into(&mut out);
    out
}

/// `[d..., N]` as `[N, d...]`.
fn to_batch(t: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    t.lanes_to_batch_into(&mut out);
    out
}

/// The pooling loop `max_pool2d_into` replaced, over `[N, C, H, W]`: the first maximum
/// in `(ky, kx)` order under strict `>`, searched with a branch per element.
fn naive_max_pool(x: &Tensor, h: usize, w: usize, spec: &Pool2dSpec) -> (Vec<f32>, Vec<usize>) {
    let (planes, oh, ow) = (x.len() / (h * w), spec.out_size(h), spec.out_size(w));
    let (mut out, mut idx) = (Vec::new(), Vec::new());
    for plane in 0..planes {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for ky in 0..spec.kernel {
                    for kx in 0..spec.kernel {
                        let i = (plane * h + oy * spec.stride + ky) * w + ox * spec.stride + kx;
                        if x.as_slice()[i] > best {
                            best = x.as_slice()[i];
                            best_i = i;
                        }
                    }
                }
                out.push(best);
                idx.push(best_i);
            }
        }
    }
    (out, idx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_into_is_bitwise_equal_to_naive(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000) {
        let a = Tensor::from_vec(synth(m * k, seed), &[m, k]);
        let b = Tensor::from_vec(synth(k * n, seed + 1), &[k, n]);
        let mut tiled = Tensor::default();
        a.matmul_into(&b, &mut tiled);
        prop_assert_eq!(tiled.as_slice(), naive_matmul(&a, &b).as_slice());
    }

    #[test]
    fn matmul_into_matches_naive_on_long_shared_dimensions(m in 60usize..70, k in 250usize..260, seed in 0u64..100) {
        // A shared dimension far longer than any tile, with ragged rows and columns.
        let n = 21usize;
        let a = Tensor::from_vec(synth(m * k, seed), &[m, k]);
        let b = Tensor::from_vec(synth(k * n, seed + 1), &[k, n]);
        let mut tiled = Tensor::default();
        a.matmul_into(&b, &mut tiled);
        prop_assert_eq!(tiled.as_slice(), naive_matmul(&a, &b).as_slice());
    }

    #[test]
    fn matmul_tn_into_is_bitwise_equal_to_naive_transpose(k in 1usize..40, m in 1usize..40, n in 1usize..40, seed in 0u64..1000) {
        let a = Tensor::from_vec(synth(k * m, seed), &[k, m]);
        let b = Tensor::from_vec(synth(k * n, seed + 2), &[k, n]);
        let mut tiled = Tensor::default();
        a.matmul_tn_into(&b, &mut tiled);
        prop_assert_eq!(tiled.as_slice(), naive_matmul(&a.transposed(), &b).as_slice());
    }

    #[test]
    fn matmul_nt_into_is_bitwise_its_lane_order(m in 1usize..10, k in 1usize..40, n in 1usize..48, seed in 0u64..1000) {
        let a = Tensor::from_vec(zeros_and_tiny(m * k, seed), &[m, k]);
        let b = Tensor::from_vec(zeros_and_tiny(n * k, seed + 5), &[n, k]);
        let mut out = Tensor::default();
        a.matmul_nt_into(&b, &mut out);
        let (rows, cols) = (a.as_slice(), b.as_slice());
        let lanes: Vec<f32> = (0..m * n)
            .map(|o| lanes_dot(&rows[o / n * k..][..k], &cols[o % n * k..][..k]))
            .collect();
        prop_assert_eq!(bits(out.as_slice()), bits(&lanes));
        if k < 16 {
            let ascending = naive_matmul(&a, &b.transposed());
            prop_assert_eq!(bits(out.as_slice()), bits(ascending.as_slice()));
        }
    }

    #[test]
    fn matmul_nt_into_matches_naive_within_tolerance(m in 1usize..20, k in 1usize..64, n in 1usize..20, seed in 0u64..1000) {
        let a = Tensor::from_vec(synth(m * k, seed), &[m, k]);
        let b = Tensor::from_vec(synth(n * k, seed + 3), &[n, k]);
        let mut tiled = Tensor::default();
        a.matmul_nt_into(&b, &mut tiled);
        let reference = naive_matmul(&a, &b.transposed());
        prop_assert!(approx_eq(tiled.as_slice(), reference.as_slice(), 1e-5));
    }

    #[test]
    fn packed_input_is_the_zero_bordered_batch_innermost_copy(
        n in 1usize..4, c in 1usize..4, h in 1usize..10, w in 1usize..20,
        k in 1usize..4, stride in 1usize..3, padding in 0usize..3, seed in 0u64..1000,
    ) {
        let (h, w) = (h.max(k), w.max(k));
        let spec = Conv2dSpec { in_channels: c, out_channels: 1, kernel: k, stride, padding };
        let x = Tensor::from_vec(synth(n * c * h * w, seed), &[n, c, h, w]);
        let (ph, pw) = (h + 2 * padding, w + 2 * padding);
        // A dirty buffer — wrongly sized, or of the right size — must not leak into
        // the border.
        let dirty = if seed % 2 == 0 { (seed % 50) as usize } else { c * ph * pw * n };
        let mut packed = Tensor::from_vec(vec![f32::NAN; dirty], &[dirty]);
        let (wgt, bias) = (Tensor::ones(&[1, c * k * k]), Tensor::zeros(&[1]));
        let (mut scratch, mut out) = (ConvScratch::default(), Tensor::default());
        conv2d_into(&x, &wgt, &bias, h, w, &spec, &mut packed, &mut scratch, &mut out);
        prop_assert_eq!(packed.shape().dims(), &[c, ph, pw, n]);
        for (i, &v) in packed.as_slice().iter().enumerate() {
            let (ni, px, py, ci) = (i % n, i / n % pw, i / (n * pw) % ph, i / (n * pw * ph));
            let inside = (padding..padding + h).contains(&py) && (padding..padding + w).contains(&px);
            let expected = if inside {
                x.as_slice()[((ni * c + ci) * h + py - padding) * w + px - padding]
            } else {
                0.0
            };
            prop_assert_eq!(v.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn conv2d_input_gradient_is_the_adjoint_of_the_forward_map(
        n in 1usize..3, c in 1usize..3, oc in 1usize..3, h in 3usize..8,
        k in 1usize..4, stride in 1usize..3, padding in 0usize..2, seed in 0u64..1000,
    ) {
        // <conv(x), y> == <x, grad_input(y)> for a zero bias.
        let spec = Conv2dSpec { in_channels: c, out_channels: oc, kernel: k, stride, padding };
        let x = Tensor::from_vec(synth(n * c * h * h, seed), &[n, c, h, h]);
        let wgt = Tensor::from_vec(synth(oc * c * k * k, seed + 1), &[oc, c * k * k]);
        let (out, packed) = conv2d(&x, &wgt, &Tensor::zeros(&[oc]), h, h, &spec);
        let y = Tensor::from_vec(synth(out.len(), seed + 7), out.shape().dims());
        let (grad_x, _, _) = conv2d_backward(&y, &packed, &wgt, n, h, h, &spec);
        let lhs = dot_f64(out.as_slice(), y.as_slice());
        let rhs = dot_f64(x.as_slice(), grad_x.as_slice());
        prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + lhs.abs().max(rhs.abs())));
    }

    #[test]
    fn max_pool2d_picks_the_winners_of_the_plain_loop(
        n in 1usize..41, c in 1usize..4, h in 1usize..10, w in 1usize..10,
        kernel in 1usize..4, stride in 1usize..4, levels in 1u64..6, seed in 0u64..1000,
    ) {
        // Few distinct values, so most windows hold a tie.
        let values = synth(n * c * h * w, seed).iter().map(|v| (v * levels as f32).round()).collect();
        let x = Tensor::from_vec(values, &[n, c, h, w]);
        let spec = Pool2dSpec { kernel, stride };
        let (lane_out, lane_idx) = max_pool2d(&to_lanes(&x), h, w, &spec);
        prop_assert_eq!(lane_out.shape().dims(), &[c, spec.out_size(h), spec.out_size(w), n]);
        // Output `j` of example `e` lies at `j * n + e`, and so does input pixel `j`.
        let out = to_batch(&lane_out);
        let per_example = lane_idx.len() / n;
        let idx: Vec<usize> = (0..lane_idx.len())
            .map(|i| {
                let winner = lane_idx[i % per_example * n + i / per_example] as usize;
                winner % n * c * h * w + winner / n
            })
            .collect();
        let (naive_out, naive_idx) = naive_max_pool(&x, h, w, &spec);
        prop_assert_eq!(out.shape().dims(), &[n, c, spec.out_size(h), spec.out_size(w)]);
        prop_assert_eq!(bits(out.as_slice()), bits(&naive_out));
        prop_assert_eq!(&idx, &naive_idx);
        // Backward: overlapping windows add into one pixel in ascending output order.
        let grad = Tensor::from_vec(synth(out.len(), seed + 1), out.shape().dims());
        let mut naive_grad = vec![0.0f32; x.len()];
        for (g, &i) in grad.as_slice().iter().zip(&naive_idx) {
            naive_grad[i] += g;
        }
        let lane_dims = [c, h, w, n];
        let lane_grad = max_pool2d_backward(&to_lanes(&grad), &lane_idx, &lane_dims);
        prop_assert_eq!(lane_grad.shape().dims(), &lane_dims);
        prop_assert_eq!(bits(to_batch(&lane_grad).as_slice()), bits(&naive_grad));
    }

    #[test]
    fn elementwise_into_variants_match_allocating_ops(len in 1usize..200, seed in 0u64..1000) {
        let a = Tensor::from_vec(synth(len, seed), &[len]);
        let b = Tensor::from_vec(synth(len, seed + 1), &[len]);
        let mut out = Tensor::default();
        a.add_into(&b, &mut out);
        prop_assert_eq!(out.as_slice(), a.add(&b).as_slice());
        a.sub_into(&b, &mut out);
        prop_assert_eq!(out.as_slice(), a.sub(&b).as_slice());
        a.mul_into(&b, &mut out);
        prop_assert_eq!(out.as_slice(), a.mul(&b).as_slice());
        a.map_into(&mut out, |v| v * 0.5 + 1.0);
        prop_assert_eq!(out.as_slice(), a.map(|v| v * 0.5 + 1.0).as_slice());
    }

    #[test]
    fn conv2d_forward_and_backward_are_bitwise_the_naive_formulation(
        n in 1usize..70, c in 1usize..11, oc in 1usize..11, h in 1usize..7, w in 1usize..10,
        k in 1usize..4, stride in 1usize..4, padding in 0usize..2, seed in 0u64..1000,
    ) {
        let (h, w) = (h.max(k), w.max(k));
        let spec = Conv2dSpec { in_channels: c, out_channels: oc, kernel: k, stride, padding };
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let (ohow, ckk) = (oh * ow, c * k * k);
        let x = Tensor::from_vec(synth(n * c * h * w, seed), &[n, c, h, w]);
        let wgt = Tensor::from_vec(synth(oc * ckk, seed + 1), &[oc, ckk]);
        let bias = Tensor::from_vec(synth(oc, seed + 2), &[oc]);
        let grad_out = Tensor::from_vec(synth(n * oc * ohow, seed + 3), &[n, oc, oh, ow]);
        let (out, packed) = conv2d(&x, &wgt, &bias, h, w, &spec);
        let (grad_x, grad_w, grad_b) = conv2d_backward(&grad_out, &packed, &wgt, n, h, w, &spec);

        // The naive formulation: one row of `cols` per output position.
        let cols = naive_im2col(&x, h, w, &spec);
        // Forward: cols x W^T + b, rearranged to [N, OC, OH, OW].
        let prod = naive_matmul(&cols, &wgt.transposed());
        // g: grad_out as [N*OH*OW, OC].
        let mut g = Tensor::zeros(&[n * ohow, oc]);
        for ni in 0..n {
            for co in 0..oc {
                for pos in 0..ohow {
                    let i = (ni * oc + co) * ohow + pos;
                    let expected = prod.at2(ni * ohow + pos, co) + bias.as_slice()[co];
                    prop_assert_eq!(out.as_slice()[i].to_bits(), expected.to_bits());
                    g.set2(ni * ohow + pos, co, grad_out.as_slice()[i]);
                }
            }
        }
        // Weight gradient: g^T x cols, every element summed over positions in
        // ascending order.
        let naive_grad_w = naive_matmul(&g.transposed(), &cols);
        prop_assert_eq!(bits(grad_w.as_slice()), bits(naive_grad_w.as_slice()));
        // Bias gradient: per-channel sum over positions in ascending order.
        for co in 0..oc {
            let mut acc = 0.0f32;
            for pos in 0..n * ohow {
                acc += g.at2(pos, co);
            }
            prop_assert_eq!(grad_b.as_slice()[co].to_bits(), acc.to_bits());
        }
        // Input gradient: (g x W), folded in kernel-point-major order.
        let grad_cols_t = naive_matmul(&g, &wgt).transposed();
        let naive_grad_x = naive_col2im_t(&grad_cols_t, n, h, w, &spec);
        prop_assert_eq!(bits(grad_x.as_slice()), bits(&naive_grad_x));

        // The lane entry points, called as the layers call them, against the shells.
        let mut scratch = ConvScratch::default();
        let [mut lane_packed, mut lane_out]: [Tensor; 2] = Default::default();
        conv2d_lanes_into(&to_lanes(&x), wgt.as_slice(), bias.as_slice(), h, w, &spec, &mut lane_packed, &mut scratch, &mut lane_out);
        prop_assert_eq!(lane_out.shape().dims(), &[oc, oh, ow, n]);
        prop_assert_eq!(bits(lane_out.as_slice()), bits(to_lanes(&out).as_slice()));
        prop_assert_eq!(lane_packed.shape().dims(), packed.shape().dims());
        prop_assert_eq!(bits(lane_packed.as_slice()), bits(packed.as_slice()));
        let mut lane_grad_x = Tensor::default();
        let (mut lane_grad_w, mut lane_grad_b) = (vec![0.0; wgt.len()], vec![0.0; oc]);
        conv2d_lanes_backward_into(
            &to_lanes(&grad_out), &lane_packed, wgt.as_slice(), h, w, &spec, &mut scratch,
            Some(&mut lane_grad_x), &mut lane_grad_w, &mut lane_grad_b,
        );
        prop_assert_eq!(lane_grad_x.shape().dims(), &[c, h, w, n]);
        prop_assert_eq!(bits(lane_grad_x.as_slice()), bits(to_lanes(&grad_x).as_slice()));
        prop_assert_eq!(bits(&lane_grad_w), bits(grad_w.as_slice()));
        prop_assert_eq!(bits(&lane_grad_b), bits(grad_b.as_slice()));
        // Asked for no input gradient (a model's first layer in training), the
        // parameter gradients are those of the full call.
        let (mut param_grad_w, mut param_grad_b) = (vec![0.0; wgt.len()], vec![0.0; oc]);
        conv2d_lanes_backward_into(
            &to_lanes(&grad_out), &lane_packed, wgt.as_slice(), h, w, &spec, &mut scratch,
            None, &mut param_grad_w, &mut param_grad_b,
        );
        prop_assert_eq!(bits(&param_grad_w), bits(grad_w.as_slice()));
        prop_assert_eq!(bits(&param_grad_b), bits(grad_b.as_slice()));
    }

    #[test]
    fn add_matmul_tn_is_bitwise_matmul_tn_then_add_assign(
        k in 1usize..10, m in 1usize..34, n in 1usize..34, seed in 0u64..1000,
    ) {
        let (a, b, c) = (special(k * m, seed), special(k * n, seed + 1), special(m * n, seed + 2));
        let (a, b) = (Tensor::from_vec(a, &[k, m]), Tensor::from_vec(b, &[k, n]));
        let mut expected = Tensor::from_vec(c.clone(), &[m, n]);
        let mut product = Tensor::default();
        a.matmul_tn_into(&b, &mut product);
        expected.add_assign(&product);
        let mut acc = c;
        a.matmul_tn_add_into(&b, &mut acc);
        prop_assert_eq!(canonical_bits(&acc), canonical_bits(expected.as_slice()));
    }

    #[test]
    fn conv2d_roundtrip_gradcheck_random_geometry(
        c in 1usize..3, oc in 1usize..3, h in 3usize..7,
        k in 1usize..4, stride in 1usize..3, padding in 0usize..2, seed in 0u64..500,
    ) {
        let spec = Conv2dSpec { in_channels: c, out_channels: oc, kernel: k, stride, padding };
        let x = Tensor::from_vec(synth(2 * c * h * h, seed), &[2, c, h, h]);
        let wgt = Tensor::from_vec(synth(oc * c * k * k, seed + 1), &[oc, c * k * k]);
        let bias = Tensor::from_vec(synth(oc, seed + 2), &[oc]);
        let (out, cols) = conv2d(&x, &wgt, &bias, h, h, &spec);
        let grad_out = Tensor::ones(out.shape().dims());
        let (_, grad_w, grad_b) = conv2d_backward(&grad_out, &cols, &wgt, 2, h, h, &spec);
        // Finite-difference check on one weight and one bias entry.
        let eps = 1e-2f32;
        let probe = (seed as usize) % wgt.len();
        let mut wp = wgt.clone();
        wp.as_mut_slice()[probe] += eps;
        let (op, _) = conv2d(&x, &wp, &bias, h, h, &spec);
        let mut wm = wgt.clone();
        wm.as_mut_slice()[probe] -= eps;
        let (om, _) = conv2d(&x, &wm, &bias, h, h, &spec);
        let numeric = (op.sum() - om.sum()) / (2.0 * eps);
        let analytic = grad_w.as_slice()[probe];
        prop_assert!(
            (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
            "dW[{}]: numeric {} analytic {}", probe, numeric, analytic
        );
        let positions = (2 * spec.out_size(h) * spec.out_size(h)) as f32;
        for &g in grad_b.as_slice() {
            prop_assert!((g - positions).abs() < 1e-2 * positions.max(1.0));
        }
    }
}
