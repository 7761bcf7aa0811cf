//! Property-based equivalence suites for the `*_into` kernels against naive reference
//! implementations written independently in this file.
//!
//! * `matmul_into` / `matmul_tn_into` are two layouts of one register-tiled
//!   microkernel that preserves the naive accumulation order exactly: bitwise equality
//!   is asserted for `m, k, n` in `1..40`, which reaches every edge-tile combination
//!   (the crate's own unit test walks them exhaustively, per compiled instance).
//! * `matmul_nt_into` accumulates in interleaved lanes and is held to a 1e-5 relative
//!   tolerance — the one kernel that reassociates.
//! * `conv2d` / `conv2d_backward` — output, weight, bias and input gradient — are
//!   bitwise equal to the naive `im2col` formulation (`cols x W^T`, `g^T x cols`,
//!   `g x W` folded back), each sum taken in ascending order.
//! * `im2col` / `im2col_t` are exact gathers and must be bitwise equal to
//!   `naive_im2col` across random `(N, C, H, W, K, stride, padding)`: square and
//!   non-square planes, `stride = 2`, `padding = 0`, `K = 1`, and output widths with
//!   and without a fixed-width row instance. `col2im_t` is checked bitwise against a
//!   naive fold in its documented kernel-point-major order, and as the adjoint of
//!   `im2col_t`.

use dssp_tensor::{
    col2im_into, col2im_t_into, conv2d, conv2d_backward, im2col_into, im2col_t_into, Conv2dSpec,
    Tensor,
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

/// Folds `[C*K*K, N*OH*OW]` columns back into `[N, C, H, W]` the way `col2im_t_into`
/// documents it: every input element sums its contributions in kernel-point order
/// (`ky`, then `kx`, ascending), starting from 0.0.
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

fn dot_f64(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&u, &v)| f64::from(u) * f64::from(v))
        .sum()
}

/// Every output width from 1 to 20 — the four with a fixed-width row instance and the
/// sixteen without — at strides 1 and 2, with and without padding, `K` of 1 and 3: both
/// plane-wise transforms equal their naive references bit for bit.
#[test]
fn plane_transforms_match_naive_for_every_row_width() {
    let mut plane = Vec::new();
    for w in 3usize..=22 {
        for stride in 1usize..=2 {
            for padding in 0usize..=1 {
                for k in [1usize, 3] {
                    let (n, c, h) = (2, 2, 5);
                    let spec = Conv2dSpec {
                        in_channels: c,
                        out_channels: 1,
                        kernel: k,
                        stride,
                        padding,
                    };
                    let x = Tensor::from_vec(synth(n * c * h * w, w as u64), &[n, c, h, w]);
                    let mut cols_t = Tensor::default();
                    im2col_t_into(&x, h, w, &spec, &mut plane, &mut cols_t);
                    let reference = naive_im2col(&x, h, w, &spec).transposed();
                    assert_eq!(bits(cols_t.as_slice()), bits(reference.as_slice()));
                    let g = Tensor::from_vec(synth(cols_t.len(), 99), cols_t.shape().dims());
                    let mut folded = Tensor::default();
                    col2im_t_into(&g, n, h, w, &spec, &mut plane, &mut folded);
                    assert_eq!(
                        bits(folded.as_slice()),
                        bits(&naive_col2im_t(&g, n, h, w, &spec)),
                        "w={w} stride={stride} padding={padding} k={k}"
                    );
                }
            }
        }
    }
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
    fn matmul_nt_into_matches_naive_within_tolerance(m in 1usize..20, k in 1usize..64, n in 1usize..20, seed in 0u64..1000) {
        let a = Tensor::from_vec(synth(m * k, seed), &[m, k]);
        let b = Tensor::from_vec(synth(n * k, seed + 3), &[n, k]);
        let mut tiled = Tensor::default();
        a.matmul_nt_into(&b, &mut tiled);
        let reference = naive_matmul(&a, &b.transposed());
        prop_assert!(approx_eq(tiled.as_slice(), reference.as_slice(), 1e-5));
    }

    #[test]
    fn im2col_into_is_bitwise_equal_to_naive(
        n in 1usize..3, c in 1usize..4, h in 3usize..9,
        k in 1usize..4, stride in 1usize..3, padding in 0usize..3, seed in 0u64..1000,
    ) {
        let spec = Conv2dSpec { in_channels: c, out_channels: 1, kernel: k, stride, padding };
        let x = Tensor::from_vec(synth(n * c * h * h, seed), &[n, c, h, h]);
        let mut fast = Tensor::default();
        im2col_into(&x, h, h, &spec, &mut fast);
        let reference = naive_im2col(&x, h, h, &spec);
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
        prop_assert_eq!(fast.shape().dims(), reference.shape().dims());
    }

    #[test]
    fn im2col_t_into_is_the_transpose_of_naive_im2col(
        n in 1usize..4, c in 1usize..4, h in 1usize..10, w in 1usize..20,
        k in 1usize..4, stride in 1usize..3, padding in 0usize..3, seed in 0u64..1000,
    ) {
        // Widths 1..20 at strides 1 and 2 give output widths with a fixed-width row
        // instance (2, 4, 8, 16 at stride 1) and without one (everything else).
        let (h, w) = (h.max(k), w.max(k));
        let spec = Conv2dSpec { in_channels: c, out_channels: 1, kernel: k, stride, padding };
        let x = Tensor::from_vec(synth(n * c * h * w, seed), &[n, c, h, w]);
        let mut t = Tensor::default();
        // A dirty, wrongly sized scratch plane must not leak into the result.
        let mut plane = vec![f32::NAN; (seed % 50) as usize];
        im2col_t_into(&x, h, w, &spec, &mut plane, &mut t);
        let reference = naive_im2col(&x, h, w, &spec);
        let (rows, cols) = (reference.rows(), reference.cols());
        prop_assert_eq!(t.shape().dims(), &[cols, rows]);
        for r in 0..rows {
            for cc in 0..cols {
                prop_assert_eq!(t.at2(cc, r).to_bits(), reference.at2(r, cc).to_bits());
            }
        }
    }

    #[test]
    fn col2im_t_into_is_bitwise_the_kernel_point_major_fold(
        n in 1usize..4, c in 1usize..3, h in 1usize..9, w in 1usize..20,
        k in 1usize..4, stride in 1usize..3, padding in 0usize..3, seed in 0u64..1000,
    ) {
        let (h, w) = (h.max(k), w.max(k));
        let spec = Conv2dSpec { in_channels: c, out_channels: 1, kernel: k, stride, padding };
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let ckk = c * k * k;
        let cols_t = Tensor::from_vec(synth(ckk * n * oh * ow, seed), &[ckk, n * oh * ow]);
        let mut folded_t = Tensor::default();
        let mut plane = vec![f32::NAN; (seed % 50) as usize];
        col2im_t_into(&cols_t, n, h, w, &spec, &mut plane, &mut folded_t);
        let reference = naive_col2im_t(&cols_t, n, h, w, &spec);
        prop_assert_eq!(folded_t.shape().dims(), &[n, c, h, w]);
        prop_assert_eq!(bits(folded_t.as_slice()), bits(&reference));
        // Adjoint identity: <im2col_t(x), cols_t> == <x, col2im_t(cols_t)>.
        let x = Tensor::from_vec(synth(n * c * h * w, seed + 7), &[n, c, h, w]);
        let mut unrolled = Tensor::default();
        im2col_t_into(&x, h, w, &spec, &mut plane, &mut unrolled);
        let lhs = dot_f64(unrolled.as_slice(), cols_t.as_slice());
        let rhs = dot_f64(x.as_slice(), folded_t.as_slice());
        prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + lhs.abs().max(rhs.abs())));
    }

    #[test]
    fn col2im_variants_are_adjoint_and_agree(
        n in 1usize..3, c in 1usize..3, h in 3usize..8,
        k in 1usize..4, stride in 1usize..3, padding in 0usize..2, seed in 0u64..1000,
    ) {
        let spec = Conv2dSpec { in_channels: c, out_channels: 1, kernel: k, stride, padding };
        let (oh, ow) = (spec.out_size(h), spec.out_size(h));
        let ckk = c * k * k;
        let cols = Tensor::from_vec(synth(n * oh * ow * ckk, seed), &[n * oh * ow, ckk]);
        let mut folded = Tensor::default();
        col2im_into(&cols, n, h, h, &spec, &mut folded);
        // The transposed variant folds the same values (reassociated sum order).
        let mut folded_t = Tensor::default();
        col2im_t_into(&cols.transposed(), n, h, h, &spec, &mut Vec::new(), &mut folded_t);
        prop_assert!(approx_eq(folded.as_slice(), folded_t.as_slice(), 1e-5));
        // Adjoint identity: <im2col(x), cols> == <x, col2im(cols)>.
        let x = Tensor::from_vec(synth(n * c * h * h, seed + 7), &[n, c, h, h]);
        let mut unrolled = Tensor::default();
        im2col_into(&x, h, h, &spec, &mut unrolled);
        let lhs = dot_f64(unrolled.as_slice(), cols.as_slice());
        let rhs = dot_f64(x.as_slice(), folded.as_slice());
        prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + lhs.abs().max(rhs.abs())));
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
        n in 1usize..4, c in 1usize..4, oc in 1usize..10, h in 1usize..7, w in 1usize..10,
        k in 1usize..4, stride in 1usize..3, padding in 0usize..2, seed in 0u64..1000,
    ) {
        let (h, w) = (h.max(k), w.max(k));
        let spec = Conv2dSpec { in_channels: c, out_channels: oc, kernel: k, stride, padding };
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let (ohow, ckk) = (oh * ow, c * k * k);
        let x = Tensor::from_vec(synth(n * c * h * w, seed), &[n, c, h, w]);
        let wgt = Tensor::from_vec(synth(oc * ckk, seed + 1), &[oc, ckk]);
        let bias = Tensor::from_vec(synth(oc, seed + 2), &[oc]);
        let grad_out = Tensor::from_vec(synth(n * oc * ohow, seed + 3), &[n, oc, oh, ow]);
        let (out, cols_t) = conv2d(&x, &wgt, &bias, h, w, &spec);
        let (grad_x, grad_w, grad_b) = conv2d_backward(&grad_out, &cols_t, &wgt, n, h, w, &spec);

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
