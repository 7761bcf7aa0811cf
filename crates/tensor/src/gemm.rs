//! The one GEMM microkernel behind [`Tensor::matmul_into`] and
//! [`Tensor::matmul_tn_into`](crate::Tensor::matmul_tn_into).
//!
//! `C = op(A) · B` is computed tile by tile: an `MR × NR` tile of `C` lives in
//! registers while the shared dimension is walked once, in ascending order, starting
//! from 0.0. Every output element is therefore the same left-to-right sum the naive
//! triple loop produces — **bitwise** — whatever the tile shape, and one `NR`-wide
//! segment of a `B` row is loaded once per `MR` output rows instead of once per row.
//! Column strips are the outer loop, so the `k × NR` strip of `B` a strip reads stays
//! cache-resident while every row band passes over it and `B` is streamed from memory
//! once per product.
//!
//! Edges cascade to narrower tiles (`NR`, 8, 4, 2, 1 columns; 4, 2, 1 rows), never to a
//! scalar loop over a wide remainder: the convolution's weight gradient has `n = 8`.
//!
//! The body is compiled twice: for the build's baseline target with 4×8 tiles, and
//! with AVX2 enabled with 4×16 tiles (eight 256-bit accumulators). FMA is **not**
//! enabled, so a multiply and an add are two roundings in both and the two instances
//! agree bit for bit. Which one runs is decided by run-time CPU detection alone.
//!
//! [`Tensor::matmul_into`]: crate::Tensor::matmul_into

/// Rows of `C` a full tile covers.
const MR: usize = 4;

/// `C[m×n] = op(A) · B[k×n]`, overwriting `c`. With `TA == false`, `A` is `m × k`
/// row-major; with `TA == true` it is stored transposed, `k × m` row-major.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub(crate) fn gemm<const TA: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm lhs length");
    assert_eq!(b.len(), k * n, "gemm rhs length");
    assert_eq!(c.len(), m * n, "gemm output length");
    if k == 0 {
        c.fill(0.0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_avx2` is safe code whose only requirement is that the CPU
        // executes AVX2 instructions, which the detection macro just confirmed.
        unsafe { gemm_avx2::<TA>(a, b, c, m, k, n) };
        return;
    }
    gemm_baseline::<TA>(a, b, c, m, k, n);
}

/// The instance for the build's baseline target features (SSE2 on x86-64).
fn gemm_baseline<const TA: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    strips::<8, TA>(a, b, c, m, k, n);
}

/// The same body compiled with AVX2 (and without FMA, see the module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2<const TA: bool>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    strips::<16, TA>(a, b, c, m, k, n);
}

/// Covers `C` with column strips: as many `NR`-wide strips as fit, then the cascade of
/// narrower ones over the remainder.
#[inline(always)]
fn strips<const NR: usize, const TA: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let mut j0 = 0;
    j0 = strip::<NR, TA>(a, b, c, m, k, n, j0);
    j0 = strip::<8, TA>(a, b, c, m, k, n, j0);
    j0 = strip::<4, TA>(a, b, c, m, k, n, j0);
    j0 = strip::<2, TA>(a, b, c, m, k, n, j0);
    j0 = strip::<1, TA>(a, b, c, m, k, n, j0);
    debug_assert_eq!(j0, n);
}

/// Computes every full `NR`-wide column strip starting at `j0` and returns the first
/// column not covered. Within a strip the row bands cascade 4, 2, 1.
#[inline(always)]
fn strip<const NR: usize, const TA: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    mut j0: usize,
) -> usize {
    while j0 + NR <= n {
        let mut i0 = 0;
        while i0 + MR <= m {
            tile::<MR, NR, TA>(a, b, c, m, k, n, i0, j0);
            i0 += MR;
        }
        if i0 + 2 <= m {
            tile::<2, NR, TA>(a, b, c, m, k, n, i0, j0);
            i0 += 2;
        }
        if i0 < m {
            tile::<1, NR, TA>(a, b, c, m, k, n, i0, j0);
        }
        j0 += NR;
    }
    j0
}

/// One `R × NR` tile of `C` at `(i0, j0)`: accumulated in registers over the whole
/// shared dimension, then stored.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize, const NR: usize, const TA: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; NR]; R];
    // The `NR`-wide segment of each row of `B`, in ascending `p`.
    let b_segs = b[j0..]
        .chunks(n)
        .map(|row| -> &[f32; NR] { row[..NR].try_into().expect("NR-wide segment") });
    if TA {
        // `A` is `k × m`: the tile's `R` values for one `p` are contiguous.
        let a_segs = a[i0..]
            .chunks(m)
            .map(|row| -> &[f32; R] { row[..R].try_into().expect("R-wide segment") });
        for (av, bv) in a_segs.zip(b_segs) {
            for (acc_row, &a_rp) in acc.iter_mut().zip(av) {
                for (acc_v, &b_pj) in acc_row.iter_mut().zip(bv) {
                    *acc_v += a_rp * b_pj;
                }
            }
        }
    } else {
        // `A` is `m × k`: slice the tile's `R` rows once, so the loop indexes each by
        // `p` alone (indexing `a[i * k + p]` through run-time strides does not
        // vectorise).
        let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]);
        for (p, bv) in b_segs.enumerate() {
            for (acc_row, a_row) in acc.iter_mut().zip(rows) {
                let a_rp = a_row[p];
                for (acc_v, &b_pj) in acc_row.iter_mut().zip(bv) {
                    *acc_v += a_rp * b_pj;
                }
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        c[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR].copy_from_slice(acc_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random values in `[-1, 1)`.
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

    /// The reference: one left-to-right sum per output element. `a_at(i, p)` reads
    /// `op(A)[i][p]`.
    fn naive(
        a_at: impl Fn(usize, usize) -> f32,
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a_at(i, p) * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every edge-tile combination — row remainders 0..3 with and without a full band,
    /// every column remainder of the 16- and 8-wide strips — for both layouts of `A`:
    /// the baseline instance equals the naive loop bit for bit, and so does the
    /// dispatched kernel, which is the AVX2 instance wherever the CPU has AVX2.
    #[test]
    fn every_instance_and_edge_tile_is_bitwise_the_naive_loop() {
        for m in 1..10 {
            for n in 1..40 {
                for k in [1, 3, 17] {
                    let a = synth(m * k, (m * 64 + n) as u64);
                    let b = synth(k * n, (n * 64 + k) as u64);
                    let expect_nn = bits(&naive(|i, p| a[i * k + p], &b, m, k, n));
                    let expect_tn = bits(&naive(|i, p| a[p * m + i], &b, m, k, n));
                    // NaN-filled outputs: every element must be overwritten.
                    let mut c = vec![f32::NAN; m * n];
                    gemm_baseline::<false>(&a, &b, &mut c, m, k, n);
                    assert_eq!(bits(&c), expect_nn, "baseline nn {m}x{k}x{n}");
                    c.fill(f32::NAN);
                    gemm_baseline::<true>(&a, &b, &mut c, m, k, n);
                    assert_eq!(bits(&c), expect_tn, "baseline tn {m}x{k}x{n}");
                    c.fill(f32::NAN);
                    gemm::<false>(&a, &b, &mut c, m, k, n);
                    assert_eq!(bits(&c), expect_nn, "dispatched nn {m}x{k}x{n}");
                    c.fill(f32::NAN);
                    gemm::<true>(&a, &b, &mut c, m, k, n);
                    assert_eq!(bits(&c), expect_tn, "dispatched tn {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn empty_shared_dimension_gives_zeros() {
        let mut c = vec![f32::NAN; 6];
        gemm::<false>(&[], &[], &mut c, 2, 0, 3);
        assert_eq!(c, vec![0.0; 6]);
    }
}
