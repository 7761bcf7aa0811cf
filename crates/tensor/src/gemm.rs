//! The one GEMM microkernel behind [`Tensor::matmul_into`] and
//! [`Tensor::matmul_tn_into`](crate::Tensor::matmul_tn_into).
//!
//! `C = op(A) · B` is computed tile by tile on the cascade of `tiles.rs` (rows of `C`
//! are its rows, columns its lanes): an `R × NR` tile of `C` lives in registers while
//! the shared dimension is walked once, in ascending order, starting from 0.0. Every
//! output element is therefore the same left-to-right sum the naive triple loop
//! produces — **bitwise** — whatever the tile shape, and one `NR`-wide segment of a `B`
//! row is loaded once per `R` output rows instead of once per row. Column strips are
//! the outer loop, so the `k × NR` strip of `B` a strip reads stays cache-resident
//! while every row band passes over it and `B` is streamed from memory once per
//! product.
//!
//! [`Tensor::matmul_into`]: crate::Tensor::matmul_into

use crate::tiles::{run_tiles, Tiles};

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
    run_tiles(&mut Gemm::<TA> { a, b, c, m, k, n }, m, n);
}

/// One product, as the tile cascade sees it.
struct Gemm<'a, const TA: bool> {
    a: &'a [f32],
    b: &'a [f32],
    c: &'a mut [f32],
    m: usize,
    k: usize,
    n: usize,
}

impl<const TA: bool> Tiles for Gemm<'_, TA> {
    /// One `R × NR` tile of `C` at `(i0, j0)`: accumulated in registers over the whole
    /// shared dimension, then stored.
    #[inline(always)]
    fn tile<const R: usize, const NR: usize>(&mut self, i0: usize, j0: usize) {
        let (a, b, m, k, n) = (self.a, self.b, self.m, self.k, self.n);
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
            self.c[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR].copy_from_slice(acc_row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::cover;

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
                    cover::<8, _>(
                        &mut Gemm::<false> {
                            a: &a,
                            b: &b,
                            c: &mut c,
                            m,
                            k,
                            n,
                        },
                        m,
                        n,
                    );
                    assert_eq!(bits(&c), expect_nn, "baseline nn {m}x{k}x{n}");
                    c.fill(f32::NAN);
                    cover::<8, _>(
                        &mut Gemm::<true> {
                            a: &a,
                            b: &b,
                            c: &mut c,
                            m,
                            k,
                            n,
                        },
                        m,
                        n,
                    );
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
