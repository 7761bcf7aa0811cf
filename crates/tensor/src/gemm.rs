//! The GEMM microkernels behind [`Tensor::matmul_into`],
//! [`Tensor::matmul_tn_into`](crate::Tensor::matmul_tn_into), its accumulate form
//! [`Tensor::matmul_tn_add_into`](crate::Tensor::matmul_tn_add_into), and
//! [`Tensor::matmul_nt_slice_into`](crate::Tensor::matmul_nt_slice_into) below a shared
//! dimension of 16 (on its right operand packed transposed).
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
//! The accumulate form adds each finished tile into `C`: an element becomes
//! `c + (0.0 + Σ)`, bit for bit the product into a scratch followed by an elementwise
//! add, without the scratch or the second pass. Its callers are the dense layers'
//! weight gradients, whose shared dimension is the mini-batch, so it has a kernel of its
//! own (see [`AddTn`]).
//!
//! [`Tensor::matmul_into`]: crate::Tensor::matmul_into

use crate::tiles::{run_tiles, Avx512Tile, Tiles};

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

/// `C[m×n] += A^T · B[k×n]` with `A` stored `k × m` row-major: every element becomes
/// `c + (0.0 + Σ_p a[p][i] b[p][j])`, the sum in ascending `p`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub(crate) fn gemm_tn_add(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "gemm lhs length");
    assert_eq!(b.len(), k * n, "gemm rhs length");
    assert_eq!(c.len(), m * n, "gemm output length");
    // Row bands are the outer loop, the cascade's strips run inside each band, so `C`
    // is read and written in row order. Strips outermost would walk each strip down
    // every row of `C`, a row apart: 4 KB at the 1024-wide dense gradient, one cache set
    // for every row of the strip (1.6x slower there).
    for band in (0..m).step_by(4) {
        let rows = 4.min(m - band);
        let c = &mut c[band * n..][..rows * n];
        run_tiles(
            &mut AddTn {
                a,
                b,
                c,
                band,
                m,
                k,
                n,
            },
            rows,
            n,
        );
    }
}

/// One row band of an accumulated `A^T · B`, as the tile cascade sees it: `c` holds the
/// band's rows of `C`, the first of which is row `band`.
struct AddTn<'a> {
    a: &'a [f32],
    b: &'a [f32],
    c: &'a mut [f32],
    band: usize,
    m: usize,
    k: usize,
    n: usize,
}

impl Tiles for AddTn<'_> {
    /// On the AVX2 instance everywhere: 32-lane strips ran the MLP steps 2x slower, and
    /// faster dense kernels lower `tcp_comm`'s `busy_share` (the step waits longer on
    /// the server round).
    const AVX512: Avx512Tile = Avx512Tile::None;

    /// One `R × NR` tile of `C` at `(i0, j0)`: summed in registers from 0.0 over the
    /// shared dimension, then added into `C` (an empty sum adds 0.0). The shared
    /// dimension is a mini-batch, a handful of rows, so the operands are indexed
    /// directly: `Gemm`'s per-tile chunk iterators cost more than the sums at that
    /// size, and with them the accumulating store kept the 4 × 16 tile out of vector
    /// registers (4x slower).
    #[inline(always)]
    fn tile<const R: usize, const NR: usize>(&mut self, i0: usize, j0: usize) {
        let (a, b, m, n) = (self.a, self.b, self.m, self.n);
        let a0 = self.band + i0;
        let mut acc = [[0.0f32; NR]; R];
        for p in 0..self.k {
            let av: [f32; R] = std::array::from_fn(|r| a[p * m + a0 + r]);
            let bv: &[f32; NR] = b[p * n + j0..][..NR].try_into().expect("NR-wide segment");
            for r in 0..R {
                for l in 0..NR {
                    acc[r][l] += av[r] * bv[l];
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let dst = &mut self.c[(i0 + r) * n + j0..][..NR];
            for (d, &v) in dst.iter_mut().zip(acc_row) {
                *d += v;
            }
        }
    }
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
    /// On the AVX2 instance everywhere, as [`AddTn`] is.
    const AVX512: Avx512Tile = Avx512Tile::None;

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
    use crate::tiles::{run_on, Instance};

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
    /// every column remainder of the 16- and 8-wide strips, up to 65 columns — for both
    /// layouts of `A`: on every instance the CPU runs the GEMM on, each checked by name
    /// (baseline and AVX2: the dense kernels have no AVX-512 tile), and through the
    /// dispatching entry point, the product equals the naive loop bit for bit.
    #[test]
    fn every_instance_and_edge_tile_is_bitwise_the_naive_loop() {
        for m in 1..10 {
            for n in 1..66 {
                for k in [1, 3, 17] {
                    let a = synth(m * k, (m * 64 + n) as u64);
                    let b = synth(k * n, (n * 64 + k) as u64);
                    let expect_nn = bits(&naive(|i, p| a[i * k + p], &b, m, k, n));
                    let expect_tn = bits(&naive(|i, p| a[p * m + i], &b, m, k, n));
                    // NaN-filled outputs: every element must be overwritten.
                    let mut c = vec![f32::NAN; m * n];
                    for instance in Instance::ALL
                        .into_iter()
                        .filter(|i| i.runs::<Gemm<false>>())
                    {
                        c.fill(f32::NAN);
                        let (a, b, c) = (&a[..], &b[..], &mut c[..]);
                        run_on(instance, &mut Gemm::<false> { a, b, c, m, k, n }, m, n);
                        assert_eq!(bits(c), expect_nn, "{instance:?} nn {m}x{k}x{n}");
                        c.fill(f32::NAN);
                        run_on(instance, &mut Gemm::<true> { a, b, c, m, k, n }, m, n);
                        assert_eq!(bits(c), expect_tn, "{instance:?} tn {m}x{k}x{n}");
                    }
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

    /// `synth` with every seventh value -0.0, +0.0, +inf, -inf or NaN in turn.
    fn special(len: usize, seed: u64) -> Vec<f32> {
        const SPECIAL: [f32; 5] = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut v = synth(len, seed);
        for (i, x) in v.iter_mut().enumerate().skip(seed as usize % 7).step_by(7) {
            *x = SPECIAL[i % SPECIAL.len()];
        }
        v
    }

    /// Bit patterns with every NaN mapped to one: IEEE 754 leaves a NaN result's
    /// payload open, so two equal computations may differ there.
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

    /// The accumulate crosses every strip and band edge (`m` and `n` in 1..=33: a
    /// 16-wide strip, every narrower one, every row remainder; `k` in 1..=9), with
    /// -0.0, ±inf and NaN in both operands and in the accumulator. On every instance the
    /// CPU runs it on, each checked by name (baseline and AVX2), and through the
    /// dispatching entry point, it equals the product into a scratch followed by an
    /// elementwise add, bit for bit.
    #[test]
    fn accumulate_is_the_product_then_an_add_on_every_instance() {
        for m in 1..=33 {
            for n in 1..=33 {
                for k in 1..=9 {
                    let a = special(k * m, (m * 64 + n) as u64);
                    let b = special(k * n, (n * 64 + k) as u64);
                    let c0 = special(m * n, (k * 64 + m) as u64);
                    let mut product = vec![f32::NAN; m * n];
                    gemm::<true>(&a, &b, &mut product, m, k, n);
                    let expect: Vec<f32> = c0.iter().zip(&product).map(|(c, p)| c + p).collect();
                    let expect = canonical_bits(&expect);
                    for instance in Instance::ALL.into_iter().filter(|i| i.runs::<AddTn>()) {
                        let mut c = c0.clone();
                        for band in (0..m).step_by(4) {
                            let rows = 4.min(m - band);
                            let c = &mut c[band * n..][..rows * n];
                            let (a, b) = (&a[..], &b[..]);
                            let mut kernel = AddTn {
                                a,
                                b,
                                c,
                                band,
                                m,
                                k,
                                n,
                            };
                            run_on(instance, &mut kernel, rows, n);
                        }
                        assert_eq!(canonical_bits(&c), expect, "{instance:?} {m}x{k}x{n}");
                    }
                    let mut c = c0;
                    gemm_tn_add(&a, &b, &mut c, m, k, n);
                    assert_eq!(canonical_bits(&c), expect, "dispatched {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn empty_shared_dimension_gives_zeros() {
        let mut c = vec![f32::NAN; 6];
        gemm::<false>(&[], &[], &mut c, 2, 0, 3);
        assert_eq!(c, vec![0.0; 6]);
        // Accumulating the empty sum adds 0.0, which turns -0.0 into +0.0.
        let mut c = vec![-0.0, 1.5, -0.0, f32::NEG_INFINITY, 2.0, -0.0];
        gemm_tn_add(&[], &[], &mut c, 6, 0, 1);
        let expect = [0.0, 1.5, 0.0, f32::NEG_INFINITY, 2.0, 0.0];
        assert_eq!(canonical_bits(&c), canonical_bits(&expect));
    }
}
