//! The register-tile cascade every kernel of this crate runs on: the GEMM of `gemm.rs`
//! and its accumulate form, and the three convolution kernels of `conv.rs`.
//!
//! A kernel produces an `R × L` tile of its result in registers. The result is covered
//! by lane strips (`NR`, 8, 4, 2, 1 lanes wide, outermost, so what a strip reads stays
//! cache-resident while every row band passes over it), each strip by row bands (4, 2,
//! 1 rows): edges cascade to narrower tiles, never to a scalar loop over a wide
//! remainder. A tile's sums do not depend on its shape, so every cover of the same
//! result is bitwise the same.
//!
//! The cascade is compiled twice: for the build's baseline target with `NR = 8`, and
//! with AVX2 enabled with `NR = 16` (a 4×16 tile is eight 256-bit accumulators). FMA
//! is **not** enabled, so a multiply and an add are two roundings in both and the two
//! instances agree bit for bit. Which one runs is decided by run-time CPU detection
//! alone, here, for every kernel: the crate's only `unsafe`.

/// A kernel that produces its result in `R × L` register tiles. `tile` computes the
/// tile whose first row is `row0` and first lane is `lane0`, whole; implementations
/// mark it `#[inline(always)]` so that it is compiled with its caller's target features.
pub(crate) trait Tiles {
    fn tile<const R: usize, const L: usize>(&mut self, row0: usize, lane0: usize);
}

/// Runs `kernel` over `rows × lanes` on the widest instance the CPU supports.
pub(crate) fn run_tiles<T: Tiles>(kernel: &mut T, rows: usize, lanes: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `cover_avx2` is safe code whose only requirement is that the CPU
        // executes AVX2 instructions, which the detection macro just confirmed.
        unsafe { cover_avx2(kernel, rows, lanes) };
        return;
    }
    cover::<8, T>(kernel, rows, lanes);
}

/// The cascade compiled with AVX2 (and without FMA, see the module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn cover_avx2<T: Tiles>(kernel: &mut T, rows: usize, lanes: usize) {
    cover::<16, T>(kernel, rows, lanes);
}

/// Covers `rows × lanes` with lane strips: as many `NR`-wide ones as fit, then the
/// cascade of narrower ones over the remainder. `cover::<8, _>` is the instance for
/// the build's baseline target features (SSE2 on x86-64).
#[inline(always)]
pub(crate) fn cover<const NR: usize, T: Tiles>(kernel: &mut T, rows: usize, lanes: usize) {
    let mut l0 = 0;
    l0 = strip::<NR, T>(kernel, rows, lanes, l0);
    l0 = strip::<8, T>(kernel, rows, lanes, l0);
    l0 = strip::<4, T>(kernel, rows, lanes, l0);
    l0 = strip::<2, T>(kernel, rows, lanes, l0);
    l0 = strip::<1, T>(kernel, rows, lanes, l0);
    debug_assert_eq!(l0, lanes);
}

/// Computes every full `L`-wide lane strip starting at `l0` and returns the first lane
/// not covered. Within a strip the row bands cascade 4, 2, 1.
#[inline(always)]
fn strip<const L: usize, T: Tiles>(
    kernel: &mut T,
    rows: usize,
    lanes: usize,
    mut l0: usize,
) -> usize {
    while l0 + L <= lanes {
        let mut r0 = 0;
        while r0 + 4 <= rows {
            kernel.tile::<4, L>(r0, l0);
            r0 += 4;
        }
        if r0 + 2 <= rows {
            kernel.tile::<2, L>(r0, l0);
            r0 += 2;
        }
        if r0 < rows {
            kernel.tile::<1, L>(r0, l0);
        }
        l0 += L;
    }
    l0
}
