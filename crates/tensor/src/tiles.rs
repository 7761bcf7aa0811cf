//! The register-tile cascade every kernel of this crate runs on: the GEMM of `gemm.rs`
//! and its accumulate form, the three convolution kernels of `conv.rs`, and the SGD
//! apply of `ops.rs` (one row, the parameter vector its lanes).
//!
//! A kernel produces an `R × L` tile of its result in registers. The result is covered
//! by lane strips (`NR`, then 16 where `NR` is wider, 8, 4, 2, 1 lanes wide, outermost,
//! so what a strip reads stays cache-resident while every row band passes over it), each
//! strip by row bands (`MR`, then 4 where `MR` is taller, 2, 1 rows): edges cascade to
//! narrower tiles, never to a scalar loop over a wide remainder. A tile's sums do not
//! depend on its shape, so every cover of the same result is bitwise the same.
//!
//! The cascade has three instances ([`Instance`]):
//!
//! * **baseline**, for the build's target features (SSE2 on x86-64): 8-lane strips,
//!   4-row bands;
//! * **AVX2**: 16-lane strips (a 4×16 tile is eight 256-bit accumulators), 4-row bands;
//! * **AVX-512**, compiled with `avx512f` alone, for the kernels that name a tile for it
//!   ([`Avx512Tile`]): the convolutions. The forward and input-gradient kernels, whose
//!   lane is the batch, run 32-lane strips (a 4×32 tile is eight 512-bit accumulators);
//!   the weight-gradient kernel, whose lane is the output channel, keeps 8-lane strips
//!   and runs 8-row bands. The dense GEMMs and the SGD apply have no AVX-512 tile: they
//!   run on the AVX2 instance there too.
//!
//! `avx512f` implies the FMA target feature, but Rust never fuses `a * b + c`: in every
//! instance a multiply and an add are two roundings, so the instances agree bit for bit
//! (the kernels' instance tests pin that). Which instance runs is decided by run-time
//! CPU detection alone, here, for every kernel: the crate's only `unsafe`.

/// A kernel that produces its result in `R × L` register tiles. `tile` computes the
/// tile whose first row is `row0` and first lane is `lane0`, whole; implementations
/// mark it `#[inline(always)]` so that it is compiled with its caller's target features.
pub(crate) trait Tiles {
    /// The kernel's tile on the AVX-512 instance: a property of the kernel's shape, not
    /// an option.
    const AVX512: Avx512Tile;

    fn tile<const R: usize, const L: usize>(&mut self, row0: usize, lane0: usize);
}

/// What a kernel runs on the AVX-512 instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Avx512Tile {
    /// Nothing: the kernel runs on the AVX2 instance on an AVX-512 CPU too.
    None,
    /// 32-lane strips in 4-row bands, for a kernel whose lane is the batch.
    Lanes32,
    /// 8-lane strips in 8-row bands, for a kernel whose lane is 8 output channels.
    Rows8,
}

/// One compiled instance of the cascade (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Instance {
    Baseline,
    Avx2,
    Avx512,
}

impl Instance {
    /// Every instance, narrowest first.
    pub(crate) const ALL: [Instance; 3] = [Instance::Baseline, Instance::Avx2, Instance::Avx512];

    /// Whether this CPU runs kernel `T` on this instance.
    pub(crate) fn runs<T: Tiles>(self) -> bool {
        match self {
            Instance::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Instance::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Instance::Avx512 => {
                T::AVX512 != Avx512Tile::None && std::arch::is_x86_feature_detected!("avx512f")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Runs `kernel` over `rows × lanes` on the widest instance the CPU runs it on.
pub(crate) fn run_tiles<T: Tiles>(kernel: &mut T, rows: usize, lanes: usize) {
    let widest = Instance::ALL.into_iter().rev().find(|i| i.runs::<T>());
    run_on(widest.unwrap_or(Instance::Baseline), kernel, rows, lanes);
}

/// Runs `kernel` over `rows × lanes` on `instance`, or on the baseline where the CPU does
/// not run `T` on `instance` (never so for an instance [`Instance::runs`] accepts).
pub(crate) fn run_on<T: Tiles>(instance: Instance, kernel: &mut T, rows: usize, lanes: usize) {
    #[cfg(target_arch = "x86_64")]
    if instance.runs::<T>() {
        match instance {
            Instance::Baseline => {}
            // SAFETY: `cover_avx2` and `cover_avx512` are safe code whose only
            // requirement is that the CPU executes the instructions of their target
            // feature, which `runs` has just confirmed by run-time detection.
            Instance::Avx2 => return unsafe { cover_avx2(kernel, rows, lanes) },
            Instance::Avx512 => return unsafe { cover_avx512(kernel, rows, lanes) },
        }
    }
    cover::<8, 4, T>(kernel, rows, lanes);
}

/// The cascade compiled with AVX2 (and without FMA, see the module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn cover_avx2<T: Tiles>(kernel: &mut T, rows: usize, lanes: usize) {
    cover::<16, 4, T>(kernel, rows, lanes);
}

/// The cascade compiled with AVX-512F, in the kernel's tile (module docs). `avx512vl`
/// is not enabled: with it the ResNet step ran 5x slower.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn cover_avx512<T: Tiles>(kernel: &mut T, rows: usize, lanes: usize) {
    if T::AVX512 == Avx512Tile::Rows8 {
        cover::<8, 8, T>(kernel, rows, lanes);
    } else {
        cover::<32, 4, T>(kernel, rows, lanes);
    }
}

/// Covers `rows × lanes` with lane strips: as many `NR`-wide ones as fit, then the
/// cascade of narrower ones over the remainder, each strip in `MR`-row bands and the
/// cascade of shorter ones.
#[inline(always)]
fn cover<const NR: usize, const MR: usize, T: Tiles>(kernel: &mut T, rows: usize, lanes: usize) {
    let mut l0 = 0;
    l0 = strip::<NR, MR, T>(kernel, rows, lanes, l0);
    if NR > 16 {
        l0 = strip::<16, MR, T>(kernel, rows, lanes, l0);
    }
    l0 = strip::<8, MR, T>(kernel, rows, lanes, l0);
    l0 = strip::<4, MR, T>(kernel, rows, lanes, l0);
    l0 = strip::<2, MR, T>(kernel, rows, lanes, l0);
    l0 = strip::<1, MR, T>(kernel, rows, lanes, l0);
    debug_assert_eq!(l0, lanes);
}

/// Computes every full `L`-wide lane strip starting at `l0` and returns the first lane
/// not covered. Within a strip the row bands cascade `MR`, 4, 2, 1.
#[inline(always)]
fn strip<const L: usize, const MR: usize, T: Tiles>(
    kernel: &mut T,
    rows: usize,
    lanes: usize,
    mut l0: usize,
) -> usize {
    while l0 + L <= lanes {
        let mut r0 = 0;
        while r0 + MR <= rows {
            kernel.tile::<MR, L>(r0, l0);
            r0 += MR;
        }
        if MR > 4 && r0 + 4 <= rows {
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
