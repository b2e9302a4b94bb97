//! Hand-rolled SIMD lanes for the statevector kernels.
//!
//! The workspace is zero-dependency and builds on stable Rust, so neither
//! `std::simd` (nightly) nor an intrinsics crate is available. This module
//! provides the complex multiply-add inner loops of the dense and diagonal
//! gate kernels in two interchangeable forms:
//!
//! * a **portable** four-wide `f64` lane type ([`F64x4`], two interleaved
//!   complex amplitudes) whose elementwise operations LLVM lowers to
//!   whatever vector width the build target has, and
//! * an **x86-64 AVX** path written directly against `core::arch`
//!   intrinsics (`vmulpd`/`vpermilpd`/`vaddsubpd` on 256-bit lanes),
//!   selected at runtime via `is_x86_feature_detected!`. Rust compiles for
//!   baseline x86-64 (SSE2) by default, so without the runtime dispatch
//!   the wide units on every AVX-capable host would sit idle.
//!
//! **Bit-identity contract.** The chunked kernels in [`crate::state`] must
//! produce amplitudes bit-identical to their scalar remainder loops no
//! matter where chunk boundaries fall (a pair handled by a SIMD lane at
//! one thread count may land in a scalar tail at another). Every path here
//! therefore mirrors the exact operation tree of the scalar `C64`
//! arithmetic: the same multiplies feeding the same single add/sub per
//! component, differing at most by operand order within one commutative
//! `f64` operation, which IEEE 754 guarantees is bitwise-equal. No fused
//! multiply-add, no reassociation — `vaddsubpd` is a packed add/sub with
//! ordinary rounding, not a contraction.

use supermarq_circuit::C64;

/// Four `f64` lanes holding two adjacent complex amplitudes as
/// `[re0, im0, re1, im1]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All-zero lanes (additive identity; `0.0 + x` is exact for the
    /// non-NaN finite amplitudes the simulator produces).
    pub(crate) const ZERO: F64x4 = F64x4([0.0; 4]);

    /// Loads the two amplitudes at `p` and `p + 1`.
    ///
    /// # Safety
    ///
    /// `p` must point at two consecutive readable `C64` values.
    #[inline(always)]
    pub(crate) unsafe fn load2(p: *const C64) -> F64x4 {
        let a = *p;
        let b = *p.add(1);
        F64x4([a.re, a.im, b.re, b.im])
    }

    /// Stores the two amplitudes to `p` and `p + 1`.
    ///
    /// # Safety
    ///
    /// `p` must point at two consecutive writable `C64` values.
    #[inline(always)]
    pub(crate) unsafe fn store2(self, p: *mut C64) {
        *p = C64::new(self.0[0], self.0[1]);
        *p.add(1) = C64::new(self.0[2], self.0[3]);
    }

    /// Lanewise addition.
    #[inline(always)]
    pub(crate) fn add(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0] + o.0[0],
            self.0[1] + o.0[1],
            self.0[2] + o.0[2],
            self.0[3] + o.0[3],
        ])
    }

    /// Multiplies both complex lanes by `c`, with the operation tree of
    /// `C64`'s `Mul` (four products, one subtraction, one addition per
    /// amplitude) so results match `c * amp` bit-for-bit.
    #[inline(always)]
    pub(crate) fn cmul(self, c: C64) -> F64x4 {
        let a = self.0;
        F64x4([
            a[0] * c.re - a[1] * c.im,
            a[0] * c.im + a[1] * c.re,
            a[2] * c.re - a[3] * c.im,
            a[2] * c.im + a[3] * c.re,
        ])
    }
}

/// `true` when the runtime CPU has AVX and the intrinsic paths apply
/// (`is_x86_feature_detected!` caches its probe in an atomic, so this is a
/// relaxed load after the first call).
#[inline(always)]
fn use_avx() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `f` inside an AVX-attributed frame when the CPU has AVX, plainly
/// otherwise. Placed around a whole chunk walk (see
/// [`crate::chunk::run_chunked`]) this lets LLVM inline the per-run
/// intrinsic bodies below into one attributed function and hoist their
/// loop-invariant broadcasts out of the run loop — without it, a gate on
/// qubit 0 (run length 1) pays the matrix broadcasts once per amplitude
/// pair instead of once per chunk.
#[inline(always)]
pub(crate) fn dispatch(f: impl FnOnce()) {
    #[cfg(target_arch = "x86_64")]
    if use_avx() {
        // SAFETY: AVX availability was just verified at runtime.
        unsafe { with_avx(f) };
        return;
    }
    f();
}

/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn with_avx(f: impl FnOnce()) {
    f();
}

// --- Shared scalar tails -------------------------------------------------
//
// Runs are walked two amplitudes per SIMD step; an odd run leaves one
// trailing amplitude. The tails are `#[inline(always)]` helpers shared by
// the portable and AVX paths so every variant ends on the same scalar tree.

/// # Safety
///
/// `p + j..p + run` must be valid, exclusively borrowed amplitudes.
#[inline(always)]
unsafe fn cmul_tail(p: *mut C64, mut j: usize, run: usize, c: C64) {
    while j < run {
        let a = *p.add(j);
        *p.add(j) = c * a;
        j += 1;
    }
}

/// # Safety
///
/// `p0 + j..p0 + run` and `p1 + j..p1 + run` must be valid, disjoint,
/// exclusively borrowed amplitude ranges.
#[inline(always)]
unsafe fn matrix1_tail(p0: *mut C64, p1: *mut C64, mut j: usize, run: usize, m: &[[C64; 2]; 2]) {
    while j < run {
        let a0 = *p0.add(j);
        let a1 = *p1.add(j);
        *p0.add(j) = m[0][0] * a0 + m[0][1] * a1;
        *p1.add(j) = m[1][0] * a0 + m[1][1] * a1;
        j += 1;
    }
}

/// # Safety
///
/// Each `p[k] + j..p[k] + run` must be a valid, exclusively borrowed
/// amplitude range, pairwise disjoint across `k`.
#[inline(always)]
unsafe fn matrix2_tail(
    p: &[*mut C64; 4],
    mut j: usize,
    run: usize,
    m: &[[C64; 4]; 4],
    mask: &[u8; 4],
) {
    while j < run {
        let a = [*p[0].add(j), *p[1].add(j), *p[2].add(j), *p[3].add(j)];
        for (row, &target) in p.iter().enumerate() {
            let mut v = C64::ZERO;
            for (col, (&mc, &ac)) in m[row].iter().zip(&a).enumerate() {
                if mask[row] & (1 << col) != 0 {
                    v += mc * ac;
                }
            }
            *target.add(j) = v;
        }
        j += 1;
    }
}

// --- Portable lane implementations ---------------------------------------

/// # Safety
///
/// See [`cmul_run`].
#[inline(always)]
unsafe fn cmul_run_portable(p: *mut C64, run: usize, c: C64) {
    let mut j = 0;
    while j + 2 <= run {
        F64x4::load2(p.add(j)).cmul(c).store2(p.add(j));
        j += 2;
    }
    cmul_tail(p, j, run, c);
}

/// # Safety
///
/// See [`matrix1_run`].
#[inline(always)]
unsafe fn matrix1_run_portable(p0: *mut C64, p1: *mut C64, run: usize, m: &[[C64; 2]; 2]) {
    let mut j = 0;
    while j + 2 <= run {
        let a0 = F64x4::load2(p0.add(j));
        let a1 = F64x4::load2(p1.add(j));
        a0.cmul(m[0][0]).add(a1.cmul(m[0][1])).store2(p0.add(j));
        a0.cmul(m[1][0]).add(a1.cmul(m[1][1])).store2(p1.add(j));
        j += 2;
    }
    matrix1_tail(p0, p1, j, run, m);
}

/// # Safety
///
/// See [`matrix2_run`].
#[inline(always)]
unsafe fn matrix2_run_portable(p: &[*mut C64; 4], run: usize, m: &[[C64; 4]; 4], mask: &[u8; 4]) {
    let mut j = 0;
    while j + 2 <= run {
        let a = [
            F64x4::load2(p[0].add(j)),
            F64x4::load2(p[1].add(j)),
            F64x4::load2(p[2].add(j)),
            F64x4::load2(p[3].add(j)),
        ];
        for (row, &target) in p.iter().enumerate() {
            let mut v = F64x4::ZERO;
            for (col, (&mc, &ac)) in m[row].iter().zip(&a).enumerate() {
                if mask[row] & (1 << col) != 0 {
                    v = v.add(ac.cmul(mc));
                }
            }
            v.store2(target.add(j));
        }
        j += 2;
    }
    matrix2_tail(p, j, run, m, mask);
}

// --- Adjacent-pair scalar bodies ------------------------------------------
//
// A gate on qubit 0 (stride 1) has every pair's two amplitudes side by
// side: pair task `p` owns `amps[2p]` and `amps[2p + 1]`, so a whole task
// range is one contiguous memory block. The generic run walk degenerates
// to runs of length 1 there (all scalar tail, per-run call overhead per
// amplitude pair); these bodies walk the block directly.

/// # Safety
///
/// See [`matrix1_adjacent`].
#[inline(always)]
unsafe fn matrix1_adjacent_scalar(p: *mut C64, pairs: usize, m: &[[C64; 2]; 2]) {
    let mut j = 0;
    while j < pairs {
        let a0 = *p.add(2 * j);
        let a1 = *p.add(2 * j + 1);
        *p.add(2 * j) = m[0][0] * a0 + m[0][1] * a1;
        *p.add(2 * j + 1) = m[1][0] * a0 + m[1][1] * a1;
        j += 1;
    }
}

/// # Safety
///
/// See [`diagonal_adjacent`].
#[inline(always)]
unsafe fn diagonal_adjacent_scalar(p: *mut C64, pairs: usize, d0: C64, d1: C64) {
    let mut j = 0;
    while j < pairs {
        let a = *p.add(2 * j);
        let b = *p.add(2 * j + 1);
        *p.add(2 * j) = d0 * a;
        *p.add(2 * j + 1) = d1 * b;
        j += 1;
    }
}

// --- Permutation scalar bodies --------------------------------------------

/// # Safety
///
/// See [`swap_odd_between`].
#[inline(always)]
unsafe fn swap_odd_between_scalar(pa: *mut C64, pb: *mut C64, len: usize) {
    let mut j = 1;
    while j < len {
        std::ptr::swap(pa.add(j), pb.add(j));
        j += 2;
    }
}

/// # Safety
///
/// See [`swap_odd_adjacent`].
#[inline(always)]
unsafe fn swap_odd_adjacent_scalar(p: *mut C64, groups: usize) {
    let mut g = 0;
    while g < groups {
        std::ptr::swap(p.add(4 * g + 1), p.add(4 * g + 3));
        g += 1;
    }
}

// --- AVX intrinsic implementations ---------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{cmul_tail, matrix1_tail, matrix2_tail};
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_broadcast_sd, _mm256_loadu_pd,
        _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_permute_pd, _mm256_setr_pd,
        _mm256_setzero_pd, _mm256_storeu_pd,
    };
    use supermarq_circuit::C64;

    /// Two interleaved complex amplitudes times the scalar whose real and
    /// imaginary parts are pre-broadcast in `cre`/`cim`. Matches the `C64`
    /// multiply tree bitwise:
    ///
    /// ```text
    /// x       = [re*cre, im*cre, ...]      (vmulpd)
    /// swapped = [im, re, ...]              (vpermilpd)
    /// y       = [im*cim, re*cim, ...]      (vmulpd)
    /// out     = [x0-y0, x1+y1, ...]        (vaddsubpd)
    ///         = [re*cre - im*cim, im*cre + re*cim, ...]
    /// ```
    ///
    /// The scalar tree is `(c.re*re - c.im*im, c.re*im + c.im*re)`; each
    /// component differs only by commuting `f64` multiplies/one addition,
    /// which is bitwise-exact. `vaddsubpd` rounds each lane like the
    /// scalar ops — it is not an FMA.
    #[inline(always)]
    unsafe fn cmul256(a: __m256d, cre: __m256d, cim: __m256d) -> __m256d {
        let x = _mm256_mul_pd(a, cre);
        let swapped = _mm256_permute_pd(a, 0b0101);
        let y = _mm256_mul_pd(swapped, cim);
        _mm256_addsub_pd(x, y)
    }

    /// # Safety
    ///
    /// Caller must ensure AVX is available and the range contract of
    /// [`super::cmul_run`].
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn cmul_run(p: *mut C64, run: usize, c: C64) {
        let cre = _mm256_broadcast_sd(&c.re);
        let cim = _mm256_broadcast_sd(&c.im);
        let mut j = 0;
        while j + 2 <= run {
            let q = p.add(j).cast::<f64>();
            _mm256_storeu_pd(q, cmul256(_mm256_loadu_pd(q), cre, cim));
            j += 2;
        }
        cmul_tail(p, j, run, c);
    }

    /// # Safety
    ///
    /// Caller must ensure AVX is available and the range contract of
    /// [`super::matrix1_run`].
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn matrix1_run(p0: *mut C64, p1: *mut C64, run: usize, m: &[[C64; 2]; 2]) {
        let m00re = _mm256_broadcast_sd(&m[0][0].re);
        let m00im = _mm256_broadcast_sd(&m[0][0].im);
        let m01re = _mm256_broadcast_sd(&m[0][1].re);
        let m01im = _mm256_broadcast_sd(&m[0][1].im);
        let m10re = _mm256_broadcast_sd(&m[1][0].re);
        let m10im = _mm256_broadcast_sd(&m[1][0].im);
        let m11re = _mm256_broadcast_sd(&m[1][1].re);
        let m11im = _mm256_broadcast_sd(&m[1][1].im);
        let mut j = 0;
        while j + 2 <= run {
            let q0 = p0.add(j).cast::<f64>();
            let q1 = p1.add(j).cast::<f64>();
            let a0 = _mm256_loadu_pd(q0);
            let a1 = _mm256_loadu_pd(q1);
            let r0 = _mm256_add_pd(cmul256(a0, m00re, m00im), cmul256(a1, m01re, m01im));
            let r1 = _mm256_add_pd(cmul256(a0, m10re, m10im), cmul256(a1, m11re, m11im));
            _mm256_storeu_pd(q0, r0);
            _mm256_storeu_pd(q1, r1);
            j += 2;
        }
        matrix1_tail(p0, p1, j, run, m);
    }

    /// # Safety
    ///
    /// Caller must ensure AVX is available and the range contract of
    /// [`super::matrix1_adjacent`].
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn matrix1_adjacent(p: *mut C64, pairs: usize, m: &[[C64; 2]; 2]) {
        // One 256-bit lane holds one whole pair `[a0.re, a0.im, a1.re,
        // a1.im]`; the low 128-bit half computes the |0> output row and the
        // high half the |1> row, so the per-half constants interleave the
        // matrix columns: `[m00, m10]` against a broadcast `a0`, `[m01,
        // m11]` against a broadcast `a1`.
        let col0_re = _mm256_setr_pd(m[0][0].re, m[0][0].re, m[1][0].re, m[1][0].re);
        let col0_im = _mm256_setr_pd(m[0][0].im, m[0][0].im, m[1][0].im, m[1][0].im);
        let col1_re = _mm256_setr_pd(m[0][1].re, m[0][1].re, m[1][1].re, m[1][1].re);
        let col1_im = _mm256_setr_pd(m[0][1].im, m[0][1].im, m[1][1].im, m[1][1].im);
        for j in 0..pairs {
            let q = p.add(2 * j).cast::<f64>();
            let a = _mm256_loadu_pd(q);
            // [a0, a0] and [a1, a1] via 128-bit halves duplication.
            let a0 = _mm256_permute2f128_pd::<0x00>(a, a);
            let a1 = _mm256_permute2f128_pd::<0x11>(a, a);
            let r = _mm256_add_pd(cmul256(a0, col0_re, col0_im), cmul256(a1, col1_re, col1_im));
            _mm256_storeu_pd(q, r);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX is available and the range contract of
    /// [`super::diagonal_adjacent`].
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn diagonal_adjacent(p: *mut C64, pairs: usize, d0: C64, d1: C64) {
        // `[d0, d0, d1, d1]` component lanes: the low 128-bit half scales
        // the pair's |0> amplitude, the high half its |1> amplitude.
        let cre = _mm256_setr_pd(d0.re, d0.re, d1.re, d1.re);
        let cim = _mm256_setr_pd(d0.im, d0.im, d1.im, d1.im);
        for j in 0..pairs {
            let q = p.add(2 * j).cast::<f64>();
            _mm256_storeu_pd(q, cmul256(_mm256_loadu_pd(q), cre, cim));
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX is available and the range contract of
    /// [`super::swap_run`].
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn swap_run(pa: *mut C64, pb: *mut C64, run: usize) {
        let mut j = 0;
        while j + 2 <= run {
            let qa = pa.add(j).cast::<f64>();
            let qb = pb.add(j).cast::<f64>();
            let a = _mm256_loadu_pd(qa);
            let b = _mm256_loadu_pd(qb);
            _mm256_storeu_pd(qa, b);
            _mm256_storeu_pd(qb, a);
            j += 2;
        }
        if j < run {
            std::ptr::swap(pa.add(j), pb.add(j));
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX is available and the range contract of
    /// [`super::swap_odd_between`].
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn swap_odd_between(pa: *mut C64, pb: *mut C64, len: usize) {
        // One lane holds two adjacent amplitudes; the odd-indexed one is
        // the high 128-bit half. Exchanging the high halves of an `a`/`b`
        // lane pair swaps the odd elements and rewrites the even ones with
        // their own bits — a pure permutation, trivially bit-exact.
        let mut j = 0;
        while j + 2 <= len {
            let qa = pa.add(j).cast::<f64>();
            let qb = pb.add(j).cast::<f64>();
            let a = _mm256_loadu_pd(qa);
            let b = _mm256_loadu_pd(qb);
            _mm256_storeu_pd(qa, _mm256_permute2f128_pd::<0x30>(a, b));
            _mm256_storeu_pd(qb, _mm256_permute2f128_pd::<0x12>(a, b));
            j += 2;
        }
        super::swap_odd_between_scalar(pa.add(j), pb.add(j), len - j);
    }

    /// # Safety
    ///
    /// Caller must ensure AVX is available and the range contract of
    /// [`super::swap_odd_adjacent`].
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn swap_odd_adjacent(p: *mut C64, groups: usize) {
        // Same high-half exchange as `swap_odd_between`, but the two lanes
        // of each group are adjacent in memory.
        for g in 0..groups {
            let q = p.add(4 * g).cast::<f64>();
            let a = _mm256_loadu_pd(q);
            let b = _mm256_loadu_pd(q.add(4));
            _mm256_storeu_pd(q, _mm256_permute2f128_pd::<0x30>(a, b));
            _mm256_storeu_pd(q.add(4), _mm256_permute2f128_pd::<0x12>(a, b));
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX is available and the range contract of
    /// [`super::matrix2_run`].
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn matrix2_run(
        p: &[*mut C64; 4],
        run: usize,
        m: &[[C64; 4]; 4],
        mask: &[u8; 4],
    ) {
        let mut j = 0;
        while j + 2 <= run {
            let a = [
                _mm256_loadu_pd(p[0].add(j).cast::<f64>()),
                _mm256_loadu_pd(p[1].add(j).cast::<f64>()),
                _mm256_loadu_pd(p[2].add(j).cast::<f64>()),
                _mm256_loadu_pd(p[3].add(j).cast::<f64>()),
            ];
            for (row, &target) in p.iter().enumerate() {
                let mut v = _mm256_setzero_pd();
                for (col, (mc, &ac)) in m[row].iter().zip(&a).enumerate() {
                    if mask[row] & (1 << col) != 0 {
                        let cre = _mm256_broadcast_sd(&mc.re);
                        let cim = _mm256_broadcast_sd(&mc.im);
                        v = _mm256_add_pd(v, cmul256(ac, cre, cim));
                    }
                }
                _mm256_storeu_pd(target.add(j).cast::<f64>(), v);
            }
            j += 2;
        }
        matrix2_tail(p, j, run, m, mask);
    }
}

// --- Dispatching entry points ---------------------------------------------

/// Multiplies `run` consecutive amplitudes starting at `p` by `c`,
/// bit-identical to the scalar loop `amps[i] = c * amps[i]`.
///
/// # Safety
///
/// `p..p + run` must be a valid, exclusively-borrowed amplitude range.
#[inline(always)]
pub(crate) unsafe fn cmul_run(p: *mut C64, run: usize, c: C64) {
    #[cfg(target_arch = "x86_64")]
    if use_avx() {
        return avx::cmul_run(p, run, c);
    }
    cmul_run_portable(p, run, c);
}

/// Applies the 2x2 matrix `m` to `run` consecutive amplitude pairs
/// `(p0 + j, p1 + j)`, bit-identical to the scalar
/// `(m00*a0 + m01*a1, m10*a0 + m11*a1)` per pair.
///
/// # Safety
///
/// `p0..p0 + run` and `p1..p1 + run` must be valid, disjoint,
/// exclusively-borrowed amplitude ranges.
#[inline(always)]
pub(crate) unsafe fn matrix1_run(p0: *mut C64, p1: *mut C64, run: usize, m: &[[C64; 2]; 2]) {
    #[cfg(target_arch = "x86_64")]
    if use_avx() {
        return avx::matrix1_run(p0, p1, run, m);
    }
    matrix1_run_portable(p0, p1, run, m);
}

/// Swaps `run` consecutive amplitudes between `pa` and `pb` (a pure
/// permutation — no arithmetic, so bit-exactness is structural).
///
/// # Safety
///
/// `pa..pa + run` and `pb..pb + run` must be valid, disjoint,
/// exclusively-borrowed amplitude ranges.
#[inline(always)]
pub(crate) unsafe fn swap_run(pa: *mut C64, pb: *mut C64, run: usize) {
    #[cfg(target_arch = "x86_64")]
    if use_avx() {
        return avx::swap_run(pa, pb, run);
    }
    std::ptr::swap_nonoverlapping(pa, pb, run);
}

/// Swaps the odd-indexed amplitudes of the two `len`-long blocks at `pa`
/// and `pb` (`pa[2k+1] <-> pb[2k+1]`) — the access pattern of a CX whose
/// control is qubit 0, where the generic tuple walk degrades to length-1
/// runs.
///
/// # Safety
///
/// `pa..pa + len` and `pb..pb + len` must be valid, disjoint,
/// exclusively-borrowed amplitude ranges.
#[inline(always)]
pub(crate) unsafe fn swap_odd_between(pa: *mut C64, pb: *mut C64, len: usize) {
    #[cfg(target_arch = "x86_64")]
    if use_avx() {
        return avx::swap_odd_between(pa, pb, len);
    }
    swap_odd_between_scalar(pa, pb, len);
}

/// Swaps amplitudes 1 and 3 of each 4-long group starting at `p`
/// (`p[4g+1] <-> p[4g+3]` for `g < groups`) — the access pattern of
/// `CX(0, 1)`, where each 4-tuple is one contiguous group.
///
/// # Safety
///
/// `p..p + 4 * groups` must be a valid, exclusively-borrowed amplitude
/// range.
#[inline(always)]
pub(crate) unsafe fn swap_odd_adjacent(p: *mut C64, groups: usize) {
    #[cfg(target_arch = "x86_64")]
    if use_avx() {
        return avx::swap_odd_adjacent(p, groups);
    }
    swap_odd_adjacent_scalar(p, groups);
}

/// Applies the 2x2 matrix `m` to `pairs` *adjacent* amplitude pairs
/// `(p + 2j, p + 2j + 1)` — the stride-1 layout of a gate on qubit 0 —
/// bit-identical to the generic [`matrix1_run`] handling of the same
/// pairs.
///
/// # Safety
///
/// `p..p + 2 * pairs` must be a valid, exclusively-borrowed amplitude
/// range.
#[inline(always)]
pub(crate) unsafe fn matrix1_adjacent(p: *mut C64, pairs: usize, m: &[[C64; 2]; 2]) {
    #[cfg(target_arch = "x86_64")]
    if use_avx() {
        return avx::matrix1_adjacent(p, pairs, m);
    }
    matrix1_adjacent_scalar(p, pairs, m);
}

/// Multiplies `pairs` adjacent amplitude pairs by `diag(d0, d1)` — the
/// stride-1 layout of a diagonal gate on qubit 0 — bit-identical to the
/// scalar multiplies `d0 * amps[2j]`, `d1 * amps[2j + 1]`.
///
/// # Safety
///
/// `p..p + 2 * pairs` must be a valid, exclusively-borrowed amplitude
/// range.
#[inline(always)]
pub(crate) unsafe fn diagonal_adjacent(p: *mut C64, pairs: usize, d0: C64, d1: C64) {
    #[cfg(target_arch = "x86_64")]
    if use_avx() {
        return avx::diagonal_adjacent(p, pairs, d0, d1);
    }
    diagonal_adjacent_scalar(p, pairs, d0, d1);
}

/// Per-row bitmasks of the nonzero columns of a 4x4 matrix: bit `c` of
/// entry `row` is set iff `m[row][c]` compares unequal to zero (`-0.0`
/// counts as zero). [`matrix2_run`] skips unselected columns, so sparse
/// gate matrices (CX touches 4 of 16 entries) pay only for their nonzero
/// structure. Build the mask once per gate, not per run — the mask is part
/// of the rounding-tree contract, so it must be identical across chunks.
#[inline]
pub(crate) fn nonzero_mask4(m: &[[C64; 4]; 4]) -> [u8; 4] {
    let mut mask = [0u8; 4];
    for (row, bits) in m.iter().zip(&mut mask) {
        for (col, mc) in row.iter().enumerate() {
            if mc.re != 0.0 || mc.im != 0.0 {
                *bits |= 1 << col;
            }
        }
    }
    mask
}

/// Applies the 4x4 matrix `m` to `run` consecutive amplitude 4-tuples
/// `(p[0] + j, .., p[3] + j)`, bit-identical to the scalar
/// `C64::ZERO`-seeded row accumulation over the columns selected by
/// `mask` (bit `c` of `mask[row]` selects `m[row][c]`; see
/// [`nonzero_mask4`]). Skipping an exact-zero column only drops `±0.0`
/// addends from the tree — for finite amplitudes the sum is value-equal
/// to the full accumulation, and preserving the sign of zero amplitudes
/// actually matches the permutation kernels *more* closely.
///
/// # Safety
///
/// Each `p[k]..p[k] + run` must be a valid, exclusively-borrowed amplitude
/// range, pairwise disjoint across `k`.
#[inline(always)]
pub(crate) unsafe fn matrix2_run(p: &[*mut C64; 4], run: usize, m: &[[C64; 4]; 4], mask: &[u8; 4]) {
    #[cfg(target_arch = "x86_64")]
    if use_avx() {
        return avx::matrix2_run(p, run, m, mask);
    }
    matrix2_run_portable(p, run, m, mask);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amps(len: usize) -> Vec<C64> {
        (0..len)
            .map(|i| C64::new(i as f64 * 0.1 - 0.3, 1.0 / (i as f64 + 1.0)))
            .collect()
    }

    #[test]
    fn cmul_is_bit_identical_to_scalar_mul() {
        let c = C64::new(0.123_456_789, -0.987_654_321);
        let amps = [
            C64::new(0.5, -0.25),
            C64::new(-1.0 / 3.0, 2.0 / 7.0),
            C64::new(1e-200, -1e200),
            C64::new(0.0, -0.0),
        ];
        for pair in amps.chunks_exact(2) {
            let lanes = unsafe { F64x4::load2(pair.as_ptr()) }.cmul(c);
            let mut out = [C64::ZERO; 2];
            unsafe { lanes.store2(out.as_mut_ptr()) };
            for (o, &a) in out.iter().zip(pair) {
                let s = c * a;
                assert_eq!(o.re.to_bits(), s.re.to_bits());
                assert_eq!(o.im.to_bits(), s.im.to_bits());
            }
        }
    }

    #[test]
    fn cmul_run_handles_odd_lengths_and_matches_scalar() {
        let c = C64::new(0.7, 0.3);
        for len in 0..7usize {
            let mut simd = amps(len);
            let scalar: Vec<C64> = simd.iter().map(|&a| c * a).collect();
            unsafe { cmul_run(simd.as_mut_ptr(), len, c) };
            for (s, r) in simd.iter().zip(&scalar) {
                assert_eq!(s.re.to_bits(), r.re.to_bits());
                assert_eq!(s.im.to_bits(), r.im.to_bits());
            }
        }
    }

    #[test]
    fn matrix1_run_matches_scalar_tree_bitwise() {
        // Hadamard-like but with a complex entry to exercise every product.
        let m = [
            [C64::new(0.6, 0.1), C64::new(-0.2, 0.7)],
            [C64::new(0.3, -0.4), C64::new(0.8, 0.05)],
        ];
        for len in 0..7usize {
            let mut lo = amps(len);
            let mut hi: Vec<C64> = amps(len).iter().map(|a| a.conj()).collect();
            let expect: Vec<(C64, C64)> = lo
                .iter()
                .zip(&hi)
                .map(|(&a0, &a1)| (m[0][0] * a0 + m[0][1] * a1, m[1][0] * a0 + m[1][1] * a1))
                .collect();
            unsafe { matrix1_run(lo.as_mut_ptr(), hi.as_mut_ptr(), len, &m) };
            for ((a, b), (ea, eb)) in lo.iter().zip(&hi).zip(&expect) {
                assert_eq!(a.re.to_bits(), ea.re.to_bits());
                assert_eq!(a.im.to_bits(), ea.im.to_bits());
                assert_eq!(b.re.to_bits(), eb.re.to_bits());
                assert_eq!(b.im.to_bits(), eb.im.to_bits());
            }
        }
    }

    #[test]
    fn swap_run_exchanges_ranges_exactly() {
        for len in 0..7usize {
            let mut a = amps(len);
            let mut b: Vec<C64> = amps(len).iter().map(|x| x.conj()).collect();
            let (ea, eb) = (b.clone(), a.clone());
            unsafe { swap_run(a.as_mut_ptr(), b.as_mut_ptr(), len) };
            assert_eq!(a, ea);
            assert_eq!(b, eb);
        }
    }

    #[test]
    fn swap_odd_between_touches_only_odd_indices() {
        for len in [0usize, 2, 4, 6, 8] {
            let mut a = amps(len);
            let mut b: Vec<C64> = amps(len).iter().map(|x| x.scale(-2.0)).collect();
            let (orig_a, orig_b) = (a.clone(), b.clone());
            unsafe { swap_odd_between(a.as_mut_ptr(), b.as_mut_ptr(), len) };
            for j in 0..len {
                if j % 2 == 1 {
                    assert_eq!(a[j], orig_b[j], "odd {j} swapped");
                    assert_eq!(b[j], orig_a[j], "odd {j} swapped");
                } else {
                    assert_eq!(a[j], orig_a[j], "even {j} untouched");
                    assert_eq!(b[j], orig_b[j], "even {j} untouched");
                }
            }
        }
    }

    #[test]
    fn swap_odd_adjacent_swaps_one_and_three_of_each_group() {
        for groups in 0..4usize {
            let mut got = amps(4 * groups);
            let mut expect = got.clone();
            for g in 0..groups {
                expect.swap(4 * g + 1, 4 * g + 3);
            }
            unsafe { swap_odd_adjacent(got.as_mut_ptr(), groups) };
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn matrix1_adjacent_matches_scalar_tree_bitwise() {
        let m = [
            [C64::new(0.6, 0.1), C64::new(-0.2, 0.7)],
            [C64::new(0.3, -0.4), C64::new(0.8, 0.05)],
        ];
        for pairs in 0..5usize {
            let mut got = amps(2 * pairs);
            let expect: Vec<C64> = got
                .chunks_exact(2)
                .flat_map(|p| {
                    [
                        m[0][0] * p[0] + m[0][1] * p[1],
                        m[1][0] * p[0] + m[1][1] * p[1],
                    ]
                })
                .collect();
            unsafe { matrix1_adjacent(got.as_mut_ptr(), pairs, &m) };
            for (a, e) in got.iter().zip(&expect) {
                assert_eq!(a.re.to_bits(), e.re.to_bits());
                assert_eq!(a.im.to_bits(), e.im.to_bits());
            }
        }
    }

    #[test]
    fn diagonal_adjacent_matches_scalar_tree_bitwise() {
        let d0 = C64::new(0.123, -0.456);
        let d1 = C64::new(-0.789, 0.321);
        for pairs in 0..5usize {
            let mut got = amps(2 * pairs);
            let expect: Vec<C64> = got
                .chunks_exact(2)
                .flat_map(|p| [d0 * p[0], d1 * p[1]])
                .collect();
            unsafe { diagonal_adjacent(got.as_mut_ptr(), pairs, d0, d1) };
            for (a, e) in got.iter().zip(&expect) {
                assert_eq!(a.re.to_bits(), e.re.to_bits());
                assert_eq!(a.im.to_bits(), e.im.to_bits());
            }
        }
    }

    #[test]
    fn matrix2_run_matches_scalar_tree_bitwise() {
        let mut m = [[C64::ZERO; 4]; 4];
        for (r, row) in m.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = C64::new(
                    0.11 * (r as f64 + 1.0) - 0.07 * c as f64,
                    0.05 * c as f64 - 0.13 * r as f64,
                );
            }
        }
        for len in 0..5usize {
            let mut rows: Vec<Vec<C64>> = (0..4)
                .map(|k| amps(len).iter().map(|a| a.scale(k as f64 + 0.5)).collect())
                .collect();
            let mut expect = rows.clone();
            for j in 0..len {
                let a = [rows[0][j], rows[1][j], rows[2][j], rows[3][j]];
                for (row, exp) in expect.iter_mut().enumerate() {
                    let mut v = C64::ZERO;
                    for (&mc, &ac) in m[row].iter().zip(&a) {
                        v += mc * ac;
                    }
                    exp[j] = v;
                }
            }
            let ptrs = {
                let mut it = rows.iter_mut().map(|r| r.as_mut_ptr());
                [
                    it.next().unwrap(),
                    it.next().unwrap(),
                    it.next().unwrap(),
                    it.next().unwrap(),
                ]
            };
            unsafe { matrix2_run(&ptrs, len, &m, &nonzero_mask4(&m)) };
            for (row, exp) in rows.iter().zip(&expect) {
                for (a, e) in row.iter().zip(exp) {
                    assert_eq!(a.re.to_bits(), e.re.to_bits());
                    assert_eq!(a.im.to_bits(), e.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn nonzero_mask4_flags_exactly_the_nonzero_entries() {
        let mut m = [[C64::ZERO; 4]; 4];
        m[0][0] = C64::ONE;
        m[1][2] = C64::new(0.0, -3.0);
        m[2][3] = C64::new(-0.0, 0.0); // negative zero still counts as zero
        m[3][1] = C64::new(1e-300, 0.0); // tiny but nonzero
        assert_eq!(nonzero_mask4(&m), [0b0001, 0b0100, 0b0000, 0b0010]);
    }

    #[test]
    fn sparse_matrix2_run_skips_zero_columns_bitwise() {
        // CX in |q0 q1> basis order: a 4x4 permutation with 12 exact-zero
        // entries. Both tiers must match the ZERO-seeded scalar tree over
        // the *masked* columns only — a single term per row here, so the
        // skipped 0*a products never enter the accumulation (the full
        // 4-term tree would also flip the sign of -0.0 amplitudes).
        let mut m = [[C64::ZERO; 4]; 4];
        m[0][0] = C64::ONE;
        m[1][1] = C64::ONE;
        m[2][3] = C64::ONE;
        m[3][2] = C64::ONE;
        let mask = nonzero_mask4(&m);
        assert_eq!(mask, [0b0001, 0b0010, 0b1000, 0b0100]);
        for len in 0..5usize {
            let mut rows: Vec<Vec<C64>> = (0..4)
                .map(|k| {
                    amps(len)
                        .iter()
                        .map(|a| a.scale(k as f64 - 1.5)) // index 3 yields re = -0.0
                        .collect()
                })
                .collect();
            let mut expect = rows.clone();
            for j in 0..len {
                let a = [rows[0][j], rows[1][j], rows[2][j], rows[3][j]];
                for (row, exp) in expect.iter_mut().enumerate() {
                    let mut v = C64::ZERO;
                    for (col, (&mc, &ac)) in m[row].iter().zip(&a).enumerate() {
                        if mask[row] & (1 << col) != 0 {
                            v += mc * ac;
                        }
                    }
                    exp[j] = v;
                }
            }
            let ptrs = {
                let mut it = rows.iter_mut().map(|r| r.as_mut_ptr());
                [
                    it.next().unwrap(),
                    it.next().unwrap(),
                    it.next().unwrap(),
                    it.next().unwrap(),
                ]
            };
            unsafe { matrix2_run(&ptrs, len, &m, &mask) };
            for (row, exp) in rows.iter().zip(&expect) {
                for (a, e) in row.iter().zip(exp) {
                    assert_eq!(a.re.to_bits(), e.re.to_bits());
                    assert_eq!(a.im.to_bits(), e.im.to_bits());
                }
            }
        }
    }
}
