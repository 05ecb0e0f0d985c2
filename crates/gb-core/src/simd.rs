//! Runtime-dispatched SIMD microkernels for the hot loops.
//!
//! Four execution levels, chosen once per process:
//!
//! * **Scalar** — the original reference loops, one pair per iteration;
//! * **Portable** — the same arithmetic restructured into fixed-width
//!   4-lane chunks of plain Rust the compiler autovectorizes (no
//!   intrinsics, works on any target);
//! * **Avx2** — `std::arch` AVX2+FMA intrinsics for the chunked kernels;
//! * **Avx512** — the exp-bound energy kernel widened to 8×f64 ZMM
//!   registers, everything else inherited from the levels below.
//!
//! The level is detected at startup from the CPU and can be overridden
//! with the `GB_SIMD` environment variable (`scalar`, `portable`, `avx2`,
//! `avx512`), which is how CI keeps the non-AVX2 path covered.
//!
//! **Where intrinsics pay off.** With `-C target-cpu=native` the compiler
//! already autovectorizes the simple mul/div/sqrt loops at the full
//! register width of the host — on an AVX-512 machine that is 8 lanes,
//! which *beats* hand-written 4-lane AVX2 kernels for division-bound
//! integrands (measured: the Born phase runs ~1.5× faster autovectorized
//! than through the 4-lane intrinsics). Hand-packing only wins where the
//! compiler cannot vectorize at all: the polynomial exponential behind
//! `1/f_GB`, whose range-reduction/exponent-scaling dance defeats the
//! autovectorizer (packed ≈3× faster than either `libm::exp` or the
//! scalar polynomial). The AVX2/AVX-512 code here therefore covers only
//! the exp-carrying energy kernels. The Born near-field kernel has no
//! intrinsics at all: on coalesced atom runs its autovectorized loop beat
//! a 4-lane AVX2 form (82 vs 111 ms Born exec at 10k atoms, AVX-512 host),
//! so that form was removed.
//!
//! **Determinism policy.** Every kernel here is written so that all
//! levels produce *bit-identical* results: the portable and packed forms
//! mirror the scalar operation sequence exactly — same multiplies, adds,
//! fused multiply-adds, divisions and square roots in the same order, all
//! correctly rounded per IEEE-754 — and lane `l` of a chunk always holds
//! element `k + l` of the stream with the same per-accumulator mapping as
//! the scalar 4-way loops (one ZMM chunk accumulates as two consecutive
//! 4-lane chunks). Choosing a level (or letting different machines
//! pick different levels) therefore never changes a single output bit;
//! only choosing a different *math mode* (`MathKind`) does. DESIGN.md
//! ("Vectorization & determinism") documents the full policy.
//!
//! The polynomial exponential [`poly_exp`] follows the classic Cephes
//! `exp` kernel (range reduction by `n = ⌊x·log₂e + ½⌋`, two-part `ln 2`
//! subtraction, a (2,3) rational in `r²`, exponent-field scaling by `2ⁿ`),
//! accurate to ≲2 ulp — the [`crate::fastmath::VectorMath`] mode uses it
//! so the scalar tail of a chunked loop agrees bit for bit with the packed
//! body.

use std::sync::OnceLock;

/// Fixed lane width of the chunked kernels (4 × f64 = one AVX2 register).
pub const LANES: usize = 4;

/// Which implementation of the chunked kernels runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Reference scalar loops, one element per iteration.
    Scalar,
    /// 4-lane chunked plain Rust (autovectorizable, no intrinsics).
    Portable,
    /// 4-lane AVX2+FMA intrinsics.
    Avx2,
    /// 8-lane AVX-512F energy kernel on top of the AVX2 set.
    Avx512,
}

impl SimdLevel {
    /// Detects the level: the `GB_SIMD` override if set (an unrecognized
    /// value falls back to auto-detection, and `avx512`/`avx2` without
    /// hardware support degrade to the next level down), else the widest
    /// unit the CPU offers (`avx512f` → `avx2`+`fma` → portable).
    pub fn detect() -> SimdLevel {
        match std::env::var("GB_SIMD") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "scalar" => SimdLevel::Scalar,
                "portable" => SimdLevel::Portable,
                "avx2" => {
                    if avx2_available() {
                        SimdLevel::Avx2
                    } else {
                        SimdLevel::Portable
                    }
                }
                "avx512" => {
                    if avx512_available() {
                        SimdLevel::Avx512
                    } else if avx2_available() {
                        SimdLevel::Avx2
                    } else {
                        SimdLevel::Portable
                    }
                }
                _ => Self::auto(),
            },
            Err(_) => Self::auto(),
        }
    }

    fn auto() -> SimdLevel {
        if avx512_available() {
            SimdLevel::Avx512
        } else if avx2_available() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Portable
        }
    }

    /// The process-wide level, detected once and cached.
    #[inline]
    pub fn active() -> SimdLevel {
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        *LEVEL.get_or_init(SimdLevel::detect)
    }

    /// Lowercase name for reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// The 8-lane energy kernel needs only `avx512f`, but the level also
/// dispatches the AVX2 kernels for everything narrower, so both units
/// must be present.
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    avx2_available() && std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_available() -> bool {
    false
}

// ---------------------------------------------------------------------------
// Polynomial exponential (Cephes exp kernel)
// ---------------------------------------------------------------------------

const EXP_LO: f64 = -708.0;
const EXP_HI: f64 = 709.0;
/// High part of `ln 2` (exactly representable in 20 bits, so `n·C1` is
/// exact for the reduced-range integer `n`).
const EXP_C1: f64 = 6.931_457_519_531_25e-1;
/// Low part: `ln 2 − C1`.
const EXP_C2: f64 = 1.428_606_820_309_417_2e-6;
const EXP_P0: f64 = 1.261_771_930_748_105_9e-4;
const EXP_P1: f64 = 3.029_944_077_074_419_6e-2;
const EXP_P2: f64 = 9.999_999_999_999_999e-1;
const EXP_Q0: f64 = 3.001_985_051_386_644_6e-6;
const EXP_Q1: f64 = 2.524_483_403_496_841e-3;
const EXP_Q2: f64 = 2.272_655_482_081_550_3e-1;
const EXP_Q3: f64 = 2.0;

/// Polynomial `e^x`, accurate to ≲2 ulp over `[-708, 709]`; underflows to
/// `0` below and saturates at `x = 709` above (the GB exponent is always
/// ≤ 0, where underflow to zero is the correct limit).
///
/// The AVX2 form ([`exp4`] at level `Avx2`) replays this exact operation
/// sequence with packed instructions, so the two are bit-identical.
#[inline]
pub fn poly_exp(x: f64) -> f64 {
    // Branch-free: clamp into [EXP_LO, EXP_HI], compute, then select the
    // underflow result at the end — the body is straight-line code, so a
    // 4-lane chunk of inlined calls autovectorizes, and the packed AVX2
    // form replays the identical clamp/compute/mask sequence.
    let xs = if x > EXP_HI { EXP_HI } else { x };
    let xs = if xs < EXP_LO { EXP_LO } else { xs };
    // n = ⌊x·log₂e + ½⌋ — floor (not round-to-nearest-even) so the packed
    // `_mm256_floor_pd` form makes the identical choice on every input
    let n = (std::f64::consts::LOG2_E * xs + 0.5).floor();
    // two-part reduction: r = x − n·ln2, |r| ≤ ln2/2 + 1 ulp
    let r = xs - n * EXP_C1;
    let r = r - n * EXP_C2;
    let rr = r * r;
    // exp(r) = 1 + 2rP(r²) / (Q(r²) − rP(r²))
    let p = r * ((EXP_P0 * rr + EXP_P1) * rr + EXP_P2);
    let q = ((EXP_Q0 * rr + EXP_Q1) * rr + EXP_Q2) * rr + EXP_Q3;
    let e = 2.0 * (p / (q - p)) + 1.0;
    // scale by 2ⁿ through the exponent field with the 2⁵² magic-number
    // trick (the packed form's biased-exponent shift, no int conversion):
    // n + 1023 ∈ [2, 2046] here, so the biased exponent is always valid
    let scale = f64::from_bits((n + 1023.0 + 4_503_599_627_370_496.0).to_bits() << 52);
    let v = e * scale;
    if x >= EXP_LO {
        v
    } else {
        0.0
    }
}

/// Portable 4-lane [`poly_exp`]: the scalar algorithm restructured as one
/// lane-map per operation, which the loop/SLP vectorizer turns into packed
/// code on any vector ISA the target offers (including 256/512-bit ones,
/// where it beats the fixed 4-lane intrinsics). Each lane replays the
/// scalar operation sequence exactly — bit-identical to [`poly_exp`].
#[inline]
fn poly_exp4_portable(x: [f64; LANES]) -> [f64; LANES] {
    let mut xs = [0.0; LANES];
    for l in 0..LANES {
        let v = if x[l] > EXP_HI { EXP_HI } else { x[l] };
        xs[l] = if v < EXP_LO { EXP_LO } else { v };
    }
    let mut n = [0.0; LANES];
    for l in 0..LANES {
        n[l] = (std::f64::consts::LOG2_E * xs[l] + 0.5).floor();
    }
    let mut r = [0.0; LANES];
    for l in 0..LANES {
        r[l] = xs[l] - n[l] * EXP_C1;
        r[l] -= n[l] * EXP_C2;
    }
    let mut e = [0.0; LANES];
    for l in 0..LANES {
        let rr = r[l] * r[l];
        let p = r[l] * ((EXP_P0 * rr + EXP_P1) * rr + EXP_P2);
        let q = ((EXP_Q0 * rr + EXP_Q1) * rr + EXP_Q2) * rr + EXP_Q3;
        e[l] = 2.0 * (p / (q - p)) + 1.0;
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        let scale =
            f64::from_bits((n[l] + 1023.0 + 4_503_599_627_370_496.0).to_bits() << 52);
        out[l] = if x[l] >= EXP_LO { e[l] * scale } else { 0.0 };
    }
    out
}

/// Four-lane [`poly_exp`]: packed AVX2 at level `Avx2`, the portable
/// lane-map form otherwise. Bit-identical across levels.
#[inline]
pub fn exp4(x: [f64; LANES]) -> [f64; LANES] {
    #[cfg(target_arch = "x86_64")]
    if matches!(SimdLevel::active(), SimdLevel::Avx2 | SimdLevel::Avx512) {
        // SAFETY: both levels are only selected when avx2+fma are detected
        // (a 4-lane argument fits one YMM register either way).
        return unsafe { avx2::exp4(x) };
    }
    poly_exp4_portable(x)
}

/// Four-lane `1/f_GB` with IEEE `1/√` and the polynomial exponential —
/// the packed Still-equation kernel behind `VectorMath::inv_f_gb4`.
/// Scalar form of each lane:
/// `1/sqrt(r² + RiRj · poly_exp(−r² / (4 RiRj)))`.
#[inline]
pub fn inv_f_gb4(r_sq: [f64; LANES], ri_rj: [f64; LANES]) -> [f64; LANES] {
    #[cfg(target_arch = "x86_64")]
    if matches!(SimdLevel::active(), SimdLevel::Avx2 | SimdLevel::Avx512) {
        // SAFETY: both levels are only selected when avx2+fma are detected
        // (a 4-lane argument fits one YMM register either way).
        return unsafe { avx2::inv_f_gb4(r_sq, ri_rj) };
    }
    let mut out = [0.0; LANES];
    let mut arg = [0.0; LANES];
    for l in 0..LANES {
        arg[l] = -r_sq[l] / (4.0 * ri_rj[l]);
    }
    let e = poly_exp4_portable(arg);
    for l in 0..LANES {
        out[l] = 1.0 / (r_sq[l] + ri_rj[l] * e[l]).sqrt();
    }
    out
}

/// Eight-lane `1/f_GB`: one ZMM register at the `Avx512` level, two
/// [`inv_f_gb4`] halves otherwise. Lane `l` is bit-identical to the
/// 4-lane and scalar kernels either way.
#[inline]
pub fn inv_f_gb8(r_sq: [f64; 8], ri_rj: [f64; 8]) -> [f64; 8] {
    #[cfg(target_arch = "x86_64")]
    if SimdLevel::active() == SimdLevel::Avx512 {
        // SAFETY: Avx512 is only selected when avx512f is detected.
        return unsafe { avx512::inv_f_gb8(r_sq, ri_rj) };
    }
    let lo = inv_f_gb4(
        [r_sq[0], r_sq[1], r_sq[2], r_sq[3]],
        [ri_rj[0], ri_rj[1], ri_rj[2], ri_rj[3]],
    );
    let hi = inv_f_gb4(
        [r_sq[4], r_sq[5], r_sq[6], r_sq[7]],
        [ri_rj[4], ri_rj[5], ri_rj[6], ri_rj[7]],
    );
    [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]]
}

/// Packed energy near-row: one `u` atom against a `v`-leaf span, whole
/// chunks only — packed distances and `1/f_GB` accumulated into the
/// four running sums with the scalar lane → accumulator mapping. Returns
/// the count of elements consumed (`0` unless a packed level is active;
/// the caller continues with the staged chunk loop / scalar tail from
/// there). At `Avx512` the row runs 8 lanes per iteration with any
/// remaining whole 4-lane chunk finished by the AVX2 kernel. Only valid
/// for math modes whose `exp` is [`poly_exp`] and whose `rsqrt` is IEEE
/// (`MathMode::LANE_ENERGY`) — bit-identical to the staged path for those
/// modes.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn energy_row4(
    vx: &[f64],
    vy: &[f64],
    vz: &[f64],
    vq: &[f64],
    vb: &[f64],
    u: [f64; 3],
    ru: f64,
    s: &mut [f64; LANES],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    match SimdLevel::active() {
        // SAFETY: Avx512 is only selected when avx512f+avx2+fma are
        // detected; the ZMM kernel eats 8-lane chunks, the YMM one
        // finishes a trailing 4-lane chunk (same chunk order and
        // accumulator mapping as the staged loop).
        SimdLevel::Avx512 => {
            return unsafe {
                let k = avx512::energy_row(vx, vy, vz, vq, vb, u, ru, s);
                k + avx2::energy_row(&vx[k..], &vy[k..], &vz[k..], &vq[k..], &vb[k..], u, ru, s)
            };
        }
        // SAFETY: level Avx2 is only selected when avx2+fma are detected.
        SimdLevel::Avx2 => return unsafe { avx2::energy_row(vx, vy, vz, vq, vb, u, ru, s) },
        _ => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (vx, vy, vz, vq, vb, u, ru, s);
    }
    0
}

/// A whole exact `(U, V)` leaf pair through the 8-lane AVX-512 kernel —
/// `Some(raw)` when the `Avx512` level is active, `None` otherwise (the
/// caller falls back to the staged row path). Same validity condition as
/// [`energy_row4`]: the math mode's `exp`/`rsqrt` must be the lane kernels
/// (`MathMode::LANE_ENERGY`), and the result is bit-identical to the
/// staged loops for those modes.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn energy_pair8(
    ux: &[f64],
    uy: &[f64],
    uz: &[f64],
    uq: &[f64],
    ub: &[f64],
    vx: &[f64],
    vy: &[f64],
    vz: &[f64],
    vq: &[f64],
    vb: &[f64],
) -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    if SimdLevel::active() == SimdLevel::Avx512 {
        // SAFETY: Avx512 is only selected when avx512f is detected.
        return Some(unsafe { avx512::energy_pair(ux, uy, uz, uq, ub, vx, vy, vz, vq, vb) });
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (ux, uy, uz, uq, ub, vx, vy, vz, vq, vb);
    }
    None
}

/// Whole-slice [`poly_exp`]: `out[t] = poly_exp(args[t])` at the active
/// level — ZMM 8-lane chunks at `Avx512` (trailing 4-lane chunk through the
/// YMM kernel), YMM chunks at `Avx2`, the portable lane-map at `Portable`,
/// and the plain scalar loop otherwise. Every element is bit-identical
/// across levels (the packed kernels replay the scalar op sequence), so the
/// tile kernels built on this are `to_bits()`-stable under `GB_SIMD`.
#[inline]
pub fn vector_exp_block(args: &[f64], out: &mut [f64]) {
    vector_exp_block_at(SimdLevel::active(), args, out)
}

/// [`vector_exp_block`] pinned to an explicit level — the property tests
/// sweep levels inside one process (the env-selected level is a `OnceLock`,
/// so they cannot flip `GB_SIMD` and re-dispatch).
pub(crate) fn vector_exp_block_at(level: SimdLevel, args: &[f64], out: &mut [f64]) {
    assert_eq!(args.len(), out.len());
    let n = args.len();
    let mut k = 0usize;
    #[cfg(target_arch = "x86_64")]
    {
        if level == SimdLevel::Avx512 {
            while k + 2 * LANES <= n {
                let mut x = [0.0f64; 2 * LANES];
                x.copy_from_slice(&args[k..k + 2 * LANES]);
                // SAFETY: Avx512 is only selected when avx512f is detected.
                let e = unsafe { avx512::exp8(x) };
                out[k..k + 2 * LANES].copy_from_slice(&e);
                k += 2 * LANES;
            }
        }
        if matches!(level, SimdLevel::Avx2 | SimdLevel::Avx512) {
            while k + LANES <= n {
                let mut x = [0.0f64; LANES];
                x.copy_from_slice(&args[k..k + LANES]);
                // SAFETY: both levels are only selected when avx2+fma are
                // detected.
                let e = unsafe { avx2::exp4(x) };
                out[k..k + LANES].copy_from_slice(&e);
                k += LANES;
            }
        }
    }
    if level == SimdLevel::Portable {
        while k + LANES <= n {
            let mut x = [0.0f64; LANES];
            x.copy_from_slice(&args[k..k + LANES]);
            let e = poly_exp4_portable(x);
            out[k..k + LANES].copy_from_slice(&e);
            k += LANES;
        }
    }
    while k < n {
        out[k] = poly_exp(args[k]);
        k += 1;
    }
}

// ---------------------------------------------------------------------------
// Reciprocal cube root (PUSH-INTEGRALS radius conversion, r⁶ form)
// ---------------------------------------------------------------------------

/// `x^(−1/3)` for `x > 0` without `powf`: an exponent-arithmetic seed
/// (`bits ≈ K − bits(x)/3`) refined by five Newton steps
/// `y ← y·(4 − x·y³)/3`. Relative error ≲ 1e-15 — the lane radius
/// conversion of `VectorMath` (ulp-bounded against `powf`, never used by
/// `ExactMath`).
#[inline]
pub fn recip_cbrt(x: f64) -> f64 {
    debug_assert!(x > 0.0);
    const ONE_THIRD: f64 = 1.0 / 3.0;
    let mut y = f64::from_bits(0x553e_f0ff_289d_d796_u64.wrapping_sub(x.to_bits() / 3));
    for _ in 0..5 {
        let y3 = y * y * y;
        y = y * (4.0 - x * y3) * ONE_THIRD;
    }
    y
}

/// Four-lane [`recip_cbrt`] — plain chunked form (the integer seed and
/// five multiply-only Newton steps autovectorize; no intrinsics needed).
#[inline]
pub fn recip_cbrt4(x: [f64; LANES]) -> [f64; LANES] {
    [recip_cbrt(x[0]), recip_cbrt(x[1]), recip_cbrt(x[2]), recip_cbrt(x[3])]
}

// ---------------------------------------------------------------------------
// AVX2 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Packed [`poly_exp`] core on a register (no under/overflow masking —
    /// callers clamp/mask). Mirrors the scalar op sequence exactly.
    ///
    /// # Safety
    /// Requires `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_pd_clamped(x: __m256d) -> __m256d {
        // clamp into [EXP_LO, EXP_HI]; lanes below EXP_LO are masked to
        // zero by the callers, matching the scalar early-return
        let x = _mm256_min_pd(x, _mm256_set1_pd(EXP_HI));
        let x = _mm256_max_pd(x, _mm256_set1_pd(EXP_LO));
        let n = _mm256_floor_pd(_mm256_add_pd(
            _mm256_mul_pd(_mm256_set1_pd(std::f64::consts::LOG2_E), x),
            _mm256_set1_pd(0.5),
        ));
        let r = _mm256_sub_pd(x, _mm256_mul_pd(n, _mm256_set1_pd(EXP_C1)));
        let r = _mm256_sub_pd(r, _mm256_mul_pd(n, _mm256_set1_pd(EXP_C2)));
        let rr = _mm256_mul_pd(r, r);
        let p = _mm256_mul_pd(
            r,
            _mm256_add_pd(
                _mm256_mul_pd(
                    _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(EXP_P0), rr), _mm256_set1_pd(EXP_P1)),
                    rr,
                ),
                _mm256_set1_pd(EXP_P2),
            ),
        );
        let q = _mm256_add_pd(
            _mm256_mul_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(
                        _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(EXP_Q0), rr), _mm256_set1_pd(EXP_Q1)),
                        rr,
                    ),
                    _mm256_set1_pd(EXP_Q2),
                ),
                rr,
            ),
            _mm256_set1_pd(EXP_Q3),
        );
        let e = _mm256_add_pd(
            _mm256_mul_pd(_mm256_set1_pd(2.0), _mm256_div_pd(p, _mm256_sub_pd(q, p))),
            _mm256_set1_pd(1.0),
        );
        // 2ⁿ: bias n, materialize the integer through the 2^52 trick, then
        // shift the mantissa field into the exponent field
        let biased = _mm256_add_pd(n, _mm256_set1_pd(1023.0));
        let magic = _mm256_add_pd(biased, _mm256_set1_pd(4_503_599_627_370_496.0)); // 2^52
        let bits = _mm256_castpd_si256(magic);
        let scale = _mm256_castsi256_pd(_mm256_slli_epi64(bits, 52));
        _mm256_mul_pd(e, scale)
    }

    /// Packed 4-lane exponential; lanes below `EXP_LO` flush to zero like
    /// the scalar kernel.
    ///
    /// # Safety
    /// Requires `avx2` and `fma` (checked by [`SimdLevel::active`]).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn exp4(x: [f64; LANES]) -> [f64; LANES] {
        let vx = _mm256_loadu_pd(x.as_ptr());
        let result = exp_pd_clamped(vx);
        let live = _mm256_cmp_pd::<_CMP_GE_OQ>(vx, _mm256_set1_pd(EXP_LO));
        let masked = _mm256_and_pd(result, live);
        let mut out = [0.0; LANES];
        _mm256_storeu_pd(out.as_mut_ptr(), masked);
        out
    }

    /// Packed 4-lane `1/f_GB` (see [`super::inv_f_gb4`]); the GB argument
    /// `−r²/(4RiRj)` is always ≤ 0 and far above the underflow cutoff for
    /// finite inputs, but the underflow mask is applied anyway so the
    /// portable and packed forms agree on every input.
    ///
    /// # Safety
    /// Requires `avx2` and `fma` (checked by [`SimdLevel::active`]).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn inv_f_gb4(r_sq: [f64; LANES], ri_rj: [f64; LANES]) -> [f64; LANES] {
        let vr = _mm256_loadu_pd(r_sq.as_ptr());
        let vrr = _mm256_loadu_pd(ri_rj.as_ptr());
        let sign = _mm256_set1_pd(-0.0);
        let arg = _mm256_div_pd(
            _mm256_xor_pd(vr, sign), // −r², sign flip exactly as scalar negation
            _mm256_mul_pd(_mm256_set1_pd(4.0), vrr),
        );
        let e = exp_pd_clamped(arg);
        let live = _mm256_cmp_pd::<_CMP_GE_OQ>(arg, _mm256_set1_pd(EXP_LO));
        let e = _mm256_and_pd(e, live);
        let f = _mm256_add_pd(vr, _mm256_mul_pd(vrr, e));
        let inv = _mm256_div_pd(_mm256_set1_pd(1.0), _mm256_sqrt_pd(f));
        let mut out = [0.0; LANES];
        _mm256_storeu_pd(out.as_mut_ptr(), inv);
        out
    }

    /// One `u` atom against a `v`-leaf span: the AVX2 form of the energy
    /// near-kernel's 4-lane chunk — packed distances (the scalar `mul_add`
    /// chain), packed `1/f_GB`, then per-lane accumulation into the four
    /// running sums in the scalar lane → accumulator order. Consumes whole
    /// chunks only and returns the next unprocessed index; the caller runs
    /// the scalar tail. Assumes the `VectorMath` kernels (polynomial exp,
    /// IEEE `1/√`); bit-identical to the staged `inv_f_gb4` chunk loop.
    ///
    /// # Safety
    /// Requires `avx2` and `fma` (checked by [`SimdLevel::active`]).
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn energy_row(
        vx: &[f64],
        vy: &[f64],
        vz: &[f64],
        vq: &[f64],
        vb: &[f64],
        u: [f64; 3],
        ru: f64,
        s: &mut [f64; LANES],
    ) -> usize {
        let m = vx.len();
        let vux = _mm256_set1_pd(u[0]);
        let vuy = _mm256_set1_pd(u[1]);
        let vuz = _mm256_set1_pd(u[2]);
        let vru = _mm256_set1_pd(ru);
        let sign = _mm256_set1_pd(-0.0);
        let four = _mm256_set1_pd(4.0);
        let one = _mm256_set1_pd(1.0);
        let mut k = 0usize;
        while k + LANES <= m {
            let dx = _mm256_sub_pd(_mm256_loadu_pd(vx.as_ptr().add(k)), vux);
            let dy = _mm256_sub_pd(_mm256_loadu_pd(vy.as_ptr().add(k)), vuy);
            let dz = _mm256_sub_pd(_mm256_loadu_pd(vz.as_ptr().add(k)), vuz);
            let r_sq = _mm256_fmadd_pd(dz, dz, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dx, dx)));
            let rr = _mm256_mul_pd(vru, _mm256_loadu_pd(vb.as_ptr().add(k)));
            // packed 1/f_GB, op-mirrored to `inv_f_gb4`
            let arg = _mm256_div_pd(_mm256_xor_pd(r_sq, sign), _mm256_mul_pd(four, rr));
            let e = exp_pd_clamped(arg);
            let live = _mm256_cmp_pd::<_CMP_GE_OQ>(arg, _mm256_set1_pd(EXP_LO));
            let e = _mm256_and_pd(e, live);
            let f = _mm256_add_pd(r_sq, _mm256_mul_pd(rr, e));
            let inv = _mm256_div_pd(one, _mm256_sqrt_pd(f));
            let term = _mm256_mul_pd(_mm256_loadu_pd(vq.as_ptr().add(k)), inv);
            let mut t = [0.0; LANES];
            _mm256_storeu_pd(t.as_mut_ptr(), term);
            // lane l of every chunk feeds accumulator l, as in the scalar
            // stride-4 loop
            for l in 0..LANES {
                s[l] += t[l];
            }
            k += LANES;
        }
        k
    }
}

// ---------------------------------------------------------------------------
// AVX-512 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    /// ZMM width in f64 lanes — exactly two accumulator chunks ([`LANES`]).
    const W: usize = 2 * LANES;

    /// Packed [`poly_exp`] core on a 512-bit register (no underflow mask —
    /// callers mask). Per lane the identical op sequence to the scalar and
    /// AVX2 forms; every op is correctly rounded, so bit-identical.
    ///
    /// # Safety
    /// Requires `avx512f`.
    #[target_feature(enable = "avx512f")]
    unsafe fn exp_pd_clamped(x: __m512d) -> __m512d {
        let x = _mm512_min_pd(x, _mm512_set1_pd(EXP_HI));
        let x = _mm512_max_pd(x, _mm512_set1_pd(EXP_LO));
        // roundscale imm 0x01 = round toward −∞, scale 2⁰ — the ZMM floor
        let n = _mm512_roundscale_pd::<0x01>(_mm512_add_pd(
            _mm512_mul_pd(_mm512_set1_pd(std::f64::consts::LOG2_E), x),
            _mm512_set1_pd(0.5),
        ));
        let r = _mm512_sub_pd(x, _mm512_mul_pd(n, _mm512_set1_pd(EXP_C1)));
        let r = _mm512_sub_pd(r, _mm512_mul_pd(n, _mm512_set1_pd(EXP_C2)));
        let rr = _mm512_mul_pd(r, r);
        let p = _mm512_mul_pd(
            r,
            _mm512_add_pd(
                _mm512_mul_pd(
                    _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(EXP_P0), rr), _mm512_set1_pd(EXP_P1)),
                    rr,
                ),
                _mm512_set1_pd(EXP_P2),
            ),
        );
        let q = _mm512_add_pd(
            _mm512_mul_pd(
                _mm512_add_pd(
                    _mm512_mul_pd(
                        _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(EXP_Q0), rr), _mm512_set1_pd(EXP_Q1)),
                        rr,
                    ),
                    _mm512_set1_pd(EXP_Q2),
                ),
                rr,
            ),
            _mm512_set1_pd(EXP_Q3),
        );
        let e = _mm512_add_pd(
            _mm512_mul_pd(_mm512_set1_pd(2.0), _mm512_div_pd(p, _mm512_sub_pd(q, p))),
            _mm512_set1_pd(1.0),
        );
        let biased = _mm512_add_pd(n, _mm512_set1_pd(1023.0));
        let magic = _mm512_add_pd(biased, _mm512_set1_pd(4_503_599_627_370_496.0)); // 2^52
        let bits = _mm512_castpd_si512(magic);
        let scale = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(bits));
        _mm512_mul_pd(e, scale)
    }

    /// Packed 8-lane exponential; lanes below `EXP_LO` flush to zero like
    /// the scalar kernel — the ZMM widening of [`super::avx2::exp4`].
    ///
    /// # Safety
    /// Requires `avx512f` (checked by [`SimdLevel::active`]).
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn exp8(x: [f64; W]) -> [f64; W] {
        let vx = _mm512_loadu_pd(x.as_ptr());
        let result = exp_pd_clamped(vx);
        let live = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(vx, _mm512_set1_pd(EXP_LO));
        let masked = _mm512_maskz_mov_pd(live, result);
        let mut out = [0.0; W];
        _mm512_storeu_pd(out.as_mut_ptr(), masked);
        out
    }

    /// One `u` atom against a `v`-leaf span at 8 lanes per iteration — the
    /// ZMM widening of [`super::avx2::energy_row`]. One 8-lane chunk is
    /// accumulated as two consecutive 4-lane chunks (accumulator `l` takes
    /// `t[l]` then `t[LANES + l]`), so the per-accumulator addition order
    /// matches the staged loop exactly; all lanewise ops mirror the scalar
    /// sequence. Consumes whole 8-lane chunks only and returns the next
    /// unprocessed index.
    ///
    /// # Safety
    /// Requires `avx512f` (checked by [`SimdLevel::active`]).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn energy_row(
        vx: &[f64],
        vy: &[f64],
        vz: &[f64],
        vq: &[f64],
        vb: &[f64],
        u: [f64; 3],
        ru: f64,
        s: &mut [f64; LANES],
    ) -> usize {
        let m = vx.len();
        let vux = _mm512_set1_pd(u[0]);
        let vuy = _mm512_set1_pd(u[1]);
        let vuz = _mm512_set1_pd(u[2]);
        let vru = _mm512_set1_pd(ru);
        // sign-bit flip through the integer domain (plain avx512f; the
        // float xor needs avx512dq) — identical bits to scalar negation
        let signbits = _mm512_set1_epi64(i64::MIN);
        let four = _mm512_set1_pd(4.0);
        let one = _mm512_set1_pd(1.0);
        let mut k = 0usize;
        while k + W <= m {
            let dx = _mm512_sub_pd(_mm512_loadu_pd(vx.as_ptr().add(k)), vux);
            let dy = _mm512_sub_pd(_mm512_loadu_pd(vy.as_ptr().add(k)), vuy);
            let dz = _mm512_sub_pd(_mm512_loadu_pd(vz.as_ptr().add(k)), vuz);
            let r_sq = _mm512_fmadd_pd(dz, dz, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dx, dx)));
            let rr = _mm512_mul_pd(vru, _mm512_loadu_pd(vb.as_ptr().add(k)));
            let neg =
                _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(r_sq), signbits));
            let arg = _mm512_div_pd(neg, _mm512_mul_pd(four, rr));
            let e = exp_pd_clamped(arg);
            let live = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(arg, _mm512_set1_pd(EXP_LO));
            let e = _mm512_maskz_mov_pd(live, e);
            let f = _mm512_add_pd(r_sq, _mm512_mul_pd(rr, e));
            let inv = _mm512_div_pd(one, _mm512_sqrt_pd(f));
            let term = _mm512_mul_pd(_mm512_loadu_pd(vq.as_ptr().add(k)), inv);
            let mut t = [0.0; W];
            _mm512_storeu_pd(t.as_mut_ptr(), term);
            for l in 0..LANES {
                s[l] += t[l];
            }
            for l in 0..LANES {
                s[l] += t[LANES + l];
            }
            k += W;
        }
        k
    }

    /// Packed 8-lane `1/f_GB` (see [`super::inv_f_gb8`]) — the ZMM
    /// widening of [`super::avx2::inv_f_gb4`], op for op.
    ///
    /// # Safety
    /// Requires `avx512f` (checked by [`SimdLevel::active`]).
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn inv_f_gb8(r_sq: [f64; W], ri_rj: [f64; W]) -> [f64; W] {
        let vr = _mm512_loadu_pd(r_sq.as_ptr());
        let vrr = _mm512_loadu_pd(ri_rj.as_ptr());
        let signbits = _mm512_set1_epi64(i64::MIN);
        let neg = _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(vr), signbits));
        let arg = _mm512_div_pd(neg, _mm512_mul_pd(_mm512_set1_pd(4.0), vrr));
        let e = exp_pd_clamped(arg);
        let live = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(arg, _mm512_set1_pd(EXP_LO));
        let e = _mm512_maskz_mov_pd(live, e);
        let f = _mm512_add_pd(vr, _mm512_mul_pd(vrr, e));
        let inv = _mm512_div_pd(_mm512_set1_pd(1.0), _mm512_sqrt_pd(f));
        let mut out = [0.0; W];
        _mm512_storeu_pd(out.as_mut_ptr(), inv);
        out
    }

    /// A whole exact `(U, V)` leaf pair in one call: every `u` row runs
    /// 8-lane chunks plus one masked-load iteration for the row tail, with
    /// the register constants broadcast once per pair instead of once per
    /// row. Dead tail lanes may compute garbage (`0/0` chains) but are
    /// never read back — only lanes `< rem` of the spilled terms feed the
    /// accumulators, in the scalar staged-loop/tail order exactly:
    /// whole 4-lane chunks go to accumulator `l`, leftovers sequentially
    /// to accumulator 0, and each row closes with
    /// `raw += q_u · ((s0+s1) + (s2+s3))`. Bit-identical to the staged
    /// path under `VectorMath` ([`MathMode::LANE_ENERGY`]).
    ///
    /// # Safety
    /// Requires `avx512f` (checked by [`SimdLevel::active`]). All `u`
    /// slices must share one length, as must all `v` slices.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn energy_pair(
        ux: &[f64],
        uy: &[f64],
        uz: &[f64],
        uq: &[f64],
        ub: &[f64],
        vx: &[f64],
        vy: &[f64],
        vz: &[f64],
        vq: &[f64],
        vb: &[f64],
    ) -> f64 {
        let m = vx.len();
        let signbits = _mm512_set1_epi64(i64::MIN);
        let four = _mm512_set1_pd(4.0);
        let one = _mm512_set1_pd(1.0);
        let full = m / W * W;
        let rem = m - full;
        let tail_mask: __mmask8 = (1u16 << rem).wrapping_sub(1) as __mmask8;
        let mut raw = 0.0;
        for i in 0..ux.len() {
            let vux = _mm512_set1_pd(ux[i]);
            let vuy = _mm512_set1_pd(uy[i]);
            let vuz = _mm512_set1_pd(uz[i]);
            let vru = _mm512_set1_pd(ub[i]);
            // the four staged-loop accumulators live in one YMM register;
            // a ZMM chunk lands as two packed 4-lane adds (low then high
            // half), matching the staged per-accumulator addition order
            let mut sv = _mm256_setzero_pd();
            let mut k = 0usize;
            let mut t = [0.0f64; W];
            while k + W <= m {
                let dx = _mm512_sub_pd(_mm512_loadu_pd(vx.as_ptr().add(k)), vux);
                let dy = _mm512_sub_pd(_mm512_loadu_pd(vy.as_ptr().add(k)), vuy);
                let dz = _mm512_sub_pd(_mm512_loadu_pd(vz.as_ptr().add(k)), vuz);
                let r_sq =
                    _mm512_fmadd_pd(dz, dz, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dx, dx)));
                let rr = _mm512_mul_pd(vru, _mm512_loadu_pd(vb.as_ptr().add(k)));
                let neg =
                    _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(r_sq), signbits));
                let arg = _mm512_div_pd(neg, _mm512_mul_pd(four, rr));
                let e = exp_pd_clamped(arg);
                let live = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(arg, _mm512_set1_pd(EXP_LO));
                let e = _mm512_maskz_mov_pd(live, e);
                let f = _mm512_add_pd(r_sq, _mm512_mul_pd(rr, e));
                let inv = _mm512_div_pd(one, _mm512_sqrt_pd(f));
                let term = _mm512_mul_pd(_mm512_loadu_pd(vq.as_ptr().add(k)), inv);
                sv = _mm256_add_pd(sv, _mm512_castpd512_pd256(term));
                sv = _mm256_add_pd(sv, _mm512_extractf64x4_pd::<1>(term));
                k += W;
            }
            let mut tail_from = 0usize;
            if rem > 0 {
                let dx = _mm512_sub_pd(_mm512_maskz_loadu_pd(tail_mask, vx.as_ptr().add(k)), vux);
                let dy = _mm512_sub_pd(_mm512_maskz_loadu_pd(tail_mask, vy.as_ptr().add(k)), vuy);
                let dz = _mm512_sub_pd(_mm512_maskz_loadu_pd(tail_mask, vz.as_ptr().add(k)), vuz);
                let r_sq =
                    _mm512_fmadd_pd(dz, dz, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dx, dx)));
                let rr =
                    _mm512_mul_pd(vru, _mm512_maskz_loadu_pd(tail_mask, vb.as_ptr().add(k)));
                let neg =
                    _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(r_sq), signbits));
                let arg = _mm512_div_pd(neg, _mm512_mul_pd(four, rr));
                let e = exp_pd_clamped(arg);
                let live = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(arg, _mm512_set1_pd(EXP_LO));
                let e = _mm512_maskz_mov_pd(live, e);
                let f = _mm512_add_pd(r_sq, _mm512_mul_pd(rr, e));
                let inv = _mm512_div_pd(one, _mm512_sqrt_pd(f));
                let term =
                    _mm512_mul_pd(_mm512_maskz_loadu_pd(tail_mask, vq.as_ptr().add(k)), inv);
                _mm512_storeu_pd(t.as_mut_ptr(), term);
                if rem >= LANES {
                    sv = _mm256_add_pd(sv, _mm512_castpd512_pd256(term));
                    tail_from = LANES;
                }
            }
            // spill the packed accumulators, then the sub-chunk leftovers
            // go sequentially into accumulator 0 — the scalar tail order
            let mut s = [0.0f64; LANES];
            _mm256_storeu_pd(s.as_mut_ptr(), sv);
            for &tv in &t[tail_from..rem] {
                s[0] += tv;
            }
            raw += uq[i] * ((s[0] + s[1]) + (s[2] + s[3]));
        }
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_exp_matches_libm_tightly() {
        // the GB range is (−∞, 0]; cover the positive side too since the
        // kernel is general
        let mut worst: f64 = 0.0;
        for i in -7000..=7000 {
            let x = i as f64 * 0.1;
            let got = poly_exp(x);
            let want = x.exp();
            if want == 0.0 || !want.is_finite() {
                continue;
            }
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
        }
        assert!(worst < 1e-15, "worst rel err {worst}");
    }

    #[test]
    fn poly_exp_edges() {
        assert_eq!(poly_exp(0.0), 1.0);
        assert_eq!(poly_exp(-1e4), 0.0);
        assert_eq!(poly_exp(f64::NEG_INFINITY), 0.0);
        assert!(poly_exp(800.0).is_finite()); // saturates at EXP_HI
        assert!(poly_exp(709.0) > 1e307);
    }

    #[test]
    fn exp4_matches_scalar_bitwise_at_active_level() {
        // whatever level is active, the lanes must equal poly_exp exactly
        for base in [-600.0, -50.0, -3.0, -0.2, 0.0, 0.7, 300.0] {
            let x = [base, base + 0.013, base + 1.7, base + 2.9];
            let got = exp4(x);
            for l in 0..LANES {
                assert_eq!(
                    got[l].to_bits(),
                    poly_exp(x[l]).to_bits(),
                    "lane {l} of {x:?} at level {:?}",
                    SimdLevel::active()
                );
            }
        }
    }

    #[test]
    fn vector_exp_block_matches_scalar_bitwise_at_every_level() {
        // odd length so every level exercises its masked/scalar tail
        let args: Vec<f64> =
            (0..37).map(|i| -0.37 * i as f64 * i as f64 + 0.11 * i as f64).collect();
        let mut levels = vec![SimdLevel::Scalar, SimdLevel::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                levels.push(SimdLevel::Avx2);
                if std::arch::is_x86_feature_detected!("avx512f") {
                    levels.push(SimdLevel::Avx512);
                }
            }
        }
        let mut out = vec![0.0; args.len()];
        for level in levels {
            out.iter_mut().for_each(|v| *v = f64::NAN);
            vector_exp_block_at(level, &args, &mut out);
            for (t, (&a, &o)) in args.iter().zip(&out).enumerate() {
                assert_eq!(o.to_bits(), poly_exp(a).to_bits(), "t={t} at {level:?}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_exp_is_bit_identical_to_scalar_everywhere() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("fma")
        {
            return;
        }
        for i in -3000..3000 {
            let x0 = i as f64 * 0.237;
            let x = [x0, x0 * 0.5 - 1.0, x0 * 0.01, -x0];
            let packed = unsafe { avx2::exp4(x) };
            for l in 0..LANES {
                assert_eq!(packed[l].to_bits(), poly_exp(x[l]).to_bits(), "x={:?} lane {l}", x);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_inv_f_gb_is_bit_identical_to_portable() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("fma")
        {
            return;
        }
        for i in 0..500 {
            let r0 = 0.01 + i as f64 * 0.37;
            let r_sq = [r0, r0 * 2.0, r0 * 10.0, r0 * 0.3];
            let rr = [1.7, 4.2, 0.9, 12.0];
            let packed = unsafe { avx2::inv_f_gb4(r_sq, rr) };
            for l in 0..LANES {
                let arg = -r_sq[l] / (4.0 * rr[l]);
                let want = 1.0 / (r_sq[l] + rr[l] * poly_exp(arg)).sqrt();
                assert_eq!(packed[l].to_bits(), want.to_bits(), "lane {l}");
            }
        }
    }

    #[test]
    fn recip_cbrt_accuracy() {
        let mut worst: f64 = 0.0;
        for i in 0..4000 {
            let x = 1e-9 * 1.012f64.powi(i); // geometric sweep over ~20 decades
            let got = recip_cbrt(x);
            let want = x.powf(-1.0 / 3.0);
            worst = worst.max(((got - want) / want).abs());
        }
        assert!(worst < 1e-12, "worst rel err {worst}");
    }

    #[test]
    fn detect_honours_env_override_shape() {
        // can't mutate the env of the already-cached process level safely;
        // just pin the parsing contract on a fresh detect() call
        let lvl = SimdLevel::detect();
        assert!(matches!(
            lvl,
            SimdLevel::Scalar | SimdLevel::Portable | SimdLevel::Avx2 | SimdLevel::Avx512
        ));
        assert!(!lvl.name().is_empty());
    }

    /// Scalar replay of one energy near-row term, op for op (the staged
    /// chunk body of `energy_pair_batched` under `VectorMath`).
    #[cfg(target_arch = "x86_64")]
    fn scalar_row_term(
        vx: &[f64],
        vy: &[f64],
        vz: &[f64],
        vq: &[f64],
        vb: &[f64],
        u: [f64; 3],
        ru: f64,
        k: usize,
    ) -> f64 {
        let dx = vx[k] - u[0];
        let dy = vy[k] - u[1];
        let dz = vz[k] - u[2];
        let r_sq = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
        let rr = ru * vb[k];
        let e = poly_exp(-r_sq / (4.0 * rr));
        // q · (1/√f), two roundings, exactly as the staged loop's
        // `vq[k] * inv[l]` — NOT the single-division q/√f
        vq[k] * (1.0 / (r_sq + rr * e).sqrt())
    }

    #[cfg(target_arch = "x86_64")]
    fn synth_row(m: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        // deterministic quasi-random row data in physical ranges
        let g = |i: usize, salt: f64| ((i as f64 * 0.737 + salt) * 7.13).sin() * 4.0;
        let vx: Vec<f64> = (0..m).map(|i| g(i, 0.1)).collect();
        let vy: Vec<f64> = (0..m).map(|i| g(i, 1.9)).collect();
        let vz: Vec<f64> = (0..m).map(|i| g(i, 3.7)).collect();
        let vq: Vec<f64> = (0..m).map(|i| 0.1 + g(i, 5.3).abs() * 0.2).collect();
        let vb: Vec<f64> = (0..m).map(|i| 1.0 + g(i, 7.7).abs()).collect();
        (vx, vy, vz, vq, vb)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_energy_row_is_bit_identical_to_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("fma")
        {
            return;
        }
        for m in [0usize, 3, 4, 5, 7, 8, 11, 16, 23] {
            let (vx, vy, vz, vq, vb) = synth_row(m);
            let u = [0.4, -1.2, 2.2];
            let ru = 2.5;
            let mut s = [0.0f64; LANES];
            let k = unsafe { avx2::energy_row(&vx, &vy, &vz, &vq, &vb, u, ru, &mut s) };
            assert_eq!(k, m / LANES * LANES, "m={m}");
            let mut want = [0.0f64; LANES];
            for c in (0..k).step_by(LANES) {
                for l in 0..LANES {
                    want[l] += scalar_row_term(&vx, &vy, &vz, &vq, &vb, u, ru, c + l);
                }
            }
            for l in 0..LANES {
                assert_eq!(s[l].to_bits(), want[l].to_bits(), "m={m} lane {l}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_energy_row_is_bit_identical_to_scalar() {
        if !std::arch::is_x86_feature_detected!("avx512f") || !avx2_available() {
            return;
        }
        for m in [0usize, 7, 8, 9, 15, 16, 24, 37] {
            let (vx, vy, vz, vq, vb) = synth_row(m);
            let u = [-0.9, 0.3, 1.4];
            let ru = 3.1;
            let mut s = [0.0f64; LANES];
            let k = unsafe { avx512::energy_row(&vx, &vy, &vz, &vq, &vb, u, ru, &mut s) };
            assert_eq!(k, m / (2 * LANES) * (2 * LANES), "m={m}");
            // the ZMM kernel must equal the 4-lane chunk sequence exactly
            let mut want = [0.0f64; LANES];
            for c in (0..k).step_by(LANES) {
                for l in 0..LANES {
                    want[l] += scalar_row_term(&vx, &vy, &vz, &vq, &vb, u, ru, c + l);
                }
            }
            for l in 0..LANES {
                assert_eq!(s[l].to_bits(), want[l].to_bits(), "m={m} lane {l}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_energy_pair_is_bit_identical_to_staged() {
        if !std::arch::is_x86_feature_detected!("avx512f") || !avx2_available() {
            return;
        }
        for (nu, m) in [(1usize, 1usize), (3, 5), (8, 8), (8, 7), (5, 12), (7, 16), (2, 0)] {
            let (ux, uy, uz, uq, ub) = synth_row(nu);
            let (vx, vy, vz, vq, vb) = synth_row(m);
            let got =
                unsafe { avx512::energy_pair(&ux, &uy, &uz, &uq, &ub, &vx, &vy, &vz, &vq, &vb) };
            // staged-loop replay: 4-lane chunks to accumulator l, tail to
            // accumulator 0, per-row horizontal close
            let mut want = 0.0f64;
            for i in 0..nu {
                let u = [ux[i], uy[i], uz[i]];
                let mut s = [0.0f64; LANES];
                let mut k = 0usize;
                while k + LANES <= m {
                    for l in 0..LANES {
                        s[l] += scalar_row_term(&vx, &vy, &vz, &vq, &vb, u, ub[i], k + l);
                    }
                    k += LANES;
                }
                while k < m {
                    s[0] += scalar_row_term(&vx, &vy, &vz, &vq, &vb, u, ub[i], k);
                    k += 1;
                }
                want += uq[i] * ((s[0] + s[1]) + (s[2] + s[3]));
            }
            assert_eq!(got.to_bits(), want.to_bits(), "nu={nu} m={m}");
        }
    }
}
