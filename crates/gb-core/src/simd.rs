//! The host's SIMD level and the in-crate exponential of the exact math
//! mode.
//!
//! [`SimdLevel`] names the widest vector unit the CPU offers (`portable`,
//! `avx2`, `avx512`). It is a report only — benchmark stamps record it —
//! and selects no code path: nothing in the crate is hand-packed. With
//! `-C target-cpu=native` the compiler autovectorizes the hot loops at
//! the host's full register width, and that has beaten every intrinsic
//! kernel measured here: the 4-lane AVX2 Born near-field kernel (111 vs
//! 82 ms Born exec at 10k atoms, AVX-512 host) and the AVX2 / AVX-512
//! packed exponential, whose default energy exec at 20k atoms (582 ms
//! scalar loop, 564 portable, 601 avx2, 578 avx512) sat inside the
//! run-to-run noise of the plain loop. Both were removed. Results
//! therefore cannot depend on the level. DESIGN.md ("Vectorization &
//! determinism") documents the policy.
//!
//! The polynomial exponential [`poly_exp`] follows the classic Cephes
//! `exp` kernel (range reduction by `n = ⌊x·log₂e + ½⌋`, two-part `ln 2`
//! subtraction, a (2,3) rational in `r²`, exponent-field scaling by `2ⁿ`),
//! accurate to ≲2 ulp (`< 1e-15` relative to libm). It is the exact
//! mode's exponential ([`crate::fastmath::ExactMath`]), so energies do not
//! depend on the host's libm version. [`poly_inv_f_gb`] is the exact
//! mode's GB pair kernel: the same reduction and rational, folded into
//! `1/f_GB` over one common denominator. Both bodies are branch-free, so
//! the tile kernels' per-element loops over them autovectorize.

use std::sync::OnceLock;

/// The widest vector unit of the host, as reported in benchmark stamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// A vector unit narrower than AVX2+FMA, or none detected.
    Portable,
    /// AVX2 with FMA.
    Avx2,
    /// AVX-512F on top of AVX2+FMA.
    Avx512,
}

impl SimdLevel {
    /// The widest unit the CPU offers (`avx512f` → `avx2`+`fma` →
    /// portable), detected once per process and cached.
    #[inline]
    pub fn active() -> SimdLevel {
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            if avx512_available() {
                SimdLevel::Avx512
            } else if avx2_available() {
                SimdLevel::Avx2
            } else {
                SimdLevel::Portable
            }
        })
    }

    /// Lowercase name for reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
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

/// The Cephes reduction shared by [`poly_exp`] and [`poly_inv_f_gb`]:
/// clamps `x` into `[EXP_LO, EXP_HI]` and returns `(p, q, 2ⁿ)` with
/// `e^x ≈ 2ⁿ·(q + p)/(q − p)`. Straight-line code (clamps are selects).
#[inline(always)]
fn exp_parts(x: f64) -> (f64, f64, f64) {
    let xs = if x > EXP_HI { EXP_HI } else { x };
    let xs = if xs < EXP_LO { EXP_LO } else { xs };
    // n = ⌊x·log₂e + ½⌋
    let n = (std::f64::consts::LOG2_E * xs + 0.5).floor();
    // two-part reduction: r = x − n·ln2, |r| ≤ ln2/2 + 1 ulp
    let r = xs - n * EXP_C1;
    let r = r - n * EXP_C2;
    let rr = r * r;
    // exp(r) = (Q(r²) + rP(r²)) / (Q(r²) − rP(r²))
    let p = r * ((EXP_P0 * rr + EXP_P1) * rr + EXP_P2);
    let q = ((EXP_Q0 * rr + EXP_Q1) * rr + EXP_Q2) * rr + EXP_Q3;
    // scale by 2ⁿ through the exponent field with the 2⁵² magic-number
    // trick (no int conversion): n + 1023 ∈ [2, 2046] here, so the biased
    // exponent is always valid
    let scale = f64::from_bits((n + 1023.0 + 4_503_599_627_370_496.0).to_bits() << 52);
    (p, q, scale)
}

/// Polynomial `e^x`, accurate to ≲2 ulp over `[-708, 709]`; underflows to
/// `0` below and saturates at `x = 709` above (the GB exponent is always
/// ≤ 0, where underflow to zero is the correct limit). A NaN argument is
/// returned unchanged.
#[inline]
pub fn poly_exp(x: f64) -> f64 {
    // Branch-free: clamp, compute, then select the underflow / NaN result
    // at the end — the body is straight-line code, so a loop of inlined
    // calls autovectorizes.
    let (p, q, scale) = exp_parts(x);
    let e = 2.0 * (p / (q - p)) + 1.0;
    // 0 below the underflow cutoff, the argument itself (bits unchanged)
    // for NaN — a single `x >= EXP_LO` test would be false for NaN and
    // flush it to a silent finite zero — else the computed value
    if x < EXP_LO {
        0.0
    } else if x.is_nan() {
        x
    } else {
        e * scale
    }
}

/// The GB pair kernel `1/f_GB = 1/√(r² + RᵢRⱼ·e^{−r²/(4RᵢRⱼ)})` with
/// [`poly_exp`]'s rational folded into the root: with
/// `e^x = 2ⁿ(q + p)/(q − p)`,
/// `1/f_GB = √((q − p) / (r²(q − p) + RᵢRⱼ·2ⁿ(q + p)))` — the argument
/// divide, one more divide and one square root, where the composed
/// `rsqrt(r² + RᵢRⱼ·poly_exp(x))` pays three divides and the root. Within
/// `5e-16` relative of the composed libm formula over the GB range
/// (`ri_rj > 0`, `r_sq ≥ 0`); the exponential term is dropped below
/// [`poly_exp`]'s underflow cutoff (the result tends to `1/r`), and a NaN
/// in either argument comes out as NaN.
#[inline]
pub fn poly_inv_f_gb(r_sq: f64, ri_rj: f64) -> f64 {
    let x = -r_sq / (4.0 * ri_rj);
    let (p, q, scale) = exp_parts(x);
    let den = q - p;
    // RᵢRⱼ·e^x over the common denominator; `x < EXP_LO` is false for NaN,
    // so a NaN argument reaches the result
    let t = if x < EXP_LO {
        0.0
    } else {
        ri_rj * scale * (q + p)
    };
    (den / r_sq.mul_add(den, t)).sqrt()
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
        // NaN propagates (bits unchanged) instead of flushing to zero
        for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_dead_beef_0001)] {
            assert_eq!(poly_exp(nan).to_bits(), nan.to_bits());
        }
    }

    #[test]
    fn active_level_is_cached_and_named() {
        let lvl = SimdLevel::active();
        assert_eq!(lvl, SimdLevel::active());
        assert!(["portable", "avx2", "avx512"].contains(&lvl.name()));
    }
}
