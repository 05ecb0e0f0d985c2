//! The Generalized Born formulas (paper Eqs. 2 and 4).

use crate::fastmath::MathMode;

/// Coulomb constant in kcal·Å/(mol·e²): converts `q₁q₂/r` with charges in
/// elementary charges and distances in Å to kcal/mol.
pub const COULOMB_KCAL: f64 = 332.063_714;

/// `4π`.
pub const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

/// The Still GB effective distance
/// `f_GB = sqrt(r² + R_i R_j exp(−r² / (4 R_i R_j)))`, returned as its
/// reciprocal (the quantity the energy actually needs), composed from the
/// `rsqrt` and `exp` kernels of `M`. This is the reference composition:
/// the seed per-leaf traversal (`energy::energy_for_leaf`) evaluates it,
/// and it is [`MathMode::inv_f_gb`]'s default. The production energy paths
/// call [`MathMode::inv_f_gb`], which [`crate::fastmath::ExactMath`]
/// overrides with a fused kernel.
#[inline(always)]
pub fn inv_f_gb<M: MathMode>(r_sq: f64, ri_rj: f64) -> f64 {
    debug_assert!(ri_rj > 0.0);
    M::rsqrt(r_sq + ri_rj * M::exp(-r_sq / (4.0 * ri_rj)))
}

/// One ordered-pair contribution to the *raw* energy sum `Σ q_i q_j / f_GB`
/// (prefactors applied at the end by [`finalize_energy`]), through the
/// mode's pair kernel [`MathMode::inv_f_gb`].
#[inline(always)]
pub fn pair_term<M: MathMode>(qi_qj: f64, r_sq: f64, ri_rj: f64) -> f64 {
    qi_qj * M::inv_f_gb(r_sq, ri_rj)
}

/// Applies the GB prefactor: `E_pol = −τ/2 · k_C · Σ_{i,j} q_i q_j / f_GB`
/// (Eq. 2), with `τ = 1 − 1/ε_solvent` and the raw sum over *all ordered*
/// pairs including `i = j`.
#[inline]
pub fn finalize_energy(raw_sum: f64, tau: f64) -> f64 {
    -0.5 * tau * COULOMB_KCAL * raw_sum
}

/// Converts an accumulated surface integral
/// `s = Σ_k w_k (r_k − x)·n_k / |r_k − x|⁶` into a Born radius:
/// `R = (s / 4π)^(−1/3)`, floored at the atom's vdW radius (a Born radius
/// can never be smaller than the atom itself; the paper's Fig. 2 applies
/// the same `max`).
///
/// A non-positive `s` (possible for atoms near concave surface patches
/// under coarse quadrature) formally means an infinite Born radius; it is
/// clamped to `cap` — large but finite — so downstream energy terms stay
/// finite.
#[inline]
pub fn born_radius_from_integral(s: f64, r_vdw: f64, cap: f64) -> f64 {
    if s <= 0.0 {
        return cap.max(r_vdw);
    }
    let r = (s / FOUR_PI).powf(-1.0 / 3.0);
    r.clamp(r_vdw, cap.max(r_vdw))
}

/// The r⁴ counterpart (paper Eq. 3, the Coulomb-field approximation):
/// `s = Σ_k w_k (r_k − x)·n_k / |r_k − x|⁴` gives `1/R = s / 4π`, so
/// `R = 4π / s` (same clamping semantics as the r⁶ form).
#[inline]
pub fn born_radius_from_integral_r4(s: f64, r_vdw: f64, cap: f64) -> f64 {
    if s <= 0.0 {
        return cap.max(r_vdw);
    }
    (FOUR_PI / s).clamp(r_vdw, cap.max(r_vdw))
}

/// Which Born-radius surface approximation the kernels evaluate: the
/// paper presents both the r⁴ form (Eq. 3, Coulomb-field approximation)
/// and the r⁶ form (Eq. 4, Grycuk), and uses r⁶ because it "shows better
/// accuracy for spherical solutes" — a claim the `radii_r4_vs_r6` ablation
/// bench and tests verify.
pub trait RadiiApprox: Copy + Send + Sync + 'static {
    /// The integrand factor applied to `x = |r_k − x_i|²`
    /// (`|d|⁻⁶` for r⁶, `|d|⁻⁴` for r⁴).
    fn integrand(d_sq: f64) -> f64;
    /// Converts the accumulated integral into a Born radius.
    fn radius(s: f64, r_vdw: f64, cap: f64) -> f64;
}

/// Eq. 4 — the surface-based r⁶ approximation (the paper's production
/// choice).
#[derive(Clone, Copy, Debug, Default)]
pub struct R6;

impl RadiiApprox for R6 {
    #[inline(always)]
    fn integrand(d_sq: f64) -> f64 {
        1.0 / (d_sq * d_sq * d_sq)
    }
    #[inline(always)]
    fn radius(s: f64, r_vdw: f64, cap: f64) -> f64 {
        born_radius_from_integral(s, r_vdw, cap)
    }
}

/// Eq. 3 — the r⁴ (Coulomb-field) approximation.
#[derive(Clone, Copy, Debug, Default)]
pub struct R4;

impl RadiiApprox for R4 {
    #[inline(always)]
    fn integrand(d_sq: f64) -> f64 {
        1.0 / (d_sq * d_sq)
    }
    #[inline(always)]
    fn radius(s: f64, r_vdw: f64, cap: f64) -> f64 {
        born_radius_from_integral_r4(s, r_vdw, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastmath::ExactMath;

    #[test]
    fn f_gb_limits() {
        // r = 0: f_GB = sqrt(Ri Rj), so 1/f_GB = 1/sqrt(RiRj) — the Born
        // self term when Ri = Rj.
        let inv = inv_f_gb::<ExactMath>(0.0, 4.0);
        assert!((inv - 0.5).abs() < 1e-12);
        // r >> R: exp → 0, f_GB → r (plain Coulomb denominator)
        let r = 1_000.0;
        let inv = inv_f_gb::<ExactMath>(r * r, 1.0);
        assert!((inv - 1.0 / r).abs() < 1e-9);
    }

    #[test]
    fn f_gb_monotone_in_distance() {
        let mut last = f64::INFINITY;
        for i in 0..100 {
            let r = i as f64 * 0.3;
            let inv = inv_f_gb::<ExactMath>(r * r, 2.0);
            assert!(inv < last);
            last = inv;
        }
    }

    #[test]
    fn integrands_are_inverse_sixth_and_fourth_powers_of_distance() {
        for d in [0.5f64, 1.0, 1.9, 10.0, 300.0] {
            let (r6, r4) = (R6::integrand(d * d), R4::integrand(d * d));
            assert!((r6 * d.powi(6) - 1.0).abs() < 1e-14, "d={d}: {r6}");
            assert!((r4 * d.powi(4) - 1.0).abs() < 1e-14, "d={d}: {r4}");
        }
    }

    #[test]
    fn finalize_has_gb_sign_and_scale() {
        // positive raw sum (like-charge self terms) → negative energy
        let e = finalize_energy(2.0, 1.0 - 1.0 / 80.0);
        assert!(e < 0.0);
        assert!((e + 0.5 * (1.0 - 0.0125) * COULOMB_KCAL * 2.0).abs() < 1e-9);
    }

    #[test]
    fn born_radius_sphere_identity() {
        // s for an isolated sphere of radius r is 4π/r³ → R = r
        for r in [1.0f64, 1.7, 3.0] {
            let s = FOUR_PI / r.powi(3);
            let got = born_radius_from_integral(s, 0.5, 1e6);
            assert!((got - r).abs() < 1e-12, "r={r}: got {got}");
        }
    }

    #[test]
    fn born_radius_floors_at_vdw() {
        // huge integral → tiny R → floored to vdW
        let got = born_radius_from_integral(1e9, 1.5, 1e6);
        assert_eq!(got, 1.5);
    }

    #[test]
    fn born_radius_caps_nonpositive_integral() {
        let got = born_radius_from_integral(-1.0, 1.5, 500.0);
        assert_eq!(got, 500.0);
        let got = born_radius_from_integral(0.0, 1.5, 500.0);
        assert_eq!(got, 500.0);
    }
}
