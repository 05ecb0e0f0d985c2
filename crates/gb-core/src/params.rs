//! Algorithm parameters.

use gb_surface::SurfaceParams;
use serde::{Deserialize, Serialize};

/// The math kernels of the hot loops. One mode is left: the paper's
/// "approximate math" switch (§V-E) measured no faster than the exact
/// kernels here and was removed. The enum and [`GbParams::math`] stay only
/// because the benchmark package asserts `math == MathKind::Exact`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MathKind {
    /// Full accuracy (the paper's "approximate math off"): IEEE `sqrt`
    /// and the in-crate ≲2-ulp polynomial `exp`
    /// ([`crate::simd::poly_exp`], `< 1e-15` relative to libm), so the
    /// bits do not depend on the host's libm.
    Exact,
}

/// Which surface integral approximates the Born radii: the paper's Eq. 3
/// (`1/R ≈ Σ w (r−x)·n / |r−x|⁴`) or Eq. 4
/// (`1/R³ ≈ Σ w (r−x)·n / |r−x|⁶`, the production choice).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RadiiKind {
    /// Eq. 3 — Coulomb-field approximation.
    R4,
    /// Eq. 4 — Grycuk's r⁶ form ("better accuracy for spherical solutes").
    R6,
}

/// Parameters of the octree GB pipeline.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GbParams {
    /// Solvent dielectric constant (water at 298 K ≈ 80).
    pub eps_solvent: f64,
    /// Approximation parameter ε for the Born-radius phase. Larger is
    /// faster and less accurate; the paper's default is 0.9.
    pub eps_radii: f64,
    /// Approximation parameter ε for the energy phase (paper default 0.9).
    pub eps_energy: f64,
    /// Octree leaf capacity for both trees.
    pub leaf_cap: usize,
    /// Math kernels for the hot loops (always [`MathKind::Exact`]).
    pub math: MathKind,
    /// Born-radius surface approximation (Eq. 3 vs Eq. 4).
    pub radii_kind: RadiiKind,
    /// Surface sampling configuration.
    pub surface: SurfaceParams,
}

impl Default for GbParams {
    /// The configuration of the paper's headline runs: ε = 0.9 for both
    /// phases, solvent dielectric 80.
    fn default() -> GbParams {
        GbParams {
            eps_solvent: 80.0,
            eps_radii: 0.9,
            eps_energy: 0.9,
            leaf_cap: 8,
            math: MathKind::Exact,
            radii_kind: RadiiKind::R6,
            surface: SurfaceParams::default(),
        }
    }
}

impl GbParams {
    /// `τ = 1 − 1/ε_solvent`, the dielectric prefactor of Eq. 2.
    #[inline]
    pub fn tau(&self) -> f64 {
        1.0 - 1.0 / self.eps_solvent
    }

    /// The Born-phase multipole acceptance threshold `(1+ε)^(1/6)`.
    ///
    /// Nodes `A`, `Q` are well separated when
    /// `(r_AQ + r_A + r_Q) / (r_AQ − r_A − r_Q) ≤ (1+ε)^(1/6)`, i.e. when
    /// the largest possible atom–point distance exceeds the smallest by at
    /// most that ratio — which bounds each `1/r⁶` term's relative error by
    /// `(1+ε)`.
    #[inline]
    pub fn radii_mac_threshold(&self) -> f64 {
        (1.0 + self.eps_radii).powf(1.0 / 6.0)
    }

    /// The energy-phase acceptance factor: approximate when
    /// `r_UV > (r_U + r_V) (1 + 2/ε)` (paper Fig. 3 step 2).
    #[inline]
    pub fn energy_mac_factor(&self) -> f64 {
        1.0 + 2.0 / self.eps_energy
    }

    /// Builder-style: set both ε parameters.
    pub fn with_epsilons(mut self, eps_radii: f64, eps_energy: f64) -> GbParams {
        assert!(eps_radii > 0.0 && eps_energy > 0.0, "ε must be positive");
        self.eps_radii = eps_radii;
        self.eps_energy = eps_energy;
        self
    }

    /// Builder-style: set the Born-radius approximation kind.
    pub fn with_radii_kind(mut self, kind: RadiiKind) -> GbParams {
        self.radii_kind = kind;
        self
    }

    /// Builder-style: set the surface sampling parameters.
    pub fn with_surface(mut self, surface: SurfaceParams) -> GbParams {
        self.surface = surface;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = GbParams::default();
        assert_eq!(p.eps_radii, 0.9);
        assert_eq!(p.eps_energy, 0.9);
        assert_eq!(p.eps_solvent, 80.0);
        assert!((p.tau() - (1.0 - 1.0 / 80.0)).abs() < 1e-15);
        assert_eq!(p.math, MathKind::Exact);
    }

    #[test]
    fn mac_thresholds() {
        let p = GbParams::default().with_epsilons(0.9, 0.9);
        assert!((p.radii_mac_threshold() - 1.9f64.powf(1.0 / 6.0)).abs() < 1e-15);
        assert!((p.energy_mac_factor() - (1.0 + 2.0 / 0.9)).abs() < 1e-15);
        // smaller ε → stricter acceptance
        let strict = GbParams::default().with_epsilons(0.1, 0.1);
        assert!(strict.radii_mac_threshold() < p.radii_mac_threshold());
        assert!(strict.energy_mac_factor() > p.energy_mac_factor());
    }

    #[test]
    #[should_panic]
    fn zero_epsilon_rejected() {
        let _ = GbParams::default().with_epsilons(0.0, 0.5);
    }
}
