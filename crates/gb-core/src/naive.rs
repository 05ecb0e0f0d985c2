//! The naive exact algorithms (paper Table II, "Naïve"): the ground truth
//! every approximation is measured against.
//!
//! * Born radii: the full O(M·N) surface sum of Eq. 4 per atom.
//! * Energy: the full O(M²) double sum of Eq. 2 over all ordered pairs
//!   (including the `i = j` Born self terms).
//!
//! The ground truth runs on its own reference math (`LibmMath`: libm
//! `exp`, IEEE `1/√`), not on the kernels' [`crate::fastmath::ExactMath`],
//! so the error measured against it includes the kernels' exponential.

use crate::fastmath::MathMode;
use crate::gbmath::{finalize_energy, pair_term, RadiiApprox, R4, R6};
use crate::params::RadiiKind;
use crate::system::{GbResult, GbSystem};

/// Exact Born radii by original atom index, using the system's
/// configured approximation kind (Eq. 3 or Eq. 4).
pub fn naive_born_radii(sys: &GbSystem) -> Vec<f64> {
    match sys.params.radii_kind {
        RadiiKind::R6 => (0..sys.num_atoms()).map(|i| born_radius_of::<R6>(sys, i)).collect(),
        RadiiKind::R4 => (0..sys.num_atoms()).map(|i| born_radius_of::<R4>(sys, i)).collect(),
    }
}

/// The ground truth's math: IEEE `1/√x` and the host libm `e^x` — an
/// exponential independent of the in-crate polynomial the kernels use.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LibmMath;

impl MathMode for LibmMath {
    #[inline(always)]
    fn rsqrt(x: f64) -> f64 {
        1.0 / x.sqrt()
    }
    #[inline(always)]
    fn exp(x: f64) -> f64 {
        x.exp()
    }
}

fn born_radius_of<K: RadiiApprox>(sys: &GbSystem, atom: usize) -> f64 {
    let x = sys.molecule.positions()[atom];
    let q = &sys.surface;
    let mut s = 0.0;
    for k in 0..q.len() {
        let delta = q.positions()[k] - x;
        let d2 = delta.norm_sq();
        if d2 > 0.0 {
            s += q.weights()[k] * q.normals()[k].dot(delta) * K::integrand(d2);
        }
    }
    K::radius(s, sys.molecule.radii()[atom], sys.born_cap)
}

/// Exact polarization energy from given Born radii.
///
/// `radii` is by original atom index. Returns kcal/mol.
pub fn naive_energy(sys: &GbSystem, radii: &[f64]) -> f64 {
    assert_eq!(radii.len(), sys.num_atoms());
    let raw: f64 = (0..sys.num_atoms()).map(|i| energy_row(sys, radii, i)).sum();
    finalize_energy(raw, sys.params.tau())
}

/// One row of the ordered-pair sum: `Σ_j q_i q_j / f_GB(r_ij, R_i, R_j)`.
fn energy_row(sys: &GbSystem, radii: &[f64], i: usize) -> f64 {
    let pos = sys.molecule.positions();
    let q = sys.molecule.charges();
    let xi = pos[i];
    let qi = q[i];
    let ri = radii[i];
    let mut acc = 0.0;
    for j in 0..sys.num_atoms() {
        let r_sq = xi.dist_sq(pos[j]);
        acc += pair_term::<LibmMath>(qi * q[j], r_sq, ri * radii[j]);
    }
    acc
}

/// The full naive pipeline: exact radii then exact energy.
pub fn naive_full(sys: &GbSystem) -> GbResult {
    let radii = naive_born_radii(sys);
    let energy_kcal = naive_energy(sys, &radii);
    GbResult { energy_kcal, born_radii: radii }
}

/// Number of work units the naive pipeline spends (for the cost model):
/// `M·N` radius terms plus `M²` energy terms.
pub fn naive_work_units(sys: &GbSystem) -> f64 {
    let m = sys.num_atoms() as f64;
    let n = sys.num_qpoints() as f64;
    m * n + m * m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GbParams;
    use gb_molecule::{synthesize_protein, Atom, Element, Molecule, SyntheticParams};
    use gb_geom::Vec3;

    fn system(n: usize) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 8));
        GbSystem::prepare(mol, GbParams::default())
    }

    #[test]
    fn single_ion_born_energy() {
        // One ion of radius a and charge q: E = −τ k_C q² / (2a), the Born
        // equation — the exact analytic anchor for the whole pipeline.
        let a = 2.0;
        let q = 1.0;
        let mol =
            Molecule::from_atoms("ion", [Atom::new(Vec3::ZERO, a, q, Element::Other)]);
        // probe-free surface: the analytic Born identity holds exactly
        let sys = GbSystem::prepare(
            mol,
            GbParams::default().with_surface(gb_surface::SurfaceParams::exact_spheres()),
        );
        let res = naive_full(&sys);
        assert!((res.born_radii[0] - a).abs() < 1e-9);
        let tau = 1.0 - 1.0 / 80.0;
        let want = -tau * crate::gbmath::COULOMB_KCAL * q * q / (2.0 * a);
        assert!(
            (res.energy_kcal - want).abs() < 1e-6 * want.abs(),
            "{} vs {}",
            res.energy_kcal,
            want
        );
    }

    #[test]
    fn two_distant_ions_approach_coulomb_screening() {
        // At large separation f_GB → r, so the cross term is the screened
        // Coulomb interaction −τ k_C q₁q₂/r (plus the two self terms).
        let a = 1.0;
        let r = 500.0;
        let mol = Molecule::from_atoms(
            "pair",
            [
                Atom::new(Vec3::ZERO, a, 1.0, Element::Other),
                Atom::new(Vec3::new(r, 0.0, 0.0), a, -1.0, Element::Other),
            ],
        );
        let sys = GbSystem::prepare(
            mol,
            GbParams::default().with_surface(gb_surface::SurfaceParams::exact_spheres()),
        );
        let res = naive_full(&sys);
        let tau = 1.0 - 1.0 / 80.0;
        let self_terms = -tau * crate::gbmath::COULOMB_KCAL * (1.0 / (2.0 * a) + 1.0 / (2.0 * a));
        let cross = tau * crate::gbmath::COULOMB_KCAL / r; // q1 q2 = −1, ×2 ordered pairs, ×(−τ/2)
        let want = self_terms + cross;
        assert!(
            (res.energy_kcal - want).abs() < 1e-2 * want.abs(),
            "{} vs {}",
            res.energy_kcal,
            want
        );
    }

    #[test]
    fn polarization_energy_is_negative() {
        // Epol is a relaxation energy — negative for any charged molecule.
        let sys = system(300);
        let res = naive_full(&sys);
        assert!(res.energy_kcal < 0.0, "E_pol = {}", res.energy_kcal);
    }

    #[test]
    fn energy_scales_roughly_with_size() {
        let e1 = naive_full(&system(200)).energy_kcal;
        let e4 = naive_full(&system(800)).energy_kcal;
        // more atoms → more (negative) self energy; the ionizable-residue
        // charge model makes the growth super-linear but bounded
        assert!(e4 < e1);
        let ratio = e4 / e1;
        assert!((2.0..=16.0).contains(&ratio), "scale ratio {ratio}");
    }

    #[test]
    fn work_unit_formula() {
        let sys = system(100);
        let m = sys.num_atoms() as f64;
        let n = sys.num_qpoints() as f64;
        assert_eq!(naive_work_units(&sys), m * n + m * m);
    }
}
