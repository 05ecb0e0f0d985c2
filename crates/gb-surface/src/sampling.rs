//! The molecular-surface sampler.
//!
//! Pipeline per molecule:
//! 1. tessellate the unit sphere once ([`Icosphere`]),
//! 2. for each atom, map the tessellation onto its vdW sphere and drop
//!    Dunavant quadrature points into every triangle (projected back onto
//!    the sphere so they carry exact radial normals),
//! 3. normalize weights so each *full* sphere integrates to exactly
//!    `4π r²` (removes the O(h²) flat-triangle area deficit),
//! 4. discard points strictly inside any *other* atom — what survives tiles
//!    the boundary of the union of atom spheres, i.e. the molecular
//!    surface the r⁶ Born integral runs over.
//!
//! The burial test is octree-accelerated; the per-atom loop runs on the
//! calling thread.

use crate::dunavant::dunavant_rule;
use crate::icosphere::Icosphere;
use crate::quadset::QuadraturePoints;
use gb_molecule::Molecule;
use gb_octree::Octree;

/// Parameters of the surface sampler.
#[derive(Clone, Copy, Debug)]
pub struct SurfaceParams {
    /// Icosphere subdivision level (0 → 20 triangles per atom).
    pub subdivisions: u8,
    /// Dunavant rule degree (1–5; 1 → one point per triangle).
    pub dunavant_degree: u8,
    /// Octree leaf capacity for the burial-test tree.
    pub leaf_cap: usize,
    /// Surface-smoothing probe radius (Å): every atom sphere is inflated by
    /// this amount before sampling and burial testing, which closes the
    /// sub-probe-sized interstitial voids between packed atoms. The paper's
    /// Gaussian molecular surface is smooth in the same way; raw vdW-sphere
    /// unions of dense atom packings are full of spurious interior pockets
    /// whose inward-facing patches corrupt the Born integral.
    pub probe_radius: f64,
}

impl Default for SurfaceParams {
    /// 20 triangles × 1 point per atom before burial removal — the coarse
    /// production setting, matching the paper's quadrature-to-atom ratios
    /// (CMV: 509 640 atoms ↔ 1 929 128 points; BTV: 6 M ↔ 3 M).
    fn default() -> SurfaceParams {
        SurfaceParams { subdivisions: 0, dunavant_degree: 1, leaf_cap: 8, probe_radius: 0.8 }
    }
}

impl SurfaceParams {
    /// A finer setting for accuracy studies on small molecules
    /// (80 triangles × 3 points per atom).
    pub fn fine() -> SurfaceParams {
        SurfaceParams { probe_radius: 0.8, ..SurfaceParams::exact_spheres() }
    }

    /// No probe smoothing and a fine tessellation: the setting under which
    /// the analytic identities hold exactly (a lone atom's Born radius is
    /// its vdW radius). Used by validation tests.
    pub fn exact_spheres() -> SurfaceParams {
        SurfaceParams { subdivisions: 1, dunavant_degree: 2, leaf_cap: 8, probe_radius: 0.0 }
    }

    /// Number of candidate points generated per atom before burial removal.
    pub fn points_per_atom(&self) -> usize {
        let faces = 20 * 4usize.pow(self.subdivisions.min(5) as u32);
        faces * dunavant_rule(self.dunavant_degree).len()
    }
}

/// Samples the molecular surface of `mol`.
///
/// Returns the quadrature set `Q`; its `total_area()` estimates the solvent-
/// exposed surface area of the molecule.
pub fn sample_surface(mol: &Molecule, params: &SurfaceParams) -> QuadraturePoints {
    let n = mol.len();
    if n == 0 {
        return QuadraturePoints::default();
    }
    let sphere = Icosphere::new(params.subdivisions);
    let rule = dunavant_rule(params.dunavant_degree);

    // Precompute the unit-sphere template: (unit position, relative weight)
    // with weights normalized so they sum to the full sphere area 4π.
    let mut template: Vec<(gb_geom::Vec3, f64)> =
        Vec::with_capacity(sphere.num_faces() * rule.len());
    for &tri in &sphere.triangles {
        let [a, b, c] = [
            sphere.vertices[tri[0] as usize],
            sphere.vertices[tri[1] as usize],
            sphere.vertices[tri[2] as usize],
        ];
        let area = (b - a).cross(c - a).norm() * 0.5;
        for tp in &rule.points {
            let p = (a * tp.bary[0] + b * tp.bary[1] + c * tp.bary[2]).normalized();
            template.push((p, tp.weight * area));
        }
    }
    let flat_total: f64 = template.iter().map(|(_, w)| w).sum();
    let norm = 4.0 * std::f64::consts::PI / flat_total;
    for (_, w) in &mut template {
        *w *= norm;
    }

    // Octree over atom centers for the burial test.
    let tree = Octree::build(mol.positions(), params.leaf_cap);
    let positions = mol.positions();
    let radii = mol.radii();
    let probe = params.probe_radius.max(0.0);
    let max_r = mol.max_radius() + probe;

    // Each atom's points are generated independently, then concatenated in
    // atom order.
    let per_atom: Vec<QuadraturePoints> = (0..n)
        .map(|i| {
            let center = positions[i];
            let r = radii[i] + probe;
            let mut out = QuadraturePoints::with_capacity(template.len() / 2);
            let r2_weight = r * r; // weights scale with the sphere's area
            for &(u, w) in &template {
                let p = center + u * r;
                // buried inside any *other* (probe-inflated) atom?
                let buried = tree.any_within_where(p, max_r, |j, cj| {
                    j != i && {
                        let rj = radii[j] + probe;
                        cj.dist_sq(p) < (rj * rj) * (1.0 - 1e-12)
                    }
                });
                if !buried {
                    out.push(p, u, w * r2_weight);
                }
            }
            out
        })
        .collect();

    let total: usize = per_atom.iter().map(|q| q.len()).sum();
    let mut merged = QuadraturePoints::with_capacity(total);
    for (i, q) in per_atom.iter().enumerate() {
        // record which atom each point sits on: a surface point translates
        // rigidly with its atom, which is what lets trajectory frames move
        // the quadrature set without resampling it
        merged.merge_owned(q, i as u32);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_molecule::{synthesize_protein, Atom, Element, SyntheticParams};
    use gb_geom::Vec3;
    use std::f64::consts::PI;

    fn lone_atom(r: f64) -> Molecule {
        Molecule::from_atoms(
            "one",
            [Atom::new(Vec3::new(1.0, -2.0, 0.5), r, -0.4, Element::Carbon)],
        )
    }

    #[test]
    fn lone_atom_area_is_exact() {
        // weight normalization makes a full sphere integrate exactly
        for r in [1.0, 1.52, 2.0] {
            let q = sample_surface(&lone_atom(r), &SurfaceParams::exact_spheres());
            let want = 4.0 * PI * r * r;
            assert!(
                (q.total_area() - want).abs() < 1e-9,
                "r={r}: area {} vs {want}",
                q.total_area()
            );
        }
    }

    #[test]
    fn lone_atom_born_integral_recovers_radius() {
        // (1/4π) Σ w (r_k − x)·n_k / |r_k − x|^6 must equal 1/r³ exactly
        // for the sphere's own center.
        let r = 1.7;
        let m = lone_atom(r);
        let x = m.positions()[0];
        let q = sample_surface(&m, &SurfaceParams::exact_spheres());
        let s: f64 = (0..q.len())
            .map(|k| {
                let d = q.positions()[k] - x;
                q.weights()[k] * d.dot(q.normals()[k]) / d.norm_sq().powi(3)
            })
            .sum();
        let r_born = (s / (4.0 * PI)).powf(-1.0 / 3.0);
        assert!((r_born - r).abs() < 1e-9, "Born radius {r_born} vs vdW {r}");
    }

    #[test]
    fn normals_are_unit_and_outward() {
        let m = lone_atom(2.0);
        let x = m.positions()[0];
        let q = sample_surface(&m, &SurfaceParams::fine());
        for k in 0..q.len() {
            let n = q.normals()[k];
            assert!((n.norm() - 1.0).abs() < 1e-9);
            assert!(n.dot(q.positions()[k] - x) > 0.0, "normal points inward");
        }
    }

    #[test]
    fn buried_points_are_removed() {
        // two heavily overlapping atoms: each sphere's cap inside the other
        // must vanish; total area < sum of full sphere areas, > one sphere.
        let m = Molecule::from_atoms(
            "pair",
            [
                Atom::new(Vec3::ZERO, 1.5, 0.0, Element::Carbon),
                Atom::new(Vec3::new(1.0, 0.0, 0.0), 1.5, 0.0, Element::Carbon),
            ],
        );
        let q = sample_surface(&m, &SurfaceParams::exact_spheres());
        let one = 4.0 * PI * 1.5 * 1.5;
        assert!(q.total_area() < 2.0 * one * 0.95);
        assert!(q.total_area() > one);
        // no surviving point is strictly inside either atom
        for k in 0..q.len() {
            for i in 0..2 {
                let d = q.positions()[k].dist(m.positions()[i]);
                assert!(d > 1.5 - 1e-6, "point {k} buried in atom {i}: d={d}");
            }
        }
    }

    #[test]
    fn fully_buried_atom_contributes_nothing() {
        // a tiny atom at the center of a big one is entirely interior
        let m = Molecule::from_atoms(
            "nested",
            [
                Atom::new(Vec3::ZERO, 3.0, 0.0, Element::Sulfur),
                Atom::new(Vec3::new(0.2, 0.0, 0.0), 1.0, 0.0, Element::Hydrogen),
            ],
        );
        let q = sample_surface(&m, &SurfaceParams::exact_spheres());
        // all surviving points must lie on the big sphere
        for k in 0..q.len() {
            let d = q.positions()[k].norm();
            assert!((d - 3.0).abs() < 1e-9, "point at distance {d}");
        }
        let want = 4.0 * PI * 9.0;
        assert!((q.total_area() - want).abs() < 1e-9);
    }

    #[test]
    fn protein_point_count_matches_paper_ratio() {
        // ~2–8 surviving points per atom at the default (coarse) setting,
        // like the paper's CMV ratio of ~3.8.
        let m = synthesize_protein(&SyntheticParams::with_atoms(1_500, 11));
        let q = sample_surface(&m, &SurfaceParams::default());
        let ratio = q.len() as f64 / m.len() as f64;
        // probe smoothing buries interior points aggressively; the paper's
        // own ratios span 0.5 (BTV) to 3.8 (CMV)
        assert!(
            (0.3..=12.0).contains(&ratio),
            "qpoints/atom ratio {ratio} out of protein range"
        );
        // must be far fewer than the unburied total
        assert!(q.len() < m.len() * SurfaceParams::default().points_per_atom());
    }

    #[test]
    fn surface_area_scales_like_a_globule() {
        // doubling atom count x8 should roughly quadruple surface area
        // (area ~ n^(2/3) for compact globules)
        let a1 = sample_surface(
            &synthesize_protein(&SyntheticParams::with_atoms(1_000, 3)),
            &SurfaceParams::default(),
        )
        .total_area();
        let a8 = sample_surface(
            &synthesize_protein(&SyntheticParams::with_atoms(8_000, 3)),
            &SurfaceParams::default(),
        )
        .total_area();
        let ratio = a8 / a1;
        assert!((2.0..=8.0).contains(&ratio), "area ratio {ratio}");
    }

    #[test]
    fn empty_molecule_empty_surface() {
        let q = sample_surface(&Molecule::empty("none"), &SurfaceParams::default());
        assert!(q.is_empty());
    }

    #[test]
    fn points_per_atom_accounting() {
        assert_eq!(SurfaceParams::default().points_per_atom(), 20);
        assert_eq!(SurfaceParams::fine().points_per_atom(), 240);
    }
}
