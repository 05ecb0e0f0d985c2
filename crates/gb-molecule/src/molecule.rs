//! Struct-of-arrays molecule storage.

use crate::atom::{Atom, Element};
use gb_geom::{Aabb, RigidTransform, Vec3};

/// A molecule stored as parallel arrays of positions, radii and charges.
///
/// The SoA layout is what the O(M·N) inner loops of the Born-radius
/// integrals and the O(M²) naive energy want: each loop touches exactly the
/// attribute streams it needs, nothing else.
#[derive(Clone, Debug, Default)]
pub struct Molecule {
    /// Human-readable identifier (e.g. the ZDock entry name).
    pub name: String,
    positions: Vec<Vec3>,
    radii: Vec<f64>,
    charges: Vec<f64>,
    elements: Vec<Element>,
}

impl Molecule {
    /// Creates an empty molecule with the given name.
    pub fn empty(name: impl Into<String>) -> Molecule {
        Molecule { name: name.into(), ..Default::default() }
    }

    /// Builds a molecule from a list of atoms.
    pub fn from_atoms(name: impl Into<String>, atoms: impl IntoIterator<Item = Atom>) -> Molecule {
        let mut m = Molecule::empty(name);
        for a in atoms {
            m.push(a);
        }
        m
    }

    /// Appends an atom.
    pub fn push(&mut self, a: Atom) {
        self.positions.push(a.position);
        self.radii.push(a.radius);
        self.charges.push(a.charge);
        self.elements.push(a.element);
    }

    /// Number of atoms.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the molecule has no atoms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Atom positions (Å).
    #[inline]
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Atom vdW radii (Å).
    #[inline]
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// Atom partial charges (e).
    #[inline]
    pub fn charges(&self) -> &[f64] {
        &self.charges
    }

    /// Atom elements.
    #[inline]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Reconstructs the `i`-th atom.
    pub fn atom(&self, i: usize) -> Atom {
        Atom {
            position: self.positions[i],
            radius: self.radii[i],
            charge: self.charges[i],
            element: self.elements[i],
        }
    }

    /// Iterator over all atoms (by value).
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        (0..self.len()).map(move |i| self.atom(i))
    }

    /// Net charge (sum of partial charges).
    pub fn net_charge(&self) -> f64 {
        self.charges.iter().sum()
    }

    /// Tight bounding box of atom *spheres* (centers ± radii).
    pub fn bounding_box(&self) -> Aabb {
        Aabb::from_spheres(&self.positions, &self.radii)
    }

    /// Largest vdW radius present (0 for an empty molecule).
    pub fn max_radius(&self) -> f64 {
        self.radii.iter().copied().fold(0.0, f64::max)
    }

    /// Applies a rigid transform to every atom position, in place.
    pub fn transform(&mut self, t: &RigidTransform) {
        for p in &mut self.positions {
            *p = t.apply(*p);
        }
    }

    /// Overwrites all atom positions in place (radii, charges and elements
    /// are untouched) — the per-frame update of an MD trajectory.
    pub fn set_positions(&mut self, positions: &[Vec3]) {
        assert_eq!(positions.len(), self.len(), "one position per atom");
        self.positions.copy_from_slice(positions);
    }

    /// Returns a transformed copy (used for docking poses).
    pub fn transformed(&self, t: &RigidTransform) -> Molecule {
        let mut m = self.clone();
        m.transform(t);
        m
    }

    /// Merges another molecule into this one (receptor + ligand complexes).
    pub fn merge(&mut self, other: &Molecule) {
        self.positions.extend_from_slice(&other.positions);
        self.radii.extend_from_slice(&other.radii);
        self.charges.extend_from_slice(&other.charges);
        self.elements.extend_from_slice(&other.elements);
    }

    /// Estimated heap footprint in bytes (for replicated-memory accounting).
    pub fn memory_bytes(&self) -> usize {
        self.positions.capacity() * std::mem::size_of::<Vec3>()
            + self.radii.capacity() * std::mem::size_of::<f64>()
            + self.charges.capacity() * std::mem::size_of::<f64>()
            + self.elements.capacity() * std::mem::size_of::<Element>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn water_like() -> Molecule {
        Molecule::from_atoms(
            "wat",
            [
                Atom::of_element(Element::Oxygen, Vec3::ZERO, -0.8),
                Atom::of_element(Element::Hydrogen, Vec3::new(0.96, 0.0, 0.0), 0.4),
                Atom::of_element(Element::Hydrogen, Vec3::new(-0.24, 0.93, 0.0), 0.4),
            ],
        )
    }

    #[test]
    fn soa_roundtrip() {
        let m = water_like();
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        let a = m.atom(0);
        assert_eq!(a.element, Element::Oxygen);
        assert_eq!(a.charge, -0.8);
        assert_eq!(m.atoms().count(), 3);
    }

    #[test]
    fn net_charge_sums() {
        let m = water_like();
        assert!((m.net_charge() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_includes_radii() {
        let m = water_like();
        let b = m.bounding_box();
        // oxygen sphere extends to -1.52 in x
        assert!(b.min.x <= -1.52 + 1e-12);
        assert!(b.max.x >= 0.96 + 1.20 - 1e-12);
    }

    #[test]
    fn transform_moves_all_atoms() {
        let m = water_like();
        let t = RigidTransform::translation(Vec3::new(10.0, 0.0, 0.0));
        let moved = m.transformed(&t);
        for (a, b) in m.positions().iter().zip(moved.positions()) {
            assert!((*a + Vec3::new(10.0, 0.0, 0.0) - *b).norm() < 1e-12);
        }
        // radii/charges untouched
        assert_eq!(m.radii(), moved.radii());
        assert_eq!(m.charges(), moved.charges());
    }

    #[test]
    fn merge_concatenates() {
        let mut a = water_like();
        let b = water_like();
        a.merge(&b);
        assert_eq!(a.len(), 6);
        assert!((a.net_charge()).abs() < 1e-12);
    }

    #[test]
    fn max_radius() {
        let m = water_like();
        assert_eq!(m.max_radius(), 1.52);
        assert_eq!(Molecule::empty("e").max_radius(), 0.0);
    }
}
