//! Atoms and elements.
//!
//! The GB algorithms only ever read an atom's position, van der Waals
//! radius and partial charge, so [`Atom`] carries exactly those plus the
//! element for I/O round-trips. Radii follow the Bondi set (the values
//! Amber-family GB parameterizations start from); default partial charges
//! are element-typical magnitudes used by the synthetic generator.

use gb_geom::Vec3;

/// Chemical elements that occur in proteins (plus a generic fallback).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Element {
    Hydrogen,
    Carbon,
    Nitrogen,
    Oxygen,
    Sulfur,
    Phosphorus,
    /// Anything else; carries no special parameters.
    Other,
}

impl Element {
    /// Bondi van der Waals radius in Å.
    pub fn vdw_radius(self) -> f64 {
        match self {
            Element::Hydrogen => 1.20,
            Element::Carbon => 1.70,
            Element::Nitrogen => 1.55,
            Element::Oxygen => 1.52,
            Element::Sulfur => 1.80,
            Element::Phosphorus => 1.80,
            Element::Other => 1.60,
        }
    }

    /// Typical partial-charge magnitude (e) in protein force fields; used
    /// only by the synthetic generator, which alternates signs to keep
    /// molecules near-neutral.
    pub fn typical_charge_magnitude(self) -> f64 {
        match self {
            Element::Hydrogen => 0.25,
            Element::Carbon => 0.15,
            Element::Nitrogen => 0.40,
            Element::Oxygen => 0.50,
            Element::Sulfur => 0.30,
            Element::Phosphorus => 0.60,
            Element::Other => 0.20,
        }
    }

    /// One-letter element symbol for PQR output.
    pub fn symbol(self) -> &'static str {
        match self {
            Element::Hydrogen => "H",
            Element::Carbon => "C",
            Element::Nitrogen => "N",
            Element::Oxygen => "O",
            Element::Sulfur => "S",
            Element::Phosphorus => "P",
            Element::Other => "X",
        }
    }

    /// Parses an element symbol (case-insensitive, first alphabetic token).
    pub fn from_symbol(s: &str) -> Element {
        match s.trim().chars().next().map(|c| c.to_ascii_uppercase()) {
            Some('H') => Element::Hydrogen,
            Some('C') => Element::Carbon,
            Some('N') => Element::Nitrogen,
            Some('O') => Element::Oxygen,
            Some('S') => Element::Sulfur,
            Some('P') => Element::Phosphorus,
            _ => Element::Other,
        }
    }

    /// The distribution of heavy atoms in an average protein
    /// (C : N : O : S ≈ 63 : 17 : 19 : 1 among heavy atoms), used by the
    /// synthetic generator. `t` in `[0,1)` selects an element.
    pub fn protein_heavy_atom(t: f64) -> Element {
        if t < 0.63 {
            Element::Carbon
        } else if t < 0.80 {
            Element::Nitrogen
        } else if t < 0.99 {
            Element::Oxygen
        } else {
            Element::Sulfur
        }
    }
}

/// A single atom: position (Å), vdW radius (Å), partial charge (e).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Atom {
    pub position: Vec3,
    pub radius: f64,
    pub charge: f64,
    pub element: Element,
}

impl Atom {
    /// Creates an atom with an explicit radius and charge.
    pub fn new(position: Vec3, radius: f64, charge: f64, element: Element) -> Atom {
        Atom { position, radius, charge, element }
    }

    /// Creates an atom of `element` at `position` with its Bondi radius and
    /// the given charge.
    pub fn of_element(element: Element, position: Vec3, charge: f64) -> Atom {
        Atom { position, radius: element.vdw_radius(), charge, element }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radii_are_physical() {
        for e in [
            Element::Hydrogen,
            Element::Carbon,
            Element::Nitrogen,
            Element::Oxygen,
            Element::Sulfur,
            Element::Phosphorus,
            Element::Other,
        ] {
            let r = e.vdw_radius();
            assert!((1.0..2.5).contains(&r), "{e:?} radius {r}");
        }
    }

    #[test]
    fn symbol_roundtrip() {
        for e in [
            Element::Hydrogen,
            Element::Carbon,
            Element::Nitrogen,
            Element::Oxygen,
            Element::Sulfur,
            Element::Phosphorus,
        ] {
            assert_eq!(Element::from_symbol(e.symbol()), e);
        }
        assert_eq!(Element::from_symbol("Zn"), Element::Other);
        assert_eq!(Element::from_symbol("  c  "), Element::Carbon);
    }

    #[test]
    fn heavy_atom_distribution_covers_range() {
        assert_eq!(Element::protein_heavy_atom(0.0), Element::Carbon);
        assert_eq!(Element::protein_heavy_atom(0.7), Element::Nitrogen);
        assert_eq!(Element::protein_heavy_atom(0.9), Element::Oxygen);
        assert_eq!(Element::protein_heavy_atom(0.995), Element::Sulfur);
    }

    #[test]
    fn of_element_uses_bondi_radius() {
        let a = Atom::of_element(Element::Oxygen, Vec3::ZERO, -0.5);
        assert_eq!(a.radius, 1.52);
        assert_eq!(a.charge, -0.5);
    }
}
