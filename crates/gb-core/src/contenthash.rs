//! Content-hash cache keys for the serving layer.
//!
//! A cached artifact (prepared system, interaction lists, communication
//! plan) may be substituted for a fresh build only when *every* input that
//! influences the build is identical — otherwise the serve cache would
//! silently return energies for a different molecule. The keys here
//! therefore hash the full content that preparation consumes:
//!
//! * [`molecule_key`] — atom count, every position, every charge, every
//!   vdW radius (bit patterns, not rounded values);
//! * [`params_key`] — both ε parameters, the solvent dielectric, leaf
//!   capacities, math and radii kinds, and the complete surface-sampling
//!   configuration;
//! * [`system_key`] — the pair of the two, the key the tiered cache in
//!   `gb-serve` uses for every tier.
//!
//! Charges and radii are deliberately part of the key even though the
//! octrees ignore them: a charge-only perturbation changes the energy, so
//! it must miss the cache (`cache_keys.rs` in `gb-serve` pins this). A
//! rigid-body pose applied to a *different* molecule leaves this
//! molecule's key untouched — which is exactly what lets a docking scan
//! hit the receptor's cached artifacts across every ligand pose.
//!
//! The fold is the same multiply–rotate–xor used by the
//! [`CommPlan`](crate::commplan) structural key: cheap, order-sensitive,
//! and applied to the full content rather than a truncated checksum.

use crate::params::{GbParams, RadiiKind};
use gb_molecule::Molecule;

/// Order-sensitive 64-bit content fold (FxHash-style multiply-rotate-xor).
#[derive(Clone, Copy, Debug)]
pub struct ContentFold(u64);

impl ContentFold {
    /// A fold seeded with a domain tag so different key kinds never
    /// collide structurally.
    pub fn new(tag: u64) -> ContentFold {
        ContentFold(tag ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Folds one 64-bit word.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    /// Folds an `f64` by bit pattern (distinguishes `-0.0` from `0.0` and
    /// every NaN payload — bitwise identity is the contract cached
    /// artifacts are substituted under).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a `usize`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// The folded key.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Content key of a molecule: atom count, positions, charges, vdW radii.
pub fn molecule_key(mol: &Molecule) -> u64 {
    let mut f = ContentFold::new(0x6d6f_6c65);
    f.usize(mol.len());
    for p in mol.positions() {
        f.f64(p.x);
        f.f64(p.y);
        f.f64(p.z);
    }
    for &q in mol.charges() {
        f.f64(q);
    }
    for &r in mol.radii() {
        f.f64(r);
    }
    f.finish()
}

/// Content key of the pipeline parameters, covering every field that
/// reaches preparation or the kernels.
pub fn params_key(p: &GbParams) -> u64 {
    let mut f = ContentFold::new(0x7061_7261);
    f.f64(p.eps_solvent);
    f.f64(p.eps_radii);
    f.f64(p.eps_energy);
    f.usize(p.leaf_cap);
    f.u64(match p.radii_kind {
        RadiiKind::R4 => 0,
        RadiiKind::R6 => 1,
    });
    f.u64(p.surface.subdivisions as u64);
    f.u64(p.surface.dunavant_degree as u64);
    f.usize(p.surface.leaf_cap);
    f.f64(p.surface.probe_radius);
    f.finish()
}

/// Content key of a prepared system: molecule content × parameters. Two
/// equal keys mean `GbSystem::prepare` would produce bitwise-identical
/// artifacts (preparation is deterministic), so every cache tier keys on
/// this.
pub fn system_key(mol: &Molecule, params: &GbParams) -> u64 {
    let mut f = ContentFold::new(0x7379_7374);
    f.u64(molecule_key(mol));
    f.u64(params_key(params));
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_geom::{RigidTransform, Vec3};
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn mol(n: usize, seed: u64) -> Molecule {
        synthesize_protein(&SyntheticParams::with_atoms(n, seed))
    }

    #[test]
    fn identical_inputs_share_a_key() {
        let p = GbParams::default();
        assert_eq!(system_key(&mol(120, 3), &p), system_key(&mol(120, 3), &p));
    }

    #[test]
    fn charges_are_part_of_the_key() {
        // the honesty requirement: geometry-identical molecules with
        // different charges must not share cached artifacts
        let a = mol(100, 7);
        let mut rebuilt = Molecule::empty("perturbed");
        for (i, mut at) in a.atoms().enumerate() {
            if i == 42 {
                at.charge += 1e-9;
            }
            rebuilt.push(at);
        }
        assert_eq!(a.positions(), rebuilt.positions());
        assert_ne!(molecule_key(&a), molecule_key(&rebuilt));
    }

    #[test]
    fn radii_and_positions_are_part_of_the_key() {
        let a = mol(80, 9);
        let moved = a.transformed(&RigidTransform::translation(Vec3::new(1e-12, 0.0, 0.0)));
        assert_ne!(molecule_key(&a), molecule_key(&moved));
    }

    #[test]
    fn params_fields_reach_the_key() {
        let p = GbParams::default();
        assert_ne!(params_key(&p), params_key(&p.with_epsilons(0.9, 0.8)));
        let r4 = p.with_radii_kind(RadiiKind::R4);
        assert_ne!(params_key(&p), params_key(&r4));
        let mut fine = p;
        fine.surface.probe_radius += 0.1;
        assert_ne!(params_key(&p), params_key(&fine));
    }

    #[test]
    fn zero_sign_is_distinguished() {
        let mut a = ContentFold::new(1);
        let mut b = ContentFold::new(1);
        a.f64(0.0);
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
