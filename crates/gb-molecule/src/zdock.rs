//! The ZDock benchmark ladder used throughout the paper's evaluation.
//!
//! The paper runs every comparison (Figs. 7–10) over proteins from the
//! ZDock Benchmark Suite 2.0, bound dataset, with 400–16 000 atoms, and
//! reports results per molecule sorted by size. We cannot ship the PDB
//! structures, so each entry here pairs the *name the paper's figures use*
//! with an atom count on that ladder, and synthesizes a deterministic
//! protein-like molecule of that size (seeded by the name). The figure
//! harness then reports the same 42-molecule x-axis the paper plots.

use crate::molecule::Molecule;
use crate::synthetic::{synthesize_protein, SyntheticParams};

/// One benchmark molecule: the name used in the paper's figures plus the
/// synthetic atom count assigned to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZdockEntry {
    /// Entry name as printed on the paper's figure axes (e.g. `1PPE_l_b`).
    pub name: &'static str,
    /// Number of atoms synthesized for this entry.
    pub n_atoms: usize,
}

impl ZdockEntry {
    /// Synthesizes this entry's molecule (deterministic per name).
    pub fn molecule(&self) -> Molecule {
        let seed = fnv1a(self.name.as_bytes());
        let mut m = synthesize_protein(&SyntheticParams::with_atoms(self.n_atoms, seed));
        m.name = self.name.to_string();
        m
    }
}

/// The 42 molecule names, in the size-sorted order of the paper's Figs. 8–9.
const NAMES: [&str; 42] = [
    "1PPE_l_b", "1CGI_l_b", "1ACB_l_b", "1GCQ_l_b", "2JEL_l_b", "1AY7_r_b", "1K4C_l_b",
    "1WEJ_l_b", "1TMQ_l_b", "1F51_l_b", "1MLC_l_b", "2BTF_l_b", "1NSN_l_b", "1WQ1_l_b",
    "1I2M_r_b", "1IBR_r_b", "1FQ1_r_b", "1BJ1_l_b", "1AHW_l_b", "1PPE_r_b", "1EZU_r_b",
    "2QFW_r_b", "1ACB_r_b", "1EAW_r_b", "2SNI_r_b", "1ATN_l_b", "2PCC_r_b", "1FQ1_l_b",
    "1WQ1_r_b", "1FAK_r_b", "1I2M_l_b", "1F51_r_b", "1DE4_r_b", "1BGX_r_b", "1MLC_r_b",
    "1K4C_r_b", "1NCA_r_b", "1EER_l_b", "1E6E_r_b", "2MTA_r_b", "1MAH_r_b", "1BGX_l_b",
];

/// Smallest and largest entry sizes; the paper states ~400 to ~16 000 atoms
/// with the largest single molecule at 16 301 atoms.
const MIN_ATOMS: f64 = 450.0;
const MAX_ATOMS: f64 = 16_301.0;

/// Returns the full 42-entry benchmark ladder, sorted by size ascending.
///
/// Sizes follow a geometric ladder from 450 to 16 301 atoms (the paper's
/// stated range), which reproduces the figures' log-scale spacing.
pub fn zdock_suite() -> Vec<ZdockEntry> {
    let n = NAMES.len();
    NAMES
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let t = i as f64 / (n - 1) as f64;
            let atoms = (MIN_ATOMS * (MAX_ATOMS / MIN_ATOMS).powf(t)).round() as usize;
            ZdockEntry { name, n_atoms: atoms }
        })
        .collect()
}

/// Looks an entry up by name.
pub fn zdock_entry(name: &str) -> Option<ZdockEntry> {
    zdock_suite().into_iter().find(|e| e.name == name)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_42_entries_sorted_by_size() {
        let s = zdock_suite();
        assert_eq!(s.len(), 42);
        assert!(s.windows(2).all(|w| w[0].n_atoms <= w[1].n_atoms));
        assert_eq!(s.first().unwrap().n_atoms, 450);
        assert_eq!(s.last().unwrap().n_atoms, 16_301);
    }

    #[test]
    fn names_match_paper_figure_order() {
        let s = zdock_suite();
        assert_eq!(s[0].name, "1PPE_l_b");
        assert_eq!(s[41].name, "1BGX_l_b");
        assert_eq!(s[25].name, "1ATN_l_b");
    }

    #[test]
    fn names_are_unique() {
        let s = zdock_suite();
        let mut names: Vec<_> = s.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 42);
    }

    #[test]
    fn molecules_are_deterministic_and_sized() {
        let e = zdock_entry("1K4C_l_b").unwrap();
        let a = e.molecule();
        let b = e.molecule();
        assert_eq!(a.len(), e.n_atoms);
        assert_eq!(a.positions()[5], b.positions()[5]);
        assert_eq!(a.name, "1K4C_l_b");
    }

    #[test]
    fn different_entries_differ() {
        let s = zdock_suite();
        let a = s[0].molecule();
        let b = s[1].molecule();
        // atom 0 is the first Cα (always at the origin); atom 1 is seeded
        assert_ne!(a.positions()[1], b.positions()[1]);
    }

    #[test]
    fn unknown_entry_is_none() {
        assert!(zdock_entry("9XYZ_l_b").is_none());
    }
}
