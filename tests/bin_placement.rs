//! Bin representative: the paper's lower bin edge `R_min (1+ε)^k` against
//! the exact energy computed with the same Born radii.

use gb_polarize::core::bins::ChargeBins;
use gb_polarize::core::energy::energy_for_leaves;
use gb_polarize::core::fastmath::ExactMath;
use gb_polarize::core::gbmath::finalize_energy;
use gb_polarize::core::naive::{naive_born_radii, naive_energy};
use gb_polarize::prelude::*;

#[test]
fn default_bins_stay_within_the_paper_error_band() {
    // The lower-edge representative underestimates every R_i R_j, but the
    // far-field pair products carry mixed signs, so the energy error stays
    // within a few percent of exact on every seed (EXPERIMENTS.md).
    for seed in [13u64, 33, 9, 44, 66] {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(700, seed));
        let sys = GbSystem::prepare(mol, GbParams::default());
        let radii = naive_born_radii(&sys);
        let radii_tree = sys.to_tree_order(&radii);
        let exact = naive_energy(&sys, &radii);
        let bins = ChargeBins::compute(&sys, &radii_tree);
        let (raw, _) = energy_for_leaves::<ExactMath>(&sys, &bins, &radii_tree, sys.ta.leaves());
        let energy = finalize_energy(raw, sys.params.tau());
        let err = ((energy - exact) / exact).abs();
        assert!(err < 0.06, "seed {seed}: error {err}");
    }
}
