//! The polarization-energy kernel `APPROX-EPOL` (paper Fig. 3).
//!
//! For one `T_A` leaf `V`, walk `T_A` from the root accumulating the raw
//! ordered-pair sum `Σ_{u∈tree, v∈V} q_u q_v / f_GB`:
//!
//! 1. `U` a leaf → exact double loop (leaf–leaf pairs are *always* exact,
//!    Fig. 3's check order — this is why node-based division approximates
//!    less than atom-based),
//! 2. `U` far (`r_UV > (r_U + r_V)(1 + 2/ε)`) → `bins²` histogram
//!    contraction with `R_i R_j ≈ R_min²(1+ε)^{i+j}`,
//! 3. otherwise recurse into `U`'s children.
//!
//! Summing over every leaf `V` covers every ordered atom pair exactly once
//! (including `u = v`, the Born self terms), giving Eq. 2 after
//! [`finalize_energy`](crate::gbmath::finalize_energy).
//!
//! No runner walks the tree: every runner executes the energy lists of
//! [`crate::interaction`], whose row sweeps make these decisions and bill
//! these work units. [`energy_for_leaf`] is kept as the oracle the sweeps
//! are tested against and as the reference the traversal-speedup
//! benchmarks divide by.

use crate::bins::ChargeBins;
use crate::fastmath::MathMode;
use crate::gbmath::inv_f_gb;
use crate::integrals::TRAVERSAL_UNIT;
use crate::system::GbSystem;
use gb_octree::{NodeId, Octree};

/// Raw energy contribution of leaf `V` against the whole tree, plus work
/// units spent. `radii_tree` is Born radii in `T_A` tree order.
pub fn energy_for_leaf<M: MathMode>(
    sys: &GbSystem,
    bins: &ChargeBins,
    radii_tree: &[f64],
    v_leaf: NodeId,
    stack: &mut Vec<NodeId>,
) -> (f64, f64) {
    let ta = &sys.ta;
    let v = ta.node(v_leaf);
    let (v_nzq, v_nzr) = bins.node_nonzero(v_leaf);
    let mac = sys.params.energy_mac_factor();
    let mut raw = 0.0;
    let mut work = 0.0;

    debug_assert!(stack.is_empty());
    stack.push(Octree::ROOT);
    while let Some(u_id) = stack.pop() {
        work += TRAVERSAL_UNIT;
        let u = ta.node(u_id);
        if u.is_leaf() {
            // Exact leaf–leaf double sum (includes u == v self pairs when
            // U and V are the same leaf).
            for ui in u.range() {
                let xu = ta.points()[ui];
                let qu = sys.charge_tree[ui];
                let ru = radii_tree[ui];
                let mut row = 0.0;
                for vi in v.range() {
                    let r_sq = xu.dist_sq(ta.points()[vi]);
                    row += sys.charge_tree[vi] * inv_f_gb::<M>(r_sq, ru * radii_tree[vi]);
                }
                raw += qu * row;
            }
            work += (u.count() * v.count()) as f64;
        } else {
            let d = u.centroid.dist(v.centroid);
            if d > (u.radius + v.radius) * mac {
                // Far field: histogram contraction over precompacted
                // nonzero entries (ascending bin order, so the term order
                // matches the dense zero-skipping loop bit for bit).
                let (u_nzq, u_nzr) = bins.node_nonzero(u_id);
                let d_sq = d * d;
                for (&qu, &ri) in u_nzq.iter().zip(u_nzr) {
                    for (&qv, &rj) in v_nzq.iter().zip(v_nzr) {
                        raw += qu * qv * inv_f_gb::<M>(d_sq, ri * rj);
                    }
                }
                work += (u_nzq.len() * v_nzq.len()) as f64;
            } else {
                stack.extend(u.children());
            }
        }
    }
    (raw, work)
}

/// Raw energy over a set of `V` leaves. Returns `(raw_sum, work)`.
pub fn energy_for_leaves<M: MathMode>(
    sys: &GbSystem,
    bins: &ChargeBins,
    radii_tree: &[f64],
    v_leaves: &[NodeId],
) -> (f64, f64) {
    let mut stack = Vec::new();
    let mut raw = 0.0;
    let mut work = 0.0;
    for &v in v_leaves {
        let (r, w) = energy_for_leaf::<M>(sys, bins, radii_tree, v, &mut stack);
        raw += r;
        work += w;
    }
    (raw, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastmath::ExactMath;
    use crate::gbmath::finalize_energy;
    use crate::naive::{naive_born_radii, naive_energy};
    use crate::params::GbParams;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn prepared(n: usize, eps: f64) -> (GbSystem, Vec<f64>, ChargeBins) {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 21));
        let sys = GbSystem::prepare(mol, GbParams::default().with_epsilons(eps, eps));
        // exact radii so the energy comparison isolates the energy-phase error
        let radii = naive_born_radii(&sys);
        let radii_tree = sys.to_tree_order(&radii);
        let bins = ChargeBins::compute(&sys, &radii_tree);
        (sys, radii_tree, bins)
    }

    fn octree_energy(sys: &GbSystem, radii_tree: &[f64], bins: &ChargeBins) -> f64 {
        let (raw, _) =
            energy_for_leaves::<ExactMath>(sys, bins, radii_tree, sys.ta.leaves());
        finalize_energy(raw, sys.params.tau())
    }

    #[test]
    fn tiny_epsilon_matches_naive_energy() {
        let (sys, radii_tree, bins) = prepared(150, 1e-9);
        let octree = octree_energy(&sys, &radii_tree, &bins);
        let naive = naive_energy(&sys, &sys.radii_to_original(&radii_tree));
        assert!(
            (octree - naive).abs() < 1e-6 * naive.abs(),
            "octree {octree} vs naive {naive}"
        );
    }

    #[test]
    fn default_epsilon_energy_error_below_two_percent() {
        // the paper's headline accuracy: ~1 % at ε = 0.9
        let (sys, radii_tree, bins) = prepared(500, 0.9);
        let octree = octree_energy(&sys, &radii_tree, &bins);
        let naive = naive_energy(&sys, &sys.radii_to_original(&radii_tree));
        let err = ((octree - naive) / naive).abs() * 100.0;
        assert!(err < 2.0, "energy error {err}% (octree {octree}, naive {naive})");
    }

    #[test]
    fn error_decreases_as_epsilon_shrinks() {
        let errors: Vec<f64> = [0.9, 0.4, 0.1]
            .iter()
            .map(|&eps| {
                let (sys, radii_tree, bins) = prepared(400, eps);
                let octree = octree_energy(&sys, &radii_tree, &bins);
                let naive = naive_energy(&sys, &sys.radii_to_original(&radii_tree));
                ((octree - naive) / naive).abs()
            })
            .collect();
        assert!(
            errors[2] <= errors[0] + 1e-12,
            "ε=0.1 error {} should not exceed ε=0.9 error {}",
            errors[2],
            errors[0]
        );
    }

    #[test]
    fn leaf_segments_sum_to_total() {
        let (sys, radii_tree, bins) = prepared(300, 0.9);
        let (total, _) =
            energy_for_leaves::<ExactMath>(&sys, &bins, &radii_tree, sys.ta.leaves());
        let mut by_segments = 0.0;
        for seg in crate::workdiv::leaf_segments(&sys.ta, 5) {
            let (part, _) = energy_for_leaves::<ExactMath>(
                &sys,
                &bins,
                &radii_tree,
                &sys.ta.leaves()[seg],
            );
            by_segments += part;
        }
        assert!((total - by_segments).abs() < 1e-9 * total.abs());
    }

    #[test]
    fn work_drops_with_larger_epsilon() {
        let (sys_loose, radii_l, bins_l) = prepared(600, 0.9);
        let (sys_strict, radii_s, bins_s) = prepared(600, 0.1);
        let (_, w_loose) =
            energy_for_leaves::<ExactMath>(&sys_loose, &bins_l, &radii_l, sys_loose.ta.leaves());
        let (_, w_strict) =
            energy_for_leaves::<ExactMath>(&sys_strict, &bins_s, &radii_s, sys_strict.ta.leaves());
        assert!(w_loose < w_strict, "loose {w_loose} vs strict {w_strict}");
    }
}
