//! Property-based tests (proptest) on the core data structures and the
//! cross-cutting invariants of the pipeline.

use gb_polarize::core::bins::ChargeBins;
use gb_polarize::core::energy::energy_for_leaves;
use gb_polarize::core::fastmath::ExactMath;
use gb_polarize::core::gbmath::{RadiiApprox, R4, R6};
use gb_polarize::core::integrals::{accumulate_qleaf, push_integrals_to_atoms, IntegralAcc};
use gb_polarize::core::{BornLists, EnergyLists};
use gb_polarize::geom::{Aabb, Vec3};
use gb_polarize::octree::Octree;
use gb_polarize::prelude::*;
use proptest::prelude::*;

/// Runs one full pipeline twice — per-leaf traversal oracle vs the
/// interaction-list engine — and returns (max relative radii divergence,
/// relative raw-energy divergence).
fn engine_divergence<K: RadiiApprox>(sys: &GbSystem) -> (f64, f64) {
    // traversal-driven oracle
    let mut acc_t = IntegralAcc::zeros(sys);
    let mut stack = Vec::new();
    for &q in sys.tq.leaves() {
        accumulate_qleaf::<K>(sys, q, &mut acc_t, &mut stack);
    }
    let mut radii_t = vec![0.0; sys.num_atoms()];
    push_integrals_to_atoms::<K>(sys, &acc_t, 0..sys.num_atoms(), &mut radii_t);
    let bins_t = ChargeBins::compute(sys, &radii_t);
    let (raw_t, _) = energy_for_leaves::<ExactMath>(sys, &bins_t, &radii_t, sys.ta.leaves());

    // list-driven engine
    let born = BornLists::build(sys);
    let mut acc_l = IntegralAcc::zeros(sys);
    born.execute_range::<ExactMath, K>(sys, 0..born.num_qleaves(), &mut acc_l);
    let mut radii_l = vec![0.0; sys.num_atoms()];
    push_integrals_to_atoms::<K>(sys, &acc_l, 0..sys.num_atoms(), &mut radii_l);
    let bins_l = ChargeBins::compute(sys, &radii_l);
    let energy = EnergyLists::build(sys);
    let mut scratch = gb_polarize::core::EnergyExecScratch::new();
    let rows = 0..energy.num_vleaves();
    let (raw_l, _) = energy.execute_leaves::<ExactMath>(sys, &bins_l, &radii_l, rows, &mut scratch);

    let mut dr = 0.0f64;
    for (a, b) in radii_t.iter().zip(&radii_l) {
        dr = dr.max((a - b).abs() / a.abs().max(1.0));
    }
    let de = (raw_t - raw_l).abs() / raw_t.abs().max(1.0);
    (dr, de)
}

fn engine_divergence_for(n: usize, seed: u64, radii: RadiiKind) -> (f64, f64) {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(n, seed));
    let sys = GbSystem::prepare(mol, GbParams::default().with_radii_kind(radii));
    match radii {
        RadiiKind::R6 => engine_divergence::<R6>(&sys),
        RadiiKind::R4 => engine_divergence::<R4>(&sys),
    }
}

#[test]
fn list_engine_matches_traversal_for_all_kernel_combos() {
    // deterministic sweep: every RadiiKind monomorphization, at
    // degenerate (1-atom / single-leaf) and multi-level tree sizes
    for n in [1usize, 2, 25, 400] {
        for radii in [RadiiKind::R6, RadiiKind::R4] {
            let (dr, de) = engine_divergence_for(n, 7, radii);
            assert!(dr < 1e-12 && de < 1e-12, "n={n} {radii:?}: radii {dr:e}, energy {de:e}");
        }
    }
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (-100.0f64..100.0, -100.0f64..100.0, -100.0f64..100.0)
            .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn octree_always_valid(points in arb_points(300), cap in 1usize..16) {
        let tree = Octree::build(&points, cap);
        prop_assert_eq!(tree.validate(), Ok(()));
        prop_assert_eq!(tree.num_points(), points.len());
    }

    #[test]
    fn octree_sphere_query_matches_brute_force(
        points in arb_points(150),
        cx in -120.0f64..120.0,
        cy in -120.0f64..120.0,
        cz in -120.0f64..120.0,
        r in 0.0f64..80.0,
    ) {
        let tree = Octree::build(&points, 4);
        let c = Vec3::new(cx, cy, cz);
        let mut got: Vec<usize> = Vec::new();
        tree.for_each_in_sphere(c, r, |_, orig, _| got.push(orig));
        got.sort_unstable();
        let mut want: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].dist_sq(c) <= r * r)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn octree_aggregate_counts(points in arb_points(200), cap in 1usize..12) {
        let tree = Octree::build(&points, cap);
        let counts: Vec<usize> = tree.aggregate(|r| r.len(), |a, b| *a += b);
        prop_assert_eq!(counts[0], points.len());
        for (id, n) in tree.nodes().iter().enumerate() {
            prop_assert_eq!(counts[id], n.count());
        }
    }

    #[test]
    fn bbox_from_points_contains_all(points in arb_points(100)) {
        let b = Aabb::from_points(&points);
        for p in &points {
            prop_assert!(b.contains(*p));
        }
        // the cubified box still contains everything
        let c = b.cube(1e-9);
        for p in &points {
            prop_assert!(c.contains(*p));
        }
    }

    #[test]
    fn morton_order_is_a_permutation(points in arb_points(200)) {
        let bbox = Aabb::from_points(&points).cube(1e-9);
        let order = gb_polarize::geom::morton::sort_indices_by_code(&points, &bbox);
        let mut sorted: Vec<u32> = order.clone();
        sorted.sort_unstable();
        let expect: Vec<u32> = (0..points.len() as u32).collect();
        prop_assert_eq!(sorted, expect);
    }

    #[test]
    fn collectives_sum_correctly(
        p in 1usize..9,
        values in prop::collection::vec(-1e3f64..1e3, 1..20),
    ) {
        let cluster = SimCluster::single_node();
        let vals = values.clone();
        let (results, _) = cluster.run(p, 1, move |c| {
            let mut local: Vec<f64> =
                vals.iter().map(|v| v * (c.rank() + 1) as f64).collect();
            c.allreduce_sum(&mut local);
            local
        });
        // Σ_r (r+1) = p(p+1)/2
        let factor = (p * (p + 1) / 2) as f64;
        for r in &results {
            for (got, want) in r.iter().zip(&values) {
                prop_assert!((got - want * factor).abs() < 1e-6 * want.abs().max(1.0));
            }
        }
    }

    #[test]
    fn even_ranges_always_partition(n in 0usize..10_000, p in 1usize..64) {
        let ranges = gb_polarize::core::workdiv::even_ranges(n, p);
        prop_assert_eq!(ranges.len(), p);
        let mut cursor = 0;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, n);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        prop_assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }
}

proptest! {
    // heavier cases: fewer iterations
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_runs_on_arbitrary_small_molecules(n in 2usize..60, seed in 0u64..1000) {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, seed));
        let sys = GbSystem::prepare(mol, GbParams::default());
        let out = run_serial(&sys);
        prop_assert!(out.result.energy_kcal.is_finite());
        // E_pol is negative for any molecule with meaningful charge
        // separation; 2–3 atom fragments with near-cancelling dipole
        // charges can land at ~0 (GB's f_GB is approximate there)
        if n >= 10 {
            prop_assert!(out.result.energy_kcal < 0.0);
        }
        for (i, &r) in out.result.born_radii.iter().enumerate() {
            prop_assert!(r >= sys.molecule.radii()[i] - 1e-9);
            prop_assert!(r.is_finite());
        }
    }

    #[test]
    fn list_engine_matches_traversal_engine(
        n in 1usize..70,
        seed in 0u64..500,
        radii_idx in 0usize..2,
    ) {
        let radii = if radii_idx == 0 { RadiiKind::R6 } else { RadiiKind::R4 };
        let (dr, de) = engine_divergence_for(n, seed, radii);
        prop_assert!(dr < 1e-12, "radii diverged by {dr:e} (n={n}, {radii:?})");
        prop_assert!(de < 1e-12, "energy diverged by {de:e} (n={n}, {radii:?})");
    }

    #[test]
    fn node_division_energy_rank_invariant(p in 1usize..12, seed in 0u64..100) {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(150, seed));
        let sys = GbSystem::prepare(mol, GbParams::default());
        let serial = run_serial(&sys).result.energy_kcal;
        let (dist, _) = run_distributed(
            &sys,
            &SimCluster::single_node(),
            p,
            WorkDivision::NodeNode,
        );
        prop_assert!((dist.energy_kcal - serial).abs() < 1e-9 * serial.abs());
    }

    #[test]
    fn surface_area_positive_and_bounded(n in 2usize..80, seed in 0u64..500) {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, seed));
        let q = gb_polarize::surface::sample_surface(&mol, &SurfaceParams::default());
        let area = q.total_area();
        prop_assert!(area > 0.0);
        // bounded by the sum of full (probe-inflated) sphere areas
        let probe = SurfaceParams::default().probe_radius;
        let full: f64 = mol
            .radii()
            .iter()
            .map(|r| 4.0 * std::f64::consts::PI * (r + probe) * (r + probe))
            .sum();
        prop_assert!(area <= full * (1.0 + 1e-9));
    }
}
