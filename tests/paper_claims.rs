//! The paper's qualitative claims, as executable assertions. Each test
//! names the section/figure it reproduces in miniature.

use gb_polarize::baselines::{profile, run_package, BaselineStatus, Package};
use gb_polarize::prelude::*;

/// §V-B: hybrid (2 ranks × 6 threads) holds ~1/6 the replicated memory of
/// pure distributed (12 ranks × 1 thread) per node — the paper measured
/// 8.2 GB vs 1.4 GB (5.86×) for BTV.
#[test]
fn hybrid_memory_ratio_is_near_six() {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(2_000, 11));
    let sys = GbSystem::prepare(mol, GbParams::default());
    let cluster = SimCluster::single_node();
    let dist = modeled_run(&sys, &cluster, 12, 1, WorkDivision::NodeNode);
    let hyb = modeled_run(&sys, &cluster, 2, 6, WorkDivision::NodeNode);
    let ratio = dist.report.node_working_sets()[0] / hyb.report.node_working_sets()[0];
    assert!((5.0..7.0).contains(&ratio), "memory ratio {ratio}, paper: 5.86");
}

/// §V-C: for small molecules communication dominates and fewer ranks win;
/// as molecules grow the distributed configurations overtake the
/// single-node shared-memory runner — the crossover the paper puts near
/// 2 500 atoms.
#[test]
fn communication_dominates_small_molecules() {
    let cost = CostModel::default();
    let cluster = SimCluster::lonestar4(4);
    let time_at = |n: usize, ranks: usize| {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 12));
        let sys = GbSystem::prepare(mol, GbParams::default());
        modeled_run(&sys, &cluster, ranks, 1, WorkDivision::NodeNode).modeled_seconds(&cost)
    };
    // tiny molecule: 48 ranks are *not* profitable vs 4
    let small_few = time_at(200, 4);
    let small_many = time_at(200, 48);
    assert!(
        small_many > small_few * 0.9,
        "48 ranks should not help a 200-atom molecule: {small_many} vs {small_few}"
    );
    // big molecule: they are
    let big_few = time_at(8_000, 4);
    let big_many = time_at(8_000, 48);
    assert!(
        big_many < big_few,
        "48 ranks should beat 4 on an 8000-atom molecule: {big_many} vs {big_few}"
    );
}

/// §V-D / Fig. 9: all methods' energies agree closely with the naive value
/// except Tinker, which lands near 70 %.
#[test]
fn energy_agreement_pattern_of_figure_9() {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(800, 13));
    let sys = GbSystem::prepare(mol.clone(), GbParams::default());
    let naive = naive_full(&sys).energy_kcal;
    let octree = run_shared(&sys).result.energy_kcal;
    let err = ((octree - naive) / naive).abs();
    assert!(err < 0.05, "octree vs naive: {err}");

    let tinker = run_package(&profile(Package::Tinker), &mol, 12).energy_kcal.unwrap();
    let ratio = tinker / naive;
    assert!(
        (0.45..0.95).contains(&ratio),
        "Tinker should sit well below naive: ratio {ratio} (paper: ~0.70)"
    );
}

/// §V-D: Tinker and GBr⁶ run out of memory beyond ~12–13 k atoms while the
/// octree methods keep going.
#[test]
fn large_molecule_oom_pattern() {
    let big = synthesize_protein(&SyntheticParams::with_atoms(14_000, 14));
    assert_eq!(
        run_package(&profile(Package::Tinker), &big, 12).status,
        BaselineStatus::OutOfMemory
    );
    assert_eq!(
        run_package(&profile(Package::GBr6), &big, 12).status,
        BaselineStatus::OutOfMemory
    );
    // the octree pipeline handles it fine (prepare + a cheap modeled run)
    let sys = GbSystem::prepare(big, GbParams::default());
    let out = modeled_run(&sys, &SimCluster::single_node(), 12, 1, WorkDivision::NodeNode);
    assert!(out.result.energy_kcal.is_finite());
}

/// §IV: node-based division's error is constant in P; atom-based division's
/// error moves with P.
#[test]
fn division_scheme_error_behaviour() {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(600, 15));
    let sys = GbSystem::prepare(mol, GbParams::default());
    let cluster = SimCluster::single_node();

    let node_energies: Vec<f64> = [1usize, 4, 9]
        .iter()
        .map(|&p| run_distributed(&sys, &cluster, p, WorkDivision::NodeNode).0.energy_kcal)
        .collect();
    let node_spread = spread(&node_energies);
    assert!(node_spread < 1e-9, "node-based spread {node_spread}");

    let atom_energies: Vec<f64> = [1usize, 4, 9]
        .iter()
        .map(|&p| run_distributed(&sys, &cluster, p, WorkDivision::AtomNode).0.energy_kcal)
        .collect();
    let atom_spread = spread(&atom_energies);
    assert!(
        atom_spread > node_spread,
        "atom-based spread {atom_spread} should exceed node-based {node_spread}"
    );
}

fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / values[0].abs()
}

/// §II / §VI: nblist memory grows with the cutoff, octree memory does not
/// change with ε — the core data-structure argument of the paper.
#[test]
fn octree_memory_is_epsilon_independent_nblist_is_not() {
    use gb_polarize::baselines::NbList;
    let mol = synthesize_protein(&SyntheticParams::with_atoms(2_000, 16));

    // nblist: memory grows steeply with the cutoff
    let small = NbList::build(mol.positions(), 6.0).memory_bytes();
    let large = NbList::build(mol.positions(), 18.0).memory_bytes();
    assert!(large > 5 * small, "nblist bytes {small} -> {large}");

    // octree system: identical footprint for any ε (the trees don't change)
    // (clone both so Vec capacities are comparable)
    let sys_loose =
        GbSystem::prepare(mol.clone(), GbParams::default().with_epsilons(0.9, 0.9));
    let sys_strict =
        GbSystem::prepare(mol.clone(), GbParams::default().with_epsilons(0.1, 0.1));
    assert_eq!(sys_loose.memory_bytes(), sys_strict.memory_bytes());
}

/// Fig. 11 in miniature: on virus-shell workloads the octree beats the
/// Amber analog, and its advantage *grows* with the molecule (the paper's
/// 11× at 16 k atoms becoming ~500× at 509 k) — the near–far decomposition
/// prunes more as the molecule dwarfs the exact-interaction zone. Accuracy
/// stays ~1 % vs the tight-ε reference.
#[test]
fn shell_speedup_over_amber_analog_grows_with_size() {
    let cost = CostModel::default();
    // thin shells: the geometry where the near–far decomposition shines
    let speedup_at = |n_atoms: usize| {
        let mol = virus_shell(n_atoms, 17, Some(10.0));
        let sys = GbSystem::prepare(mol.clone(), GbParams::default());
        let octree =
            modeled_run(&sys, &SimCluster::single_node(), 12, 1, WorkDivision::NodeNode);
        let amber = run_package(&profile(Package::Amber), &mol, 12);
        (amber.modeled_seconds / octree.modeled_seconds(&cost), octree.result.energy_kcal, mol)
    };
    let (s_small, e_small, mol_small) = speedup_at(6_000);
    let (s_large, _, _) = speedup_at(20_000);
    assert!(s_large > 4.0, "octree should clearly beat the Amber analog: {s_large}");
    assert!(
        s_large > 1.2 * s_small,
        "speedup should grow with size: {s_small} -> {s_large}"
    );

    // accuracy (at the smaller size, where the exact reference is cheap):
    // against the tight-ε octree reference
    let reference = {
        let sys = GbSystem::prepare(mol_small, GbParams::default().with_epsilons(1e-9, 1e-9));
        run_shared(&sys).result.energy_kcal
    };
    let err = ((e_small - reference) / reference).abs() * 100.0;
    assert!(err < 1.5, "shell energy error {err}% (paper: < 1%)");
}
