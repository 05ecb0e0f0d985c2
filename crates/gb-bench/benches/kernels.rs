//! Micro-benchmarks of the substrate kernels: octree construction, surface
//! sampling, the Born-integral traversal and the energy traversal.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gb_core::bins::ChargeBins;
use gb_core::energy::energy_for_leaves;
use gb_core::fastmath::ExactMath;
use gb_core::gbmath::R6;
use gb_core::integrals::{accumulate_qleaf, IntegralAcc};
use gb_core::naive::naive_born_radii;
use gb_core::{GbParams, GbSystem};
use gb_molecule::{synthesize_protein, SyntheticParams};
use gb_octree::Octree;
use gb_surface::{sample_surface, SurfaceParams};

fn bench_octree_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("octree_build");
    group.sample_size(10);
    for &n in &[1_000usize, 4_000] {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &mol, |b, mol| {
            b.iter(|| Octree::build(mol.positions(), 8))
        });
    }
    group.finish();
}

fn bench_surface_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("surface_sampling");
    group.sample_size(10);
    for &n in &[1_000usize, 4_000] {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 2));
        group.bench_with_input(BenchmarkId::from_parameter(n), &mol, |b, mol| {
            b.iter(|| sample_surface(mol, &SurfaceParams::default()))
        });
    }
    group.finish();
}

fn bench_born_integrals(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx_integrals");
    group.sample_size(10);
    for &n in &[1_000usize, 4_000] {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 3));
        let sys = GbSystem::prepare(mol, GbParams::default());
        group.bench_with_input(BenchmarkId::from_parameter(n), &sys, |b, sys| {
            b.iter(|| {
                let mut acc = IntegralAcc::zeros(sys);
                let mut stack = Vec::new();
                for &q in sys.tq.leaves() {
                    accumulate_qleaf::<R6>(sys, q, &mut acc, &mut stack);
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_energy_traversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx_epol");
    group.sample_size(10);
    for &n in &[1_000usize, 4_000] {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 4));
        let sys = GbSystem::prepare(mol, GbParams::default());
        let radii = naive_born_radii(&sys);
        let radii_tree = sys.to_tree_order(&radii);
        let bins = ChargeBins::compute(&sys, &radii_tree);
        group.bench_with_input(BenchmarkId::from_parameter(n), &sys, |b, sys| {
            b.iter(|| energy_for_leaves::<ExactMath>(sys, &bins, &radii_tree, sys.ta.leaves()))
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_octree_build,
    bench_surface_sampling,
    bench_born_integrals,
    bench_energy_traversal
);
criterion_main!(kernels);
