//! The interaction-list engine against the per-leaf traversal it replaced:
//! list build cost, Born-phase execution from lists, and the old
//! traverse-per-leaf loop, on one mid-size molecule.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gb_core::bins::ChargeBins;
use gb_core::energy::energy_for_leaves;
use gb_core::fastmath::ExactMath;
use gb_core::gbmath::R6;
use gb_core::integrals::{accumulate_qleaf, push_integrals_to_atoms, IntegralAcc};
use gb_core::{BornLists, EnergyExecScratch, EnergyLists, GbParams, GbSystem};
use gb_molecule::{synthesize_protein, SyntheticParams};

fn prepared(n: usize) -> GbSystem {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 17));
    GbSystem::prepare(mol, GbParams::default())
}

fn radii_for(sys: &GbSystem) -> Vec<f64> {
    let born = BornLists::build(sys);
    let mut acc = IntegralAcc::zeros(sys);
    born.execute_range::<ExactMath, R6>(sys, 0..born.num_qleaves(), &mut acc);
    let mut radii = vec![0.0; sys.num_atoms()];
    push_integrals_to_atoms::<R6>(sys, &acc, 0..sys.num_atoms(), &mut radii);
    radii
}

fn bench_interaction_lists(c: &mut Criterion) {
    let mut group = c.benchmark_group("interaction_lists");
    group.sample_size(10);
    let n = 4_000usize;
    let sys = prepared(n);

    // cost of the traversal itself, amortized over every later execution
    group.bench_with_input(BenchmarkId::new("born_list_build", n), &sys, |b, sys| {
        b.iter(|| BornLists::build(sys))
    });
    group.bench_with_input(BenchmarkId::new("energy_list_build", n), &sys, |b, sys| {
        b.iter(|| EnergyLists::build(sys))
    });

    // Born phase: the old per-leaf dual traversal ...
    group.bench_with_input(BenchmarkId::new("born_traversal", n), &sys, |b, sys| {
        b.iter(|| {
            let mut acc = IntegralAcc::zeros(sys);
            let mut stack = Vec::new();
            let mut work = 0.0;
            for &q in sys.tq.leaves() {
                work += accumulate_qleaf::<R6>(sys, q, &mut acc, &mut stack);
            }
            (acc, work)
        })
    });
    // ... against streaming the prebuilt lists through the batched kernels
    let born = BornLists::build(&sys);
    group.bench_with_input(BenchmarkId::new("born_list_exec", n), &sys, |b, sys| {
        b.iter(|| {
            let mut acc = IntegralAcc::zeros(sys);
            let work = born.execute_range::<ExactMath, R6>(sys, 0..born.num_qleaves(), &mut acc);
            (acc, work)
        })
    });

    // Energy phase, same comparison
    let radii = radii_for(&sys);
    let bins = ChargeBins::compute(&sys, &radii);
    group.bench_with_input(BenchmarkId::new("energy_traversal", n), &sys, |b, sys| {
        b.iter(|| energy_for_leaves::<ExactMath>(sys, &bins, &radii, sys.ta.leaves()))
    });
    let energy = EnergyLists::build(&sys);
    let mut scratch = EnergyExecScratch::new();
    group.bench_with_input(BenchmarkId::new("energy_list_exec", n), &sys, |b, sys| {
        b.iter(|| {
            energy.execute_leaves::<ExactMath>(
                sys,
                &bins,
                &radii,
                0..energy.num_vleaves(),
                &mut scratch,
            )
        })
    });

    group.finish();
}

criterion_group!(interaction_lists, bench_interaction_lists);
criterion_main!(interaction_lists);
