//! Fig. 10 as a criterion bench: the energy-phase ε speed dial, measured as
//! real wall-clock of the serial pipeline (Born ε fixed at 0.9, the paper's
//! protocol).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gb_core::runners::run_serial;
use gb_core::{GbParams, GbSystem};
use gb_molecule::{synthesize_protein, SyntheticParams};

fn bench_epsilon(c: &mut Criterion) {
    let mut group = c.benchmark_group("epsilon_sweep");
    group.sample_size(10);
    let mol = synthesize_protein(&SyntheticParams::with_atoms(2_000, 9));
    for &eps in &[0.1, 0.3, 0.5, 0.7, 0.9] {
        let sys =
            GbSystem::prepare(mol.clone(), GbParams::default().with_epsilons(0.9, eps));
        group.bench_with_input(BenchmarkId::from_parameter(eps), &sys, |b, sys| {
            b.iter(|| run_serial(sys))
        });
    }
    group.finish();
}

criterion_group!(epsilon_sweep, bench_epsilon);
criterion_main!(epsilon_sweep);
