//! Fig. 7 as a criterion bench: real wall-clock of the serial, shared and
//! distributed octree runners plus the naive baseline, at ladder sizes.
//!
//! (The figure itself uses modeled 12-core times; this bench measures the
//! actual implementations on the host.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gb_cluster::SimCluster;
use gb_core::naive::naive_full;
use gb_core::runners::{run_data_distributed, run_distributed, run_hybrid, run_serial, run_shared};
use gb_core::{GbParams, GbSystem, WorkDivision};
use gb_geom::{DetRng, Vec3};
use gb_molecule::{synthesize_protein, SyntheticParams};
use gb_octree::Octree;

fn bench_runners(c: &mut Criterion) {
    let mut group = c.benchmark_group("octree_variants");
    group.sample_size(10);
    for &n in &[500usize, 2_000] {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 7));
        let sys = GbSystem::prepare(mol, GbParams::default());
        let cluster = SimCluster::single_node();

        group.bench_with_input(BenchmarkId::new("serial", n), &sys, |b, sys| {
            b.iter(|| run_serial(sys))
        });
        group.bench_with_input(BenchmarkId::new("shared", n), &sys, |b, sys| {
            b.iter(|| run_shared(sys))
        });
        group.bench_with_input(BenchmarkId::new("distributed_x4", n), &sys, |b, sys| {
            b.iter(|| run_distributed(sys, &cluster, 4, WorkDivision::NodeNode))
        });
        group.bench_with_input(BenchmarkId::new("hybrid_2x2", n), &sys, |b, sys| {
            b.iter(|| run_hybrid(sys, &cluster, 2, 2))
        });
        group.bench_with_input(BenchmarkId::new("data_distributed_x4", n), &sys, |b, sys| {
            b.iter(|| run_data_distributed(sys, &cluster, 4))
        });
        if n <= 500 {
            group.bench_with_input(BenchmarkId::new("naive", n), &sys, |b, sys| {
                b.iter(|| naive_full(sys))
            });
        }
    }
    group.finish();
}

/// Per-frame tree maintenance: full `Octree::build` vs `refit` under a
/// small jitter vs `refit` of an unchanged frame (the dirty-subtree
/// early-out — must be near-free).
fn bench_refit(c: &mut Criterion) {
    let mut group = c.benchmark_group("octree_refit");
    group.sample_size(20);
    for &n in &[2_000usize, 20_000] {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 7));
        let positions = mol.positions().to_vec();
        let mut rng = DetRng::new(11);
        let jittered: Vec<Vec3> = positions
            .iter()
            .map(|&p| p + Vec3::new(rng.normal(), rng.normal(), rng.normal()) * 0.05)
            .collect();

        group.bench_with_input(BenchmarkId::new("build", n), &positions, |b, pos| {
            b.iter(|| Octree::build(pos, 8))
        });
        group.bench_with_input(BenchmarkId::new("refit_jitter", n), &jittered, |b, pos| {
            // alternate A <-> B so every iteration actually moves atoms
            let mut tree = Octree::build(&positions, 8);
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                tree.refit(if flip { pos } else { &positions })
            })
        });
        group.bench_with_input(BenchmarkId::new("refit_identity", n), &positions, |b, pos| {
            let mut tree = Octree::build(&positions, 8);
            tree.refit(pos);
            b.iter(|| tree.refit(pos))
        });
    }
    group.finish();
}

criterion_group!(octree_variants, bench_runners, bench_refit);
criterion_main!(octree_variants);
