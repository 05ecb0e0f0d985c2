//! Perf snapshot of the interaction-list engine vs the per-leaf traversal
//! on a ~20k-atom synthetic workload, as machine-readable JSON.
//!
//! ```text
//! cargo run --release --example bench_interaction > BENCH_interaction.json
//! ```
//!
//! Each phase reports the per-leaf traversal, the list build (one row
//! sweep on the calling thread) and the list execution.
//!
//! `exec_speedup_vs_traversal` is the engine-vs-engine headline: the seed
//! per-leaf traversal over the list engine, both on the default
//! `ExactMath` (the traversal's composed per-pair `1/f_GB`, the list
//! engine's tiles through the fused pair kernel — the production
//! execution path). The energy block splits the list execution into
//! `far_exec_ms` (far tiles alone) and `near_exec_ms` (the rest) and
//! reports the near tiles' shape: owned entries, the gather runs they
//! coalesce into, owned exact pairs and gathered atoms.

use gb_polarize::cluster::OpKind;
use gb_polarize::core::bins::ChargeBins;
use gb_polarize::core::energy::energy_for_leaves;
use gb_polarize::core::fastmath::ExactMath;
use gb_polarize::core::gbmath::R6;
use gb_polarize::core::integrals::{accumulate_qleaf, push_integrals_to_atoms, IntegralAcc};
use gb_polarize::core::{BornLists, EnergyExecScratch, EnergyLists};
use gb_polarize::prelude::*;

/// Best-of-`reps` wall time in milliseconds, plus the run's work units.
///
/// Every closure must route its full numeric result through
/// [`std::hint::black_box`] — earlier revisions returned only the work
/// tally and let LLVM dead-code-eliminate the actual energy arithmetic,
/// which made the energy-phase columns ~10× too optimistic.
fn timed<F: FnMut() -> f64>(reps: usize, mut f: F) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut work = 0.0;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        work = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, work)
}

/// Default (`ExactMath`) energy list-execution time in ms.
fn energy_exec_ms(
    sys: &GbSystem,
    energy: &EnergyLists,
    bins: &ChargeBins,
    radii: &[f64],
    reps: usize,
) -> f64 {
    let mut scratch = EnergyExecScratch::new();
    timed(reps, || {
        let (raw, work) =
            energy.execute_leaves::<ExactMath>(sys, bins, radii, 0..energy.num_vleaves(), &mut scratch);
        std::hint::black_box(raw);
        work
    })
    .0
}

/// Communication-plan columns: integral-phase traffic of the distributed
/// runner at P=8, dense allreduce vs the sparse two-stage plan, plus the
/// wall time of the sparse run. The dense column is the flat allreduce's
/// wire bytes; the sparse column is both staged exchanges plus the scalar
/// energy allreduce that rides along, so the ratio is conservative.
fn comm_columns(sys: &GbSystem, reps: usize) -> (u64, u64, f64) {
    let ranks = 8usize;
    let cluster = SimCluster::single_node();
    let run = |mode: CommMode| {
        try_run_distributed_mode(sys, &cluster, ranks, WorkDivision::NodeNode, mode)
            .expect("distributed run")
    };
    let (_, dense_report) = run(CommMode::Dense);
    let (_, sparse_report) = run(CommMode::Sparse);
    let dense = dense_report.bytes_for_op(OpKind::AllreduceSum);
    let sparse = sparse_report.bytes_for_op(OpKind::SparseExchange)
        + sparse_report.bytes_for_op(OpKind::AllreduceSum);
    let (sparse_exec_ms, _) = timed(reps, || {
        let (res, _) = run(CommMode::Sparse);
        std::hint::black_box(res.energy_kcal)
    });
    (dense, sparse, sparse_exec_ms)
}

fn main() {
    let n_atoms: usize =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let reps = 3usize;
    let mol = synthesize_protein(&SyntheticParams::with_atoms(n_atoms, 4242));
    let sys = GbSystem::prepare(mol, GbParams::default());

    // `GB_BENCH_COMM_ONLY=1`: emit just the communication-plan columns
    // (single rep) — the perf-smoke gate runs this at the 20k-atom size
    // without paying for the traversal/SIMD matrix.
    if std::env::var("GB_BENCH_COMM_ONLY").is_ok() {
        let (dense, sparse, sparse_ms) = comm_columns(&sys, 1);
        println!("{{");
        println!("  \"n_atoms\": {},", sys.num_atoms());
        println!("  \"ranks\": 8,");
        println!("  \"comm_bytes_dense\": {dense},");
        println!("  \"comm_bytes_sparse\": {sparse},");
        println!("  \"comm_sparse_over_dense\": {:.3},", sparse as f64 / dense as f64);
        println!("  \"sparse_exec_ms\": {sparse_ms:.3}");
        println!("}}");
        return;
    }

    let born = BornLists::build(&sys);

    // radii + bins once, for the energy phase
    let mut acc = IntegralAcc::zeros(&sys);
    born.execute_range::<ExactMath, R6>(&sys, 0..born.num_qleaves(), &mut acc);
    let mut radii = vec![0.0; sys.num_atoms()];
    push_integrals_to_atoms::<R6>(&sys, &acc, 0..sys.num_atoms(), &mut radii);
    let bins = ChargeBins::compute(&sys, &radii);

    let energy = EnergyLists::build(&sys);

    // `GB_BENCH_ENERGY_ONLY=1`: emit just the energy engine-vs-engine
    // columns — the perf-smoke speedup gate runs this at the 20k-atom
    // acceptance size without paying for the full column matrix.
    if std::env::var("GB_BENCH_ENERGY_ONLY").is_ok() {
        let (etrav_ms, _) = timed(reps, || {
            let (raw, work) =
                energy_for_leaves::<ExactMath>(&sys, &bins, &radii, sys.ta.leaves());
            std::hint::black_box(raw);
            work
        });
        let eexec_ms = energy_exec_ms(&sys, &energy, &bins, &radii, reps);
        println!("{{");
        println!("  \"n_atoms\": {},", sys.num_atoms());
        println!("  \"energy\": {{");
        println!("    \"traversal_ms\": {etrav_ms:.3},");
        println!("    \"list_exec_ms\": {eexec_ms:.3},");
        println!("    \"exec_speedup_vs_traversal\": {:.3}", etrav_ms / eexec_ms);
        println!("  }}");
        println!("}}");
        return;
    }

    // ---- Born phase: per-leaf traversal (the seed engine) ...
    let (trav_ms, trav_work) = timed(reps, || {
        let mut acc = IntegralAcc::zeros(&sys);
        let mut stack = Vec::new();
        let mut work = 0.0;
        for &q in sys.tq.leaves() {
            work += accumulate_qleaf::<R6>(&sys, q, &mut acc, &mut stack);
        }
        std::hint::black_box(&acc);
        work
    });

    // ... vs one list build + batched execution
    let (build_ms, build_work) = timed(reps, || BornLists::build(&sys).build_work);
    let (exec_ms, exec_work) = timed(reps, || {
        let mut acc = IntegralAcc::zeros(&sys);
        let work = born.execute_range::<ExactMath, R6>(&sys, 0..born.num_qleaves(), &mut acc);
        std::hint::black_box(&acc);
        work
    });

    // ---- Energy phase, same comparison
    let (etrav_ms, etrav_work) = timed(reps, || {
        let (raw, work) = energy_for_leaves::<ExactMath>(&sys, &bins, &radii, sys.ta.leaves());
        std::hint::black_box(raw);
        work
    });
    let (ebuild_ms, ebuild_work) = timed(reps, || EnergyLists::build(&sys).build_work);
    let mut exec_scratch = EnergyExecScratch::new();
    let (eexec_ms, eexec_work) = timed(reps, || {
        let (raw, work) = energy.execute_leaves::<ExactMath>(
            &sys,
            &bins,
            &radii,
            0..energy.num_vleaves(),
            &mut exec_scratch,
        );
        std::hint::black_box(raw);
        work
    });

    // ---- Far-field tile columns: isolated far execution time plus the
    // staged tile shape (convolution savings, ZMM lane occupancy, pair
    // population per nonzero-bin class).
    let (far_ms, _) = timed(reps, || {
        let (raw, work) =
            energy.execute_far::<ExactMath>(&sys, &bins, 0..energy.num_vleaves(), &mut exec_scratch);
        std::hint::black_box(raw);
        work
    });
    let far_stats = energy.far_stats(&sys, &bins);
    let near_stats = energy.near_stats(&sys);

    let (comm_bytes_dense, comm_bytes_sparse, sparse_exec_ms) = comm_columns(&sys, reps);

    println!("{{");
    println!("  \"n_atoms\": {},", sys.num_atoms());
    println!("  \"n_qpoints\": {},", sys.num_qpoints());
    println!("  \"reps\": {reps},");
    println!("  \"born\": {{");
    println!("    \"traversal_ms\": {trav_ms:.3},");
    println!("    \"traversal_work_units\": {trav_work:.1},");
    println!("    \"list_build_ms\": {build_ms:.3},");
    println!("    \"list_build_work_units\": {build_work:.1},");
    println!("    \"list_exec_ms\": {exec_ms:.3},");
    println!("    \"list_exec_work_units\": {exec_work:.1},");
    println!("    \"exec_speedup_vs_traversal\": {:.3}", trav_ms / exec_ms);
    println!("  }},");
    println!("  \"energy\": {{");
    println!("    \"traversal_ms\": {etrav_ms:.3},");
    println!("    \"traversal_work_units\": {etrav_work:.1},");
    println!("    \"list_build_ms\": {ebuild_ms:.3},");
    println!("    \"list_build_work_units\": {ebuild_work:.1},");
    println!("    \"list_exec_ms\": {eexec_ms:.3},");
    println!("    \"list_exec_work_units\": {eexec_work:.1},");
    println!("    \"near_exec_ms\": {:.3},", eexec_ms - far_ms);
    println!("    \"near_owned_entries\": {},", near_stats.owned_entries);
    println!("    \"near_runs\": {},", near_stats.runs);
    println!("    \"near_owned_pairs\": {},", near_stats.owned_pairs);
    println!("    \"near_tile_atoms\": {},", near_stats.tile_atoms);
    println!("    \"far_pair_count\": {},", far_stats.pair_count);
    println!("    \"far_exec_ms\": {far_ms:.3},");
    println!("    \"far_tile_entries\": {},", far_stats.tile_entries);
    println!("    \"far_product_entries\": {},", far_stats.product_entries);
    println!(
        "    \"far_tile_occupancy\": {:.3},",
        far_stats.tile_entries as f64 / (far_stats.padded_lanes.max(1)) as f64
    );
    println!(
        "    \"far_class_pairs\": [{}],",
        far_stats
            .class_pairs
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("    \"exec_speedup_vs_traversal\": {:.3}", etrav_ms / eexec_ms);
    println!("  }},");
    println!("  \"comm\": {{");
    println!("    \"ranks\": 8,");
    println!("    \"comm_bytes_dense\": {comm_bytes_dense},");
    println!("    \"comm_bytes_sparse\": {comm_bytes_sparse},");
    println!(
        "    \"comm_sparse_over_dense\": {:.3},",
        comm_bytes_sparse as f64 / comm_bytes_dense as f64
    );
    println!("    \"sparse_exec_ms\": {sparse_exec_ms:.3}");
    println!("  }}");
    println!("}}");
}
