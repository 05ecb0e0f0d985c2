//! Perf snapshot of the interaction-list engine vs the per-leaf traversal
//! on a ~20k-atom synthetic workload, as machine-readable JSON.
//!
//! ```text
//! cargo run --release --example bench_interaction > BENCH_interaction.json
//! ```
//!
//! Besides the original traversal-vs-list comparison, the snapshot carries
//! two optimization columns:
//!
//! * `list_build_parallel_ms` — the same CSR lists built by
//!   `build_tasks(sys, tasks)` range-parallel walks (byte-identical layout;
//!   `build_tasks` reports the task count, `build_threads` the cores the
//!   host actually offers — on a single-core box the parallel build is
//!   just the partitioned walk on one thread);
//! * `simd_exec_ms` — list execution under `VectorMath` at the
//!   runtime-dispatched SIMD level (`simd_level`), against
//!   `scalar_exec_ms`: the *same* math mode forced to the scalar reference
//!   loops. The level is a process-wide `OnceLock`, so the scalar column
//!   comes from re-running this binary as a child process with
//!   `GB_SIMD=scalar` — an apples-to-apples SIMD-vs-scalar measurement
//!   (both levels produce bit-identical energies by construction).
//!   The `simd_levels` block repeats that child run at every `GB_SIMD`
//!   level, so each level's Born and energy exec time — and its margin
//!   over `portable` — is a recorded number.
//!   `simd_energy_rel_err` bounds the `VectorMath`-vs-`ExactMath` energy
//!   deviation on identical radii and bins.
//!
//! `exec_speedup_vs_traversal` is the engine-vs-engine headline: the seed
//! per-leaf traversal (scalar `ExactMath` reference, exactly what the
//! pre-list engine ran) over the list engine at the dispatched SIMD level
//! (`VectorMath` batched kernels — the production execution path). The
//! same-math mirror ratio stays observable as
//! `exact_exec_speedup_vs_traversal` (`list_exec_ms` is the `ExactMath`
//! list execution), and `simd_energy_rel_err` bounds what the math-mode
//! switch costs in accuracy.

use gb_polarize::cluster::OpKind;
use gb_polarize::core::bins::ChargeBins;
use gb_polarize::core::energy::energy_for_leaves;
use gb_polarize::core::fastmath::{ExactMath, VectorMath};
use gb_polarize::core::gbmath::R6;
use gb_polarize::core::integrals::{accumulate_qleaf, push_integrals_to_atoms, IntegralAcc};
use gb_polarize::core::simd::SimdLevel;
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

/// `VectorMath` list-execution times (born, energy) in ms at whatever SIMD
/// level this process dispatched — the quantity compared across levels.
fn vector_exec_times(
    sys: &GbSystem,
    born: &BornLists,
    energy: &EnergyLists,
    bins: &ChargeBins,
    radii: &[f64],
    reps: usize,
) -> (f64, f64) {
    let (born_ms, _) = timed(reps, || {
        let mut acc = IntegralAcc::zeros(sys);
        let work = born.execute_range::<VectorMath, R6>(sys, 0..born.num_qleaves(), &mut acc);
        std::hint::black_box(&acc);
        work
    });
    let mut scratch = EnergyExecScratch::new();
    let (energy_ms, _) = timed(reps, || {
        let (raw, work) = energy.execute_leaves::<VectorMath>(
            sys,
            bins,
            radii,
            0..energy.num_vleaves(),
            &mut scratch,
        );
        std::hint::black_box(raw);
        work
    });
    (born_ms, energy_ms)
}

/// The `GB_SIMD` levels of the per-level columns, narrowest first.
const LEVELS: [&str; 4] = ["scalar", "portable", "avx2", "avx512"];

/// Re-runs this binary with `GB_SIMD=<level>` to time `VectorMath` list
/// execution at that level (the dispatch level is decided once per
/// process). The child prints the level it actually dispatched (a level
/// the host lacks degrades to the next one down) and two floats; a
/// failure degrades to NaN columns rather than aborting the snapshot.
fn exec_times_at_level(n_atoms: usize, level: &str) -> (String, f64, f64) {
    let out = std::env::current_exe().ok().and_then(|exe| {
        std::process::Command::new(exe)
            .arg(n_atoms.to_string())
            .env("GB_SIMD", level)
            .env("GB_BENCH_EXEC_CHILD", "1")
            .output()
            .ok()
    });
    let parsed = out.and_then(|o| {
        let s = String::from_utf8(o.stdout).ok()?;
        let mut it = s.split_whitespace();
        let name = it.next()?.to_string();
        Some((name, it.next()?.parse().ok()?, it.next()?.parse().ok()?))
    });
    parsed.unwrap_or_else(|| (level.to_string(), f64::NAN, f64::NAN))
}

/// Communication-plan columns: integral-phase traffic of the distributed
/// runner at P=8, dense allreduce vs the sparse two-stage plan, plus the
/// wall time of the chunk-pipelined sparse run (isends posted for finished
/// chunks while the next chunk computes). The dense column is the flat
/// allreduce's wire bytes; the sparse column is the plan's nonblocking
/// sends plus both staged exchanges plus the scalar energy allreduce that
/// rides along, so the ratio is conservative.
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
    let sparse = sparse_report.bytes_for_op(OpKind::Isend)
        + sparse_report.bytes_for_op(OpKind::SparseExchange)
        + sparse_report.bytes_for_op(OpKind::AllreduceSum);
    let (overlap_exec_ms, _) = timed(reps, || {
        let (res, _) = run(CommMode::Sparse);
        std::hint::black_box(res.energy_kcal)
    });
    (dense, sparse, overlap_exec_ms)
}

fn main() {
    let n_atoms: usize =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let reps = 3usize;
    // `GB_BUILD_THREADS` pins the list-build worker count (default: the
    // machine); the parallel-build timings run inside an explicitly sized
    // rayon pool so the column measures the requested width, not whatever
    // global pool happened to exist first.
    let threads = std::env::var("GB_BUILD_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("rayon pool");
    let build_tasks = threads.max(4);
    let mol = synthesize_protein(&SyntheticParams::with_atoms(n_atoms, 4242));
    let sys = GbSystem::prepare(mol, GbParams::default());
    let child_mode = std::env::var("GB_BENCH_EXEC_CHILD").is_ok();

    // `GB_BENCH_COMM_ONLY=1`: emit just the communication-plan columns
    // (single rep) — the perf-smoke gate runs this at the 20k-atom size
    // without paying for the traversal/SIMD matrix.
    if std::env::var("GB_BENCH_COMM_ONLY").is_ok() {
        let (dense, sparse, overlap_ms) = comm_columns(&sys, 1);
        println!("{{");
        println!("  \"n_atoms\": {},", sys.num_atoms());
        println!("  \"ranks\": 8,");
        println!("  \"comm_bytes_dense\": {dense},");
        println!("  \"comm_bytes_sparse\": {sparse},");
        println!("  \"comm_sparse_over_dense\": {:.3},", sparse as f64 / dense as f64);
        println!("  \"overlap_exec_ms\": {overlap_ms:.3}");
        println!("}}");
        return;
    }

    let born = BornLists::build(&sys);

    // radii + bins once, for the energy phase (ExactMath radii are
    // bit-identical at every SIMD level, so parent and child agree)
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
        let mut scratch = EnergyExecScratch::new();
        let (esimd_ms, _) = timed(reps, || {
            let (raw, work) = energy.execute_leaves::<VectorMath>(
                &sys,
                &bins,
                &radii,
                0..energy.num_vleaves(),
                &mut scratch,
            );
            std::hint::black_box(raw);
            work
        });
        println!("{{");
        println!("  \"n_atoms\": {},", sys.num_atoms());
        println!("  \"simd_level\": \"{}\",", SimdLevel::active().name());
        println!("  \"energy\": {{");
        println!("    \"traversal_ms\": {etrav_ms:.3},");
        println!("    \"simd_exec_ms\": {esimd_ms:.3},");
        println!("    \"exec_speedup_vs_traversal\": {:.3}", etrav_ms / esimd_ms);
        println!("  }}");
        println!("}}");
        return;
    }

    if child_mode {
        let (b, e) = vector_exec_times(&sys, &born, &energy, &bins, &radii, reps);
        println!("{} {b:.3} {e:.3}", SimdLevel::active().name());
        return;
    }

    // ---- Born phase: per-leaf traversal (the seed engine) ...
    let (trav_ms, trav_work) = timed(reps, || {
        let mut acc = IntegralAcc::zeros(&sys);
        let mut stack = Vec::new();
        let mut work = 0.0;
        for &q in sys.tq.leaves() {
            work += accumulate_qleaf::<ExactMath, R6>(&sys, q, &mut acc, &mut stack);
        }
        std::hint::black_box(&acc);
        work
    });

    // ... vs one list build + batched execution
    let (build_ms, build_work) = timed(reps, || BornLists::build(&sys).build_work);
    let (pbuild_ms, _) =
        pool.install(|| timed(reps, || BornLists::build_tasks(&sys, build_tasks).build_work));
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
    let (epbuild_ms, _) =
        pool.install(|| timed(reps, || EnergyLists::build_tasks(&sys, build_tasks).build_work));
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

    // ---- SIMD columns: VectorMath at the dispatched level vs the same
    // math forced scalar in a child process
    let (simd_exec_ms, esimd_exec_ms) =
        vector_exec_times(&sys, &born, &energy, &bins, &radii, reps);
    let levels: Vec<_> = LEVELS
        .iter()
        .map(|level| exec_times_at_level(n_atoms, level))
        .collect();
    let (scalar_exec_ms, escalar_exec_ms) = (levels[0].1, levels[0].2);

    // Accuracy guard for the fastmath column: raw energy of the two math
    // modes over identical radii and bins.
    let raw_exact = energy
        .execute_leaves::<ExactMath>(&sys, &bins, &radii, 0..energy.num_vleaves(), &mut exec_scratch)
        .0;
    let raw_simd = energy
        .execute_leaves::<VectorMath>(&sys, &bins, &radii, 0..energy.num_vleaves(), &mut exec_scratch)
        .0;
    let rel_err = ((raw_simd - raw_exact) / raw_exact).abs();

    let (comm_bytes_dense, comm_bytes_sparse, overlap_exec_ms) = comm_columns(&sys, reps);

    // Engine vs engine: the seed scalar traversal against the list engine
    // on its production path (VectorMath at the dispatched SIMD level).
    // The same-math mirror ratio is kept alongside as
    // exact_exec_speedup_vs_traversal.
    let born_speedup = trav_ms / simd_exec_ms;
    let energy_speedup = etrav_ms / esimd_exec_ms;

    println!("{{");
    println!("  \"n_atoms\": {},", sys.num_atoms());
    println!("  \"n_qpoints\": {},", sys.num_qpoints());
    println!("  \"reps\": {reps},");
    println!("  \"build_tasks\": {build_tasks},");
    println!("  \"build_threads\": {threads},");
    println!("  \"simd_level\": \"{}\",", SimdLevel::active().name());
    println!("  \"simd_energy_rel_err\": {rel_err:.3e},");
    println!("  \"born\": {{");
    println!("    \"traversal_ms\": {trav_ms:.3},");
    println!("    \"traversal_work_units\": {trav_work:.1},");
    println!("    \"list_build_ms\": {build_ms:.3},");
    println!("    \"list_build_work_units\": {build_work:.1},");
    println!("    \"list_build_parallel_ms\": {pbuild_ms:.3},");
    println!("    \"list_build_parallel_speedup\": {:.3},", build_ms / pbuild_ms);
    println!("    \"list_exec_ms\": {exec_ms:.3},");
    println!("    \"list_exec_work_units\": {exec_work:.1},");
    println!("    \"scalar_exec_ms\": {scalar_exec_ms:.3},");
    println!("    \"simd_exec_ms\": {simd_exec_ms:.3},");
    println!("    \"simd_exec_speedup\": {:.3},", scalar_exec_ms / simd_exec_ms);
    println!("    \"exact_exec_speedup_vs_traversal\": {:.3},", trav_ms / exec_ms);
    println!("    \"exec_speedup_vs_traversal\": {born_speedup:.3}");
    println!("  }},");
    println!("  \"energy\": {{");
    println!("    \"traversal_ms\": {etrav_ms:.3},");
    println!("    \"traversal_work_units\": {etrav_work:.1},");
    println!("    \"list_build_ms\": {ebuild_ms:.3},");
    println!("    \"list_build_work_units\": {ebuild_work:.1},");
    println!("    \"list_build_parallel_ms\": {epbuild_ms:.3},");
    println!("    \"list_build_parallel_speedup\": {:.3},", ebuild_ms / epbuild_ms);
    println!("    \"list_exec_ms\": {eexec_ms:.3},");
    println!("    \"list_exec_work_units\": {eexec_work:.1},");
    println!("    \"scalar_exec_ms\": {escalar_exec_ms:.3},");
    println!("    \"simd_exec_ms\": {esimd_exec_ms:.3},");
    println!("    \"simd_exec_speedup\": {:.3},", escalar_exec_ms / esimd_exec_ms);
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
    println!("    \"exact_exec_speedup_vs_traversal\": {:.3},", etrav_ms / eexec_ms);
    println!("    \"exec_speedup_vs_traversal\": {energy_speedup:.3}");
    println!("  }},");
    println!("  \"simd_levels\": {{");
    for (i, (requested, (ran, born_ms, energy_ms))) in LEVELS.iter().zip(&levels).enumerate() {
        let sep = if i + 1 < levels.len() { "," } else { "" };
        println!(
            "    \"{requested}\": {{\"dispatched\": \"{ran}\", \"born_exec_ms\": {born_ms:.3}, \
             \"energy_exec_ms\": {energy_ms:.3}}}{sep}"
        );
    }
    println!("  }},");
    println!("  \"comm\": {{");
    println!("    \"ranks\": 8,");
    println!("    \"comm_bytes_dense\": {comm_bytes_dense},");
    println!("    \"comm_bytes_sparse\": {comm_bytes_sparse},");
    println!(
        "    \"comm_sparse_over_dense\": {:.3},",
        comm_bytes_sparse as f64 / comm_bytes_dense as f64
    );
    println!("    \"overlap_exec_ms\": {overlap_exec_ms:.3}");
    println!("  }}");
    println!("}}");
}
