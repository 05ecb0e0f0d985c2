//! Modeled large-scale runs: the paper's scaling experiments without the
//! paper's cluster.
//!
//! [`modeled_run`] replays the distributed/hybrid work division *rank by
//! rank, sequentially*: every rank's compute segments execute for real (so
//! per-rank work counts and the final energy are exact — the union of the
//! segments is precisely one full evaluation), while communication costs
//! come from the [`CostModel`](gb_cluster::CostModel) collective formulas
//! and intra-rank thread parallelism is folded in as a work-stealing
//! makespan bound (`max(total/p, max_task)` — the greedy-scheduler bound
//! that randomized work stealing achieves in expectation).
//!
//! This is what generates Figs. 5, 6 and 11: total real compute equals one
//! serial evaluation *regardless of the simulated core count*, so scaling
//! curves for 432 simulated cores are produced in the time of one run.

use crate::balance::{assign, LoadBalance};
use crate::fastmath::{ApproxMath, ExactMath, MathMode};
use crate::gbmath::{finalize_energy, RadiiApprox, R4, R6};
use crate::integrals::{push_integrals_to_atoms, IntegralAcc};
use crate::interaction::{BornLists, EnergyLists, ListScratch};
use crate::params::{MathKind, RadiiKind};
use crate::runners::{bin_build_work, bins_for, with_kernels};
use crate::system::{GbResult, GbSystem};
use crate::workdiv::{atom_segments, WorkDivision};
use gb_cluster::{CostModel, RankLedger, RunReport, SimCluster};

/// Result of a modeled run.
#[derive(Clone, Debug)]
pub struct ModeledOutcome {
    pub result: GbResult,
    pub report: RunReport,
}

impl ModeledOutcome {
    /// Modeled parallel time under the given cost model.
    pub fn modeled_seconds(&self, cost: &CostModel) -> f64 {
        self.report.modeled_time(cost)
    }
}

/// Work-stealing makespan bound for tasks of the given sizes on `p`
/// workers: `max(Σ/p, max_task)`.
fn makespan(task_works: &[f64], p: usize) -> f64 {
    let total: f64 = task_works.iter().sum();
    let max_task = task_works.iter().copied().fold(0.0, f64::max);
    (total / p.max(1) as f64).max(max_task)
}

/// Replays the 7-step algorithm for `ranks × threads_per_rank` simulated
/// cores and returns the exact result plus a fully-populated accounting
/// report. `division` = NodeNode reproduces the paper's configuration.
pub fn modeled_run(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
    division: WorkDivision,
) -> ModeledOutcome {
    modeled_run_balanced(
        sys,
        cluster,
        ranks,
        threads_per_rank,
        division,
        LoadBalance::EvenLeaves,
    )
}

/// [`modeled_run`] with an explicit cross-rank load-balancing policy
/// (the paper's static scheme, a point-balanced static refinement, or the
/// §VI future-work cross-rank work stealing). The policy only affects the
/// accounting, never the result; it applies to node-based division (the
/// atom-based ablation keeps its own fixed ranges).
pub fn modeled_run_balanced(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
    division: WorkDivision,
    policy: LoadBalance,
) -> ModeledOutcome {
    with_kernels!(sys.params, M, K => modeled_run_impl::<M, K>(sys, cluster, ranks, threads_per_rank, division, policy))
}

fn modeled_run_impl<M: MathMode, K: RadiiApprox>(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
    division: WorkDivision,
    policy: LoadBalance,
) -> ModeledOutcome {
    assert!(ranks >= 1 && threads_per_rank >= 1);
    let start = std::time::Instant::now();
    let placements = cluster.topology.place(ranks, threads_per_rank);
    let level = CostModel::worst_level(&placements);
    let cost = &cluster.cost;
    let mut ledgers: Vec<RankLedger> = vec![RankLedger::default(); ranks];

    let svec_words = sys.ta.num_nodes() + sys.num_atoms();
    let replicated = (sys.memory_bytes() + svec_words * 8) as u64;

    // ---- Born phase: every rank's T_Q leaf segment, into one global acc.
    let mut acc = IntegralAcc::zeros(sys);
    match division {
        WorkDivision::NodeNode => {
            // one list build gives the exact per-leaf task works for the
            // policy to assign; executing the full ordinal range into one
            // accumulator reproduces the serial runner bit for bit
            let born = BornLists::build(sys);
            born.execute_range::<M, K>(sys, 0..born.num_qleaves(), &mut acc);
            let leaf_works = born.leaf_work().to_vec();
            let leaf_points: Vec<usize> = sys
                .tq
                .leaves()
                .iter()
                .map(|&q| sys.tq.node(q).count())
                .collect();
            // a migrated quadrature leaf ships position+normal+weight = 7 words/point
            let a = assign(policy, &leaf_works, &leaf_points, ranks, cost, level, 7);
            for (rank, ledger) in ledgers.iter_mut().enumerate() {
                ledger.add_work(born.build_work / threads_per_rank as f64);
                ledger.add_work(
                    (a.rank_work[rank] / threads_per_rank as f64).max(a.rank_max_task[rank]),
                );
                if a.migration_seconds > 0.0 {
                    ledger.add_comm(a.migration_seconds, 0);
                }
                if rank == 0 {
                    ledger.steals += a.migrations as u64; // cross-rank task migrations
                }
                ledger.record_replicated(replicated);
            }
        }
        WorkDivision::AtomNode => {
            // atom-based: each rank sweeps every T_Q row with T_A clipped to
            // its atoms, and its per-leaf works are the clipped rows' works
            let mut born = BornLists::empty();
            let mut scratch = ListScratch::new();
            let rows = 0..sys.tq.num_leaves();
            for (ledger, clip) in ledgers.iter_mut().zip(atom_segments(sys.num_atoms(), ranks)) {
                born.rebuild_part(sys, rows.clone(), clip, 1, &mut scratch);
                born.execute_range::<M, K>(sys, rows.clone(), &mut acc);
                ledger.add_work(makespan(born.leaf_work(), threads_per_rank));
                ledger.record_replicated(replicated);
            }
        }
    }

    // ---- Step 3: allreduce of the integral vector.
    for ledger in &mut ledgers {
        ledger.add_comm(
            cost.allreduce(level, ranks, svec_words),
            (svec_words * 8) as u64,
        );
    }

    // ---- Step 4: push per atom segment (sub-split across threads).
    let mut radii_tree = vec![0.0; sys.num_atoms()];
    for (rank, seg) in atom_segments(sys.num_atoms(), ranks)
        .into_iter()
        .enumerate()
    {
        let subs = crate::workdiv::even_ranges(seg.len(), threads_per_rank);
        let mut sub_works = Vec::with_capacity(subs.len());
        for sub in subs {
            let range = seg.start + sub.start..seg.start + sub.end;
            sub_works.push(push_integrals_to_atoms::<K>(
                sys,
                &acc,
                range,
                &mut radii_tree,
            ));
        }
        ledgers[rank].add_work(makespan(&sub_works, threads_per_rank));
    }

    // ---- Step 5: allgather radii.
    let per_rank_words = sys.num_atoms() / ranks.max(1) + 1;
    for ledger in &mut ledgers {
        ledger.add_comm(
            cost.allgather(level, ranks, per_rank_words),
            (per_rank_words * 8) as u64,
        );
    }

    // ---- Step 6: energy per T_A leaf segment (same policy as the Born
    // phase; migrated energy tasks ship the leaf's charges+radii+positions
    // = 5 words/point).
    let bins = bins_for(sys, &radii_tree);
    let bins_bytes = bins.memory_bytes() as u64;
    let raw;
    {
        let energy = EnergyLists::build(sys);
        let mut exec_scratch = crate::interaction::EnergyExecScratch::new();
        let rows = 0..energy.num_vleaves();
        (raw, _) = energy.execute_leaves::<M>(sys, &bins, &radii_tree, rows, &mut exec_scratch);
        let leaf_works = energy.leaf_costs(sys, &bins);
        let leaf_points: Vec<usize> = sys
            .ta
            .leaves()
            .iter()
            .map(|&v| sys.ta.node(v).count())
            .collect();
        let a = assign(policy, &leaf_works, &leaf_points, ranks, cost, level, 5);
        for (rank, ledger) in ledgers.iter_mut().enumerate() {
            ledger.add_work(bin_build_work(sys) / threads_per_rank as f64);
            ledger.add_work(energy.build_work / threads_per_rank as f64);
            ledger
                .add_work((a.rank_work[rank] / threads_per_rank as f64).max(a.rank_max_task[rank]));
            if a.migration_seconds > 0.0 {
                ledger.add_comm(a.migration_seconds, 0);
            }
            if rank == 0 {
                ledger.steals += a.migrations as u64;
            }
            ledger.record_replicated(replicated + bins_bytes);
        }
    }

    // ---- Step 7: reduce of the scalar energies.
    for ledger in &mut ledgers {
        ledger.add_comm(cost.allreduce(level, ranks, 1), 8);
    }

    let energy_kcal = finalize_energy(raw, sys.params.tau());
    let report = RunReport {
        ledgers,
        placements,
        wall_seconds: start.elapsed().as_secs_f64(),
        recoveries: 0,
    };
    ModeledOutcome {
        result: GbResult {
            energy_kcal,
            born_radii: sys.radii_to_original(&radii_tree),
        },
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GbParams;
    use crate::runners::distributed::run_distributed;
    use crate::runners::serial::run_serial;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn sys(n: usize) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 77));
        GbSystem::prepare(mol, GbParams::default())
    }

    #[test]
    fn modeled_energy_equals_serial() {
        let s = sys(400);
        let serial = run_serial(&s).result;
        for (ranks, tpr) in [(1usize, 1usize), (4, 1), (2, 6), (12, 1)] {
            let out = modeled_run(
                &s,
                &SimCluster::single_node(),
                ranks,
                tpr,
                WorkDivision::NodeNode,
            );
            assert!(
                (out.result.energy_kcal - serial.energy_kcal).abs()
                    < 1e-9 * serial.energy_kcal.abs(),
                "{ranks}x{tpr}: {} vs {}",
                out.result.energy_kcal,
                serial.energy_kcal
            );
            assert_eq!(out.result.born_radii, serial.born_radii);
        }
    }

    #[test]
    fn modeled_matches_threaded_runtime_accounting() {
        // The modeled replay and the real threaded runtime must agree on
        // the energy and closely on total work (the threaded runtime counts
        // the same kernels).
        let s = sys(300);
        let cluster = SimCluster::single_node();
        let (dist, dist_report) = run_distributed(&s, &cluster, 4, WorkDivision::NodeNode);
        let modeled = modeled_run(&s, &cluster, 4, 1, WorkDivision::NodeNode);
        assert!(
            (dist.energy_kcal - modeled.result.energy_kcal).abs() < 1e-9 * dist.energy_kcal.abs()
        );
        let dist_work: f64 = dist_report.ledgers.iter().map(|l| l.work_units).sum();
        let modeled_work: f64 = modeled.report.ledgers.iter().map(|l| l.work_units).sum();
        // threads_per_rank = 1 → makespan = total, so work sums match
        assert!(
            ((dist_work - modeled_work) / dist_work).abs() < 0.01,
            "work {dist_work} vs {modeled_work}"
        );
    }

    #[test]
    fn modeled_time_decreases_with_more_cores_for_large_molecule() {
        let s = sys(3_000);
        let cost = CostModel::default();
        let mut last = f64::INFINITY;
        for nodes in [1usize, 2, 4] {
            let cluster = SimCluster::lonestar4(nodes);
            let out = modeled_run(&s, &cluster, nodes * 12, 1, WorkDivision::NodeNode);
            let t = out.modeled_seconds(&cost);
            assert!(
                t < last,
                "modeled time should drop: {t} !< {last} at {nodes} nodes"
            );
            last = t;
        }
    }

    #[test]
    fn modeled_hybrid_beats_distributed_in_memory() {
        let s = sys(800);
        let cluster = SimCluster::single_node();
        let dist = modeled_run(&s, &cluster, 12, 1, WorkDivision::NodeNode);
        let hyb = modeled_run(&s, &cluster, 2, 6, WorkDivision::NodeNode);
        let ratio = dist.report.total_replicated_bytes() as f64
            / hyb.report.total_replicated_bytes() as f64;
        assert!(ratio > 5.0, "memory ratio {ratio}");
    }

    #[test]
    fn communication_grows_with_rank_count() {
        let s = sys(500);
        let comm_of = |nodes: usize, ranks: usize| {
            let out = modeled_run(
                &s,
                &SimCluster::lonestar4(nodes),
                ranks,
                1,
                WorkDivision::NodeNode,
            );
            out.report.ledgers[0].comm_seconds
        };
        assert!(comm_of(1, 2) < comm_of(2, 24));
        assert!(comm_of(2, 24) < comm_of(12, 144));
    }
}
