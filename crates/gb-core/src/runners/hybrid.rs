//! The hybrid runner — the `OCT_MPI+CILK` analog: message passing across
//! ranks, threads inside each rank.
//!
//! This is the [`distributed`](crate::runners::distributed) rank program
//! run with `threads_per_rank > 1`: the same 7 steps, the same collectives
//! and checkpoints. Inside a rank, the Born, push and energy steps are the
//! shared runner's [phase steps](crate::runners) over the rank's segment:
//! `threads_per_rank` fixed sub-segments for Born and push (measured list
//! work; atoms evenly for the push) on scoped threads, merged in
//! sub-segment order, and the energy rows in fixed segments added in
//! segment order. A run's energy and radii are therefore `to_bits`-stable
//! from run to run, one rank of `T` threads is the shared runner on `T`
//! threads, and one thread per rank is the distributed runner, bit for
//! bit. Work division is node-based only; the atom-based ablation runs on
//! the distributed runner.

use crate::arena::Workspace;
use crate::commplan::CommMode;
use crate::error::GbError;
use crate::runners::distributed::try_run_ranks;
use crate::system::{GbResult, GbSystem};
use crate::workdiv::WorkDivision;
use gb_cluster::{RunReport, SimCluster};
use parking_lot::Mutex;

/// Runs the hybrid algorithm: `ranks` ranks × `threads_per_rank` threads
/// (the paper's production shape on Lonestar4: 2 ranks × 6 threads per
/// node).
///
/// Panics if the cluster runtime fails beneath the job; use
/// [`try_run_hybrid_mode`] to get a typed [`GbError`] instead.
pub fn run_hybrid(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
) -> (GbResult, RunReport) {
    try_run_hybrid_mode(sys, cluster, ranks, threads_per_rank, CommMode::default())
        .unwrap_or_else(|e| panic!("hybrid run failed: {e}"))
}

/// Fallible variant of [`run_hybrid`] with an explicit integral-combine
/// mode (see [`CommMode`]): rank failures degrade into a [`GbError`] with
/// per-rank diagnostics instead of panicking.
pub fn try_run_hybrid_mode(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
    mode: CommMode,
) -> Result<(GbResult, RunReport), GbError> {
    let workspaces: Vec<Mutex<Workspace>> = (0..ranks)
        .map(|_| Mutex::new(Workspace::new()))
        .collect();
    try_run_hybrid_ws_mode(sys, cluster, ranks, threads_per_rank, mode, &workspaces)
}

/// [`try_run_hybrid_mode`] over caller-owned per-rank [`Workspace`]s: each
/// rank reuses its interaction lists, accumulators, per-thread slots and
/// bins across supersteps.
pub fn try_run_hybrid_ws_mode(
    sys: &GbSystem,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
    mode: CommMode,
    workspaces: &[Mutex<Workspace>],
) -> Result<(GbResult, RunReport), GbError> {
    assert!(threads_per_rank >= 1);
    try_run_ranks(sys, cluster, ranks, threads_per_rank, WorkDivision::NodeNode, mode, workspaces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GbParams;
    use crate::runners::distributed::run_distributed;
    use crate::runners::serial::run_serial;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn sys(n: usize) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 66));
        GbSystem::prepare(mol, GbParams::default())
    }

    fn assert_same_bits(a: &GbResult, b: &GbResult, what: &str) {
        assert_eq!(a.energy_kcal.to_bits(), b.energy_kcal.to_bits(), "{what}: energy");
        for (i, (x, y)) in a.born_radii.iter().zip(&b.born_radii).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: radius {i}");
        }
    }

    #[test]
    fn hybrid_1x1_equals_serial() {
        let s = sys(300);
        let serial = run_serial(&s);
        let (hyb, _) = run_hybrid(&s, &SimCluster::single_node(), 1, 1);
        assert_same_bits(&serial.result, &hyb, "1x1");
    }

    #[test]
    fn one_thread_per_rank_is_the_distributed_runner_bitwise() {
        let s = sys(400);
        let cluster = SimCluster::single_node();
        for p in [1usize, 2, 3] {
            let (dist, _) = run_distributed(&s, &cluster, p, WorkDivision::NodeNode);
            let (hyb, _) = run_hybrid(&s, &cluster, p, 1);
            assert_same_bits(&dist, &hyb, &format!("P={p}"));
        }
    }

    #[test]
    fn hybrid_is_bitwise_stable_from_run_to_run() {
        // fixed sub-segments merged in order, energy segments added in
        // order: the thread schedule cannot reach the result
        let s = sys(400);
        let cluster = SimCluster::single_node();
        for (p, t) in [(1usize, 2usize), (2, 3), (2, 6)] {
            let (first, _) = run_hybrid(&s, &cluster, p, t);
            for run in 1..5 {
                let (again, _) = run_hybrid(&s, &cluster, p, t);
                assert_same_bits(&first, &again, &format!("P={p} T={t} run {run}"));
            }
        }
    }

    #[test]
    fn hybrid_matches_distributed_energy() {
        let s = sys(500);
        let cluster = SimCluster::single_node();
        let (dist, _) = run_distributed(&s, &cluster, 2, WorkDivision::NodeNode);
        let (hyb, _) = run_hybrid(&s, &cluster, 2, 6);
        assert!(
            (dist.energy_kcal - hyb.energy_kcal).abs() < 1e-12 * dist.energy_kcal.abs(),
            "dist {} vs hybrid {}",
            dist.energy_kcal,
            hyb.energy_kcal
        );
        for (a, b) in dist.born_radii.iter().zip(&hyb.born_radii) {
            assert!((a - b).abs() < 1e-12 * a.abs().max(1.0));
        }
    }

    #[test]
    fn hybrid_uses_fewer_ranks_for_same_cores() {
        // 12 cores: hybrid 2×6 must move fewer collective bytes than
        // distributed 12×1 (the paper's motivation for hybrid parallelism).
        let s = sys(400);
        let cluster = SimCluster::single_node();
        let (_, dist) = run_distributed(&s, &cluster, 12, WorkDivision::NodeNode);
        let (_, hyb) = run_hybrid(&s, &cluster, 2, 6);
        let dist_bytes: u64 = dist.ledgers.iter().map(|l| l.bytes_moved).sum();
        let hyb_bytes: u64 = hyb.ledgers.iter().map(|l| l.bytes_moved).sum();
        assert!(
            hyb_bytes < dist_bytes,
            "hybrid {hyb_bytes} vs distributed {dist_bytes}"
        );
        // replicated memory: 12 copies vs 2 copies — the paper's 5.86×
        let ratio = dist.total_replicated_bytes() as f64 / hyb.total_replicated_bytes() as f64;
        assert!((ratio - 6.0).abs() < 0.5, "memory ratio {ratio}");
    }

    #[test]
    fn hybrid_energy_independent_of_thread_count() {
        let s = sys(400);
        let cluster = SimCluster::single_node();
        let e1 = run_hybrid(&s, &cluster, 2, 1)
            .0
            .energy_kcal;
        let e6 = run_hybrid(&s, &cluster, 2, 6)
            .0
            .energy_kcal;
        assert!((e1 - e6).abs() < 1e-9 * e1.abs());
    }
}
