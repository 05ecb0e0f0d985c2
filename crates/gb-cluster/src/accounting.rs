//! Per-rank accounting and the run report.
//!
//! Every [`Comm`](crate::comm::Comm) operation records into the rank's
//! [`RankLedger`]: algorithm code records compute *work units* (weighted
//! interaction counts) and replicated-memory bytes; the runtime records
//! modeled communication seconds and bytes moved. After a run,
//! [`RunReport::modeled_time`] composes them through the
//! [`CostModel`] into the simulated parallel
//! time `max_rank(T_comp + T_comm)`.

use crate::costmodel::CostModel;
use crate::fault::OpKind;
use crate::topology::Placement;

/// Accounting for one rank.
#[derive(Clone, Debug, Default)]
pub struct RankLedger {
    /// Accumulated compute work, in work units (≈ pair interactions).
    pub work_units: f64,
    /// Modeled communication time in seconds.
    pub comm_seconds: f64,
    /// Total bytes this rank sent (p2p) or contributed (collectives).
    pub bytes_moved: u64,
    /// Bytes moved, broken down by [`OpKind`] (indexed by
    /// [`OpKind::index`]) — lets benchmarks compare e.g. dense allreduce
    /// traffic against sparse-exchange traffic from real runs.
    pub op_bytes: [u64; OpKind::COUNT],
    /// Number of communication operations (p2p + collectives).
    pub comm_ops: u64,
    /// Peak replicated memory attributed to this rank, in bytes.
    pub replicated_bytes: u64,
    /// Task migrations into this rank (the modeled cross-rank stealing
    /// policies).
    pub steals: u64,
    /// Communication operations *started* (≥ `comm_ops`, which counts only
    /// completed ops — the gap plus `last_op` is the failure diagnostic).
    pub ops_started: u64,
    /// The communication operation this rank most recently entered.
    pub last_op: Option<OpKind>,
}

impl RankLedger {
    /// Adds compute work.
    #[inline]
    pub fn add_work(&mut self, units: f64) {
        self.work_units += units;
    }

    /// Adds modeled communication time and traffic.
    #[inline]
    pub fn add_comm(&mut self, seconds: f64, bytes: u64) {
        self.comm_seconds += seconds;
        self.bytes_moved += bytes;
        self.comm_ops += 1;
    }

    /// Adds modeled communication attributed to a specific op.
    #[inline]
    pub fn add_comm_for(&mut self, op: OpKind, seconds: f64, bytes: u64) {
        self.add_comm(seconds, bytes);
        self.op_bytes[op.index()] += bytes;
    }

    /// Bytes this rank moved under the given op kind.
    #[inline]
    pub fn bytes_for(&self, op: OpKind) -> u64 {
        self.op_bytes[op.index()]
    }

    /// Records this rank's replicated working set (max over the run).
    #[inline]
    pub fn record_replicated(&mut self, bytes: u64) {
        self.replicated_bytes = self.replicated_bytes.max(bytes);
    }

    /// Records entry into a communication operation (failure diagnostics).
    #[inline]
    pub fn note_op(&mut self, op: OpKind) {
        self.ops_started += 1;
        self.last_op = Some(op);
    }
}

/// Result of a simulated cluster run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// One ledger per rank.
    pub ledgers: Vec<RankLedger>,
    /// Rank placements used for the run.
    pub placements: Vec<Placement>,
    /// Real wall-clock of the simulation itself (not the modeled time).
    pub wall_seconds: f64,
    /// Heal-and-replay cycles the self-healing supervisor performed
    /// (0 on a fault-free run, or when recovery is disabled).
    pub recoveries: u32,
}

impl RunReport {
    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ledgers.len()
    }

    /// Replicated bytes held on each node (sum over the node's ranks) —
    /// the quantity behind the paper's 8.2 GB vs 1.4 GB comparison.
    pub fn node_working_sets(&self) -> Vec<f64> {
        let nodes = self
            .placements
            .iter()
            .map(|p| p.node)
            .max()
            .map_or(0, |m| m + 1);
        let mut sets = vec![0.0; nodes];
        for (ledger, place) in self.ledgers.iter().zip(&self.placements) {
            sets[place.node] += ledger.replicated_bytes as f64;
        }
        sets
    }

    /// Total replicated bytes across the cluster.
    pub fn total_replicated_bytes(&self) -> u64 {
        self.ledgers.iter().map(|l| l.replicated_bytes).sum()
    }

    /// Modeled parallel time: the paper's `max_rank(T_comp + T_comm)`,
    /// where each rank's compute time includes its node's memory-pressure
    /// slowdown.
    pub fn modeled_time(&self, cost: &CostModel) -> f64 {
        let sets = self.node_working_sets();
        self.ledgers
            .iter()
            .zip(&self.placements)
            .map(|(l, p)| {
                let ws = sets.get(p.node).copied().unwrap_or(0.0);
                cost.compute_time(l.work_units, ws) + l.comm_seconds
            })
            .fold(0.0, f64::max)
    }

    /// Total bytes moved under the given op kind, summed over ranks.
    pub fn bytes_for_op(&self, op: OpKind) -> u64 {
        self.ledgers.iter().map(|l| l.bytes_for(op)).sum()
    }

    /// Modeled time decomposition `(max compute, max comm)` for reporting.
    pub fn modeled_breakdown(&self, cost: &CostModel) -> (f64, f64) {
        let sets = self.node_working_sets();
        let comp = self
            .ledgers
            .iter()
            .zip(&self.placements)
            .map(|(l, p)| cost.compute_time(l.work_units, sets.get(p.node).copied().unwrap_or(0.0)))
            .fold(0.0, f64::max);
        let comm = self
            .ledgers
            .iter()
            .map(|l| l.comm_seconds)
            .fold(0.0, f64::max);
        (comp, comm)
    }

    /// Load imbalance: max work / mean work across ranks (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        if self.ledgers.is_empty() {
            return 1.0;
        }
        let max = self
            .ledgers
            .iter()
            .map(|l| l.work_units)
            .fold(0.0, f64::max);
        let mean =
            self.ledgers.iter().map(|l| l.work_units).sum::<f64>() / self.ledgers.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Total steals across all ranks.
    pub fn total_steals(&self) -> u64 {
        self.ledgers.iter().map(|l| l.steals).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterTopology;

    fn report(works: &[f64], ranks_per_node_threads: (usize, usize)) -> RunReport {
        let (ranks, threads) = ranks_per_node_threads;
        let topo = ClusterTopology::lonestar4(ranks * threads / 12 + 1);
        let placements = topo.place(works.len().min(ranks), threads);
        let mut ledgers = Vec::new();
        for (i, &w) in works.iter().enumerate().take(placements.len()) {
            let mut l = RankLedger::default();
            l.add_work(w);
            l.record_replicated(1_000_000 * (i as u64 + 1));
            ledgers.push(l);
        }
        RunReport {
            ledgers,
            placements,
            wall_seconds: 0.0,
            recoveries: 0,
        }
    }

    #[test]
    fn ledger_accumulates() {
        let mut l = RankLedger::default();
        l.add_work(10.0);
        l.add_work(5.0);
        l.add_comm(0.25, 800);
        l.record_replicated(100);
        l.record_replicated(50); // peak keeps the max
        assert_eq!(l.work_units, 15.0);
        assert_eq!(l.comm_seconds, 0.25);
        assert_eq!(l.bytes_moved, 800);
        assert_eq!(l.comm_ops, 1);
        assert_eq!(l.replicated_bytes, 100);
    }

    #[test]
    fn per_op_bytes_accumulate() {
        let mut l = RankLedger::default();
        l.add_comm_for(OpKind::AllreduceSum, 0.1, 1000);
        l.add_comm_for(OpKind::SparseExchange, 0.02, 64);
        l.add_comm_for(OpKind::SparseExchange, 0.03, 36);
        assert_eq!(l.bytes_for(OpKind::AllreduceSum), 1000);
        assert_eq!(l.bytes_for(OpKind::SparseExchange), 100);
        assert_eq!(l.bytes_for(OpKind::Send), 0);
        assert_eq!(l.bytes_moved, 1100);
        assert_eq!(l.comm_ops, 3);
        assert!((l.comm_seconds - 0.15).abs() < 1e-15);
    }

    #[test]
    fn modeled_time_is_max_over_ranks() {
        let r = report(&[100.0, 400.0, 100.0, 100.0], (12, 1));
        let cost = CostModel::default();
        let t = r.modeled_time(&cost);
        // dominated by the 400-unit rank
        assert!((t - cost.compute_time(400.0, r.node_working_sets()[0])).abs() < 1e-12);
    }

    #[test]
    fn imbalance_metric() {
        let even = report(&[100.0, 100.0, 100.0, 100.0], (12, 1));
        assert!((even.imbalance() - 1.0).abs() < 1e-12);
        let skewed = report(&[100.0, 300.0, 100.0, 100.0], (12, 1));
        assert!((skewed.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn node_working_sets_sum_per_node() {
        let r = report(&[1.0, 1.0, 1.0, 1.0], (12, 1));
        let sets = r.node_working_sets();
        // all four ranks on node 0
        assert_eq!(sets.len(), 1);
        assert_eq!(
            sets[0] as u64,
            1_000_000 + 2_000_000 + 3_000_000 + 4_000_000
        );
        assert_eq!(r.total_replicated_bytes(), 10_000_000);
    }
}
