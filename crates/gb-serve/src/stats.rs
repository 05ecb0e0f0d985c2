//! Service-level aggregate counters.

use crate::cache::CacheStats;

/// Aggregate counters since service start — the numbers the load bench
/// turns into jobs/sec, hit rates and batch occupancy.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Requests admitted by the queue.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests shed at admission (queue full).
    pub rejected: u64,
    /// Requests that failed in the cluster after recovery was exhausted.
    pub failed: u64,
    /// Scheduler cycles that processed at least one request.
    pub supersteps: u64,
    /// Fused cluster supersteps executed (cycles with ≥1 single job).
    pub cluster_batches: u64,
    /// Single jobs that rode fused cluster supersteps.
    pub batched_jobs: u64,
    /// Docking jobs served through the pair-decomposed path.
    pub docking_jobs: u64,
    /// Docking jobs whose receptor ran its full energy rows because a
    /// Born radius moved past [`gb_core::pair::FIRST_ORDER_GUARD`]
    /// (the rest took the first-order term; a ligand's radii usually trip
    /// the guard, so only the receptor's path is counted).
    pub docking_full_rows: u64,
    /// Heal-and-replay cycles performed beneath batches.
    pub recoveries: u64,
    /// Cache tier counters.
    pub cache: CacheStats,
}

impl ServeStats {
    /// Mean jobs per fused cluster superstep (0 when none ran).
    pub fn batch_occupancy(&self) -> f64 {
        if self.cluster_batches == 0 {
            0.0
        } else {
            self.batched_jobs as f64 / self.cluster_batches as f64
        }
    }

    /// Hit rate of a `(hits, misses)` pair (1.0 when never consulted).
    pub fn hit_rate(hits: u64, misses: u64) -> f64 {
        let total = hits + misses;
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }
}
