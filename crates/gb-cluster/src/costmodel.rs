//! The LogGP-style hierarchical communication cost model and the
//! memory-pressure model.
//!
//! Costs follow the textbook the paper cites for its complexity analysis
//! (Grama et al., *Introduction to Parallel Computing*, Table 4.1): a
//! message of `m` words between two ranks costs `t_s + t_w · m`, and the
//! tree/ring collectives cost the familiar `log P` / `(P−1)` compositions.
//! Latency and bandwidth depend on where the two ranks sit relative to each
//! other (same socket < same node < across the InfiniBand fabric), which is
//! precisely the communication-hierarchy argument of the paper's §IV-B.

use crate::topology::Placement;
use serde::{Deserialize, Serialize};

/// Relative location of two communicating ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommLevel {
    /// Same socket: through the shared L3.
    SameSocket,
    /// Same node, different socket: through QPI/memory.
    SameNode,
    /// Different nodes: through the interconnect.
    CrossNode,
}

impl CommLevel {
    /// Classifies a pair of placements.
    pub fn between(a: &Placement, b: &Placement) -> CommLevel {
        if a.node != b.node {
            CommLevel::CrossNode
        } else if a.socket != b.socket {
            CommLevel::SameNode
        } else {
            CommLevel::SameSocket
        }
    }
}

/// Memory-pressure model: replicated data slows compute once it overflows
/// the shared cache, and again as it approaches physical memory.
///
/// This is the mechanism behind the paper's §IV-B prediction (and §V-B/V-C
/// observation) that the purely distributed version — whose per-node memory
/// is `ranks_per_node ×` the hybrid version's — eventually loses to the
/// hybrid version as molecules grow.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MemoryModel {
    /// Shared L3 capacity per node in bytes (Lonestar4: 2 × 12 MB).
    pub l3_bytes: f64,
    /// Physical memory per node in bytes (Lonestar4: 24 GB).
    pub ram_bytes: f64,
    /// Maximum compute slowdown once the working set is far beyond L3.
    pub cache_penalty: f64,
    /// Additional slowdown factor applied as the working set approaches
    /// physical memory (page-fault / thrash regime).
    pub ram_penalty: f64,
}

impl Default for MemoryModel {
    fn default() -> MemoryModel {
        MemoryModel {
            l3_bytes: 2.0 * 12.0 * 1024.0 * 1024.0,
            ram_bytes: 24.0 * 1024.0 * 1024.0 * 1024.0,
            cache_penalty: 1.6,
            ram_penalty: 8.0,
        }
    }
}

impl MemoryModel {
    /// Compute-time multiplier for a node holding `bytes` of replicated
    /// working set. Smooth, monotone, 1.0 for cache-resident sets.
    pub fn slowdown(&self, bytes: f64) -> f64 {
        // Cache regime: ramps from 1 to cache_penalty as the set grows past L3.
        let cache_ratio = bytes / self.l3_bytes;
        let cache_term = 1.0 + (self.cache_penalty - 1.0) * saturate(cache_ratio.ln().max(0.0) / 4.0);
        // Memory regime: explodes as the set nears RAM capacity.
        let ram_ratio = bytes / self.ram_bytes;
        let ram_term = if ram_ratio < 0.5 {
            1.0
        } else {
            1.0 + (self.ram_penalty - 1.0) * saturate((ram_ratio - 0.5) / 0.5)
        };
        cache_term * ram_term
    }
}

fn saturate(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// Full machine cost model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Seconds of latency (`t_s`) per message, by level
    /// `[SameSocket, SameNode, CrossNode]`.
    pub ts: [f64; 3],
    /// Seconds per 8-byte word (`t_w`), by level.
    pub tw: [f64; 3],
    /// Seconds per unit of compute work (one "work unit" ≈ one pair
    /// interaction ≈ a few tens of flops).
    pub sec_per_work_unit: f64,
    /// Software overhead per collective *per participating rank* (MPI
    /// stack, progress engine, synchronization skew): a collective across
    /// `p` ranks pays `collective_overhead · p` on top of the network
    /// terms. This linear component is what makes many small-message
    /// collectives expensive at high rank counts — the effect behind the
    /// paper's small-molecule observation that OCT_CILK beats the MPI
    /// configurations below ~2 500 atoms (§V-C).
    pub collective_overhead: f64,
    /// Memory-pressure model.
    pub memory: MemoryModel,
}

impl Default for CostModel {
    /// Constants calibrated to Lonestar4's era: QDR InfiniBand
    /// (~2 µs latency, 40 Gb/s), intra-node shared memory, 3.33 GHz
    /// Westmere cores (~10 ns per ~30-flop pair interaction).
    fn default() -> CostModel {
        CostModel {
            ts: [2.0e-7, 5.0e-7, 2.0e-6],
            tw: [4.0e-10, 8.0e-10, 1.6e-9],
            sec_per_work_unit: 1.0e-8,
            collective_overhead: 2.0e-6,
            memory: MemoryModel::default(),
        }
    }
}

impl CostModel {
    /// `t_s` for a level.
    #[inline]
    pub fn ts(&self, level: CommLevel) -> f64 {
        self.ts[level as usize]
    }

    /// `t_w` for a level (per 8-byte word).
    #[inline]
    pub fn tw(&self, level: CommLevel) -> f64 {
        self.tw[level as usize]
    }

    /// Point-to-point message of `words` 8-byte words.
    pub fn p2p(&self, level: CommLevel, words: usize) -> f64 {
        self.ts(level) + self.tw(level) * words as f64
    }

    /// Barrier across `p` ranks whose worst link is `level`.
    pub fn barrier(&self, level: CommLevel, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.ts(level) * log2_ceil(p) + self.collective_overhead * p as f64
    }

    /// Allreduce of `words` words across `p` ranks (recursive
    /// doubling): `(t_s + t_w·m) log p`, the formula the paper's §IV-C
    /// analysis uses for its `MPI_Allreduce` steps.
    pub fn allreduce(&self, level: CommLevel, p: usize, words: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (self.ts(level) + self.tw(level) * words as f64) * log2_ceil(p)
            + self.collective_overhead * p as f64
    }

    /// Allgather where every rank contributes `words_per_rank` words (ring):
    /// `t_s log p + t_w · m · (p−1)` — the `O(t_s log P + t_w (M/P)(P−1))`
    /// of the paper's Step 3/5 analysis.
    pub fn allgather(&self, level: CommLevel, p: usize, words_per_rank: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.ts(level) * log2_ceil(p)
            + self.tw(level) * words_per_rank as f64 * (p - 1) as f64
            + self.collective_overhead * p as f64
    }

    /// Staged sparse exchange across `p` ranks: this rank ships `num_msgs`
    /// distinct payloads totalling `total_words` words. Costed as
    /// `t_s · msgs + t_w · words` plus the per-rank collective overhead of
    /// the staging barrier — the point of a communication *plan* is that
    /// `total_words` scales with the slots actually touched, not with
    /// `p × slots` like the dense allreduce.
    pub fn sparse_exchange(
        &self,
        level: CommLevel,
        p: usize,
        num_msgs: usize,
        total_words: usize,
    ) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.ts(level) * num_msgs as f64
            + self.tw(level) * total_words as f64
            + self.collective_overhead * p as f64
    }

    /// Converts accumulated work units into seconds, including the
    /// memory-pressure slowdown for a node working set of
    /// `node_working_set` bytes.
    pub fn compute_time(&self, work_units: f64, node_working_set: f64) -> f64 {
        work_units * self.sec_per_work_unit * self.memory.slowdown(node_working_set)
    }

    /// Worst communication level present among `placements`.
    /// Wire words a single rank transmits in a recursive-doubling
    /// reduce/allreduce of `words` words: `m · ⌈log₂ p⌉` — every rank
    /// sends its full (partially reduced) vector in each of the
    /// `⌈log₂ p⌉` exchange rounds, which is exactly the bandwidth term
    /// [`CostModel::allreduce`] charges for time. The `comm_bytes`
    /// ledger previously recorded the payload size `m` alone, which
    /// undercounted the dense collective's traffic precisely where the
    /// sparse-plan ops bill true per-destination wire bytes.
    pub fn allreduce_wire_words(p: usize, words: usize) -> usize {
        if p <= 1 {
            return 0;
        }
        words * log2_ceil(p) as usize
    }

    pub fn worst_level(placements: &[Placement]) -> CommLevel {
        let mut worst = CommLevel::SameSocket;
        for w in placements.windows(2) {
            worst = worst.max(CommLevel::between(&w[0], &w[1]));
        }
        // windows only compares consecutive ranks; also compare first/last
        if placements.len() > 1 {
            worst =
                worst.max(CommLevel::between(&placements[0], &placements[placements.len() - 1]));
        }
        worst
    }
}

fn log2_ceil(p: usize) -> f64 {
    (p.max(1) as f64).log2().ceil().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterTopology;

    #[test]
    fn level_classification() {
        let t = ClusterTopology::lonestar4(2);
        let p = t.place(4, 6); // 2 ranks per node, one per socket
        assert_eq!(CommLevel::between(&p[0], &p[1]), CommLevel::SameNode);
        assert_eq!(CommLevel::between(&p[0], &p[2]), CommLevel::CrossNode);
        assert_eq!(CommLevel::between(&p[0], &p[0]), CommLevel::SameSocket);
    }

    #[test]
    fn levels_are_ordered_by_cost() {
        let m = CostModel::default();
        assert!(m.ts(CommLevel::SameSocket) < m.ts(CommLevel::SameNode));
        assert!(m.ts(CommLevel::SameNode) < m.ts(CommLevel::CrossNode));
        assert!(m.tw(CommLevel::SameSocket) < m.tw(CommLevel::CrossNode));
    }

    #[test]
    fn collective_costs_grow_with_p_and_size() {
        let m = CostModel::default();
        let l = CommLevel::CrossNode;
        assert!(m.allreduce(l, 4, 1000) < m.allreduce(l, 64, 1000));
        assert!(m.allreduce(l, 16, 10) < m.allreduce(l, 16, 100_000));
        assert!(m.allgather(l, 16, 100) < m.allgather(l, 128, 100));
        assert_eq!(m.allreduce(l, 1, 100), 0.0);
        assert_eq!(m.barrier(l, 1), 0.0);
    }

    #[test]
    fn sparse_exchange_scales_with_traffic_not_ranks() {
        let m = CostModel::default();
        let l = CommLevel::CrossNode;
        assert_eq!(m.sparse_exchange(l, 1, 0, 0), 0.0);
        // more payload costs more; more messages cost more latency
        assert!(m.sparse_exchange(l, 8, 4, 100) < m.sparse_exchange(l, 8, 4, 100_000));
        assert!(m.sparse_exchange(l, 8, 1, 100) < m.sparse_exchange(l, 8, 7, 100));
        // a sparse exchange of a small fraction of the vector beats the
        // dense allreduce of the whole thing
        assert!(m.sparse_exchange(l, 8, 7, 5_000) < m.allreduce(l, 8, 100_000));
    }

    #[test]
    fn allgather_is_bandwidth_bound_for_large_p() {
        // t_w m (P-1) term dominates: doubling P nearly doubles the cost
        let m = CostModel::default();
        let c64 = m.allgather(CommLevel::CrossNode, 64, 100_000);
        let c128 = m.allgather(CommLevel::CrossNode, 128, 100_000);
        assert!(c128 / c64 > 1.8);
    }

    #[test]
    fn memory_slowdown_regimes() {
        let mm = MemoryModel::default();
        // cache-resident: no slowdown
        assert!((mm.slowdown(1.0e6) - 1.0).abs() < 1e-9);
        // beyond L3: mild penalty
        let mid = mm.slowdown(1.0e9);
        assert!(mid > 1.05 && mid <= mm.cache_penalty + 1e-9, "mid {mid}");
        // near RAM capacity: severe
        let bad = mm.slowdown(23.0e9);
        assert!(bad > 2.0, "bad {bad}");
        // monotone
        assert!(mm.slowdown(1e7) <= mm.slowdown(1e8));
        assert!(mm.slowdown(1e9) <= mm.slowdown(1e10));
    }

    #[test]
    fn compute_time_linear_in_work() {
        let m = CostModel::default();
        let a = m.compute_time(1e6, 0.0);
        let b = m.compute_time(2e6, 0.0);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn worst_level_detection() {
        let t = ClusterTopology::lonestar4(2);
        let single_socket = t.place(2, 1); // ranks on cores 0,1 of socket 0
        assert_eq!(CostModel::worst_level(&single_socket), CommLevel::SameSocket);
        let both_nodes = t.place(24, 1);
        assert_eq!(CostModel::worst_level(&both_nodes), CommLevel::CrossNode);
    }
}
