//! Cross-rank load-balancing policies for the modeled runs.
//!
//! The paper uses *static* even-leaf-count division across ranks (dynamic
//! balancing only inside a rank, via cilk++), and names explicit cross-node
//! dynamic load balancing as future work (§VI: "we are planning to
//! incorporate explicit dynamic load balancing techniques such as
//! work-stealing"). This module implements that future work as modeled
//! scheduling policies over the measured per-leaf work vector:
//!
//! * [`LoadBalance::EvenLeaves`] — the paper's scheme: every rank gets the
//!   same *number* of leaves; per-rank work varies with leaf occupancy and
//!   geometry.
//! * [`LoadBalance::BalancedLeaves`] — static refinement: contiguous leaf
//!   segments balanced by the number of points under them.
//! * [`LoadBalance::CrossRankStealing`] — dynamic: overloaded ranks ship
//!   whole-leaf tasks to underloaded ranks, greedily largest-first, paying
//!   a per-migration message cost (the task's leaf data must travel).
//!
//! Policies only re-assign *which rank does which leaf*; with node-based
//! division the numeric result is identical under any assignment — the
//! tests assert exactly that.

use crate::workdiv::even_ranges;
use gb_cluster::{CommLevel, CostModel};

/// Cross-rank assignment policy for leaf tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadBalance {
    /// Paper's static scheme: equal leaf counts per rank.
    EvenLeaves,
    /// Static, point-count-balanced contiguous segments.
    BalancedLeaves,
    /// Dynamic cross-rank work stealing (paper §VI future work), modeled.
    CrossRankStealing,
}

/// Outcome of assigning a phase's leaf tasks to ranks.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// Per-rank total work (units) after the policy ran.
    pub rank_work: Vec<f64>,
    /// Per-rank largest single task (for intra-rank makespan bounds).
    pub rank_max_task: Vec<f64>,
    /// Number of whole-leaf tasks that migrated off their home rank.
    pub migrations: usize,
    /// Modeled communication seconds spent migrating tasks (charged to
    /// every rank — stealing synchronizes victim and thief).
    pub migration_seconds: f64,
}

impl Assignment {
    /// Max/mean imbalance of the assignment (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = self.rank_work.iter().copied().fold(0.0, f64::max);
        let mean = self.rank_work.iter().sum::<f64>() / self.rank_work.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// Assigns per-leaf works (`leaf_works[i]` = work of leaf task `i`, with
/// `leaf_points[i]` points under it) to `ranks` ranks under `policy`.
///
/// `words_per_point` sizes the migration message for the stealing policy
/// (the leaf's point data must reach the thief).
pub fn assign(
    policy: LoadBalance,
    leaf_works: &[f64],
    leaf_points: &[usize],
    ranks: usize,
    cost: &CostModel,
    level: CommLevel,
    words_per_point: usize,
) -> Assignment {
    assert_eq!(leaf_works.len(), leaf_points.len());
    match policy {
        LoadBalance::EvenLeaves => {
            let segs = even_ranges(leaf_works.len(), ranks);
            segment_assignment(leaf_works, &segs)
        }
        LoadBalance::BalancedLeaves => {
            let segs = balanced_ranges(leaf_points, ranks);
            segment_assignment(leaf_works, &segs)
        }
        LoadBalance::CrossRankStealing => {
            // Start from the paper's even split, then let underloaded ranks
            // steal whole tasks from the most loaded rank, largest-first —
            // the greedy rebalancing a cross-rank work-stealing runtime
            // converges to.
            let segs = even_ranges(leaf_works.len(), ranks);
            let mut base = segment_assignment(leaf_works, &segs);
            // collect (work, points) per task with its home rank
            let mut rank_tasks: Vec<Vec<(f64, usize)>> = segs
                .iter()
                .map(|s| s.clone().map(|i| (leaf_works[i], leaf_points[i])).collect())
                .collect();
            for tasks in &mut rank_tasks {
                tasks.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            }
            let mean = base.rank_work.iter().sum::<f64>() / ranks.max(1) as f64;
            let mut migrations = 0usize;
            let mut migration_words = 0usize;
            // Termination: each migration strictly decreases Σ(load − mean)²
            // (we only move w < max − min); the iteration cap is insurance
            // against floating-point edge cases, not a correctness need.
            let max_migrations = 8 * leaf_works.len().max(1);
            while migrations < max_migrations {
                // most loaded (victim) and least loaded (thief)
                let (victim, &vmax) = base
                    .rank_work
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap();
                let (thief, &tmin) = base
                    .rank_work
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap();
                if victim == thief || vmax - tmin <= 0.01 * mean.max(1e-12) {
                    break; // converged
                }
                // the victim's largest task that still shrinks the gap
                // (any 0 < w < vmax − tmin strictly decreases Σ(load−mean)²)
                let gap = vmax - tmin;
                let candidate = rank_tasks[victim]
                    .iter()
                    .position(|&(w, _)| w > 0.0 && w < gap);
                match candidate {
                    Some(idx) => {
                        let (w, pts) = rank_tasks[victim].remove(idx);
                        base.rank_work[victim] -= w;
                        base.rank_work[thief] += w;
                        rank_tasks[thief].push((w, pts));
                        migrations += 1;
                        migration_words += pts * words_per_point;
                    }
                    None => break,
                }
            }
            // recompute max task per rank after migration
            for (r, tasks) in rank_tasks.iter().enumerate() {
                base.rank_max_task[r] =
                    tasks.iter().map(|t| t.0).fold(0.0, f64::max);
            }
            base.migrations = migrations;
            base.migration_seconds = migrations as f64 * cost.ts(level)
                + cost.tw(level) * migration_words as f64;
            base
        }
    }
}

fn segment_assignment(leaf_works: &[f64], segs: &[std::ops::Range<usize>]) -> Assignment {
    let rank_work: Vec<f64> =
        segs.iter().map(|s| leaf_works[s.clone()].iter().sum()).collect();
    let rank_max_task: Vec<f64> = segs
        .iter()
        .map(|s| leaf_works[s.clone()].iter().copied().fold(0.0, f64::max))
        .collect();
    Assignment { rank_work, rank_max_task, migrations: 0, migration_seconds: 0.0 }
}

/// Contiguous ranges over `0..weights.len()` balanced by `weights`.
fn balanced_ranges(weights: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts >= 1);
    let total: usize = weights.iter().sum();
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut consumed = 0usize;
    for i in 0..parts {
        let target = (total as f64 * (i + 1) as f64 / parts as f64).round() as usize;
        let mut end = start;
        if i + 1 == parts {
            end = weights.len();
        } else {
            while end < weights.len() && consumed < target {
                consumed += weights[end];
                end += 1;
            }
        }
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_geom::DetRng;

    fn skewed_works(n: usize, seed: u64) -> (Vec<f64>, Vec<usize>) {
        let mut rng = DetRng::new(seed);
        let works: Vec<f64> = (0..n)
            .map(|i| if i % 17 == 0 { rng.f64_in(50.0, 100.0) } else { rng.f64_in(1.0, 5.0) })
            .collect();
        let points: Vec<usize> = works.iter().map(|w| (*w as usize).max(1)).collect();
        (works, points)
    }

    fn run(policy: LoadBalance, works: &[f64], points: &[usize], ranks: usize) -> Assignment {
        assign(
            policy,
            works,
            points,
            ranks,
            &CostModel::default(),
            CommLevel::CrossNode,
            8,
        )
    }

    #[test]
    fn all_policies_conserve_total_work() {
        let (works, points) = skewed_works(500, 1);
        let total: f64 = works.iter().sum();
        for policy in
            [LoadBalance::EvenLeaves, LoadBalance::BalancedLeaves, LoadBalance::CrossRankStealing]
        {
            let a = run(policy, &works, &points, 8);
            let got: f64 = a.rank_work.iter().sum();
            assert!((got - total).abs() < 1e-6, "{policy:?}");
            assert_eq!(a.rank_work.len(), 8);
        }
    }

    #[test]
    fn stealing_improves_imbalance() {
        let (works, points) = skewed_works(400, 2);
        let even = run(LoadBalance::EvenLeaves, &works, &points, 8);
        let steal = run(LoadBalance::CrossRankStealing, &works, &points, 8);
        assert!(
            steal.imbalance() <= even.imbalance() + 1e-12,
            "steal {} vs even {}",
            steal.imbalance(),
            even.imbalance()
        );
        assert!(steal.migrations > 0, "skewed input should trigger migrations");
        assert!(steal.migration_seconds > 0.0);
    }

    #[test]
    fn stealing_noop_on_uniform_work() {
        let works = vec![3.0; 64];
        let points = vec![3usize; 64];
        let steal = run(LoadBalance::CrossRankStealing, &works, &points, 8);
        assert_eq!(steal.migrations, 0);
        assert!((steal.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_rank_policies_degenerate() {
        let (works, points) = skewed_works(100, 3);
        for policy in
            [LoadBalance::EvenLeaves, LoadBalance::BalancedLeaves, LoadBalance::CrossRankStealing]
        {
            let a = run(policy, &works, &points, 1);
            assert_eq!(a.rank_work.len(), 1);
            assert!((a.imbalance() - 1.0).abs() < 1e-12);
            assert_eq!(a.migrations, 0);
        }
    }

    #[test]
    fn balanced_ranges_cover_everything() {
        let weights = vec![5usize, 1, 1, 1, 5, 1, 1, 1, 5, 1];
        let r = balanced_ranges(&weights, 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].start, 0);
        assert_eq!(r.last().unwrap().end, weights.len());
        for w in r.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }
}
