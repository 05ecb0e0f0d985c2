//! Failure semantics for the simulated cluster: typed communication
//! errors, per-rank operation status, and the fault-injection plan.
//!
//! The paper's OCT_MPI configurations assume every rank survives the run;
//! production distributed runtimes cannot. This module supplies the three
//! pieces the failure-aware runtime needs:
//!
//! * [`OpKind`] / [`RankOpState`] — a shared ledger of what operation each
//!   rank last entered, so a hang converts into a *diagnosable* error
//!   ("rank 3 never reached allreduce #7") instead of a silent deadlock;
//! * [`CommError`] — the typed error every `try_*` operation returns,
//!   carrying the per-rank operation states observed when it was raised;
//! * [`FaultPlan`] — deterministic fault injection (kill rank `r` at its
//!   `k`-th communication op), threaded through
//!   [`SimCluster::run`](crate::SimCluster::run) so the failure matrix is
//!   testable without OS-level process murder.

use std::fmt;
use std::time::Duration;

/// The communication operations the runtime tracks and can inject faults
/// into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Barrier,
    AllreduceSum,
    AllreduceMax,
    Allgatherv,
    /// Staged sparse all-to-all
    /// ([`Comm::try_sparse_exchange`](crate::comm::Comm::try_sparse_exchange)):
    /// each rank ships an arbitrary (possibly empty) payload to every peer.
    SparseExchange,
}

impl OpKind {
    /// Every operation kind — all of them collectives (used by the
    /// failure-matrix tests).
    pub const COLLECTIVES: [OpKind; 5] = [
        OpKind::Barrier,
        OpKind::AllreduceSum,
        OpKind::AllreduceMax,
        OpKind::Allgatherv,
        OpKind::SparseExchange,
    ];

    /// Total number of kinds; [`OpKind::index`] is always `< COUNT`.
    pub const COUNT: usize = 5;

    /// Dense index for per-op tables (byte ledgers and the like).
    pub fn index(self) -> usize {
        match self {
            OpKind::Barrier => 0,
            OpKind::AllreduceSum => 1,
            OpKind::AllreduceMax => 2,
            OpKind::Allgatherv => 3,
            OpKind::SparseExchange => 4,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Barrier => "barrier",
            OpKind::AllreduceSum => "allreduce_sum",
            OpKind::AllreduceMax => "allreduce_max",
            OpKind::Allgatherv => "allgatherv",
            OpKind::SparseExchange => "sparse_exchange",
        };
        f.write_str(s)
    }
}

/// One rank's last-operation ledger entry, shared across ranks so that any
/// rank raising an error can report where every peer was at that moment.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankOpState {
    /// Communication operations this rank has *started* (1-based count;
    /// the `op_index` a [`FaultPlan`] kill matches against is this count
    /// minus one).
    pub ops_started: u64,
    /// The operation the rank most recently entered.
    pub last_op: Option<OpKind>,
    /// Whether the rank is still inside `last_op` (blocked or computing)
    /// as opposed to having completed it.
    pub in_op: bool,
}

impl fmt::Display for RankOpState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.last_op {
            None => write!(f, "no ops"),
            Some(op) => write!(
                f,
                "op #{} {op} ({})",
                self.ops_started.saturating_sub(1),
                if self.in_op { "in flight" } else { "done" }
            ),
        }
    }
}

/// What went wrong, structurally.
#[derive(Clone, Debug)]
pub enum CommErrorKind {
    /// A peer poisoned the runtime (panic, kill, or timeout elsewhere);
    /// this rank observed the poison while blocked in or entering an op.
    Poisoned {
        /// Rank that originated the poison.
        origin: usize,
        /// Human-readable cause recorded by the originator.
        reason: String,
    },
    /// This rank's collective exceeded the configured watchdog deadline.
    Timeout {
        /// The deadline that expired.
        timeout: Duration,
    },
    /// This rank was killed by the [`FaultPlan`] at the given op index.
    Killed {
        /// 0-based index of the communication op at which the kill fired.
        op_index: u64,
    },
    /// A rank program panicked; the panic was converted into an error by
    /// [`SimCluster::try_run`](crate::SimCluster::try_run).
    RankPanicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// A collective read a deposit tagged with a different barrier
    /// generation than the reader's attempt — a stale payload left over
    /// from a failed attempt that the recovery drain should have
    /// discarded. Retrying after a heal clears it.
    StaleGeneration {
        /// Generation tag the reader's attempt carries.
        expected: u64,
        /// Tag found in the slot (`None` if the slot was empty).
        found: Option<u64>,
    },
}

/// A communication failure, with enough context to debug a dead cluster:
/// which rank raised it, inside which operation, and what every rank's
/// last-op ledger looked like at that moment.
#[derive(Clone, Debug)]
pub struct CommError {
    /// Structural cause.
    pub kind: CommErrorKind,
    /// Rank that raised (or observed) the error.
    pub rank: usize,
    /// Operation this rank was in when the error was raised.
    pub op: Option<OpKind>,
    /// Snapshot of every rank's last-op state when the error was raised.
    pub rank_states: Vec<RankOpState>,
}

impl CommError {
    /// True if this error is (transitively) a watchdog timeout — either
    /// raised here or observed as poison whose reason records a timeout.
    pub fn is_timeout(&self) -> bool {
        match &self.kind {
            CommErrorKind::Timeout { .. } => true,
            CommErrorKind::Poisoned { reason, .. } => reason.contains("timed out"),
            _ => false,
        }
    }

    /// True if the self-healing supervisor may recover from this failure
    /// by healing the runtime and replaying the attempt: injected kills,
    /// watchdog timeouts, stale-generation reads, and poison observed from
    /// such a root cause. A panic is not recoverable — the program itself
    /// is broken, and a deterministic replay would only panic again.
    pub fn is_recoverable(&self) -> bool {
        match &self.kind {
            CommErrorKind::Killed { .. }
            | CommErrorKind::Timeout { .. }
            | CommErrorKind::StaleGeneration { .. } => true,
            CommErrorKind::Poisoned { reason, .. } => !reason.contains("panicked"),
            CommErrorKind::RankPanicked { .. } => false,
        }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            CommErrorKind::Poisoned { origin, reason } => write!(
                f,
                "rank {} aborted: runtime poisoned by rank {origin} ({reason})",
                self.rank
            )?,
            CommErrorKind::Timeout { timeout } => write!(
                f,
                "rank {} timed out after {timeout:?} waiting in a collective",
                self.rank
            )?,
            CommErrorKind::Killed { op_index } => write!(
                f,
                "rank {} killed by fault plan at op #{op_index}",
                self.rank
            )?,
            CommErrorKind::RankPanicked { message } => {
                write!(f, "rank {} panicked: {message}", self.rank)?
            }
            CommErrorKind::StaleGeneration { expected, found } => write!(
                f,
                "rank {} read a stale-generation deposit (expected gen {expected}, found {})",
                self.rank,
                found.map_or("empty slot".to_string(), |g| format!("gen {g}")),
            )?,
        }
        if let Some(op) = self.op {
            write!(f, " [in {op}]")?;
        }
        if !self.rank_states.is_empty() {
            write!(f, "; last ops:")?;
            for (r, s) in self.rank_states.iter().enumerate() {
                write!(f, " r{r}={s};")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for CommError {}

/// A deterministic fault-injection plan, threaded through
/// [`SimCluster`](crate::SimCluster) runs.
///
/// ```
/// use gb_cluster::FaultPlan;
/// let plan = FaultPlan::new()
///     .kill_rank(2, 5) // rank 2 dies at its 6th comm op
///     .kill_rank(0, 1); // rank 0 dies at its 2nd
/// assert!(!plan.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// `(rank, at_op)`: kill `rank` when it starts its `at_op`-th (0-based)
    /// communication op.
    kills: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Kill `rank` when it starts its `at_op`-th (0-based) communication
    /// operation: the op returns [`CommErrorKind::Killed`] and the runtime
    /// is poisoned so every peer aborts too.
    pub fn kill_rank(mut self, rank: usize, at_op: u64) -> FaultPlan {
        self.kills.push((rank, at_op));
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }

    /// Should `rank` die when starting its `op_index`-th (0-based) op?
    pub(crate) fn should_kill(&self, rank: usize, op_index: u64) -> bool {
        self.kills.contains(&(rank, op_index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_matches_exact_rank_and_op() {
        let plan = FaultPlan::new().kill_rank(2, 5);
        assert!(plan.should_kill(2, 5));
        assert!(!plan.should_kill(2, 4));
        assert!(!plan.should_kill(1, 5));
    }

    #[test]
    fn op_indices_are_dense_and_unique() {
        let all = OpKind::COLLECTIVES;
        assert_eq!(all.len(), OpKind::COUNT);
        let mut seen = [false; OpKind::COUNT];
        for op in all {
            assert!(!seen[op.index()], "duplicate index for {op}");
            seen[op.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(OpKind::SparseExchange.to_string(), "sparse_exchange");
    }

    #[test]
    fn error_display_includes_rank_states() {
        let err = CommError {
            kind: CommErrorKind::Timeout {
                timeout: Duration::from_secs(1),
            },
            rank: 0,
            op: Some(OpKind::AllreduceSum),
            rank_states: vec![
                RankOpState {
                    ops_started: 3,
                    last_op: Some(OpKind::AllreduceSum),
                    in_op: true,
                },
                RankOpState {
                    ops_started: 1,
                    last_op: Some(OpKind::Barrier),
                    in_op: false,
                },
            ],
        };
        let s = err.to_string();
        assert!(s.contains("timed out"), "{s}");
        assert!(s.contains("allreduce_sum"), "{s}");
        assert!(s.contains("r1="), "{s}");
        assert!(err.is_timeout());
    }
}
