//! # gb-cluster
//!
//! A simulated message-passing cluster: the substrate that stands in for
//! MPI-on-Lonestar4 in this reproduction.
//!
//! ## Why a simulated cluster
//!
//! The paper's distributed and hybrid algorithms run on a 12-core-per-node
//! InfiniBand cluster with MVAPICH2. Rust MPI bindings are immature, and a
//! single machine cannot produce honest 144-core wall-clock scaling anyway.
//! Instead, this crate executes the *identical communication structure* —
//! P ranks with no shared mutable state, exchanging data only through typed
//! point-to-point messages and collectives — while a LogGP-style
//! hierarchical cost model plus per-rank work/byte accounting produce a
//! *modeled* parallel time
//!
//! ```text
//! T_P = max_ranks (T_compute(rank) + T_comm(rank))
//! ```
//!
//! with the same `t_s log P + t_w m (P−1)` collective-cost algebra the
//! paper itself uses in §IV-C. Speedup *shapes* (crossover points, the
//! hybrid-vs-distributed gap, replicated-memory ratios) are therefore
//! preserved even though absolute wall-clock on this machine is not the
//! cluster's.
//!
//! ## Pieces
//!
//! * [`topology`] — cluster shape (nodes × sockets × cores) and rank
//!   placement; includes the paper's Lonestar4 preset (Table I).
//! * [`costmodel`] — hierarchical latency/bandwidth constants, collective
//!   cost formulas, compute-time conversion, and the memory-pressure
//!   penalty that makes data replication expensive (the paper's §V-B
//!   observation: 12 single-thread ranks per node used 5.86× the memory of
//!   2×6-thread hybrid ranks).
//! * [`accounting`] — per-rank ledgers of work units, modeled communication
//!   seconds, bytes moved and replicated memory; aggregated into a
//!   [`RunReport`].
//! * [`comm`] — the MPI-like runtime itself: [`SimCluster::run`] spawns one
//!   OS thread per rank and hands each a [`Comm`] handle with
//!   `send`/`recv`, `barrier`, `allreduce` (sum and max) and
//!   `allgatherv` — every collective the paper's 7-step algorithm needs —
//!   plus a staged `sparse_exchange` for communication-plan runners. A
//!   rank's own threads are the runners' business; the handle only
//!   reports how many it has.
//! * [`fault`] — failure semantics: typed [`CommError`]s, per-rank last-op
//!   diagnostics, and the deterministic [`FaultPlan`] injection layer. The
//!   runtime is failure-aware: a panicking rank poisons the shared
//!   [`barrier`] so peers abort instead of deadlocking, an optional
//!   watchdog converts hangs into diagnostic timeouts, and every operation
//!   has a `try_*` variant returning `Result<_, CommError>`.

pub mod accounting;
pub mod barrier;
pub mod comm;
pub mod costmodel;
pub mod fault;
pub mod topology;

pub use accounting::{RankLedger, RunReport};
pub use comm::{Comm, SimCluster};
pub use costmodel::{CommLevel, CostModel, MemoryModel};
pub use fault::{CommError, CommErrorKind, FaultPlan, OpKind, P2pAction, RankOpState};
pub use topology::{ClusterTopology, Placement};
