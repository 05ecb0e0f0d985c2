//! The MPI-like runtime: ranks as threads, explicit messages, collectives.
//!
//! [`SimCluster::run`] launches one OS thread per rank. Ranks share *no*
//! mutable algorithm state — exactly like MPI processes, each works on its
//! own replicated copy of the input — and interact only through the
//! [`Comm`] handle:
//!
//! * point-to-point `send_f64` / `recv_f64` over per-pair channels,
//! * the collectives: `allreduce_sum` and `allgatherv` (the paper's Fig. 4
//!   algorithm), `allreduce_max` (recovery restart negotiation),
//!   `barrier`, and the staged `sparse_exchange` of the communication plan.
//!
//! Every operation records its modeled cost (per the
//! [`CostModel`]) into the rank's
//! [`RankLedger`]; compute code records its
//! own work units via [`Comm::record_work`]. All collective reductions sum
//! in rank order, so results are bitwise deterministic and identical on all
//! ranks regardless of thread scheduling.
//!
//! ## Failure semantics
//!
//! The runtime is **failure-aware** (see [`crate::fault`]):
//!
//! * every operation has a `try_*` variant returning
//!   `Result<_, CommError>`; the plain variants are thin wrappers that
//!   panic on error (convenient for infallible test programs);
//! * a rank that panics poisons the shared [`Barrier`] on unwind, so
//!   peers blocked in *any* collective (or a p2p receive) wake up with
//!   [`CommError`] instead of deadlocking the process;
//! * an optional per-operation watchdog
//!   ([`SimCluster::with_collective_timeout`]) converts a hang into a
//!   diagnostic [`CommErrorKind::Timeout`] carrying every rank's last-op
//!   ledger state;
//! * a [`FaultPlan`] ([`SimCluster::with_fault_plan`]) deterministically
//!   kills ranks at chosen operation indices and delays or drops
//!   point-to-point messages;
//! * [`SimCluster::try_run`] runs fallible rank programs and returns the
//!   first root-cause failure instead of panicking.

use crate::accounting::{RankLedger, RunReport};
use crate::barrier::{Barrier, Poison, WaitError};
use crate::costmodel::{CommLevel, CostModel};
use crate::fault::{CommError, CommErrorKind, FaultPlan, OpKind, P2pAction, RankOpState};
use crate::topology::{ClusterTopology, Placement};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval for receives and other waits that cannot block forever:
/// short enough that poison propagates promptly, long enough to cost
/// nothing on the fault-free path (a delivered message wakes the receiver
/// immediately regardless).
const POISON_POLL: Duration = Duration::from_millis(2);

/// One rank's deposited collective payload, tagged with the barrier
/// generation current at deposit time. The triple-barrier protocol makes
/// the tag identical across ranks for one collective attempt, so a reader
/// can reject a payload left over from a failed earlier attempt (a stale
/// generation) instead of silently consuming it.
struct Deposit {
    gen: u64,
    payload: Vec<f64>,
}

/// One point-to-point message on the wire. `not_before` carries a
/// fault-plan delay to the *receiver*: the send never blocks and the
/// link stays FIFO, but the payload only becomes visible once the delay
/// has elapsed — the fault delays delivery, not the sender.
struct Envelope {
    not_before: Option<Instant>,
    payload: Vec<f64>,
}

impl Envelope {
    fn due(&self) -> bool {
        self.not_before.is_none_or(|t| Instant::now() >= t)
    }
}

/// Verdict of one attempt of the rank programs, ruled at the recovery
/// rendezvous by the last rank to arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AttemptVerdict {
    /// Every rank completed: keep the results.
    Commit,
    /// At least one recoverable failure and budget remains: heal the
    /// runtime and replay the rank programs.
    Replay,
    /// An unrecoverable failure (or exhausted budget): fail the run.
    Abort,
}

/// Rendezvous state for the self-healing supervisor
/// ([`SimCluster::with_recovery`]).
struct RecoveryState {
    /// Attempt currently being judged (0-based).
    attempt: u64,
    /// Ranks arrived at the rendezvous for this attempt.
    arrived: usize,
    /// At least one rank failed this attempt.
    any_failed: bool,
    /// At least one failure was unrecoverable (panic, or an error the
    /// supervisor must not retry).
    any_fatal: bool,
    /// Verdict of the most recently judged attempt.
    verdict: AttemptVerdict,
    /// Heal-and-replay cycles performed so far.
    recoveries: u32,
}

/// Faults that already fired, shared across ranks so a healed replay does
/// not re-fire them: a kill (or p2p drop/delay) is one event in the life
/// of the simulated cluster, not a property of every attempt.
#[derive(Default)]
struct FiredFaults {
    kills: Vec<(usize, u64)>,
    p2p: Vec<(usize, usize, u64)>,
}

/// Shared collective-exchange state for one run.
struct CollectiveCtx {
    barrier: Barrier,
    /// One deposit slot per rank, reused across collectives (the
    /// double-barrier protocol guarantees exclusive generations); each
    /// deposit is tagged with the barrier generation it belongs to.
    slots: Mutex<Vec<Option<Deposit>>>,
    /// Each rank's last-op state, shared so any rank can diagnose a dead
    /// or hung cluster ("rank 3 never reached allreduce #7").
    status: Mutex<Vec<RankOpState>>,
    /// Supervisor rendezvous (used only when recovery is enabled).
    recovery: Mutex<RecoveryState>,
    recovery_cv: Condvar,
    /// One-shot fault bookkeeping.
    fired: Mutex<FiredFaults>,
}

/// A simulated cluster: topology plus cost model, and optionally a
/// collective watchdog and a fault-injection plan.
#[derive(Clone, Debug)]
pub struct SimCluster {
    pub topology: ClusterTopology,
    pub cost: CostModel,
    /// Per-operation watchdog: a collective (or receive) that blocks
    /// longer than this poisons the run and returns
    /// [`CommErrorKind::Timeout`]. `None` (the default) waits forever —
    /// panics still poison, so a dead rank never deadlocks the process.
    pub collective_timeout: Option<Duration>,
    /// Injected faults for resilience testing; empty by default.
    pub fault_plan: FaultPlan,
    /// Self-healing budget: how many times a run may heal the runtime and
    /// replay the rank programs after a *recoverable* failure (injected
    /// kill, watchdog timeout, stale-generation read). `0` — the default —
    /// preserves fail-fast semantics: the first failure aborts the run.
    pub max_recoveries: u32,
}

impl SimCluster {
    /// Creates a cluster.
    pub fn new(topology: ClusterTopology, cost: CostModel) -> SimCluster {
        SimCluster {
            topology,
            cost,
            collective_timeout: None,
            fault_plan: FaultPlan::new(),
            max_recoveries: 0,
        }
    }

    /// A single Lonestar4-style node (12 cores) with default costs.
    pub fn single_node() -> SimCluster {
        SimCluster::new(ClusterTopology::lonestar4(1), CostModel::default())
    }

    /// A Lonestar4-style cluster of `nodes` nodes with default costs.
    pub fn lonestar4(nodes: usize) -> SimCluster {
        SimCluster::new(ClusterTopology::lonestar4(nodes), CostModel::default())
    }

    /// Sets the per-operation watchdog deadline.
    pub fn with_collective_timeout(mut self, timeout: Duration) -> SimCluster {
        self.collective_timeout = Some(timeout);
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> SimCluster {
        self.fault_plan = plan;
        self
    }

    /// Enables the self-healing supervisor: up to `max_recoveries`
    /// heal-and-replay cycles after recoverable failures. Each rank's
    /// program is re-invoked from the top with [`Comm::attempt`] bumped, so
    /// a deterministic program replays to a bit-identical result (and a
    /// checkpointing program can branch on the attempt to restart from its
    /// last completed superstep).
    pub fn with_recovery(mut self, max_recoveries: u32) -> SimCluster {
        self.max_recoveries = max_recoveries;
        self
    }

    /// Runs `f` on `ranks` ranks, each occupying `threads_per_rank` cores
    /// (1 for the pure distributed configuration, >1 for hybrid). Returns
    /// each rank's result plus the accounting report.
    ///
    /// Deterministic: collective results are rank-order sums, and rank `i`'s
    /// result lands at index `i`.
    ///
    /// Panics if any rank panics or fails a communication operation (the
    /// root-cause rank's panic payload is re-raised). Peers never hang: the
    /// failing rank poisons the runtime and everyone aborts. Use
    /// [`SimCluster::try_run`] to get a [`CommError`] instead.
    pub fn run<R, F>(&self, ranks: usize, threads_per_rank: usize, f: F) -> (Vec<R>, RunReport)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let wrapped = |c: &mut Comm| Ok(f(c));
        let (ends, placements, wall, poison, recoveries) =
            self.run_impl(ranks, threads_per_rank, &wrapped);
        let origin = poison.as_ref().map(|p| p.rank);
        let mut panic_payloads: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
        let mut first_error: Option<CommError> = None;
        let mut results = Vec::with_capacity(ranks);
        let mut ledgers = Vec::with_capacity(ranks);
        for (rank, (end, ledger)) in ends.into_iter().enumerate() {
            ledgers.push(ledger);
            match end {
                RankEnd::Done(r) => results.push(r),
                RankEnd::Failed(e) => first_error = first_error.or(Some(e)),
                RankEnd::Panicked(payload) => panic_payloads.push((rank, payload)),
            }
        }
        if results.len() == ranks {
            let report = RunReport {
                ledgers,
                placements: Arc::try_unwrap(placements).unwrap_or_else(|a| (*a).clone()),
                wall_seconds: wall,
                recoveries,
            };
            return (results, report);
        }
        // Failure: re-raise the root cause — the poison originator's panic
        // if it panicked, else any panic, else the first CommError.
        if let Some(origin) = origin {
            if let Some(i) = panic_payloads.iter().position(|(r, _)| *r == origin) {
                std::panic::resume_unwind(panic_payloads.swap_remove(i).1);
            }
        }
        if let Some((_, payload)) = panic_payloads.into_iter().next() {
            std::panic::resume_unwind(payload);
        }
        match first_error {
            Some(e) => panic!("cluster run failed: {e}"),
            None => unreachable!("failed run with no recorded failure"),
        }
    }

    /// Like [`SimCluster::run`], but for fallible rank programs: the rank
    /// closure returns `Result<R, CommError>` (use the `try_*` operations
    /// and `?`), and instead of panicking, a failed run returns the
    /// root-cause [`CommError`] — a rank panic is converted into
    /// [`CommErrorKind::RankPanicked`] — with every rank's last-op ledger
    /// state attached for diagnosis.
    pub fn try_run<R, F>(
        &self,
        ranks: usize,
        threads_per_rank: usize,
        f: F,
    ) -> Result<(Vec<R>, RunReport), CommError>
    where
        R: Send,
        F: Fn(&mut Comm) -> Result<R, CommError> + Sync,
    {
        let (ends, placements, wall, poison, recoveries) =
            self.run_impl(ranks, threads_per_rank, &f);
        let mut results = Vec::with_capacity(ranks);
        let mut ledgers = Vec::with_capacity(ranks);
        let mut failures: Vec<(usize, CommError)> = Vec::new();
        for (rank, (end, ledger)) in ends.into_iter().enumerate() {
            ledgers.push(ledger);
            match end {
                RankEnd::Done(r) => results.push(r),
                RankEnd::Failed(e) => failures.push((rank, e)),
                RankEnd::Panicked(payload) => failures.push((
                    rank,
                    CommError {
                        kind: CommErrorKind::RankPanicked {
                            message: panic_message(payload.as_ref()),
                        },
                        rank,
                        op: None,
                        rank_states: Vec::new(),
                    },
                )),
            }
        }
        if results.len() == ranks {
            let report = RunReport {
                ledgers,
                placements: Arc::try_unwrap(placements).unwrap_or_else(|a| (*a).clone()),
                wall_seconds: wall,
                recoveries,
            };
            return Ok((results, report));
        }
        // Root cause: the poison originator's own failure if present,
        // otherwise the first failure by rank order.
        let origin = poison.as_ref().map(|p| p.rank);
        let idx = origin
            .and_then(|o| failures.iter().position(|(r, _)| *r == o))
            .unwrap_or(0);
        let mut err = failures.swap_remove(idx).1;
        if err.rank_states.is_empty() {
            // attach final per-rank diagnostics from the ledgers
            err.rank_states = ledgers
                .iter()
                .map(|l| RankOpState {
                    ops_started: l.ops_started,
                    last_op: l.last_op,
                    in_op: false,
                })
                .collect();
        }
        Err(err)
    }

    /// Shared engine: spawns the rank threads, catches panics (poisoning
    /// the barrier so peers abort), and returns every rank's terminal
    /// state plus its ledger. With recovery enabled each thread runs a
    /// supervisor loop that heals and replays after recoverable failures.
    #[allow(clippy::type_complexity)]
    fn run_impl<R, F>(
        &self,
        ranks: usize,
        threads_per_rank: usize,
        f: &F,
    ) -> (
        Vec<(RankEnd<R>, RankLedger)>,
        Arc<Vec<Placement>>,
        f64,
        Option<Poison>,
        u32,
    )
    where
        R: Send,
        F: Fn(&mut Comm) -> Result<R, CommError> + Sync,
    {
        assert!(ranks >= 1);
        let placements = Arc::new(self.topology.place(ranks, threads_per_rank));
        let level = CostModel::worst_level(&placements);
        let ctx = Arc::new(CollectiveCtx {
            barrier: Barrier::new(ranks),
            slots: Mutex::new((0..ranks).map(|_| None).collect()),
            status: Mutex::new(vec![RankOpState::default(); ranks]),
            recovery: Mutex::new(RecoveryState {
                attempt: 0,
                arrived: 0,
                any_failed: false,
                any_fatal: false,
                verdict: AttemptVerdict::Commit,
                recoveries: 0,
            }),
            recovery_cv: Condvar::new(),
            fired: Mutex::new(FiredFaults::default()),
        });
        let fault_plan = Arc::new(self.fault_plan.clone());

        // P×P channel matrix; rank r owns receivers[..][r].
        let mut senders: Vec<Vec<Sender<Envelope>>> = Vec::with_capacity(ranks);
        let mut receivers: Vec<Vec<Option<Receiver<Envelope>>>> = (0..ranks)
            .map(|_| (0..ranks).map(|_| None).collect())
            .collect();
        for from in 0..ranks {
            let mut row = Vec::with_capacity(ranks);
            for to_row in receivers.iter_mut() {
                let (s, r) = unbounded();
                row.push(s);
                to_row[from] = Some(r);
            }
            senders.push(row);
        }
        let senders = Arc::new(senders);

        let start = std::time::Instant::now();
        let max_recoveries = self.max_recoveries;
        let mut outputs: Vec<Option<(RankEnd<R>, RankLedger)>> = (0..ranks).map(|_| None).collect();
        crossbeam::thread::scope(|scope| {
            for (rank, slot) in outputs.iter_mut().enumerate() {
                let my_receivers: Vec<Receiver<Envelope>> = receivers[rank]
                    .iter_mut()
                    .map(|r| r.take().unwrap())
                    .collect();
                let ctx = ctx.clone();
                let senders = senders.clone();
                let placements = placements.clone();
                let fault_plan = fault_plan.clone();
                let cost = self.cost;
                let timeout = self.collective_timeout;
                scope.spawn(move |_| {
                    let mut comm = Comm {
                        rank,
                        size: ranks,
                        threads_per_rank,
                        level,
                        cost,
                        timeout,
                        placements,
                        ctx,
                        senders,
                        receivers: my_receivers,
                        fault_plan,
                        send_counts: vec![0; ranks],
                        held: (0..ranks).map(|_| None).collect(),
                        ops_started: 0,
                        attempt: 0,
                        max_recoveries,
                        ledger: RankLedger::default(),
                    };
                    let end = if max_recoveries == 0 {
                        run_rank_once(&mut comm, f)
                    } else {
                        run_rank_supervised(&mut comm, f)
                    };
                    *slot = Some((end, comm.ledger));
                });
            }
        })
        .expect("cluster scope failed");

        let wall = start.elapsed().as_secs_f64();
        let poison = ctx.barrier.poison_state();
        let recoveries = ctx.recovery.lock().recoveries;
        let ends = outputs
            .into_iter()
            .map(|o| o.expect("rank thread produced no outcome"))
            .collect();
        (ends, placements, wall, poison, recoveries)
    }
}

/// One attempt of the rank program: invoke `f`, catch panics, and poison
/// the barrier on any failure so peers blocked in collectives or receives
/// wake up instead of deadlocking.
fn run_rank_once<R, F>(comm: &mut Comm, f: &F) -> RankEnd<R>
where
    R: Send,
    F: Fn(&mut Comm) -> Result<R, CommError> + Sync,
{
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
    let rank = comm.rank;
    match outcome {
        Ok(Ok(r)) => RankEnd::Done(r),
        Ok(Err(e)) => {
            // A fallible rank program gave up: poison so peers blocked in
            // collectives abort too.
            comm.ctx.barrier.poison(Poison {
                rank,
                reason: format!("rank {rank} failed: {e}"),
            });
            RankEnd::Failed(e)
        }
        Err(payload) => {
            comm.ctx.barrier.poison(Poison {
                rank,
                reason: format!("rank {rank} panicked: {}", panic_message(payload.as_ref())),
            });
            RankEnd::Panicked(payload)
        }
    }
}

/// Supervisor loop for self-healing runs: run an attempt, rendezvous with
/// every peer, and either commit the results, heal-and-replay, or abort.
/// A killed (or timed-out, or stale-read) rank thus "respawns" — its
/// deterministic op stream is re-executed from the top and it rejoins the
/// team at the healed barrier's next generation boundary.
fn run_rank_supervised<R, F>(comm: &mut Comm, f: &F) -> RankEnd<R>
where
    R: Send,
    F: Fn(&mut Comm) -> Result<R, CommError> + Sync,
{
    loop {
        let end = run_rank_once(comm, f);
        let (failed, fatal) = match &end {
            RankEnd::Done(_) => (false, false),
            RankEnd::Failed(e) => (true, !e.is_recoverable()),
            RankEnd::Panicked(_) => (true, true),
        };
        match comm.attempt_rendezvous(failed, fatal) {
            AttemptVerdict::Commit | AttemptVerdict::Abort => return end,
            AttemptVerdict::Replay => comm.heal_for_replay(),
        }
    }
}

/// Terminal state of one rank thread.
enum RankEnd<R> {
    Done(R),
    Failed(CommError),
    Panicked(Box<dyn std::any::Any + Send + 'static>),
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-rank communicator handle (the `MPI_COMM_WORLD` analog).
pub struct Comm {
    rank: usize,
    size: usize,
    threads_per_rank: usize,
    level: CommLevel,
    cost: CostModel,
    timeout: Option<Duration>,
    placements: Arc<Vec<Placement>>,
    ctx: Arc<CollectiveCtx>,
    senders: Arc<Vec<Vec<Sender<Envelope>>>>,
    receivers: Vec<Receiver<Envelope>>,
    fault_plan: Arc<FaultPlan>,
    /// Messages sent so far on each outgoing link (fault-plan indexing).
    send_counts: Vec<u64>,
    /// Per-source holdback buffer: the link's oldest undelivered envelope
    /// when its fault-plan delivery delay has not yet elapsed (younger
    /// messages stay queued behind it, preserving FIFO).
    held: Vec<Option<Envelope>>,
    /// Communication ops started by this rank (fault-plan indexing).
    ops_started: u64,
    /// Which invocation of the rank program this is (0 = first).
    attempt: u32,
    max_recoveries: u32,
    ledger: RankLedger,
}

impl Comm {
    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the run.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Threads (cores) available inside this rank.
    #[inline]
    pub fn threads_per_rank(&self) -> usize {
        self.threads_per_rank
    }

    /// This rank's placement.
    pub fn placement(&self) -> Placement {
        self.placements[self.rank]
    }

    /// Records compute work (units ≈ pair interactions).
    #[inline]
    pub fn record_work(&mut self, units: f64) {
        self.ledger.add_work(units);
    }

    /// Records this rank's replicated working set (peak bytes).
    #[inline]
    pub fn record_replicated(&mut self, bytes: u64) {
        self.ledger.record_replicated(bytes);
    }

    /// Which attempt of the rank program this is: 0 on the first
    /// invocation, bumped each time the self-healing supervisor
    /// ([`SimCluster::with_recovery`]) heals the runtime and replays.
    /// Deterministic programs can branch on it to restart from their last
    /// completed superstep checkpoint instead of recomputing everything.
    #[inline]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Whether the self-healing supervisor is active for this run
    /// (`max_recoveries > 0`). Rank programs use this to skip checkpoint
    /// bookkeeping that could never be restored.
    #[inline]
    pub fn recovery_enabled(&self) -> bool {
        self.max_recoveries > 0
    }

    // ---- failure-aware plumbing -------------------------------------------

    /// Snapshot of every rank's last-op state (for error diagnostics).
    fn snapshot_states(&self) -> Vec<RankOpState> {
        self.ctx.status.lock().clone()
    }

    fn poisoned_error(&self, p: Poison, op: OpKind) -> CommError {
        CommError {
            kind: CommErrorKind::Poisoned {
                origin: p.rank,
                reason: p.reason,
            },
            rank: self.rank,
            op: Some(op),
            rank_states: self.snapshot_states(),
        }
    }

    /// Rendezvous at the end of one attempt of the rank program. The last
    /// rank to arrive rules on the attempt; on a replay verdict it also
    /// performs the *shared* heal (clear poison, re-arm and re-generation
    /// the barrier, drain the deposit slots, reset the status table) while
    /// every peer is provably parked here — no wait is in flight, because
    /// poison woke all of them and the rendezvous collected all of them.
    fn attempt_rendezvous(&self, failed: bool, fatal: bool) -> AttemptVerdict {
        let mut s = self.ctx.recovery.lock();
        let my_attempt = s.attempt;
        s.arrived += 1;
        s.any_failed |= failed;
        s.any_fatal |= fatal;
        if s.arrived == self.size {
            let verdict = if !s.any_failed {
                AttemptVerdict::Commit
            } else if !s.any_fatal && s.recoveries < self.max_recoveries {
                AttemptVerdict::Replay
            } else {
                AttemptVerdict::Abort
            };
            if verdict == AttemptVerdict::Replay {
                s.recoveries += 1;
                self.ctx.barrier.heal();
                for slot in self.ctx.slots.lock().iter_mut() {
                    *slot = None;
                }
                for st in self.ctx.status.lock().iter_mut() {
                    *st = RankOpState::default();
                }
            }
            s.verdict = verdict;
            s.arrived = 0;
            s.any_failed = false;
            s.any_fatal = false;
            s.attempt += 1;
            self.ctx.recovery_cv.notify_all();
            verdict
        } else {
            while s.attempt == my_attempt {
                self.ctx.recovery_cv.wait(&mut s);
            }
            // Stable until every rank (including us) re-arrives: the next
            // attempt cannot be judged before this one is even replayed.
            s.verdict
        }
    }

    /// Per-rank heal before a replay: discard the failed attempt's
    /// in-flight p2p traffic, reset the deterministic op/send counters and
    /// the ledger (the replay re-bills from scratch), bump the attempt, and
    /// rejoin the healed barrier so nobody's *new* sends can race a peer
    /// still draining. The channels are quiescent during the drain — every
    /// rank is between the rendezvous and this barrier, sending nothing.
    fn heal_for_replay(&mut self) {
        for from in 0..self.size {
            self.held[from] = None;
            while self.receivers[from].try_recv().is_ok() {}
        }
        self.send_counts.iter_mut().for_each(|c| *c = 0);
        self.ops_started = 0;
        self.ledger = RankLedger::default();
        self.attempt += 1;
        let _ = self.ctx.barrier.wait();
    }

    /// Records a kill as fired; returns false if it already fired in an
    /// earlier attempt (a respawned rank replays past its death point —
    /// the kill is one event, not a property of every attempt).
    fn note_kill_fired(&self, idx: u64) -> bool {
        let mut fired = self.ctx.fired.lock();
        if fired.kills.contains(&(self.rank, idx)) {
            false
        } else {
            fired.kills.push((self.rank, idx));
            true
        }
    }

    /// Fault-plan action for this link's `nth` message, consumed once so a
    /// healed replay of the same deterministic send stream sees a clean
    /// link instead of re-dropping (or re-delaying) the same message.
    fn p2p_action_once(&self, to: usize, nth: u64) -> P2pAction {
        let action = self.fault_plan.p2p_action(self.rank, to, nth);
        if matches!(action, P2pAction::Deliver) {
            return action;
        }
        let mut fired = self.ctx.fired.lock();
        if fired.p2p.contains(&(self.rank, to, nth)) {
            P2pAction::Deliver
        } else {
            fired.p2p.push((self.rank, to, nth));
            action
        }
    }

    /// Enters a communication operation: bumps the op counter, publishes
    /// the last-op state, and applies poison / fault-plan kills.
    fn begin_op(&mut self, kind: OpKind) -> Result<(), CommError> {
        let idx = self.ops_started;
        self.ops_started += 1;
        self.ledger.note_op(kind);
        {
            let mut status = self.ctx.status.lock();
            status[self.rank] = RankOpState {
                ops_started: self.ops_started,
                last_op: Some(kind),
                in_op: true,
            };
        }
        if let Some(p) = self.ctx.barrier.poison_state() {
            return Err(self.poisoned_error(p, kind));
        }
        if self.fault_plan.should_kill(self.rank, idx) && self.note_kill_fired(idx) {
            let reason = format!("killed by fault plan at op #{idx} ({kind})");
            self.ctx.barrier.poison(Poison {
                rank: self.rank,
                reason,
            });
            return Err(CommError {
                kind: CommErrorKind::Killed { op_index: idx },
                rank: self.rank,
                op: Some(kind),
                rank_states: self.snapshot_states(),
            });
        }
        Ok(())
    }

    /// Marks the current operation complete in the shared status table.
    fn end_op(&self) {
        self.ctx.status.lock()[self.rank].in_op = false;
    }

    /// One barrier rendezvous under the watchdog; a timeout poisons the
    /// runtime (so peers abort coherently) and returns the diagnostic.
    fn sync(&self, op: OpKind) -> Result<bool, CommError> {
        match self.ctx.barrier.wait_for(self.timeout) {
            Ok(leader) => Ok(leader),
            Err(WaitError::Poisoned(p)) => Err(self.poisoned_error(p, op)),
            Err(WaitError::TimedOut) => {
                let timeout = self.timeout.expect("timeout without deadline");
                let states = self.snapshot_states();
                self.ctx.barrier.poison(Poison {
                    rank: self.rank,
                    reason: format!("rank {} timed out after {timeout:?} in {op}", self.rank),
                });
                Err(CommError {
                    kind: CommErrorKind::Timeout { timeout },
                    rank: self.rank,
                    op: Some(op),
                    rank_states: states,
                })
            }
        }
    }

    // ---- point-to-point ---------------------------------------------------

    /// Blocking point-to-point send of an f64 payload.
    pub fn send_f64(&mut self, to: usize, payload: Vec<f64>) {
        unwrap_comm(self.try_send_f64(to, payload), OpKind::Send)
    }

    /// Fallible point-to-point send. Subject to fault-plan delay/drop.
    pub fn try_send_f64(&mut self, to: usize, payload: Vec<f64>) -> Result<(), CommError> {
        assert!(to < self.size && to != self.rank, "bad destination {to}");
        self.begin_op(OpKind::Send)?;
        let nth = self.send_counts[to];
        self.send_counts[to] += 1;
        let words = payload.len();
        let level = CommLevel::between(&self.placements[self.rank], &self.placements[to]);
        self.ledger.add_comm_for(
            OpKind::Send,
            self.cost.p2p(level, words),
            (words * 8) as u64,
        );
        match self.p2p_action_once(to, nth) {
            P2pAction::Drop => {} // message vanishes on the wire
            P2pAction::Delay(d) => self.deliver(to, payload, Some(d))?,
            P2pAction::Deliver => self.deliver(to, payload, None)?,
        }
        self.end_op();
        Ok(())
    }

    /// Posts a payload on the outgoing link. A fault-plan `delay` rides
    /// along in the envelope and is applied at *delivery* time by the
    /// receiver (the post itself never blocks — a delayed link delays the
    /// message, not the sender).
    fn deliver(
        &self,
        to: usize,
        payload: Vec<f64>,
        delay: Option<Duration>,
    ) -> Result<(), CommError> {
        let envelope = Envelope {
            not_before: delay.map(|d| Instant::now() + d),
            payload,
        };
        self.senders[self.rank][to]
            .send(envelope)
            .map_err(|_| self.closed_channel_error(to, OpKind::Send))
    }

    /// Nonblocking take from the incoming link, honoring delivery-time
    /// delays: an envelope whose `not_before` has not arrived is parked in
    /// the per-source holdback slot (it is the link's oldest undelivered
    /// message, so FIFO is preserved) and the take reports "nothing yet".
    /// `Err` means the link is disconnected with nothing left to deliver.
    fn take_due(&mut self, from: usize) -> Result<Option<Vec<f64>>, TryRecvError> {
        if let Some(envelope) = self.held[from].take() {
            if envelope.due() {
                return Ok(Some(envelope.payload));
            }
            self.held[from] = Some(envelope);
            return Ok(None);
        }
        match self.receivers[from].try_recv() {
            Ok(envelope) if envelope.due() => Ok(Some(envelope.payload)),
            Ok(envelope) => {
                self.held[from] = Some(envelope);
                Ok(None)
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TryRecvError::Disconnected),
        }
    }

    /// One bounded wait for link activity: parks a fresh arrival in the
    /// holdback slot (the due-check happens at the next `take_due`), or
    /// just sleeps a poll tick when a not-yet-due envelope is already
    /// held — nothing newer may overtake it.
    fn block_for_arrival(&mut self, from: usize) {
        if self.held[from].is_none() {
            if let Ok(envelope) = self.receivers[from].recv_timeout(POISON_POLL) {
                self.held[from] = Some(envelope);
            }
        } else {
            std::thread::sleep(POISON_POLL);
        }
    }

    /// Error for a peer whose channels closed under `op`: the poison that
    /// closed them, or a plain diagnostic when the peer left unpoisoned.
    fn closed_channel_error(&self, peer: usize, op: OpKind) -> CommError {
        match self.ctx.barrier.poison_state() {
            Some(p) => self.poisoned_error(p, op),
            None => CommError {
                kind: CommErrorKind::Poisoned {
                    origin: peer,
                    reason: format!("rank {peer} closed its channels"),
                },
                rank: self.rank,
                op: Some(op),
                rank_states: self.snapshot_states(),
            },
        }
    }

    /// Raises (and poisons for) a receive watchdog expiry.
    fn recv_timeout_error(&self, from: usize, op: OpKind) -> CommError {
        let timeout = self.timeout.expect("deadline without timeout");
        let states = self.snapshot_states();
        self.ctx.barrier.poison(Poison {
            rank: self.rank,
            reason: format!(
                "rank {} timed out after {timeout:?} in {op} from {from}",
                self.rank
            ),
        });
        CommError {
            kind: CommErrorKind::Timeout { timeout },
            rank: self.rank,
            op: Some(op),
            rank_states: states,
        }
    }

    /// Blocking receive from a specific source rank.
    pub fn recv_f64(&mut self, from: usize) -> Vec<f64> {
        unwrap_comm(self.try_recv_f64(from), OpKind::Recv)
    }

    /// Fallible receive: wakes with an error if the runtime is poisoned
    /// while waiting, or if the watchdog deadline expires (e.g. the
    /// message was dropped by the fault plan).
    pub fn try_recv_f64(&mut self, from: usize) -> Result<Vec<f64>, CommError> {
        assert!(from < self.size && from != self.rank, "bad source {from}");
        self.begin_op(OpKind::Recv)?;
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let payload = loop {
            match self.take_due(from) {
                Ok(Some(p)) => break p,
                Ok(None) => {}
                Err(_) => return Err(self.closed_channel_error(from, OpKind::Recv)),
            }
            if let Some(p) = self.ctx.barrier.poison_state() {
                return Err(self.poisoned_error(p, OpKind::Recv));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(self.recv_timeout_error(from, OpKind::Recv));
            }
            self.block_for_arrival(from);
        };
        // Receiver pays latency too (it idles for the message).
        let level = CommLevel::between(&self.placements[self.rank], &self.placements[from]);
        self.ledger
            .add_comm_for(OpKind::Recv, self.cost.p2p(level, payload.len()), 0);
        self.end_op();
        Ok(payload)
    }

    // ---- collectives ------------------------------------------------------

    /// Barrier across all ranks.
    pub fn barrier(&mut self) {
        unwrap_comm(self.try_barrier(), OpKind::Barrier)
    }

    /// Fallible barrier across all ranks.
    pub fn try_barrier(&mut self) -> Result<(), CommError> {
        self.begin_op(OpKind::Barrier)?;
        if self.size > 1 {
            self.sync(OpKind::Barrier)?;
        }
        self.ledger
            .add_comm_for(OpKind::Barrier, self.cost.barrier(self.level, self.size), 0);
        self.end_op();
        Ok(())
    }

    /// Element-wise sum-allreduce, in place. All ranks receive the identical
    /// rank-order sum (bitwise deterministic).
    pub fn allreduce_sum(&mut self, data: &mut [f64]) {
        unwrap_comm(self.try_allreduce_sum(data), OpKind::AllreduceSum)
    }

    /// Fallible element-wise sum-allreduce.
    pub fn try_allreduce_sum(&mut self, data: &mut [f64]) -> Result<(), CommError> {
        const OP: OpKind = OpKind::AllreduceSum;
        self.begin_op(OP)?;
        if self.size == 1 {
            self.end_op();
            return Ok(());
        }
        let tag = self.collective_tag();
        self.deposit(tag, data.to_vec());
        self.sync(OP)?;
        {
            let slots = self.ctx.slots.lock();
            for x in data.iter_mut() {
                *x = 0.0;
            }
            for r in 0..self.size {
                let contrib = self.checked_payload(&slots, r, tag, OP)?;
                assert_eq!(contrib.len(), data.len(), "allreduce length mismatch");
                for (x, c) in data.iter_mut().zip(contrib) {
                    *x += *c;
                }
            }
        }
        self.finish_collective(OP)?;
        self.ledger.add_comm_for(
            OP,
            self.cost.allreduce(self.level, self.size, data.len()),
            (CostModel::allreduce_wire_words(self.size, data.len()) * 8) as u64,
        );
        self.end_op();
        Ok(())
    }

    /// Element-wise max-allreduce, in place (used for global extrema, e.g.
    /// Born-radius bin ranges; reduce a minimum by negating).
    pub fn allreduce_max(&mut self, data: &mut [f64]) {
        unwrap_comm(self.try_allreduce_max(data), OpKind::AllreduceMax)
    }

    /// Fallible element-wise max-allreduce.
    pub fn try_allreduce_max(&mut self, data: &mut [f64]) -> Result<(), CommError> {
        const OP: OpKind = OpKind::AllreduceMax;
        self.begin_op(OP)?;
        if self.size == 1 {
            self.end_op();
            return Ok(());
        }
        let tag = self.collective_tag();
        self.deposit(tag, data.to_vec());
        self.sync(OP)?;
        {
            let slots = self.ctx.slots.lock();
            for x in data.iter_mut() {
                *x = f64::NEG_INFINITY;
            }
            for r in 0..self.size {
                let contrib = self.checked_payload(&slots, r, tag, OP)?;
                assert_eq!(contrib.len(), data.len(), "allreduce length mismatch");
                for (x, c) in data.iter_mut().zip(contrib) {
                    *x = x.max(*c);
                }
            }
        }
        self.finish_collective(OP)?;
        self.ledger.add_comm_for(
            OP,
            self.cost.allreduce(self.level, self.size, data.len()),
            (CostModel::allreduce_wire_words(self.size, data.len()) * 8) as u64,
        );
        self.end_op();
        Ok(())
    }

    /// Variable-length allgather: every rank contributes `local`; all ranks
    /// receive the rank-order concatenation.
    pub fn allgatherv(&mut self, local: &[f64]) -> Vec<f64> {
        unwrap_comm(self.try_allgatherv(local), OpKind::Allgatherv)
    }

    /// Fallible variable-length allgather.
    pub fn try_allgatherv(&mut self, local: &[f64]) -> Result<Vec<f64>, CommError> {
        const OP: OpKind = OpKind::Allgatherv;
        self.begin_op(OP)?;
        if self.size == 1 {
            self.end_op();
            return Ok(local.to_vec());
        }
        let tag = self.collective_tag();
        self.deposit(tag, local.to_vec());
        self.sync(OP)?;
        let mut out;
        let mut max_words = 0;
        {
            let slots = self.ctx.slots.lock();
            let mut total = 0;
            for r in 0..self.size {
                let words = self.checked_payload(&slots, r, tag, OP)?.len();
                total += words;
                max_words = max_words.max(words);
            }
            out = Vec::with_capacity(total);
            for r in 0..self.size {
                out.extend_from_slice(self.checked_payload(&slots, r, tag, OP)?);
            }
        }
        self.finish_collective(OP)?;
        // Ragged contributions: the ring is gated by the *largest*
        // contribution (each step forwards every rank's block, so one
        // MB-scale contributor among tiny ones sets the critical path) —
        // billing the average would model it as nearly free.
        self.ledger.add_comm_for(
            OP,
            self.cost.allgather(self.level, self.size, max_words),
            (local.len() * 8) as u64,
        );
        self.end_op();
        Ok(out)
    }

    /// Staged sparse all-to-all: rank `r` receives `outgoing[r]` from every
    /// rank (possibly empty — empty payloads cost nothing on the wire).
    /// Returns the received payloads indexed by source rank;
    /// `result[self.rank]` is this rank's own chunk, delivered for free.
    ///
    /// This is the transport under the communication plan: stage 1 ships
    /// produced `(slot, value)` segments to slot owners, stage 2 ships
    /// reduced values to consumers — in both cases each rank pays for the
    /// slots it actually touches, not for `p ×` the dense vector. Uses the
    /// same deposit/sync/finish protocol as the dense collectives, so
    /// poison, fault-plan kills, and the watchdog all apply unchanged.
    pub fn try_sparse_exchange(
        &mut self,
        outgoing: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, CommError> {
        const OP: OpKind = OpKind::SparseExchange;
        assert_eq!(
            outgoing.len(),
            self.size,
            "sparse exchange needs one payload per rank"
        );
        self.begin_op(OP)?;
        if self.size == 1 {
            self.end_op();
            return Ok(vec![outgoing[0].clone()]);
        }
        // Deposit the destination-major concatenation with a length header
        // per destination.
        let total: usize = outgoing.iter().map(|v| v.len()).sum();
        let mut flat = Vec::with_capacity(self.size + total);
        for chunk in outgoing {
            flat.push(chunk.len() as f64);
            flat.extend_from_slice(chunk);
        }
        let tag = self.collective_tag();
        self.deposit(tag, flat);
        self.sync(OP)?;
        let mut incoming = Vec::with_capacity(self.size);
        {
            let slots = self.ctx.slots.lock();
            for r in 0..self.size {
                let row = self.checked_payload(&slots, r, tag, OP)?;
                let mut cursor = 0usize;
                let mut mine = Vec::new();
                for dest in 0..self.size {
                    let len = row[cursor] as usize;
                    cursor += 1;
                    if dest == self.rank {
                        mine = row[cursor..cursor + len].to_vec();
                    }
                    cursor += len;
                }
                incoming.push(mine);
            }
        }
        self.finish_collective(OP)?;
        // Bill this rank's outbound traffic: one message per non-empty
        // foreign payload, bandwidth for every foreign word (the self-chunk
        // never touches the wire).
        let num_msgs = outgoing
            .iter()
            .enumerate()
            .filter(|&(d, v)| d != self.rank && !v.is_empty())
            .count();
        let wire_words: usize = outgoing
            .iter()
            .enumerate()
            .filter_map(|(d, v)| (d != self.rank).then_some(v.len()))
            .sum();
        self.ledger.add_comm_for(
            OP,
            self.cost
                .sparse_exchange(self.level, self.size, num_msgs, wire_words),
            (wire_words * 8) as u64,
        );
        self.end_op();
        Ok(incoming)
    }

    /// The generation tag for a collective attempt: the barrier generation
    /// current *before* the attempt's first rendezvous. Stable across the
    /// whole deposit window — nobody can complete that rendezvous (and
    /// advance the counter) until this rank arrives at it.
    fn collective_tag(&self) -> u64 {
        self.ctx.barrier.generation()
    }

    /// Deposits this rank's payload tagged with the attempt's generation.
    /// A stale deposit left in the slot by a failed earlier attempt is
    /// overwritten — discarded, never merged.
    fn deposit(&self, tag: u64, payload: Vec<f64>) {
        self.ctx.slots.lock()[self.rank] = Some(Deposit { gen: tag, payload });
    }

    /// Reads rank `r`'s deposit, validating its generation tag: a missing
    /// deposit or one tagged with another generation is a stale leftover
    /// from a failed attempt and must be *discarded*, not consumed — the
    /// caller gets [`CommErrorKind::StaleGeneration`] (recoverable, so the
    /// supervisor retries the whole attempt against drained slots).
    fn checked_payload<'s>(
        &self,
        slots: &'s [Option<Deposit>],
        r: usize,
        tag: u64,
        op: OpKind,
    ) -> Result<&'s Vec<f64>, CommError> {
        match &slots[r] {
            Some(d) if d.gen == tag => Ok(&d.payload),
            other => Err(CommError {
                kind: CommErrorKind::StaleGeneration {
                    expected: tag,
                    found: other.as_ref().map(|d| d.gen),
                },
                rank: self.rank,
                op: Some(op),
                rank_states: self.snapshot_states(),
            }),
        }
    }

    /// Second barrier of the double-barrier protocol; the last rank out
    /// clears the slots for the next collective.
    fn finish_collective(&self, op: OpKind) -> Result<(), CommError> {
        if self.sync(op)? {
            let mut slots = self.ctx.slots.lock();
            for s in slots.iter_mut() {
                *s = None;
            }
        }
        // Third rendezvous: nobody may deposit for the *next* collective
        // until the slots are cleared.
        self.sync(op)?;
        Ok(())
    }
}

/// Panicking shim for the plain (non-`try`) operation variants.
fn unwrap_comm<T>(result: Result<T, CommError>, op: OpKind) -> T {
    match result {
        Ok(t) => t,
        Err(e) => panic!("{op} failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> SimCluster {
        SimCluster::lonestar4(2)
    }

    #[test]
    fn ranks_see_their_ids() {
        let (results, report) = cluster().run(8, 1, |c| (c.rank(), c.size()));
        assert_eq!(results.len(), 8);
        for (i, (r, s)) in results.iter().enumerate() {
            assert_eq!(*r, i);
            assert_eq!(*s, 8);
        }
        assert_eq!(report.num_ranks(), 8);
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let (results, _) = cluster().run(1, 1, |c| {
            let mut v = vec![1.0, 2.0];
            c.allreduce_sum(&mut v);
            c.barrier();
            let g = c.allgatherv(&[5.0]);
            (v, g)
        });
        assert_eq!(results[0].0, vec![1.0, 2.0]);
        assert_eq!(results[0].1, vec![5.0]);
    }

    #[test]
    fn allreduce_sums_identically_everywhere() {
        let p = 6;
        let (results, _) = cluster().run(p, 1, |c| {
            let mut v = vec![c.rank() as f64, 1.0, (c.rank() * c.rank()) as f64];
            c.allreduce_sum(&mut v);
            v
        });
        let want = vec![15.0, 6.0, 55.0]; // Σr, Σ1, Σr² for r in 0..6
        for r in &results {
            assert_eq!(*r, want);
        }
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let (results, _) = cluster().run(4, 1, |c| {
            let mut total = 0.0;
            for round in 0..10 {
                let mut v = vec![(c.rank() + round) as f64];
                c.allreduce_sum(&mut v);
                total += v[0];
            }
            total
        });
        // Σ_rounds Σ_ranks (rank + round) = Σ_rounds (6 + 4*round) = 60 + 4*45
        for r in &results {
            assert_eq!(*r, 240.0);
        }
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let (results, _) = cluster().run(5, 1, |c| {
            // variable lengths: rank r contributes r+1 copies of r
            let local = vec![c.rank() as f64; c.rank() + 1];
            c.allgatherv(&local)
        });
        let want = vec![
            0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0,
        ];
        for r in &results {
            assert_eq!(*r, want);
        }
    }

    #[test]
    fn mixed_collective_sequence_is_consistent() {
        // exercise slot reuse across different collective kinds
        let (results, _) = cluster().run(4, 1, |c| {
            let mut v = vec![c.rank() as f64];
            c.allreduce_sum(&mut v); // 6
            let mut m = vec![v[0] * (c.rank() + 1) as f64];
            c.allreduce_max(&mut m); // 24 everywhere
            let s = [v[0] * (c.rank() + 1) as f64]; // 6*(rank+1)
            let g = c.allgatherv(&s); // [6,12,18,24]
            (m[0], g)
        });
        for (i, (m, g)) in results.iter().enumerate() {
            assert_eq!(*m, 24.0, "rank {i}");
            assert_eq!(*g, vec![6.0, 12.0, 18.0, 24.0]);
        }
    }

    #[test]
    fn p2p_ring_passes_messages() {
        let p = 5;
        let (results, _) = cluster().run(p, 1, |c| {
            let next = (c.rank() + 1) % p;
            let prev = (c.rank() + p - 1) % p;
            c.send_f64(next, vec![c.rank() as f64]);
            let got = c.recv_f64(prev);
            got[0]
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, ((i + p - 1) % p) as f64);
        }
    }

    #[test]
    fn sparse_exchange_routes_payloads_by_destination() {
        let p = 4;
        let (results, report) = cluster().run(p, 1, |c| {
            // rank r sends [r*10 + d] to every other rank d, nothing to itself+1 mod p
            let outgoing: Vec<Vec<f64>> = (0..p)
                .map(|d| {
                    if d == (c.rank() + 1) % p {
                        Vec::new()
                    } else {
                        vec![(c.rank() * 10 + d) as f64]
                    }
                })
                .collect();
            c.unwrap_sparse(outgoing)
        });
        for (me, incoming) in results.iter().enumerate() {
            assert_eq!(incoming.len(), p);
            for (src, chunk) in incoming.iter().enumerate() {
                if me == (src + 1) % p {
                    assert!(chunk.is_empty(), "rank {me} from {src}");
                } else {
                    assert_eq!(chunk, &vec![(src * 10 + me) as f64], "rank {me} from {src}");
                }
            }
        }
        for l in &report.ledgers {
            // 2 foreign non-empty payloads of 1 word each (3 foreign dests,
            // one of them empty)
            assert_eq!(l.bytes_for(OpKind::SparseExchange), 16);
        }
    }

    #[test]
    fn sparse_exchange_single_rank_is_identity() {
        let (results, _) = cluster().run(1, 1, |c| c.unwrap_sparse(vec![vec![1.0, 2.0]]));
        assert_eq!(results[0], vec![vec![1.0, 2.0]]);
    }

    impl Comm {
        /// Test shim: panicking sparse exchange.
        fn unwrap_sparse(&mut self, outgoing: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
            unwrap_comm(self.try_sparse_exchange(&outgoing), OpKind::SparseExchange)
        }
    }

    #[test]
    fn accounting_captures_comm_and_work() {
        let (_, report) = cluster().run(4, 1, |c| {
            c.record_work(1000.0);
            c.record_replicated(1 << 20);
            let mut v = vec![1.0; 256];
            c.allreduce_sum(&mut v);
        });
        for l in &report.ledgers {
            assert_eq!(l.work_units, 1000.0);
            assert!(l.comm_seconds > 0.0);
            assert!(l.bytes_moved >= 256 * 8);
            assert_eq!(l.replicated_bytes, 1 << 20);
            assert_eq!(l.last_op, Some(OpKind::AllreduceSum));
            assert_eq!(l.ops_started, 1);
        }
        let t = report.modeled_time(&CostModel::default());
        assert!(t > 0.0);
    }

    #[test]
    fn cross_node_costs_more_than_single_node() {
        // Same program, same total ranks: spread across 2 nodes vs 1 node.
        let run_comm = |cluster: &SimCluster, ranks: usize| {
            let (_, report) = cluster.run(ranks, 1, |c| {
                let mut v = vec![0.0; 4096];
                for _ in 0..8 {
                    c.allreduce_sum(&mut v);
                }
            });
            report.ledgers[0].comm_seconds
        };
        let one_node = run_comm(&SimCluster::lonestar4(1), 12);
        let two_nodes = run_comm(&SimCluster::lonestar4(2), 24);
        assert!(
            two_nodes > one_node,
            "cross-node comm {two_nodes} should exceed intra-node {one_node}"
        );
    }

    #[test]
    fn hybrid_placement_reduces_rank_count_and_comm() {
        // 12 cores as 12x1 (distributed) vs 2x6 (hybrid): fewer ranks =>
        // cheaper collectives, the §IV-B claim.
        let cluster = SimCluster::lonestar4(1);
        let comm_of = |ranks: usize, tpr: usize| {
            let (_, report) = cluster.run(ranks, tpr, |c| {
                let mut v = vec![0.0; 4096];
                for _ in 0..8 {
                    c.allreduce_sum(&mut v);
                }
            });
            report.ledgers[0].comm_seconds
        };
        let distributed = comm_of(12, 1);
        let hybrid = comm_of(2, 6);
        assert!(
            hybrid < distributed,
            "hybrid {hybrid} vs distributed {distributed}"
        );
    }

    #[test]
    fn ragged_allgatherv_bills_the_critical_path() {
        // one MB-scale contributor among tiny ones: modeled time must be
        // bounded below by the cost of forwarding the big block, not the
        // (tiny) average.
        let big = 1 << 17; // 1 MB of f64s
        let (_, report) = cluster().run(4, 1, |c| {
            let local = if c.rank() == 2 {
                vec![1.0; big]
            } else {
                vec![1.0]
            };
            c.allgatherv(&local);
        });
        let cost = CostModel::default();
        let level = CommLevel::SameSocket; // single-node lonestar4(2) run places 4 ranks on socket 0
        let floor = cost.allgather(level, 4, big);
        for l in &report.ledgers {
            assert!(
                l.comm_seconds >= floor,
                "billed {} < critical-path floor {floor}",
                l.comm_seconds
            );
        }
    }

    #[test]
    fn try_run_succeeds_on_clean_programs() {
        let (results, report) = cluster()
            .try_run(4, 1, |c| {
                let mut v = vec![c.rank() as f64];
                c.try_allreduce_sum(&mut v)?;
                Ok(v[0])
            })
            .unwrap();
        assert_eq!(results, vec![6.0; 4]);
        assert_eq!(report.num_ranks(), 4);
    }

    #[test]
    fn try_run_reports_rank_failure() {
        let err = cluster()
            .try_run(3, 1, |c| {
                if c.rank() == 1 {
                    return Err(CommError {
                        kind: CommErrorKind::RankPanicked {
                            message: "synthetic".into(),
                        },
                        rank: 1,
                        op: None,
                        rank_states: Vec::new(),
                    });
                }
                let mut v = vec![1.0];
                c.try_allreduce_sum(&mut v)?;
                Ok(v[0])
            })
            .unwrap_err();
        assert_eq!(err.rank, 1);
        assert_eq!(
            err.rank_states.len(),
            3,
            "diagnostics for every rank: {err}"
        );
    }
}
