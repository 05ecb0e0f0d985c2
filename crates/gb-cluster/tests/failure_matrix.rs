//! The failure matrix: every collective kind × rank count × failure mode
//! must return a [`CommError`] — never hang — under a harness watchdog.
//!
//! Two injection modes per cell:
//!
//! * **panic** — one rank panics just before entering the collective while
//!   its peers are already blocked inside it (the poison protocol must
//!   wake them);
//! * **kill** — a [`FaultPlan`] kills one rank at the collective's op
//!   index (the typed-error path through `try_run`).
//!
//! Plus point-to-point fault coverage (delay, drop→timeout) and the
//! ledger-bound regressions for the billing fixes.

use gb_cluster::{CommErrorKind, FaultPlan, OpKind, SimCluster};
use std::time::Duration;

/// Hard harness watchdog: a matrix cell that exceeds this has deadlocked,
/// which is exactly the bug this PR removes.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Runtime-level collective timeout used by the timeout-path tests; large
/// enough that the fault-free supersteps never trip it.
const OP_TIMEOUT: Duration = Duration::from_secs(5);

/// Runs `f` on its own thread and panics if it exceeds [`WATCHDOG`] —
/// turning a regression back into a deadlock into a loud test failure
/// instead of a wedged test binary.
fn under_watchdog<R: Send + 'static>(label: String, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(label.clone())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog subject");
    match rx.recv_timeout(WATCHDOG) {
        Ok(r) => {
            handle.join().expect("watchdog subject panicked after reporting");
            r
        }
        Err(_) => panic!("{label}: still running after {WATCHDOG:?} — runtime deadlocked"),
    }
}

/// Drives one instance of collective `op` through every rank's `Comm`.
/// Returns a `Result` so it can run under `try_run` with `?`.
fn drive_collective(
    c: &mut gb_cluster::Comm,
    op: OpKind,
) -> Result<(), gb_cluster::CommError> {
    let me = c.rank() as f64;
    match op {
        OpKind::Barrier => c.try_barrier()?,
        OpKind::AllreduceSum => c.try_allreduce_sum(&mut [me, 1.0])?,
        OpKind::AllreduceMax => c.try_allreduce_max(&mut [me])?,
        OpKind::Allgatherv => {
            c.try_allgatherv(&vec![me; c.rank() + 1])?;
        }
        OpKind::SparseExchange => {
            // every rank ships one word to every other rank
            let outgoing: Vec<Vec<f64>> =
                (0..c.size()).map(|d| if d == c.rank() { Vec::new() } else { vec![me] }).collect();
            c.try_sparse_exchange(&outgoing)?;
        }
        OpKind::Send | OpKind::Recv => {
            unreachable!("p2p ops are covered separately")
        }
    }
    Ok(())
}

/// Panic injection: the victim panics right before the collective while
/// every peer is already blocked inside it. `run` must re-raise the
/// original panic; nobody may hang.
#[test]
fn panic_in_every_collective_at_every_p() {
    for p in [2usize, 4, 8] {
        for op in OpKind::COLLECTIVES {
            let label = format!("panic/{op}/P={p}");
            under_watchdog(label.clone(), move || {
                let cluster = SimCluster::single_node();
                let victim = p - 1;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cluster.run(p, 1, |c| {
                        // a completed warm-up collective first, so the slot
                        // protocol is mid-stream when the failure hits
                        c.barrier();
                        if c.rank() == victim {
                            panic!("matrix panic injection");
                        }
                        drive_collective(c, op).map_err(|e| e.to_string())
                    })
                }));
                let payload = result.expect_err("panic must propagate");
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert!(
                    message.contains("matrix panic injection"),
                    "{label}: expected original panic, got: {message}"
                );
            });
        }
    }
}

/// FaultPlan kill injection: the victim is killed *at* the collective's op
/// index; `try_run` must return the victim's typed `Killed` error with
/// per-rank diagnostics — never hang, never panic.
#[test]
fn fault_kill_in_every_collective_at_every_p() {
    for p in [2usize, 4, 8] {
        for op in OpKind::COLLECTIVES {
            let label = format!("kill/{op}/P={p}");
            under_watchdog(label.clone(), move || {
                let victim = p / 2;
                // op #0 is the warm-up barrier, so the collective under
                // test is the victim's op #1.
                let cluster = SimCluster::single_node()
                    .with_fault_plan(FaultPlan::new().kill_rank(victim, 1));
                let err = cluster
                    .try_run(p, 1, |c| {
                        c.try_barrier()?;
                        drive_collective(c, op)?;
                        Ok(c.rank())
                    })
                    .expect_err("killed run must fail");
                assert_eq!(err.rank, victim, "{label}: root cause must be the victim: {err}");
                assert!(
                    matches!(err.kind, CommErrorKind::Killed { op_index: 1 }),
                    "{label}: expected Killed at op 1, got {err}"
                );
                assert_eq!(
                    err.rank_states.len(),
                    p,
                    "{label}: diagnostics must cover every rank: {err}"
                );
                assert_eq!(err.op, Some(op), "{label}: error must name the op: {err}");
            });
        }
    }
}

/// The same kills under a configured collective timeout: errors must still
/// surface well inside the watchdog (poison wakes peers immediately; the
/// timeout is only a backstop here).
#[test]
fn kills_with_watchdog_timeout_still_fail_fast() {
    for p in [2usize, 4, 8] {
        let label = format!("kill+timeout/P={p}");
        under_watchdog(label, move || {
            let cluster = SimCluster::single_node()
                .with_collective_timeout(OP_TIMEOUT)
                .with_fault_plan(FaultPlan::new().kill_rank(0, 0));
            let err = cluster
                .try_run(p, 1, |c| {
                    let mut v = vec![1.0];
                    c.try_allreduce_sum(&mut v)?;
                    Ok(v[0])
                })
                .expect_err("killed run must fail");
            assert!(matches!(err.kind, CommErrorKind::Killed { op_index: 0 }), "{err}");
        });
    }
}

/// A dropped p2p message must convert into a diagnostic timeout on the
/// receiver (not an eternal block) once a watchdog deadline is set.
#[test]
fn dropped_message_times_out_with_diagnostics() {
    under_watchdog("drop/p2p".into(), || {
        let cluster = SimCluster::single_node()
            .with_collective_timeout(Duration::from_millis(200))
            .with_fault_plan(FaultPlan::new().drop_p2p(0, 1, 0));
        let err = cluster
            .try_run(2, 1, |c| {
                if c.rank() == 0 {
                    c.try_send_f64(1, vec![42.0])?; // vanishes on the wire
                    Ok(0.0)
                } else {
                    Ok(c.try_recv_f64(0)?[0])
                }
            })
            .expect_err("dropped message must fail the run");
        assert!(err.is_timeout(), "expected a timeout diagnostic, got: {err}");
        assert_eq!(err.rank, 1, "the receiver raises it: {err}");
        assert_eq!(err.op, Some(OpKind::Recv), "{err}");
        assert_eq!(err.rank_states.len(), 2, "{err}");
    });
}

/// A delayed p2p message is still delivered — delay is jitter, not loss —
/// and the run succeeds with identical results.
#[test]
fn delayed_message_is_delivered() {
    under_watchdog("delay/p2p".into(), || {
        let run = |plan: FaultPlan| {
            let cluster = SimCluster::single_node().with_fault_plan(plan);
            let (results, _) = cluster.run(2, 1, |c| {
                if c.rank() == 0 {
                    c.send_f64(1, vec![42.0]);
                    0.0
                } else {
                    c.recv_f64(0)[0]
                }
            });
            results
        };
        let clean = run(FaultPlan::new());
        let delayed = run(FaultPlan::new().delay_p2p(0, 1, 0, Duration::from_millis(30)));
        assert_eq!(clean, delayed, "delay must not change results");
        assert_eq!(delayed[1], 42.0);
    });
}

/// A rank timing out in a collective (because a peer is wedged in pure
/// compute, not dead) must produce a Timeout error naming the deadline and
/// showing the wedged rank's last-op state.
#[test]
fn hung_peer_converts_into_timeout_error() {
    under_watchdog("timeout/hung-peer".into(), || {
        let cluster =
            SimCluster::single_node().with_collective_timeout(Duration::from_millis(150));
        let err = cluster
            .try_run(3, 1, |c| {
                if c.rank() == 2 {
                    // wedged: never reaches the collective, but also never
                    // panics — only the watchdog can catch this
                    std::thread::sleep(Duration::from_secs(2));
                    return Ok(0.0);
                }
                let mut v = vec![1.0];
                c.try_allreduce_sum(&mut v)?;
                Ok(v[0])
            })
            .expect_err("hung peer must trip the watchdog");
        assert!(err.is_timeout(), "{err}");
        assert_eq!(err.rank_states.len(), 3, "{err}");
        // the wedged rank visibly never started an op
        assert_eq!(err.rank_states[2].ops_started, 0, "{err}");
    });
}

/// Fault-free runs through `try_run` must be bit-identical to `run` —
/// the failure machinery may not perturb the deterministic path.
#[test]
fn try_run_matches_run_bit_for_bit() {
    under_watchdog("fault-free/bitwise".into(), || {
        let cluster = SimCluster::single_node();
        let program_sum = |c: &mut gb_cluster::Comm| {
            let mut acc = 0.0f64;
            for round in 0..50 {
                let mut v = vec![(c.rank() * round) as f64 * 0.1];
                c.allreduce_sum(&mut v);
                acc += v[0];
            }
            acc
        };
        let (plain, plain_report) = cluster.run(6, 1, program_sum);
        let (try_results, try_report) = cluster
            .try_run(6, 1, |c| {
                let mut acc = 0.0f64;
                for round in 0..50 {
                    let mut v = vec![(c.rank() * round) as f64 * 0.1];
                    c.try_allreduce_sum(&mut v)?;
                    acc += v[0];
                }
                Ok(acc)
            })
            .expect("fault-free try_run must succeed");
        assert_eq!(plain, try_results, "bitwise identical results");
        for (a, b) in plain_report.ledgers.iter().zip(&try_report.ledgers) {
            assert_eq!(a.comm_seconds.to_bits(), b.comm_seconds.to_bits());
            assert_eq!(a.bytes_moved, b.bytes_moved);
            assert_eq!(a.ops_started, b.ops_started);
        }
    });
}
