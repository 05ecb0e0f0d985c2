//! The recovery matrix: with the self-healing supervisor enabled, a
//! fault-injected run must *complete* — not merely fail cleanly — and its
//! results must be `to_bits()`-identical to the fault-free run.
//!
//! Three injection modes per collective kind × rank count:
//!
//! * **kill** — a [`FaultPlan`] kills one rank at the collective's op
//!   index; the supervisor heals the team and replays the attempt;
//! * **timeout** — one rank stalls past the per-op watchdog on attempt 0
//!   only (a transient, the cloud-node hiccup case); peers time out, the
//!   team heals, and the retry goes through;
//! * **property** — randomized payloads, victims and kill sites must never
//!   perturb the recovered bits (proptest).

use gb_cluster::{Comm, CommError, FaultPlan, OpKind, SimCluster};
use proptest::prelude::*;
use std::time::Duration;

/// Hard harness watchdog: a matrix cell that exceeds this has deadlocked.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Per-op watchdog for the timeout cells; the victim's transient stall is
/// comfortably longer, fault-free supersteps are comfortably shorter.
const OP_TIMEOUT: Duration = Duration::from_millis(100);
const STALL: Duration = Duration::from_millis(250);

/// Runs `f` on its own thread and panics if it exceeds [`WATCHDOG`].
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
            handle
                .join()
                .expect("watchdog subject panicked after reporting");
            r
        }
        Err(_) => panic!("{label}: still running after {WATCHDOG:?} — runtime deadlocked"),
    }
}

/// Drives one instance of collective `op` and returns its observable
/// result as a flat vector, so recovered runs can be compared bit-for-bit
/// against fault-free ones. Payloads are scaled by `scale` (the property
/// cells randomize it; the deterministic cells pass 1.0).
fn collective_value(c: &mut Comm, op: OpKind, scale: f64) -> Result<Vec<f64>, CommError> {
    let me = c.rank() as f64 * scale + 0.125;
    Ok(match op {
        OpKind::Barrier => {
            c.try_barrier()?;
            Vec::new()
        }
        OpKind::AllreduceSum => {
            let mut v = vec![me, scale];
            c.try_allreduce_sum(&mut v)?;
            v
        }
        OpKind::AllreduceMax => {
            let mut v = vec![me];
            c.try_allreduce_max(&mut v)?;
            v
        }
        OpKind::Allgatherv => c.try_allgatherv(&vec![me; c.rank() + 1])?,
        OpKind::SparseExchange => {
            let outgoing: Vec<Vec<f64>> = (0..c.size())
                .map(|d| if d == c.rank() { Vec::new() } else { vec![me] })
                .collect();
            c.try_sparse_exchange(&outgoing)?
                .into_iter()
                .flatten()
                .collect()
        }
        OpKind::Send | OpKind::Recv => {
            unreachable!("p2p ops are covered by the failure matrix")
        }
    })
}

/// Asserts two per-rank result sets are bit-identical.
fn assert_bits_equal(label: &str, clean: &[Vec<f64>], healed: &[Vec<f64>]) {
    assert_eq!(clean.len(), healed.len(), "{label}: rank count");
    for (r, (a, b)) in clean.iter().zip(healed).enumerate() {
        assert_eq!(a.len(), b.len(), "{label}: rank {r} length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: rank {r} word {i}: {x} vs {y}"
            );
        }
    }
}

/// Kill-at-the-collective × every kind × P: with recovery enabled the run
/// must complete, report at least one heal, and return the fault-free bits.
#[test]
fn kill_retry_completes_every_collective_at_every_p() {
    for p in [2usize, 4, 8] {
        for op in OpKind::COLLECTIVES {
            let label = format!("kill-retry/{op}/P={p}");
            under_watchdog(label.clone(), move || {
                let program = move |c: &mut Comm| {
                    c.try_barrier()?;
                    collective_value(c, op, 1.0)
                };
                let (clean, clean_report) = SimCluster::single_node()
                    .try_run(p, 1, program)
                    .expect("fault-free run");
                assert_eq!(clean_report.recoveries, 0, "{label}: fault-free heals");
                // op #0 is the warm-up barrier, so the collective under
                // test is the victim's op #1.
                let victim = p / 2;
                let cluster = SimCluster::single_node()
                    .with_recovery(2)
                    .with_fault_plan(FaultPlan::new().kill_rank(victim, 1));
                let (healed, report) = cluster
                    .try_run(p, 1, program)
                    .unwrap_or_else(|e| panic!("{label}: recovery must complete: {e}"));
                assert!(report.recoveries >= 1, "{label}: no heal happened");
                assert_bits_equal(&label, &clean, &healed);
            });
        }
    }
}

/// A transient stall past the per-op watchdog (attempt 0 only) × every
/// kind × P: peers time out, the team heals, and the retry completes with
/// the fault-free bits.
#[test]
fn timeout_retry_completes_every_collective_at_every_p() {
    for p in [2usize, 4, 8] {
        for op in OpKind::COLLECTIVES {
            let label = format!("timeout-retry/{op}/P={p}");
            under_watchdog(label.clone(), move || {
                let victim = p - 1;
                let program = move |c: &mut Comm| {
                    c.try_barrier()?;
                    if c.rank() == victim && c.attempt() == 0 {
                        std::thread::sleep(STALL);
                    }
                    collective_value(c, op, 1.0)
                };
                // baseline without a per-op watchdog: the stall is slow,
                // not fatal, so the fault-free bits come from the same
                // program text
                let (clean, _) = SimCluster::single_node()
                    .try_run(p, 1, program)
                    .expect("stalled-but-untimed run");
                let cluster = SimCluster::single_node()
                    .with_collective_timeout(OP_TIMEOUT)
                    .with_recovery(2);
                let (healed, report) = cluster
                    .try_run(p, 1, program)
                    .unwrap_or_else(|e| panic!("{label}: retry must complete: {e}"));
                assert!(report.recoveries >= 1, "{label}: no heal happened");
                assert_bits_equal(&label, &clean, &healed);
            });
        }
    }
}

/// Recovery exhausted: a fault that persists across every attempt (a rank
/// stalling past the watchdog on attempt 0, 1, *and* 2) must still degrade
/// into the typed error once the heal budget runs out — never hang.
#[test]
fn persistent_fault_exhausts_budget_and_degrades_to_typed_error() {
    under_watchdog("retry/exhausted".into(), || {
        let cluster = SimCluster::single_node()
            .with_collective_timeout(OP_TIMEOUT)
            .with_recovery(2);
        let err = cluster
            .try_run(4, 1, |c| {
                c.try_barrier()?;
                if c.rank() == 3 {
                    std::thread::sleep(STALL); // every attempt, not a transient
                }
                let mut v = vec![c.rank() as f64];
                c.try_allreduce_sum(&mut v)?;
                Ok(v[0])
            })
            .expect_err("budget exhaustion must surface the error");
        assert!(err.is_timeout(), "{err}");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized payload scale, victim and collective: the healed bits
    /// must always equal the fault-free bits.
    #[test]
    fn retry_preserves_bits_for_random_programs(
        scale in -1.0e3f64..1.0e3,
        kind_idx in 0usize..OpKind::COLLECTIVES.len(),
        p_idx in 0usize..3,
        victim_seed in 0usize..64,
    ) {
        let p = [2usize, 4, 8][p_idx];
        let op = OpKind::COLLECTIVES[kind_idx];
        let victim = victim_seed % p;
        let label = format!("prop-retry/{op}/P={p}/victim={victim}");
        under_watchdog(label.clone(), move || {
            let program = move |c: &mut Comm| {
                c.try_barrier()?;
                collective_value(c, op, scale)
            };
            let (clean, _) = SimCluster::single_node()
                .try_run(p, 1, program)
                .expect("fault-free run");
            let cluster = SimCluster::single_node()
                .with_recovery(2)
                .with_fault_plan(FaultPlan::new().kill_rank(victim, 1));
            let (healed, report) = cluster
                .try_run(p, 1, program)
                .unwrap_or_else(|e| panic!("{label}: recovery must complete: {e}"));
            assert!(report.recoveries >= 1, "{label}");
            assert_bits_equal(&label, &clean, &healed);
        });
    }
}
