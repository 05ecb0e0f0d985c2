//! Failure injection and stress tests for the simulated cluster runtime:
//! what the harness guarantees when rank programs misbehave.

use gb_cluster::SimCluster;

/// A panicking rank must fail the whole run loudly (like an MPI abort),
/// not deadlock the other ranks — even while every peer is blocked inside
/// a collective waiting on the dead rank: the unwinding rank poisons the
/// barrier, the peers abort, and the original panic propagates.
#[test]
fn rank_panic_aborts_the_run() {
    let cluster = SimCluster::single_node();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.run(4, 1, |c| {
            if c.rank() == 2 {
                panic!("injected rank failure");
            }
            let mut v = vec![c.rank() as f64];
            c.allreduce_sum(&mut v); // blocks on rank 2, which never arrives
            c.barrier();
            v[0]
        })
    }));
    let payload = result.expect_err("panic must propagate to the caller");
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        message.contains("injected rank failure"),
        "caller must see the ORIGINAL panic, not a secondary abort: {message}"
    );
}

/// Mismatched allreduce lengths are a programming error and must be caught,
/// not silently mis-summed.
#[test]
fn allreduce_length_mismatch_is_detected() {
    let cluster = SimCluster::single_node();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.run(3, 1, |c| {
            let mut v = vec![0.0; c.rank() + 1]; // deliberately ragged
            c.allreduce_sum(&mut v);
        })
    }));
    assert!(result.is_err());
}

/// Heavy collective churn: many rounds, several ranks — exercises slot
/// reuse, the triple-barrier protocol and determinism under scheduling
/// noise.
#[test]
fn collective_stress_is_deterministic() {
    let cluster = SimCluster::single_node();
    let run_once = || {
        let (results, _) = cluster.run(6, 1, |c| {
            let mut acc = 0.0f64;
            for round in 0..200 {
                let mut v = vec![(c.rank() * round) as f64];
                c.allreduce_sum(&mut v);
                acc += v[0];
            }
            acc
        });
        results
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b);
    // closed form: Σ_round round * Σ_rank rank = (Σ 0..200)·15
    let want = (0..200).sum::<usize>() as f64 * 15.0;
    assert!(a.iter().all(|&x| (x - want).abs() < 1e-9));
}

/// Large payloads through the collectives (MB-scale vectors, like the
/// integral vector of a big molecule).
#[test]
fn megabyte_allreduce_roundtrip() {
    let cluster = SimCluster::single_node();
    let n = 300_000; // 2.4 MB per rank
    let (results, report) = cluster.run(2, 1, |c| {
        let mut v: Vec<f64> = (0..n).map(|i| (i % 17) as f64 * (c.rank() + 1) as f64).collect();
        c.allreduce_sum(&mut v);
        // spot-check a few entries: sum over ranks multiplies by 3
        (v[1], v[16], v[n - 1])
    });
    for (a, b, c_) in &results {
        assert_eq!(*a, 3.0);
        assert_eq!(*b, 48.0);
        assert_eq!(*c_, ((n - 1) % 17) as f64 * 3.0);
    }
    assert!(report.ledgers[0].bytes_moved >= (n * 8) as u64);
}
