//! The shared-memory runner — the `OCT_CILK` analog: the serial pipeline's
//! [phase steps](crate::runners) on every core.
//!
//! The Born and push phases cut their full range into one fixed
//! sub-segment per thread — Born ordinals balanced by measured list work,
//! the push's atoms evenly — run them on scoped threads, each into its own
//! [`ChunkSlot`](crate::arena::ChunkSlot), and merge the slots in
//! sub-segment order. The energy phase is the calcpol `parallel for …
//! reduction(+: energy)` shape with a dynamic schedule: threads take fixed
//! row segments from a counter and the partials add in segment order, so
//! given the same radii it returns the same bits at any `T`. The result
//! therefore never depends on the schedule, and on `T` threads it is
//! `to_bits` one hybrid rank of `T` threads; it differs from the serial
//! runner only by the Born step's regrouped sums, within round-off.

use crate::arena::{Workspace, WsOutput};
use crate::runners::serial::{run_pipeline_ws, SerialOutput};
use crate::system::{GbResult, GbSystem};

/// Runs the shared-memory octree pipeline on every available core. The
/// lists are swept on the calling thread; the threads run their
/// execution.
///
/// Matches [`run_serial`](crate::runners::serial::run_serial) to
/// round-off — partial sums merge in a fixed order.
pub fn run_shared(sys: &GbSystem) -> SerialOutput {
    let mut ws = Workspace::new();
    let out = run_shared_ws(sys, &mut ws);
    SerialOutput {
        result: GbResult {
            energy_kcal: out.energy_kcal,
            born_radii: std::mem::take(&mut ws.radii_out),
        },
        born_work: out.born_work,
        energy_work: out.energy_work,
    }
}

/// [`run_shared`] over a caller-owned [`Workspace`]: the per-thread
/// partials live in the workspace's chunk slots, so steady-state
/// supersteps reuse every accumulator and scratch vector.
pub fn run_shared_ws(sys: &GbSystem, ws: &mut Workspace) -> WsOutput {
    run_pipeline_ws(sys, available_threads(), ws)
}

/// The thread count of the shared runner: every core the process may use.
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commplan::CommMode;
    use crate::params::GbParams;
    use crate::runners::hybrid::try_run_hybrid_mode;
    use crate::runners::serial::run_serial;
    use gb_cluster::SimCluster;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn sys(n: usize) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 44));
        GbSystem::prepare(mol, GbParams::default())
    }

    #[test]
    fn shared_equals_serial_to_roundoff() {
        // same traversals, same leaf order; only the chunk-merge grouping
        // of floating-point sums differs from the serial accumulation
        let s = sys(600);
        let serial = run_serial(&s);
        let shared = run_shared(&s);
        assert!(
            (serial.result.energy_kcal - shared.result.energy_kcal).abs()
                < 1e-12 * serial.result.energy_kcal.abs()
        );
        for (a, b) in serial.result.born_radii.iter().zip(&shared.result.born_radii) {
            assert!((a - b).abs() < 1e-12 * a.abs().max(1.0));
        }
    }

    fn assert_same_bits(a: &WsOutput, radii: &[f64], b: &GbResult, what: &str) {
        assert_eq!(a.energy_kcal.to_bits(), b.energy_kcal.to_bits(), "{what}: energy");
        assert_eq!(radii.len(), b.born_radii.len(), "{what}: radii length");
        for (i, (x, y)) in radii.iter().zip(&b.born_radii).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: radius {i}");
        }
    }

    #[test]
    fn shared_on_t_threads_is_one_hybrid_rank_bitwise() {
        // one executor: T threads in-process cut and merge exactly like one
        // cluster rank of T threads, and one thread is the serial runner
        let s = sys(500);
        let cluster = SimCluster::single_node();
        for t in [1usize, 2, 3] {
            let mut ws = Workspace::new();
            let out = run_pipeline_ws(&s, t, &mut ws);
            let (hyb, _) = try_run_hybrid_mode(&s, &cluster, 1, t, CommMode::default())
                .expect("fault-free");
            assert_same_bits(&out, &ws.radii_out, &hyb, &format!("T={t}"));
            if t == 1 {
                let serial = run_serial(&s);
                assert_same_bits(&out, &ws.radii_out, &serial.result, "T=1 vs serial");
            }
        }
    }

    #[test]
    fn shared_on_three_threads_is_bitwise_stable_from_run_to_run() {
        let s = sys(500);
        let mut ws = Workspace::new();
        let first = run_pipeline_ws(&s, 3, &mut ws);
        let first = GbResult { energy_kcal: first.energy_kcal, born_radii: ws.radii_out.clone() };
        for run in 1..5 {
            let mut ws = Workspace::new();
            let again = run_pipeline_ws(&s, 3, &mut ws);
            assert_same_bits(&again, &ws.radii_out, &first, &format!("run {run}"));
        }
    }

    #[test]
    fn shared_work_accounting_matches_serial() {
        let s = sys(400);
        let serial = run_serial(&s);
        let shared = run_shared(&s);
        // identical interaction work; the chunked push re-walks a few nodes
        // near range boundaries, so allow a small traversal-unit slack
        let rel = (serial.born_work - shared.born_work).abs() / serial.born_work;
        assert!(rel < 0.05, "born work diverged by {rel}");
        assert!((serial.energy_work - shared.energy_work).abs() < 1e-6);
    }

    #[test]
    fn shared_ws_reuse_is_deterministic_and_matches_plain() {
        let s = sys(350);
        let plain = run_shared(&s);
        // a reused workspace must not change a single bit
        let mut ws = Workspace::new();
        let a = run_shared_ws(&s, &mut ws);
        let b = run_shared_ws(&s, &mut ws);
        assert_eq!(a.energy_kcal.to_bits(), b.energy_kcal.to_bits());
        assert_eq!(plain.result.energy_kcal.to_bits(), a.energy_kcal.to_bits());
        for (x, y) in plain.result.born_radii.iter().zip(&ws.radii_out) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn tiny_molecule_does_not_panic() {
        let s = sys(5);
        let out = run_shared(&s);
        assert!(out.result.energy_kcal.is_finite());
        assert_eq!(out.result.born_radii.len(), 5);
    }
}
