//! The serial octree pipeline — reference implementation and the `P = 1`
//! baseline of every speedup figure.
//!
//! Since the interaction-list refactor the pipeline is *traversal once,
//! execute lists after*: one row sweep per driving leaf emits flat far/near
//! lists ([`BornLists`](crate::BornLists),
//! [`EnergyLists`](crate::EnergyLists)) which are then streamed through the
//! batched leaf kernels. Decisions and work units are identical to the
//! per-leaf traversals of `integrals`/`energy` (those remain as the
//! cross-validation oracle); only the exact-kernel summation order changes,
//! within the 1e-12 band the tests check.

use crate::arena::{Workspace, WsOutput};
use crate::gbmath::{finalize_energy, R4, R6};
use crate::params::RadiiKind;
use crate::runners::{execute_born, execute_energy, push_segment, with_kernels};
use crate::system::{GbResult, GbSystem};

/// Output of a runner, with its work accounting.
#[derive(Clone, Debug)]
pub struct SerialOutput {
    pub result: GbResult,
    /// Work units of the Born phase (integrals + push).
    pub born_work: f64,
    /// Work units of the energy phase.
    pub energy_work: f64,
}

/// Runs the full serial octree pipeline.
pub fn run_serial(sys: &GbSystem) -> SerialOutput {
    let mut ws = Workspace::new();
    let out = run_serial_ws(sys, &mut ws);
    SerialOutput {
        result: GbResult {
            energy_kcal: out.energy_kcal,
            born_radii: std::mem::take(&mut ws.radii_out),
        },
        born_work: out.born_work,
        energy_work: out.energy_work,
    }
}

/// [`run_serial`] over a caller-owned [`Workspace`]: bitwise the same
/// result, but every buffer is reused across calls — a steady-state
/// superstep allocates nothing once the arenas have warmed (see the
/// `arena` module docs for the contract).
/// The Born radii land in `ws.radii_out` (original atom order).
pub fn run_serial_ws(sys: &GbSystem, ws: &mut Workspace) -> WsOutput {
    run_pipeline_ws(sys, 1, ws)
}

/// The in-process pipeline on `threads` threads: the three [phase
/// steps](crate::runners) over the full ranges. One thread is the serial
/// runner; more is the shared runner, `to_bits` one hybrid rank of that
/// many threads.
pub(crate) fn run_pipeline_ws(sys: &GbSystem, threads: usize, ws: &mut Workspace) -> WsOutput {
    // Born phase: one row sweep per driving leaf (rebuilt in place), then
    // stream the lists.
    ws.ready_born_lists(sys);
    ws.acc.reset_for(sys);
    let mut born_work = ws.born.build_work;
    with_kernels!(sys.params, K => {
        born_work += execute_born::<K>(sys, threads, ws, 0..ws.born.num_qleaves());
        born_work += push_segment::<K>(sys, threads, ws, 0..sys.num_atoms());
    });

    // Energy phase: every (T_A, T_A) row in fixed segments.
    ws.ready_energy_lists(sys);
    ws.bins.recompute(sys, &ws.radii_tree);
    let radii_tree = std::mem::take(&mut ws.radii_tree);
    let leaves = 0..ws.energy.num_vleaves();
    let (raw, exec_work) = execute_energy(sys, threads, ws, &radii_tree, leaves);
    ws.radii_tree = radii_tree;
    let energy_work = ws.energy.build_work + exec_work;
    let energy_kcal = finalize_energy(raw, sys.params.tau());

    sys.radii_to_original_into(&ws.radii_tree, &mut ws.radii_out);
    WsOutput { energy_kcal, born_work, energy_work }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_full;
    use crate::params::GbParams;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn sys(n: usize, eps: f64) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 33));
        GbSystem::prepare(mol, GbParams::default().with_epsilons(eps, eps))
    }

    #[test]
    fn serial_close_to_naive_at_default_epsilon() {
        let s = sys(500, 0.9);
        let octree = run_serial(&s);
        let naive = naive_full(&s);
        let err = ((octree.result.energy_kcal - naive.energy_kcal) / naive.energy_kcal).abs();
        // the paper's headline: < 1% error at ε = 0.9 on real structures;
        // our synthetic charge model has heavier cross-term cancellation,
        // widening the band to a few percent (see EXPERIMENTS.md Fig. 10)
        assert!(err < 0.05, "relative error {err}");
    }

    #[test]
    fn serial_less_work_than_naive_and_scales_subquadratically() {
        // At ε = 0.9 the Born MAC needs ~18.7·(r_A+r_Q) separation, so the
        // octree's advantage is modest on small globules and grows with M —
        // exactly the paper's observation that the octree methods pull away
        // from the O(M²) codes as molecules grow (Fig. 8).
        let work_of = |n: usize| {
            let s = sys(n, 0.9);
            let out = run_serial(&s);
            (out.born_work + out.energy_work, crate::naive::naive_work_units(&s))
        };
        let (oct_1k, naive_1k) = work_of(1_000);
        let (oct_4k, naive_4k) = work_of(4_000);
        assert!(oct_4k < naive_4k, "octree {oct_4k} vs naive {naive_4k}");
        // octree grows markedly slower than the naive quadratic
        let oct_growth = oct_4k / oct_1k;
        let naive_growth = naive_4k / naive_1k;
        assert!(
            oct_growth < 0.9 * naive_growth,
            "octree growth {oct_growth} vs naive growth {naive_growth}"
        );
    }

    #[test]
    fn radii_and_energy_are_finite() {
        let s = sys(300, 0.9);
        let out = run_serial(&s);
        assert!(out.result.energy_kcal.is_finite());
        assert!(out.result.born_radii.iter().all(|r| r.is_finite() && *r > 0.0));
    }
}
