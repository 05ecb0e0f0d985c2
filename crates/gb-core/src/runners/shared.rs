//! The shared-memory runner — the `OCT_CILK` analog, with rayon standing in
//! for the cilk++ work-stealing scheduler.
//!
//! Parallel structure:
//! * **Born phase**: the interaction lists are built once (serial sweep),
//!   then the driving-leaf ordinals are cut into `K` contiguous chunks
//!   (`K ≈ 4 ×` worker count) balanced by the *measured* per-leaf list
//!   work; chunks execute in parallel, each into its own accumulator, and
//!   partials are merged *in chunk order* so the result is bitwise
//!   deterministic regardless of scheduling.
//! * **Energy phase**: embarrassingly parallel over `T_A` leaf ordinals;
//!   per-leaf raw sums are collected into a vector and reduced in leaf
//!   order (deterministic again).

use crate::arena::{Workspace, WsOutput};
use crate::fastmath::{ApproxMath, ExactMath};
use crate::gbmath::{finalize_energy, R4, R6};
use crate::integrals::push_integrals_scratch;
use crate::params::{MathKind, RadiiKind};
use crate::runners::serial::SerialOutput;
use crate::runners::with_kernels;
use crate::system::{GbResult, GbSystem};
use crate::workdiv::{even_ranges_into, work_balanced_segments_into};
use rayon::prelude::*;

/// Runs the shared-memory (rayon) octree pipeline.
///
/// Produces exactly the same energy and radii as
/// [`run_serial`](crate::runners::serial::run_serial) — partial sums merge
/// in a fixed order.
pub fn run_shared(sys: &GbSystem) -> SerialOutput {
    let threads = rayon::current_num_threads().max(1);
    let mut ws = Workspace::with_build_tasks(threads);
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

/// [`run_shared`] over a caller-owned [`Workspace`]: per-chunk partials
/// live in the workspace's locked [`ChunkSlot`](crate::arena::ChunkSlot)s
/// and merge in chunk order (deterministic regardless of scheduling), so
/// steady-state supersteps reuse every accumulator and scratch vector.
pub fn run_shared_ws(sys: &GbSystem, ws: &mut Workspace) -> WsOutput {
    with_kernels!(sys.params, M, K => {
        let threads = rayon::current_num_threads().max(1);
        let chunks = (threads * 4).clamp(1, sys.tq.num_leaves().max(1));
        ws.ensure_slots(chunks);

        // Born phase: build lists once (in place), execute chunks balanced
        // by the exact per-leaf work recorded in the lists.
        ws.ready_born_lists(sys);
        work_balanced_segments_into(ws.born.leaf_work(), chunks, &mut ws.seg_ranges);
        {
            let born = &ws.born;
            let slots = &ws.slots;
            let ranges = &ws.seg_ranges;
            (0..chunks).into_par_iter().for_each(|c| {
                let mut slot = slots[c].lock();
                let slot = &mut *slot;
                slot.acc.reset_for(sys);
                slot.acc_work = born.execute_range::<M, K>(sys, ranges[c].clone(), &mut slot.acc);
            });
        }
        ws.acc.reset_for(sys);
        let mut born_work = ws.born.build_work;
        for c in 0..chunks {
            let slot = ws.slots[c].lock();
            ws.acc.add(&slot.acc);
            born_work += slot.acc_work;
        }

        // Push phase: parallel over atom ranges, each chunk writing into a
        // slot buffer sized for its own range (merged in chunk order).
        even_ranges_into(sys.num_atoms(), chunks, &mut ws.atom_ranges);
        {
            let acc = &ws.acc;
            let slots = &ws.slots;
            let ranges = &ws.atom_ranges;
            (0..chunks).into_par_iter().for_each(|c| {
                let mut slot = slots[c].lock();
                let slot = &mut *slot;
                let range = ranges[c].clone();
                slot.radii.clear();
                slot.radii.resize(range.len(), 0.0);
                slot.push_work = push_integrals_scratch::<M, K>(
                    sys,
                    acc,
                    range,
                    &mut slot.radii,
                    &mut slot.push_stack,
                );
            });
        }
        ws.radii_tree.clear();
        ws.radii_tree.resize(sys.num_atoms(), 0.0);
        for c in 0..chunks {
            let slot = ws.slots[c].lock();
            born_work += slot.push_work;
            ws.radii_tree[ws.atom_ranges[c].clone()].copy_from_slice(&slot.radii);
        }

        // Energy phase: parallel over even chunks of T_A leaf ordinals;
        // each chunk sums its leaves in leaf order, chunks merge in chunk
        // order (deterministic again).
        ws.ready_energy_lists(sys);
        ws.bins.recompute(sys, &ws.radii_tree);
        even_ranges_into(ws.energy.num_vleaves(), chunks, &mut ws.leaf_ranges);
        {
            let energy = &ws.energy;
            let bins = &ws.bins;
            let radii_tree = &ws.radii_tree;
            let slots = &ws.slots;
            let ranges = &ws.leaf_ranges;
            (0..chunks).into_par_iter().for_each(|c| {
                let mut slot = slots[c].lock();
                let slot = &mut *slot;
                let (raw, w) = energy.execute_leaves::<M>(
                    sys,
                    bins,
                    radii_tree,
                    ranges[c].clone(),
                    &mut slot.energy_exec,
                );
                slot.raw = raw;
                slot.energy_work = w;
            });
        }
        let mut raw = 0.0;
        let mut energy_work = ws.energy.build_work;
        for c in 0..chunks {
            let slot = ws.slots[c].lock();
            raw += slot.raw;
            energy_work += slot.energy_work;
        }
        let energy_kcal = finalize_energy(raw, sys.params.tau());

        sys.radii_to_original_into(&ws.radii_tree, &mut ws.radii_out);
        WsOutput { energy_kcal, born_work, energy_work }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GbParams;
    use crate::runners::serial::run_serial;
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
    fn shared_with_approx_math_equals_serial_approx() {
        let mut s = sys(300);
        s.params.math = MathKind::Approximate;
        let serial = run_serial(&s);
        let shared = run_shared(&s);
        assert!(
            (serial.result.energy_kcal - shared.result.energy_kcal).abs()
                < 1e-12 * serial.result.energy_kcal.abs()
        );
    }

    #[test]
    fn shared_ws_reuse_is_deterministic_and_matches_plain() {
        let s = sys(350);
        let plain = run_shared(&s);
        // a different build-task count must not change a single bit
        let mut ws = Workspace::with_build_tasks(2);
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
