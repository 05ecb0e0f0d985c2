//! The four executable variants of the octree GB pipeline (paper Table II),
//! and the three phase steps every one of them runs.
//!
//! [`execute_born`], [`push_segment`] and [`execute_energy`] take a
//! segment and a thread count `T`. At `T == 1` they run inline on the
//! calling thread. At `T > 1` the Born and push steps cut the segment into
//! `T` sub-segments (balanced by measured list work; atoms evenly for the
//! push), run them through [`fork_join`] with sub-segment `t` filling
//! `ws.slots[t]`, and merge the slots in `t` order: the partition is
//! fixed, so their result depends on `T` but never on the schedule. The
//! energy step cuts its rows into fixed segments of
//! [`SEGMENT_ROWS`](crate::workdiv::SEGMENT_ROWS), independent of `T`
//! and `P`, that the threads take dynamically; the partials add in
//! segment order, so its result depends on neither. The serial and shared
//! runners call the steps over the full ranges (serial at `T == 1`), and
//! a cluster rank calls them over its segment at its `threads_per_rank`.

pub mod data_distributed;
pub mod distributed;
pub mod frame;
pub mod hybrid;
pub mod serial;
pub mod shared;
pub(crate) mod sparse;

pub use data_distributed::{
    run_data_distributed, try_run_data_distributed, try_run_data_distributed_mode,
};
pub use distributed::{
    run_distributed, try_run_distributed, try_run_distributed_mode, try_run_distributed_ws_mode,
};
pub use frame::{
    run_frame_serial, run_frame_shared, try_run_frame_distributed, try_run_frame_hybrid,
    ClusterFrameOutcome, FrameOutcome,
};
pub use hybrid::{run_hybrid, try_run_hybrid_mode, try_run_hybrid_ws_mode};
pub use serial::run_serial;
pub use shared::run_shared;

use crate::arena::Workspace;
use crate::bins::ChargeBins;
use crate::fastmath::MathMode;
use crate::gbmath::RadiiApprox;
use crate::integrals::push_integrals_scratch;
use crate::system::GbSystem;
use crate::workdiv::{even_ranges_into, fork_join, work_balanced_segments_into};
use std::ops::Range;

/// Dispatches a generic kernel on the configured math kind.
///
/// Used by all runners so the hot loops monomorphize on the math mode
/// instead of branching per term.
macro_rules! with_math {
    ($kind:expr, $m:ident => $body:expr) => {
        match $kind {
            MathKind::Exact => {
                type $m = ExactMath;
                $body
            }
            MathKind::Approximate => {
                type $m = ApproxMath;
                $body
            }
        }
    };
}
pub(crate) use with_math;

/// Dispatches on (math kind × Born-radius approximation): the four
/// monomorphizations of the hot kernels.
macro_rules! with_kernels {
    ($params:expr, $m:ident, $k:ident => $body:expr) => {
        crate::runners::with_math!($params.math, $m => match $params.radii_kind {
            RadiiKind::R6 => {
                type $k = R6;
                $body
            }
            RadiiKind::R4 => {
                type $k = R4;
                $body
            }
        })
    };
}
pub(crate) use with_kernels;

/// Computes the energy-phase bins from tree-order radii (shared by every
/// runner; each distributed rank recomputes them locally — cheap, O(M·bins)
/// — rather than communicating them).
pub(crate) fn bins_for(sys: &GbSystem, radii_tree: &[f64]) -> ChargeBins {
    ChargeBins::compute(sys, radii_tree)
}

/// Work units charged for one rank's local bin computation.
pub(crate) fn bin_build_work(sys: &GbSystem) -> f64 {
    sys.num_atoms() as f64 * 0.5
}

/// Sub-segment `sub` (relative) of the segment starting at `start`.
fn shifted(sub: &Range<usize>, start: usize) -> Range<usize> {
    start + sub.start..start + sub.end
}

/// Born integrals of the ordinals `seg` on `threads` threads, added into
/// the (reset) `ws.acc`; returns the execution work.
pub(crate) fn execute_born<M: MathMode, K: RadiiApprox>(
    sys: &GbSystem,
    threads: usize,
    ws: &mut Workspace,
    seg: Range<usize>,
) -> f64 {
    if threads == 1 {
        return ws.born.execute_range::<M, K>(sys, seg, &mut ws.acc);
    }
    work_balanced_segments_into(&ws.born.leaf_work()[seg.clone()], threads, &mut ws.leaf_ranges);
    ws.ensure_slots(threads);
    let (born, subs) = (&ws.born, &ws.leaf_ranges);
    fork_join(&mut ws.slots[..threads], |t, slot| {
        slot.acc.reset_for(sys);
        let ords = shifted(&subs[t], seg.start);
        slot.acc_work = born.execute_range::<M, K>(sys, ords, &mut slot.acc);
    });
    let mut work = 0.0;
    for slot in &ws.slots[..threads] {
        ws.acc.add(&slot.acc);
        work += slot.acc_work;
    }
    work
}

/// Born radii of the tree positions `atoms` on `threads` threads, into
/// `ws.radii_tree` (sized to the segment); returns the push work.
pub(crate) fn push_segment<M: MathMode, K: RadiiApprox>(
    sys: &GbSystem,
    threads: usize,
    ws: &mut Workspace,
    atoms: Range<usize>,
) -> f64 {
    ws.radii_tree.clear();
    ws.radii_tree.resize(atoms.len(), 0.0);
    if threads == 1 {
        let (radii, stack) = (&mut ws.radii_tree, &mut ws.push_stack);
        return push_integrals_scratch::<M, K>(sys, &ws.acc, atoms, radii, stack);
    }
    even_ranges_into(atoms.len(), threads, &mut ws.leaf_ranges);
    ws.ensure_slots(threads);
    let (acc, subs) = (&ws.acc, &ws.leaf_ranges);
    fork_join(&mut ws.slots[..threads], |t, slot| {
        slot.radii.clear();
        slot.radii.resize(subs[t].len(), 0.0);
        let range = shifted(&subs[t], atoms.start);
        let (radii, stack) = (&mut slot.radii, &mut slot.push_stack);
        slot.push_work = push_integrals_scratch::<M, K>(sys, acc, range, radii, stack);
    });
    let mut work = 0.0;
    for (slot, sub) in ws.slots.iter().zip(&ws.leaf_ranges) {
        ws.radii_tree[sub.clone()].copy_from_slice(&slot.radii);
        work += slot.push_work;
    }
    work
}

/// Raw energy of the ordinals `seg` on `threads` threads — the one energy
/// row sum, [`EnergyLists::execute_rows`]: fixed row segments taken
/// dynamically and added in segment order, so the result is `to_bits` the
/// same at every `threads`. Returns `(raw energy, execution work)`.
///
/// [`EnergyLists::execute_rows`]: crate::interaction::EnergyLists::execute_rows
pub(crate) fn execute_energy<M: MathMode>(
    sys: &GbSystem,
    threads: usize,
    ws: &mut Workspace,
    radii_tree: &[f64],
    seg: Range<usize>,
) -> (f64, f64) {
    if threads == 1 {
        return ws.energy.execute_leaves::<M>(sys, &ws.bins, radii_tree, seg, &mut ws.energy_exec);
    }
    ws.ensure_slots(threads);
    let slots = &mut ws.slots[..threads];
    ws.energy.execute_rows::<M, _>(sys, &ws.bins, radii_tree, seg, slots, &mut ws.energy_partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastmath::ExactMath;
    use crate::params::GbParams;
    use crate::runners::serial::run_serial_ws;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    #[test]
    fn energy_step_is_bitwise_independent_of_the_thread_count() {
        // radii and bins held fixed: only the energy step's thread count
        // (and its dynamic schedule) varies, over the full rows and over a
        // rank-like sub-range that starts and ends mid-segment
        let mol = synthesize_protein(&SyntheticParams::with_atoms(3000, 21));
        let sys = GbSystem::prepare(mol, GbParams::default());
        let mut ws = Workspace::new();
        run_serial_ws(&sys, &mut ws);
        let radii = ws.radii_tree.clone();
        let n = ws.energy.num_vleaves();
        assert!(n > 8 * crate::workdiv::SEGMENT_ROWS, "{n} rows: too few segments");
        for rows in [0..n, 37..n - 5] {
            let (raw1, work1) = execute_energy::<ExactMath>(&sys, 1, &mut ws, &radii, rows.clone());
            for t in 2..=4 {
                for run in 0..3 {
                    let (raw, work) =
                        execute_energy::<ExactMath>(&sys, t, &mut ws, &radii, rows.clone());
                    let what = format!("rows {rows:?}, T={t}, run {run}");
                    assert_eq!(raw.to_bits(), raw1.to_bits(), "{what}: raw");
                    assert_eq!(work.to_bits(), work1.to_bits(), "{what}: work");
                }
            }
        }
    }
}
