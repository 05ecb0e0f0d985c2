//! Layer-by-layer copies of two library entry points, with a span around
//! each public call:
//!
//! * [`prepare_traced`] — `GbSystem::prepare` split into the surface sample,
//!   the two octree builds and `prepare_with_surface`;
//! * [`serial_traced`] — `runners::serial::run_serial_ws` split into its six
//!   phase calls.
//!
//! The copies must not drift from the library: every caller compares the
//! energy [`serial_traced`] returns `to_bits` against a runner's.

use crate::trace::Tracer;
use gb_core::arena::{Workspace, WsOutput};
use gb_core::fastmath::ExactMath;
use gb_core::gbmath::{finalize_energy, R6};
use gb_core::integrals::push_integrals_scratch;
use gb_core::{GbParams, GbSystem, MathKind, RadiiKind};
use gb_molecule::Molecule;
use gb_octree::Octree;
use gb_surface::sample_surface;
use std::hint::black_box;

/// `GbSystem::prepare` with spans `surface.sample`, `octree.build` and
/// `system.prepare_with_surface`. `prepare_with_surface` builds both trees
/// itself, out of reach of a span, so the two builds are also run once on
/// their own under `octree.build`; `system.prepare_ms` is then the
/// `prepare_with_surface` time minus the `octree.build` time.
pub fn prepare_traced(mol: Molecule, params: GbParams, tr: &mut Tracer, op: u64) -> GbSystem {
    let surface = tr.span("surface.sample", op, || {
        sample_surface(&mol, &params.surface)
    });
    tr.span("octree.build", op, || {
        black_box(Octree::build(mol.positions(), params.leaf_cap));
        black_box(Octree::build(surface.positions(), params.leaf_cap));
    });
    tr.span("system.prepare_with_surface", op, || {
        GbSystem::prepare_with_surface(mol, surface, params)
    })
}

/// `run_serial_ws` for the default kernels (exact math, `R6` radii), one span
/// per phase call. Returns the same [`WsOutput`] bit for bit.
pub fn serial_traced(sys: &GbSystem, ws: &mut Workspace, tr: &mut Tracer, op: u64) -> WsOutput {
    assert!(
        sys.params.math == MathKind::Exact && sys.params.radii_kind == RadiiKind::R6,
        "the traced serial pass is written for the default kernels"
    );
    let n = sys.num_atoms();
    tr.span("born.list_build", op, || ws.ready_born_lists(sys));
    let mut born_work = ws.born.build_work;
    born_work += tr.span("born.exec", op, || {
        ws.acc.reset_for(sys);
        ws.born
            .execute_range::<ExactMath, R6>(sys, 0..ws.born.num_qleaves(), &mut ws.acc)
    });
    born_work += tr.span("born.push", op, || {
        ws.radii_tree.clear();
        ws.radii_tree.resize(n, 0.0);
        push_integrals_scratch::<ExactMath, R6>(
            sys,
            &ws.acc,
            0..n,
            &mut ws.radii_tree,
            &mut ws.push_stack,
        )
    });
    tr.span("energy.list_build", op, || ws.ready_energy_lists(sys));
    tr.span("bins.recompute", op, || {
        ws.bins.recompute(sys, &ws.radii_tree)
    });
    let (raw, exec_work) = tr.span("energy.exec", op, || {
        ws.energy.execute_leaves::<ExactMath>(
            sys,
            &ws.bins,
            &ws.radii_tree,
            0..ws.energy.num_vleaves(),
            &mut ws.energy_exec,
        )
    });
    let energy_work = ws.energy.build_work + exec_work;
    let energy_kcal = finalize_energy(raw, sys.params.tau());
    sys.radii_to_original_into(&ws.radii_tree, &mut ws.radii_out);
    WsOutput {
        energy_kcal,
        born_work,
        energy_work,
    }
}

/// Names of the spans [`serial_traced`] records, for reporting.
pub const SERIAL_LAYERS: &[(&str, &str)] = &[
    ("born.list_build", "born.list_build_ms"),
    ("born.exec", "born.exec_ms"),
    ("born.push", "born.push_ms"),
    ("energy.list_build", "energy.list_build_ms"),
    ("bins.recompute", "bins.recompute_ms"),
    ("energy.exec", "energy.exec_ms"),
];

/// Records the median per-op self time of every serial layer, and of the
/// prepare layers when they were traced, into `metrics`.
pub fn report_layers(tr: &Tracer, metrics: &mut std::collections::BTreeMap<&'static str, f64>) {
    for &(span, metric) in SERIAL_LAYERS {
        metrics.insert(metric, crate::median(&tr.self_ms_per_op(span)));
    }
    let sample = tr.self_ms_per_op("surface.sample");
    if !sample.is_empty() {
        let build = tr.self_ms_per_op("octree.build");
        let prep = tr.self_ms_per_op("system.prepare_with_surface");
        // Clamped: on small molecules the difference is within timer noise
        // (the second build of each tree runs on warm caches).
        let rest: Vec<f64> = prep
            .iter()
            .zip(&build)
            .map(|(p, b)| (p - b).max(0.0))
            .collect();
        metrics.insert("surface.sample_ms", crate::median(&sample));
        metrics.insert("octree.build_ms", crate::median(&build));
        metrics.insert("system.prepare_ms", crate::median(&rest));
    }
}
