//! Frame-stepped runner entry points — the trajectory fast path.
//!
//! A frame step is: [`GbSystem::refit_frame`] once (slack-margin tree
//! refit, surface riding rigidly on its owning atoms), then the regular
//! workspace pipeline, whose `ready_*_lists` calls resolve the frame to one
//! of three paths: *skip* (the lists are already current for this frame),
//! *reuse* (the lists are one lineage step behind and the refits' summed
//! displacement bound since their build is within `drift_tol`), or
//! *rebuild* into the workspace's warm arenas. With `drift_tol == 0.0`
//! (exact mode) only identity frames reuse, so a frame step's energy is
//! `to_bits()`-equal to preparing the refitted geometry from the same tree
//! topology and running cold — the step saves `prepare` and cold
//! allocation, not list work.
//!
//! When the accumulated drift forces a tree rebuild, the step degrades
//! gracefully: [`FrameUpdate::Rebuilt`] cuts the frame lineage, the
//! workspaces notice the parent-nonce mismatch and fall back to full list
//! builds. Callers never branch on it for correctness — only telemetry.

use crate::arena::Workspace;
use crate::arena::WsOutput;
use crate::commplan::CommMode;
use crate::error::GbError;
use crate::runners::serial::run_serial_ws;
use crate::runners::shared::run_shared_ws;
use crate::runners::{try_run_distributed_ws_mode, try_run_hybrid_ws_mode};
use crate::system::{FrameUpdate, GbResult, GbSystem};
use crate::workdiv::WorkDivision;
use gb_cluster::{RunReport, SimCluster};
use gb_geom::Vec3;
use parking_lot::Mutex;

/// One frame step's result: what the geometry update did plus the
/// pipeline output.
#[derive(Clone, Copy, Debug)]
pub struct FrameOutcome {
    /// Refit vs. forced rebuild (telemetry — results are valid either way).
    pub update: FrameUpdate,
    /// Pipeline output of the frame (energy + work units).
    pub output: WsOutput,
}

/// One distributed/hybrid frame step's result.
#[derive(Clone, Debug)]
pub struct ClusterFrameOutcome {
    /// Refit vs. forced rebuild.
    pub update: FrameUpdate,
    /// The master rank's result.
    pub result: GbResult,
    /// Cluster accounting report of the frame's superstep.
    pub report: RunReport,
}

/// Advances `sys` to `new_positions` and runs the serial pipeline
/// incrementally over `ws` (see the module docs). `drift_tol == 0.0` is
/// exact mode.
pub fn run_frame_serial(
    sys: &mut GbSystem,
    new_positions: &[Vec3],
    drift_tol: f64,
    ws: &mut Workspace,
) -> FrameOutcome {
    let update = sys.refit_frame(new_positions);
    ws.enable_frame_tracking(drift_tol);
    let output = run_serial_ws(sys, ws);
    FrameOutcome { update, output }
}

/// [`run_frame_serial`] on the shared-memory (rayon) pipeline.
pub fn run_frame_shared(
    sys: &mut GbSystem,
    new_positions: &[Vec3],
    drift_tol: f64,
    ws: &mut Workspace,
) -> FrameOutcome {
    let update = sys.refit_frame(new_positions);
    ws.enable_frame_tracking(drift_tol);
    let output = run_shared_ws(sys, ws);
    FrameOutcome { update, output }
}

/// [`run_frame_serial`] on the distributed 7-step pipeline: every rank's
/// workspace applies the frame rule to its replicated lists locally (the
/// rule reads only the system, so rank segments agree without
/// communication, exactly like the replicated full build). The cached
/// [`CommPlan`] revalidates by list content key, so a frame that reuses
/// its lists reuses the plan outright.
///
/// [`CommPlan`]: crate::commplan::CommPlan
#[allow(clippy::too_many_arguments)]
pub fn try_run_frame_distributed(
    sys: &mut GbSystem,
    new_positions: &[Vec3],
    drift_tol: f64,
    cluster: &SimCluster,
    ranks: usize,
    division: WorkDivision,
    mode: CommMode,
    workspaces: &[Mutex<Workspace>],
) -> Result<ClusterFrameOutcome, GbError> {
    let update = sys.refit_frame(new_positions);
    for ws in workspaces.iter().take(ranks) {
        ws.lock().enable_frame_tracking(drift_tol);
    }
    let (result, report) =
        try_run_distributed_ws_mode(sys, cluster, ranks, division, mode, workspaces)?;
    Ok(ClusterFrameOutcome { update, result, report })
}

/// [`try_run_frame_distributed`] on the hybrid (ranks × stealing threads)
/// pipeline.
#[allow(clippy::too_many_arguments)]
pub fn try_run_frame_hybrid(
    sys: &mut GbSystem,
    new_positions: &[Vec3],
    drift_tol: f64,
    cluster: &SimCluster,
    ranks: usize,
    threads_per_rank: usize,
    mode: CommMode,
    workspaces: &[Mutex<Workspace>],
) -> Result<ClusterFrameOutcome, GbError> {
    let update = sys.refit_frame(new_positions);
    for ws in workspaces.iter().take(ranks) {
        ws.lock().enable_frame_tracking(drift_tol);
    }
    let (result, report) = try_run_hybrid_ws_mode(
        sys,
        cluster,
        ranks,
        threads_per_rank,
        mode,
        workspaces,
    )?;
    Ok(ClusterFrameOutcome { update, result, report })
}
