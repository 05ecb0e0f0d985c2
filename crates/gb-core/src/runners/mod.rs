//! The four executable variants of the octree GB pipeline (paper Table II).

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

use crate::bins::ChargeBins;
use crate::system::GbSystem;

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
