//! # gb-polarize
//!
//! Octree-based hybrid distributed/shared-memory approximation of
//! Generalized Born (GB) polarization energy — a from-scratch Rust
//! reproduction of *"Polarization Energy on a Cluster of Multicores"*
//! (Tithi & Chowdhury, IPDPSW 2013).
//!
//! ## Quick start
//!
//! ```
//! use gb_polarize::prelude::*;
//!
//! // A deterministic protein-like molecule (or parse a PQR file).
//! let molecule = synthesize_protein(&SyntheticParams::with_atoms(500, 42));
//!
//! // Sample the molecular surface, build both octrees.
//! let system = GbSystem::prepare(molecule, GbParams::default());
//!
//! // Serial octree pipeline: Born radii + polarization energy.
//! let out = run_serial(&system);
//! assert!(out.result.energy_kcal < 0.0);
//!
//! // Shared-memory — same result to round-off, all cores.
//! let shared = run_shared(&system);
//! assert!((shared.result.energy_kcal - out.result.energy_kcal).abs()
//!         < 1e-9 * out.result.energy_kcal.abs());
//! ```
//!
//! ## The four algorithm variants (paper Table II)
//!
//! | function | paper name | parallelism |
//! |---|---|---|
//! | [`run_serial`]      | —              | none |
//! | [`run_shared`]      | `OCT_CILK`     | threads: fixed Born sub-segments, energy row segments taken dynamically |
//! | [`run_distributed`] | `OCT_MPI`      | simulated cluster ranks |
//! | [`run_hybrid`]      | `OCT_MPI+CILK` | ranks × threads, as `run_shared` inside each rank |
//! | [`modeled_run`]     | (scaling harness) | analytic replay for large P |
//!
//! Plus [`naive_full`] (the exact O(M²) ground truth) and the
//! [`gb_baselines`] crate with the Amber/Gromacs/NAMD/Tinker/GBr⁶ analogs.
//!
//! See `DESIGN.md` for the crate inventory and `EXPERIMENTS.md` for the
//! per-figure reproduction index.

pub use gb_baselines as baselines;
pub use gb_cluster as cluster;
pub use gb_core as core;
pub use gb_geom as geom;
pub use gb_molecule as molecule;
pub use gb_octree as octree;
pub use gb_serve as serve;
pub use gb_surface as surface;

pub use gb_cluster::{ClusterTopology, CostModel, SimCluster};
pub use gb_core::modeled::{modeled_run, ModeledOutcome};
pub use gb_core::naive::naive_full;
pub use gb_core::runners::{
    run_data_distributed, run_distributed, run_frame_serial, run_frame_shared, run_hybrid,
    run_serial, run_shared, try_run_data_distributed_mode, try_run_distributed_mode,
    try_run_frame_distributed, try_run_frame_hybrid, try_run_hybrid_mode, FrameOutcome,
};
pub use gb_core::{
    CommMode, FrameUpdate, GbParams, GbResult, GbSystem, MathKind, RadiiKind, WorkDivision,
};
pub use gb_molecule::{synthesize_protein, virus_shell, Molecule, SyntheticParams};
pub use gb_serve::{EvalOutcome, EvalRequest, GbService, ServeConfig, ServeStats};
pub use gb_surface::SurfaceParams;

/// Everything a typical caller needs.
pub mod prelude {
    pub use gb_cluster::{ClusterTopology, CostModel, SimCluster};
    pub use gb_core::modeled::modeled_run;
    pub use gb_core::naive::naive_full;
    pub use gb_core::runners::{
        run_data_distributed, run_distributed, run_frame_serial, run_frame_shared, run_hybrid,
        run_serial, run_shared, try_run_data_distributed_mode, try_run_distributed_mode,
        try_run_frame_distributed, try_run_frame_hybrid, try_run_hybrid_mode, FrameOutcome,
    };
    pub use gb_core::{
        CommMode, FrameUpdate, GbParams, GbResult, GbSystem, MathKind, RadiiKind, WorkDivision,
    };
    pub use gb_molecule::{
        synthesize_protein, virus_shell, zdock_suite, Atom, Element, Molecule, SyntheticParams,
    };
    pub use gb_serve::{EvalOutcome, EvalRequest, GbService, ServeConfig, ServeStats};
    pub use gb_surface::SurfaceParams;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_smoke() {
        let m = synthesize_protein(&SyntheticParams::with_atoms(60, 1));
        let sys = GbSystem::prepare(m, GbParams::default());
        let out = run_serial(&sys);
        assert!(out.result.energy_kcal.is_finite());
    }
}
