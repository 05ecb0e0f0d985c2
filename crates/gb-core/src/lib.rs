//! # gb-core
//!
//! The paper's contribution: octree-based approximation of Generalized Born
//! (GB) Born radii and polarization energy, in serial, shared-memory,
//! distributed-memory and hybrid parallel variants.
//!
//! ## The algorithms
//!
//! Let `A` be the molecule's atoms and `Q` the surface quadrature points
//! (from `gb-surface`). Two octrees `T_A`, `T_Q` are built (`gb-octree`).
//!
//! * **Born radii** (paper Fig. 2, `APPROX-INTEGRALS` +
//!   `PUSH-INTEGRALS-TO-ATOMS`): for every leaf of `T_Q`, traverse `T_A`
//!   top-down. When nodes are *well separated* — the max/min distance ratio
//!   between their members is at most `(1+ε)^(1/6)`, so every individual
//!   `1/r⁶` term is within a factor `(1+ε)` of its pseudo-particle value —
//!   the whole leaf's contribution collapses to one term collected at the
//!   `T_A` node; otherwise recurse, bottoming out in exact leaf–leaf sums.
//!   A final top-down pass pushes node-collected partial integrals to atoms
//!   and converts to radii via `R = max(r_vdw, (s/4π)^(-1/3))`.
//!
//! * **Polarization energy** (paper Fig. 3, `APPROX-EPOL`): with Born radii
//!   known, atoms are binned by radius into geometric `(1+ε)` buckets and
//!   every `T_A` node carries a per-bucket charge histogram. For every leaf
//!   `V` of `T_A`, traverse `T_A`: exact pair sums between leaves, or — when
//!   `r_UV > (r_U + r_V)(1 + 2/ε)` — a `bins²` histogram contraction using
//!   `R_i R_j ≈ R_min²(1+ε)^(i+j)`.
//!
//! ## The four implementations (paper Table II)
//!
//! | paper          | here                               |
//! |----------------|-------------------------------------|
//! | `Naïve`        | [`naive`] — exact O(M·N) + O(M²)    |
//! | `OCT_CILK`     | [`runners::shared`] (threads)       |
//! | `OCT_MPI`      | [`runners::distributed`] (gb-cluster ranks) |
//! | `OCT_MPI+CILK` | [`runners::hybrid`] (distributed ranks × threads) |
//!
//! plus [`modeled`], which replays the distributed/hybrid work division
//! rank-by-rank against the cluster cost model to produce the large-P
//! scaling curves (Figs. 5, 6, 11) that cannot be measured as wall-clock on
//! one machine.
//!
//! All octree variants produce *identical* energies for the same
//! parameters, and converge to the naive energy as ε → 0.

pub mod balance;
pub mod bins;
pub mod commplan;
pub mod contenthash;
pub mod energy;
pub mod error;
pub mod fastmath;
pub mod gbmath;
pub mod integrals;
pub mod interaction;
pub mod modeled;
pub mod naive;
pub mod arena;
pub mod pair;
pub mod params;
pub mod runners;
pub mod simd;
pub mod system;
pub mod workdiv;

pub use arena::{CachedLists, ListPath, RepairStats, Workspace};
pub use commplan::{CommMode, CommPlan};
pub use contenthash::{molecule_key, params_key, system_key};
pub use error::{percent_error, ErrorStats, GbError};
pub use interaction::{BornLists, EnergyExecScratch, EnergyLists, FarStats, NearStats};
pub use gbmath::COULOMB_KCAL;
pub use pair::{evaluate_pair, evaluate_pair_ws, EnergyPath, Monomer, PairOutcome, PairScratch};
pub use params::{GbParams, MathKind, RadiiKind};
pub use system::{FrameUpdate, GbResult, GbSystem, RefitSummary};
pub use balance::LoadBalance;
pub use workdiv::WorkDivision;
