//! # gb-octree
//!
//! Adaptive octrees over 3-D point sets — the central data structure of the
//! paper's Born-radius and polarization-energy algorithms.
//!
//! The paper stores two octrees: `T_A` over atom centers and `T_Q` over
//! surface quadrature points, and evaluates Greengard–Rokhlin-style near–far
//! decompositions over them. This crate provides the structure itself:
//!
//! * **Construction** ([`Octree::build`]): points are
//!   Morton-sorted for cache locality, then recursively partitioned into
//!   cubic octants until a leaf holds at most `leaf_cap` points. Nodes store
//!   the *geometric centroid* of the points beneath them and the radius of
//!   the smallest centroid-centered ball enclosing those points — exactly
//!   the pseudo-particle geometry (`r_A`, `r_Q`) of the paper's acceptance
//!   test.
//! * **Aggregation** ([`Octree::aggregate`]): generic bottom-up fold that
//!   computes per-node pseudo-particle payloads (summed weighted normals for
//!   `T_Q`, Born-radius-binned charge histograms for `T_A`).
//! * **Queries** ([`Octree::for_each_in_sphere`], [`Octree::leaves`]):
//!   range queries for the surface sampler and baselines, and leaf iteration
//!   for the node-based work division.
//! * **Rigid motion** ([`Octree::transform_into`]) and **refitting**
//!   ([`Octree::refit`]): move a ligand's tree to a new docking pose, or
//!   absorb small coordinate perturbations, without rebuilding — the
//!   space-efficient alternative to `nblist` reconstruction the paper
//!   argues for.
//!
//! Storage is struct-of-arrays: a permuted, contiguous copy of the point
//! coordinates plus a flat `Vec<Node>` in depth-first preorder with each
//! node's children contiguous, so traversals walk memory mostly forward.

mod aggregate;
mod build;
mod dynamic;
mod node;
mod query;
mod tree;

pub use dynamic::{RefitReport, RefitScratch};
pub use node::{Node, NodeId, NULL_NODE};
pub use tree::Octree;

/// Default maximum number of points in a leaf.
///
/// The shared-memory predecessor papers use small leaves (4–16); 8 balances
/// traversal depth against per-leaf exact-interaction cost for protein-like
/// densities.
pub const DEFAULT_LEAF_CAP: usize = 8;

/// Hard depth limit; beyond this, coincident points are kept in one leaf.
pub const MAX_DEPTH: u8 = 30;
