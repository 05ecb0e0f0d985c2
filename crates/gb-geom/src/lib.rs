//! # gb-geom
//!
//! Geometry substrate for the `gb-polarize` workspace.
//!
//! This crate provides the small, allocation-free geometric vocabulary shared
//! by every other crate in the reproduction of *"Polarization Energy on a
//! Cluster of Multicores"* (Tithi & Chowdhury, IPDPSW 2013):
//!
//! * [`Vec3`] — a 3-component `f64` vector with the usual arithmetic,
//!   dot/cross products and norms,
//! * [`Aabb`] — axis-aligned bounding boxes with octant subdivision (the
//!   geometric backbone of the octree),
//! * [`Sphere`] and bounding-sphere construction (Ritter's algorithm and the
//!   centroid-based enclosing ball used for octree node radii),
//! * [`Mat3`] and [`RigidTransform`] — rigid-body motions used to place
//!   ligands at docking poses without rebuilding octrees,
//! * [`morton`] — 63-bit 3-D Morton (Z-order) codes used for cache-friendly
//!   point ordering during octree construction,
//! * [`DetRng`] — a tiny deterministic SplitMix64 generator so substrates
//!   that need reproducible pseudo-randomness (synthetic workloads,
//!   modeled jitter) do not need to depend on `rand`.
//!
//! All types are `Copy` where possible and deliberately plain data so hot
//! loops vectorize well.

pub mod aabb;
pub mod mat3;
pub mod morton;
pub mod rng;
pub mod soa;
pub mod sphere;
pub mod transform;
pub mod vec3;

pub use aabb::Aabb;
pub use mat3::Mat3;
pub use rng::DetRng;
pub use soa::Soa3;
pub use sphere::{bounding_sphere_ritter, enclosing_radius_about, Sphere};
pub use transform::RigidTransform;
pub use vec3::Vec3;

/// Numerical tolerance used by geometric predicates throughout the workspace.
pub const GEOM_EPS: f64 = 1e-12;
