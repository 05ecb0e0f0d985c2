//! # gb-molecule
//!
//! Molecule representation and workloads for the `gb-polarize` workspace.
//!
//! The paper evaluates on the ZDock Benchmark Suite 2.0 (84 protein–protein
//! complexes, 400–16 000 atoms per protein) plus two virus shells: Blue
//! Tongue Virus (~6 M atoms) and the Cucumber Mosaic Virus shell
//! (509 640 atoms). Those datasets are proprietary-ish PDB-derived inputs we
//! cannot ship, so this crate provides:
//!
//! * [`Atom`] / [`Molecule`] — struct-of-arrays storage of positions, van
//!   der Waals radii and partial charges (the only atom attributes any GB
//!   algorithm in the workspace consumes),
//! * [`io`] — minimal PQR reader/writer and XYZ reader, so *real* molecules can
//!   be used when available,
//! * [`synthetic`] — a deterministic protein-like generator (backbone
//!   random walk with side-chain blobs at protein packing density) and a
//!   virus-shell generator (atoms on a thick spherical capsid), which
//!   reproduce the geometric statistics the algorithms are sensitive to:
//!   compactness, surface-to-volume ratio, vdW radius and charge
//!   distributions,
//! * [`zdock`] — a registry of the 42 benchmark entries named in the
//!   paper's figures (e.g. `1PPE_l_b` … `1BGX_l_b`) with the molecule-size
//!   ladder spanning ~450 to ~16 300 atoms, each synthesized deterministically
//!   from its name,
//! * [`docking`] — rigid-body pose generation for the ligand-placement
//!   workload that motivates the paper's "move the octree, don't rebuild
//!   it" observation.

pub mod atom;
pub mod docking;
pub mod io;
pub mod molecule;
pub mod synthetic;
pub mod zdock;

pub use atom::{Atom, Element};
pub use molecule::Molecule;
pub use synthetic::{synthesize_protein, virus_shell, SyntheticParams};
pub use zdock::{zdock_suite, ZdockEntry};
