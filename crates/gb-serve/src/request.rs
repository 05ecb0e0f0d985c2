//! Request/response types of the serving layer.

use gb_core::GbParams;
use gb_geom::RigidTransform;
use gb_molecule::Molecule;
use std::sync::Arc;

/// What a tenant asks the service to evaluate. Molecules travel as `Arc`s
/// so a docking scan submitting the same receptor thousands of times costs
/// one clone total, not one per request.
#[derive(Clone, Debug)]
pub enum EvalRequest {
    /// Full pipeline on one molecule (batched into fused supersteps on the
    /// shared cluster).
    Single {
        /// The molecule to evaluate.
        molecule: Arc<Molecule>,
        /// GB parameters (part of every cache key).
        params: GbParams,
    },
    /// Docking pose: receptor + rigidly posed ligand through the
    /// pair-decomposed path (receptor artifacts cached across poses).
    Docking {
        /// The receptor (frame anchor).
        receptor: Arc<Molecule>,
        /// The ligand in its canonical frame.
        ligand: Arc<Molecule>,
        /// Rigid map from the ligand's canonical frame into the receptor's.
        pose: RigidTransform,
        /// GB parameters shared by both monomers.
        params: GbParams,
    },
}

/// Per-request trace returned alongside the energy.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Time from admission to being drained into a batch.
    pub queue_wait_ms: f64,
    /// Time from drain to completion (includes co-batched jobs' work —
    /// that is the price of riding a fused superstep).
    pub service_ms: f64,
    /// Monotone id of the scheduler cycle that served this request.
    pub superstep_id: u64,
    /// Number of requests fused into that cycle.
    pub batch_size: usize,
    /// Heal-and-replay cycles the cluster performed while this request's
    /// superstep ran (0 when recovery never fired).
    pub recoveries: u32,
    /// Tier-1 hit: parameterized system found by content key.
    pub tier1_hit: bool,
    /// Tier-2 hit: interaction lists / monomer artifacts found.
    pub tier2_hit: bool,
    /// Tier-3 hit: warm workspace pool (CommPlan + arenas) found.
    pub tier3_hit: bool,
}

/// The service's answer: energy plus the request trace.
#[derive(Clone, Debug)]
pub struct EvalOutcome {
    /// Polarization energy in kcal/mol.
    pub energy_kcal: f64,
    /// For docking requests, complex minus solo energies (0 for singles).
    pub delta_kcal: f64,
    /// The per-request trace.
    pub report: ServeReport,
}

/// Why a request failed.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The bounded admission queue is full — shed load and retry later.
    QueueFull,
    /// The service is shutting down (or its scheduler is gone).
    Shutdown,
    /// The cluster failed beneath the batch after exhausting recovery
    /// (rendered diagnostics of the root-cause `GbError`).
    Cluster(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "admission queue full"),
            ServeError::Shutdown => write!(f, "service shut down"),
            ServeError::Cluster(e) => write!(f, "cluster failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}
