//! Package profiles and the baseline runner.
//!
//! Each [`PackageProfile`] bundles a real GB algorithm (Born-radius model +
//! pair enumeration from [`models`](crate::models) / [`celllist`](crate::celllist))
//! with the *cost calibration* that stands in for the closed-source binary:
//! a per-pair work multiplier, a parallel efficiency, and memory behaviour.
//! The multipliers are fixed once against the paper's Fig. 8 / Fig. 11
//! speedup ladder (see EXPERIMENTS.md) — everything else (who runs out of
//! memory where, how cutoff truncation biases energies, how nblists grow)
//! follows mechanically from the algorithms.

use crate::celllist::NbList;
use crate::models::{hct_radii, obc_radii, still_radii, volume_r6_radii};
use gb_core::fastmath::ExactMath;
use gb_core::gbmath::{finalize_energy, pair_term};
use gb_molecule::Molecule;

/// The packages of paper Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Package {
    Amber,
    Gromacs,
    Namd,
    Tinker,
    GBr6,
}

/// A package's algorithm + cost calibration.
#[derive(Clone, Copy, Debug)]
pub struct PackageProfile {
    pub package: Package,
    /// Display name, as in the paper's legends.
    pub name: &'static str,
    /// GB model the package uses (paper Table II).
    pub gb_model: &'static str,
    /// Parallelism kind (paper Table II).
    pub parallelism: &'static str,
    /// Pair-enumeration cutoff in Å; `None` = all pairs.
    pub cutoff: Option<f64>,
    /// Work-unit multiplier per pair interaction, relative to the octree
    /// kernels' unit cost (calibrated once, see EXPERIMENTS.md).
    pub pair_cost: f64,
    /// Fixed startup overhead in seconds (I/O, setup).
    pub startup_seconds: f64,
    /// Fraction of ideal per-core speedup retained when parallel
    /// (`effective cores = 1 + (cores − 1) · eff`).
    pub parallel_efficiency: f64,
    /// Whether the package can use more than one core at all.
    pub supports_parallel: bool,
    /// Physical memory the package may use before failing (bytes).
    pub mem_limit_bytes: f64,
    /// Bookkeeping bytes the package keeps per enumerated pair (exclusion
    /// lists, cached terms) — this is what kills the all-pairs packages on
    /// large molecules.
    pub mem_bytes_per_pair: f64,
}

/// Why (or whether) a baseline run completed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BaselineStatus {
    /// Ran at its configured cutoff / enumeration.
    Ok,
    /// The requested cutoff did not fit in memory; ran at the largest
    /// feasible cutoff instead (paper §V-F: Gromacs only up to cutoff 2 and
    /// NAMD up to 60 on CMV).
    CutoffLimited { used_cutoff: f64 },
    /// Could not run at all (paper §V-D: Tinker > 12 k and GBr⁶ > 13 k
    /// atoms run out of memory).
    OutOfMemory,
}

/// Outcome of one baseline evaluation.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    pub package: Package,
    pub status: BaselineStatus,
    /// Energy in kcal/mol (`None` when the run failed).
    pub energy_kcal: Option<f64>,
    /// Born radii (original atom order), when the run succeeded.
    pub born_radii: Option<Vec<f64>>,
    /// Raw pair-interaction count executed.
    pub pairs: u64,
    /// Work units after the package's cost multiplier.
    pub work_units: f64,
    /// Modeled wall-clock seconds on `cores` cores.
    pub modeled_seconds: f64,
    /// Peak modeled memory in bytes.
    pub memory_bytes: f64,
}

/// Seconds per work unit — shared with the octree cost model default.
pub const SEC_PER_WORK_UNIT: f64 = 1.0e-8;

/// All five baseline profiles, calibrated to the paper's ladder.
pub fn all_profiles() -> [PackageProfile; 5] {
    [
        PackageProfile {
            package: Package::Amber,
            name: "Amber 12",
            gb_model: "HCT",
            parallelism: "Distributed (MPI)",
            cutoff: None, // Amber GB runs effectively un-cutoff (cut=999)
            pair_cost: 3.8,
            startup_seconds: 0.05,
            parallel_efficiency: 0.70,
            supports_parallel: true,
            mem_limit_bytes: 24e9,
            mem_bytes_per_pair: 0.5,
        },
        PackageProfile {
            package: Package::Gromacs,
            name: "Gromacs 4.5.3",
            gb_model: "HCT",
            parallelism: "Distributed (MPI)",
            cutoff: Some(20.0),
            pair_cost: 6.0,
            startup_seconds: 0.03,
            parallel_efficiency: 0.75,
            supports_parallel: true,
            mem_limit_bytes: 24e9,
            mem_bytes_per_pair: 16.0,
        },
        PackageProfile {
            package: Package::Namd,
            name: "NAMD 2.9",
            gb_model: "OBC",
            parallelism: "Distributed (MPI)",
            cutoff: Some(60.0),
            pair_cost: 4.2,
            startup_seconds: 0.5,
            parallel_efficiency: 0.80,
            supports_parallel: true,
            mem_limit_bytes: 24e9,
            mem_bytes_per_pair: 24.0,
        },
        PackageProfile {
            package: Package::Tinker,
            name: "Tinker 6.0",
            gb_model: "STILL",
            parallelism: "Shared (OpenMP)",
            cutoff: None,
            pair_cost: 1.4,
            startup_seconds: 0.10,
            parallel_efficiency: 0.50,
            supports_parallel: true,
            mem_limit_bytes: 24e9,
            // quadratic bookkeeping: ~160 bytes per pair ⇒ dies near 12 k atoms
            mem_bytes_per_pair: 160.0,
        },
        PackageProfile {
            package: Package::GBr6,
            name: "GBr6",
            gb_model: "volume r6",
            parallelism: "Serial",
            cutoff: None,
            pair_cost: 0.40,
            startup_seconds: 0.02,
            parallel_efficiency: 0.0,
            supports_parallel: false,
            mem_limit_bytes: 24e9,
            // slightly leaner than Tinker ⇒ dies near 13 k atoms
            mem_bytes_per_pair: 136.0,
        },
    ]
}

/// Looks a profile up by package.
pub fn profile(package: Package) -> PackageProfile {
    all_profiles().into_iter().find(|p| p.package == package).expect("profile exists")
}

/// Runs one baseline on a molecule with `cores` cores (the paper's
/// comparison uses 12 = one node).
pub fn run_package(profile: &PackageProfile, mol: &Molecule, cores: usize) -> BaselineResult {
    let n = mol.len();
    let m2_pairs = (n as f64) * (n as f64 - 1.0);

    // ---- Memory feasibility.
    let bbox = mol.bounding_box();
    let density = n as f64 / bbox.volume().max(1.0);
    let (status, nblist, mem_bytes) = match profile.cutoff {
        None => {
            let mem = m2_pairs * profile.mem_bytes_per_pair;
            if mem > profile.mem_limit_bytes {
                return BaselineResult {
                    package: profile.package,
                    status: BaselineStatus::OutOfMemory,
                    energy_kcal: None,
                    born_radii: None,
                    pairs: 0,
                    work_units: 0.0,
                    modeled_seconds: f64::INFINITY,
                    memory_bytes: mem,
                };
            }
            (BaselineStatus::Ok, None, mem)
        }
        Some(cutoff) => {
            // shrink the cutoff until the nblist fits (paper §V-F)
            let fits = |c: f64| {
                NbList::predicted_bytes(n, density, c) * (profile.mem_bytes_per_pair / 4.0)
                    <= profile.mem_limit_bytes
            };
            let mut used = cutoff;
            let mut limited = false;
            while !fits(used) && used > 1.0 {
                used *= 0.8;
                limited = true;
            }
            let nb = NbList::build(mol.positions(), used);
            let mem = nb.memory_bytes() as f64 * (profile.mem_bytes_per_pair / 4.0);
            let status = if limited {
                BaselineStatus::CutoffLimited { used_cutoff: used }
            } else {
                BaselineStatus::Ok
            };
            (status, Some(nb), mem)
        }
    };

    // ---- Born radii with the package's model.
    let (radii, radius_pairs) = match profile.package {
        Package::Amber | Package::Gromacs => {
            hct_radii(mol.positions(), mol.radii(), nblist.as_ref())
        }
        Package::Namd => obc_radii(mol.positions(), mol.radii(), nblist.as_ref()),
        Package::Tinker => still_radii(mol.positions(), mol.radii(), nblist.as_ref()),
        Package::GBr6 => volume_r6_radii(mol.positions(), mol.radii(), nblist.as_ref()),
    };

    // ---- Energy: Eq. 2 with the package's radii over the same pairs.
    let charges = mol.charges();
    let positions = mol.positions();
    let mut raw = 0.0;
    let mut energy_pairs = 0u64;
    for i in 0..n {
        // self term
        raw += pair_term::<ExactMath>(charges[i] * charges[i], 0.0, radii[i] * radii[i]);
        let mut row = |j: usize| {
            let r_sq = positions[i].dist_sq(positions[j]);
            raw += pair_term::<ExactMath>(charges[i] * charges[j], r_sq, radii[i] * radii[j]);
            energy_pairs += 1;
        };
        match &nblist {
            Some(nb) => {
                for &j in nb.neighbors_of(i) {
                    row(j as usize);
                }
            }
            None => {
                for j in 0..n {
                    if j != i {
                        row(j);
                    }
                }
            }
        }
    }
    let tau = 1.0 - 1.0 / 80.0;
    let energy_kcal = finalize_energy(raw, tau);

    // ---- Cost model.
    let pairs = radius_pairs + energy_pairs + n as u64; // + self terms
    let work_units = pairs as f64 * profile.pair_cost;
    let eff_cores = if profile.supports_parallel && cores > 1 {
        1.0 + (cores as f64 - 1.0) * profile.parallel_efficiency
    } else {
        1.0
    };
    let modeled_seconds =
        profile.startup_seconds + work_units * SEC_PER_WORK_UNIT / eff_cores;

    BaselineResult {
        package: profile.package,
        status,
        energy_kcal: Some(energy_kcal),
        born_radii: Some(radii),
        pairs,
        work_units,
        modeled_seconds,
        memory_bytes: mem_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn mol(n: usize) -> Molecule {
        synthesize_protein(&SyntheticParams::with_atoms(n, 91))
    }

    #[test]
    fn all_packages_run_small_molecules() {
        let m = mol(500);
        for p in all_profiles() {
            let r = run_package(&p, &m, 12);
            assert_eq!(r.status, BaselineStatus::Ok, "{}", p.name);
            let e = r.energy_kcal.unwrap();
            assert!(e < 0.0 && e.is_finite(), "{}: E = {e}", p.name);
            assert!(r.modeled_seconds > 0.0 && r.modeled_seconds.is_finite());
            assert!(r.pairs > 0);
        }
    }

    #[test]
    fn tinker_and_gbr6_oom_on_large_molecules() {
        // paper §V-D: Tinker fails beyond ~12 k atoms, GBr6 beyond ~13 k.
        // Use atom counts straddling the thresholds; memory checks are
        // analytic so a big `n` costs nothing.
        let below = mol(10_000);
        let r = run_package(&profile(Package::Tinker), &below, 12);
        assert_eq!(r.status, BaselineStatus::Ok);

        let above = {
            // fake a 14k molecule cheaply: only the atom count matters for
            // the all-pairs memory check, but run_package computes radii
            // too, so keep it real (14k HCT all-pairs ≈ 2·10⁸ pairs — fine).
            mol(14_000)
        };
        let t = run_package(&profile(Package::Tinker), &above, 12);
        assert_eq!(t.status, BaselineStatus::OutOfMemory, "Tinker should OOM at 14k");
        assert!(t.energy_kcal.is_none());
        let g = run_package(&profile(Package::GBr6), &above, 12);
        assert_eq!(g.status, BaselineStatus::OutOfMemory, "GBr6 should OOM at 14k");
        // ... while Amber survives (lean per-pair bookkeeping)
        let a = run_package(&profile(Package::Amber), &above, 12);
        assert_eq!(a.status, BaselineStatus::Ok);
    }

    #[test]
    fn gbr6_boundary_is_looser_than_tinker() {
        let m = mol(12_800);
        let t = run_package(&profile(Package::Tinker), &m, 12);
        let g = run_package(&profile(Package::GBr6), &m, 12);
        assert_eq!(t.status, BaselineStatus::OutOfMemory);
        assert_eq!(g.status, BaselineStatus::Ok);
    }

    #[test]
    fn cutoff_packages_get_limited_on_huge_molecules() {
        // a dense enough big molecule forces NAMD/Gromacs to shrink cutoffs
        let m = gb_molecule::virus_shell(40_000, 3, Some(30.0));
        let p = PackageProfile {
            mem_limit_bytes: 2e8, // tighten so the effect shows at test scale
            ..profile(Package::Namd)
        };
        let r = run_package(&p, &m, 12);
        match r.status {
            BaselineStatus::CutoffLimited { used_cutoff } => {
                assert!(used_cutoff < 60.0);
            }
            s => panic!("expected CutoffLimited, got {s:?}"),
        }
        // it still produces an energy — just a badly truncated one
        assert!(r.energy_kcal.unwrap().is_finite());
    }

    #[test]
    fn serial_gbr6_ignores_extra_cores() {
        let m = mol(800);
        let p = profile(Package::GBr6);
        let one = run_package(&p, &m, 1).modeled_seconds;
        let twelve = run_package(&p, &m, 12).modeled_seconds;
        assert!((one - twelve).abs() < 1e-12);
    }

    #[test]
    fn parallel_packages_speed_up_with_cores() {
        // large enough that pair work dominates the startup constant
        let m = mol(3_000);
        let p = profile(Package::Amber);
        let one = run_package(&p, &m, 1).modeled_seconds;
        let twelve = run_package(&p, &m, 12).modeled_seconds;
        assert!(twelve < one / 3.0, "12-core {twelve} vs 1-core {one}");
    }

    #[test]
    fn tinker_energy_is_weakest() {
        // Fig. 9: Tinker's energies ≈ 70 % of the others
        let m = mol(600);
        let amber = run_package(&profile(Package::Amber), &m, 12).energy_kcal.unwrap();
        let tinker = run_package(&profile(Package::Tinker), &m, 12).energy_kcal.unwrap();
        let ratio = tinker / amber;
        assert!(
            (0.4..0.95).contains(&ratio),
            "Tinker/Amber energy ratio {ratio} should reflect the ~70% offset"
        );
    }

    #[test]
    fn package_energies_agree_on_sign_and_magnitude() {
        let m = mol(600);
        let energies: Vec<f64> = all_profiles()
            .iter()
            .map(|p| run_package(p, &m, 12).energy_kcal.unwrap())
            .collect();
        for &e in &energies {
            assert!(e < 0.0);
        }
        let min = energies.iter().copied().fold(f64::INFINITY, f64::min);
        let max = energies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // all within a factor ~3 of each other (different GB models differ,
        // but not wildly)
        assert!(min / max < 4.0, "energy spread too wide: {energies:?}");
    }
}
