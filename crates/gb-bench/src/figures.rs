//! One generator per table/figure of the paper's evaluation (§V).
//!
//! Conventions:
//! * "time" columns are modeled seconds from the cluster cost model (the
//!   machine running this is not a 144-core InfiniBand cluster); energies
//!   and errors are real computed values;
//! * `OCT_CILK` = 1 rank × 12 threads, `OCT_MPI` = 12 ranks × 1 thread,
//!   `OCT_MPI+CILK` = 2 ranks × 6 threads per node — the paper's §V-A
//!   configurations;
//! * every generator returns a [`Table`]; the `figures` binary renders it
//!   and writes `results/<figure>.csv`.

use crate::jitter::JitterModel;
use crate::table::Table;
use crate::workloads;
use crate::Scale;
use gb_baselines::{all_profiles, run_package, Package};
use gb_cluster::{CostModel, SimCluster};
use gb_core::error::{percent_error, ErrorStats};
use gb_core::modeled::modeled_run;
use gb_core::naive::{naive_full, naive_work_units};
use gb_core::runners::run_shared;
use gb_core::{GbParams, GbSystem, WorkDivision};

fn cost() -> CostModel {
    CostModel::default()
}

/// Table I: simulation environment — the paper's cluster vs our simulated
/// stand-in.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table I — simulation environment (paper vs this reproduction)",
        &["attribute", "paper (Lonestar4)", "this reproduction"],
    );
    let rows = [
        ("Processors", "3.33 GHz hexa-core Intel Westmere", "simulated: 10 ns/pair-interaction cores"),
        ("Cores/node", "12", "12 (2 sockets x 6, modeled)"),
        ("RAM", "24 GB / node", "24 GB / node (memory-pressure model)"),
        ("Interconnect", "InfiniBand fat-tree, 40Gb/s", "LogGP model: ts 2us, tw 1.6ns/word cross-node"),
        ("Cache", "12 MB L3 x 2", "24 MB modeled L3 per node"),
        ("OS", "Linux CentOS 5.5", "simulated message-passing runtime (gb-cluster)"),
        ("Parallelism", "Intel Cilk 4.5.4 + MVAPICH2/1.6", "scoped threads on fixed sub-segments + gb-cluster collectives"),
        ("Optimization", "-O3", "--release (codegen-units=1, thin LTO)"),
    ];
    for (a, p, o) in rows {
        t.push(&[a, p, o]);
    }
    t
}

/// Table II: the packages, their GB models and parallelism kinds.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table II — packages, GB models, parallelism",
        &["package", "GB model", "parallelism"],
    );
    for p in all_profiles() {
        t.push(&[p.name, p.gb_model, p.parallelism]);
    }
    for (name, model, par) in [
        ("OCT_CILK", "STILL (surface r6)", "Shared (threads on fixed sub-segments)"),
        ("OCT_MPI", "STILL (surface r6)", "Distributed (simulated ranks)"),
        ("OCT_MPI+CILK", "STILL (surface r6)", "Distributed + threads per rank"),
        ("Naive", "STILL (surface r6)", "Serial"),
    ] {
        t.push(&[name, model, par]);
    }
    t
}

/// Node ladder for the scaling figures (paper: 1–36 nodes × 12 cores).
fn node_ladder(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Tiny | Scale::Quick => vec![1, 2, 4, 8, 16, 24, 36],
        Scale::Full => (1..=36).collect(),
    }
}

/// Fig. 5: speedup of OCT_MPI and OCT_MPI+CILK w.r.t. one node, on the
/// BTV-analog shell.
pub fn fig5(scale: Scale) -> Table {
    let sys = workloads::prepare(workloads::btv_analog(scale));
    let cost = cost();
    let mut t = Table::new(
        format!(
            "Fig. 5 — scalability on {} ({} atoms): speedup vs 1 node (12 cores)",
            sys.molecule.name,
            sys.num_atoms()
        ),
        &["nodes", "cores", "OCT_MPI (s)", "OCT_MPI speedup", "OCT_MPI+CILK (s)", "OCT_MPI+CILK speedup"],
    );
    let mut base = (0.0, 0.0);
    for nodes in node_ladder(scale) {
        let cluster = SimCluster::lonestar4(nodes);
        let mpi = modeled_run(&sys, &cluster, nodes * 12, 1, WorkDivision::NodeNode)
            .modeled_seconds(&cost);
        let hyb = modeled_run(&sys, &cluster, nodes * 2, 6, WorkDivision::NodeNode)
            .modeled_seconds(&cost);
        if nodes == 1 {
            base = (mpi, hyb);
        }
        t.push(&[
            nodes.to_string(),
            (nodes * 12).to_string(),
            format!("{mpi:.4}"),
            format!("{:.2}", base.0 / mpi),
            format!("{hyb:.4}"),
            format!("{:.2}", base.1 / hyb),
        ]);
    }
    t
}

/// Fig. 6: min/max running time over 20 jittered repetitions vs cores.
pub fn fig6(scale: Scale) -> Table {
    let sys = workloads::prepare(workloads::btv_analog(scale));
    let cost = cost();
    let jitter = JitterModel::default();
    let mut t = Table::new(
        format!(
            "Fig. 6 — min/max running time (20 runs) on {} ({} atoms)",
            sys.molecule.name,
            sys.num_atoms()
        ),
        &["cores", "OCT_MPI min (s)", "OCT_MPI max (s)", "HYBRID min (s)", "HYBRID max (s)"],
    );
    for nodes in node_ladder(scale) {
        let cluster = SimCluster::lonestar4(nodes);
        let mpi = modeled_run(&sys, &cluster, nodes * 12, 1, WorkDivision::NodeNode);
        let hyb = modeled_run(&sys, &cluster, nodes * 2, 6, WorkDivision::NodeNode);
        let (mc, mm) = mpi.report.modeled_breakdown(&cost);
        let (hc, hm) = hyb.report.modeled_breakdown(&cost);
        let (mpi_min, mpi_max) = jitter.min_max(42 + nodes as u64, 20, nodes * 12, mc, mm);
        let (hyb_min, hyb_max) = jitter.min_max(142 + nodes as u64, 20, nodes * 2, hc, hm);
        t.push(&[
            (nodes * 12).to_string(),
            format!("{mpi_min:.4}"),
            format!("{mpi_max:.4}"),
            format!("{hyb_min:.4}"),
            format!("{hyb_max:.4}"),
        ]);
    }
    t
}

/// The three octree configurations of Fig. 7, as (label, ranks, threads).
const OCT_CONFIGS: [(&str, usize, usize); 3] =
    [("OCT_CILK", 1, 12), ("OCT_MPI", 12, 1), ("OCT_MPI+CILK", 2, 6)];

/// Fig. 7: running time of the three octree implementations across the
/// ZDock ladder (12 cores), sorted by OCT_CILK time like the paper.
pub fn fig7(scale: Scale) -> Table {
    let cost = cost();
    let cluster = SimCluster::single_node();
    let mut rows: Vec<(String, usize, [f64; 3])> = Vec::new();
    for entry in workloads::ladder(scale) {
        let sys = workloads::prepare(entry.molecule());
        let mut times = [0.0; 3];
        for (i, (_, ranks, threads)) in OCT_CONFIGS.iter().enumerate() {
            times[i] = modeled_run(&sys, &cluster, *ranks, *threads, WorkDivision::NodeNode)
                .modeled_seconds(&cost);
        }
        rows.push((entry.name.to_string(), entry.n_atoms, times));
    }
    rows.sort_by(|a, b| a.2[0].partial_cmp(&b.2[0]).unwrap());
    let mut t = Table::new(
        "Fig. 7 — octree variants on 12 cores (ms), sorted by OCT_CILK time",
        &["molecule", "atoms", "OCT_CILK", "OCT_MPI", "OCT_MPI+CILK"],
    );
    for (name, atoms, times) in rows {
        t.push(&[
            name,
            atoms.to_string(),
            format!("{:.3}", times[0] * 1e3),
            format!("{:.3}", times[1] * 1e3),
            format!("{:.3}", times[2] * 1e3),
        ]);
    }
    t
}

/// Figs. 8a/8b: running time of everything (8a) and speedup w.r.t. Amber
/// (8b) across the ladder on 12 cores.
pub fn fig8(scale: Scale) -> (Table, Table) {
    let cost = cost();
    let cluster = SimCluster::single_node();
    let mut t_time = Table::new(
        "Fig. 8a — running time on 12 cores (s)",
        &[
            "molecule", "atoms", "OCT_MPI", "OCT_MPI+CILK", "OCT_CILK", "Gromacs", "Amber",
            "NAMD", "Tinker", "GBr6", "Naive",
        ],
    );
    let mut t_speedup = Table::new(
        "Fig. 8b — speedup w.r.t. Amber 12 on 12 cores",
        &["molecule", "atoms", "OCT_MPI", "OCT_MPI+CILK", "OCT_CILK", "Gromacs", "NAMD", "Tinker", "GBr6"],
    );
    for entry in workloads::ladder(scale) {
        let mol = entry.molecule();
        let sys = workloads::prepare(mol.clone());
        let mut oct = [0.0; 3];
        for (i, (_, ranks, threads)) in OCT_CONFIGS.iter().enumerate() {
            oct[i] = modeled_run(&sys, &cluster, *ranks, *threads, WorkDivision::NodeNode)
                .modeled_seconds(&cost);
        }
        let base: Vec<(Package, f64)> = all_profiles()
            .iter()
            .map(|p| {
                let r = run_package(p, &mol, 12);
                (p.package, r.modeled_seconds)
            })
            .collect();
        let time_of = |pkg: Package| base.iter().find(|(p, _)| *p == pkg).unwrap().1;
        let naive_t = naive_work_units(&sys) * cost.sec_per_work_unit;
        let amber = time_of(Package::Amber);
        t_time.push(&[
            entry.name.to_string(),
            entry.n_atoms.to_string(),
            format!("{:.4}", oct[1]),
            format!("{:.4}", oct[2]),
            format!("{:.4}", oct[0]),
            format!("{:.4}", time_of(Package::Gromacs)),
            format!("{amber:.4}"),
            format!("{:.4}", time_of(Package::Namd)),
            format!("{:.4}", time_of(Package::Tinker)),
            format!("{:.4}", time_of(Package::GBr6)),
            format!("{naive_t:.4}"),
        ]);
        t_speedup.push(&[
            entry.name.to_string(),
            entry.n_atoms.to_string(),
            format!("{:.2}", amber / oct[1]),
            format!("{:.2}", amber / oct[2]),
            format!("{:.2}", amber / oct[0]),
            format!("{:.2}", amber / time_of(Package::Gromacs)),
            format!("{:.2}", amber / time_of(Package::Namd)),
            format!("{:.2}", amber / time_of(Package::Tinker)),
            format!("{:.2}", amber / time_of(Package::GBr6)),
        ]);
    }
    (t_time, t_speedup)
}

/// Fig. 9: energy values computed by every method across the ladder.
pub fn fig9(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig. 9 — E_pol (kcal/mol) by method",
        &["molecule", "atoms", "Naive", "OCT", "Amber", "Gromacs", "NAMD", "Tinker", "GBr6"],
    );
    for entry in workloads::ladder(scale) {
        let mol = entry.molecule();
        let sys = workloads::prepare(mol.clone());
        let naive = naive_full(&sys).energy_kcal;
        let oct = run_shared(&sys).result.energy_kcal;
        let pkg = |p: Package| -> String {
            let r = run_package(&gb_baselines::profile(p), &mol, 12);
            match r.energy_kcal {
                Some(e) => format!("{e:.1}"),
                None => "OOM".to_string(),
            }
        };
        t.push(&[
            entry.name.to_string(),
            entry.n_atoms.to_string(),
            format!("{naive:.1}"),
            format!("{oct:.1}"),
            pkg(Package::Amber),
            pkg(Package::Gromacs),
            pkg(Package::Namd),
            pkg(Package::Tinker),
            pkg(Package::GBr6),
        ]);
    }
    t
}

/// Fig. 10: % error (avg ± std over the ladder) and running-time trend as
/// the energy-phase ε sweeps 0.1…0.9 with the Born ε fixed at 0.9
/// (approximate math off — the paper's protocol).
pub fn fig10(scale: Scale) -> (Table, Table) {
    let cost = cost();
    let cluster = SimCluster::single_node();
    let epsilons = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

    let entries = workloads::ladder(scale);
    // exact reference per molecule (expensive, reused across ε)
    let mut refs = Vec::new();
    for e in &entries {
        let sys = workloads::prepare(e.molecule());
        refs.push(naive_full(&sys).energy_kcal);
    }

    let mut t_err = Table::new(
        "Fig. 10 (top) — % error in E_pol vs energy-phase epsilon (Born eps = 0.9)",
        &["epsilon", "avg %", "std %", "min %", "max %"],
    );
    let mut t_time = Table::new(
        "Fig. 10 (bottom) — OCT_MPI+CILK runtime (ms) vs epsilon",
        &["molecule", "atoms", "e=.1", "e=.3", "e=.5", "e=.7", "e=.9"],
    );
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); entries.len()];
    for &eps in &epsilons {
        let mut errors = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let sys =
                GbSystem::prepare(e.molecule(), GbParams::default().with_epsilons(0.9, eps));
            let out = modeled_run(&sys, &cluster, 2, 6, WorkDivision::NodeNode);
            errors.push(percent_error(out.result.energy_kcal, refs[i]));
            times[i].push(out.modeled_seconds(&cost));
        }
        let stats = ErrorStats::from_samples(&errors);
        t_err.push(&[
            format!("{eps:.1}"),
            format!("{:.4}", stats.mean),
            format!("{:.4}", stats.std),
            format!("{:.4}", stats.min),
            format!("{:.4}", stats.max),
        ]);
    }
    for (i, e) in entries.iter().enumerate() {
        // columns for ε ∈ {0.1, 0.3, 0.5, 0.7, 0.9} = indices 0,2,4,6,8
        t_time.push(&[
            e.name.to_string(),
            e.n_atoms.to_string(),
            format!("{:.3}", times[i][0] * 1e3),
            format!("{:.3}", times[i][2] * 1e3),
            format!("{:.3}", times[i][4] * 1e3),
            format!("{:.3}", times[i][6] * 1e3),
            format!("{:.3}", times[i][8] * 1e3),
        ]);
    }
    (t_err, t_time)
}

/// Fig. 11: the large-molecule table (CMV-analog shell) — times, speedups
/// w.r.t. Amber, energies and % difference vs the reference.
///
/// The "naive" reference energy is the octree pipeline at a tight ε (0.3),
/// because the true O(M²) naive on half a million atoms is a multi-hour
/// single-core run; at ε = 0.3 the octree error is well below the 0.1 %
/// digit the table reports (documented in EXPERIMENTS.md).
pub fn fig11(scale: Scale) -> Table {
    let cost = cost();
    let mol = workloads::cmv_analog(scale);
    let sys = workloads::prepare(mol.clone());
    let reference = {
        let tight = GbSystem::prepare(mol.clone(), GbParams::default().with_epsilons(0.3, 0.3));
        run_shared(&tight).result.energy_kcal
    };

    let single = SimCluster::single_node();
    let twelve = SimCluster::lonestar4(12);
    let cilk12 = modeled_run(&sys, &single, 1, 12, WorkDivision::NodeNode);
    let mpi12 = modeled_run(&sys, &single, 12, 1, WorkDivision::NodeNode);
    let hyb12 = modeled_run(&sys, &single, 2, 6, WorkDivision::NodeNode);
    let mpi144 = modeled_run(&sys, &twelve, 144, 1, WorkDivision::NodeNode);
    let hyb144 = modeled_run(&sys, &twelve, 24, 6, WorkDivision::NodeNode);
    let amber12 = run_package(&gb_baselines::profile(Package::Amber), &mol, 12);
    let amber144 = run_package(&gb_baselines::profile(Package::Amber), &mol, 144);

    let t12 = |o: &gb_core::modeled::ModeledOutcome| o.modeled_seconds(&cost);
    let a12 = amber12.modeled_seconds;
    let a144 = amber144.modeled_seconds;

    let mut t = Table::new(
        format!(
            "Fig. 11 — large molecule ({}, {} atoms, {} q-points); reference E = {reference:.1} kcal/mol",
            mol.name,
            sys.num_atoms(),
            sys.num_qpoints()
        ),
        &[
            "program", "12 cores (s)", "144 cores (s)", "speedup vs Amber (12c)",
            "speedup vs Amber (144c)", "energy (kcal/mol)", "% diff vs reference",
        ],
    );
    let fmt_diff = |e: f64| format!("{:+.2}", percent_error(e, reference));
    t.push(&[
        "OCT_CILK".to_string(),
        format!("{:.3}", t12(&cilk12)),
        "X".to_string(),
        format!("{:.0}", a12 / t12(&cilk12)),
        "X".to_string(),
        format!("{:.1}", cilk12.result.energy_kcal),
        fmt_diff(cilk12.result.energy_kcal),
    ]);
    t.push(&[
        "Amber".to_string(),
        format!("{a12:.1}"),
        format!("{a144:.1}"),
        "1".to_string(),
        "1".to_string(),
        amber12.energy_kcal.map_or("OOM".into(), |e| format!("{e:.1}")),
        amber12.energy_kcal.map_or("X".into(), fmt_diff),
    ]);
    t.push(&[
        "OCT_MPI+CILK".to_string(),
        format!("{:.3}", t12(&hyb12)),
        format!("{:.3}", t12(&hyb144)),
        format!("{:.0}", a12 / t12(&hyb12)),
        format!("{:.0}", a144 / t12(&hyb144)),
        format!("{:.1}", hyb12.result.energy_kcal),
        fmt_diff(hyb12.result.energy_kcal),
    ]);
    t.push(&[
        "OCT_MPI".to_string(),
        format!("{:.3}", t12(&mpi12)),
        format!("{:.3}", t12(&mpi144)),
        format!("{:.0}", a12 / t12(&mpi12)),
        format!("{:.0}", a144 / t12(&mpi144)),
        format!("{:.1}", mpi12.result.energy_kcal),
        fmt_diff(mpi12.result.energy_kcal),
    ]);
    t
}

/// §V-B memory study: per-node replicated bytes, OCT_MPI vs hybrid.
pub fn memory_study(scale: Scale) -> Table {
    let sys = workloads::prepare(workloads::btv_analog(scale));
    let single = SimCluster::single_node();
    let mpi = modeled_run(&sys, &single, 12, 1, WorkDivision::NodeNode);
    let hyb = modeled_run(&sys, &single, 2, 6, WorkDivision::NodeNode);
    let m = mpi.report.node_working_sets()[0];
    let h = hyb.report.node_working_sets()[0];
    let mut t = Table::new(
        format!("§V-B — replicated memory per node on {} (paper: 8.2 GB vs 1.4 GB = 5.86x)", sys.molecule.name),
        &["configuration", "replicated bytes/node", "GB", "ratio"],
    );
    t.push(&["OCT_MPI (12x1)".to_string(), format!("{m:.0}"), format!("{:.3}", m / 1e9), format!("{:.2}", m / h)]);
    t.push(&["OCT_MPI+CILK (2x6)".to_string(), format!("{h:.0}"), format!("{:.3}", h / 1e9), "1.00".to_string()]);
    t
}

/// §VI future-work ablation: cross-rank load-balancing policies. The paper
/// uses static even-leaf division and names explicit cross-node work
/// stealing as future work; this table compares modeled times and
/// imbalance of the three policies on a deliberately lopsided workload
/// (a protein–ligand complex, whose octree leaf occupancy is skewed).
pub fn loadbalance_study(scale: Scale) -> Table {
    use gb_core::balance::LoadBalance;
    use gb_core::modeled::modeled_run_balanced;
    let n = match scale {
        Scale::Tiny => 800,
        Scale::Quick => 4_000,
        Scale::Full => 16_000,
    };
    // receptor + far-away ligand: very uneven leaf sizes across space
    let mut mol =
        gb_molecule::synthesize_protein(&gb_molecule::SyntheticParams::with_atoms(n, 0xBA1));
    let ligand =
        gb_molecule::synthesize_protein(&gb_molecule::SyntheticParams::with_atoms(n / 8, 0xBA2));
    let shift = mol.bounding_box().circumradius() * 2.5;
    mol.merge(&ligand.transformed(&gb_geom::RigidTransform::translation(
        gb_geom::Vec3::new(shift, 0.0, 0.0),
    )));
    let sys = workloads::prepare(mol);
    let cost = cost();
    let cluster = SimCluster::lonestar4(2);

    let mut t = Table::new(
        "§VI — cross-rank load balancing ablation (24 ranks, modeled)",
        &["policy", "modeled time (ms)", "imbalance", "migrations"],
    );
    for policy in
        [LoadBalance::EvenLeaves, LoadBalance::BalancedLeaves, LoadBalance::CrossRankStealing]
    {
        let out =
            modeled_run_balanced(&sys, &cluster, 24, 1, WorkDivision::NodeNode, policy);
        t.push(&[
            format!("{policy:?}"),
            format!("{:.3}", out.modeled_seconds(&cost) * 1e3),
            format!("{:.3}", out.report.imbalance()),
            out.report.total_steals().to_string(),
        ]);
    }
    t
}

/// §II ablation: Eq. 3 (r⁴) vs Eq. 4 (r⁶) accuracy against the analytic
/// Kirkwood Born radius of an off-center charge in a sphere — the paper's
/// stated reason for adopting the r⁶ form.
pub fn radii_kind_study() -> Table {
    use gb_core::RadiiKind;
    use gb_molecule::{Atom, Element, Molecule};
    use gb_surface::SurfaceParams;

    let mut t = Table::new(
        "§II — r4 vs r6 Born radii for a charge at offset d inside a 5 Å sphere",
        &["d (Å)", "Kirkwood R (Å)", "r6 R (Å)", "r6 err %", "r4 R (Å)", "r4 err %"],
    );
    let rs = 5.0;
    for d in [0.0, 1.0, 2.0, 3.0, 4.0] {
        let kirkwood = rs * (1.0 - d * d / (rs * rs));
        let radius_with = |kind: RadiiKind| -> f64 {
            let mol = Molecule::from_atoms(
                "k",
                [
                    Atom::new(gb_geom::Vec3::ZERO, rs, 0.0, Element::Other),
                    Atom::new(gb_geom::Vec3::new(d, 0.0, 0.0), 0.1, 1.0, Element::Other),
                ],
            );
            let params = GbParams::default()
                .with_radii_kind(kind)
                .with_surface(SurfaceParams::exact_spheres());
            naive_full(&GbSystem::prepare(mol, params)).born_radii[1]
        };
        let r6 = radius_with(RadiiKind::R6);
        let r4 = radius_with(RadiiKind::R4);
        t.push(&[
            format!("{d:.1}"),
            format!("{kirkwood:.3}"),
            format!("{r6:.3}"),
            format!("{:+.2}", percent_error(r6, kirkwood)),
            format!("{r4:.3}"),
            format!("{:+.2}", percent_error(r4, kirkwood)),
        ]);
    }
    t
}

/// §VI future-work study #2: data distribution. Compares the replicated
/// `OCT_MPI` runner against the data-distributed runner (shards + halo
/// exchange) in per-rank memory and communicated bytes, on an extended
/// molecule where spatial shards have local halos.
pub fn datadist_study(scale: Scale) -> Table {
    use gb_core::runners::{run_data_distributed, run_distributed};
    let n = match scale {
        Scale::Tiny => 2_000,
        Scale::Quick => 8_000,
        Scale::Full => 40_000,
    };
    // an elongated fibril-like molecule (shards get local halos)
    let sys = {
        use gb_geom::{DetRng, Vec3};
        use gb_molecule::{Atom, Element, Molecule};
        let mut rng = DetRng::new(0xF1B);
        let atoms = (0..n).map(|i| {
            let pos = Vec3::new(i as f64 * 0.7, rng.f64_in(-5.0, 5.0), rng.f64_in(-5.0, 5.0));
            Atom::new(pos, rng.f64_in(1.2, 1.9), rng.f64_in(-0.5, 0.5), Element::Carbon)
        });
        workloads::prepare(Molecule::from_atoms(format!("fibril-{n}"), atoms))
    };
    let cluster = SimCluster::single_node();
    let mut t = Table::new(
        format!("§VI — data distribution vs replication on {} ({} atoms)", sys.molecule.name, n),
        &["ranks", "replicated max bytes/rank", "data-dist max bytes/rank", "ratio", "energy match"],
    );
    for ranks in [2usize, 4, 8, 12] {
        let (re, repl) = run_distributed(&sys, &cluster, ranks, WorkDivision::NodeNode);
        let (de, data) = run_data_distributed(&sys, &cluster, ranks);
        let r_max = repl.ledgers.iter().map(|l| l.replicated_bytes).max().unwrap();
        let d_max = data.ledgers.iter().map(|l| l.replicated_bytes).max().unwrap();
        let matches = (re.energy_kcal - de.energy_kcal).abs() < 1e-9 * re.energy_kcal.abs();
        t.push(&[
            ranks.to_string(),
            r_max.to_string(),
            d_max.to_string(),
            format!("{:.2}", r_max as f64 / d_max as f64),
            matches.to_string(),
        ]);
    }
    t
}

/// §IV work-division ablation: energy stability and load imbalance of
/// node-based vs atom-based division across rank counts.
pub fn workdiv_study(scale: Scale) -> Table {
    let n = match scale {
        Scale::Tiny => 600,
        Scale::Quick => 2_000,
        Scale::Full => 8_000,
    };
    let sys = workloads::prepare(gb_molecule::synthesize_protein(
        &gb_molecule::SyntheticParams::with_atoms(n, 0xD117),
    ));
    let cluster = SimCluster::single_node();
    let mut t = Table::new(
        "§IV — work-division ablation (energy drift vs P, imbalance)",
        &["division", "P", "energy (kcal/mol)", "drift vs P=1 (%)", "imbalance"],
    );
    for division in [WorkDivision::NodeNode, WorkDivision::AtomNode] {
        let mut base = None;
        for p in [1usize, 2, 4, 8, 12] {
            let out = modeled_run(&sys, &cluster, p, 1, division);
            let e = out.result.energy_kcal;
            let b = *base.get_or_insert(e);
            t.push(&[
                format!("{division:?}"),
                p.to_string(),
                format!("{e:.2}"),
                format!("{:+.6}", percent_error(e, b)),
                format!("{:.3}", out.report.imbalance()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_have_expected_shape() {
        let t1 = table1();
        assert_eq!(t1.len(), 8);
        let t2 = table2();
        assert_eq!(t2.len(), 9); // 5 packages + 4 of ours
        assert!(t2.to_text().contains("OCT_MPI+CILK"));
    }

    #[test]
    fn fig5_speedup_table_is_monotone_in_cores() {
        let t = fig5(Scale::Tiny);
        assert_eq!(t.len(), 7);
        let text = t.to_text();
        assert!(text.contains("OCT_MPI speedup"));
    }

    #[test]
    fn workdiv_study_runs() {
        let t = workdiv_study(Scale::Tiny);
        assert_eq!(t.len(), 10);
        let text = t.to_text();
        // node-based drift column must be all zeros
        assert!(text.contains("+0.000000"));
    }
}
