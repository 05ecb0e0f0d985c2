//! Quickstart: compute the GB polarization energy of a molecule with every
//! available method and compare.
//!
//! ```text
//! cargo run --release --example quickstart [n_atoms]
//! ```

use gb_polarize::prelude::*;

fn main() {
    let n_atoms: usize =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1_000);

    println!("generating a protein-like molecule with {n_atoms} atoms...");
    let molecule = synthesize_protein(&SyntheticParams::with_atoms(n_atoms, 2013));

    println!("sampling the molecular surface and building octrees...");
    let t0 = std::time::Instant::now();
    let system = GbSystem::prepare(molecule, GbParams::default());
    println!(
        "  {} atoms, {} quadrature points, prepared in {:.1} ms",
        system.num_atoms(),
        system.num_qpoints(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Exact ground truth (O(M·N) + O(M²)).
    let t0 = std::time::Instant::now();
    let exact = par_naive_full(&system);
    let naive_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("naive exact     : {:>14.3} kcal/mol   ({naive_ms:.1} ms)", exact.energy_kcal);

    // Serial octree.
    let t0 = std::time::Instant::now();
    let serial = run_serial(&system);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let err = (serial.result.energy_kcal - exact.energy_kcal) / exact.energy_kcal * 100.0;
    println!(
        "octree serial   : {:>14.3} kcal/mol   ({serial_ms:.1} ms, {err:+.3}% vs naive)",
        serial.result.energy_kcal
    );

    // Shared-memory octree (OCT_CILK analog).
    let t0 = std::time::Instant::now();
    let shared = run_shared(&system);
    let shared_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "octree shared   : {:>14.3} kcal/mol   ({shared_ms:.1} ms on {} threads)",
        shared.result.energy_kcal,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Distributed octree on a simulated 12-core node (OCT_MPI analog).
    let cluster = SimCluster::single_node();
    let (dist, report) = run_distributed(&system, &cluster, 12, WorkDivision::NodeNode);
    println!(
        "octree MPI x12  : {:>14.3} kcal/mol   (modeled {:.2} ms, imbalance {:.2})",
        dist.energy_kcal,
        report.modeled_time(&cluster.cost) * 1e3,
        report.imbalance()
    );

    // Hybrid: 2 ranks x 6 threads (OCT_MPI+CILK analog).
    let (hyb, report) = run_hybrid(&system, &cluster, 2, 6);
    println!(
        "octree hybrid   : {:>14.3} kcal/mol   (modeled {:.2} ms, imbalance {:.2})",
        hyb.energy_kcal,
        report.modeled_time(&cluster.cost) * 1e3,
        report.imbalance()
    );

    // Born radius sanity: deepest vs shallowest atom.
    let radii = &serial.result.born_radii;
    let (min, max) = radii.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    println!("born radii      : min {min:.2} Å, max {max:.2} Å");
}
