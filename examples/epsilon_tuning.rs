//! The speed–accuracy dial — a miniature of the paper's Fig. 10: sweep the
//! energy-phase approximation parameter ε and report error vs the exact
//! energy alongside work saved.
//!
//! ```text
//! cargo run --release --example epsilon_tuning [n_atoms]
//! ```

use gb_polarize::core::error::percent_error;
use gb_polarize::prelude::*;

fn main() {
    let n_atoms: usize =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2_000);

    let molecule = synthesize_protein(&SyntheticParams::with_atoms(n_atoms, 10));
    println!("molecule: {} atoms", molecule.len());

    // Exact reference (same radii path with ε so small everything is exact).
    let exact_sys =
        GbSystem::prepare(molecule.clone(), GbParams::default().with_epsilons(1e-9, 1e-9));
    let exact = run_shared(&exact_sys).result.energy_kcal;
    println!("exact octree energy (ε→0): {exact:.3} kcal/mol\n");

    println!(
        "{:>5} | {:>14} | {:>8} | {:>12} | {:>8}",
        "ε", "E (kcal/mol)", "err %", "work units", "speedup"
    );
    let mut base_work = None;
    for eps in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
        // paper Fig. 10 protocol: Born-radius ε fixed at 0.9, energy ε varies
        let sys =
            GbSystem::prepare(molecule.clone(), GbParams::default().with_epsilons(0.9, eps));
        let out = run_shared(&sys);
        let work = out.born_work + out.energy_work;
        let base = *base_work.get_or_insert(work);
        println!(
            "{:>5.1} | {:>14.3} | {:>8.3} | {:>12.0} | {:>8.2}",
            eps,
            out.result.energy_kcal,
            percent_error(out.result.energy_kcal, exact),
            work,
            base / work
        );
    }
}
