use gb_core::arena::Workspace;
use gb_core::interaction::BornLists;
use gb_core::params::GbParams;
use gb_core::system::GbSystem;
use gb_core::workdiv::{even_ranges_into, work_balanced_segments_into};
use gb_molecule::{synthesize_protein, SyntheticParams};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 4242));
    let sys = GbSystem::prepare(mol, GbParams::default());
    let born = BornLists::build(&sys);
    let p = 8;
    let mut ws = Workspace::new();
    let mut seg = Vec::new();
    work_balanced_segments_into(born.leaf_work(), p, &mut seg);
    let mut atom_ranges = Vec::new();
    even_ranges_into(sys.num_atoms(), p, &mut atom_ranges);
    ws.plan.ensure_node_node(&sys, &born, &seg, &atom_ranges);
    let num_slots = ws.plan.num_slots;
    let num_nodes = ws.plan.num_nodes;
    println!("num_slots {num_slots} (nodes {num_nodes}, atoms {})", sys.num_atoms());
    for (r, seg_r) in seg.iter().enumerate() {
        let prod = ws.plan.produced(r);
        let node_w = prod.iter().filter(|&&s| (s as usize) < num_nodes).count();
        println!(
            "rank {r}: produced {} (nodes {node_w}, atoms {}) consumed {} seg {:?}",
            prod.len(),
            prod.len() - node_w,
            ws.plan.consumed(r).len(),
            seg_r
        );
    }
}
