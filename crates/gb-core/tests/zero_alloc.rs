//! Proves the allocation-free steady-state contracts: once a [`Workspace`]
//! has warmed to the problem size, `run_serial_ws` performs **zero** heap
//! allocations (and zero frees) for an entire steady-state superstep, and
//! once a one-thread [`PairScratch`] has warmed, so does a docking pose.
//!
//! Lives in its own integration-test binary because it installs a counting
//! `#[global_allocator]`. The counts are per thread, so each test counts
//! only what its own thread allocates and the tests may run concurrently;
//! every measured path runs wholly on the calling thread.

use gb_core::arena::{ListPath, Workspace};
use gb_core::pair::{evaluate_pair_ws, Monomer, PairScratch};
use gb_core::params::GbParams;
use gb_core::runners::frame::run_frame_serial;
use gb_core::runners::serial::run_serial_ws;
use gb_core::system::GbSystem;
use gb_geom::{RigidTransform, Vec3};
use gb_molecule::{synthesize_protein, SyntheticParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialized and drop-free, so touching them never allocates
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// Adds one to this thread's counter (a no-op while the thread is torn
/// down).
fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: delegates straight to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `(allocations, frees)` made so far on the calling thread.
fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

#[test]
fn steady_state_superstep_allocates_nothing() {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(700, 21));
    let sys = GbSystem::prepare(mol, GbParams::default());

    // the serial runner: spawning scope threads allocates inside std, so
    // the zero-alloc contract covers the one-thread path, list builds
    // included
    let mut ws = Workspace::new();

    // two warm-up supersteps grow every arena to its steady-state
    // capacity (the second catches capacity ratchets like Vec doubling)
    let warm = run_serial_ws(&sys, &mut ws);
    let warm2 = run_serial_ws(&sys, &mut ws);
    assert_eq!(warm.energy_kcal.to_bits(), warm2.energy_kcal.to_bits());

    let (a0, f0) = counts();
    let steady = run_serial_ws(&sys, &mut ws);
    let (a1, f1) = counts();

    assert_eq!(steady.energy_kcal.to_bits(), warm.energy_kcal.to_bits());
    assert_eq!(
        (a1 - a0, f1 - f0),
        (0, 0),
        "steady-state superstep touched the heap \
         ({} allocations, {} frees)",
        a1 - a0,
        f1 - f0,
    );

    // Warm *frame* steps: refit + exact-mode list rebuild into the warm
    // arenas + execution over the same workspace. Two fixed position sets
    // alternate (A ↔ B) so every buffer sees both transitions during
    // warm-up; the measured steady-state frame step must not touch the
    // heap either.
    let mol = synthesize_protein(&SyntheticParams::with_atoms(700, 22));
    let mut sys = GbSystem::prepare(mol, GbParams::default());
    let pos_a: Vec<Vec3> = sys.molecule.positions().to_vec();
    let pos_b: Vec<Vec3> = pos_a
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            // deterministic sub-0.01 Å displacement field, no RNG state
            let t = i as f64 * 0.37;
            p + Vec3::new(t.sin(), (1.7 * t).cos(), (0.9 * t).sin()) * 0.008
        })
        .collect();
    let mut ws = Workspace::new();
    ws.enable_frame_tracking(0.0);
    run_serial_ws(&sys, &mut ws); // frame 0: cold build
    for cycle in 0..2 {
        let o1 = run_frame_serial(&mut sys, &pos_b, 0.0, &mut ws);
        let o2 = run_frame_serial(&mut sys, &pos_a, 0.0, &mut ws);
        assert_eq!(ws.last_born_path, ListPath::Rebuilt, "cycle {cycle}");
        assert!(o1.output.energy_kcal.is_finite() && o2.output.energy_kcal.is_finite());
    }

    let (a0, f0) = counts();
    let out = run_frame_serial(&mut sys, &pos_b, 0.0, &mut ws);
    let (a1, f1) = counts();

    assert!(matches!(out.update, gb_core::system::FrameUpdate::Refit(_)));
    assert_eq!(ws.last_born_path, ListPath::Rebuilt);
    assert_eq!(ws.last_energy_path, ListPath::Rebuilt);
    assert_eq!(
        (a1 - a0, f1 - f0),
        (0, 0),
        "warm frame step touched the heap ({} allocations, {} frees)",
        a1 - a0,
        f1 - f0,
    );
}

#[test]
fn warm_one_thread_pose_allocates_nothing() {
    let receptor = Monomer::build(
        synthesize_protein(&SyntheticParams::with_atoms(600, 31)),
        GbParams::default(),
    );
    let ligand = Monomer::build(
        synthesize_protein(&SyntheticParams::with_atoms(60, 32)),
        GbParams::default(),
    );
    let pose_a = RigidTransform::rotation_about(Vec3::ZERO, Vec3::new(0.2, 0.9, 0.3), 0.8)
        * RigidTransform::translation(Vec3::new(14.0, -2.0, 1.0));
    let pose_b = RigidTransform::translation(Vec3::new(-12.0, 5.0, 3.0));

    // One thread: the whole pose runs on the calling thread. At T > 1 the
    // ligand's Born side, the receptor's Born atom segments and the energy
    // row segments run on spawned scoped threads, and spawning a thread
    // allocates inside std, so only the one-thread path is
    // allocation-free.
    let mut scratch = PairScratch::with_threads(1);
    // both poses twice, so every buffer sees both transitions (and any
    // Vec-doubling ratchet) during warm-up
    for _ in 0..2 {
        evaluate_pair_ws(&receptor, &ligand, &pose_a, &mut scratch);
        evaluate_pair_ws(&receptor, &ligand, &pose_b, &mut scratch);
    }
    let warm = evaluate_pair_ws(&receptor, &ligand, &pose_a, &mut scratch);

    let (a0, f0) = counts();
    let steady = evaluate_pair_ws(&receptor, &ligand, &pose_a, &mut scratch);
    let (a1, f1) = counts();

    assert_eq!(steady.energy_kcal.to_bits(), warm.energy_kcal.to_bits());
    assert_eq!(
        (a1 - a0, f1 - f0),
        (0, 0),
        "warm pose touched the heap ({} allocations, {} frees)",
        a1 - a0,
        f1 - f0,
    );
}
