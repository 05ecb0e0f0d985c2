//! Proves the allocation-free superstep contract: once a [`Workspace`] has
//! warmed to the problem size, `run_serial_ws` performs **zero** heap
//! allocations (and zero frees) for an entire steady-state superstep.
//!
//! Lives in its own integration-test binary because it installs a counting
//! `#[global_allocator]`, and because the count is only meaningful when no
//! other test threads allocate concurrently — hence the single `#[test]`.

use gb_core::arena::{ListPath, Workspace};
use gb_core::params::GbParams;
use gb_core::runners::frame::run_frame_serial;
use gb_core::runners::serial::run_serial_ws;
use gb_core::system::GbSystem;
use gb_geom::Vec3;
use gb_molecule::{synthesize_protein, SyntheticParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates straight to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::SeqCst), FREES.load(Ordering::SeqCst))
}

#[test]
fn steady_state_superstep_allocates_nothing() {
    let mol = synthesize_protein(&SyntheticParams::with_atoms(700, 21));
    let sys = GbSystem::prepare(mol, GbParams::default());

    // build_tasks = 1: spawning scope threads allocates inside std, so
    // the zero-alloc contract covers the on-thread build (which is
    // byte-identical to any parallel task count anyway)
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
