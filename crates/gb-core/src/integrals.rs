//! The Born-radius integral kernels (paper Fig. 2).
//!
//! `APPROX-INTEGRALS(A, Q)` with `Q` a `T_Q` leaf: traverse `T_A` from the
//! root. If `A` and `Q` are well separated, the whole interaction collapses
//! to one far-field term collected at `A` (`node_s`); if `A` is a leaf, the
//! exact double sum lands on `A`'s atoms (`atom_s`); otherwise recurse.
//!
//! `PUSH-INTEGRALS-TO-ATOMS`: a top-down pass adds each atom's ancestor
//! node sums to its own, then converts the total integral to a Born radius.
//!
//! No runner walks the tree: every runner executes the interaction lists
//! of [`crate::interaction`], whose row sweeps make the same decisions.
//! [`accumulate_qleaf`] is the per-leaf traversal itself, kept as the
//! oracle the sweeps are tested against and as the reference the
//! traversal-speedup benchmarks divide by.
//!
//! Work accounting: one *work unit* per exact atom–point pair, one per
//! far-field node term, and 1/4 per traversal step (pointer chasing is
//! cheaper than an interaction but not free).

use crate::fastmath::MathMode;
use crate::gbmath::RadiiApprox;
use crate::system::GbSystem;
use gb_octree::{NodeId, Octree};

/// Cost weight of one tree-traversal step, in work units.
pub const TRAVERSAL_UNIT: f64 = 0.25;

/// Accumulators of the Born phase: `node_s[a_node]` holds far-field sums
/// collected at `T_A` nodes, `atom_s[ta_tree_pos]` exact sums per atom.
#[derive(Clone, Debug)]
pub struct IntegralAcc {
    pub node_s: Vec<f64>,
    pub atom_s: Vec<f64>,
}

impl IntegralAcc {
    /// Zeroed accumulators sized for a system.
    pub fn zeros(sys: &GbSystem) -> IntegralAcc {
        IntegralAcc {
            node_s: vec![0.0; sys.ta.num_nodes()],
            atom_s: vec![0.0; sys.num_atoms()],
        }
    }

    /// Zero-length accumulators — a reusable slot for
    /// [`IntegralAcc::reset_for`].
    pub fn empty() -> IntegralAcc {
        IntegralAcc { node_s: Vec::new(), atom_s: Vec::new() }
    }

    /// Re-zeroes and re-sizes for a system in place; no heap traffic once
    /// the capacities have warmed to the problem size.
    pub fn reset_for(&mut self, sys: &GbSystem) {
        self.node_s.clear();
        self.node_s.resize(sys.ta.num_nodes(), 0.0);
        self.atom_s.clear();
        self.atom_s.resize(sys.num_atoms(), 0.0);
    }

    /// Element-wise sum (used to merge per-rank / per-chunk partials).
    pub fn add(&mut self, other: &IntegralAcc) {
        assert_eq!(self.node_s.len(), other.node_s.len());
        assert_eq!(self.atom_s.len(), other.atom_s.len());
        for (a, b) in self.node_s.iter_mut().zip(&other.node_s) {
            *a += *b;
        }
        for (a, b) in self.atom_s.iter_mut().zip(&other.atom_s) {
            *a += *b;
        }
    }

    /// Re-zeroes both accumulators in place, keeping capacity.
    pub fn reset(&mut self) {
        for v in &mut self.node_s {
            *v = 0.0;
        }
        for v in &mut self.atom_s {
            *v = 0.0;
        }
    }

    /// [`IntegralAcc::to_flat`] into a reused buffer.
    pub fn to_flat_into(&self, flat: &mut Vec<f64>) {
        flat.clear();
        flat.extend_from_slice(&self.node_s);
        flat.extend_from_slice(&self.atom_s);
    }

    /// Overwrites from the flat representation (lengths must match).
    pub fn copy_from_flat(&mut self, flat: &[f64]) {
        let n = self.node_s.len();
        self.node_s.copy_from_slice(&flat[..n]);
        self.atom_s.copy_from_slice(&flat[n..]);
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.node_s.capacity() + self.atom_s.capacity()) * std::mem::size_of::<f64>()
    }

    /// Flattens into one vector (`node_s ++ atom_s`) for an `allreduce`.
    pub fn to_flat(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.node_s.len() + self.atom_s.len());
        v.extend_from_slice(&self.node_s);
        v.extend_from_slice(&self.atom_s);
        v
    }

    /// Rebuilds from the flat representation.
    pub fn from_flat(flat: &[f64], num_nodes: usize) -> IntegralAcc {
        IntegralAcc {
            node_s: flat[..num_nodes].to_vec(),
            atom_s: flat[num_nodes..].to_vec(),
        }
    }
}

/// The well-separated test of Fig. 2: `A` and `Q` may interact through
/// their pseudo-particles when every atom–point distance is within a factor
/// `(1+ε)^(1/6)` (`threshold`) of the centroid distance, i.e.
/// `(d + r_A + r_Q) ≤ threshold · (d − r_A − r_Q)` with `d > r_A + r_Q`.
#[inline(always)]
pub fn well_separated(dist: f64, ra: f64, rq: f64, threshold: f64) -> bool {
    let gap = dist - (ra + rq);
    gap > 0.0 && dist + (ra + rq) <= threshold * gap
}

/// Q-driven `APPROX-INTEGRALS`: contributions of the single `T_Q` leaf
/// `q_leaf` to the whole of `T_A`, accumulated into `acc`. Returns the work
/// units spent.
pub fn accumulate_qleaf<K: RadiiApprox>(
    sys: &GbSystem,
    q_leaf: NodeId,
    acc: &mut IntegralAcc,
    stack: &mut Vec<NodeId>,
) -> f64 {
    let tq = &sys.tq;
    let ta = &sys.ta;
    let threshold = sys.params.radii_mac_threshold();
    let qn = tq.node(q_leaf);
    let q_center = qn.centroid;
    let q_radius = qn.radius;
    let q_agg = sys.q_normals[q_leaf as usize];
    let mut work = 0.0;

    debug_assert!(stack.is_empty());
    stack.push(Octree::ROOT);
    while let Some(a_id) = stack.pop() {
        work += TRAVERSAL_UNIT;
        let a = ta.node(a_id);
        let d = a.centroid.dist(q_center);
        if well_separated(d, a.radius, q_radius, threshold) {
            // Far field: one pseudo-particle term collected at the node.
            let delta = q_center - a.centroid;
            let d2 = delta.norm_sq();
            acc.node_s[a_id as usize] += q_agg.dot(delta) * K::integrand(d2);
            work += 1.0;
        } else if a.is_leaf() {
            // Exact leaf–leaf double sum.
            let q_range = qn.range();
            let q_pos = &tq.points()[q_range.clone()];
            let q_nrm = &sys.q_normal_tree[q_range.clone()];
            let q_wgt = &sys.q_weight_tree[q_range];
            for ai in a.range() {
                let xa = ta.points()[ai];
                let mut s = 0.0;
                for ((&pq, &nq), &wq) in q_pos.iter().zip(q_nrm).zip(q_wgt) {
                    let delta = pq - xa;
                    let d2 = delta.norm_sq();
                    if d2 > 0.0 {
                        s += wq * nq.dot(delta) * K::integrand(d2);
                    }
                }
                acc.atom_s[ai] += s;
            }
            work += (a.count() * qn.count()) as f64;
        } else {
            stack.extend(a.children());
        }
    }
    work
}

/// `PUSH-INTEGRALS-TO-ATOMS` for atoms whose `T_A` tree positions fall in
/// `range`: writes Born radii (tree order) into `radii_tree[range]` and
/// returns the work spent. Nodes wholly outside the range are skipped, so a
/// rank only traverses its own part of the tree (paper §IV-C Step 4).
pub fn push_integrals_to_atoms<K: RadiiApprox>(
    sys: &GbSystem,
    acc: &IntegralAcc,
    range: std::ops::Range<usize>,
    radii_tree: &mut [f64],
) -> f64 {
    assert_eq!(radii_tree.len(), sys.num_atoms());
    let out = &mut radii_tree[range.clone()];
    push_integrals_scratch::<crate::fastmath::ExactMath, K>(sys, acc, range, out, &mut Vec::new())
}

/// [`push_integrals_to_atoms`] writing into a buffer sized for the range
/// alone (`out[i]` = radius of tree position `range.start + i`, so chunked
/// callers need no full-length scratch vector), with the traversal stack
/// supplied by the caller (allocation-free once warmed). The `M`
/// parameter is unused: the radius conversion is the scalar
/// [`RadiiApprox::radius`]. It stays only because the benchmark package
/// names it with a turbofish.
pub fn push_integrals_scratch<M: MathMode, K: RadiiApprox>(
    sys: &GbSystem,
    acc: &IntegralAcc,
    range: std::ops::Range<usize>,
    out: &mut [f64],
    stack: &mut Vec<(NodeId, f64)>,
) -> f64 {
    assert_eq!(out.len(), range.len());
    if sys.ta.is_empty() {
        return 0.0;
    }
    let mut work = 0.0;
    stack.clear();
    stack.push((Octree::ROOT, 0.0));
    while let Some((id, carried)) = stack.pop() {
        let n = sys.ta.node(id);
        // prune nodes disjoint from the assigned range
        if n.end as usize <= range.start || n.begin as usize >= range.end {
            continue;
        }
        work += TRAVERSAL_UNIT;
        let here = carried + acc.node_s[id as usize];
        if n.is_leaf() {
            let lo = (n.begin as usize).max(range.start);
            let hi = (n.end as usize).min(range.end);
            for pos in lo..hi {
                let s = here + acc.atom_s[pos];
                out[pos - range.start] = K::radius(s, sys.vdw_tree[pos], sys.born_cap);
                work += 1.0;
            }
        } else {
            for c in n.children() {
                stack.push((c, here));
            }
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbmath::R6;
    use crate::naive::naive_born_radii;
    use crate::params::GbParams;
    use gb_molecule::{synthesize_protein, SyntheticParams};
    use gb_surface::SurfaceParams;

    fn system(n: usize, eps: f64) -> GbSystem {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 5));
        GbSystem::prepare(mol, GbParams::default().with_epsilons(eps, eps))
    }

    fn radii_via_octree(sys: &GbSystem) -> Vec<f64> {
        let mut acc = IntegralAcc::zeros(sys);
        let mut stack = Vec::new();
        for &q in sys.tq.leaves() {
            accumulate_qleaf::<R6>(sys, q, &mut acc, &mut stack);
        }
        let mut radii_tree = vec![0.0; sys.num_atoms()];
        push_integrals_to_atoms::<R6>(sys, &acc, 0..sys.num_atoms(), &mut radii_tree);
        sys.radii_to_original(&radii_tree)
    }

    #[test]
    fn well_separated_matches_algebraic_form() {
        // (d + s)/(d − s) ≤ t  ⇔  d ≥ s (t+1)/(t−1)
        let t = 1.9f64.powf(1.0 / 6.0);
        let s = 2.0;
        let d_crit = s * (t + 1.0) / (t - 1.0);
        assert!(!well_separated(d_crit * 0.999, 1.0, 1.0, t));
        assert!(well_separated(d_crit * 1.001, 1.0, 1.0, t));
        // overlapping nodes are never separated
        assert!(!well_separated(1.0, 1.0, 1.0, t));
    }

    #[test]
    fn tiny_epsilon_recovers_naive_radii() {
        // ε → 0 forces exact evaluation everywhere.
        let sys = system(150, 1e-9);
        let octree = radii_via_octree(&sys);
        let naive = naive_born_radii(&sys);
        for (a, b) in octree.iter().zip(&naive) {
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn default_epsilon_radii_close_to_naive() {
        let sys = system(400, 0.9);
        let octree = radii_via_octree(&sys);
        let naive = naive_born_radii(&sys);
        let mut worst: f64 = 0.0;
        for (a, b) in octree.iter().zip(&naive) {
            worst = worst.max(((a - b) / b).abs());
        }
        assert!(worst < 0.15, "worst per-atom radius error {worst}");
    }

    #[test]
    fn segmented_push_equals_full_push() {
        let sys = system(250, 0.9);
        let mut acc = IntegralAcc::zeros(&sys);
        let mut stack = Vec::new();
        for &q in sys.tq.leaves() {
            accumulate_qleaf::<R6>(&sys, q, &mut acc, &mut stack);
        }
        let mut full = vec![0.0; sys.num_atoms()];
        push_integrals_to_atoms::<R6>(&sys, &acc, 0..sys.num_atoms(), &mut full);
        let mut seg = vec![0.0; sys.num_atoms()];
        for r in crate::workdiv::atom_segments(sys.num_atoms(), 7) {
            push_integrals_to_atoms::<R6>(&sys, &acc, r, &mut seg);
        }
        assert_eq!(full, seg);
    }

    #[test]
    fn flat_roundtrip() {
        let sys = system(100, 0.9);
        let mut acc = IntegralAcc::zeros(&sys);
        let mut stack = Vec::new();
        for &q in sys.tq.leaves() {
            accumulate_qleaf::<R6>(&sys, q, &mut acc, &mut stack);
        }
        let flat = acc.to_flat();
        let back = IntegralAcc::from_flat(&flat, sys.ta.num_nodes());
        assert_eq!(acc.node_s, back.node_s);
        assert_eq!(acc.atom_s, back.atom_s);
    }

    #[test]
    fn larger_epsilon_means_less_work() {
        let loose = system(400, 0.9);
        let strict = system(400, 0.1);
        let work_of = |sys: &GbSystem| {
            let mut acc = IntegralAcc::zeros(sys);
            let mut stack = Vec::new();
            let mut w = 0.0;
            for &q in sys.tq.leaves() {
                w += accumulate_qleaf::<R6>(sys, q, &mut acc, &mut stack);
            }
            w
        };
        let w_loose = work_of(&loose);
        let w_strict = work_of(&strict);
        assert!(
            w_loose < w_strict,
            "ε=0.9 work {w_loose} should be below ε=0.1 work {w_strict}"
        );
    }

    #[test]
    fn radii_are_at_least_vdw() {
        let sys = system(300, 0.9);
        let radii = radii_via_octree(&sys);
        for (i, &r) in radii.iter().enumerate() {
            assert!(r >= sys.molecule.radii()[i] - 1e-12, "atom {i}");
        }
    }

    #[test]
    fn buried_atoms_have_larger_radii_than_surface_atoms() {
        // deepest atom (closest to centroid) should have a Born radius
        // above the average surface atom's.
        let sys = {
            let mol = synthesize_protein(&SyntheticParams::with_atoms(800, 5));
            GbSystem::prepare(
                mol,
                GbParams::default().with_surface(SurfaceParams::default()),
            )
        };
        let radii = radii_via_octree(&sys);
        let c = {
            let mut s = gb_geom::Vec3::ZERO;
            for &p in sys.molecule.positions() {
                s += p;
            }
            s / sys.num_atoms() as f64
        };
        let mut deepest = 0;
        let mut shallowest = 0;
        for (i, p) in sys.molecule.positions().iter().enumerate() {
            if p.dist_sq(c) < sys.molecule.positions()[deepest].dist_sq(c) {
                deepest = i;
            }
            if p.dist_sq(c) > sys.molecule.positions()[shallowest].dist_sq(c) {
                shallowest = i;
            }
        }
        assert!(
            radii[deepest] > radii[shallowest],
            "deep atom R {} should exceed surface atom R {}",
            radii[deepest],
            radii[shallowest]
        );
    }
}
