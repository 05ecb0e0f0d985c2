//! Born-radius binning for the far-field energy evaluation (paper Fig. 3).
//!
//! With Born radii known, atoms are bucketed into geometric bins
//! `[R_min(1+ε)^k, R_min(1+ε)^{k+1})`, and every `T_A` node `U` carries the
//! charge histogram `q_U[k] = Σ_{u∈U, R_u ∈ bin k} q_u`. A far node–leaf
//! interaction then costs `bins²` histogram terms instead of
//! `|U|·|V|` pair terms, with `R_i R_j ≈ R_min²(1+ε)^{i+j}` inside `f_GB`.

use crate::system::GbSystem;

/// Per-node charge histograms plus the bin geometry.
#[derive(Clone, Debug)]
pub struct ChargeBins {
    /// Smallest Born radius in the system.
    pub r_min: f64,
    /// `ln(1+ε)`.
    log_base: f64,
    /// Number of bins `⌈log_{1+ε}(R_max/R_min)⌉ + 1`.
    pub num_bins: usize,
    /// Flattened histograms: `hist[node * num_bins + k]`.
    hist: Vec<f64>,
    /// Representative radius per bin: the paper's Fig. 3 lower bin edge
    /// `R_min (1+ε)^k`. Its systematic `R_i R_j` underestimate does not
    /// become a one-sided energy bias, because the far-field pair products
    /// carry mixed signs (EXPERIMENTS.md, `tests/bin_placement.rs`).
    pub bin_radius: Vec<f64>,
    /// CSR offsets into `nz_charge`/`nz_radius`, one slot per node plus a
    /// terminator: node `U`'s nonzero histogram entries live at
    /// `nz_off[U]..nz_off[U+1]`.
    nz_off: Vec<u32>,
    /// Nonzero histogram charges, per node, in ascending bin order.
    nz_charge: Vec<f64>,
    /// Representative radius of each entry in `nz_charge`.
    nz_radius: Vec<f64>,
    /// Bin index of each entry in `nz_charge` (ascending within a node) —
    /// the key into the hoisted pair tables below.
    nz_bin: Vec<u32>,
    /// Hoisted bin-pair radius products `bin_radius[i] * bin_radius[j]`,
    /// row-major (`i * num_bins + j`, `K²` entries): the far-field kernel
    /// reads `ri*rj` from here instead of multiplying inside the pair loop.
    pair_rr: Vec<f64>,
    /// Convolution radii over `s = i + j` (`2K−1` entries):
    /// `bin_radius[s/2] * bin_radius[s - s/2]`. Under the geometric
    /// representative every split of `s` gives the same product up to one
    /// rounding (`R_i R_j = R_min²(1+ε)^{i+j}`), so a `K²` contraction
    /// collapses to `2K−1` terms keyed by `s` alone.
    conv_radius: Vec<f64>,
}

/// Fills the hoisted bin-pair tables from the representative radii:
/// `pair_rr[i*K+j] = r[i]*r[j]` (the exact product the scalar far-field
/// kernel computes) and `conv_radius[s] = r[s/2]*r[s-s/2]` (the balanced
/// split representing every `(i,j)` with `i+j = s`).
pub(crate) fn pair_tables_into(
    bin_radius: &[f64],
    pair_rr: &mut Vec<f64>,
    conv_radius: &mut Vec<f64>,
) {
    let k = bin_radius.len();
    pair_rr.clear();
    for &ri in bin_radius {
        for &rj in bin_radius {
            pair_rr.push(ri * rj);
        }
    }
    conv_radius.clear();
    if k > 0 {
        conv_radius.extend((0..2 * k - 1).map(|s| bin_radius[s / 2] * bin_radius[s - s / 2]));
    }
}

/// Compacts per-node histograms into CSR lists of their nonzero entries
/// (ascending bin order), so the far-field contraction iterates exactly the
/// pairs it charges work for instead of testing `== 0.0` inside the loop.
fn nonzero_lists(
    hist: &[f64],
    num_bins: usize,
    bin_radius: &[f64],
) -> (Vec<u32>, Vec<f64>, Vec<f64>, Vec<u32>) {
    let mut nz_off = Vec::new();
    let mut nz_charge = Vec::new();
    let mut nz_radius = Vec::new();
    let mut nz_bin = Vec::new();
    nonzero_lists_into(
        hist,
        num_bins,
        bin_radius,
        &mut nz_off,
        &mut nz_charge,
        &mut nz_radius,
        &mut nz_bin,
    );
    (nz_off, nz_charge, nz_radius, nz_bin)
}

/// [`nonzero_lists`] into reused buffers (cleared, capacity kept).
fn nonzero_lists_into(
    hist: &[f64],
    num_bins: usize,
    bin_radius: &[f64],
    nz_off: &mut Vec<u32>,
    nz_charge: &mut Vec<f64>,
    nz_radius: &mut Vec<f64>,
    nz_bin: &mut Vec<u32>,
) {
    let n_nodes = hist.len() / num_bins.max(1);
    nz_off.clear();
    nz_charge.clear();
    nz_radius.clear();
    nz_bin.clear();
    nz_off.push(0u32);
    for node in 0..n_nodes {
        let row = &hist[node * num_bins..(node + 1) * num_bins];
        for (k, &q) in row.iter().enumerate() {
            if q != 0.0 {
                nz_charge.push(q);
                nz_radius.push(bin_radius[k]);
                nz_bin.push(k as u32);
            }
        }
        nz_off.push(nz_charge.len() as u32);
    }
}

/// Bin geometry shared by the replicated and distributed builders: returns
/// `(r_min, ln base, bin count)` and writes each bin's lower-edge radius
/// `R_min (1+ε)^k` into `bin_radius`.
fn bin_geometry(
    mut r_min: f64,
    mut r_max: f64,
    eps: f64,
    bin_radius: &mut Vec<f64>,
) -> (f64, f64, usize) {
    if !r_min.is_finite() || r_min <= 0.0 {
        r_min = 1.0;
        r_max = 1.0;
    }
    let mut log_base = (1.0 + eps).ln();
    let mut num_bins = ((r_max / r_min).ln() / log_base).floor() as usize + 1;
    // Cap the bin count: for very small ε the geometric bins would
    // explode in number, yet the far-field branch they serve is almost
    // never taken at such ε (its acceptance radius grows as 1 + 2/ε).
    // Widen the bins to span [R_min, R_max] with at most MAX_BINS.
    const MAX_BINS: usize = 64;
    if num_bins > MAX_BINS {
        num_bins = MAX_BINS;
        log_base = (r_max / r_min).ln() / (MAX_BINS as f64 - 1.0).max(1.0) + f64::EPSILON;
    }
    bin_radius.clear();
    bin_radius.extend((0..num_bins).map(|k| r_min * (k as f64 * log_base).exp()));
    (r_min, log_base, num_bins)
}

impl ChargeBins {
    /// Empty bins holding no nodes — a reusable slot for
    /// [`ChargeBins::recompute`].
    pub fn empty() -> ChargeBins {
        ChargeBins {
            r_min: 1.0,
            log_base: 1.0,
            num_bins: 0,
            hist: Vec::new(),
            bin_radius: Vec::new(),
            nz_off: Vec::new(),
            nz_charge: Vec::new(),
            nz_radius: Vec::new(),
            nz_bin: Vec::new(),
            pair_rr: Vec::new(),
            conv_radius: Vec::new(),
        }
    }

    /// Builds histograms for every `T_A` node from Born radii in **tree
    /// order**, with the energy-phase ε of `sys.params`.
    pub fn compute(sys: &GbSystem, radii_tree: &[f64]) -> ChargeBins {
        let mut bins = Self::empty();
        bins.recompute(sys, radii_tree);
        bins
    }

    /// Recomputes in place, reusing every buffer (allocation-free once the
    /// capacities have warmed to the problem size).
    pub fn recompute(&mut self, sys: &GbSystem, radii_tree: &[f64]) {
        assert_eq!(radii_tree.len(), sys.num_atoms());
        let (mut lo, mut hi) = (f64::INFINITY, 0.0_f64);
        for &r in radii_tree {
            lo = lo.min(r);
            hi = hi.max(r);
        }
        let (r_min, log_base, num_bins) =
            bin_geometry(lo, hi, sys.params.eps_energy, &mut self.bin_radius);
        self.r_min = r_min;
        self.log_base = log_base;
        self.num_bins = num_bins;

        let n_nodes = sys.ta.num_nodes();
        self.hist.clear();
        self.hist.resize(n_nodes * num_bins, 0.0);
        let bin_of = |r: f64| -> usize {
            (((r / r_min).ln() / log_base) as usize).min(num_bins - 1)
        };
        // Bottom-up: leaves bin their atoms; parents sum children.
        for id in (0..n_nodes).rev() {
            let node = sys.ta.node(id as u32);
            let base = id * num_bins;
            if node.is_leaf() {
                for pos in node.range() {
                    let k = bin_of(radii_tree[pos]);
                    self.hist[base + k] += sys.charge_tree[pos];
                }
            } else {
                for c in node.children() {
                    let cbase = c as usize * num_bins;
                    for k in 0..num_bins {
                        let v = self.hist[cbase + k];
                        self.hist[base + k] += v;
                    }
                }
            }
        }
        nonzero_lists_into(
            &self.hist,
            num_bins,
            &self.bin_radius,
            &mut self.nz_off,
            &mut self.nz_charge,
            &mut self.nz_radius,
            &mut self.nz_bin,
        );
        pair_tables_into(&self.bin_radius, &mut self.pair_rr, &mut self.conv_radius);
    }

    /// Distributed builder: every rank contributes only its own atoms'
    /// leaf-level histogram entries, `allreduce` combines them, and each
    /// rank finishes the bottom-up internal-node accumulation locally from
    /// the (replicated) skeleton. With the same global radius extremes
    /// this produces bit-identical bins to [`ChargeBins::compute`].
    pub fn compute_distributed(
        sys: &GbSystem,
        my_radii: &[f64],
        my_range: std::ops::Range<usize>,
        my_charges: &[f64],
        r_min_global: f64,
        r_max_global: f64,
        allreduce: impl FnOnce(&mut [f64]),
    ) -> ChargeBins {
        assert_eq!(my_radii.len(), my_range.len());
        assert_eq!(my_charges.len(), my_range.len());
        let mut bin_radius = Vec::new();
        let (r_min, log_base, num_bins) =
            bin_geometry(r_min_global, r_max_global, sys.params.eps_energy, &mut bin_radius);

        let n_nodes = sys.ta.num_nodes();
        let mut hist = vec![0.0; n_nodes * num_bins];
        let bin_of = |r: f64| -> usize {
            (((r / r_min).ln() / log_base) as usize).min(num_bins - 1)
        };
        // leaf-level entries for own atoms only
        for (id, node) in sys.ta.nodes().iter().enumerate() {
            if !node.is_leaf() {
                continue;
            }
            let lo = (node.begin as usize).max(my_range.start);
            let hi = (node.end as usize).min(my_range.end);
            for pos in lo..hi {
                let local = pos - my_range.start;
                let k = bin_of(my_radii[local]);
                hist[id * num_bins + k] += my_charges[local];
            }
        }
        allreduce(&mut hist);
        // bottom-up internal accumulation from the skeleton
        for id in (0..n_nodes).rev() {
            let node = sys.ta.node(id as u32);
            if node.is_leaf() {
                continue;
            }
            let base = id * num_bins;
            for c in node.children() {
                let cbase = c as usize * num_bins;
                for k in 0..num_bins {
                    let v = hist[cbase + k];
                    hist[base + k] += v;
                }
            }
        }
        let (nz_off, nz_charge, nz_radius, nz_bin) = nonzero_lists(&hist, num_bins, &bin_radius);
        let (mut pair_rr, mut conv_radius) = (Vec::new(), Vec::new());
        pair_tables_into(&bin_radius, &mut pair_rr, &mut conv_radius);
        ChargeBins {
            r_min,
            log_base,
            num_bins,
            hist,
            bin_radius,
            nz_off,
            nz_charge,
            nz_radius,
            nz_bin,
            pair_rr,
            conv_radius,
        }
    }

    /// Histogram of one node.
    #[inline(always)]
    pub fn node_hist(&self, node: u32) -> &[f64] {
        let base = node as usize * self.num_bins;
        &self.hist[base..base + self.num_bins]
    }

    /// Nonzero histogram entries of one node as `(charges, radii)` parallel
    /// slices in ascending bin order — the far-field contraction's operand.
    #[inline(always)]
    pub fn node_nonzero(&self, node: u32) -> (&[f64], &[f64]) {
        let lo = self.nz_off[node as usize] as usize;
        let hi = self.nz_off[node as usize + 1] as usize;
        (&self.nz_charge[lo..hi], &self.nz_radius[lo..hi])
    }

    /// Number of nonzero histogram entries of one node.
    #[inline(always)]
    pub fn num_nonzero(&self, node: u32) -> usize {
        (self.nz_off[node as usize + 1] - self.nz_off[node as usize]) as usize
    }

    /// Bin indices of one node's nonzero histogram entries (parallel to
    /// [`ChargeBins::node_nonzero`], ascending).
    #[inline(always)]
    pub fn node_nonzero_bins(&self, node: u32) -> &[u32] {
        let lo = self.nz_off[node as usize] as usize;
        let hi = self.nz_off[node as usize + 1] as usize;
        &self.nz_bin[lo..hi]
    }

    /// Hoisted `bin_radius[i] * bin_radius[j]` table, row-major
    /// (`i * num_bins + j`).
    #[inline(always)]
    pub fn pair_rr_table(&self) -> &[f64] {
        &self.pair_rr
    }

    /// Convolution radii over `s = i + j` (`2·num_bins − 1` entries,
    /// `bin_radius[s/2] * bin_radius[s - s/2]`).
    #[inline(always)]
    pub fn conv_radius_table(&self) -> &[f64] {
        &self.conv_radius
    }

    /// Bin index of a Born radius.
    #[inline]
    pub fn bin_of(&self, r: f64) -> usize {
        (((r / self.r_min).ln() / self.log_base) as usize).min(self.num_bins - 1)
    }

    /// Memory footprint of the histograms in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.hist.capacity()
            + self.nz_charge.capacity()
            + self.nz_radius.capacity()
            + self.pair_rr.capacity()
            + self.conv_radius.capacity())
            * std::mem::size_of::<f64>()
            + (self.nz_off.capacity() + self.nz_bin.capacity()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrals::{accumulate_qleaf, push_integrals_to_atoms, IntegralAcc};
    use crate::params::GbParams;
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn system_with_radii(n: usize) -> (GbSystem, Vec<f64>) {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, 13));
        let sys = GbSystem::prepare(mol, GbParams::default());
        let mut acc = IntegralAcc::zeros(&sys);
        let mut stack = Vec::new();
        for &q in sys.tq.leaves() {
            accumulate_qleaf::<crate::gbmath::R6>(&sys, q, &mut acc, &mut stack);
        }
        let mut radii_tree = vec![0.0; sys.num_atoms()];
        push_integrals_to_atoms::<crate::gbmath::R6>(&sys, &acc, 0..sys.num_atoms(), &mut radii_tree);
        (sys, radii_tree)
    }

    #[test]
    fn root_histogram_sums_all_charge() {
        let (sys, radii) = system_with_radii(300);
        let bins = ChargeBins::compute(&sys, &radii);
        let total: f64 = bins.node_hist(0).iter().sum();
        let want: f64 = sys.molecule.charges().iter().sum();
        assert!((total - want).abs() < 1e-9, "{total} vs {want}");
    }

    #[test]
    fn parent_histograms_are_child_sums() {
        let (sys, radii) = system_with_radii(400);
        let bins = ChargeBins::compute(&sys, &radii);
        for (id, node) in sys.ta.nodes().iter().enumerate() {
            if node.is_leaf() {
                continue;
            }
            for k in 0..bins.num_bins {
                let child_sum: f64 =
                    node.children().map(|c| bins.node_hist(c)[k]).sum();
                let got = bins.node_hist(id as u32)[k];
                assert!((got - child_sum).abs() < 1e-9, "node {id} bin {k}");
            }
        }
    }

    #[test]
    fn every_radius_falls_in_its_bin() {
        let (sys, radii) = system_with_radii(250);
        let bins = ChargeBins::compute(&sys, &radii);
        let width = bins.bin_radius.get(1).map_or(2.0, |b| b / bins.bin_radius[0]);
        for &r in &radii {
            let k = bins.bin_of(r);
            // default = lower-edge representative: bin k covers
            // [bin_radius[k], bin_radius[k] * width)
            let lo = bins.bin_radius[k];
            let hi = lo * width;
            assert!(r >= lo * (1.0 - 1e-9) && r < hi * (1.0 + 1e-9), "r={r} bin {k}: [{lo},{hi})");
        }
    }

    #[test]
    fn bin_count_shrinks_with_larger_epsilon() {
        let (sys, radii) = system_with_radii(300);
        let loose = ChargeBins::compute(&sys, &radii);
        let mut strict_params = sys.clone();
        strict_params.params.eps_energy = 0.1;
        let strict = ChargeBins::compute(&strict_params, &radii);
        assert!(loose.num_bins <= strict.num_bins);
        assert!(strict.num_bins >= 2);
    }

    #[test]
    fn nonzero_lists_match_histograms() {
        let (sys, radii) = system_with_radii(350);
        let bins = ChargeBins::compute(&sys, &radii);
        for id in 0..sys.ta.num_nodes() as u32 {
            let hist = bins.node_hist(id);
            let (qs, rs) = bins.node_nonzero(id);
            let want: Vec<(f64, f64)> = hist
                .iter()
                .enumerate()
                .filter(|&(_, &q)| q != 0.0)
                .map(|(k, &q)| (q, bins.bin_radius[k]))
                .collect();
            assert_eq!(bins.num_nonzero(id), want.len(), "node {id}");
            let ks = bins.node_nonzero_bins(id);
            assert_eq!(ks.len(), want.len(), "node {id}");
            for (i, &(q, r)) in want.iter().enumerate() {
                assert_eq!(qs[i], q, "node {id} entry {i}");
                assert_eq!(rs[i], r, "node {id} entry {i}");
                assert_eq!(bins.bin_radius[ks[i] as usize], r, "node {id} entry {i}");
            }
        }
    }

    #[test]
    fn pair_tables_match_radius_products() {
        let (sys, radii) = system_with_radii(350);
        let bins = ChargeBins::compute(&sys, &radii);
        let k = bins.num_bins;
        let rr = bins.pair_rr_table();
        assert_eq!(rr.len(), k * k);
        for i in 0..k {
            for j in 0..k {
                assert_eq!(
                    rr[i * k + j].to_bits(),
                    (bins.bin_radius[i] * bins.bin_radius[j]).to_bits(),
                    "pair ({i},{j})"
                );
            }
        }
        let conv = bins.conv_radius_table();
        assert_eq!(conv.len(), 2 * k - 1);
        // any split of s matches the balanced one within a couple of ulps
        // (geometric representative: both are R_min²(1+ε)^s up to rounding)
        for i in 0..k {
            for j in 0..k {
                let exact = bins.bin_radius[i] * bins.bin_radius[j];
                let rel = ((conv[i + j] - exact) / exact).abs();
                assert!(rel < 1e-14, "split ({i},{j}) rel {rel}");
            }
        }
    }

    #[test]
    fn uniform_radii_collapse_to_one_bin() {
        let (sys, _) = system_with_radii(100);
        let radii = vec![2.0; sys.num_atoms()];
        let bins = ChargeBins::compute(&sys, &radii);
        assert_eq!(bins.num_bins, 1);
        assert!((bins.r_min - 2.0).abs() < 1e-12);
    }
}
