//! Plan-driven sparse collectives shared by the cluster rank program
//! (distributed and hybrid) and the data-distributed runner: the two-stage
//! replacement of the dense integral allreduce (owner-computes sparse
//! reduce-scatter + targeted allgatherv). Stage 1 has one transport per
//! kind of producer set — [`reduce_to_owners_single`] when the replicated
//! plan knows every rank's producers (node division),
//! [`reduce_pairs_to_owners`] when it does not — and stage 2 is
//! [`publish_to_consumers`]. See [`commplan`](crate::commplan) for why the
//! result is bit-identical to the dense path.

use crate::commplan::{manifest_range, owner_interval, CommPlan};
use crate::integrals::IntegralAcc;
use gb_cluster::{Comm, CommError};

/// Value of flat slot `slot` in the split accumulator.
#[inline]
fn flat_get(acc: &IntegralAcc, num_nodes: usize, slot: usize) -> f64 {
    if slot < num_nodes {
        acc.node_s[slot]
    } else {
        acc.atom_s[slot - num_nodes]
    }
}

/// Stage 1 for node division: every rank ships the values of
/// `produced(me) ∩ owned(o)` to each owner `o` in one staged exchange, and
/// reduces the segments it owns **in ascending rank order starting from
/// +0.0** — the dense allreduce's exact summation order. `owned_vals`
/// receives this rank's owned interval.
///
/// Because the manifests come from the *replicated* plan, a healed replay
/// re-derives exactly the failed attempt's produced∩owned payloads and
/// re-ships them with no renegotiation.
pub(crate) fn reduce_to_owners_single(
    comm: &mut Comm,
    plan: &CommPlan,
    acc: &IntegralAcc,
    owned_vals: &mut Vec<f64>,
) -> Result<(), CommError> {
    let p = comm.size();
    let me = comm.rank();
    let mine = plan.produced(me);
    let outgoing: Vec<Vec<f64>> = (0..p)
        .map(|o| {
            let m = plan.produced_owned(me, o);
            mine[m]
                .iter()
                .map(|&s| flat_get(acc, plan.num_nodes, s as usize))
                .collect()
        })
        .collect();
    let incoming = comm.try_sparse_exchange(&outgoing)?;
    let interval = plan.owned(me);
    owned_vals.clear();
    owned_vals.resize(interval.len(), 0.0);
    for (r, vals) in incoming.iter().enumerate() {
        let m = plan.produced_owned(r, me);
        let slots = &plan.produced(r)[m];
        debug_assert_eq!(slots.len(), vals.len());
        for (&s, &v) in slots.iter().zip(vals) {
            owned_vals[s as usize - interval.start] += v;
        }
    }
    Ok(())
}

/// Stage 1 for runs whose producer sets are not statically derivable
/// (atom-based division, data-distributed traversals): each rank scans
/// its accumulator for slots with non-zero *bits* (a `-0.0` contribution
/// must still travel) and ships `(slot, value)` pairs to the slot's
/// owner. Skipping exact `+0.0` contributions cannot change the owner's
/// running sum, so the reduction — again in ascending rank order from
/// +0.0 — stays bit-identical to the dense allreduce.
pub(crate) fn reduce_pairs_to_owners(
    comm: &mut Comm,
    num_slots: usize,
    num_nodes: usize,
    acc: &IntegralAcc,
    owned_vals: &mut Vec<f64>,
) -> Result<(), CommError> {
    let p = comm.size();
    let me = comm.rank();
    let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); p];
    let push = |slot: usize, v: f64, outgoing: &mut Vec<Vec<f64>>| {
        if v.to_bits() != 0 {
            let o = owner_of(num_slots, p, slot);
            outgoing[o].push(slot as f64);
            outgoing[o].push(v);
        }
    };
    for (i, &v) in acc.node_s.iter().enumerate() {
        push(i, v, &mut outgoing);
    }
    for (i, &v) in acc.atom_s.iter().enumerate() {
        push(num_nodes + i, v, &mut outgoing);
    }
    let incoming = comm.try_sparse_exchange(&outgoing)?;
    let interval = owner_interval(num_slots, p, me);
    owned_vals.clear();
    owned_vals.resize(interval.len(), 0.0);
    for pairs in &incoming {
        debug_assert_eq!(pairs.len() % 2, 0);
        for pair in pairs.chunks_exact(2) {
            let slot = pair[0] as usize;
            debug_assert!(interval.contains(&slot));
            owned_vals[slot - interval.start] += pair[1];
        }
    }
    Ok(())
}

/// Owner rank of flat slot `slot` (inverse of
/// [`owner_interval`](crate::commplan::owner_interval)).
pub(crate) fn owner_of(num_slots: usize, p: usize, slot: usize) -> usize {
    let base = num_slots / p;
    let extra = num_slots % p;
    let wide = (base + 1) * extra;
    if slot < wide {
        slot / (base + 1)
    } else {
        extra + (slot - wide) / base.max(1)
    }
}

/// Stage 2: the targeted allgatherv. Each owner ships every consumer `c`
/// the reduced values of `consumed(c) ∩ owned(me)` — *all* manifest
/// slots, so a consumed-but-never-produced slot arrives as the +0.0 the
/// dense path would also compute — and each rank overwrites its
/// accumulator at exactly its consumed slots.
pub(crate) fn publish_to_consumers(
    comm: &mut Comm,
    plan: &CommPlan,
    owned_vals: &[f64],
    acc: &mut IntegralAcc,
) -> Result<(), CommError> {
    let p = comm.size();
    let me = comm.rank();
    let interval = plan.owned(me);
    let outgoing: Vec<Vec<f64>> = (0..p)
        .map(|c| {
            let m = manifest_range(plan.consumed(c), &interval);
            plan.consumed(c)[m]
                .iter()
                .map(|&s| owned_vals[s as usize - interval.start])
                .collect()
        })
        .collect();
    let incoming = comm.try_sparse_exchange(&outgoing)?;
    let consumed = plan.consumed(me);
    // owner intervals tile the slot space in rank order, so the incoming
    // segments concatenate to `consumed(me)` exactly
    let mut cursor = 0usize;
    for (o, vals) in incoming.iter().enumerate() {
        let m = manifest_range(consumed, &plan.owned(o));
        debug_assert_eq!(m.start, cursor);
        debug_assert_eq!(m.len(), vals.len());
        cursor = m.end;
        for (&s, &v) in consumed[m].iter().zip(vals) {
            let slot = s as usize;
            if slot < plan.num_nodes {
                acc.node_s[slot] = v;
            } else {
                acc.atom_s[slot - plan.num_nodes] = v;
            }
        }
    }
    debug_assert_eq!(cursor, consumed.len());
    Ok(())
}
