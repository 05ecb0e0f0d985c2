//! Bounded admission with per-tenant fairness.
//!
//! Requests enter per-tenant FIFO lanes under one global capacity bound
//! (load shedding happens at submit time — [`AdmissionQueue::push`]
//! returns the request back instead of growing without bound). The
//! scheduler drains with a persistent round-robin cursor over tenants:
//! one request per tenant per turn, cycling until the batch is full or
//! the queue is empty. A tenant flooding the queue can exhaust *capacity*
//! (back-pressuring its own submits) but never the *drain order*: other
//! tenants' requests still ride the next batch.

use crate::request::{EvalOutcome, EvalRequest, ServeError};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::Instant;

/// A queued request: payload plus reply channel and admission timestamp.
pub struct Pending {
    /// Tenant that submitted the request.
    pub tenant: String,
    /// The request payload.
    pub request: EvalRequest,
    /// When admission accepted it (queue-wait measurement).
    pub enqueued_at: Instant,
    /// Where the outcome goes.
    pub reply: mpsc::Sender<Result<EvalOutcome, ServeError>>,
}

/// The bounded, tenant-fair admission queue (scheduler-locked).
pub struct AdmissionQueue {
    /// One FIFO lane per tenant, in order of first appearance.
    lanes: Vec<(String, VecDeque<Pending>)>,
    /// Round-robin cursor into `lanes`, persistent across drains.
    cursor: usize,
    len: usize,
    capacity: usize,
}

impl AdmissionQueue {
    /// An empty queue admitting at most `capacity` requests.
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue { lanes: Vec::new(), cursor: 0, len: 0, capacity: capacity.max(1) }
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Admits `p`, or returns it back (boxed, so the admitted path stays
    /// small) when the queue is at capacity.
    pub fn push(&mut self, p: Pending) -> Result<(), Box<Pending>> {
        if self.len >= self.capacity {
            return Err(Box::new(p));
        }
        self.len += 1;
        match self.lanes.iter_mut().find(|(t, _)| *t == p.tenant) {
            Some((_, lane)) => lane.push_back(p),
            None => {
                let mut lane = VecDeque::new();
                let tenant = p.tenant.clone();
                lane.push_back(p);
                self.lanes.push((tenant, lane));
            }
        }
        Ok(())
    }

    /// Drains up to `max` requests round-robin across tenant lanes into
    /// `out` — one per lane per turn, starting at the persistent cursor,
    /// so no tenant is served twice before every backlogged tenant is
    /// served once.
    pub fn drain_fair(&mut self, max: usize, out: &mut Vec<Pending>) {
        if self.lanes.is_empty() {
            return;
        }
        let mut taken = 0;
        while taken < max && self.len > 0 {
            let n = self.lanes.len();
            let mut progressed = false;
            for _ in 0..n {
                if taken >= max {
                    break;
                }
                let i = self.cursor % self.lanes.len();
                self.cursor = (self.cursor + 1) % self.lanes.len();
                if let Some(p) = self.lanes[i].1.pop_front() {
                    out.push(p);
                    self.len -= 1;
                    taken += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::GbParams;
    use gb_molecule::{synthesize_protein, SyntheticParams};
    use std::sync::Arc;

    fn pending(tenant: &str) -> Pending {
        // replies to dropped tickets are discarded by design, so the
        // receiver can go out of scope immediately
        let (tx, _rx) = mpsc::channel();
        Pending {
            tenant: tenant.to_string(),
            request: EvalRequest::Single {
                molecule: Arc::new(synthesize_protein(&SyntheticParams::with_atoms(8, 1))),
                params: GbParams::default(),
            },
            enqueued_at: Instant::now(),
            reply: tx,
        }
    }

    #[test]
    fn drains_round_robin_across_tenants() {
        let mut q = AdmissionQueue::new(64);
        for _ in 0..4 {
            assert!(q.push(pending("a")).is_ok());
        }
        for _ in 0..2 {
            assert!(q.push(pending("b")).is_ok());
        }
        assert!(q.push(pending("c")).is_ok());
        let mut out = Vec::new();
        q.drain_fair(5, &mut out);
        let order: Vec<&str> = out.iter().map(|p| p.tenant.as_str()).collect();
        assert_eq!(order, ["a", "b", "c", "a", "b"]);
        // cursor persists: the next drain resumes after the last-served lane
        out.clear();
        q.drain_fair(10, &mut out);
        let order: Vec<&str> = out.iter().map(|p| p.tenant.as_str()).collect();
        assert_eq!(order, ["a", "a"]);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_bounds_admission() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.push(pending("a")).is_ok());
        assert!(q.push(pending("b")).is_ok());
        assert!(q.push(pending("c")).is_err());
        let mut out = Vec::new();
        q.drain_fair(1, &mut out);
        assert!(q.push(pending("c")).is_ok());
        assert_eq!(q.len(), 2);
    }
}
