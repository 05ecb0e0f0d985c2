//! Tiered content-hash cache with a byte-budgeted LRU.
//!
//! Three tiers, all keyed by [`gb_core::contenthash::system_key`] (content
//! of molecule + parameters — see that module for why charges and radii
//! are in the key):
//!
//! 1. **system** — the prepared [`GbSystem`] (octrees, surface, SoA
//!    mirrors);
//! 2. **lists / monomer** — own-surface interaction lists
//!    ([`CachedLists`]) for the single-molecule path, and the full
//!    [`Monomer`] artifact (lists + own-surface integral image + solo
//!    energy) for the docking path;
//! 3. **workspace pool** — per-rank [`Workspace`]s keyed additionally by
//!    the rank count, carrying the warm `CommPlan` (its structural-hash
//!    cache) and the injected tier-2 lists.
//!
//! Every entry is billed through the `memory_bytes` audit of the artifact
//! it holds; when the total exceeds the budget, globally least-recently
//! used entries are evicted regardless of tier. Eviction is invisible to
//! results: every artifact is a deterministic function of its content key,
//! so a re-build after eviction is bit-identical — the cache trades
//! wall-clock only.

use gb_core::arena::{CachedLists, Workspace};
use gb_core::pair::Monomer;
use gb_core::system::GbSystem;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-tier hit/miss counters plus eviction totals.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct CacheStats {
    /// Tier-1 (system) hits.
    pub tier1_hits: u64,
    /// Tier-1 (system) misses.
    pub tier1_misses: u64,
    /// Tier-2 (lists/monomer) hits.
    pub tier2_hits: u64,
    /// Tier-2 (lists/monomer) misses.
    pub tier2_misses: u64,
    /// Tier-3 (workspace pool) hits.
    pub tier3_hits: u64,
    /// Tier-3 (workspace pool) misses.
    pub tier3_misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
}

impl CacheStats {
    fn record(hits: &mut u64, misses: &mut u64, hit: bool) {
        if hit {
            *hits += 1;
        } else {
            *misses += 1;
        }
    }
}

struct Entry<T> {
    value: T,
    stamp: u64,
}

/// Tier-3 key: content key plus the cluster shape the pool was warmed for.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct PoolKey {
    key: u64,
    ranks: usize,
}

/// A shared per-rank workspace pool (tier-3 artifact).
pub type WorkspacePool = Arc<Vec<Mutex<Workspace>>>;

/// The tiered LRU. Not internally locked — the scheduler owns it.
pub struct TieredCache {
    budget_bytes: usize,
    clock: u64,
    systems: HashMap<u64, Entry<Arc<GbSystem>>>,
    lists: HashMap<u64, Entry<Arc<CachedLists>>>,
    monomers: HashMap<u64, Entry<Arc<Monomer>>>,
    pools: HashMap<PoolKey, Entry<WorkspacePool>>,
    /// Hit/miss/eviction counters.
    pub stats: CacheStats,
}

impl TieredCache {
    /// An empty cache bounded by `budget_bytes` of artifact footprint.
    pub fn new(budget_bytes: usize) -> TieredCache {
        TieredCache {
            budget_bytes,
            clock: 0,
            systems: HashMap::new(),
            lists: HashMap::new(),
            monomers: HashMap::new(),
            pools: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Tier-1 lookup, recording hit/miss.
    pub fn get_system(&mut self, key: u64) -> Option<Arc<GbSystem>> {
        let stamp = self.tick();
        let hit = self.systems.get_mut(&key).map(|e| {
            e.stamp = stamp;
            Arc::clone(&e.value)
        });
        CacheStats::record(&mut self.stats.tier1_hits, &mut self.stats.tier1_misses,
            hit.is_some());
        hit
    }

    /// Tier-1 insert.
    pub fn put_system(&mut self, key: u64, sys: Arc<GbSystem>) {
        let stamp = self.tick();
        self.systems.insert(key, Entry { value: sys, stamp });
        self.enforce_budget();
    }

    /// Tier-2 lookup (single-molecule lists), recording hit/miss.
    pub fn get_lists(&mut self, key: u64) -> Option<Arc<CachedLists>> {
        let stamp = self.tick();
        let hit = self.lists.get_mut(&key).map(|e| {
            e.stamp = stamp;
            Arc::clone(&e.value)
        });
        CacheStats::record(&mut self.stats.tier2_hits, &mut self.stats.tier2_misses,
            hit.is_some());
        hit
    }

    /// Tier-2 insert (single-molecule lists).
    pub fn put_lists(&mut self, key: u64, lists: Arc<CachedLists>) {
        let stamp = self.tick();
        self.lists.insert(key, Entry { value: lists, stamp });
        self.enforce_budget();
    }

    /// Tier-2 lookup (docking monomer), recording hit/miss.
    pub fn get_monomer(&mut self, key: u64) -> Option<Arc<Monomer>> {
        let stamp = self.tick();
        let hit = self.monomers.get_mut(&key).map(|e| {
            e.stamp = stamp;
            Arc::clone(&e.value)
        });
        CacheStats::record(&mut self.stats.tier2_hits, &mut self.stats.tier2_misses,
            hit.is_some());
        hit
    }

    /// Tier-2 insert (docking monomer).
    pub fn put_monomer(&mut self, key: u64, m: Arc<Monomer>) {
        let stamp = self.tick();
        self.monomers.insert(key, Entry { value: m, stamp });
        self.enforce_budget();
    }

    /// Tier-3 lookup, recording hit/miss.
    pub fn get_pool(&mut self, key: u64, ranks: usize) -> Option<WorkspacePool> {
        let stamp = self.tick();
        let hit = self.pools.get_mut(&PoolKey { key, ranks }).map(|e| {
            e.stamp = stamp;
            Arc::clone(&e.value)
        });
        CacheStats::record(&mut self.stats.tier3_hits, &mut self.stats.tier3_misses,
            hit.is_some());
        hit
    }

    /// Tier-3 insert.
    pub fn put_pool(&mut self, key: u64, ranks: usize, pool: WorkspacePool) {
        let stamp = self.tick();
        self.pools.insert(PoolKey { key, ranks }, Entry { value: pool, stamp });
        self.enforce_budget();
    }

    /// Total audited footprint of every resident entry. Workspace pools
    /// are re-measured live (their arenas grow as they warm), the
    /// immutable tiers at their fixed size.
    pub fn resident_bytes(&self) -> usize {
        self.systems.values().map(|e| e.value.memory_bytes()).sum::<usize>()
            + self.lists.values().map(|e| e.value.memory_bytes()).sum::<usize>()
            + self.monomers.values().map(|e| e.value.memory_bytes()).sum::<usize>()
            + self
                .pools
                .values()
                .map(|e| e.value.iter().map(|w| w.lock().memory_bytes()).sum::<usize>())
                .sum::<usize>()
    }

    /// Evicts globally least-recently-used entries (any tier) until the
    /// audited footprint fits the budget. At least the most recent entry
    /// always survives, so a single artifact larger than the budget still
    /// serves its own request.
    fn enforce_budget(&mut self) {
        loop {
            let entries = self.systems.len() + self.lists.len() + self.monomers.len()
                + self.pools.len();
            if entries <= 1 || self.resident_bytes() <= self.budget_bytes {
                return;
            }
            // find the oldest stamp across all tiers
            let oldest = |stamps: &mut dyn Iterator<Item = u64>| stamps.min().unwrap_or(u64::MAX);
            let s1 = oldest(&mut self.systems.values().map(|e| e.stamp));
            let s2 = oldest(&mut self.lists.values().map(|e| e.stamp));
            let s3 = oldest(&mut self.monomers.values().map(|e| e.stamp));
            let s4 = oldest(&mut self.pools.values().map(|e| e.stamp));
            let min = s1.min(s2).min(s3).min(s4);
            if min == s1 {
                self.systems.retain(|_, e| e.stamp != min);
            } else if min == s2 {
                self.lists.retain(|_, e| e.stamp != min);
            } else if min == s3 {
                self.monomers.retain(|_, e| e.stamp != min);
            } else {
                self.pools.retain(|_, e| e.stamp != min);
            }
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::{system_key, GbParams};
    use gb_molecule::{synthesize_protein, SyntheticParams};

    fn sys(n: usize, seed: u64) -> (u64, Arc<GbSystem>) {
        let mol = synthesize_protein(&SyntheticParams::with_atoms(n, seed));
        let p = GbParams::default();
        let key = system_key(&mol, &p);
        (key, Arc::new(GbSystem::prepare(mol, p)))
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut c = TieredCache::new(usize::MAX);
        let (k, s) = sys(40, 1);
        assert!(c.get_system(k).is_none());
        c.put_system(k, s);
        assert!(c.get_system(k).is_some());
        assert_eq!(c.stats.tier1_hits, 1);
        assert_eq!(c.stats.tier1_misses, 1);
    }

    #[test]
    fn lru_evicts_oldest_when_over_budget() {
        let (k1, s1) = sys(60, 1);
        let (k2, s2) = sys(60, 2);
        // budget fits roughly one system
        let mut c = TieredCache::new(s1.memory_bytes() + 16);
        c.put_system(k1, s1);
        c.put_system(k2, s2);
        assert!(c.stats.evictions >= 1);
        assert!(c.get_system(k2).is_some(), "newest entry must survive");
        assert!(c.get_system(k1).is_none(), "oldest entry must be evicted");
    }
}
