//! The first cache tier: content hash → compiled module.
//!
//! Mirrors the shared [`psir::PlanCache`] (the second tier) in shape:
//! a mutex-guarded LRU map with a byte budget and hit/miss/eviction
//! counters, safe to share across the server's worker pool. Entries are
//! `Arc`s, so an eviction never invalidates a request that is already
//! executing the module — the `Arc` keeps the module alive until the last
//! in-flight user drops it.
//!
//! Compile *failures* are never cached: a failed submission costs a
//! recompile on retry, which keeps the failure path simple and means a
//! transient fault-injection request can never poison the cache for the
//! equivalent clean source (the injection descriptor is part of the key).

use psir::Module;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use telemetry::Json;

/// A compiled, vectorized module plus the compile-time telemetry that
/// every response serving it replays.
#[derive(Debug)]
pub struct CompiledModule {
    /// The vectorized module (executed read-only by every request).
    pub module: Module,
    /// The cache key: [`module_key`](crate::hashing::module_key), which
    /// [`plan_key`](crate::hashing::plan_key) extends per target for the
    /// shared plan cache.
    pub key: u64,
    /// Compiler warnings, replayed verbatim on every hit.
    pub warnings: Vec<String>,
    /// Regions degraded to the scalar fallback.
    pub degraded: Vec<String>,
    /// Canonical remark stream (pre-rendered once at compile time).
    pub remarks: Json,
    /// Approximate retained size, for the byte budget.
    pub approx_bytes: usize,
}

impl CompiledModule {
    /// Rough retained-size estimate: instruction counts dominate, and the
    /// budget only needs relative ordering, not exact accounting.
    pub fn estimate_bytes(module: &Module, remarks: &Json) -> usize {
        let insts: usize = module.functions().map(psir::Function::num_insts).sum();
        insts * 112 + module.functions().count() * 512 + remarks.to_string_compact().len()
    }
}

/// Counter snapshot of a [`ModuleCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleCacheStats {
    /// Lookups that found a compiled module.
    pub hits: u64,
    /// Lookups that missed (followed by a compile + insert).
    pub misses: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate resident bytes.
    pub bytes: usize,
}

struct Entry {
    module: Arc<CompiledModule>,
    tick: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Content-addressed LRU cache of compiled modules, shared across
/// sessions.
pub struct ModuleCache {
    inner: Mutex<Inner>,
    budget: usize,
}

impl ModuleCache {
    /// An empty cache with the given byte budget.
    pub fn new(byte_budget: usize) -> ModuleCache {
        ModuleCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            budget: byte_budget,
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up a compiled module, counting the hit or miss and bumping
    /// the entry's recency.
    pub fn get(&self, key: u64) -> Option<Arc<CompiledModule>> {
        let mut g = self.lock();
        g.tick += 1;
        let tick = g.tick;
        match g.map.get_mut(&key) {
            Some(e) => {
                e.tick = tick;
                let m = Arc::clone(&e.module);
                g.hits += 1;
                Some(m)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly compiled module, returning the resident `Arc` —
    /// if another session compiled the same key concurrently, the first
    /// insert wins and the racing caller adopts it, so every session
    /// shares one copy.
    pub fn insert(&self, cm: CompiledModule) -> Arc<CompiledModule> {
        let key = cm.key;
        let bytes = cm.approx_bytes;
        let mut g = self.lock();
        g.tick += 1;
        let tick = g.tick;
        if let Some(existing) = g.map.get_mut(&key) {
            existing.tick = tick;
            return Arc::clone(&existing.module);
        }
        let arc = Arc::new(cm);
        g.map.insert(
            key,
            Entry {
                module: Arc::clone(&arc),
                tick,
            },
        );
        g.bytes += bytes;
        // Evict LRU entries (never the one just inserted) while over
        // budget. An oversized module is still admitted — the budget
        // bounds steady-state growth, not a single entry.
        while g.bytes > self.budget && g.map.len() > 1 {
            let victim = g
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k);
            let Some(vk) = victim else { break };
            if let Some(e) = g.map.remove(&vk) {
                g.bytes -= e.module.approx_bytes;
                g.evictions += 1;
            }
        }
        arc
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ModuleCacheStats {
        let g = self.lock();
        ModuleCacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            entries: g.map.len(),
            bytes: g.bytes,
        }
    }

    /// Drops every entry, preserving the counters.
    pub fn clear(&self) {
        let mut g = self.lock();
        g.map.clear();
        g.bytes = 0;
    }
}

impl std::fmt::Debug for ModuleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ModuleCache")
            .field("budget", &self.budget)
            .field("stats", &s)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(key: u64, bytes: usize) -> CompiledModule {
        CompiledModule {
            module: Module::new(),
            key,
            warnings: Vec::new(),
            degraded: Vec::new(),
            remarks: Json::Arr(Vec::new()),
            approx_bytes: bytes,
        }
    }

    #[test]
    fn hit_miss_and_racing_insert() {
        let c = ModuleCache::new(1 << 20);
        assert!(c.get(1).is_none());
        let a = c.insert(dummy(1, 100));
        let b = c.insert(dummy(1, 100)); // racing insert of the same key
        assert!(Arc::ptr_eq(&a, &b));
        assert!(c.get(1).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 100));
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let c = ModuleCache::new(250);
        c.insert(dummy(1, 100));
        c.insert(dummy(2, 100));
        c.get(1); // make key 1 more recent than key 2
        c.insert(dummy(3, 100)); // over budget: evicts key 2 (LRU)
        assert!(c.get(2).is_none(), "LRU entry must be evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
        // An oversized entry is still admitted.
        let big = c.insert(dummy(4, 10_000));
        assert_eq!(big.key, 4);
        assert!(c.get(4).is_some());
    }

    #[test]
    fn clear_preserves_counters() {
        let c = ModuleCache::new(1 << 20);
        c.insert(dummy(1, 10));
        c.get(1);
        c.clear();
        assert!(c.get(1).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
    }
}
