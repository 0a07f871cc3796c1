//! A shared, thread-safe, lifecycle-managed cache of [`FramePlan`]s.
//!
//! The interpreter's plan memoization was historically per-`Interp`: every
//! invocation rebuilt every plan it needed, and the `Rc`-based storage was
//! not `Send`, so plans could not be shared across threads at all. A
//! persistent service executing many requests against the same compiled
//! modules wants the opposite: plans built once, shared by every worker
//! thread, and bounded in memory.
//!
//! [`PlanCache`] is that shared tier. Entries are keyed by
//! `(module_id, function name)` where `module_id` is a caller-supplied
//! content hash that must identify **both** the compiled module and the
//! cost model the plan was built against (plans embed memoized costs; the
//! gang configuration is part of the compiled module text and is therefore
//! covered by any content hash of it). Eviction is least-recently-used
//! under a byte budget, with hit/miss/eviction counters exposed for
//! telemetry.
//!
//! Sharing never changes results: a [`FramePlan`] is a pure function of
//! `(module, function, cost model)`, so a cached plan is byte-identical to
//! a freshly built one — the engine-identity contract is unaffected.

use super::plan::{FramePlan, LaneKernel, PhiMove, PlannedCost};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use telemetry::CostClass;

/// Cache key: caller-supplied module/cost-model id plus function name.
type Key = (u64, String);

/// Observable cache counters (monotonic since construction, except
/// `entries`/`bytes` which describe the current contents).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a cached plan.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: u64,
    /// Approximate bytes currently cached: [`FramePlan::approx_bytes`] of
    /// every plan, plus the native lowerings built from them.
    pub bytes: u64,
}

struct Entry {
    plan: Arc<FramePlan>,
    bytes: usize,
    /// Monotonic LRU clock value of the last touch.
    tick: u64,
}

struct Inner {
    map: HashMap<Key, Entry>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A thread-safe LRU plan cache with a byte budget. See the module docs.
pub struct PlanCache {
    inner: Mutex<Inner>,
    budget: usize,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("budget", &self.budget)
            .field("stats", &s)
            .finish()
    }
}

impl PlanCache {
    /// Creates a cache bounded to approximately `byte_budget` bytes of
    /// plan data. A single plan larger than the whole budget is still
    /// admitted (evicting everything else) so execution always has the
    /// plan it needs; the budget bounds the *steady-state* footprint.
    pub fn new(byte_budget: usize) -> PlanCache {
        PlanCache {
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

    /// The byte budget this cache was created with.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Looks up the plan for `(module_id, fname)`, counting a hit or miss.
    pub fn get(&self, module_id: u64, fname: &str) -> Option<Arc<FramePlan>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&(module_id, fname.to_string())) {
            Some(e) => {
                e.tick = tick;
                let p = Arc::clone(&e.plan);
                inner.hits += 1;
                Some(p)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a plan, evicting least-recently-used entries until the
    /// budget is met. If a racing thread already inserted the same key,
    /// the existing plan wins (both are byte-identical by construction)
    /// and is returned, so concurrent builders converge on one `Arc`.
    pub fn insert(&self, module_id: u64, fname: &str, plan: Arc<FramePlan>) -> Arc<FramePlan> {
        let bytes = plan.approx_bytes();
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key = (module_id, fname.to_string());
        if let Some(existing) = inner.map.get_mut(&key) {
            existing.tick = tick;
            return Arc::clone(&existing.plan);
        }
        inner.bytes += bytes;
        inner.map.insert(
            key.clone(),
            Entry {
                plan: Arc::clone(&plan),
                bytes,
                tick,
            },
        );
        self.evict_to_fit(&mut inner, &key);
        plan
    }

    /// Charges `bytes` more to the entry for `(module_id, fname)` while it
    /// still holds `plan` — the native lowering, built lazily after the
    /// plan was inserted — and evicts LRU entries until the budget is met.
    /// A plan that was already evicted is not charged: the cache no longer
    /// holds it.
    pub(crate) fn charge(&self, module_id: u64, fname: &str, plan: &Arc<FramePlan>, bytes: usize) {
        let mut inner = self.lock();
        let key = (module_id, fname.to_string());
        match inner.map.get_mut(&key) {
            Some(e) if Arc::ptr_eq(&e.plan, plan) => e.bytes += bytes,
            _ => return,
        }
        inner.bytes += bytes;
        self.evict_to_fit(&mut inner, &key);
    }

    /// Evicts LRU entries (never `keep`, the one just inserted or
    /// charged) until the cache fits its budget.
    fn evict_to_fit(&self, inner: &mut Inner, keep: &Key) {
        while inner.bytes > self.budget && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone());
            let Some(v) = victim else { break };
            if let Some(e) = inner.map.remove(&v) {
                inner.bytes -= e.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len() as u64,
            bytes: inner.bytes as u64,
        }
    }

    /// Drops every cached plan (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            // A poisoned cache still holds structurally valid data (every
            // mutation above is panic-free); keep serving.
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl FramePlan {
    /// Approximate heap footprint of this plan in bytes, used for the
    /// [`PlanCache`] byte budget. Deliberately an estimate (exact
    /// accounting would need allocator cooperation); it only has to be
    /// monotone in plan size so the LRU budget is meaningful.
    pub fn approx_bytes(&self) -> usize {
        let mut b = std::mem::size_of::<FramePlan>();
        b += self.costs.capacity() * std::mem::size_of::<PlannedCost>();
        for c in &self.costs {
            b += c.classed.capacity() * std::mem::size_of::<(CostClass, u64)>();
        }
        b += self.calls.capacity() * std::mem::size_of::<super::plan::CallSite>();
        b += self.kernels.capacity() * std::mem::size_of::<LaneKernel>();
        for blk in &self.blocks {
            b += std::mem::size_of::<super::plan::BlockPlan>();
            b += blk.body.capacity() * std::mem::size_of::<crate::inst::InstId>();
            for e in &blk.edges {
                b += std::mem::size_of::<super::plan::EdgeTable>();
                b += e.moves.capacity() * std::mem::size_of::<PhiMove>();
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Module;
    use crate::inst::BinOp;
    use crate::interp::UnitCost;
    use crate::types::{ScalarTy, Ty};

    fn tiny_module(name: &str) -> Module {
        let mut fb = FunctionBuilder::new(name, vec![], Ty::scalar(ScalarTy::I64));
        let x = fb.bin(BinOp::Add, 1i64, 2i64);
        fb.ret(Some(x));
        let mut m = Module::new();
        m.add_function(fb.finish());
        m
    }

    fn plan_of(m: &Module, name: &str) -> Arc<FramePlan> {
        let f = m.function(name).expect("built");
        Arc::new(FramePlan::build(m, f, &UnitCost))
    }

    #[test]
    fn hit_miss_and_counters() {
        let m = tiny_module("f");
        let cache = PlanCache::new(1 << 20);
        assert!(cache.get(1, "f").is_none());
        let p = cache.insert(1, "f", plan_of(&m, "f"));
        let q = cache.get(1, "f").expect("cached");
        assert!(Arc::ptr_eq(&p, &q));
        // A different module id is a different key.
        assert!(cache.get(2, "f").is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn racing_insert_converges_on_first_plan() {
        let m = tiny_module("f");
        let cache = PlanCache::new(1 << 20);
        let a = cache.insert(1, "f", plan_of(&m, "f"));
        let b = cache.insert(1, "f", plan_of(&m, "f"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let m = tiny_module("f");
        let one = plan_of(&m, "f").approx_bytes();
        // Room for two plans, not three.
        let cache = PlanCache::new(one * 2 + one / 2);
        cache.insert(1, "f", plan_of(&m, "f"));
        cache.insert(2, "f", plan_of(&m, "f"));
        // Touch (1,"f") so (2,"f") is the LRU victim.
        assert!(cache.get(1, "f").is_some());
        cache.insert(3, "f", plan_of(&m, "f"));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(cache.get(1, "f").is_some(), "recently used entry survives");
        assert!(cache.get(2, "f").is_none(), "LRU entry evicted");
        assert!(cache.get(3, "f").is_some(), "new entry admitted");
        assert!(s.bytes as usize <= cache.budget());
    }

    #[test]
    fn oversized_plan_is_still_admitted() {
        let m = tiny_module("f");
        let cache = PlanCache::new(1); // smaller than any plan
        cache.insert(1, "f", plan_of(&m, "f"));
        assert!(cache.get(1, "f").is_some());
        cache.insert(2, "f", plan_of(&m, "f"));
        // The new plan displaced the old one; exactly one remains.
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 1);
        assert!(cache.get(2, "f").is_some());
    }

    fn call(m: &Module, cache: &Arc<PlanCache>, module_id: u64, engine: crate::Engine) {
        let mut it = crate::Interp::with_defaults(m, crate::Memory::default());
        it.set_plan_cache(Arc::clone(cache), module_id);
        it.set_engine(engine);
        assert!(it.call("f", &[]).is_ok());
    }

    #[test]
    fn native_lowering_is_charged_to_the_budget() {
        use crate::Engine;
        let m = tiny_module("f");
        let cache = Arc::new(PlanCache::new(1 << 20));
        call(&m, &cache, 1, Engine::Fast);
        let plan = cache.get(1, "f");
        let bare = plan.as_ref().map_or(0, |p| p.approx_bytes());
        assert!(bare > 0, "plan cached");
        assert_eq!(cache.stats().bytes as usize, bare);
        call(&m, &cache, 1, Engine::Native);
        let lowered = plan
            .as_ref()
            .and_then(|p| p.native.get())
            .map_or(0, |np| np.approx_bytes());
        assert!(lowered > 0, "lowered in place");
        assert_eq!(cache.stats().bytes as usize, bare + lowered);
        // The lowering is built, and charged, once.
        call(&m, &cache, 1, Engine::Native);
        assert_eq!(cache.stats().bytes as usize, bare + lowered);

        // Room for two bare plans, not for two plans and a lowering: the
        // charge evicts the LRU plan, never the one it lands on.
        let tight = Arc::new(PlanCache::new(bare * 2 + lowered / 2));
        call(&m, &tight, 1, Engine::Fast);
        call(&m, &tight, 2, Engine::Fast);
        assert_eq!(tight.stats().evictions, 0);
        call(&m, &tight, 2, Engine::Native);
        let s = tight.stats();
        assert_eq!((s.entries, s.evictions), (1, 1));
        assert_eq!(s.bytes as usize, bare + lowered);
        assert!(tight.get(1, "f").is_none(), "LRU plan evicted");
        assert!(tight.get(2, "f").is_some(), "charged plan kept");
    }

    #[test]
    fn clear_preserves_counters() {
        let m = tiny_module("f");
        let cache = PlanCache::new(1 << 20);
        cache.insert(1, "f", plan_of(&m, "f"));
        cache.get(1, "f");
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.hits, 1);
        assert!(cache.get(1, "f").is_none());
    }
}
