//! The sharded read-through query cache.
//!
//! Caching a private synopsis is unusually safe: a released synopsis is
//! a *fixed* artifact, so the answer to a rectangle is a pure function
//! of `(synopsis, rectangle)` and can be replayed forever without
//! touching privacy budget. The cache key therefore pins all three
//! coordinates of that function:
//!
//! * the synopsis **name** (multi-tenant registries hold many),
//! * the registry **version** (hot-swapping a re-published synopsis
//!   bumps the version, so stale answers can never be served — old keys
//!   simply stop matching and age out),
//! * the query rectangle's exact **bit pattern** (every `f64` corner as
//!   `to_bits()`, so two distinct rectangles can never collide on a key
//!   and a cached answer is bit-identical to an uncached one by
//!   construction).
//!
//! [`LruCache`] is a classic slab-backed doubly-linked LRU (O(1) get /
//! insert / evict); [`ShardedCache`] spreads keys over independently
//! locked shards so concurrent connections rarely contend, and keeps
//! global hit/miss counters for the stats endpoint.

use crate::sync::lock_or_recover;
use dpsd_core::geometry::Rect;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache key: `(synopsis name, registry version, exact rect bits)`.
///
/// Keying on bit patterns (not float values) makes collisions of
/// distinct rectangles impossible: keys are equal iff every corner
/// coordinate is the same bit pattern, in the same dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    name: String,
    version: u64,
    rect_bits: Box<[u64]>,
}

impl CacheKey {
    /// Builds the key for one query against one published synopsis.
    pub fn new<const D: usize>(name: &str, version: u64, rect: &Rect<D>) -> Self {
        let rect_bits = rect
            .min
            .iter()
            .chain(rect.max.iter())
            .map(|c| c.to_bits())
            .collect();
        CacheKey {
            name: name.to_string(),
            version,
            rect_bits,
        }
    }

    /// The synopsis name this key belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registry version this key was minted against.
    pub fn version(&self) -> u64 {
        self.version
    }
}

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A bounded least-recently-used map with O(1) get/insert/evict.
///
/// `get` promotes to most-recently-used; inserting at capacity evicts
/// the least-recently-used entry and returns it. A capacity of zero
/// stores nothing.
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.nodes[h].prev = idx,
        }
        self.head = idx;
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(&self.nodes[idx].value)
    }

    /// Looks up `key` without touching recency (for inspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.nodes[idx].value)
    }

    /// Inserts (or refreshes) an entry, returning the evicted
    /// least-recently-used `(key, value)` if the cache was full.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        if self.map.len() >= self.capacity {
            // Reuse the LRU node in place instead of freeing and
            // reallocating a slot.
            let lru = self.tail;
            self.unlink(lru);
            let old_key = self.nodes[lru].key.clone();
            self.map.remove(&old_key);
            let old_value = std::mem::replace(&mut self.nodes[lru].value, value);
            self.nodes[lru].key = key.clone();
            self.map.insert(key, lru);
            self.push_front(lru);
            return Some((old_key, old_value));
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        None
    }

    /// Keys from most- to least-recently-used (for tests and stats).
    pub fn keys_mru(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut idx = self.head;
        while idx != NIL {
            out.push(self.nodes[idx].key.clone());
            idx = self.nodes[idx].next;
        }
        out
    }

    /// Drops every entry whose key fails the predicate, preserving the
    /// recency order of survivors.
    pub fn retain<F: FnMut(&K) -> bool>(&mut self, mut keep: F) {
        let mut idx = self.head;
        while idx != NIL {
            let next = self.nodes[idx].next;
            if !keep(&self.nodes[idx].key) {
                self.unlink(idx);
                let key = self.nodes[idx].key.clone();
                self.map.remove(&key);
                self.free.push(idx);
            }
            idx = next;
        }
    }
}

/// How many independently locked shards a [`ShardedCache`] uses.
pub const CACHE_SHARDS: usize = 16;

/// A concurrency-friendly LRU: keys hash to one of [`CACHE_SHARDS`]
/// independently locked [`LruCache`] shards, so parallel connections
/// contend only when their keys land on the same shard. Hit/miss
/// counters are global atomics (the stats endpoint reads them without
/// taking any shard lock).
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

/// One locked slice of a [`ShardedCache`].
struct Shard {
    lru: LruCache<CacheKey, f64>,
    /// Per name, a lower bound on the oldest version the shard may hold;
    /// a name without entries is absent. Evictions leave the bound
    /// stale, which only costs [`ShardedCache::purge_stale`] one
    /// unneeded walk.
    oldest: HashMap<String, u64>,
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the synopsis.
    pub misses: u64,
    /// Entries currently cached, across all shards.
    pub entries: usize,
    /// Total configured capacity (0 = cache disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl ShardedCache {
    /// A cache of **exactly** `capacity` total entries, spread over up
    /// to [`CACHE_SHARDS`] shards (small capacities use fewer shards so
    /// the per-shard slices never round the total up); `0` disables
    /// caching entirely (every lookup is a recorded miss, inserts are
    /// no-ops).
    pub fn new(capacity: usize) -> Self {
        let shard_count = CACHE_SHARDS.min(capacity).max(1);
        let base = capacity / shard_count;
        let extra = capacity % shard_count;
        ShardedCache {
            shards: (0..shard_count)
                .map(|i| {
                    Mutex::new(Shard {
                        lru: LruCache::new(base + usize::from(i < extra)),
                        oldest: HashMap::new(),
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// Whether a non-zero capacity was configured.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        // Reduce modulo the shard count in u64 first; the remainder is
        // < shards.len() so the final cast cannot truncate.
        let idx = h.finish() % (self.shards.len() as u64);
        // dpsd-allow(no-silent-as-truncation): idx < shards.len() <= usize::MAX after the modulo above
        &self.shards[idx as usize]
    }

    /// Cached answer for `key`, recording a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<f64> {
        if !self.enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let got = lock_or_recover(self.shard(key)).lru.get(key).copied();
        match got {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a computed answer.
    pub fn insert(&self, key: CacheKey, value: f64) {
        if !self.enabled() {
            return;
        }
        let mut shard = lock_or_recover(self.shard(&key));
        match shard.oldest.get_mut(key.name()) {
            Some(oldest) => *oldest = (*oldest).min(key.version()),
            None => {
                shard.oldest.insert(key.name().to_string(), key.version());
            }
        }
        shard.lru.insert(key, value);
    }

    /// Evicts every entry for `name` minted against a version older
    /// than `current`. Version-carrying keys already make stale answers
    /// unreachable; purging merely frees the space immediately on
    /// hot-swap instead of waiting for LRU aging. The comparison is
    /// monotonic (`>=` keeps newer entries) so a purge that lost the
    /// race to a still-newer publish never evicts that publish's
    /// freshly warmed answers. Only shards that may hold an entry of
    /// `name` below `current` are walked.
    pub fn purge_stale(&self, name: &str, current: u64) {
        for shard in &self.shards {
            let mut shard = lock_or_recover(shard);
            let Shard { lru, oldest } = &mut *shard;
            let Some(bound) = oldest.get_mut(name) else {
                continue;
            };
            if *bound >= current {
                continue;
            }
            let mut kept = false;
            lru.retain(|k| {
                if k.name() != name {
                    return true;
                }
                let keep = k.version() >= current;
                kept |= keep;
                keep
            });
            if kept {
                *bound = current;
            } else {
                oldest.remove(name);
            }
        }
    }

    /// Counter and occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| lock_or_recover(s).lru.len())
                .sum(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_in_recency_order() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        assert!(lru.insert(1, 10).is_none());
        assert!(lru.insert(2, 20).is_none());
        assert_eq!(lru.get(&1), Some(&10)); // promotes 1
        assert_eq!(lru.insert(3, 30), Some((2, 20))); // 2 was LRU
        assert_eq!(lru.keys_mru(), vec![3, 1]);
        assert_eq!(lru.peek(&2), None);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert!(lru.insert(1, 11).is_none(), "refresh is not an eviction");
        assert_eq!(lru.insert(3, 30), Some((2, 20)));
        assert_eq!(lru.get(&1), Some(&11));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut lru: LruCache<u32, u32> = LruCache::new(0);
        assert!(lru.insert(1, 10).is_none());
        assert_eq!(lru.get(&1), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn retain_preserves_survivor_order() {
        let mut lru: LruCache<u32, u32> = LruCache::new(8);
        for k in 0..6 {
            lru.insert(k, k);
        }
        lru.retain(|k| k % 2 == 0);
        assert_eq!(lru.keys_mru(), vec![4, 2, 0]);
        // Freed slots are reused.
        lru.insert(10, 10);
        lru.insert(11, 11);
        assert_eq!(lru.keys_mru(), vec![11, 10, 4, 2, 0]);
    }

    #[test]
    fn cache_key_distinguishes_name_version_rect_and_dims() {
        let r2 = Rect::<2>::from_corners([0.0, 0.0], [1.0, 1.0]).unwrap();
        let r2b = Rect::<2>::from_corners([0.0, 0.0], [1.0, 1.5]).unwrap();
        let base = CacheKey::new("a", 1, &r2);
        assert_eq!(base, CacheKey::new("a", 1, &r2));
        assert_ne!(base, CacheKey::new("b", 1, &r2));
        assert_ne!(base, CacheKey::new("a", 2, &r2));
        assert_ne!(base, CacheKey::new("a", 1, &r2b));
        // Same leading coordinates in a higher dimension is a
        // different key (rect_bits length differs).
        let r3 = Rect::<3>::from_corners([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]).unwrap();
        assert_ne!(base, CacheKey::new("a", 1, &r3));
    }

    #[test]
    fn sharded_cache_counts_and_purges() {
        let cache = ShardedCache::new(64);
        let r = Rect::<2>::from_corners([0.0, 0.0], [4.0, 4.0]).unwrap();
        let k1 = CacheKey::new("t", 1, &r);
        assert_eq!(cache.get(&k1), None);
        cache.insert(k1.clone(), 7.5);
        assert_eq!(cache.get(&k1), Some(7.5));
        // A hot-swapped version never sees the old entry.
        let k2 = CacheKey::new("t", 2, &r);
        assert_eq!(cache.get(&k2), None);
        cache.purge_stale("t", 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 0));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn late_purge_never_evicts_newer_versions() {
        // Two publishes race: v3 swaps in and warms the cache, then the
        // purge scheduled by the v2 publish finally runs. The monotonic
        // retain must keep v3's entries (and drop v1's).
        let cache = ShardedCache::new(64);
        let r = Rect::<2>::from_corners([0.0, 0.0], [4.0, 4.0]).unwrap();
        cache.insert(CacheKey::new("t", 1, &r), 1.0);
        cache.insert(CacheKey::new("t", 3, &r), 3.0);
        cache.purge_stale("t", 2);
        assert_eq!(cache.get(&CacheKey::new("t", 1, &r)), None);
        assert_eq!(cache.get(&CacheKey::new("t", 3, &r)), Some(3.0));
    }

    #[test]
    fn purge_bounds_track_what_each_shard_holds() {
        // Without evictions a shard keeps a bound for a name exactly
        // while it holds entries of that name, and the bound never
        // exceeds the oldest version it holds (else a purge could skip
        // a stale entry). After the last purge below, no shard keeps a
        // bound for "t", so any later purge of "t" walks nothing.
        let cache = ShardedCache::new(1024);
        let assert_bounds_hold = |name: &str| {
            for shard in &cache.shards {
                let shard = lock_or_recover(shard);
                let held = shard
                    .lru
                    .keys_mru()
                    .iter()
                    .filter(|k| k.name() == name)
                    .map(CacheKey::version)
                    .min();
                let bound = shard.oldest.get(name).copied();
                assert_eq!(bound.is_some(), held.is_some(), "{name}");
                assert!(bound <= held, "{name}: bound {bound:?} above {held:?}");
            }
        };
        for i in 0..64 {
            let r = Rect::<2>::from_corners([i as f64, 0.0], [i as f64 + 1.0, 1.0]).unwrap();
            cache.insert(CacheKey::new("t", 2 + i % 2, &r), 0.0);
            cache.insert(CacheKey::new("u", 1, &r), 0.0);
        }
        cache.insert(
            CacheKey::new("t", 1, &Rect::from_corners([0.0, 0.0], [1.0, 1.0]).unwrap()),
            0.0,
        );
        assert_bounds_hold("t");
        cache.purge_stale("t", 2);
        assert_bounds_hold("t");
        cache.purge_stale("t", 3);
        assert_bounds_hold("t");
        cache.purge_stale("t", 4);
        assert_bounds_hold("t");
        assert_bounds_hold("u");
        assert_eq!(cache.stats().entries, 64);
    }

    #[test]
    fn total_capacity_is_exact_across_shards() {
        // Capacities below, at, and above the shard count must all cap
        // total occupancy at exactly the configured value.
        for capacity in [1usize, 3, 8, 16, 17, 100] {
            let cache = ShardedCache::new(capacity);
            for i in 0..300 {
                let r = Rect::<2>::from_corners([i as f64, 0.0], [i as f64 + 1.0, 1.0]).unwrap();
                cache.insert(CacheKey::new("t", 1, &r), i as f64);
            }
            let entries = cache.stats().entries;
            assert!(
                entries <= capacity,
                "capacity {capacity}: {entries} entries cached"
            );
            assert!(
                entries * 2 >= capacity,
                "capacity {capacity}: only {entries} entries after 300 inserts"
            );
        }
    }

    #[test]
    fn disabled_cache_is_all_misses() {
        let cache = ShardedCache::new(0);
        assert!(!cache.enabled());
        let r = Rect::<2>::from_corners([0.0, 0.0], [1.0, 1.0]).unwrap();
        let k = CacheKey::new("t", 1, &r);
        cache.insert(k.clone(), 1.0);
        assert_eq!(cache.get(&k), None);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().entries, 0);
    }
}
