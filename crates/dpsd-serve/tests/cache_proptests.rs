//! Property tests for the query cache: the slab LRU and the sharded
//! cache against naive reference models, collision-freedom of the
//! bit-exact cache key, and the hot-swap staleness guarantee.

use dpsd_serve::cache::{CacheKey, LruCache, ShardedCache, CACHE_SHARDS};
use dpsd_serve::registry::SynopsisRegistry;
use proptest::prelude::*;
use std::collections::BTreeMap;

use dpsd_core::geometry::{Point, Rect};
use dpsd_core::synopsis::SpatialSynopsis;
use dpsd_core::tree::PsdConfig;

/// The obviously correct LRU: a vector ordered most-recent-first.
struct ModelLru {
    capacity: usize,
    entries: Vec<(u8, u32)>,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru {
            capacity,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: u8) -> Option<u32> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(pos);
        self.entries.insert(0, entry);
        Some(self.entries[0].1)
    }

    fn insert(&mut self, key: u8, value: u32) -> Option<(u8, u32)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
            self.entries.insert(0, (key, value));
            return None;
        }
        let evicted = if self.entries.len() >= self.capacity {
            self.entries.pop()
        } else {
            None
        };
        self.entries.insert(0, (key, value));
        evicted
    }

    fn keys_mru(&self) -> Vec<u8> {
        self.entries.iter().map(|(k, _)| *k).collect()
    }
}

const NAMES: [&str; 3] = ["a", "b", "c"];
const VERSIONS: u64 = 5;
const RECTS: u32 = 4;

/// A sharded-cache operation drawn by the properties below:
/// `(op, name, version, rect)`, where op 0 is a get, 1 an insert and 2
/// a `purge_stale(name, version)`.
type CacheOp = (u32, u32, u64, u32);

fn ops() -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec((0u32..3, 0u32..3, 1u64..=VERSIONS, 0u32..RECTS), 1..160)
}

fn cache_key((name, version, rect): (u32, u64, u32)) -> CacheKey {
    let x = f64::from(rect);
    let r = Rect::<2>::from_corners([x, 0.0], [x + 1.0, 1.0]).unwrap();
    CacheKey::new(NAMES[name as usize], version, &r)
}

/// The obviously correct sharded cache without evictions: a map from
/// `(name, version, rect)` to the last inserted answer, where a purge
/// applies its retain to every entry.
#[derive(Default)]
struct ModelCache(BTreeMap<(u32, u64, u32), f64>);

impl ModelCache {
    fn purge_stale(&mut self, name: u32, current: u64) {
        self.0.retain(|&(n, v, _), _| n != name || v >= current);
    }
}

proptest! {
    /// With room for every key in every shard, nothing is evicted, so
    /// every get and every occupancy count must match the model
    /// exactly, whichever shards a purge skips.
    #[test]
    fn sharded_cache_matches_the_reference_model(ops in ops()) {
        let keys = NAMES.len() * VERSIONS as usize * RECTS as usize;
        let cache = ShardedCache::new(CACHE_SHARDS * keys);
        let mut model = ModelCache::default();
        for (i, (op, name, version, rect)) in ops.into_iter().enumerate() {
            let id = (name, version, rect);
            match op {
                0 => prop_assert_eq!(cache.get(&cache_key(id)), model.0.get(&id).copied()),
                1 => {
                    cache.insert(cache_key(id), i as f64);
                    model.0.insert(id, i as f64);
                }
                _ => {
                    cache.purge_stale(NAMES[name as usize], version);
                    model.purge_stale(name, version);
                }
            }
            prop_assert_eq!(cache.stats().entries, model.0.len());
        }
    }

    /// Under eviction pressure the cache holds a subset of the model: a
    /// hit returns the model's answer, and right after a purge no key of
    /// that name below its version hits.
    #[test]
    fn purges_hold_under_eviction(capacity in 1usize..24, ops in ops()) {
        let cache = ShardedCache::new(capacity);
        let mut model = ModelCache::default();
        for (i, (op, name, version, rect)) in ops.into_iter().enumerate() {
            let id = (name, version, rect);
            match op {
                0 => {
                    if let Some(hit) = cache.get(&cache_key(id)) {
                        prop_assert_eq!(Some(hit), model.0.get(&id).copied());
                    }
                }
                1 => {
                    cache.insert(cache_key(id), i as f64);
                    model.0.insert(id, i as f64);
                }
                _ => {
                    cache.purge_stale(NAMES[name as usize], version);
                    model.purge_stale(name, version);
                    for stale in 1..version {
                        for r in 0..RECTS {
                            prop_assert_eq!(cache.get(&cache_key((name, stale, r))), None);
                        }
                    }
                }
            }
            let entries = cache.stats().entries;
            prop_assert!(entries <= capacity.min(model.0.len()), "{entries} entries");
        }
    }

    /// Every interleaving of gets and inserts leaves the slab LRU in
    /// exactly the state of the reference model: same hit/miss
    /// answers, same evictions, same recency order.
    #[test]
    fn lru_matches_the_reference_model(
        capacity in 1usize..9,
        ops in prop::collection::vec((0u32..2, 0u32..16, 0u32..1000), 1..120),
    ) {
        let mut real: LruCache<u8, u32> = LruCache::new(capacity);
        let mut model = ModelLru::new(capacity);
        for (op, key, value) in ops {
            let key = key as u8;
            if op == 0 {
                prop_assert_eq!(real.get(&key).copied(), model.get(key));
            } else {
                prop_assert_eq!(real.insert(key, value), model.insert(key, value));
            }
            prop_assert_eq!(real.keys_mru(), model.keys_mru());
            prop_assert_eq!(real.len(), model.keys_mru().len());
            prop_assert!(real.len() <= capacity, "capacity must bound occupancy");
        }
    }

    /// Capacity eviction order is exactly least-recently-used: filling
    /// a fresh cache past capacity evicts in insertion order until a
    /// get reorders recency.
    #[test]
    fn eviction_follows_recency_exactly(capacity in 1usize..8, touched in 0u32..8) {
        let mut lru: LruCache<u32, u32> = LruCache::new(capacity);
        for k in 0..capacity as u32 {
            prop_assert!(lru.insert(k, k * 10).is_none());
        }
        let promoted = lru.get(&touched).is_some();
        // The next insert evicts the oldest key — key 0, unless key 0
        // itself was promoted (then key 1, when one exists).
        let expected_victim = if promoted && touched == 0 && capacity > 1 {
            1
        } else {
            0
        };
        prop_assert_eq!(lru.insert(999, 0).map(|(k, _)| k), Some(expected_victim));
    }

    /// Distinct rectangles never collide on a cache key: any
    /// difference in any corner bit, dimension, name, or version makes
    /// the keys unequal.
    #[test]
    fn distinct_rects_never_collide(
        a in (0.0f64..100.0, 0.0f64..100.0, 0.0f64..50.0, 0.0f64..50.0),
        b in (0.0f64..100.0, 0.0f64..100.0, 0.0f64..50.0, 0.0f64..50.0),
        version in 1u64..4,
    ) {
        let rect = |c: (f64, f64, f64, f64)| {
            Rect::<2>::from_corners([c.0, c.1], [c.0 + c.2 + 0.01, c.1 + c.3 + 0.01]).unwrap()
        };
        let (ra, rb) = (rect(a), rect(b));
        let ka = CacheKey::new("syn", version, &ra);
        let kb = CacheKey::new("syn", version, &rb);
        let same_rect = ra
            .min
            .iter()
            .chain(ra.max.iter())
            .zip(rb.min.iter().chain(rb.max.iter()))
            .all(|(x, y)| x.to_bits() == y.to_bits());
        prop_assert_eq!(ka == kb, same_rect, "key equality must mirror exact rect equality");
        // Name and version always separate keys.
        prop_assert_ne!(ka.clone(), CacheKey::new("other", version, &ra));
        prop_assert_ne!(ka, CacheKey::new("syn", version + 1, &ra));
    }

    /// After a hot swap bumps the version, previously cached answers
    /// are unreachable: lookups keyed by the new version can only miss.
    #[test]
    fn hot_swapped_versions_never_read_old_entries(
        x in 0.0f64..60.0,
        y in 0.0f64..60.0,
        answer in 0.0f64..500.0,
    ) {
        let cache = ShardedCache::new(256);
        let rect = Rect::<2>::from_corners([x, y], [x + 1.0, y + 1.0]).unwrap();
        cache.insert(CacheKey::new("t", 1, &rect), answer);
        prop_assert_eq!(cache.get(&CacheKey::new("t", 1, &rect)), Some(answer));
        prop_assert_eq!(cache.get(&CacheKey::new("t", 2, &rect)), None);
        cache.purge_stale("t", 2);
        prop_assert_eq!(cache.stats().entries, 0);
        // Even without the purge, version-3 keys can never hit either.
        cache.insert(CacheKey::new("t", 2, &rect), answer + 1.0);
        prop_assert_eq!(cache.get(&CacheKey::new("t", 3, &rect)), None);
    }
}

/// End-to-end staleness check through the real registry: publish,
/// cache, hot-swap to a differently-noised artifact, and verify the
/// version-carrying key can never resurrect the old answer.
#[test]
fn registry_hot_swap_never_serves_stale_cached_answers() {
    let domain = Rect::new(0.0, 0.0, 32.0, 32.0).unwrap();
    let pts: Vec<Point> = (0..800)
        .map(|i| Point::new(((i * 7) % 320) as f64 * 0.1, ((i * 11) % 320) as f64 * 0.1))
        .collect();
    let build = |seed: u64| {
        PsdConfig::quadtree(domain, 3, 0.7)
            .with_seed(seed)
            .build(&pts)
            .unwrap()
            .release()
    };
    let (v1, v2) = (build(1), build(2));
    let q = Rect::new(2.0, 3.0, 19.0, 27.0).unwrap();
    assert_ne!(v1.query(&q).to_bits(), v2.query(&q).to_bits());

    let registry = SynopsisRegistry::new();
    let cache = ShardedCache::new(128);
    let read_through = |published: &dpsd_serve::PublishedSynopsis| {
        let key = CacheKey::new(&published.name, published.version, &q);
        match cache.get(&key) {
            Some(hit) => hit,
            None => {
                let answer = match &published.synopsis {
                    dpsd_serve::AnySynopsis::D2(s) => s.query(&q),
                    _ => unreachable!("planar fixture"),
                };
                cache.insert(key, answer);
                answer
            }
        }
    };

    let (p1, _) = registry
        .publish("swap", v1.to_json_string().as_bytes())
        .unwrap();
    assert_eq!(read_through(&p1).to_bits(), v1.query(&q).to_bits());
    assert_eq!(read_through(&p1).to_bits(), v1.query(&q).to_bits()); // cached

    let (p2, _) = registry
        .publish("swap", v2.to_json_string().as_bytes())
        .unwrap();
    cache.purge_stale("swap", p2.version);
    let fresh = registry.get("swap").unwrap();
    assert_eq!(fresh.version, 2);
    assert_eq!(
        read_through(&fresh).to_bits(),
        v2.query(&q).to_bits(),
        "hot-swapped synopsis must answer from the new artifact, not the cache"
    );
}
