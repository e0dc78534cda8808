//! A small least-recently-used cache.
//!
//! Used for the MPI pin-down (registration) cache and the InfiniBand HCA's
//! QP-context cache — both of which are small (8–64 entries) in the modelled
//! hardware, so an `O(capacity)` recency scan is simpler and faster than a
//! linked-list implementation at these sizes.
//!
//! Keyed on `BTreeMap`, not `HashMap`: the eviction scan breaks recency
//! ties in key order and [`LruCache::clear`] drains in key order, so cache
//! behaviour is bit-for-bit reproducible across runs (hash iteration order
//! is randomized per process, which is why clippy.toml bans `HashMap`).

use std::collections::BTreeMap;

/// A fixed-capacity LRU map.
#[derive(Debug, Clone)]
pub struct LruCache<K: Ord + Clone, V> {
    capacity: usize,
    map: BTreeMap<K, (V, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Ord + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            capacity,
            map: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its recency. Records hit/miss statistics.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(key) {
            Some((v, stamp)) => {
                *stamp = clock;
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Check for `key` without touching recency or statistics.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Insert `key`, evicting the least-recently-used entry if the cache is
    /// full. Returns the evicted `(key, value)`, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.clock += 1;
        self.map.insert(key, (value, self.clock));
        if self.map.len() > self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("cache over capacity implies nonempty");
            self.evictions += 1;
            return self.map.remove(&victim).map(|(v, _)| (victim, v));
        }
        None
    }

    /// Remove `key` from the cache.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(v, _)| v)
    }

    /// Drop every entry (cache flush), returning the values.
    pub fn clear(&mut self) -> Vec<(K, V)> {
        std::mem::take(&mut self.map)
            .into_iter()
            .map(|(k, (v, _))| (k, v))
            .collect()
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // "a" now most recent
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert!(c.peek(&"a").is_some());
        assert!(c.peek(&"b").is_none());
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut c = LruCache::new(3);
        for (i, k) in ["x", "y", "z"].iter().enumerate() {
            c.insert(*k, i);
        }
        assert_eq!(c.insert("w", 9), Some(("x", 0)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn cycling_over_capacity_thrashes() {
        // This is the pattern behind the paper's 0%-reuse buffer test: a
        // cycle longer than the cache never hits after warmup.
        let mut c = LruCache::new(16);
        let keys: Vec<u32> = (0..24).collect();
        for _ in 0..3 {
            for k in &keys {
                if c.get(k).is_none() {
                    c.insert(*k, ());
                }
            }
        }
        let (hits, misses, _) = c.stats();
        assert_eq!(hits, 0, "cycle of 24 over capacity 16 must never hit");
        assert_eq!(misses, 72);
    }

    #[test]
    fn repeated_key_always_hits_after_first() {
        // ... and the 100%-reuse pattern always hits.
        let mut c = LruCache::new(16);
        for i in 0..10 {
            if c.get(&42u32).is_none() {
                assert_eq!(i, 0, "only the first access may miss");
                c.insert(42u32, ());
            }
        }
        let (hits, misses, _) = c.stats();
        assert_eq!((hits, misses), (9, 1));
    }

    #[test]
    fn remove_and_clear() {
        let mut c = LruCache::new(4);
        c.insert(1, "one");
        c.insert(2, "two");
        assert_eq!(c.remove(&1), Some("one"));
        assert_eq!(c.remove(&1), None);
        let mut drained = c.clear();
        drained.sort();
        assert_eq!(drained, vec![(2, "two")]);
        assert!(c.is_empty());
    }
}
