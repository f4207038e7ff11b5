//! Content-addressed artifact cache for incremental analysis.
//!
//! The session API (`syncopt::AnalysisSession`) keys every expensive
//! pipeline artifact — lowered source CFG, delay-set analysis, optimized
//! programs, simulation results, race, lint and provenance reports, whole
//! replies — by a [`Fingerprint`] of its inputs plus a short `kind` tag.
//! Identical inputs therefore share one artifact, and an edit that leaves
//! a program's canonical CFG alone only recomputes the artifacts keyed by
//! its raw text.
//!
//! A cache of capacity 0 is **disabled**: it stores nothing, counts
//! nothing, and — through [`ArtifactCache::get_or_with`], which takes the
//! key as a closure — never asks its caller to derive a key. That is the
//! state a one-shot pipeline run uses: a key is a hash of a whole source
//! text or printed CFG, and a cache that is dropped with the request has no
//! reader for it.
//!
//! The cache is a plain LRU over `(kind, fingerprint)` keys storing
//! type-erased `Arc`s: a hash map from key to a slot of one `Vec`, the
//! slots linked by index into a recency list, so a hit, an insert and an
//! eviction each cost the same whatever the cache holds. It keeps
//! deterministic hit/miss/eviction counters (total and per kind, exported
//! as [`KindStats`]) so reports and tests can prove that a warm
//! re-analysis reused artifacts instead of rebuilding them. The cache
//! itself never affects analysis *results* — only how much work it took
//! to produce them.

use crate::diag::json;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use syncopt_frontend::Fingerprint;

/// Default maximum number of cached artifacts.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

crate::counter_struct! {
    /// Cumulative cache activity counters.
    ///
    /// Snapshots are `Copy`, and [`CacheStats::since`] computes a per-request
    /// delta, which is how the RPC layer reports how much of one request was
    /// served from cache.
    pub struct CacheStats: u64 {
        /// Lookups answered from the cache.
        hits,
        /// Lookups that had to build the artifact.
        misses,
        /// Artifacts dropped to stay within capacity.
        evictions,
    }
}

impl CacheStats {
    /// The activity between an `earlier` snapshot and this one.
    #[must_use]
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        let (now, then) = (self.values(), earlier.values());
        CacheStats::from_values(std::array::from_fn(|at| now[at] - then[at]))
    }

    /// Total lookups (hits plus misses).
    pub fn lookups(self) -> u64 {
        self.hits + self.misses
    }
}

type Key = (&'static str, Fingerprint);

/// "No slot": the end of the recency list in either direction.
const NIL: u32 = u32::MAX;

/// One resident artifact and its place in the recency list.
struct Slot {
    key: Key,
    value: Arc<dyn Any + Send + Sync>,
    /// The slot used just after this one (`NIL` at the front).
    newer: u32,
    /// The slot used just before this one (`NIL` at the back).
    older: u32,
}

/// Every kind of artifact the session API stores, in pipeline order, and
/// last `other`, under which a kind not listed (a test's, a probe's) is
/// counted.
pub const CACHE_KINDS: [&str; 9] = [
    "cfg", "analysis", "opt", "sim", "races", "lint", "explain", "reply", "other",
];

/// The slot of `kind` in [`CACHE_KINDS`], `other`'s for an unlisted kind.
fn kind_slot(kind: &str) -> usize {
    let other = CACHE_KINDS.len() - 1;
    CACHE_KINDS[..other]
        .iter()
        .position(|&k| k == kind)
        .unwrap_or(other)
}

/// Cache activity per artifact kind: one [`CacheStats`] per kind of
/// [`CACHE_KINDS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats([CacheStats; CACHE_KINDS.len()]);

impl KindStats {
    /// The activity of `kind`; a kind not in [`CACHE_KINDS`] reads
    /// `other`'s.
    pub fn get(&self, kind: &str) -> CacheStats {
        self.0[kind_slot(kind)]
    }

    /// The activity of `kind`, to be counted.
    fn get_mut(&mut self, kind: &str) -> &mut CacheStats {
        &mut self.0[kind_slot(kind)]
    }

    /// Every `(kind, activity)` pair, in [`CACHE_KINDS`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, CacheStats)> + '_ {
        CACHE_KINDS.into_iter().zip(self.0)
    }

    /// Appends the counters as one JSON object: the member
    /// `cache.<kind>.<counter>` of every counter that moved, keys sorted.
    /// Kind by kind is key by key, since `.` sorts before every letter.
    pub fn write_json(&self, out: &mut String) {
        let counters = name_order(&CacheStats::NAMES);
        let mut o = json::Obj::open(out);
        for kind in name_order(&CACHE_KINDS) {
            let values = self.0[kind].values();
            for at in counters.into_iter().filter(|&at| values[at] > 0) {
                let name = ["cache.", CACHE_KINDS[kind], ".", CacheStats::NAMES[at]];
                json::write_int(o.key_escaped(&name), values[at] as i64);
            }
        }
        o.close();
    }
}

/// The indices of `names`, in the byte order of the names.
fn name_order<const N: usize>(names: &[&str; N]) -> [usize; N] {
    let mut order = std::array::from_fn(|at| at);
    order.sort_by_key(|&at| names[at]);
    order
}

/// A content-addressed LRU artifact store.
///
/// Keys are `(kind, fingerprint)` pairs: the `kind` tag (`"cfg"`,
/// `"analysis"`, `"lint"`, …) namespaces artifact types so two artifact
/// kinds derived from the same input text cannot collide, and the
/// [`Fingerprint`] is a stable hash of everything the artifact depends
/// on. Values are type-erased `Arc`s; [`ArtifactCache::get_or_try_with`] is
/// the typed entry point.
///
/// ```
/// use std::sync::Arc;
/// use syncopt_core::cache::ArtifactCache;
/// use syncopt_frontend::Fingerprint;
///
/// let mut cache = ArtifactCache::new(16);
/// let key = || Fingerprint::of("shared int X;");
/// let cold: Arc<usize> = cache.get_or_with("len", key, || 13);
/// let warm: Arc<usize> = cache.get_or_with("len", key, || unreachable!());
/// assert_eq!(*cold, *warm);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
///
/// // Capacity 0 disables the cache: every call builds, no key is derived.
/// let mut off = ArtifactCache::new(0);
/// let built: Arc<usize> = off.get_or_with("len", || unreachable!(), || 13);
/// assert_eq!((*built, off.len(), off.stats().lookups()), (13, 0, 0));
/// ```
pub struct ArtifactCache {
    capacity: usize,
    /// Where each resident key lives in `slots`.
    index: HashMap<Key, u32>,
    /// Never longer than `capacity`: a full insert reuses the back slot.
    slots: Vec<Slot>,
    /// Most recently used slot (`NIL` when empty).
    front: u32,
    /// Least recently used slot, the next to be evicted (`NIL` when empty).
    back: u32,
    stats: CacheStats,
    /// Activity per kind. A handful of kinds exist, so finding one is a
    /// short scan with no allocation.
    by_kind: KindStats,
}

impl ArtifactCache {
    /// An empty cache holding at most `capacity` artifacts (slots are
    /// numbered in 32 bits, so at most `u32::MAX`). Capacity 0 is the
    /// **disabled** cache: every lookup is absent without being counted and
    /// every insert is dropped.
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            capacity: capacity.min(NIL as usize),
            index: HashMap::new(),
            slots: Vec::new(),
            front: NIL,
            back: NIL,
            stats: CacheStats::default(),
            by_kind: KindStats::default(),
        }
    }

    /// Whether the cache can hold anything (capacity above 0). A caller
    /// that derives a key outside [`get_or_with`](ArtifactCache::get_or_with)
    /// asks this first.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Takes `slot` out of the recency list (its own links go stale).
    fn unlink(&mut self, slot: u32) {
        let Slot { newer, older, .. } = self.slots[slot as usize];
        match newer {
            NIL => self.front = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.back = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    /// Links `slot` in as the most recently used.
    fn push_front(&mut self, slot: u32) {
        let old_front = std::mem::replace(&mut self.front, slot);
        let links = &mut self.slots[slot as usize];
        links.newer = NIL;
        links.older = old_front;
        match old_front {
            NIL => self.back = slot,
            f => self.slots[f as usize].newer = slot,
        }
    }

    fn touch(&mut self, slot: u32) {
        if self.front != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Looks up an artifact, counting a hit or a miss (neither when the
    /// cache is disabled).
    ///
    /// A stored value whose type does not match `T` counts as a miss
    /// (the subsequent insert replaces it); with disciplined one-type-
    /// per-kind usage this never happens.
    pub fn get<T: Any + Send + Sync>(
        &mut self,
        kind: &'static str,
        fp: Fingerprint,
    ) -> Option<Arc<T>> {
        if !self.enabled() {
            return None;
        }
        let found = self
            .index
            .get(&(kind, fp))
            .copied()
            .map(|slot| {
                self.touch(slot);
                Arc::clone(&self.slots[slot as usize].value)
            })
            .and_then(|value| value.downcast::<T>().ok());
        match &found {
            Some(_) => {
                self.stats.hits += 1;
                self.by_kind.get_mut(kind).hits += 1;
            }
            None => {
                self.stats.misses += 1;
                self.by_kind.get_mut(kind).misses += 1;
            }
        }
        found
    }

    /// Stores an artifact, evicting the least recently used entry if the
    /// cache is full.
    pub fn insert<T: Any + Send + Sync>(&mut self, kind: &'static str, fp: Fingerprint, value: T) {
        self.insert_arc(kind, fp, Arc::new(value));
    }

    /// [`insert`](ArtifactCache::insert) for an already-shared artifact.
    pub fn insert_arc<T: Any + Send + Sync>(
        &mut self,
        kind: &'static str,
        fp: Fingerprint,
        value: Arc<T>,
    ) {
        if !self.enabled() {
            return;
        }
        let key = (kind, fp);
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot as usize].value = value;
            self.touch(slot);
            return;
        }
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                value,
                newer: NIL,
                older: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            // Full: the least recently used artifact gives up its slot.
            let slot = self.back;
            self.unlink(slot);
            let evicted = std::mem::replace(&mut self.slots[slot as usize].key, key);
            self.slots[slot as usize].value = value;
            self.index.remove(&evicted);
            self.stats.evictions += 1;
            self.by_kind.get_mut(evicted.0).evictions += 1;
            slot
        };
        self.push_front(slot);
        self.index.insert(key, slot);
    }

    /// Returns the cached artifact for `(kind, key())`, building and
    /// storing it with `build` on a miss. A disabled cache builds without
    /// calling `key`.
    pub fn get_or_with<T: Any + Send + Sync>(
        &mut self,
        kind: &'static str,
        key: impl FnOnce() -> Fingerprint,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        match self.get_or_try_with::<T, std::convert::Infallible>(kind, key, || Ok(build())) {
            Ok(value) => value,
        }
    }

    /// Fallible [`get_or_with`](ArtifactCache::get_or_with): a build error
    /// is returned to the caller and nothing is cached, so errors are
    /// re-diagnosed (with fresh spans and messages) on every request.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error on a cache miss.
    pub fn get_or_try_with<T: Any + Send + Sync, E>(
        &mut self,
        kind: &'static str,
        key: impl FnOnce() -> Fingerprint,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        if !self.enabled() {
            return build().map(Arc::new);
        }
        let fp = key();
        if let Some(value) = self.get::<T>(kind, fp) {
            return Ok(value);
        }
        let value = Arc::new(build()?);
        self.insert_arc(kind, fp, Arc::clone(&value));
        Ok(value)
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Cumulative activity per kind of [`CACHE_KINDS`].
    pub fn kind_counters(&self) -> KindStats {
        self.by_kind
    }

    /// Number of artifacts currently stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every artifact (counters are preserved).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.front = NIL;
        self.back = NIL;
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("capacity", &self.capacity)
            .field("entries", &self.index.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// The cache as it was before the recency list: a use tick per entry and
/// a scan over every entry for the smallest one on eviction. Kept as the
/// model the list is compared against.
#[cfg(test)]
mod reference {
    use super::{CacheStats, Key, KindStats};
    use std::any::Any;
    use std::collections::HashMap;
    use std::sync::Arc;
    use syncopt_frontend::Fingerprint;

    struct Entry {
        value: Arc<dyn Any + Send + Sync>,
        last_used: u64,
    }

    pub(super) struct TickCache {
        capacity: usize,
        entries: HashMap<Key, Entry>,
        tick: u64,
        pub(super) stats: CacheStats,
        pub(super) by_kind: KindStats,
    }

    impl TickCache {
        pub(super) fn new(capacity: usize) -> Self {
            TickCache {
                capacity: capacity.max(1),
                entries: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
                by_kind: KindStats::default(),
            }
        }

        pub(super) fn get<T: Any + Send + Sync>(
            &mut self,
            kind: &'static str,
            fp: Fingerprint,
        ) -> Option<Arc<T>> {
            self.tick += 1;
            let found = self
                .entries
                .get_mut(&(kind, fp))
                .map(|entry| {
                    entry.last_used = self.tick;
                    Arc::clone(&entry.value)
                })
                .and_then(|value| value.downcast::<T>().ok());
            match &found {
                Some(_) => {
                    self.stats.hits += 1;
                    self.by_kind.get_mut(kind).hits += 1;
                }
                None => {
                    self.stats.misses += 1;
                    self.by_kind.get_mut(kind).misses += 1;
                }
            }
            found
        }

        pub(super) fn insert_arc<T: Any + Send + Sync>(
            &mut self,
            kind: &'static str,
            fp: Fingerprint,
            value: Arc<T>,
        ) {
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&(kind, fp)) {
                self.evict_lru();
            }
            self.tick += 1;
            self.entries.insert(
                (kind, fp),
                Entry {
                    value,
                    last_used: self.tick,
                },
            );
        }

        fn evict_lru(&mut self) {
            // `last_used` values are unique (every touch bumps the tick), so
            // the minimum is well defined and eviction is deterministic.
            if let Some(key) = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key)
            {
                self.entries.remove(&key);
                self.stats.evictions += 1;
                self.by_kind.get_mut(key.0).evictions += 1;
            }
        }

        pub(super) fn clear(&mut self) {
            self.entries.clear();
        }

        pub(super) fn resident(&self) -> Vec<Key> {
            let mut keys: Vec<Key> = self.entries.keys().copied().collect();
            keys.sort_unstable();
            keys
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::TickCache;
    use super::*;
    use crate::corpus::SplitMix64;

    impl ArtifactCache {
        fn resident(&self) -> Vec<Key> {
            let mut keys: Vec<Key> = self.index.keys().copied().collect();
            keys.sort_unstable();
            keys
        }

        /// The resident keys from most to least recently used, walking the
        /// list both ways and checking that the two walks agree.
        fn recency_order(&self) -> Vec<Key> {
            let mut forward = Vec::new();
            let mut slot = self.front;
            while slot != NIL {
                forward.push(self.slots[slot as usize].key);
                slot = self.slots[slot as usize].older;
            }
            let mut backward = Vec::new();
            let mut slot = self.back;
            while slot != NIL {
                backward.push(self.slots[slot as usize].key);
                slot = self.slots[slot as usize].newer;
            }
            backward.reverse();
            assert_eq!(forward, backward, "the two directions of the list disagree");
            forward
        }
    }

    /// The key that was resident `before` and is not `after`, if any.
    fn evicted(before: &[Key], after: &[Key]) -> Option<Key> {
        let gone: Vec<Key> = before
            .iter()
            .filter(|k| !after.contains(k))
            .copied()
            .collect();
        assert!(gone.len() <= 1, "one step evicted {gone:?}");
        gone.first().copied()
    }

    #[test]
    fn the_recency_list_evicts_exactly_what_the_tick_scan_evicted() {
        const KINDS: [&str; 3] = ["cfg", "opt", "sim"];
        const STEPS: usize = 10_000;
        for capacity in [1usize, 2, 3, 8, 64] {
            let mut list = ArtifactCache::new(capacity);
            let mut model = TickCache::new(capacity);
            let mut rng = SplitMix64::new(0xcace + capacity as u64);
            // About twice as many keys as slots: hits, misses and
            // evictions all happen throughout.
            let universe = 2 * capacity as u64 + 2;
            let pick = |rng: &mut SplitMix64| {
                let n = rng.below(universe);
                (KINDS[(n % 3) as usize], Fingerprint::of(&n.to_string()))
            };
            let mut clears = 0;
            for step in 0..STEPS {
                let before = (list.resident(), model.resident());
                let (kind, fp) = pick(&mut rng);
                let what = rng.below(100);
                match what {
                    0..=39 => {
                        let a = list.get::<u64>(kind, fp).map(|v| *v);
                        let b = model.get::<u64>(kind, fp).map(|v| *v);
                        assert_eq!(a, b, "capacity {capacity} step {step}: get");
                    }
                    40..=69 => {
                        let value = Arc::new(step as u64);
                        list.insert_arc(kind, fp, Arc::clone(&value));
                        model.insert_arc(kind, fp, value);
                    }
                    70..=84 => {
                        // Re-insert of a resident key: no eviction, new
                        // value, most recently used afterwards.
                        if let Some(&(kind, fp)) = before
                            .0
                            .get(rng.below(before.0.len().max(1) as u64) as usize)
                        {
                            let value = Arc::new(step as u64);
                            list.insert_arc(kind, fp, Arc::clone(&value));
                            model.insert_arc(kind, fp, value);
                            assert_eq!(list.recency_order()[0], (kind, fp));
                        }
                    }
                    85..=98 => {
                        // A lookup as the other type — a miss that still
                        // counts as a use wherever a `u64` is resident —
                        // then the replacing insert.
                        assert_eq!(
                            list.get::<String>(kind, fp),
                            model.get::<String>(kind, fp),
                            "capacity {capacity} step {step}: get as String"
                        );
                        let value = Arc::new(format!("s{step}"));
                        list.insert_arc(kind, fp, Arc::clone(&value));
                        model.insert_arc(kind, fp, value);
                        assert_eq!(list.get::<String>(kind, fp), model.get::<String>(kind, fp));
                    }
                    _ => {
                        list.clear();
                        model.clear();
                        clears += 1;
                        assert!(list.slots.is_empty() && list.is_empty());
                    }
                }
                let after = (list.resident(), model.resident());
                let at = format!("capacity {capacity} step {step} (choice {what})");
                assert_eq!(after.0, after.1, "{at}: resident keys");
                if what < 99 {
                    assert_eq!(
                        evicted(&before.0, &after.0),
                        evicted(&before.1, &after.1),
                        "{at}: evicted key"
                    );
                }
                assert!(list.len() <= capacity, "{at}: over capacity");
                assert!(list.slots.len() <= capacity, "{at}: slot Vec grew");
                assert_eq!(list.recency_order().len(), list.len(), "{at}: list length");
                assert_eq!(list.stats(), model.stats, "{at}: total counters");
                assert_eq!(list.by_kind, model.by_kind, "{at}: per-kind counters");
            }
            assert!(clears > 0 && list.stats().evictions > 0 && list.stats().hits > 0);
        }
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        for capacity in [1usize, 2, 3, 8, 64] {
            let mut cache = ArtifactCache::new(capacity);
            for round in 0..2 {
                for n in 0..10 * capacity {
                    cache.insert("n", Fingerprint::of(&format!("{round}/{n}")), n);
                    assert!(cache.slots.len() <= capacity);
                }
                assert_eq!(cache.slots.len(), capacity);
                assert_eq!(cache.len(), capacity);
                // The survivors are the last `capacity` inserted, newest
                // first.
                let expected: Vec<Key> = (9 * capacity..10 * capacity)
                    .rev()
                    .map(|n| ("n", Fingerprint::of(&format!("{round}/{n}"))))
                    .collect();
                assert_eq!(cache.recency_order(), expected);
                cache.clear();
                assert!(cache.slots.is_empty());
                assert_eq!((cache.front, cache.back), (NIL, NIL));
            }
            assert_eq!(cache.stats().evictions, 2 * 9 * capacity as u64);
        }
    }

    #[test]
    fn hit_returns_same_artifact() {
        let mut cache = ArtifactCache::new(8);
        let fp = Fingerprint::of("x");
        let a = cache.get_or_with("s", || fp, || String::from("artifact"));
        let b = cache.get_or_with("s", || fp, || String::from("rebuilt"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn kinds_namespace_the_same_fingerprint() {
        let mut cache = ArtifactCache::new(8);
        let fp = Fingerprint::of("x");
        let a = cache.get_or_with("a", || fp, || 1usize);
        let b = cache.get_or_with("b", || fp, || 2usize);
        assert_eq!((*a, *b), (1, 2));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ArtifactCache::new(2);
        let (f1, f2, f3) = (
            Fingerprint::of("1"),
            Fingerprint::of("2"),
            Fingerprint::of("3"),
        );
        cache.get_or_with("n", || f1, || 1usize);
        cache.get_or_with("n", || f2, || 2usize);
        // Touch f1 so f2 is the LRU entry.
        cache.get_or_with::<usize>("n", || f1, || unreachable!());
        cache.get_or_with("n", || f3, || 3usize);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // f1 survived; f2 was evicted.
        assert!(cache.get::<usize>("n", f1).is_some());
        assert!(cache.get::<usize>("n", f2).is_none());
    }

    #[test]
    fn errors_are_not_cached() {
        let mut cache = ArtifactCache::new(8);
        let fp = Fingerprint::of("bad");
        let err: Result<Arc<usize>, &str> = cache.get_or_try_with("n", || fp, || Err("boom"));
        assert!(err.is_err());
        // The retry rebuilds (a second miss), then succeeds.
        let ok = cache
            .get_or_try_with::<usize, &str>("n", || fp, || Ok(7))
            .unwrap();
        assert_eq!(*ok, 7);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn stats_since_computes_request_delta() {
        let mut cache = ArtifactCache::new(8);
        let fp = Fingerprint::of("x");
        cache.get_or_with("n", || fp, || 1usize);
        let before = cache.stats();
        cache.get_or_with::<usize>("n", || fp, || unreachable!());
        let delta = cache.stats().since(before);
        assert_eq!(
            delta,
            CacheStats {
                hits: 1,
                misses: 0,
                evictions: 0
            }
        );
        assert_eq!(delta.lookups(), 1);
    }

    #[test]
    fn per_kind_counters_track_activity() {
        let mut cache = ArtifactCache::new(8);
        let fp = Fingerprint::of("x");
        cache.get_or_with("cfg", || fp, || 1usize);
        cache.get_or_with::<usize>("cfg", || fp, || unreachable!());
        assert_eq!(cache.kind_counters().get("cfg").misses, 1);
        assert_eq!(cache.kind_counters().get("cfg").hits, 1);
        // A kind the session does not store is counted, under `other`.
        cache.get_or_with("probe", || fp, || 1usize);
        cache.get_or_with("n", || fp, || 1usize);
        let kinds = cache.kind_counters();
        assert_eq!(kinds.get("other").misses, 2);
        assert_eq!(kinds.get("probe"), kinds.get("other"));
        let mut text = String::new();
        kinds.write_json(&mut text);
        assert_eq!(
            text,
            r#"{"cache.cfg.hits":1,"cache.cfg.misses":1,"cache.other.misses":2}"#
        );
    }

    #[test]
    fn a_disabled_cache_asks_for_no_key_stores_nothing_and_counts_nothing() {
        let mut cache = ArtifactCache::new(0);
        assert!(!cache.enabled());
        assert_eq!(cache.capacity(), 0);
        let fp = Fingerprint::of("x");
        for round in 0..3usize {
            let built = cache.get_or_with("n", || unreachable!("key derived"), || round);
            assert_eq!(*built, round, "a disabled cache answered from memory");
            assert_eq!(Arc::strong_count(&built), 1, "the cache kept a handle");
        }
        let err: Result<Arc<usize>, &str> =
            cache.get_or_try_with("n", || unreachable!("key derived"), || Err("boom"));
        assert_eq!(err, Err("boom"));
        cache.insert("n", fp, 7usize);
        assert!(cache.get::<usize>("n", fp).is_none());
        assert!(cache.is_empty() && cache.slots.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.stats().lookups(), 0);
        assert_eq!(cache.kind_counters(), KindStats::default());
        assert!(ArtifactCache::new(1).enabled());
    }

    /// The cache-key table of `docs/API.md` lists exactly the kinds the
    /// session stores, in the order of [`CACHE_KINDS`].
    #[test]
    fn the_api_doc_lists_every_kind_in_order() {
        let doc = include_str!("../../../docs/API.md");
        let table = doc
            .split("\n### Cache keys\n")
            .nth(1)
            .expect("docs/API.md has a `Cache keys` section");
        let kinds: Vec<&str> = table
            .lines()
            .skip_while(|line| !line.starts_with('|'))
            .take_while(|line| line.starts_with('|'))
            .skip(2)
            .map(|row| row.split('|').nth(1).unwrap_or("").trim().trim_matches('`'))
            .collect();
        let (other, declared) = CACHE_KINDS.split_last().unwrap();
        assert_eq!((kinds.as_slice(), *other), (declared, "other"));
    }
}
