//! Content-addressed artifact cache for incremental analysis.
//!
//! The session API (`syncopt::AnalysisSession`) keys every expensive
//! pipeline artifact — parsed AST, per-function check verdicts, lowered
//! CFG, delay-set analysis, optimized programs, lint reports, simulation
//! results — by a [`Fingerprint`] of its inputs plus a short `kind` tag.
//! Identical inputs therefore share one artifact, and editing one
//! function of a program only recomputes the artifacts whose inputs
//! actually changed.
//!
//! The cache is a plain LRU over `(kind, fingerprint)` keys storing
//! type-erased `Arc`s. It keeps deterministic hit/miss/eviction counters
//! (total and per kind, exported as [`Counters`]) so reports and tests can prove
//! that a warm re-analysis reused artifacts instead of rebuilding them.
//! The cache itself never affects analysis *results* — only how much
//! work it took to produce them.

use crate::obs::Counters;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use syncopt_frontend::Fingerprint;

/// Default maximum number of cached artifacts.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Cumulative cache activity counters.
///
/// Snapshots are `Copy`, and [`CacheStats::since`] computes a per-request
/// delta, which is how the RPC layer reports how much of one request was
/// served from cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
    /// Artifacts dropped to stay within capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// The activity between an `earlier` snapshot and this one.
    #[must_use]
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Total lookups (hits plus misses).
    pub fn lookups(self) -> u64 {
        self.hits + self.misses
    }
}

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    last_used: u64,
}

/// A content-addressed LRU artifact store.
///
/// Keys are `(kind, fingerprint)` pairs: the `kind` tag (`"ast"`,
/// `"analysis"`, `"lint"`, …) namespaces artifact types so two artifact
/// kinds derived from the same input text cannot collide, and the
/// [`Fingerprint`] is a stable hash of everything the artifact depends
/// on. Values are type-erased `Arc`s; [`ArtifactCache::get_or_try`] is
/// the typed entry point.
///
/// ```
/// use std::sync::Arc;
/// use syncopt_core::cache::ArtifactCache;
/// use syncopt_frontend::Fingerprint;
///
/// let mut cache = ArtifactCache::new(16);
/// let key = Fingerprint::of("shared int X;");
/// let cold: Arc<usize> = cache.get_or("len", key, || 13);
/// let warm: Arc<usize> = cache.get_or("len", key, || unreachable!());
/// assert_eq!(*cold, *warm);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
pub struct ArtifactCache {
    capacity: usize,
    entries: HashMap<(&'static str, Fingerprint), Entry>,
    tick: u64,
    stats: CacheStats,
    /// Activity per kind, in order of first use. A handful of kinds
    /// exist, so finding one is a short scan with no allocation — unlike
    /// formatting a counter name on every lookup.
    by_kind: Vec<(&'static str, CacheStats)>,
}

impl ArtifactCache {
    /// An empty cache holding at most `capacity` artifacts (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            by_kind: Vec::new(),
        }
    }

    fn kind_stats(&mut self, kind: &'static str) -> &mut CacheStats {
        let index = match self.by_kind.iter().position(|(k, _)| *k == kind) {
            Some(index) => index,
            None => {
                self.by_kind.push((kind, CacheStats::default()));
                self.by_kind.len() - 1
            }
        };
        &mut self.by_kind[index].1
    }

    /// Looks up an artifact, counting a hit or a miss.
    ///
    /// A stored value whose type does not match `T` counts as a miss
    /// (the subsequent insert replaces it); with disciplined one-type-
    /// per-kind usage this never happens.
    pub fn get<T: Any + Send + Sync>(
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
                self.kind_stats(kind).hits += 1;
            }
            None => {
                self.stats.misses += 1;
                self.kind_stats(kind).misses += 1;
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

    /// Returns the cached artifact for `(kind, fp)`, building and
    /// storing it with `build` on a miss.
    pub fn get_or<T: Any + Send + Sync>(
        &mut self,
        kind: &'static str,
        fp: Fingerprint,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        match self.get_or_try::<T, std::convert::Infallible>(kind, fp, || Ok(build())) {
            Ok(value) => value,
        }
    }

    /// Fallible [`get_or`](ArtifactCache::get_or): a build error is
    /// returned to the caller and nothing is cached, so errors are
    /// re-diagnosed (with fresh spans and messages) on every request.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error on a cache miss.
    pub fn get_or_try<T: Any + Send + Sync, E>(
        &mut self,
        kind: &'static str,
        fp: Fingerprint,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        if let Some(value) = self.get::<T>(kind, fp) {
            return Ok(value);
        }
        let value = Arc::new(build()?);
        self.insert_arc(kind, fp, Arc::clone(&value));
        Ok(value)
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
            self.kind_stats(key.0).evictions += 1;
        }
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Per-kind activity as dotted counters
    /// (`cache.<kind>.hits|misses|evictions`), mergeable into the obs
    /// layer's pipeline counters. A counter that never moved is absent.
    pub fn kind_counters(&self) -> Counters {
        let mut counters = Counters::new();
        for (kind, stats) in &self.by_kind {
            for (event, n) in [
                ("hits", stats.hits),
                ("misses", stats.misses),
                ("evictions", stats.evictions),
            ] {
                if n > 0 {
                    counters.set(&format!("cache.{kind}.{event}"), n);
                }
            }
        }
        counters
    }

    /// Number of artifacts currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every artifact (counters are preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
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
            .field("entries", &self.entries.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_same_artifact() {
        let mut cache = ArtifactCache::new(8);
        let fp = Fingerprint::of("x");
        let a = cache.get_or("s", fp, || String::from("artifact"));
        let b = cache.get_or("s", fp, || String::from("rebuilt"));
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
        let a = cache.get_or("a", fp, || 1usize);
        let b = cache.get_or("b", fp, || 2usize);
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
        cache.get_or("n", f1, || 1usize);
        cache.get_or("n", f2, || 2usize);
        // Touch f1 so f2 is the LRU entry.
        cache.get_or::<usize>("n", f1, || unreachable!());
        cache.get_or("n", f3, || 3usize);
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
        let err: Result<Arc<usize>, &str> = cache.get_or_try("n", fp, || Err("boom"));
        assert!(err.is_err());
        // The retry rebuilds (a second miss), then succeeds.
        let ok = cache.get_or_try::<usize, &str>("n", fp, || Ok(7)).unwrap();
        assert_eq!(*ok, 7);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn stats_since_computes_request_delta() {
        let mut cache = ArtifactCache::new(8);
        let fp = Fingerprint::of("x");
        cache.get_or("n", fp, || 1usize);
        let before = cache.stats();
        cache.get_or::<usize>("n", fp, || unreachable!());
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
        cache.get_or("ast", fp, || 1usize);
        cache.get_or::<usize>("ast", fp, || unreachable!());
        assert_eq!(cache.kind_counters().get("cache.ast.misses"), 1);
        assert_eq!(cache.kind_counters().get("cache.ast.hits"), 1);
    }
}
