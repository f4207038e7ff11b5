//! Concurrent service metrics: atomic counters, gauges, and fixed-bucket
//! latency histograms behind one registry.
//!
//! [`crate::obs::Counters`] is the right tool for *pipeline* work
//! accounting: single-threaded, deterministic, merged into one report at
//! the end of a run. A long-running service needs the opposite shape —
//! many threads recording concurrently, snapshots taken while requests
//! are in flight — so this module provides the same stable-key /
//! std-only-JSON discipline over atomics:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`.
//! * [`Gauge`] — a signed up/down value (`AtomicI64`): in-flight
//!   requests, open connections.
//! * [`Histogram`] — a fixed-bucket latency histogram (power-of-four
//!   microsecond rungs, like the simulator's power-of-two cycle
//!   histogram) with count / sum / min / max.
//! * [`MetricsRegistry`] — a name → metric map. Registration takes a
//!   lock once; the returned `Arc` handles are lock-free on the hot
//!   path. Snapshots iterate in sorted key order, so two snapshots of
//!   the same state are byte-identical.
//!
//! Keys use the dotted `stage.metric` convention, optionally followed by
//! a `{label="value"}` suffix (see [`labeled`]) so one logical metric can
//! fan out per operation (`rpc.requests_total{op="check"}`).
//!
//! Two renderings exist: [`MetricsRegistry::to_json`] (a std-only JSON
//! object, with a **deterministic-scrub mode** that zeroes every
//! timing-derived field while pinning the structure, for golden tests)
//! and [`MetricsRegistry::prometheus_text`] (Prometheus text exposition
//! format, for scraping).

use crate::diag::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter. All operations are relaxed
/// atomics: totals are exact, cross-metric ordering is not promised.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed up/down value (in-flight requests, open connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the value outright.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of microsecond latencies.
///
/// `buckets[i]` counts samples in `[BOUNDS[i-1], BOUNDS[i])`; the last
/// bucket is unbounded. The power-of-four rungs span 64 µs to ~1 s —
/// request latencies below the first rung and above the last one are
/// still counted (in the first and overflow buckets), so `count` is
/// always the exact number of observations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; Histogram::BOUNDS.len() + 1],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Upper bucket boundaries, in microseconds.
    pub const BOUNDS: [u64; 8] = [64, 256, 1024, 4096, 16384, 65536, 262144, 1048576];

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Default::default(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (microseconds).
    pub fn observe(&self, us: u64) {
        let i = Histogram::BOUNDS
            .iter()
            .position(|&b| us < b)
            .unwrap_or(Histogram::BOUNDS.len());
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.min.fetch_min(us, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in microseconds.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        let v = self.min.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, lowest rung first, overflow last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The human label of bucket `i` (`"<64us"`, `">=1048576us"`).
    pub fn bucket_label(i: usize) -> String {
        if i < Histogram::BOUNDS.len() {
            format!("<{}us", Histogram::BOUNDS[i])
        } else {
            format!(">={}us", Histogram::BOUNDS[Histogram::BOUNDS.len() - 1])
        }
    }

    /// The histogram as JSON. In scrub mode every timing-derived field —
    /// the per-bucket distribution, sum, min, max — is zeroed while
    /// `count` (a pure request count) stays exact, so goldens can pin
    /// structure and totals without pinning wall-clock behavior.
    pub fn to_json(&self, scrub: bool) -> json::Value {
        let z = |v: u64| json::Value::Int(if scrub { 0 } else { v as i64 });
        json::Value::Obj(vec![
            ("count".into(), json::Value::Int(self.count() as i64)),
            ("sum_us".into(), z(self.sum())),
            ("min_us".into(), z(self.min())),
            ("max_us".into(), z(self.max())),
            (
                "buckets".into(),
                json::Value::Arr(self.bucket_counts().into_iter().map(z).collect()),
            ),
        ])
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Builds a labeled metric key: `labeled("rpc.requests_total", "op",
/// "check")` → `rpc.requests_total{op="check"}`. The base name (before
/// `{`) is what glossaries document; the label picks the series.
pub fn labeled(name: &str, label: &str, value: &str) -> String {
    format!("{name}{{{label}=\"{value}\"}}")
}

/// The base name of a (possibly labeled) metric key.
pub fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A concurrent name → metric registry.
///
/// `counter`/`gauge`/`histogram` register on first use and return the
/// existing handle afterwards; callers keep the `Arc` and update it
/// lock-free. Asking for an existing name with a different kind is a
/// programming error and panics (names are static in practice).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self
            .metrics
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return m.clone();
        }
        let mut metrics = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter named `name`, registering it at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.register(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` is already registered with another kind"),
        }
    }

    /// The gauge named `name`, registering it at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.register(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` is already registered with another kind"),
        }
    }

    /// The histogram named `name`, registering it empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.register(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` is already registered with another kind"),
        }
    }

    /// All registered keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.metrics
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// The registry as one JSON object: `counters` and `gauges` are flat
    /// key → value maps, `histograms` maps each key to its
    /// [`Histogram::to_json`] object. Keys are sorted, so two snapshots
    /// of identical state are byte-identical. `scrub` zeroes every
    /// timing-derived value (histogram distributions/sums/extrema) while
    /// keeping counts, for golden tests.
    pub fn to_json(&self, scrub: bool) -> json::Value {
        let metrics = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, m) in metrics.iter() {
            match m {
                Metric::Counter(c) => {
                    counters.push((name.clone().into(), json::Value::Int(c.get() as i64)));
                }
                Metric::Gauge(g) => gauges.push((name.clone().into(), json::Value::Int(g.get()))),
                Metric::Histogram(h) => histograms.push((name.clone().into(), h.to_json(scrub))),
            }
        }
        json::Value::Obj(vec![
            ("counters".into(), json::Value::Obj(counters)),
            ("gauges".into(), json::Value::Obj(gauges)),
            ("histograms".into(), json::Value::Obj(histograms)),
        ])
    }

    /// The registry in Prometheus text exposition format.
    ///
    /// Dotted names become underscored and gain the `prefix`
    /// (`rpc.requests_total{op="check"}` with prefix `syncopt` →
    /// `syncopt_rpc_requests_total{op="check"}`). Histograms expand to
    /// the conventional `_bucket{le=...}` / `_sum` / `_count` series
    /// (bounds are microseconds). A `# TYPE` comment precedes the first
    /// series of every family.
    pub fn prometheus_text(&self, prefix: &str) -> String {
        let metrics = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let mut last_family = String::new();
        for (key, m) in metrics.iter() {
            let (family, labels) = prom_name(prefix, key);
            let kind = match m {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            if family != last_family {
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                last_family = family.clone();
            }
            match m {
                Metric::Counter(c) => {
                    out.push_str(&format!("{family}{labels} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{family}{labels} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, n) in h.bucket_counts().into_iter().enumerate() {
                        cumulative += n;
                        let le = Histogram::BOUNDS
                            .get(i)
                            .map_or("+Inf".into(), u64::to_string);
                        out.push_str(&format!(
                            "{family}_bucket{} {cumulative}\n",
                            with_label(&labels, "le", &le)
                        ));
                    }
                    out.push_str(&format!("{family}_sum{labels} {}\n", h.sum()));
                    out.push_str(&format!("{family}_count{labels} {}\n", h.count()));
                }
            }
        }
        out
    }
}

/// Splits a registry key into its Prometheus family name and label set.
fn prom_name(prefix: &str, key: &str) -> (String, String) {
    let (base, labels) = match key.find('{') {
        Some(i) => (&key[..i], key[i..].to_string()),
        None => (key, String::new()),
    };
    (format!("{prefix}_{}", base.replace('.', "_")), labels)
}

/// Adds `label="value"` to an existing (possibly empty) `{...}` set.
fn with_label(labels: &str, label: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{label}=\"{value}\"}}")
    } else {
        format!(
            "{},{label}=\"{value}\"}}",
            labels.strip_suffix('}').unwrap_or(labels)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_shared_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("rpc.requests_total");
        let b = reg.counter("rpc.requests_total");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("rpc.requests_total").get(), 3);
        let g = reg.gauge("rpc.in_flight");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(reg.gauge("rpc.in_flight").get(), 1);
    }

    #[test]
    fn histogram_buckets_and_extrema() {
        let h = Histogram::new();
        h.observe(10);
        h.observe(100);
        h.observe(2_000_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 2_000_110);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 2_000_000);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1, "10us lands below the first rung");
        assert_eq!(buckets[1], 1, "100us lands in [64, 256)");
        assert_eq!(*buckets.last().unwrap(), 1, "2s overflows the ladder");
        assert_eq!(buckets.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn snapshot_is_sorted_and_scrub_pins_structure() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").inc();
        reg.counter("a.first").add(41);
        reg.histogram("c.latency_us").observe(123);
        let json = reg.to_json(false).to_string();
        assert!(json.find("a.first").unwrap() < json.find("b.second").unwrap());
        let scrubbed = reg.to_json(true);
        let hist = scrubbed
            .get("histograms")
            .and_then(|h| h.get("c.latency_us"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(json::Value::as_int), Some(1));
        assert_eq!(hist.get("sum_us").and_then(json::Value::as_int), Some(0));
        assert_eq!(hist.get("max_us").and_then(json::Value::as_int), Some(0));
        // Scrubbing a second snapshot of the same state is byte-stable.
        assert_eq!(scrubbed.to_string(), reg.to_json(true).to_string());
    }

    #[test]
    fn labeled_keys_round_trip_base_names() {
        let key = labeled("rpc.requests_total", "op", "check");
        assert_eq!(key, "rpc.requests_total{op=\"check\"}");
        assert_eq!(base_name(&key), "rpc.requests_total");
        assert_eq!(base_name("rpc.bytes_in"), "rpc.bytes_in");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter(&labeled("rpc.requests_total", "op", "check"))
            .add(5);
        reg.counter(&labeled("rpc.requests_total", "op", "lint"))
            .add(2);
        reg.gauge("rpc.in_flight").set(1);
        reg.histogram(&labeled("rpc.request_latency_us", "op", "check"))
            .observe(100);
        let text = reg.prometheus_text("syncopt");
        assert!(text.contains("# TYPE syncopt_rpc_requests_total counter"));
        assert_eq!(
            text.matches("# TYPE syncopt_rpc_requests_total counter")
                .count(),
            1,
            "one TYPE line per family:\n{text}"
        );
        assert!(text.contains("syncopt_rpc_requests_total{op=\"check\"} 5"));
        assert!(text.contains("syncopt_rpc_requests_total{op=\"lint\"} 2"));
        assert!(text.contains("# TYPE syncopt_rpc_in_flight gauge"));
        assert!(text.contains("syncopt_rpc_request_latency_us_bucket{op=\"check\",le=\"256\"} 1"));
        assert!(text.contains("syncopt_rpc_request_latency_us_bucket{op=\"check\",le=\"+Inf\"} 1"));
        assert!(text.contains("syncopt_rpc_request_latency_us_sum{op=\"check\"} 100"));
        assert!(text.contains("syncopt_rpc_request_latency_us_count{op=\"check\"} 1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty() && value.parse::<i64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn concurrent_updates_are_exact() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("t.total");
                    let h = reg.histogram("t.latency_us");
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("t.total").get(), 8000);
        assert_eq!(reg.histogram("t.latency_us").count(), 8000);
        let buckets = reg.histogram("t.latency_us").bucket_counts();
        assert_eq!(buckets.iter().sum::<u64>(), 8000);
    }
}
