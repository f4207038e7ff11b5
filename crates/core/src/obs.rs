//! Observability primitives shared by every pipeline stage.
//!
//! Two std-only building blocks:
//!
//! * [`Counters`] — a deterministic named-counter registry. Analysis and
//!   optimization passes report *what they did* (pairs considered,
//!   back-path searches, edges kept/dropped per refinement rule) into one
//!   of these; the facade merges them into the `PipelineReport`.
//! * [`PhaseTimings`] — phase-scoped wall-clock timers. Timings are
//!   inherently nondeterministic, so they are kept separate from the
//!   counters: consumers that need reproducible output (golden tests,
//!   report diffing) compare counters exactly and scrub or ratio the
//!   timings.
//!
//! Both types convert to the std-only JSON [`crate::diag::json::Value`],
//! with keys in a stable order.

use crate::diag::json;
use std::time::Instant;

/// A deterministic registry of named `u64` counters.
///
/// Keys use dotted `stage.metric` names (`"cycle.backpath_queries"`,
/// `"sync.post_wait_edges"`); iteration and JSON emission are sorted by
/// key, so two runs over the same input produce identical output.
///
/// Every name is a literal of this workspace, so the registry holds
/// `&'static str`s in one sorted `Vec`: counting never builds a `String`,
/// and a clone is one copy of the entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Sorted by name, names unique.
    values: Vec<(&'static str, u64)>,
}

impl Counters {
    /// An empty registry.
    pub fn new() -> Self {
        Counters::default()
    }

    /// The slot of `name`, created at zero if absent.
    fn slot(&mut self, name: &'static str) -> &mut u64 {
        let at = match self.values.binary_search_by_key(&name, |&(k, _)| k) {
            Ok(at) => at,
            Err(at) => {
                self.values.insert(at, (name, 0));
                at
            }
        };
        &mut self.values[at].1
    }

    /// Adds `n` to `name` (creating it at zero first).
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.slot(name) += n;
    }

    /// Sets `name` to `n`, overwriting any previous value.
    pub fn set(&mut self, name: &'static str, n: u64) {
        *self.slot(name) = n;
    }

    /// The value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.try_get(name).unwrap_or(0)
    }

    /// The value of `name`, or `None` if it was never touched.
    pub fn try_get(&self, name: &str) -> Option<u64> {
        self.values
            .binary_search_by_key(&name, |&(k, _)| k)
            .ok()
            .map(|at| self.values[at].1)
    }

    /// All `(name, value)` pairs, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().copied()
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Merges another registry into this one (summing shared keys).
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// The registry as a JSON object, keys sorted.
    pub fn to_json(&self) -> json::Value {
        json::Value::Obj(
            self.iter()
                .map(|(k, v)| (k.into(), json::Value::Int(v as i64)))
                .collect(),
        )
    }
}

/// The pipeline's phases with the key each one has in a JSON report.
const PIPELINE_PHASE_KEYS: [(&str, &str); 7] = [
    ("parse", "parse_us"),
    ("typeck", "typeck_us"),
    ("inline", "inline_us"),
    ("lower", "lower_us"),
    ("analyze", "analyze_us"),
    ("optimize", "optimize_us"),
    ("simulate", "simulate_us"),
];

/// Phase-scoped wall-clock timers, recorded in microseconds.
///
/// Phases keep their insertion order (the pipeline order), and a disabled
/// collector records every phase with a zero duration so the *schema* of
/// emitted reports does not depend on whether timing was requested.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    enabled: bool,
    phases: Vec<(&'static str, u64)>,
}

impl PhaseTimings {
    /// A collector; `enabled = false` records zeros (schema-stable no-op).
    pub fn new(enabled: bool) -> Self {
        PhaseTimings {
            enabled,
            phases: Vec::with_capacity(PIPELINE_PHASE_KEYS.len()),
        }
    }

    /// Whether durations are actually measured.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as phase `name`, recording its duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            self.phases.push((name, 0));
            return f();
        }
        let start = Instant::now();
        let out = f();
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.phases.push((name, micros));
        out
    }

    /// Records an externally measured phase duration.
    pub fn record(&mut self, name: &'static str, micros: u64) {
        self.phases
            .push((name, if self.enabled { micros } else { 0 }));
    }

    /// All `(phase, micros)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.phases.iter().copied()
    }

    /// The duration of `name` (zero if absent or disabled).
    pub fn get(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The timings as a JSON object in pipeline order; every value is the
    /// phase duration in microseconds (all zeros when disabled).
    pub fn to_json(&self) -> json::Value {
        let key = |phase: &str| -> json::Key {
            match PIPELINE_PHASE_KEYS.iter().find(|(name, _)| *name == phase) {
                Some(&(_, key)) => key.into(),
                None => format!("{phase}_us").into(),
            }
        };
        json::Value::Obj(
            self.iter()
                .map(|(k, v)| (key(k), json::Value::Int(v as i64)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let mut c = Counters::new();
        c.add("b.second", 1);
        c.add("a.first", 41);
        c.add("a.first", 1);
        assert_eq!(c.get("a.first"), 42);
        assert_eq!(c.get("missing"), 0);
        let keys: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a.first", "b.second"]);
        assert_eq!(c.to_json().to_string(), r#"{"a.first":42,"b.second":1}"#);
    }

    #[test]
    fn counters_merge_sums_shared_keys() {
        let mut a = Counters::new();
        a.add("x", 1);
        let mut b = Counters::new();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn disabled_timings_record_zeros_with_stable_schema() {
        let mut t = PhaseTimings::new(false);
        let out = t.time("parse", || 7);
        assert_eq!(out, 7);
        t.record("simulate", 1234);
        assert!(!t.enabled());
        assert_eq!(t.get("parse"), 0);
        assert_eq!(t.get("simulate"), 0);
        assert_eq!(t.to_json().to_string(), r#"{"parse_us":0,"simulate_us":0}"#);
    }

    #[test]
    fn enabled_timings_measure_and_preserve_order() {
        let mut t = PhaseTimings::new(true);
        t.time("first", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.record("second", 99);
        assert!(t.get("first") >= 1000, "slept 2ms: {}", t.get("first"));
        assert_eq!(t.get("second"), 99);
        let keys: Vec<&str> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["first", "second"]);
    }
}
