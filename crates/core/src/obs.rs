//! Observability primitives shared by every pipeline stage.
//!
//! Three std-only building blocks:
//!
//! * [`AnalysisCounters`] — the fixed work-counter set of one analysis
//!   (pairs considered, back-path searches, edges kept or dropped per
//!   refinement rule), one `u64` slot per [`AnalysisCounter`] declared in
//!   [`ANALYSIS_COUNTER_NAMES`]. Counting is an array store: no name is
//!   compared, inserted or allocated while the analysis runs.
//! * [`counter_struct!`](crate::counter_struct) — the declaration of a
//!   fixed counter struct (the simulator's message, stall, cycle and
//!   engine counters, the optimizer's action counts, the cache's
//!   activity): its fields, names, JSON keys and field-wise add, written
//!   once and iterated by every report writer, merge and decoder.
//! * [`PhaseTimings`] — phase-scoped wall-clock timers. Timings are
//!   inherently nondeterministic, so they are kept separate from the
//!   counters: consumers that need reproducible output (golden tests,
//!   report diffing) compare counters exactly and scrub or ratio the
//!   timings.
//!
//! Each writes its JSON object straight into a caller's buffer, through
//! the writer of [`crate::diag::json`], with keys in a stable order.

use crate::diag::json::{self, key, Key};
use std::time::Instant;

/// Declares the analysis counters once: the variants of
/// [`AnalysisCounter`], their names and their JSON keys, in one order.
macro_rules! analysis_counters {
    ($($variant:ident = $name:literal,)+) => {
        /// One work counter of an analysis. Variants are declared in the
        /// byte order of their names, so a variant's discriminant is its
        /// slot in [`AnalysisCounters`] and its index in
        /// [`ANALYSIS_COUNTER_NAMES`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum AnalysisCounter {
            $(#[doc = concat!("`", $name, "`")] $variant,)+
        }

        /// Every analysis counter name, byte-sorted: the keys of a pipeline
        /// report's `counters` section, in order, each exactly once.
        pub const ANALYSIS_COUNTER_NAMES: [&str; COUNT] = [$($name,)+];

        /// Each name as a JSON object key.
        const KEYS: [Key; COUNT] = [$(key!($name),)+];

        const COUNT: usize = [$($name,)+].len();
    };
}

analysis_counters! {
    ConflictDirectedEdges = "conflict.directed_edges",
    ConflictPairTests = "conflict.pair_tests",
    ConflictPairs = "conflict.pairs",
    ConflictProcSteps = "conflict.proc_steps",
    CycleBackpathQueries = "cycle.backpath_queries",
    CycleBfsFallbacks = "cycle.bfs_fallbacks",
    CycleCandidatePairs = "cycle.candidate_pairs",
    CycleClosureWordOrs = "cycle.closure_word_ors",
    CycleOracleBuilds = "cycle.oracle_builds",
    CyclePrunedCandidates = "cycle.pruned_candidates",
    CycleSccs = "cycle.sccs",
    DelayPairsDropped = "delay.pairs_dropped",
    DelayRefinedPairs = "delay.refined_pairs",
    DelaySsPairs = "delay.ss_pairs",
    SyncAlignedBarriers = "sync.aligned_barriers",
    SyncBackpathQueries = "sync.backpath_queries",
    SyncBarrierEdges = "sync.barrier_edges",
    SyncBfsFallbacks = "sync.bfs_fallbacks",
    SyncCandidatePairs = "sync.candidate_pairs",
    SyncClosureWordOrs = "sync.closure_word_ors",
    SyncConflictDirectionsRemoved = "sync.conflict_directions_removed",
    SyncD1BackpathQueries = "sync.d1_backpath_queries",
    SyncD1Pairs = "sync.d1_pairs",
    SyncD1PrunedCandidates = "sync.d1_pruned_candidates",
    SyncOracleBuilds = "sync.oracle_builds",
    SyncOracleSccs = "sync.oracle_sccs",
    SyncPostWaitEdges = "sync.post_wait_edges",
    SyncPrecedenceDerived = "sync.precedence_derived",
    SyncPrecedencePairs = "sync.precedence_pairs",
    SyncPrunedCandidates = "sync.pruned_candidates",
    SyncRefinedPairs = "sync.refined_pairs",
    SyncRemovedBackpathNodes = "sync.removed_backpath_nodes",
}

/// The work counters of one analysis: one slot per [`AnalysisCounter`].
///
/// Each stage writes the counters it owns once — the analysis base the
/// `conflict.*` and `cycle.*` ones, the refinement the `sync.*` ones,
/// [`crate::analyze_with`] the `delay.*` ones — and a complete analysis has
/// written every slot exactly once, which [`AnalysisCounters::missing`]
/// lets a test check. Reading by name and iterating are sorted by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisCounters {
    values: [u64; COUNT],
    /// Bit `c` is set once counter `c` was written.
    written: u64,
}

const _: () = assert!(COUNT <= u64::BITS as usize, "one `written` bit per counter");

impl Default for AnalysisCounters {
    fn default() -> Self {
        AnalysisCounters {
            values: [0; COUNT],
            written: 0,
        }
    }
}

impl AnalysisCounters {
    /// Writes `counter`; a stage writes each of its counters once.
    pub fn set(&mut self, counter: AnalysisCounter, n: u64) {
        let at = counter as usize;
        debug_assert!(
            self.written & (1 << at) == 0,
            "`{}` written twice",
            ANALYSIS_COUNTER_NAMES[at]
        );
        self.values[at] = n;
        self.written |= 1 << at;
    }

    /// Takes over the counters another stage wrote; no counter may have
    /// been written by both.
    pub fn merge(&mut self, other: &AnalysisCounters) {
        debug_assert!(
            self.written & other.written == 0,
            "a counter written by two stages"
        );
        for (mine, theirs) in self.values.iter_mut().zip(&other.values) {
            *mine += theirs;
        }
        self.written |= other.written;
    }

    /// The value of the counter named `name` (zero if no counter has that
    /// name or it was not written).
    pub fn get(&self, name: &str) -> u64 {
        ANALYSIS_COUNTER_NAMES
            .binary_search(&name)
            .map_or(0, |at| self.values[at])
    }

    /// Every `(name, value)` pair, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        ANALYSIS_COUNTER_NAMES
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The names of the counters no stage wrote, sorted.
    pub fn missing(&self) -> impl Iterator<Item = &'static str> + '_ {
        ANALYSIS_COUNTER_NAMES
            .iter()
            .enumerate()
            .filter(|&(at, _)| self.written & (1 << at) == 0)
            .map(|(_, &name)| name)
    }

    /// Appends the counters as one JSON object, every name in order.
    pub fn write_json(&self, out: &mut String) {
        let mut o = json::Obj::open(out);
        for (&key, &n) in KEYS.iter().zip(&self.values) {
            o.int(key, n);
        }
        o.close();
    }
}

/// Declares a fixed set of counters once, as a struct with one public
/// field of type `$ty` per counter; a field's name is the counter's name
/// and its JSON key. With the struct come its names and keys in
/// declaration order (`NAMES`, `KEYS`), its values in that order
/// (`values`, `from_values`), the `(key, value)` members a JSON writer
/// writes (`fields`) and a field-wise `add`. Every writer, merge and
/// decoder of the set iterates these, so a counter added to the
/// declaration reaches all of them.
#[macro_export]
macro_rules! counter_struct {
    (
        $(#[$attr:meta])*
        pub struct $name:ident: $ty:ty {
            $($(#[$doc:meta])* $field:ident,)+
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)+
        }

        impl $name {
            /// How many counters the set declares.
            pub const COUNT: usize = [$(stringify!($field)),+].len();

            /// Every counter's name, in declaration order.
            pub const NAMES: [&'static str; Self::COUNT] = [$(stringify!($field)),+];

            /// Each name as a JSON object key.
            pub const KEYS: [$crate::diag::json::Key; Self::COUNT] = [$(
                $crate::diag::json::Key::quoted(concat!("\"", stringify!($field), "\":")),
            )+];

            /// Every counter's value, in declaration order.
            pub fn values(&self) -> [u64; Self::COUNT] {
                [$(self.$field as u64),+]
            }

            /// The counters holding `values`, in declaration order.
            pub fn from_values(values: [u64; Self::COUNT]) -> Self {
                let [$($field),+] = values;
                $name { $($field: $field as $ty),+ }
            }

            /// Every counter as a JSON member, `(key, value)`, in
            /// declaration order.
            pub fn fields(&self) -> [($crate::diag::json::Key, u64); Self::COUNT] {
                let values = self.values();
                ::std::array::from_fn(|at| (Self::KEYS[at], values[at]))
            }

            /// Adds `other`'s counters to these, field by field.
            pub fn add(&mut self, other: &Self) {
                $(self.$field += other.$field;)+
            }
        }
    };
}

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
            // Room for the pipeline's seven phases, parse to simulate.
            phases: Vec::with_capacity(7),
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

    /// Appends the timings as one JSON object in pipeline order; every
    /// value is the phase duration in microseconds (all zeros when
    /// disabled), under the key `<phase>_us`.
    pub fn write_json(&self, out: &mut String) {
        let mut o = json::Obj::open(out);
        for (phase, micros) in self.iter() {
            json::write_int(o.key_escaped(&[phase, "_us"]), micros as i64);
        }
        o.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_struct! {
        /// Two counters.
        pub struct Pair: usize {
            /// The first.
            first,
            /// The second.
            second,
        }
    }

    #[test]
    fn a_counter_struct_yields_its_fields_in_declaration_order() {
        let mut pair = Pair::from_values([41, 2]);
        pair.add(&Pair {
            first: 1,
            second: 0,
        });
        assert_eq!(
            pair,
            Pair {
                first: 42,
                second: 2
            }
        );
        assert_eq!((Pair::COUNT, Pair::NAMES), (2, ["first", "second"]));
        for (&name, key) in Pair::NAMES.iter().zip(Pair::KEYS) {
            assert_eq!(key.name(), name);
        }
        let mut text = String::new();
        json::write_ints(&mut text, &pair.fields());
        assert_eq!(text, r#"{"first":42,"second":2}"#);
    }

    /// The declared table is the report's key order: byte-sorted, each
    /// name once, and the enum's discriminants index it.
    #[test]
    fn analysis_counter_names_are_byte_sorted_and_unique() {
        assert_eq!(ANALYSIS_COUNTER_NAMES.len(), 32);
        for pair in ANALYSIS_COUNTER_NAMES.windows(2) {
            assert!(pair[0].as_bytes() < pair[1].as_bytes(), "{pair:?}");
        }
        for (&name, key) in ANALYSIS_COUNTER_NAMES.iter().zip(KEYS) {
            assert_eq!(key.name(), name);
        }
        assert_eq!(
            ANALYSIS_COUNTER_NAMES[AnalysisCounter::SyncRemovedBackpathNodes as usize],
            "sync.removed_backpath_nodes"
        );
    }

    #[test]
    fn analysis_counters_merge_takes_the_other_stages_counters() {
        let mut base = AnalysisCounters::default();
        base.set(AnalysisCounter::ConflictPairs, 3);
        let mut sync = AnalysisCounters::default();
        sync.set(AnalysisCounter::SyncD1Pairs, 2);
        sync.set(AnalysisCounter::SyncBackpathQueries, 0);
        base.merge(&sync);
        assert_eq!(base.get("conflict.pairs"), 3);
        assert_eq!(base.get("sync.d1_pairs"), 2);
        assert_eq!(base.get("no.such_counter"), 0);
        assert_eq!(base.missing().count(), 32 - 3);
        assert!(!base.missing().any(|name| name == "sync.backpath_queries"));
        let mut text = String::new();
        base.write_json(&mut text);
        let keys: Vec<&str> = base.iter().map(|(name, _)| name).collect();
        assert_eq!(keys, ANALYSIS_COUNTER_NAMES);
        assert!(
            text.starts_with(
                "{\"conflict.directed_edges\":0,\"conflict.pair_tests\":0,\"conflict.pairs\":3,"
            ),
            "{text}"
        );
        assert!(
            text.ends_with(",\"sync.removed_backpath_nodes\":0}"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "written twice")]
    #[cfg(debug_assertions)]
    fn an_analysis_counter_is_written_once() {
        let mut c = AnalysisCounters::default();
        c.set(AnalysisCounter::CycleSccs, 1);
        c.set(AnalysisCounter::CycleSccs, 2);
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
        let mut text = String::new();
        t.write_json(&mut text);
        assert_eq!(text, r#"{"parse_us":0,"simulate_us":0}"#);
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
