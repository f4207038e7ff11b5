//! Static data-race detection via may-happen-in-parallel classification.
//!
//! The §5 synchronization analysis already computes everything a race
//! detector needs: the conflict set `C` enumerates every pair of access
//! sites two processors could aim at the same location (with at least one
//! write), the precedence relation `R` captures cross-processor ordering
//! established by post-wait edges and (aligned) barrier phases, and the
//! lock-guard analysis captures mutual exclusion. A conflicting **data**
//! pair is *may-happen-in-parallel* (MHP) exactly when none of those
//! mechanisms covers it:
//!
//! * `(a, b) ∈ R` or `(b, a) ∈ R` — synchronization orders every instance
//!   of one site against every instance of the other (post-wait
//!   precedence, or barrier phases chained through the step-4 fixpoint);
//! * `a` and `b` are guarded by a common lock — instances are mutually
//!   exclusive (no ordering, but no concurrent access either).
//!
//! Everything else is reported as a potential race. The verdict carries a
//! confidence: when the program contains **no synchronization operations
//! at all** the pair is *proven* racy (there is nothing that could order
//! it — both sites execute on distinct processors by construction of
//! `C`); otherwise the pair is *unproven-ordered* — the conservative
//! analysis could not cover it, but a mechanism it models imprecisely
//! (e.g. multiple candidate posts, unaligned barriers) might.
//!
//! This is the same decomposition used for race-freedom checking of
//! clocked X10 programs (Yuki et al.) — the delay-set refinement and the
//! race check are two readings of one MHP relation.

use crate::diag::{Diagnostic, Severity};
use crate::sync::{SyncExclusion, SyncOptions};
use crate::{analyze_with, Analysis, BarrierPolicy};
use syncopt_ir::access::AccessKind;
use syncopt_ir::cfg::Cfg;
use syncopt_ir::ids::{AccessId, VarId};

/// The flavor of a racy (or ordered) conflicting data pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// Two writes to the same location.
    WriteWrite,
    /// A read and a write of the same location.
    ReadWrite,
}

impl RaceKind {
    /// Human label (`write-write` / `read-write`).
    pub fn label(self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
        }
    }
}

/// Why an ordered pair is ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEvidence {
    /// `(first, second) ∈ R`: every instance of `first` completes before
    /// any instance of `second` initiates. `via_barriers` tells whether
    /// the edge survives only thanks to aligned barriers (it disappears
    /// under [`BarrierPolicy::Disabled`]).
    Precedence {
        /// The site ordered first.
        first: AccessId,
        /// The site ordered second.
        second: AccessId,
        /// Whether aligned-barrier edges are needed to derive the order.
        via_barriers: bool,
    },
    /// Both sites hold this lock: instances never overlap.
    MutualExclusion {
        /// The common lock.
        lock: VarId,
    },
}

/// The synchronization mechanisms the detector examined for a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvidenceKind {
    /// Post-wait precedence edges (§5.1).
    PostWaitPrecedence,
    /// Aligned-barrier phase ordering (§5.2).
    BarrierPhases,
    /// Lock mutual exclusion (§5.3).
    LockMutualExclusion,
}

impl EvidenceKind {
    /// Human label for messages.
    pub fn label(self) -> &'static str {
        match self {
            EvidenceKind::PostWaitPrecedence => "post-wait precedence",
            EvidenceKind::BarrierPhases => "barrier phases",
            EvidenceKind::LockMutualExclusion => "lock mutual exclusion",
        }
    }
}

/// How sure the detector is that a reported pair actually races.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confidence {
    /// The program contains no synchronization operations: nothing can
    /// order the pair, so (assuming both sites execute) the race is real.
    ProvenRacy,
    /// Synchronization exists but none that the analysis can prove covers
    /// this pair; may be a false positive of the conservative analysis.
    UnprovenOrdered,
}

/// One potentially racy pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The conflicting sites, in access-id order. A self-pair `(a, a)`
    /// means two *processors* race through the same statement.
    pub pair: (AccessId, AccessId),
    /// Write-write or read-write.
    pub kind: RaceKind,
    /// The synchronization mechanisms present in the program that the
    /// detector considered (and found insufficient). Empty exactly for
    /// [`Confidence::ProvenRacy`] reports.
    pub considered: Vec<EvidenceKind>,
    /// Proven racy vs unproven-ordered.
    pub confidence: Confidence,
}

/// One conflicting pair the detector proved ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderedPair {
    /// The conflicting sites, in access-id order.
    pub pair: (AccessId, AccessId),
    /// Write-write or read-write.
    pub kind: RaceKind,
    /// The ordering (or exclusion) evidence.
    pub evidence: SyncEvidence,
}

/// The race detector's classification of every conflicting data pair.
#[derive(Debug, Clone, Default)]
pub struct RaceAnalysis {
    /// Pairs no synchronization covers, i.e. potential data races.
    pub races: Vec<RaceReport>,
    /// Pairs proven ordered (or mutually excluded), with evidence.
    pub ordered: Vec<OrderedPair>,
}

impl RaceAnalysis {
    /// Whether no racy pair was found.
    pub fn race_free(&self) -> bool {
        self.races.is_empty()
    }

    /// Number of proven (not merely unproven-ordered) races.
    pub fn proven(&self) -> usize {
        self.races
            .iter()
            .filter(|r| r.confidence == Confidence::ProvenRacy)
            .count()
    }
}

/// Runs the analysis and classifies every conflicting data pair.
/// Convenience wrapper over [`classify_races`] for callers that hold no
/// [`Analysis`] yet.
pub fn detect_races(cfg: &Cfg, opts: &SyncOptions) -> RaceAnalysis {
    classify_races(cfg, &analyze_with(cfg, opts), opts)
}

/// Classifies every conflicting data pair of `analysis` (computed on
/// `cfg` with `opts`) as ordered or potentially racy.
pub fn classify_races(cfg: &Cfg, analysis: &Analysis, opts: &SyncOptions) -> RaceAnalysis {
    let (conflicts, sync) = (&analysis.conflicts, &analysis.sync);
    // Which mechanisms exist in this program at all (for `considered`).
    let has_post = cfg.accesses.iter().any(|(_, i)| i.kind == AccessKind::Post);
    let has_wait = cfg.accesses.iter().any(|(_, i)| i.kind == AccessKind::Wait);
    let has_locks = cfg
        .accesses
        .iter()
        .any(|(_, i)| i.kind == AccessKind::LockAcq);
    let has_sync = cfg.accesses.iter().any(|(_, i)| i.kind.is_sync());
    let mut present = Vec::new();
    if has_post && has_wait {
        present.push(EvidenceKind::PostWaitPrecedence);
    }
    if !sync.aligned_barriers.is_empty() {
        present.push(EvidenceKind::BarrierPhases);
    }
    if has_locks {
        present.push(EvidenceKind::LockMutualExclusion);
    }

    // Precedence without barrier edges, to attribute evidence: an order
    // that survives `BarrierPolicy::Disabled` rests on post-wait alone.
    // Steps 3–4 over the analysis's own base; nothing is rebuilt.
    let no_barrier = (!sync.aligned_barriers.is_empty()).then(|| {
        let disabled = SyncOptions {
            barrier_policy: BarrierPolicy::Disabled,
            ..*opts
        };
        analysis
            .base
            .precedence(cfg, &disabled, &SyncExclusion::default())
            .0
    });

    let mut out = RaceAnalysis::default();
    for (a, b) in conflicts.unordered_pairs() {
        let (ka, kb) = (cfg.accesses.info(a).kind, cfg.accesses.info(b).kind);
        if !ka.is_data() || !kb.is_data() {
            continue; // sync objects cannot "race"; §5 interprets them.
        }
        let kind = if ka == AccessKind::Write && kb == AccessKind::Write {
            RaceKind::WriteWrite
        } else {
            RaceKind::ReadWrite
        };

        // Precedence evidence (either direction orders all instances).
        let prec = if a != b && sync.precedence.contains(a, b) {
            Some((a, b))
        } else if a != b && sync.precedence.contains(b, a) {
            Some((b, a))
        } else {
            None
        };
        if let Some((first, second)) = prec {
            let via_barriers = no_barrier
                .as_ref()
                .is_some_and(|r| !r.contains(first, second));
            out.ordered.push(OrderedPair {
                pair: (a, b),
                kind,
                evidence: SyncEvidence::Precedence {
                    first,
                    second,
                    via_barriers,
                },
            });
            continue;
        }

        // Lock mutual-exclusion evidence (also covers self-pairs).
        let locks_a = analysis.guards.locks_guarding(a);
        let common = locks_a
            .into_iter()
            .find(|l| analysis.guards.guarded_by(*l).contains(&b));
        if let Some(lock) = common {
            out.ordered.push(OrderedPair {
                pair: (a, b),
                kind,
                evidence: SyncEvidence::MutualExclusion { lock },
            });
            continue;
        }

        out.races.push(RaceReport {
            pair: (a, b),
            kind,
            considered: present.clone(),
            // A race is proven only where nothing could order it and both
            // sites' guards were evaluated, not assumed.
            confidence: if has_sync || conflicts.guard_assumed(a) || conflicts.guard_assumed(b) {
                Confidence::UnprovenOrdered
            } else {
                Confidence::ProvenRacy
            },
        });
    }
    out
}

/// Short description of an access for messages: ``write of `X[...]` ``.
pub fn describe_access(cfg: &Cfg, a: AccessId) -> String {
    let info = cfg.accesses.info(a);
    let verb = match info.kind {
        AccessKind::Read => "read",
        AccessKind::Write => "write",
        AccessKind::Post => "post",
        AccessKind::Wait => "wait",
        AccessKind::Barrier => "barrier",
        AccessKind::LockAcq => "lock",
        AccessKind::LockRel => "unlock",
    };
    match info.var {
        Some(v) => {
            let name = &cfg.vars.info(v).name;
            if info.index.is_some() {
                format!("{verb} of `{name}[...]`")
            } else {
                format!("{verb} of `{name}`")
            }
        }
        None => verb.to_string(),
    }
}

/// Converts the racy pairs to [`Diagnostic`]s (codes `R001`/`R002`).
///
/// Proven races are errors; unproven-ordered pairs are warnings (the
/// analysis is conservative, so they may be false positives).
pub fn race_diagnostics(cfg: &Cfg, races: &RaceAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for r in &races.races {
        let (a, b) = r.pair;
        let (code, severity) = match (r.kind, r.confidence) {
            (RaceKind::WriteWrite, Confidence::ProvenRacy) => ("R001", Severity::Error),
            (RaceKind::WriteWrite, Confidence::UnprovenOrdered) => ("R001", Severity::Warning),
            (RaceKind::ReadWrite, Confidence::ProvenRacy) => ("R002", Severity::Error),
            (RaceKind::ReadWrite, Confidence::UnprovenOrdered) => ("R002", Severity::Warning),
        };
        let var = cfg.accesses.info(a).var.map_or_else(
            || "<unknown>".to_string(),
            |v| cfg.vars.info(v).name.clone(),
        );
        let certainty = match r.confidence {
            Confidence::ProvenRacy => "proven",
            Confidence::UnprovenOrdered => "possible",
        };
        let mut d = Diagnostic::new(
            code,
            severity,
            format!("{} {} race on `{}`", certainty, r.kind.label(), var),
            cfg.accesses.info(a).span,
        );
        if a == b {
            d = d.with_note(
                "every processor executes this statement; two of them may \
                 touch the same location concurrently",
                None,
            );
        } else {
            d = d.with_note(
                format!(
                    "conflicting {} may happen in parallel",
                    describe_access(cfg, b)
                ),
                Some(cfg.accesses.info(b).span),
            );
        }
        d = match r.confidence {
            Confidence::ProvenRacy => d.with_note(
                "the program contains no synchronization that could order this pair",
                None,
            ),
            Confidence::UnprovenOrdered => {
                let considered: Vec<&str> = r.considered.iter().map(|e| e.label()).collect();
                d.with_note(
                    if considered.is_empty() {
                        "no applicable synchronization mechanism covers this pair".to_string()
                    } else {
                        format!(
                            "ordering evidence considered but insufficient: {}",
                            considered.join(", ")
                        )
                    },
                    None,
                )
            }
        };
        out.push(d);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    fn races_of(src: &str) -> (Cfg, RaceAnalysis) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let r = detect_races(&cfg, &SyncOptions::default());
        (cfg, r)
    }

    #[test]
    fn unsynchronized_conflict_is_proven_racy() {
        let (_, r) = races_of("shared int Data; fn main() { int v; Data = MYPROC; v = Data; }");
        assert!(!r.race_free());
        assert!(r.proven() >= 1, "{:?}", r.races);
        let kinds: Vec<RaceKind> = r.races.iter().map(|x| x.kind).collect();
        assert!(kinds.contains(&RaceKind::WriteWrite), "self write-write");
        assert!(kinds.contains(&RaceKind::ReadWrite));
        for race in &r.races {
            assert_eq!(race.confidence, Confidence::ProvenRacy);
            assert!(race.considered.is_empty());
        }
    }

    #[test]
    fn post_wait_orders_producer_consumer() {
        let (_, r) = races_of(
            r#"
            shared int X; flag F;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; post F; }
                else { wait F; v = X; }
            }
            "#,
        );
        assert!(r.race_free(), "{:?}", r.races);
        assert_eq!(r.ordered.len(), 1);
        match r.ordered[0].evidence {
            SyncEvidence::Precedence { via_barriers, .. } => {
                assert!(!via_barriers, "ordered by post-wait, not barriers")
            }
            ref other => panic!("unexpected evidence {other:?}"),
        }
    }

    #[test]
    fn barrier_orders_phases_and_is_attributed() {
        let (_, r) = races_of(
            r#"
            shared int A[64];
            fn main() {
                int v;
                A[MYPROC + 1] = 1;
                barrier;
                v = A[MYPROC];
            }
            "#,
        );
        assert!(r.race_free(), "{:?}", r.races);
        assert!(r.ordered.iter().any(|o| matches!(
            o.evidence,
            SyncEvidence::Precedence {
                via_barriers: true,
                ..
            }
        )));
    }

    #[test]
    fn lock_mutual_exclusion_covers_critical_section() {
        let (cfg, r) = races_of(
            r#"
            shared int X; lock l;
            fn main() {
                int v;
                lock l;
                v = X;
                X = v + 1;
                unlock l;
            }
            "#,
        );
        assert!(r.race_free(), "{:?}", r.races);
        assert!(!r.ordered.is_empty());
        for o in &r.ordered {
            match o.evidence {
                SyncEvidence::MutualExclusion { lock } => {
                    assert_eq!(cfg.vars.info(lock).name, "l");
                }
                ref other => panic!("expected lock evidence, got {other:?}"),
            }
        }
    }

    #[test]
    fn broken_synchronization_is_unproven_not_proven() {
        // Two candidate posts defeat the unique-post matching: the pair is
        // racy for the analysis, but sync exists, so confidence is low.
        let (_, r) = races_of(
            r#"
            shared int X; flag F;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; post F; }
                else if (MYPROC == 1) { X = 2; post F; }
                else { wait F; v = X; }
            }
            "#,
        );
        assert!(!r.race_free());
        for race in &r.races {
            assert_eq!(race.confidence, Confidence::UnprovenOrdered);
            assert!(race.considered.contains(&EvidenceKind::PostWaitPrecedence));
        }
    }

    #[test]
    fn race_diagnostics_carry_spans_and_codes() {
        let src = "shared int Data; fn main() { int v; Data = MYPROC; v = Data; }";
        let (cfg, r) = races_of(src);
        let diags = race_diagnostics(&cfg, &r);
        assert_eq!(diags.len(), r.races.len());
        for d in &diags {
            assert!(d.code == "R001" || d.code == "R002");
            assert_eq!(d.severity, Severity::Error);
            assert!(!d.span.is_empty(), "span should point into the source");
            let rendered = d.render(src, "t.ms");
            assert!(rendered.contains("race on `Data`"), "{rendered}");
            assert!(rendered.contains('^'), "{rendered}");
        }
    }

    #[test]
    fn every_conflicting_data_pair_is_classified() {
        for src in [
            "shared int X; fn main() { X = MYPROC; }",
            r#"
            shared int X; shared int Y; flag F; lock l;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; post F; } else { wait F; v = X; }
                lock l; Y = 1; unlock l;
                barrier;
                v = Y;
            }
            "#,
        ] {
            let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
            let conflicts = crate::ConflictSet::build(&cfg);
            let r = detect_races(&cfg, &SyncOptions::default());
            let data_pairs = conflicts
                .unordered_pairs()
                .into_iter()
                .filter(|&(a, b)| {
                    cfg.accesses.info(a).kind.is_data() && cfg.accesses.info(b).kind.is_data()
                })
                .count();
            assert_eq!(r.races.len() + r.ordered.len(), data_pairs, "{src}");
        }
    }
}
