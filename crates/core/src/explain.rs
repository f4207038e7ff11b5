//! Delay-set provenance — *why* each Shasha–Snir delay pair survived
//! refinement or was removed by it (`syncoptc explain`).
//!
//! The paper's argument is causal: a delay `(u, v)` exists because a
//! back-path witnesses an SC violation (§4), and it disappears because a
//! post→wait edge, an aligned barrier, or a lock section breaks every such
//! path (§5). [`explain`] reconstructs that reasoning per pair, as a
//! dedicated pass over the finished [`Analysis`] — the hot delay-set loops
//! and their counters are untouched:
//!
//! * every **kept** pair carries a replayable back-path witness — the
//!   concrete mirror-copy access chain, found on the *refined* graph
//!   (oriented conflicts, step-6 removals) when the pair survives step 6,
//!   or on the unrefined graph for pairs contributed by `D1`;
//! * every **dropped** pair carries exactly one removal reason — the first
//!   synchronization fact that breaks its canonical `D_SS` witness: a
//!   chain node ordered after `u` or before `v` by the precedence relation
//!   `R` (traced back to its seeding post→wait edge or aligned-barrier
//!   pair when it is one), a chain node excluded by the §5.3 lock rule, or
//!   a conflict edge whose direction step 5 removed.
//!
//! Because the dropped pair's refined back-path query returned false,
//! *every* path is broken — so walking the canonical witness always finds
//! a breaking fact, and the reason is deterministic (shortest witness,
//! ascending-id BFS, first break along the chain).

use crate::barrier::{aligned_barriers_with, barrier_precedence_edges};
use crate::conflict::ConflictSet;
use crate::cycle::witness;
use crate::diag::json::{self, key};
use crate::diag::{Diagnostic, Severity};
use crate::sync::{post_wait_edges, SyncAnalysis, SyncOptions};
use crate::{Analysis, AnalysisBase};
use std::collections::HashSet;
use syncopt_ir::cfg::Cfg;
use syncopt_ir::ids::{AccessId, VarId};
use syncopt_ir::order::ProgramOrder;

/// The stable schema identifier of [`ExplainReport::to_json`].
pub const EXPLAIN_SCHEMA: &str = "syncopt.explain.v1";

/// The synchronization fact behind one precedence pair `(before, after)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncFact {
    /// A step-3 seed: `before` is the unique post releasing the wait
    /// `after`.
    PostWait {
        /// The post site.
        post: AccessId,
        /// The wait site it releases.
        wait: AccessId,
    },
    /// A step-3 seed: both sides are statically aligned barrier episodes
    /// (`before` = `after` for the self-pair of a single site).
    AlignedBarrier {
        /// The earlier barrier site.
        before: AccessId,
        /// The later barrier site.
        after: AccessId,
    },
    /// Derived by the step-4 fixpoint (transitivity or dominance-anchored
    /// chaining through `D1`) from the seeds.
    Derived {
        /// The earlier access.
        before: AccessId,
        /// The later access.
        after: AccessId,
    },
}

impl SyncFact {
    fn label(&self) -> &'static str {
        match self {
            SyncFact::PostWait { .. } => "post_wait",
            SyncFact::AlignedBarrier { .. } => "aligned_barrier",
            SyncFact::Derived { .. } => "derived",
        }
    }

    pub(crate) fn pair(&self) -> (AccessId, AccessId) {
        match *self {
            SyncFact::PostWait { post, wait } => (post, wait),
            SyncFact::AlignedBarrier { before, after } => (before, after),
            SyncFact::Derived { before, after } => (before, after),
        }
    }
}

/// Why one `D_SS` pair is absent from the refined delay set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// A witness-chain node runs after `u` completes (`(u, node) ∈ R`), so
    /// it cannot lie on a back-path that must precede `u`.
    NodeOrderedAfterFirst {
        /// The disqualified chain node.
        node: AccessId,
        /// Where `(u, node)` came from.
        fact: SyncFact,
    },
    /// A witness-chain node runs before `v` initiates (`(node, v) ∈ R`).
    NodeOrderedBeforeSecond {
        /// The disqualified chain node.
        node: AccessId,
        /// Where `(node, v)` came from.
        fact: SyncFact,
    },
    /// A witness-chain node shares a lock section with `u` and `v` (§5.3):
    /// a violation through it would need the lock held twice at once.
    NodeLockGuarded {
        /// The disqualified chain node.
        node: AccessId,
        /// The common lock.
        lock: VarId,
    },
    /// A conflict edge of the witness lost its direction in step 5
    /// (`(to, from) ∈ R` removed `from → to`).
    EdgeUnoriented {
        /// Edge source.
        from: AccessId,
        /// Edge target.
        to: AccessId,
        /// Where `(to, from)` came from.
        fact: SyncFact,
    },
    /// Should not occur: the canonical witness survived refinement (the
    /// property tests assert this variant never appears).
    Unexplained,
}

/// How two consecutive witness-chain accesses are connected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// A directed conflict edge (crossing processors).
    Conflict,
    /// A program-order edge inside the mirror copy.
    Program,
}

/// A delay pair that survived refinement, with its back-path witness.
#[derive(Debug, Clone)]
pub struct KeptPair {
    /// Delay source (`v` must wait for `u`'s completion).
    pub u: AccessId,
    /// Delay target.
    pub v: AccessId,
    /// The full back-path chain `[v, m₁, …, mₖ, u]`.
    pub witness: Vec<AccessId>,
    /// Edge kinds between consecutive chain entries
    /// (`witness.len() - 1` entries).
    pub edges: Vec<EdgeKind>,
    /// Whether the witness had to fall back to the unrefined graph — the
    /// pair is kept through `D1` rather than the step-6 recomputation.
    pub via_d1: bool,
}

/// A `D_SS` pair the refinement removed, with its removal reason.
#[derive(Debug, Clone)]
pub struct DroppedPair {
    /// Delay source of the removed pair.
    pub u: AccessId,
    /// Delay target of the removed pair.
    pub v: AccessId,
    /// The canonical unrefined witness that used to justify the pair.
    pub witness: Vec<AccessId>,
    /// The first synchronization fact breaking that witness.
    pub reason: DropReason,
}

/// Everything [`explain`] derives: one entry per `D_SS` pair.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Pairs surviving into the refined set, in `(u, v)` index order.
    pub kept: Vec<KeptPair>,
    /// Pairs the refinement removed, in `(u, v)` index order.
    pub dropped: Vec<DroppedPair>,
}

/// Reconstructs per-pair provenance for a finished analysis. `opts` must
/// be the options `analysis` was computed with (the barrier policy decides
/// which seeds exist).
pub fn explain(cfg: &Cfg, analysis: &Analysis, opts: &SyncOptions) -> ExplainReport {
    let po = &analysis.po;
    let n = cfg.accesses.len();
    let aligned = aligned_barriers_with(cfg, opts.barrier_policy, &analysis.pdom);
    let classify = seed_classifier(cfg, po, &aligned, &[]);

    // The step-6 removal set for a pair, as the slice form the witness
    // search takes (endpoints masked out, like the hot loop).
    let removal_for = |u: AccessId, v: AccessId| -> Vec<AccessId> {
        let r = &analysis.sync.precedence;
        let mut out: Vec<AccessId> = (0..n)
            .map(AccessId::from_index)
            .filter(|&w| w != u && w != v && (r.contains(u, w) || r.contains(w, v)))
            .collect();
        for w in analysis.guards.removable_for_pair(u, v) {
            if !out.contains(&w) {
                out.push(w);
            }
        }
        out
    };

    let edge_kinds = |u: AccessId, v: AccessId, chain: &[AccessId]| -> Vec<EdgeKind> {
        let full: Vec<AccessId> = std::iter::once(v)
            .chain(chain.iter().copied())
            .chain(std::iter::once(u))
            .collect();
        full.windows(2)
            .map(|w| {
                // Interior hops may ride program order; the first and last
                // hop cross copies and are conflict edges by construction.
                if w[0] != v && w[1] != u && po.access_precedes(w[0], w[1]) {
                    EdgeKind::Program
                } else {
                    EdgeKind::Conflict
                }
            })
            .collect()
    };

    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    for (u, v) in analysis.delay_ss.pairs() {
        if analysis.delay_sync.contains(u, v) {
            let refined = witness(&analysis.sync.oriented, po, u, v, &removal_for(u, v));
            let (chain, via_d1) = match refined {
                Some(c) => (c, false),
                // Not reachable under step-6 rules: the pair is kept
                // through D1, whose query ran unrefined.
                None => (
                    witness(&analysis.conflicts, po, u, v, &[])
                        .expect("kept pair must have a D_SS back-path"),
                    true,
                ),
            };
            let edges = edge_kinds(u, v, &chain);
            let mut witness = vec![v];
            witness.extend(chain);
            witness.push(u);
            kept.push(KeptPair {
                u,
                v,
                witness,
                edges,
                via_d1,
            });
        } else {
            let chain = witness(&analysis.conflicts, po, u, v, &[])
                .expect("D_SS pair must have a back-path");
            let reason = first_break(&analysis.base, &analysis.sync, &classify, u, v, &chain);
            let mut witness = vec![v];
            witness.extend(chain);
            witness.push(u);
            dropped.push(DroppedPair {
                u,
                v,
                witness,
                reason,
            });
        }
    }
    ExplainReport { kept, dropped }
}

/// Classifies a precedence pair against the step-3 seeds of a refinement
/// whose aligned barrier sites are `aligned` and whose post→wait edges
/// into `excluded_waits` were withheld: a seed is named as such, anything
/// else is derived.
pub(crate) fn seed_classifier(
    cfg: &Cfg,
    po: &ProgramOrder,
    aligned: &[AccessId],
    excluded_waits: &[AccessId],
) -> impl Fn(AccessId, AccessId) -> SyncFact {
    let pw: HashSet<(AccessId, AccessId)> = post_wait_edges(cfg)
        .into_iter()
        .filter(|(_, w)| !excluded_waits.contains(w))
        .collect();
    let be: HashSet<(AccessId, AccessId)> =
        barrier_precedence_edges(po, aligned).into_iter().collect();
    move |before: AccessId, after: AccessId| -> SyncFact {
        if pw.contains(&(before, after)) {
            SyncFact::PostWait {
                post: before,
                wait: after,
            }
        } else if be.contains(&(before, after)) {
            SyncFact::AlignedBarrier { before, after }
        } else {
            SyncFact::Derived { before, after }
        }
    }
}

/// Walks the canonical witness `v → chain → u` over the unoriented
/// conflicts of `base` and returns the first synchronization fact of
/// `sync`, a refinement of `base`, that breaks it. Shared with the
/// redundancy pass of [`crate::lint`], which replays the walk against a
/// refinement computed with one synchronization site excluded.
pub(crate) fn first_break(
    base: &AnalysisBase,
    sync: &SyncAnalysis,
    classify: &dyn Fn(AccessId, AccessId) -> SyncFact,
    u: AccessId,
    v: AccessId,
    chain: &[AccessId],
) -> DropReason {
    let (po, conflicts) = (&base.po, &base.conflicts);
    let r = &sync.precedence;
    let guards = &base.guards;
    let lock_removed: Vec<AccessId> = guards.removable_for_pair(u, v);
    let common_lock = |node: AccessId| -> Option<VarId> {
        let mut locks: Vec<VarId> = guards
            .locks()
            .filter(|&l| {
                let g = guards.guarded_by(l);
                g.contains(&u) && g.contains(&v) && g.contains(&node)
            })
            .collect();
        locks.sort_by_key(|l| l.index());
        locks.first().copied()
    };
    let full: Vec<AccessId> = std::iter::once(v)
        .chain(chain.iter().copied())
        .chain(std::iter::once(u))
        .collect();
    for (i, pair) in full.windows(2).enumerate() {
        let (from, to) = (pair[0], pair[1]);
        // Interior node disqualification first: `from` is a mirror node
        // for every hop but the first.
        if i > 0 {
            if r.contains(u, from) {
                return DropReason::NodeOrderedAfterFirst {
                    node: from,
                    fact: classify(u, from),
                };
            }
            if r.contains(from, v) {
                return DropReason::NodeOrderedBeforeSecond {
                    node: from,
                    fact: classify(from, v),
                };
            }
            if lock_removed.contains(&from) {
                if let Some(lock) = common_lock(from) {
                    return DropReason::NodeLockGuarded { node: from, lock };
                }
            }
        }
        // Edge disqualification: a hop with no program-order alternative
        // whose conflict direction step 5 removed.
        let has_program_edge = from != v && to != u && from != to && po.access_precedes(from, to);
        if !has_program_edge && conflicts.edge(from, to) && !sync.oriented.edge(from, to) {
            return DropReason::EdgeUnoriented {
                from,
                to,
                fact: classify(to, from),
            };
        }
    }
    DropReason::Unexplained
}

/// Checks that a kept-pair witness chain replays on the given conflict
/// set: first and last hops are directed conflict edges, and every
/// interior hop is a program-order or directed conflict edge.
pub fn validate_witness(cfg: &Cfg, conflicts: &ConflictSet, witness: &[AccessId]) -> bool {
    if witness.len() < 3 {
        return false;
    }
    let po = ProgramOrder::compute(cfg);
    let last = witness.len() - 1;
    witness.windows(2).enumerate().all(|(i, w)| {
        let (from, to) = (w[0], w[1]);
        if i == 0 || i == last - 1 {
            conflicts.edge(from, to)
        } else {
            conflicts.edge(from, to) || (from != to && po.access_precedes(from, to))
        }
    })
}

// ---- rendering ---------------------------------------------------------

fn write_access(out: &mut String, cfg: &Cfg, src: &str, a: AccessId) {
    let info = cfg.accesses.info(a);
    let (line, col) = info.span.line_col(src);
    let mut o = json::Obj::open(out);
    o.int(key!("id"), a.index() as u64);
    o.str(key!("kind"), &format!("{:?}", info.kind));
    o.str_or_null(
        key!("var"),
        info.var.map(|v| cfg.vars.info(v).name.as_str()),
    );
    o.int(key!("line"), line as u64);
    o.int(key!("col"), col as u64);
    o.close();
}

fn write_fact(out: &mut String, fact: &SyncFact) {
    let (before, after) = fact.pair();
    let mut o = json::Obj::open(out);
    o.str(key!("kind"), fact.label());
    o.int(key!("before"), before.index() as u64);
    o.int(key!("after"), after.index() as u64);
    o.close();
}

fn write_reason(out: &mut String, cfg: &Cfg, reason: &DropReason) {
    let mut o = json::Obj::open(out);
    match reason {
        DropReason::NodeOrderedAfterFirst { node, fact } => {
            o.str(key!("kind"), "node_ordered_after_first");
            o.int(key!("node"), node.index() as u64);
            write_fact(o.key(key!("fact")), fact);
        }
        DropReason::NodeOrderedBeforeSecond { node, fact } => {
            o.str(key!("kind"), "node_ordered_before_second");
            o.int(key!("node"), node.index() as u64);
            write_fact(o.key(key!("fact")), fact);
        }
        DropReason::NodeLockGuarded { node, lock } => {
            o.str(key!("kind"), "node_lock_guarded");
            o.int(key!("node"), node.index() as u64);
            o.str(key!("lock"), &cfg.vars.info(*lock).name);
        }
        DropReason::EdgeUnoriented { from, to, fact } => {
            o.str(key!("kind"), "edge_unoriented");
            o.int(key!("from"), from.index() as u64);
            o.int(key!("to"), to.index() as u64);
            write_fact(o.key(key!("fact")), fact);
        }
        DropReason::Unexplained => o.str(key!("kind"), "unexplained"),
    }
    o.close();
}

fn write_witness(out: &mut String, witness: &[AccessId]) {
    json::write_array(out, witness, |out, a| {
        json::write_int(out, a.index() as i64)
    });
}

impl ExplainReport {
    /// Deterministic, diffable JSON (`syncopt.explain.v1`): pairs in
    /// `(u, v)` index order, ids as integers, no wall-clock anywhere.
    pub fn to_json(&self, cfg: &Cfg, src: &str) -> String {
        let mut out = String::new();
        let mut o = json::Obj::open(&mut out);
        o.str(key!("schema"), EXPLAIN_SCHEMA);
        o.int(key!("accesses"), cfg.accesses.len() as u64);
        json::write_array(o.key(key!("kept")), &self.kept, |out, k| {
            let mut pair = json::Obj::open(out);
            write_access(pair.key(key!("u")), cfg, src, k.u);
            write_access(pair.key(key!("v")), cfg, src, k.v);
            write_witness(pair.key(key!("witness")), &k.witness);
            json::write_array(pair.key(key!("edges")), &k.edges, |out, e| {
                let label = match e {
                    EdgeKind::Conflict => "C",
                    EdgeKind::Program => "P",
                };
                json::write_escaped(out, label);
            });
            pair.bool(key!("via_d1"), k.via_d1);
            pair.close();
        });
        json::write_array(o.key(key!("dropped")), &self.dropped, |out, d| {
            let mut pair = json::Obj::open(out);
            write_access(pair.key(key!("u")), cfg, src, d.u);
            write_access(pair.key(key!("v")), cfg, src, d.v);
            write_witness(pair.key(key!("witness")), &d.witness);
            write_reason(pair.key(key!("reason")), cfg, &d.reason);
            pair.close();
        });
        o.close();
        out
    }

    /// One diagnostic per pair for the rustc-style renderer: kept pairs as
    /// notes carrying the witness chain, dropped pairs as notes naming the
    /// removing fact, all span-annotated.
    pub fn to_diagnostics(&self, cfg: &Cfg) -> Vec<Diagnostic> {
        let desc = |a: AccessId| {
            let info = cfg.accesses.info(a);
            let var = info
                .var
                .map(|v| format!(" `{}`", cfg.vars.info(v).name))
                .unwrap_or_default();
            format!("{a} ({:?}{var})", info.kind)
        };
        let span_of = |a: AccessId| cfg.accesses.info(a).span;
        let mut out = Vec::new();
        for k in &self.kept {
            let chain = k
                .witness
                .iter()
                .map(|&a| a.to_string())
                .collect::<Vec<_>>()
                .join(" → ");
            let mut d = Diagnostic::new(
                "P001",
                Severity::Note,
                format!(
                    "delay kept: {} → {} (back-path {chain}{})",
                    desc(k.u),
                    desc(k.v),
                    if k.via_d1 { ", via D1" } else { "" }
                ),
                span_of(k.u),
            );
            d = d.with_note(format!("second access {}", desc(k.v)), Some(span_of(k.v)));
            for &m in &k.witness[1..k.witness.len() - 1] {
                d = d.with_note(format!("back-path through {}", desc(m)), Some(span_of(m)));
            }
            out.push(d);
        }
        for dr in &self.dropped {
            let (msg, fact_span) = match &dr.reason {
                DropReason::NodeOrderedAfterFirst { node, fact } => (
                    format!(
                        "back-path node {} is ordered after {} by {}",
                        desc(*node),
                        desc(dr.u),
                        fact_desc(fact)
                    ),
                    Some(span_of(fact.pair().0)),
                ),
                DropReason::NodeOrderedBeforeSecond { node, fact } => (
                    format!(
                        "back-path node {} is ordered before {} by {}",
                        desc(*node),
                        desc(dr.v),
                        fact_desc(fact)
                    ),
                    Some(span_of(fact.pair().0)),
                ),
                DropReason::NodeLockGuarded { node, lock } => (
                    format!(
                        "back-path node {} shares lock `{}` with the pair (§5.3)",
                        desc(*node),
                        cfg.vars.info(*lock).name
                    ),
                    Some(span_of(*node)),
                ),
                DropReason::EdgeUnoriented { from, to, fact } => (
                    format!(
                        "conflict direction {} → {} removed by {}",
                        desc(*from),
                        desc(*to),
                        fact_desc(fact)
                    ),
                    Some(span_of(fact.pair().0)),
                ),
                DropReason::Unexplained => ("removed by refinement".into(), None),
            };
            let d = Diagnostic::new(
                "P002",
                Severity::Note,
                format!("delay dropped: {} → {}", desc(dr.u), desc(dr.v)),
                span_of(dr.u),
            )
            .with_note(format!("second access {}", desc(dr.v)), Some(span_of(dr.v)))
            .with_note(msg, fact_span);
            out.push(d);
        }
        out
    }
}

pub(crate) fn fact_desc(fact: &SyncFact) -> String {
    match fact {
        SyncFact::PostWait { post, wait } => format!("post→wait edge {post} → {wait}"),
        SyncFact::AlignedBarrier { before, after } if before == after => {
            format!("aligned barrier {before}")
        }
        SyncFact::AlignedBarrier { before, after } => {
            format!("aligned barriers {before} → {after}")
        }
        SyncFact::Derived { before, after } => {
            format!("derived precedence {before} → {after}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_with;
    use crate::diag::json::Value;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    fn explained(src: &str) -> (Cfg, Analysis, ExplainReport) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let opts = SyncOptions::default();
        let analysis = analyze_with(&cfg, &opts);
        let report = explain(&cfg, &analysis, &opts);
        (cfg, analysis, report)
    }

    const FIGURE5: &str = r#"
        shared int X; shared int Y; flag F;
        fn main() {
            int v;
            if (MYPROC == 0) { X = 1; Y = 2; post F; }
            else { wait F; v = Y; v = X; }
        }
    "#;

    #[test]
    fn every_ss_pair_is_classified_exactly_once() {
        for src in [
            FIGURE5,
            "shared int Data; shared int Flag;
             fn main() { int v;
                 if (MYPROC == 0) { Data = 1; Flag = 1; }
                 else { v = Flag; v = Data; } }",
            "shared int X; shared int Y; lock l;
             fn main() { int v; lock l; v = X; Y = v + 1; X = v + 2; unlock l; }",
            "shared int A[64];
             fn main() { int v; A[MYPROC + 1] = 1; barrier; v = A[MYPROC]; }",
        ] {
            let (_cfg, analysis, report) = explained(src);
            assert_eq!(report.kept.len(), analysis.delay_sync.len(), "{src}");
            assert_eq!(
                report.dropped.len(),
                analysis.delay_ss.len() - analysis.delay_sync.len(),
                "{src}"
            );
            assert_eq!(
                report.dropped.len() as u64,
                analysis.metrics.get("delay.pairs_dropped"),
                "{src}"
            );
        }
    }

    #[test]
    fn kept_pairs_carry_replayable_witnesses() {
        let (cfg, analysis, report) = explained(FIGURE5);
        assert!(!report.kept.is_empty());
        for k in &report.kept {
            assert_eq!(k.witness.first(), Some(&k.v), "chain starts at v");
            assert_eq!(k.witness.last(), Some(&k.u), "chain ends at u");
            assert_eq!(k.edges.len(), k.witness.len() - 1);
            // Replay on the graph the witness was found on.
            let conflicts = if k.via_d1 {
                &analysis.conflicts
            } else {
                &analysis.sync.oriented
            };
            assert!(
                validate_witness(&cfg, conflicts, &k.witness),
                "witness {:?} does not replay",
                k.witness
            );
        }
    }

    #[test]
    fn figure5_drops_name_the_post_wait_chain() {
        let (cfg, _analysis, report) = explained(FIGURE5);
        assert!(!report.dropped.is_empty(), "figure 5 drops the data pairs");
        let is_data = |a: AccessId| cfg.accesses.info(a).kind.is_data();
        // The producer's X,Y write pair is dropped; its reason must bottom
        // out in real synchronization, not an Unexplained fallback.
        for d in &report.dropped {
            assert_ne!(d.reason, DropReason::Unexplained, "({}, {})", d.u, d.v);
        }
        assert!(report.dropped.iter().any(|d| is_data(d.u) && is_data(d.v)));
    }

    #[test]
    fn lock_sections_produce_lock_guard_reasons() {
        let src = "shared int X; shared int Y; lock l;
             fn main() { int v; lock l; v = X; Y = v + 1; X = v + 2; unlock l; }";
        let (cfg, _analysis, report) = explained(src);
        let lock_reasons = report
            .dropped
            .iter()
            .filter(|d| matches!(d.reason, DropReason::NodeLockGuarded { .. }))
            .count();
        assert!(
            lock_reasons > 0,
            "expected a §5.3 lock reason, got {:?}",
            report.dropped.iter().map(|d| d.reason).collect::<Vec<_>>()
        );
        if let Some(DropReason::NodeLockGuarded { lock, .. }) = report
            .dropped
            .iter()
            .map(|d| d.reason)
            .find(|r| matches!(r, DropReason::NodeLockGuarded { .. }))
        {
            assert_eq!(cfg.vars.info(lock).name, "l");
        }
    }

    #[test]
    fn json_is_deterministic_and_carries_schema() {
        let (cfg, analysis, report) = explained(FIGURE5);
        let opts = SyncOptions::default();
        let again = explain(&cfg, &analysis, &opts);
        let src = FIGURE5;
        let a = report.to_json(&cfg, src).to_string();
        let b = again.to_json(&cfg, src).to_string();
        assert_eq!(a, b);
        let parsed = Value::parse(&a).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(EXPLAIN_SCHEMA));
        assert_eq!(
            parsed.get("kept").unwrap().as_arr().unwrap().len(),
            report.kept.len()
        );
    }

    #[test]
    fn diagnostics_render_with_source_spans() {
        let (cfg, _analysis, report) = explained(FIGURE5);
        let diags = report.to_diagnostics(&cfg);
        assert_eq!(diags.len(), report.kept.len() + report.dropped.len());
        let rendered: String = diags
            .iter()
            .map(|d| d.render(FIGURE5, "figure5.ms"))
            .collect();
        assert!(rendered.contains("delay kept"));
        assert!(rendered.contains("delay dropped"));
        assert!(rendered.contains("figure5.ms:"));
    }
}
