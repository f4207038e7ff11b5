//! Redundant-synchronization analysis (`L001`/`L002`).
//!
//! A synchronization site is *redundant* when the rest of the program's
//! synchronization already implies every cross-processor ordering it
//! provides. The probe is direct: refine the analysis's own base again
//! with the site's precedence seeds withheld
//! ([`crate::AnalysisBase::refine`]) and compare.
//! Seeds only shrink, so the excluded run can only *add* delay pairs and
//! conflict directions — the site is redundant exactly when nothing
//! changed for any pair not involving the site itself (pairs touching
//! the site disappear with it and carry no information).
//!
//! Each finding reports a covering witness: a `D_SS` delay pair that the
//! full analysis drops *because of* this site, shown to stay dropped in
//! the excluded run together with the synchronization fact that still
//! covers it (computed by replaying the provenance walk of
//! [`crate::explain`] against the excluded analysis).

use super::LintInput;
use crate::cycle::witness;
use crate::diag::{Diagnostic, Severity};
use crate::explain::{fact_desc, first_break, seed_classifier, DropReason};
use crate::sync::{post_wait_edges, SyncAnalysis, SyncExclusion};
use crate::{Analysis, DelaySet};
use syncopt_frontend::span::Span;
use syncopt_ir::cfg::Cfg;
use syncopt_ir::ids::AccessId;
use syncopt_ir::order::GraphScratch;

pub(super) fn run(input: &LintInput<'_>, out: &mut Vec<Diagnostic>) {
    let cfg = input.cfg;
    let full = &input.analysis.sync;
    let barrier_cands: Vec<AccessId> = full.aligned_barriers.clone();
    let wait_cands: Vec<(AccessId, AccessId)> = post_wait_edges(cfg);
    if barrier_cands.is_empty() && wait_cands.is_empty() {
        return;
    }
    let mut witnesses = WitnessCtx::new(input);
    for &b in &barrier_cands {
        let excl = SyncExclusion {
            barriers: vec![b],
            waits: vec![],
        };
        let (alt, alt_delay) =
            input
                .analysis
                .base
                .refine(cfg, input.opts, &excl, &mut GraphScratch::default());
        if !unchanged_excluding(input.analysis, &alt, &alt_delay, b) {
            continue;
        }
        let mut d = Diagnostic::new(
            "L001",
            Severity::Note,
            "redundant barrier: the remaining synchronization already implies every \
             cross-processor ordering it provides"
                .to_string(),
            cfg.accesses.info(b).span,
        );
        let (msg, span) = witnesses.covering_note(b, &excl, &alt);
        d = d.with_note(msg, span);
        out.push(d);
    }
    for &(p, w) in &wait_cands {
        let excl = SyncExclusion {
            barriers: vec![],
            waits: vec![w],
        };
        let (alt, alt_delay) =
            input
                .analysis
                .base
                .refine(cfg, input.opts, &excl, &mut GraphScratch::default());
        if !unchanged_excluding(input.analysis, &alt, &alt_delay, w) {
            continue;
        }
        let mut d = Diagnostic::new(
            "L002",
            Severity::Note,
            "redundant post→wait synchronization: the remaining synchronization already \
             implies every cross-processor ordering it provides"
                .to_string(),
            cfg.accesses.info(w).span,
        )
        .with_note(
            format!("released by the post site {p}"),
            Some(cfg.accesses.info(p).span),
        );
        let (msg, span) = witnesses.covering_note(w, &excl, &alt);
        d = d.with_note(msg, span);
        out.push(d);
    }
}

/// Whether the excluded analysis (`alt`, refining to `alt_delay`) agrees
/// with the full one on every delay pair and every conflict direction not
/// involving `site`. Monotonicity (seeds only shrink) means only the
/// `excluded \ full` direction needs checking.
fn unchanged_excluding(
    full: &Analysis,
    alt: &SyncAnalysis,
    alt_delay: &DelaySet,
    site: AccessId,
) -> bool {
    for (x, y) in alt_delay.pairs() {
        if x != site && y != site && !full.delay_sync.contains(x, y) {
            return false;
        }
    }
    let kept = &full.sync.oriented;
    let sites = (0..kept.num_accesses()).map(AccessId::from_index);
    sites.filter(|&x| x != site).all(|x| {
        alt.oriented
            .succ_ones(x)
            .all(|y| y == site.index() || kept.edge(x, AccessId::from_index(y)))
    })
}

/// One `D_SS` pair the full analysis drops, with its canonical witness
/// chain and the full-run removal reason.
struct DroppedInfo {
    u: AccessId,
    v: AccessId,
    chain: Vec<AccessId>,
    reason: DropReason,
}

/// Lazily-built provenance context shared by all candidate probes.
struct WitnessCtx<'a> {
    input: &'a LintInput<'a>,
    dropped: Option<Vec<DroppedInfo>>,
}

impl<'a> WitnessCtx<'a> {
    fn new(input: &'a LintInput<'a>) -> Self {
        WitnessCtx {
            input,
            dropped: None,
        }
    }

    /// The full-run dropped pairs with their canonical witness chains
    /// and removal reasons (computed once, on first redundant site).
    fn dropped(&mut self) -> &[DroppedInfo] {
        if self.dropped.is_none() {
            let cfg = self.input.cfg;
            let analysis = self.input.analysis;
            let classify = seed_classifier(cfg, &analysis.po, &analysis.sync.aligned_barriers, &[]);
            let mut infos = Vec::new();
            for (u, v) in analysis.delay_ss.pairs() {
                if analysis.delay_sync.contains(u, v) {
                    continue;
                }
                let chain = witness(&analysis.conflicts, &analysis.po, u, v, &[])
                    .expect("D_SS pair must have a back-path");
                let reason = first_break(&analysis.base, &analysis.sync, &classify, u, v, &chain);
                infos.push(DroppedInfo {
                    u,
                    v,
                    chain,
                    reason,
                });
            }
            self.dropped = Some(infos);
        }
        self.dropped.as_ref().unwrap().as_slice()
    }

    /// The covering-witness note for a redundant `site`: the first
    /// dropped pair whose full-run removal reason cites the site, shown
    /// to stay removed in the excluded analysis `alt` — with the fact
    /// that now covers it. Falls back to a generic note for sites no
    /// dropped pair depends on.
    fn covering_note(
        &mut self,
        site: AccessId,
        excl: &SyncExclusion,
        alt: &SyncAnalysis,
    ) -> (String, Option<Span>) {
        let cfg = self.input.cfg;
        let analysis = self.input.analysis;
        let representative = self
            .dropped()
            .iter()
            .position(|di| reason_cites(&di.reason, site));
        let Some(idx) = representative else {
            return (
                "it removes no delay pair on its own: every ordering it seeds is already \
                 derived from the other synchronization sites"
                    .to_string(),
                None,
            );
        };
        let (u, v, chain) = {
            let di = &self.dropped()[idx];
            (di.u, di.v, di.chain.clone())
        };
        let classify = seed_classifier(cfg, &analysis.po, &alt.aligned_barriers, &excl.waits);
        let reason = first_break(&analysis.base, alt, &classify, u, v, &chain);
        let covered_by = reason_text(cfg, &reason);
        (
            format!("covering path: delay pair {u} → {v} stays removed without it — {covered_by}"),
            reason_span(cfg, &reason),
        )
    }
}

/// Whether a removal reason's synchronization fact involves `site`.
fn reason_cites(reason: &DropReason, site: AccessId) -> bool {
    let fact = match reason {
        DropReason::NodeOrderedAfterFirst { fact, .. }
        | DropReason::NodeOrderedBeforeSecond { fact, .. }
        | DropReason::EdgeUnoriented { fact, .. } => fact,
        DropReason::NodeLockGuarded { .. } | DropReason::Unexplained => return false,
    };
    let (a, b) = fact.pair();
    a == site || b == site
}

/// Renders a removal reason as note text (vocabulary shared with the
/// `P002` provenance notes).
fn reason_text(cfg: &Cfg, reason: &DropReason) -> String {
    match reason {
        DropReason::NodeOrderedAfterFirst { node, fact } => {
            format!(
                "back-path node {node} is ordered after the pair by {}",
                fact_desc(fact)
            )
        }
        DropReason::NodeOrderedBeforeSecond { node, fact } => {
            format!(
                "back-path node {node} is ordered before the pair by {}",
                fact_desc(fact)
            )
        }
        DropReason::NodeLockGuarded { node, lock } => format!(
            "back-path node {node} shares lock `{}` with the pair (§5.3)",
            cfg.vars.info(*lock).name
        ),
        DropReason::EdgeUnoriented { from, to, fact } => {
            format!(
                "conflict direction {from} → {to} removed by {}",
                fact_desc(fact)
            )
        }
        DropReason::Unexplained => "removed by refinement".to_string(),
    }
}

/// The source anchor of a removal reason's covering fact.
fn reason_span(cfg: &Cfg, reason: &DropReason) -> Option<Span> {
    match reason {
        DropReason::NodeOrderedAfterFirst { fact, .. }
        | DropReason::NodeOrderedBeforeSecond { fact, .. }
        | DropReason::EdgeUnoriented { fact, .. } => Some(cfg.accesses.info(fact.pair().0).span),
        DropReason::NodeLockGuarded { node, .. } => Some(cfg.accesses.info(*node).span),
        DropReason::Unexplained => None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{codes_of, lint_source};

    #[test]
    fn double_barrier_flags_both_as_redundant() {
        let report = lint_source(
            "shared int A[64];
             fn main() { int v;
                 A[MYPROC] = 1;
                 barrier;
                 barrier;
                 v = A[MYPROC + 1];
             }",
        );
        let l001: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L001")
            .collect();
        assert_eq!(l001.len(), 2, "{:?}", codes_of(&report));
        // Each finding carries a rendered witness note.
        for d in &l001 {
            assert!(!d.notes.is_empty(), "{:?}", d.message);
        }
    }

    #[test]
    fn single_needed_barrier_is_not_redundant() {
        let report = lint_source(
            "shared int A[64];
             fn main() { int v;
                 A[MYPROC] = 1;
                 barrier;
                 v = A[MYPROC + 1];
             }",
        );
        assert!(
            !codes_of(&report).contains(&"L001"),
            "{:?}",
            codes_of(&report)
        );
    }

    #[test]
    fn wait_covered_by_barrier_is_redundant() {
        let report = lint_source(
            "shared int X; flag F;
             fn main() { int v;
                 X = 1;
                 post F;
                 barrier;
                 wait F;
                 v = X;
             }",
        );
        assert!(
            codes_of(&report).contains(&"L002"),
            "{:?}",
            codes_of(&report)
        );
    }

    #[test]
    fn load_bearing_post_wait_is_not_redundant() {
        let report = lint_source(
            "shared int X; flag F;
             fn main() { int v;
                 if (MYPROC == 0) { X = 1; post F; } else { wait F; v = X; } }",
        );
        assert!(
            !codes_of(&report).contains(&"L002"),
            "{:?}",
            codes_of(&report)
        );
    }
}
