//! What every pass of one [`crate::optimize`] call reads, computed once.
//!
//! [`Ctx`] is fixed for the whole call: the chosen delay set, the
//! analysis's interned subscripts, dominators and block reachability (code
//! generation adds and removes no block), the source access table and the
//! counter table of the split. [`LoopFacts`] is built once too, but after
//! elimination and cleanup, which delete definitions: the natural loops,
//! their membership as a bit table, and the iteration-injective accesses.

use crate::split::CtrMap;
use syncopt_core::affine::SubscriptTable;
use syncopt_core::DelaySet;
use syncopt_ir::access::{AccessKind, AccessTable};
use syncopt_ir::cfg::Cfg;
use syncopt_ir::dom::Dominators;
use syncopt_ir::ids::{AccessId, BlockId};
use syncopt_ir::loops::{find_loops, LoopDefs, NaturalLoop};
use syncopt_ir::order::{BitSet, ProgramOrder};

/// The per-call facts no pass changes.
pub(crate) struct Ctx<'a> {
    /// The delay set constraining every transformation.
    pub(crate) delay: &'a DelaySet,
    /// Every access's subscript, interned by the analysis.
    pub(crate) subs: &'a SubscriptTable,
    /// The source CFG's access table: kinds, variables and home blocks
    /// (an access never leaves its block).
    pub(crate) accesses: &'a AccessTable,
    /// Dominators of the source CFG.
    pub(crate) dom: &'a Dominators,
    /// Block reachability of the source CFG.
    pub(crate) po: &'a ProgramOrder,
    /// What each synchronizing counter tracks.
    pub(crate) ctrs: CtrMap,
}

impl Ctx<'_> {
    /// Conservative same-processor aliasing between two shared accesses:
    /// same variable, at least one write, and subscripts not provably
    /// distinct on one processor. Subscripts are only compared when both
    /// are stable (locals could be redefined between the two points).
    pub(crate) fn shared_overlap(&self, injective: &BitSet, u: AccessId, w: AccessId) -> bool {
        // An iteration-injective access never collides with its own other
        // instances.
        if u == w && injective.contains(u.index()) {
            return false;
        }
        let (ui, wi) = (self.accesses.info(u), self.accesses.info(w));
        if !ui.kind.is_data() || !wi.kind.is_data() || ui.var != wi.var {
            return false;
        }
        if ui.kind == AccessKind::Read && wi.kind == AccessKind::Read {
            return false;
        }
        if self.subs.stable(u) && self.subs.stable(w) {
            steps::count(|s| s.subscript_tests += 1);
            self.subs.may_equal(u, w)
        } else {
            true
        }
    }
}

/// Loop structure and loop-derived facts of the CFG the motion passes run
/// on.
pub(crate) struct LoopFacts {
    /// The natural loops.
    pub(crate) loops: Vec<NaturalLoop>,
    /// Loop `l` contains block `b` iff bit `l * blocks + b`.
    member: BitSet,
    blocks: usize,
    /// Accesses whose subscript is *injective across loop iterations*: it
    /// is affine with a nonzero coefficient on a basic induction variable
    /// of a containing loop, and every other variable in it is
    /// loop-invariant. Two dynamic instances from different iterations
    /// touch different elements, so the access may be reordered with
    /// *itself* (e.g. a transpose `put` in a scatter loop).
    pub(crate) injective: BitSet,
}

impl LoopFacts {
    /// Derives the facts from `cfg` as it stands. `dom` must be `cfg`'s
    /// dominators.
    pub(crate) fn build(cfg: &Cfg, dom: &Dominators, ctx: &Ctx<'_>) -> Self {
        let loops = find_loops(cfg, dom);
        let blocks = cfg.num_blocks();
        let mut member = BitSet::new(loops.len() * blocks);
        for (li, l) in loops.iter().enumerate() {
            for &b in &l.blocks {
                member.insert(li * blocks + b.index());
            }
        }
        let mut facts = LoopFacts {
            loops,
            member,
            blocks,
            injective: BitSet::new(ctx.accesses.len()),
        };
        if facts.loops.is_empty() {
            return facts;
        }
        let defs = LoopDefs::compute(cfg, &facts.loops);
        for (id, info) in ctx.accesses.iter() {
            let terms = ctx.subs.local_terms(id).unwrap_or_default();
            // Some containing loop drives the subscript and defines nothing
            // else in it.
            let injective = (0..facts.loops.len()).any(|li| {
                let mut has_driver = false;
                facts.contains(li, info.pos.block)
                    && terms.iter().all(|&(var, coeff)| {
                        let drives = defs
                            .induction_step(li, var)
                            .and_then(|step| coeff.checked_mul(step))
                            .is_some_and(|s| s != 0);
                        has_driver |= drives;
                        drives || !defs.defines(li, var)
                    })
                    && has_driver
            });
            if injective {
                facts.injective.insert(id.index());
            }
        }
        facts
    }

    /// Whether loop `li` contains block `b`.
    pub(crate) fn contains(&self, li: usize, b: BlockId) -> bool {
        self.member.contains(li * self.blocks + b.index())
    }

    /// The innermost (fewest-blocks) loop containing `b`.
    pub(crate) fn innermost(&self, b: BlockId) -> Option<usize> {
        (0..self.loops.len())
            .filter(|&li| self.contains(li, b))
            .min_by_key(|&li| self.loops[li].blocks.len())
    }

    /// Whether jumping `from → to` enters a loop that `from` is not part of.
    pub(crate) fn enters_foreign_loop(&self, from: BlockId, to: BlockId) -> bool {
        (0..self.loops.len()).any(|li| self.loops[li].header == to && !self.contains(li, from))
    }

    /// The blocks outside loop `li` that an edge leaving it targets.
    pub(crate) fn exit_targets(&self, cfg: &Cfg, li: usize) -> Vec<BlockId> {
        let mut out = Vec::new();
        for &b in &self.loops[li].blocks {
            for s in cfg.block(b).term.successors() {
                if !self.contains(li, s) && !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }
}

/// Deterministic work counts for the linearity tests: kept only by this
/// crate's own test build, reported nowhere.
pub(crate) mod steps {
    /// What the passes of this thread did since the last [`take`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct Steps {
        /// Same-processor subscript questions asked.
        pub(crate) subscript_tests: u64,
        /// Cleanup rounds run.
        pub(crate) cleanup_rounds: u64,
        /// Liveness fixpoints solved.
        pub(crate) liveness_solves: u64,
        /// Instruction and block visits of the liveness machinery.
        pub(crate) liveness_visits: u64,
        /// Dominator trees built.
        pub(crate) dominator_builds: u64,
    }

    #[cfg(test)]
    thread_local! {
        static STEPS: std::cell::Cell<Steps> = std::cell::Cell::default();
    }

    /// Reads and zeroes this thread's counts.
    #[cfg(test)]
    pub(crate) fn take() -> Steps {
        STEPS.with(std::cell::Cell::take)
    }

    /// Lets `_bump` add to this thread's counts; compiles to nothing
    /// outside the test build.
    #[inline(always)]
    pub(crate) fn count(_bump: impl FnOnce(&mut Steps)) {
        #[cfg(test)]
        STEPS.with(|s| {
            let mut steps = s.get();
            _bump(&mut steps);
            s.set(steps);
        });
    }
}
