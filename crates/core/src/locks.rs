//! Lock-based synchronization analysis (§5.3).
//!
//! Locks imply no precedence, only mutual exclusion. An access `a` is
//! *guarded* by lock `l` when:
//!
//! 1. `a` is dominated by a `lock l` operation `b1` with no intervening
//!    `unlock l` (we establish this with a must-hold dataflow analysis);
//! 2. `a` dominates an `unlock l` operation `b2`;
//! 3. `[b1, a] ∈ D1` and `[a, b2] ∈ D1`.
//!
//! When checking for a back-path between two accesses guarded by the same
//! lock, every *other* access guarded by that lock can be removed: a
//! violation sequence through them would have to run while the lock is held
//! by two processors at once.

use crate::delay::DelaySet;
use syncopt_ir::access::AccessKind;
use syncopt_ir::cfg::{Cfg, Predecessors};
use syncopt_ir::dom::Dominators;
use syncopt_ir::ids::{AccessId, BlockId, VarId};
use syncopt_ir::order::{BitMatrix, BitSet};
use syncopt_ir::vars::VarKind;

/// Guard information: which accesses each lock protects.
#[derive(Debug, Clone, Default)]
pub struct LockGuards {
    /// The locks that guard at least one access, ascending.
    locks: Vec<VarId>,
    /// `locks[k]` guards `accesses[starts[k]..starts[k + 1]]`, ascending.
    starts: Vec<u32>,
    accesses: Vec<AccessId>,
}

impl LockGuards {
    fn guarded_at(&self, k: usize) -> &[AccessId] {
        &self.accesses[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    /// Each lock with the accesses it guards, locks ascending.
    fn each(&self) -> impl Iterator<Item = (VarId, &[AccessId])> + '_ {
        (0..self.locks.len()).map(|k| (self.locks[k], self.guarded_at(k)))
    }

    /// The accesses guarded by `lock`, ascending.
    pub fn guarded_by(&self, lock: VarId) -> &[AccessId] {
        self.locks
            .binary_search(&lock)
            .map_or(&[], |k| self.guarded_at(k))
    }

    /// All locks that guard at least one access, ascending.
    pub fn locks(&self) -> impl Iterator<Item = VarId> + '_ {
        self.locks.iter().copied()
    }

    /// The locks guarding `access`, ascending.
    pub fn locks_guarding(&self, access: AccessId) -> Vec<VarId> {
        self.each()
            .filter(|(_, accs)| accs.binary_search(&access).is_ok())
            .map(|(l, _)| l)
            .collect()
    }

    /// If `a` and `b` are guarded by a common lock, the other accesses
    /// guarded by that lock (candidates for removal in the back-path
    /// check). Empty otherwise.
    pub fn removable_for_pair(&self, a: AccessId, b: AccessId) -> Vec<AccessId> {
        let mut out = Vec::new();
        for (_, accs) in self.each() {
            if accs.binary_search(&a).is_ok() && accs.binary_search(&b).is_ok() {
                for &x in accs {
                    if x != a && x != b && !out.contains(&x) {
                        out.push(x);
                    }
                }
            }
        }
        out
    }

    /// [`LockGuards::removable_for_pair`] as a bitset fill — the
    /// allocation-free form the hot delay-set loop uses. Inserts `a` and
    /// `b` too when they share a lock; callers mask the pair out once at
    /// the end of their removal set.
    pub fn mark_removable_for_pair(&self, a: AccessId, b: AccessId, out: &mut BitSet) {
        for (_, accs) in self.each() {
            if accs.binary_search(&a).is_ok() && accs.binary_search(&b).is_ok() {
                for &x in accs {
                    out.insert(x.index());
                }
            }
        }
    }
}

/// A lock operation at its position: `(block, instruction, lock index,
/// whether it releases)`.
type LockOp = (u32, u32, usize, bool);

/// `held` after the lock operations `ops`, in order.
fn apply_lock_ops(ops: &[LockOp], held: &mut BitSet) {
    for &(_, _, k, release) in ops {
        if release {
            held.remove(k);
        } else {
            held.insert(k);
        }
    }
}

/// The must-hold lock set at entry of every block, one row per block over
/// the lock index. `by_pos` is every lock operation in position order.
fn must_hold_in(cfg: &Cfg, preds: &Predecessors, nl: usize, by_pos: &[LockOp]) -> BitMatrix {
    let nb = cfg.num_blocks();
    // Per block, the locks it leaves held (`gen`) and those it leaves
    // released (`kill`): its last operation on each lock decides.
    let mut gen = BitMatrix::rectangular(nb, nl);
    let mut kill = BitMatrix::rectangular(nb, nl);
    for &(b, _, k, release) in by_pos {
        let (set, clear) = if release {
            (&mut kill, &mut gen)
        } else {
            (&mut gen, &mut kill)
        };
        set.set(b as usize, k);
        clear.clear(b as usize, k);
    }
    let mut held_in = BitMatrix::rectangular(nb, nl);
    for b in 0..nb {
        if b != cfg.entry.index() {
            for k in 0..nl {
                held_in.set(b, k);
            }
        }
    }
    let words = nl.div_ceil(64);
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            if b == cfg.entry.index() {
                continue;
            }
            // in(b) = ⋂ over predecessors p of (in(p) ∖ kill(p)) ∪ gen(p);
            // no predecessor: nothing is held.
            let ps = preds.of(BlockId::from_index(b));
            for w in 0..words {
                let mut meet = if ps.is_empty() { 0 } else { !0 };
                for p in ps {
                    let p = p.index();
                    meet &= (held_in.row_words(p)[w] & !kill.row_words(p)[w]) | gen.row_words(p)[w];
                }
                if held_in.row_words(b)[w] != meet {
                    held_in.row_words_mut(b)[w] = meet;
                    changed = true;
                }
            }
        }
    }
    held_in
}

/// Computes which accesses are guarded by which locks.
pub fn compute_lock_guards(
    cfg: &Cfg,
    preds: &Predecessors,
    dom: &Dominators,
    d1: &DelaySet,
) -> LockGuards {
    if !cfg.vars.iter().any(|(_, info)| info.kind == VarKind::Lock) {
        return LockGuards::default();
    }
    let locks: Vec<VarId> = cfg
        .vars
        .iter()
        .filter(|(_, info)| info.kind == VarKind::Lock)
        .map(|(id, _)| id)
        .collect();
    let lock_index = |l: VarId| locks.binary_search(&l).expect("a lock variable");
    // Lock operations by lock index, releases after acquires, each run in
    // access order; and the same operations in position order.
    let mut ops: Vec<(usize, bool, AccessId)> = Vec::new();
    let mut by_pos: Vec<LockOp> = Vec::new();
    for (id, info) in cfg.accesses.iter() {
        let release = match info.kind {
            AccessKind::LockAcq => false,
            AccessKind::LockRel => true,
            _ => continue,
        };
        let k = lock_index(info.var.expect("a lock operation names its lock"));
        ops.push((k, release, id));
        by_pos.push((info.pos.block.0, info.pos.instr as u32, k, release));
    }
    ops.sort_unstable();
    by_pos.sort_unstable_by_key(|&(b, i, ..)| (b, i));
    let held_in = must_hold_in(cfg, preds, locks.len(), &by_pos);
    let mut held = BitSet::new(locks.len());
    let sites = |k: usize, release: bool| {
        let lo = ops.partition_point(|&(l, r, _)| (l, r) < (k, release));
        let hi = ops.partition_point(|&(l, r, _)| (l, r) <= (k, release));
        ops[lo..hi].iter().map(|&(_, _, id)| id)
    };

    // (lock index, access) for every guarded access, accesses ascending.
    let mut guarded: Vec<(usize, AccessId)> = Vec::new();
    for (a, info) in cfg.accesses.iter() {
        if !info.kind.is_data() {
            continue;
        }
        // Must-hold at the access: the block's entry set, then the lock
        // operations before it in the block.
        let (block, instr) = (info.pos.block.0, info.pos.instr as u32);
        held.clear();
        held.union_words(held_in.row_words(block as usize));
        let lo = by_pos.partition_point(|&(b, ..)| b < block);
        let hi = by_pos.partition_point(|&(b, i, ..)| (b, i) < (block, instr));
        apply_lock_ops(&by_pos[lo..hi], &mut held);
        for k in held.iter_ones() {
            let has_b1 = sites(k, false).any(|b1| {
                dom.pos_dominates(cfg.accesses.info(b1).pos, info.pos) && d1.contains(b1, a)
            });
            let has_b2 = has_b1
                && sites(k, true).any(|b2| {
                    dom.pos_dominates(info.pos, cfg.accesses.info(b2).pos) && d1.contains(a, b2)
                });
            if has_b2 {
                guarded.push((k, a));
            }
        }
    }
    guarded.sort_unstable();
    let mut out = LockGuards::default();
    for run in guarded.chunk_by(|x, y| x.0 == y.0) {
        if out.starts.is_empty() {
            out.starts.push(0);
        }
        out.locks.push(locks[run[0].0]);
        out.accesses.extend(run.iter().map(|&(_, a)| a));
        out.starts.push(out.accesses.len() as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::SyncOptions;
    use crate::AnalysisBase;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;
    use syncopt_ir::order::GraphScratch;

    fn analyzed(src: &str) -> (Cfg, LockGuards) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let guards =
            AnalysisBase::build(&cfg, &SyncOptions::default(), &mut GraphScratch::default()).guards;
        (cfg, guards)
    }

    #[test]
    fn critical_section_accesses_are_guarded() {
        let (cfg, guards) = analyzed(
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
        let l = cfg.vars.by_name("l").unwrap();
        let guarded = guards.guarded_by(l);
        assert_eq!(guarded.len(), 2, "read and write of X: {guarded:?}");
        for &a in guarded {
            assert!(cfg.accesses.info(a).kind.is_data());
            assert_eq!(guards.locks_guarding(a), vec![l]);
        }
    }

    #[test]
    fn accesses_outside_critical_section_are_not_guarded() {
        let (cfg, guards) = analyzed(
            r#"
            shared int X; lock l;
            fn main() {
                X = 1;
                lock l;
                X = 2;
                unlock l;
                X = 3;
            }
            "#,
        );
        let l = cfg.vars.by_name("l").unwrap();
        assert_eq!(guards.guarded_by(l).len(), 1);
    }

    #[test]
    fn conditional_unlock_defeats_guarding() {
        // The access dominates no unlock on the taken path structure.
        let (cfg, guards) = analyzed(
            r#"
            shared int X; lock l;
            fn main() {
                lock l;
                if (MYPROC == 0) { unlock l; }
                X = 1;
            }
            "#,
        );
        let l = cfg.vars.by_name("l").unwrap();
        // `X = 1` does not dominate any unlock, and must-hold fails anyway.
        assert!(guards.guarded_by(l).is_empty());
    }

    #[test]
    fn removable_for_pair_requires_common_lock() {
        let (cfg, guards) = analyzed(
            r#"
            shared int X; shared int Y; shared int Z; lock l;
            fn main() {
                lock l;
                X = 1;
                Y = 2;
                Z = 3;
                unlock l;
            }
            "#,
        );
        let l = cfg.vars.by_name("l").unwrap();
        let guarded = guards.guarded_by(l).to_vec();
        assert_eq!(guarded.len(), 3);
        let removable = guards.removable_for_pair(guarded[0], guarded[2]);
        assert_eq!(removable, vec![guarded[1]]);
        // Pair with an unguarded access removes nothing.
        let outside: Vec<AccessId> = cfg
            .accesses
            .ids()
            .filter(|a| !guarded.contains(a) && cfg.accesses.info(*a).kind.is_data())
            .collect();
        assert!(outside.is_empty()); // all data accesses are guarded here
    }

    #[test]
    fn two_locks_guard_independently() {
        let (cfg, guards) = analyzed(
            r#"
            shared int X; shared int Y; lock l1; lock l2;
            fn main() {
                lock l1; X = 1; unlock l1;
                lock l2; Y = 1; unlock l2;
            }
            "#,
        );
        let l1 = cfg.vars.by_name("l1").unwrap();
        let l2 = cfg.vars.by_name("l2").unwrap();
        assert_eq!(guards.guarded_by(l1).len(), 1);
        assert_eq!(guards.guarded_by(l2).len(), 1);
        assert_ne!(guards.guarded_by(l1), guards.guarded_by(l2));
        let all_locks: Vec<VarId> = guards.locks().collect();
        assert_eq!(all_locks.len(), 2);
    }

    #[test]
    fn nested_locks_guard_inner_access_twice() {
        let (cfg, guards) = analyzed(
            r#"
            shared int X; lock l1; lock l2;
            fn main() {
                lock l1;
                lock l2;
                X = 1;
                unlock l2;
                unlock l1;
            }
            "#,
        );
        let l1 = cfg.vars.by_name("l1").unwrap();
        let l2 = cfg.vars.by_name("l2").unwrap();
        assert_eq!(guards.guarded_by(l1).len(), 1);
        assert_eq!(guards.guarded_by(l2).len(), 1);
        let x_write = guards.guarded_by(l1)[0];
        assert_eq!(guards.locks_guarding(x_write).len(), 2);
    }
}
