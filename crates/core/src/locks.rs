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
use std::collections::{HashMap, HashSet};
use syncopt_ir::access::AccessKind;
use syncopt_ir::cfg::{Cfg, Instr};
use syncopt_ir::dom::Dominators;
use syncopt_ir::ids::{AccessId, VarId};
use syncopt_ir::vars::VarKind;

/// Guard information: which accesses each lock protects.
#[derive(Debug, Clone, Default)]
pub struct LockGuards {
    /// lock variable → accesses guarded by it.
    guarded: HashMap<VarId, Vec<AccessId>>,
}

impl LockGuards {
    /// The accesses guarded by `lock`.
    pub fn guarded_by(&self, lock: VarId) -> &[AccessId] {
        self.guarded.get(&lock).map_or(&[], |v| v.as_slice())
    }

    /// All locks that guard at least one access.
    pub fn locks(&self) -> impl Iterator<Item = VarId> + '_ {
        self.guarded.keys().copied()
    }

    /// The locks guarding `access`.
    pub fn locks_guarding(&self, access: AccessId) -> Vec<VarId> {
        self.guarded
            .iter()
            .filter(|(_, accs)| accs.contains(&access))
            .map(|(l, _)| *l)
            .collect()
    }

    /// If `a` and `b` are guarded by a common lock, the other accesses
    /// guarded by that lock (candidates for removal in the back-path
    /// check). Empty otherwise.
    pub fn removable_for_pair(&self, a: AccessId, b: AccessId) -> Vec<AccessId> {
        let mut out = Vec::new();
        for (_, accs) in self.guarded.iter() {
            if accs.contains(&a) && accs.contains(&b) {
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
    pub fn mark_removable_for_pair(
        &self,
        a: AccessId,
        b: AccessId,
        out: &mut syncopt_ir::order::BitSet,
    ) {
        for (_, accs) in self.guarded.iter() {
            if accs.contains(&a) && accs.contains(&b) {
                for &x in accs {
                    out.insert(x.index());
                }
            }
        }
    }
}

/// Computes the must-hold lock set at entry of every block.
fn must_hold_in(cfg: &Cfg, locks: &[VarId]) -> Vec<HashSet<VarId>> {
    let nb = cfg.num_blocks();
    let full: HashSet<VarId> = locks.iter().copied().collect();
    let mut in_sets: Vec<HashSet<VarId>> = vec![full.clone(); nb];
    in_sets[cfg.entry.index()] = HashSet::new();
    let preds = cfg.predecessors();
    let rpo = cfg.reverse_postorder();
    let transfer = |cfg: &Cfg, b: syncopt_ir::ids::BlockId, mut held: HashSet<VarId>| {
        for instr in &cfg.block(b).instrs {
            match instr {
                Instr::LockAcq { lock, .. } => {
                    held.insert(*lock);
                }
                Instr::LockRel { lock, .. } => {
                    held.remove(lock);
                }
                _ => {}
            }
        }
        held
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            if b == cfg.entry {
                continue;
            }
            let mut inb: Option<HashSet<VarId>> = None;
            for &p in preds.of(b) {
                let outp = transfer(cfg, p, in_sets[p.index()].clone());
                inb = Some(match inb {
                    None => outp,
                    Some(cur) => cur.intersection(&outp).copied().collect(),
                });
            }
            let inb = inb.unwrap_or_default();
            if inb != in_sets[b.index()] {
                in_sets[b.index()] = inb;
                changed = true;
            }
        }
    }
    in_sets
}

/// Computes which accesses are guarded by which locks.
pub fn compute_lock_guards(cfg: &Cfg, dom: &Dominators, d1: &DelaySet) -> LockGuards {
    let locks: Vec<VarId> = cfg
        .vars
        .iter()
        .filter(|(_, info)| info.kind == VarKind::Lock)
        .map(|(id, _)| id)
        .collect();
    if locks.is_empty() {
        return LockGuards::default();
    }
    let in_sets = must_hold_in(cfg, &locks);

    // Lock operations by lock variable.
    let mut acqs: HashMap<VarId, Vec<AccessId>> = HashMap::new();
    let mut rels: HashMap<VarId, Vec<AccessId>> = HashMap::new();
    for (id, info) in cfg.accesses.iter() {
        match info.kind {
            AccessKind::LockAcq => acqs.entry(info.var.unwrap()).or_default().push(id),
            AccessKind::LockRel => rels.entry(info.var.unwrap()).or_default().push(id),
            _ => {}
        }
    }

    // Must-hold at an access position: simulate the block prefix.
    let held_at = |pos: syncopt_ir::ids::Position| -> HashSet<VarId> {
        let mut held = in_sets[pos.block.index()].clone();
        for (i, instr) in cfg.block(pos.block).instrs.iter().enumerate() {
            if i >= pos.instr {
                break;
            }
            match instr {
                Instr::LockAcq { lock, .. } => {
                    held.insert(*lock);
                }
                Instr::LockRel { lock, .. } => {
                    held.remove(lock);
                }
                _ => {}
            }
        }
        held
    };

    let mut guards = LockGuards::default();
    for (a, info) in cfg.accesses.iter() {
        if !info.kind.is_data() {
            continue;
        }
        let held = held_at(info.pos);
        for &l in &held {
            let has_b1 = acqs.get(&l).is_some_and(|sites| {
                sites.iter().any(|&b1| {
                    dom.pos_dominates(cfg.accesses.info(b1).pos, info.pos) && d1.contains(b1, a)
                })
            });
            let has_b2 = rels.get(&l).is_some_and(|sites| {
                sites.iter().any(|&b2| {
                    dom.pos_dominates(info.pos, cfg.accesses.info(b2).pos) && d1.contains(a, b2)
                })
            });
            if has_b1 && has_b2 {
                guards.guarded.entry(l).or_default().push(a);
            }
        }
    }
    guards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::SyncOptions;
    use crate::AnalysisBase;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    fn analyzed(src: &str) -> (Cfg, LockGuards) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let guards = AnalysisBase::build(&cfg, &SyncOptions::default()).guards;
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
