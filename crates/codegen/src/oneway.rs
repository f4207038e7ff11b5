//! Two-way → one-way communication conversion (§6).
//!
//! A `put` carries an acknowledgement so `sync_ctr` can observe its
//! completion. When every `sync_ctr` copy for a put has propagated to a
//! global barrier, the acknowledgement is pure overhead: the barrier's
//! network quiescence already guarantees delivery. Such puts become
//! `store`s — one-way writes with no ack traffic — and their syncs vanish.

use crate::OptStats;
use syncopt_ir::cfg::{Cfg, CtrId, Instr};

/// What one sweep of the CFG learns about a counter.
#[derive(Clone, Copy)]
struct CtrUse {
    /// Its initiation is a `put` still in the CFG.
    is_put: bool,
    /// Some `sync_ctr` copy of it exists.
    synced: bool,
    /// Every copy sits right before a barrier.
    all_at_barrier: bool,
}

/// Converts every eligible `put_ctr` into a `store` and removes its syncs.
pub(crate) fn convert_one_way(cfg: &mut Cfg, stats: &mut OptStats) {
    let mut uses = vec![
        CtrUse {
            is_put: false,
            synced: false,
            all_at_barrier: true,
        };
        cfg.num_ctrs as usize
    ];
    for block in &cfg.blocks {
        for (i, instr) in block.instrs.iter().enumerate() {
            match instr {
                Instr::SyncCtr { ctr } => {
                    let u = &mut uses[ctr.0 as usize];
                    u.synced = true;
                    u.all_at_barrier &=
                        matches!(block.instrs.get(i + 1), Some(Instr::Barrier { .. }));
                }
                Instr::PutInit { ctr, .. } => uses[ctr.0 as usize].is_put = true,
                _ => {}
            }
        }
    }
    let convert: Vec<bool> = uses
        .iter()
        .map(|u| u.is_put && u.synced && u.all_at_barrier)
        .collect();
    let converted = convert.iter().filter(|&&c| c).count();
    stats.puts_to_stores += converted;
    if converted == 0 {
        return;
    }
    let eligible = |ctr: CtrId| convert[ctr.0 as usize];
    for block in &mut cfg.blocks {
        block
            .instrs
            .retain(|i| !matches!(i, Instr::SyncCtr { ctr } if eligible(*ctr)));
        for instr in &mut block.instrs {
            if matches!(instr, Instr::PutInit { ctr, .. } if eligible(*ctr)) {
                // Moved out and back in, so nothing is cloned.
                let Instr::PutInit {
                    access, dst, src, ..
                } = std::mem::replace(instr, Instr::SyncCtr { ctr: CtrId(0) })
                else {
                    unreachable!("matched a put above");
                };
                *instr = Instr::StoreInit { access, dst, src };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelayChoice;
    use syncopt_core::analyze;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    fn run(src: &str) -> (Cfg, OptStats) {
        let cfg0 = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = analyze(&cfg0);
        crate::tests::motion_pipeline(&cfg0, &analysis, DelayChoice::SyncRefined, true)
    }

    fn count(cfg: &Cfg, pred: impl Fn(&Instr) -> bool) -> usize {
        cfg.blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn put_with_sync_at_barrier_becomes_store() {
        let (cfg, stats) = run(r#"
            shared int A[64];
            fn main() {
                int v;
                A[MYPROC + 1] = 7;
                work(10);
                barrier;
                v = A[MYPROC];
                work(v);
            }
            "#);
        assert_eq!(stats.puts_to_stores, 1);
        assert_eq!(count(&cfg, |i| matches!(i, Instr::StoreInit { .. })), 1);
        assert_eq!(count(&cfg, |i| matches!(i, Instr::PutInit { .. })), 0);
        // The store's sync is gone; the get's sync remains.
        assert_eq!(count(&cfg, |i| matches!(i, Instr::SyncCtr { .. })), 1);
    }

    #[test]
    fn put_without_barrier_keeps_ack() {
        let (cfg, stats) = run("shared int A[64]; fn main() { A[MYPROC + 1] = 7; work(10); }");
        assert_eq!(stats.puts_to_stores, 0);
        assert_eq!(count(&cfg, |i| matches!(i, Instr::PutInit { .. })), 1);
        assert_eq!(count(&cfg, |i| matches!(i, Instr::StoreInit { .. })), 0);
    }

    #[test]
    fn put_whose_sync_is_blocked_by_use_keeps_ack() {
        // Same-location read forces the sync before the read, not at the
        // barrier.
        let (cfg, stats) = run(r#"
            shared int X;
            fn main() {
                int v;
                X = 1;
                v = X;
                work(v);
                barrier;
            }
            "#);
        assert_eq!(stats.puts_to_stores, 0);
        assert!(count(&cfg, |i| matches!(i, Instr::PutInit { .. })) >= 1);
    }

    #[test]
    fn gets_are_never_converted() {
        let (cfg, stats) =
            run("shared int A[64]; fn main() { int v; v = A[MYPROC + 1]; barrier; work(v); }");
        assert_eq!(stats.puts_to_stores, 0);
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 1);
    }

    #[test]
    fn loop_put_with_barrier_each_iteration_converts() {
        let (cfg, stats) = run(r#"
            shared int A[64];
            fn main() {
                int i;
                for (i = 0; i < 8; i = i + 1) {
                    A[MYPROC + 1] = i;
                    work(20);
                    barrier;
                }
            }
            "#);
        assert_eq!(stats.puts_to_stores, 1, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::StoreInit { .. })), 1);
    }
}
