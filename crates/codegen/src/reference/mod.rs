//! The passes as they were before they shared one context — pairwise block
//! scans over expression-level subscript tests, `HashSet` liveness, one
//! dominator build per pass — kept verbatim (but for the `--delay ss`
//! write-back fix) as the reference [`crate::optimize`] is tested against.

pub(crate) mod affine;
pub(crate) mod cleanup;
pub(crate) mod elim;
pub(crate) mod liveness;
pub(crate) mod motion;
pub(crate) mod oneway;
pub(crate) mod split;

use crate::{DelayChoice, OptLevel, OptStats, Optimized};
use syncopt_core::{Analysis, DelaySet};
use syncopt_ir::cfg::Cfg;

/// [`crate::optimize`], the old way.
pub(crate) fn optimize(
    cfg: &Cfg,
    analysis: &Analysis,
    level: OptLevel,
    choice: DelayChoice,
) -> Optimized {
    let delay: &DelaySet = match choice {
        DelayChoice::ShashaSnir => &analysis.delay_ss,
        DelayChoice::SyncRefined => &analysis.delay_sync,
    };
    let mut out = cfg.clone();
    let mut stats = OptStats::default();
    if level == OptLevel::Blocking {
        return Optimized {
            cfg: out,
            stats,
            level,
        };
    }
    let ctr_map = split::split_phase(&mut out, &mut stats);
    if level >= OptLevel::Full {
        elim::eliminate_redundant_gets(&mut out, delay, analysis, &mut stats);
        elim::eliminate_redundant_gets_cross_block(&mut out, delay, &mut stats);
        elim::forward_put_values(&mut out, delay, &mut stats);
        elim::eliminate_overwritten_puts(&mut out, delay, &mut stats);
        cleanup::remove_dead_code(&mut out, &mut stats);
    }
    motion::move_syncs(&mut out, delay, &ctr_map, &mut stats);
    motion::move_initiations(&mut out, delay, &ctr_map, &mut stats);
    if level >= OptLevel::OneWay {
        oneway::convert_one_way(&mut out, &ctr_map, &mut stats);
    }
    out.recompute_access_positions();
    Optimized {
        cfg: out,
        stats,
        level,
    }
}
