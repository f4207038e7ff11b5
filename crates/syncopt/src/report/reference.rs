//! The `json::Value`-tree report rendering that the direct writers of
//! [`super`] replaced, kept as what they are compared against: every
//! section is built as a tree, then written by the one emitter.

use super::{delay_label, level_label, PipelineReport, ProfileReport, SimReport, REPORT_SCHEMA};
use syncopt_codegen::OptStats;
use syncopt_core::diag::json::Value;
use syncopt_core::AnalysisStats;
use syncopt_machine::sim::{NetStats, StallStats};
use syncopt_machine::{LatencyHistogram, SimWork};

pub fn pipeline(r: &PipelineReport) -> Value {
    let timings = r
        .timings
        .iter()
        .map(|(phase, us)| (format!("{phase}_us"), Value::Int(us as i64)))
        .collect();
    let counters = r
        .counters
        .iter()
        .map(|(name, n)| (name.into(), Value::Int(n as i64)))
        .collect();
    let mut fields = vec![
        ("schema".into(), Value::Str(REPORT_SCHEMA.to_string())),
        ("meta".into(), meta_json(r)),
        ("timings".into(), Value::Obj(timings)),
        ("analysis".into(), analysis_json(&r.analysis)),
        ("counters".into(), Value::Obj(counters)),
        ("codegen".into(), optstats_json(&r.codegen)),
    ];
    if let Some(sim) = &r.sim {
        fields.push(("sim".into(), sim_json(sim)));
    }
    Value::Obj(fields)
}

pub fn profile(p: &ProfileReport) -> Value {
    let cycles = |r: &PipelineReport| r.sim.as_ref().map_or(0, |s| s.exec_cycles as i64);
    let messages = |r: &PipelineReport| r.sim.as_ref().map_or(0, |s| s.net.total_messages() as i64);
    Value::Obj(vec![
        (
            "schema".into(),
            Value::Str("syncopt.profile_report.v1".to_string()),
        ),
        ("blocking".into(), pipeline(&p.blocking)),
        ("optimized".into(), pipeline(&p.optimized)),
        (
            "comparison".into(),
            Value::Obj(vec![
                ("speedup_x100".into(), Value::Int(p.speedup_x100() as i64)),
                (
                    "cycles_saved".into(),
                    Value::Int(cycles(&p.blocking) - cycles(&p.optimized)),
                ),
                (
                    "messages_delta".into(),
                    Value::Int(messages(&p.optimized) - messages(&p.blocking)),
                ),
            ]),
        ),
    ])
}

fn meta_json(r: &PipelineReport) -> Value {
    Value::Obj(vec![
        ("procs".into(), Value::Int(i64::from(r.meta.procs))),
        (
            "level".into(),
            Value::Str(level_label(r.meta.level).to_string()),
        ),
        (
            "delay".into(),
            Value::Str(delay_label(r.meta.delay).to_string()),
        ),
        (
            "machine".into(),
            match &r.meta.machine {
                Some(m) => Value::Str(m.clone()),
                None => Value::Null,
            },
        ),
    ])
}

fn analysis_json(a: &AnalysisStats) -> Value {
    Value::Obj(vec![
        ("accesses".into(), Value::Int(a.accesses as i64)),
        ("conflict_pairs".into(), Value::Int(a.conflict_pairs as i64)),
        ("delay_ss".into(), Value::Int(a.delay_ss as i64)),
        ("delay_sync".into(), Value::Int(a.delay_sync as i64)),
        (
            "precedence_pairs".into(),
            Value::Int(a.precedence_pairs as i64),
        ),
        (
            "aligned_barriers".into(),
            Value::Int(a.aligned_barriers as i64),
        ),
    ])
}

fn optstats_json(s: &OptStats) -> Value {
    Value::Obj(vec![
        ("gets_split".into(), Value::Int(s.gets_split as i64)),
        ("puts_split".into(), Value::Int(s.puts_split as i64)),
        ("sync_moves".into(), Value::Int(s.sync_moves as i64)),
        ("syncs_merged".into(), Value::Int(s.syncs_merged as i64)),
        ("init_moves".into(), Value::Int(s.init_moves as i64)),
        ("puts_to_stores".into(), Value::Int(s.puts_to_stores as i64)),
        (
            "gets_eliminated".into(),
            Value::Int(s.gets_eliminated as i64),
        ),
        (
            "puts_eliminated".into(),
            Value::Int(s.puts_eliminated as i64),
        ),
        (
            "dead_locals_removed".into(),
            Value::Int(s.dead_locals_removed as i64),
        ),
        (
            "dead_gets_removed".into(),
            Value::Int(s.dead_gets_removed as i64),
        ),
        ("exprs_folded".into(), Value::Int(s.exprs_folded as i64)),
    ])
}

fn net_json(n: &NetStats) -> Value {
    Value::Obj(vec![
        ("get_requests".into(), Value::Int(n.get_requests as i64)),
        ("get_replies".into(), Value::Int(n.get_replies as i64)),
        ("put_requests".into(), Value::Int(n.put_requests as i64)),
        ("put_acks".into(), Value::Int(n.put_acks as i64)),
        ("store_requests".into(), Value::Int(n.store_requests as i64)),
        ("post_messages".into(), Value::Int(n.post_messages as i64)),
        ("wait_messages".into(), Value::Int(n.wait_messages as i64)),
        ("lock_messages".into(), Value::Int(n.lock_messages as i64)),
        ("barriers".into(), Value::Int(n.barriers as i64)),
        (
            "total_messages".into(),
            Value::Int(n.total_messages() as i64),
        ),
    ])
}

fn stalls_json(s: &StallStats) -> Value {
    Value::Obj(vec![
        ("sync".into(), Value::Int(s.sync as i64)),
        ("barrier".into(), Value::Int(s.barrier as i64)),
        ("wait".into(), Value::Int(s.wait as i64)),
        ("lock".into(), Value::Int(s.lock as i64)),
        ("blocking".into(), Value::Int(s.blocking as i64)),
    ])
}

fn latency_json(h: &LatencyHistogram) -> Value {
    let buckets = h
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            Value::Obj(vec![
                ("le".into(), Value::Str(LatencyHistogram::bucket_label(i))),
                ("count".into(), Value::Int(count as i64)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("count".into(), Value::Int(h.count as i64)),
        ("min".into(), Value::Int(h.min as i64)),
        ("mean".into(), Value::Int(h.mean() as i64)),
        ("max".into(), Value::Int(h.max as i64)),
        ("buckets".into(), Value::Arr(buckets)),
    ])
}

fn work_json(w: &SimWork, exec_cycles: u64) -> Value {
    Value::Obj(vec![
        (
            "events_scheduled".into(),
            Value::Int(w.events_scheduled as i64),
        ),
        (
            "events_dequeued".into(),
            Value::Int(w.events_dequeued as i64),
        ),
        (
            "bucket_rotations".into(),
            Value::Int(w.bucket_rotations as i64),
        ),
        (
            "overflow_promotions".into(),
            Value::Int(w.overflow_promotions as i64),
        ),
        ("arena_reuses".into(), Value::Int(w.arena_reuses as i64)),
        ("waiter_scans".into(), Value::Int(w.waiter_scans as i64)),
        (
            "events_per_1k_cycles".into(),
            Value::Int(w.events_per_1k_cycles(exec_cycles) as i64),
        ),
    ])
}

fn sim_json(sim: &SimReport) -> Value {
    let per_proc = sim
        .metrics
        .per_proc
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            Value::Obj(vec![
                ("proc".into(), Value::Int(pi as i64)),
                ("busy".into(), Value::Int(p.busy as i64)),
                ("sync".into(), Value::Int(p.sync as i64)),
                ("barrier".into(), Value::Int(p.barrier as i64)),
                ("wait".into(), Value::Int(p.wait as i64)),
                ("lock".into(), Value::Int(p.lock as i64)),
                ("network_wait".into(), Value::Int(p.network_wait as i64)),
                ("idle".into(), Value::Int(p.idle as i64)),
                ("msgs_sent".into(), Value::Int(p.msgs_sent as i64)),
                ("msgs_handled".into(), Value::Int(p.msgs_handled as i64)),
            ])
        })
        .collect();
    let epochs = sim
        .metrics
        .barrier_epochs
        .iter()
        .map(|e| {
            Value::Obj(vec![
                ("first_arrival".into(), Value::Int(e.first_arrival as i64)),
                ("last_arrival".into(), Value::Int(e.last_arrival as i64)),
                ("release".into(), Value::Int(e.release as i64)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("exec_cycles".into(), Value::Int(sim.exec_cycles as i64)),
        ("barriers_aligned".into(), Value::Bool(sim.barriers_aligned)),
        ("net".into(), net_json(&sim.net)),
        ("stalls".into(), stalls_json(&sim.stalls)),
        ("per_proc".into(), Value::Arr(per_proc)),
        ("latency".into(), latency_json(&sim.metrics.latency)),
        ("barrier_epochs".into(), Value::Arr(epochs)),
        ("work".into(), work_json(&sim.metrics.work, sim.exec_cycles)),
    ];
    if let Some(truncated) = sim.trace_truncated {
        fields.push(("trace_truncated".into(), Value::Bool(truncated)));
    }
    Value::Obj(fields)
}
