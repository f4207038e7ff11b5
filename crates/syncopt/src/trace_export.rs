//! Chrome Trace Event Format export of the simulator timeline.
//!
//! [`chrome_trace`] converts a structured [`Trace`] (per-processor state
//! spans, message flows, lock holds, barrier episodes) into the JSON
//! object format that Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing` load directly:
//!
//! * each processor is a thread track (`tid` = processor id) carrying
//!   `ph:"X"` duration slices, one per state interval (`busy`, `sync`,
//!   `barrier`, `wait`, `lock`, `network_wait`, `idle`); their durations
//!   sum to the `sim.per_proc` cycle accounting exactly;
//! * every remote get/put/store is an async span (`ph:"b"`/`"e"`,
//!   category `flow`) from injection on the issuer to reply delivery,
//!   with an async instant (`ph:"n"`) marking the home-node service —
//!   the visible form of message pipelining;
//! * lock holds are async spans (category `lock`) from grant delivery to
//!   unlock service;
//! * barrier episodes are slices on a dedicated `barriers` track.
//!
//! Timestamps are **simulated cycles** emitted in the format's `ts`
//! field (viewers display them as microseconds: 1 cycle renders as
//! 1 µs). The export contains no wall-clock quantity anywhere, so two
//! runs of the same program produce byte-identical files — the golden
//! test pins one.
//!
//! The top level carries the extra keys `schema`
//! ([`TRACE_SCHEMA`] = `syncopt.trace.v1`), `exec_cycles`, `truncated`,
//! `dropped_events`, and `dropped_spans`; trace viewers ignore unknown
//! keys.

use syncopt_core::diag::json::{key, Arr, Obj};
use syncopt_ir::cfg::Cfg;
use syncopt_ir::ids::VarId;
use syncopt_machine::sim::SimResult;
use syncopt_machine::trace::Trace;

/// The stable schema identifier embedded in every trace export.
pub const TRACE_SCHEMA: &str = "syncopt.trace.v1";

/// Opens one trace event with the members every event starts with, and
/// returns it for the rest: the timelines of `syncoptc trace` and of
/// `daemon-trace` are written with it.
pub(crate) fn event<'a>(events: &'a mut Arr<'_>, ph: &str, tid: u64) -> Obj<'a> {
    let mut e = Obj::open(events.item());
    e.str(key!("ph"), ph);
    e.int(key!("pid"), 0);
    e.int(key!("tid"), tid);
    e
}

/// A thread-name metadata event: the track `tid` is called `name`.
pub(crate) fn meta(events: &mut Arr<'_>, tid: u64, name: &str) {
    let mut e = event(events, "M", tid);
    e.str(key!("name"), "thread_name");
    let mut args = Obj::open(e.key(key!("args")));
    args.str(key!("name"), name);
    args.close();
    e.close();
}

/// Builds the Chrome Trace Event Format JSON for one traced run, and
/// counts its trace events.
///
/// `cfg` supplies variable names for lock tracks; `sim` supplies the
/// execution length and processor count.
pub fn chrome_trace(trace: &Trace, sim: &SimResult, cfg: &Cfg) -> (String, usize) {
    let procs = sim.metrics.per_proc.len() as u64;
    let mut out = String::new();
    let mut o = Obj::open(&mut out);
    o.str(key!("schema"), TRACE_SCHEMA);
    o.int(key!("exec_cycles"), sim.exec_cycles);
    o.bool(key!("truncated"), trace.truncated());
    o.int(key!("dropped_events"), trace.dropped());
    o.int(key!("dropped_spans"), trace.spans_dropped());
    let mut events = Arr::open(o.key(key!("traceEvents")));
    // Thread-name metadata: one track per processor, one for barriers.
    for pi in 0..procs {
        meta(&mut events, pi, &format!("proc {pi}"));
    }
    meta(&mut events, procs, "barriers");

    // Per-processor state slices, ordered by (proc, start) so the file
    // is deterministic and diffable.
    let mut spans = trace.state_spans().to_vec();
    spans.sort_by_key(|sp| (sp.proc, sp.start));
    for sp in &spans {
        let mut e = event(&mut events, "X", u64::from(sp.proc));
        e.int(key!("ts"), sp.start);
        e.int(key!("dur"), sp.cycles());
        e.str(key!("name"), sp.state.label());
        e.str(key!("cat"), "state");
        e.close();
    }

    // Lock holds: async spans so they may straddle state boundaries.
    for (i, l) in trace.lock_spans().iter().enumerate() {
        let lock_name = &cfg.vars.info(VarId::from_index(l.lock as usize)).name;
        let name = format!("hold {lock_name}");
        let id = format!("lock{i}");
        for (ph, ts) in [("b", l.acquired), ("e", l.released)] {
            let mut e = event(&mut events, ph, u64::from(l.proc));
            e.int(key!("ts"), ts);
            e.str(key!("id"), &id);
            e.str(key!("name"), &name);
            e.str(key!("cat"), "lock");
            e.close();
        }
    }

    // Barrier episodes on the dedicated track, spanning first arrival to
    // release; arrivals ride along in args.
    for (i, b) in trace.barrier_spans().iter().enumerate() {
        let mut e = event(&mut events, "X", procs);
        e.int(key!("ts"), b.first_arrival);
        e.int(key!("dur"), b.release - b.first_arrival);
        e.str(key!("name"), &format!("barrier #{i}"));
        e.str(key!("cat"), "barrier");
        let mut args = Obj::open(e.key(key!("args")));
        args.ints(&[
            (key!("first_arrival"), b.first_arrival),
            (key!("last_arrival"), b.last_arrival),
            (key!("release"), b.release),
        ]);
        args.close();
        e.close();
    }

    // Message flows: async begin at injection (issuer track), async
    // instant at home service (home track), async end at reply delivery
    // (issuer track; stores end at service — they have no reply).
    for f in trace.flow_spans() {
        let id = format!("msg{}", f.id);
        let steps = [
            ("b", f.issued, f.from),
            ("n", f.service, f.home),
            ("e", f.delivered.unwrap_or(f.service), f.from),
        ];
        for (ph, ts, tid) in steps {
            let mut e = event(&mut events, ph, u64::from(tid));
            e.int(key!("ts"), ts);
            e.str(key!("id"), &id);
            e.str(key!("name"), f.kind.label());
            e.str(key!("cat"), "flow");
            e.close();
        }
    }

    let count = events.count();
    events.close();
    o.close();
    (out, count)
}

/// Checks that the traced state spans reproduce the per-processor cycle
/// accounting exactly; returns the first discrepancy as
/// `(proc, state, span_sum, counter)`.
pub fn verify_span_accounting(trace: &Trace, sim: &SimResult) -> Result<(), String> {
    use syncopt_machine::trace::StateKind;
    for (pi, pc) in sim.metrics.per_proc.iter().enumerate() {
        let p = pi as u32;
        let pairs = [
            (StateKind::Busy, pc.busy),
            (StateKind::Sync, pc.sync),
            (StateKind::Barrier, pc.barrier),
            (StateKind::Wait, pc.wait),
            (StateKind::Lock, pc.lock),
            (StateKind::NetworkWait, pc.network_wait),
            (StateKind::Idle, pc.idle),
        ];
        for (kind, counter) in pairs {
            let sum = trace.state_cycles(p, kind);
            if sum != counter {
                return Err(format!(
                    "proc {pi} {}: spans sum to {sum} but the counter says {counter}",
                    kind.label()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_core::diag::json::Value;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;
    use syncopt_machine::sim::simulate_traced;
    use syncopt_machine::MachineConfig;

    fn traced(src: &str, procs: u32) -> (SimResult, Trace, Cfg) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let (sim, trace) = simulate_traced(&cfg, &MachineConfig::cm5(procs), 100_000).unwrap();
        (sim, trace, cfg)
    }

    const SRC: &str = r#"
        shared int A[8]; flag F; lock l; shared int X;
        fn main() {
            A[MYPROC] = MYPROC;
            barrier;
            int v; v = A[(MYPROC + 1) % PROCS];
            if (MYPROC == 0) { post F; } else { wait F; }
            lock l; X = X + v; unlock l;
            barrier;
        }
    "#;

    #[test]
    fn export_is_valid_parseable_json_with_schema() {
        let (sim, trace, cfg) = traced(SRC, 4);
        let (text, events) = chrome_trace(&trace, &sim, &cfg);
        crate::assert_canonical(&text);
        let parsed = Value::parse(&text).expect("export must be valid JSON");
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
        assert_eq!(
            parsed.get("exec_cycles").unwrap().as_int(),
            Some(sim.exec_cycles as i64)
        );
        assert_eq!(parsed.get("truncated"), Some(&Value::Bool(false)));
        let parsed_events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!parsed_events.is_empty());
        assert_eq!(parsed_events.len(), events);
    }

    #[test]
    fn export_has_all_event_families() {
        let (sim, trace, cfg) = traced(SRC, 4);
        let json = Value::parse(&chrome_trace(&trace, &sim, &cfg).0).unwrap();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        let phase_count = |ph: &str, cat: Option<&str>| {
            events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Value::as_str) == Some(ph)
                        && cat.is_none_or(|c| e.get("cat").and_then(Value::as_str) == Some(c))
                })
                .count()
        };
        assert_eq!(phase_count("M", None), 5, "4 proc tracks + barriers");
        assert!(phase_count("X", Some("state")) > 0);
        assert_eq!(phase_count("X", Some("barrier")), 2);
        assert_eq!(phase_count("b", Some("lock")), 4, "one hold per processor");
        assert_eq!(
            phase_count("b", Some("lock")),
            phase_count("e", Some("lock"))
        );
        // Every flow has begin, service instant, and end.
        assert_eq!(phase_count("b", Some("flow")), trace.flow_spans().len());
        assert_eq!(phase_count("n", Some("flow")), trace.flow_spans().len());
        assert_eq!(phase_count("e", Some("flow")), trace.flow_spans().len());
    }

    #[test]
    fn export_is_deterministic() {
        let (sim_a, trace_a, cfg_a) = traced(SRC, 4);
        let (sim_b, trace_b, cfg_b) = traced(SRC, 4);
        assert_eq!(
            chrome_trace(&trace_a, &sim_a, &cfg_a),
            chrome_trace(&trace_b, &sim_b, &cfg_b)
        );
    }

    #[test]
    fn span_accounting_verifier_accepts_real_runs_and_rejects_tampering() {
        let (sim, trace, _) = traced(SRC, 4);
        verify_span_accounting(&trace, &sim).expect("real run must verify");
        let mut broken = sim.clone();
        broken.metrics.per_proc[0].busy += 1;
        assert!(verify_span_accounting(&trace, &broken).is_err());
    }
}
