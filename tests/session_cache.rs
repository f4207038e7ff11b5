//! Differential tests for the session API's content-addressed cache:
//! cached and incremental analysis must be **byte-identical** to a cold
//! full run — over the five evaluation kernels, the 220-program seeded
//! corpus, and after single-function edits — while the cache counters
//! prove that warm runs actually reused artifacts instead of rebuilding
//! them. The per-kind counts of warm requests are pinned: they are what
//! a change to how keys are derived or carried must leave alone.

use std::sync::Arc;
use syncopt::commands::{answer, command_names, execute, CmdOut, Format, Query};
use syncopt::core::corpus::{corpus_program, CORPUS_SEEDS};
use syncopt::core::diag::json::Value;
use syncopt::core::KindStats;
use syncopt::ir::print::cfg_to_string;
use syncopt::kernels::all_kernels;
use syncopt::machine::MachineConfig;
use syncopt::session::{AnalysisSession, SessionOptions};
use syncopt::{Compiled, OptLevel, Syncopt};

const COMMANDS: [&str; 4] = ["check", "explain", "lint", "profile"];

fn query(command: &str, name: &str, source: &str, format: Format) -> Query {
    Query {
        command: command.to_string(),
        file: name.to_string(),
        source: Some(source.to_string()),
        format,
        ..Query::default()
    }
}

/// Runs `q` on a fresh session: the ground-truth cold result.
fn cold(q: &Query) -> CmdOut {
    execute(&mut AnalysisSession::new(), q)
}

#[test]
fn kernels_warm_session_matches_cold_runs_byte_for_byte() {
    let kernels = all_kernels(4);
    assert_eq!(kernels.len(), 5, "the paper's five evaluation kernels");
    let mut session = AnalysisSession::new();
    for format in [Format::Human, Format::Json] {
        for kernel in &kernels {
            for command in COMMANDS {
                let q = query(command, kernel.name, &kernel.source, format);
                let reference = cold(&q);
                // First warm-session run: may build, must match bytes.
                assert_eq!(
                    execute(&mut session, &q),
                    reference,
                    "{command} {} (first warm run)",
                    kernel.name
                );
                // Second run: answered from cache, still identical.
                let before = session.cache_stats();
                assert_eq!(
                    execute(&mut session, &q),
                    reference,
                    "{command} {} (cached run)",
                    kernel.name
                );
                let delta = session.cache_stats().since(before);
                assert_eq!(
                    delta.misses, 0,
                    "{command} {}: repeat query must be all cache hits, got {delta:?}",
                    kernel.name
                );
                assert!(
                    delta.hits > 0,
                    "{command} {}: expected cache use",
                    kernel.name
                );
            }
        }
    }
}

#[test]
fn corpus_cached_check_matches_cold_runs() {
    let mut session = AnalysisSession::new();
    for seed in 0..CORPUS_SEEDS {
        let src = corpus_program(seed);
        let name = format!("corpus-{seed}.ms");
        let q = query("check", &name, &src, Format::Json);
        let reference = cold(&q);
        assert_eq!(execute(&mut session, &q), reference, "seed {seed} warm");
        // Every seventh program also goes through the full lint suite.
        if seed % 7 == 0 {
            let lint = query("lint", &name, &src, Format::Json);
            assert_eq!(
                execute(&mut session, &lint),
                cold(&lint),
                "seed {seed} lint"
            );
        }
    }
    // Replaying a prefix of the corpus is pure cache service.
    for seed in 0..10 {
        let src = corpus_program(seed);
        let q = query("check", &format!("corpus-{seed}.ms"), &src, Format::Json);
        let before = session.cache_stats();
        let warm = execute(&mut session, &q);
        assert_eq!(warm, cold(&q), "seed {seed} replay");
        assert_eq!(
            session.cache_stats().since(before).misses,
            0,
            "seed {seed}: replay must not rebuild anything"
        );
    }
    assert!(
        session.cache_stats().hits > 0,
        "the corpus sweep must exercise the cache"
    );
}

const TWO_FN_V1: &str = "shared int X; shared int Y;\n\
     fn helper() { Y = 2; barrier; }\n\
     fn main() { X = 1; helper(); }\n";

// Only `main` changes; `helper` is untouched.
const TWO_FN_V2: &str = "shared int X; shared int Y;\n\
     fn helper() { Y = 2; barrier; }\n\
     fn main() { X = 7; helper(); }\n";

#[test]
fn single_function_edit_matches_cold_and_reuses_unedited_checks() {
    let mut session = AnalysisSession::new();
    for command in COMMANDS {
        let v1 = query(command, "edit.ms", TWO_FN_V1, Format::Json);
        assert_eq!(execute(&mut session, &v1), cold(&v1), "{command} v1");
    }
    for command in COMMANDS {
        let v2 = query(command, "edit.ms", TWO_FN_V2, Format::Json);
        assert_eq!(
            execute(&mut session, &v2),
            cold(&v2),
            "{command} after single-function edit"
        );
    }
}

#[test]
fn annotated_report_proves_warm_rerun_does_less_work() {
    let opts = SessionOptions::default();
    let config = syncopt::MachineConfig::cm5(4);
    let kernel = &all_kernels(4)[0];
    let mut session = AnalysisSession::new();

    let cold_run = session.run(&kernel.source, &opts, &config).unwrap();
    let cold_stats = session.cache_stats();
    assert!(cold_stats.misses > 0, "cold run builds artifacts");

    let warm_run = session.run(&kernel.source, &opts, &config).unwrap();
    let warm_stats = session.cache_stats().since(cold_stats);
    assert_eq!(warm_stats.misses, 0, "warm rerun rebuilds nothing");
    assert!(warm_stats.hits > 0, "warm rerun is served from cache");
    assert!(
        warm_stats.lookups() <= cold_stats.lookups(),
        "warm rerun must not do more lookups than the cold run"
    );
    // The report carries no cache section: warm and cold are one answer.
    let json = warm_run.report().to_json().to_string();
    assert_eq!(json, cold_run.report().to_json().to_string());
    assert!(!json.contains("\"cache\""));
}

/// What happened between two [`AnalysisSession::kind_counters`] as
/// `kind hits/misses` words, in the order of the declared `CACHE_KINDS`, kinds without
/// lookups left out.
fn kind_delta(before: &KindStats, after: &KindStats) -> String {
    before
        .iter()
        .zip(after.iter())
        .map(|((kind, b), (_, a))| (kind, a.since(b)))
        .filter(|(_, delta)| delta.lookups() > 0)
        .map(|(kind, delta)| format!("{kind} {}/{}", delta.hits, delta.misses))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Sends `queries` twice through one fresh session, then once more under
/// another display name, and returns the per-kind activity of the first
/// (cold) sweep, the second (warm) one and the renamed one.
fn cold_warm_and_renamed_activity(queries: &[Query]) -> [String; 3] {
    let renamed: Vec<Query> = queries
        .iter()
        .map(|q| Query {
            file: format!("renamed/{}", q.file),
            ..q.clone()
        })
        .collect();
    let mut session = AnalysisSession::new();
    let mut marks = vec![session.kind_counters()];
    for sweep in [queries, queries, &renamed] {
        for q in sweep {
            execute(&mut session, q);
        }
        marks.push(session.kind_counters());
    }
    [0, 1, 2].map(|i| kind_delta(&marks[i], &marks[i + 1]))
}

/// The per-kind lookups of cold, warm and renamed requests, pinned: a
/// change to how keys are derived, carried or memoized must not add, drop
/// or re-route a single lookup. Every request first looks up its stored
/// `reply`: a repeat finds it and looks up nothing else, while the same
/// query under another display name misses it and makes exactly the
/// artifact lookups of a warm request. The front end is the one `cfg`
/// entry (no parsed, inlined or per-function checked program is kept),
/// and `check`, `explain` and `analyze` read no optimized program, so they
/// look up no `opt`. A request walks its stages once: `races`, `lint`,
/// `explain` and both levels of `profile` read the analysis the request
/// made, so one request looks up each kind once — each of `profile`'s two
/// levels its own `opt` and `sim`.
#[test]
fn warm_requests_make_exactly_the_pinned_lookups_per_kind() {
    let pinned = [
        (
            "check",
            "cfg 0/5, analysis 0/5, races 0/5",
            "cfg 5/0, analysis 5/0, races 5/0",
        ),
        (
            "check --strict",
            "cfg 0/5, analysis 0/5, races 0/5, lint 0/5",
            "cfg 5/0, analysis 5/0, races 5/0, lint 5/0",
        ),
        (
            "explain",
            "cfg 0/5, analysis 0/5, explain 0/5",
            "cfg 5/0, analysis 5/0, explain 5/0",
        ),
        ("analyze", "cfg 0/5, analysis 0/5", "cfg 5/0, analysis 5/0"),
        (
            "run",
            "cfg 0/5, analysis 0/5, opt 0/5, sim 0/5",
            "cfg 5/0, analysis 5/0, opt 5/0, sim 5/0",
        ),
        (
            "profile",
            "cfg 0/5, analysis 0/5, opt 0/10, sim 0/10",
            "cfg 5/0, analysis 5/0, opt 10/0, sim 10/0",
        ),
    ];
    let kernels = all_kernels(4);
    for (request, cold, warm) in pinned {
        let command = request.split(' ').next().unwrap();
        let queries: Vec<Query> = kernels
            .iter()
            .map(|k| Query {
                strict: request.ends_with("--strict"),
                ..query(command, k.name, &k.source, Format::Json)
            })
            .collect();
        assert_eq!(
            cold_warm_and_renamed_activity(&queries),
            [
                format!("{cold}, reply 0/5"),
                "reply 5/0".to_string(),
                format!("{warm}, reply 0/5"),
            ],
            "{request} over the five kernels"
        );
    }

    let corpus: Vec<Query> = (0..CORPUS_SEEDS)
        .map(|seed| query("check", "corpus.ms", &corpus_program(seed), Format::Json))
        .collect();
    assert_eq!(
        cold_warm_and_renamed_activity(&corpus),
        [
            "cfg 0/220, analysis 0/220, races 0/220, reply 0/220".to_string(),
            "reply 220/0".to_string(),
            "cfg 220/0, analysis 220/0, races 220/0, reply 0/220".to_string(),
        ],
        "check over the 220-program corpus"
    );
}

/// Every command `execute` knows, as one query each over a racy source
/// (so `check` fails), plus the source-free and the unknown ones.
fn every_command(source: &str) -> Vec<Query> {
    let mut queries: Vec<Query> = command_names()
        .map(|command| query(command, "every.ms", source, Format::Json))
        .collect();
    for command in ["check", "lint"] {
        queries.push(Query {
            command: command.to_string(),
            kernels: true,
            ..Query::default()
        });
    }
    queries.push(Query {
        command: "lint".to_string(),
        seeded: Some("lock-cycle".to_string()),
        ..Query::default()
    });
    queries.push(query("run", "every.ms", source, Format::Human));
    queries.push(Query {
        trace: true,
        ..query("run", "every.ms", source, Format::Human)
    });
    queries.push(query("frobnicate", "every.ms", source, Format::Human));
    queries
}

/// Every processor writes `Data` and reads it back, nothing ordering any
/// of it: `check` reports proven races and fails.
const RACY: &str = "shared int Data; fn main() { int v; Data = MYPROC; v = Data; }";

/// `execute` is one request, however many steps it takes: the cache
/// delta around it is everything the cache did for it, cold and warm.
#[test]
fn a_cache_delta_around_execute_covers_the_whole_request() {
    let mut session = AnalysisSession::new();
    for q in every_command(RACY) {
        execute(&mut session, &q);
    }
    for q in every_command(RACY)
        .iter()
        .filter(|q| q.command != "trace" && !q.trace)
    {
        let before = session.cache_stats();
        execute(&mut session, q);
        let whole = session.cache_stats().since(before);
        assert_eq!((whole.hits, whole.misses), (1, 0), "warm {}", q.command);
    }
    // A cold `check` misses its reply, analyzes (misses `cfg` and
    // `analysis`) and then classifies races from that analysis (one
    // `races` miss). A delta taken around the last step alone reads 1 miss.
    let mut session = AnalysisSession::new();
    execute(&mut session, &query("check", "racy.ms", RACY, Format::Json));
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 4), "{stats:?}");
}

/// Traces are request-scoped: `trace` and `run --trace` run every time
/// and leave nothing behind — not even on a session that holds every
/// artifact they read.
#[test]
fn traces_are_never_stored() {
    let mut session = AnalysisSession::new();
    let run = query("run", "t.ms", RACY, Format::Human);
    execute(&mut session, &run);
    let traces = [
        query("trace", "t.ms", RACY, Format::Json),
        Query {
            trace: true,
            ..run.clone()
        },
    ];
    for q in &traces {
        let artifacts = session.cached_artifacts();
        let first = execute(&mut session, q);
        assert_eq!(session.cached_artifacts(), artifacts, "{}", q.command);
        let before = session.cache_stats();
        let second = execute(&mut session, q);
        assert_eq!(first, second, "{}", q.command);
        assert_eq!(first, cold(q), "{}", q.command);
        let delta = session.cache_stats().since(before);
        assert_eq!(delta.misses, 0, "{}", q.command);
    }
    let kinds = session.kind_counters();
    assert_eq!(kinds.get("reply").misses, 1, "{kinds:?}");
    assert_eq!(kinds.get("reply").hits, 0, "{kinds:?}");
}

/// A server's hit copies nothing: the answer `commands::answer` hands out
/// on a hit is the stored one itself, the same for every hit, and decodes
/// to the direct answer. A trace and a capacity-0 session still store
/// nothing, and answer every time with the direct bytes.
#[test]
fn a_warm_answer_is_the_stored_one_not_a_copy() {
    let mut session = AnalysisSession::new();
    for q in every_command(RACY)
        .iter()
        .filter(|q| q.command != "trace" && !q.trace)
    {
        let cold_answer = answer(&mut session, q);
        let (first, second) = (answer(&mut session, q), answer(&mut session, q));
        assert!(Arc::ptr_eq(&first, &second), "{}", q.command);
        assert!(Arc::ptr_eq(&cold_answer, &first), "{}", q.command);
        assert_eq!(first.decode(), cold(q), "{}", q.command);
    }
    let traces = [
        query("trace", "t.ms", RACY, Format::Json),
        Query {
            trace: true,
            ..query("run", "t.ms", RACY, Format::Human)
        },
    ];
    let mut off = AnalysisSession::with_capacity(0);
    for q in &traces {
        let artifacts = session.cached_artifacts();
        let replies = session.kind_counters().get("reply").misses;
        assert_eq!(answer(&mut session, q).decode(), cold(q), "{}", q.command);
        assert_eq!(session.cached_artifacts(), artifacts, "{}", q.command);
        assert_eq!(
            session.kind_counters().get("reply").misses,
            replies,
            "{}",
            q.command
        );
    }
    for q in every_command(RACY).iter().chain(&traces) {
        let (first, second) = (answer(&mut off, q), answer(&mut off, q));
        assert!(!Arc::ptr_eq(&first, &second), "{}", q.command);
        assert_eq!(first.decode(), cold(q), "{}", q.command);
        assert_eq!(off.cached_artifacts(), 0, "{}", q.command);
    }
    assert_eq!(off.cache_stats().lookups(), 0);
}

/// A failing answer is stored like any other: a racy `check` repeated is
/// served from the `reply` entry with the same failure and stdout.
#[test]
fn a_racy_check_is_answered_from_its_stored_reply() {
    for format in [Format::Human, Format::Json] {
        let q = query("check", "racy.ms", RACY, format);
        let mut session = AnalysisSession::new();
        let first = execute(&mut session, &q);
        assert!(first
            .failure
            .as_deref()
            .is_some_and(|f| f.starts_with("check failed")));
        let stats = session.cache_stats();
        let again = execute(&mut session, &q);
        assert_eq!(session.cache_stats().since(stats).lookups(), 1);
        assert_eq!(session.kind_counters().get("reply").hits, 1);
        assert_eq!(again.failure, first.failure);
        assert_eq!(again.stdout, first.stdout);
        assert_eq!(again, cold(&q));
    }
}

/// A sharded run neither reads nor writes the `sim` artifact: on a
/// session that already simulated the program sequentially, its report
/// is a fresh session's, whose engine counters differ from the
/// sequential run's.
#[test]
fn a_sharded_run_and_a_sequential_run_have_their_own_replies() {
    let config = MachineConfig::cm5(4);
    let kernel = &all_kernels(4)[0];
    let sequential = SessionOptions {
        procs: Some(4),
        ..SessionOptions::default()
    };
    let sharded = SessionOptions {
        sim_shards: 2,
        ..sequential
    };
    let report = |session: &mut AnalysisSession, opts: &SessionOptions| {
        let run = session.run(&kernel.source, opts, &config).unwrap();
        Value::parse(&run.report().to_json()).unwrap()
    };
    let work = |report: &Value| report.get("sim").and_then(|s| s.get("work")).cloned();
    let fresh = report(&mut AnalysisSession::new(), &sharded);
    let mut session = AnalysisSession::new();
    let seq = report(&mut session, &sequential);
    assert_ne!(work(&seq), work(&fresh), "{seq} vs {fresh}");
    let warm = report(&mut session, &sharded);
    assert_eq!(warm.to_string(), fresh.to_string());
    let kinds = session.kind_counters();
    assert_eq!(kinds.get("sim").hits, 0, "{kinds:?}");
    assert_eq!(kinds.get("sim").misses, 1, "{kinds:?}");
}

#[test]
fn reformatted_source_still_hits_the_canonical_cfg_keys() {
    let config = syncopt::MachineConfig::cm5(4);
    let opts = SessionOptions::default();
    for kernel in all_kernels(4) {
        let mut session = AnalysisSession::new();
        let first = session.run(&kernel.source, &opts, &config).unwrap();
        let reformatted = format!("// moved\n{}\n\n// trailing\n", kernel.source);
        let before = session.kind_counters();
        let second = session.run(&reformatted, &opts, &config).unwrap();
        // Raw-text keys miss; the keys derived from the canonical text of
        // a CFG — memoized on artifacts built from *different* text — and
        // the per-function check key hit: the program is neither analyzed,
        // optimized nor simulated again.
        assert_eq!(
            kind_delta(&before, &session.kind_counters()),
            "cfg 0/1, analysis 1/0, opt 1/0, sim 1/0",
            "{}",
            kernel.name
        );
        assert_eq!(first.sim.memory, second.sim.memory, "{}", kernel.name);
        assert_eq!(first.report().sim, second.report().sim, "{}", kernel.name);
    }
}

/// The same program under a leading comment, blank lines and a trailing
/// comment: every raw-text key misses, every span moves.
fn reformatted(source: &str) -> String {
    format!("// moved\n\n{source}\n\n// trailing\n")
}

/// A reformatted source is not optimized again, and what the session hands
/// out for it is what a cold compile of *that* text produces — the spans
/// of the optimized CFG's access sites included, although the optimized
/// program it shares was built from a text with other offsets.
#[test]
fn reformatted_source_compiles_to_the_cold_result_without_reoptimizing() {
    let mut programs: Vec<(String, String)> = all_kernels(4)
        .into_iter()
        .map(|k| (k.name.to_string(), k.source))
        .collect();
    programs.extend((0..CORPUS_SEEDS).map(|seed| (format!("corpus-{seed}"), corpus_program(seed))));
    assert_eq!(programs.len(), 225);

    let opts = SessionOptions {
        procs: Some(4),
        ..SessionOptions::default()
    };
    let mut session = AnalysisSession::new();
    for (name, source) in &programs {
        session.compile(source, &opts).unwrap();
        let text = reformatted(source);
        let before = session.kind_counters();
        let warm = session.compile(&text, &opts).unwrap();
        assert_eq!(
            kind_delta(&before, &session.kind_counters()),
            "cfg 0/1, analysis 1/0, opt 1/0",
            "{name}"
        );
        let cold = Syncopt::new(&text).procs(4).compile().unwrap();
        assert_eq!(warm.optimized.cfg, cold.optimized.cfg, "{name}");
        assert_eq!(warm.optimized.stats, cold.optimized.stats, "{name}");
        assert_eq!(warm.optimized.level, cold.optimized.level, "{name}");
        assert_eq!(warm.source_cfg, cold.source_cfg, "{name}");
        assert_eq!(warm.report, cold.report, "{name}");
        // The comparison above is not vacuous: the sites have real spans,
        // and they are not the first text's.
        let first = session.compile(source, &opts).unwrap();
        for (id, info) in warm.optimized.cfg.accesses.iter() {
            assert!(!info.span.is_empty(), "{name}: {id} has no span");
            assert_ne!(
                info.span,
                first.optimized.cfg.accesses.info(id).span,
                "{name}: {id} kept the other text's span"
            );
        }
    }
}

/// Pairs of programs that differ **only** in a declaration — or, the
/// last two, in whether a constant is a float. The printed blocks of their
/// CFGs are the same text; the programs are not the same.
const SAME_PRINT_PAIRS: [(&str, &str, &str); 7] = [
    (
        "shared-array length",
        "shared int A[8]; fn main() { A[MYPROC + 4] = 1; barrier; }",
        "shared int A[4]; fn main() { A[MYPROC + 4] = 1; barrier; }",
    ),
    (
        "flag-array length",
        "flag F[8]; shared int X; fn main() { post F[MYPROC + 4]; wait F[MYPROC + 4]; X = 1; }",
        "flag F[4]; shared int X; fn main() { post F[MYPROC + 4]; wait F[MYPROC + 4]; X = 1; }",
    ),
    (
        "local-array length",
        "shared int X[4]; fn main() { int a[8]; a[MYPROC + 4] = 7; X[MYPROC] = a[MYPROC + 4]; }",
        "shared int X[4]; fn main() { int a[4]; a[MYPROC + 4] = 7; X[MYPROC] = a[MYPROC + 4]; }",
    ),
    (
        "shared element type",
        "shared int A[4]; shared double B[4]; fn main() { B[MYPROC] = (A[MYPROC] + 7) / 2; }",
        "shared double A[4]; shared double B[4]; fn main() { B[MYPROC] = (A[MYPROC] + 7) / 2; }",
    ),
    (
        "local element type",
        "shared double B[4]; fn main() { int t[2]; B[MYPROC] = (t[1] + 7) / 2; }",
        "shared double B[4]; fn main() { double t[2]; B[MYPROC] = (t[1] + 7) / 2; }",
    ),
    (
        "float or integer constant",
        "shared double B[4]; fn main() { int t; t = MYPROC; B[MYPROC] = (t + 1.0) / 2; }",
        "shared double B[4]; fn main() { int t; t = MYPROC; B[MYPROC] = (t + 1) / 2; }",
    ),
    (
        "which constant is the float",
        "shared double B[4]; fn main() { int t; t = MYPROC; B[MYPROC] = (t + 1.0) / 2 * 10 + (t + 1) / 2; }",
        "shared double B[4]; fn main() { int t; t = MYPROC; B[MYPROC] = (t + 1) / 2 * 10 + (t + 1.0) / 2; }",
    ),
];

/// A warm session that has seen one program of a pair answers every
/// command about the other exactly as a fresh session does — stdout and
/// failure — in both orders. Before the canonical text carried
/// declarations, `run` of `A[4]` after `A[8]` reported the eight-element
/// memory of the first program instead of the out-of-bounds store.
#[test]
fn programs_whose_blocks_print_alike_do_not_share_artifacts() {
    let commands = |source: &str| -> Vec<Query> {
        ["run", "analyze", "opt", "check", "profile"]
            .into_iter()
            .flat_map(|command| {
                [Format::Human, Format::Json].map(|format| Query {
                    dump: command == "opt",
                    ..query(command, "decl.ms", source, format)
                })
            })
            .collect()
    };
    let mut differing_answers = 0;
    for (what, a, b) in SAME_PRINT_PAIRS {
        for (first, second) in [(a, b), (b, a)] {
            let mut session = AnalysisSession::new();
            for q in commands(first) {
                execute(&mut session, &q);
            }
            for q in commands(second) {
                let fresh = cold(&q);
                assert_eq!(
                    execute(&mut session, &q),
                    fresh,
                    "{what}: `{}` of `{second}` on a session that served `{first}`",
                    q.command
                );
                if q.command == "run" && q.format == Format::Human {
                    let other = Query {
                        source: Some(first.to_string()),
                        ..q.clone()
                    };
                    differing_answers += usize::from(cold(&other) != fresh);
                }
            }
        }
    }
    // Each pair is a real one: the two programs run to different answers.
    assert_eq!(differing_answers, 2 * SAME_PRINT_PAIRS.len());

    // The reproducer, spelled out.
    let (_, eight, four) = SAME_PRINT_PAIRS[0];
    let mut session = AnalysisSession::new();
    let ok = execute(&mut session, &query("run", "decl.ms", eight, Format::Human));
    assert!(ok.failure.is_none(), "{ok:?}");
    assert!(ok.stdout.contains("A = [0, 0, 0, 0, 1, 1, 1, 1]"), "{ok:?}");
    let failed = execute(&mut session, &query("run", "decl.ms", four, Format::Human));
    assert_eq!(
        failed.failure.as_deref(),
        Some("simulation error: shared store out of bounds: v0[7]")
    );
}

/// Everything a caller can read off a compile, as one comparable value:
/// the report text (timings are zero with tracing off), the optimized CFG
/// text, the analysis summary and work counters, and the span of every
/// access site of the optimized program.
fn observable(c: &Compiled) -> (String, String, String, Vec<(u32, u32)>) {
    assert!(!c.report.timings.enabled());
    (
        c.report.to_json().to_string(),
        cfg_to_string(&c.optimized.cfg),
        format!("{:?} {:?}", c.analysis.stats(), c.analysis.metrics),
        c.optimized
            .cfg
            .accesses
            .iter()
            .map(|(_, info)| (info.span.start, info.span.end))
            .collect(),
    )
}

/// The builder's `compile` / `run` use a session whose cache is disabled
/// and derive no cache key; a cold session derives and stores them all; a
/// warm one is served from them. All three are the same pipeline and must
/// not differ in anything a caller can observe.
#[test]
fn the_uncached_builder_a_cold_session_and_a_warm_one_agree_on_everything() {
    let mut programs: Vec<(String, String, Option<u32>)> = Vec::new();
    for draw in 1..=220 {
        for procs in [None, Some(2), Some(4), Some(8)] {
            programs.push((format!("corpus {draw}"), corpus_program(draw), procs));
        }
    }
    for procs in [16, 64] {
        for kernel in all_kernels(procs) {
            programs.push((kernel.name.to_string(), kernel.source, Some(procs)));
        }
    }
    let mut simulated = 0;
    for (name, src, procs) in &programs {
        for level in [OptLevel::Blocking, OptLevel::Full] {
            let at = format!("{name} procs {procs:?} {level:?}");
            let opts = SessionOptions {
                procs: *procs,
                level,
                ..SessionOptions::default()
            };
            let mut builder = Syncopt::new(src).level(level);
            if let Some(p) = procs {
                builder = builder.procs(*p);
            }
            let mut session = AnalysisSession::new();
            let uncached = observable(&builder.compile().expect("compiles"));
            let cold = observable(&session.compile(src, &opts).expect("compiles"));
            let before = session.cache_stats();
            assert!(before.misses > 0, "{at}");
            let warm = observable(&session.compile(src, &opts).expect("compiles"));
            assert_eq!(session.cache_stats().since(before).misses, 0, "{at}");
            assert_eq!(uncached, cold, "{at}: builder vs cold session");
            assert_eq!(cold, warm, "{at}: cold vs warm session");

            // Simulating a kernel at 64 processors three times over is
            // slow in a debug build and adds no new path.
            let Some(p) = procs.filter(|&p| p <= 16) else {
                continue;
            };
            let config = MachineConfig::cm5(p);
            // A random corpus program may deadlock: then the three must
            // fail alike (errors are never cached).
            let run = |r: Result<syncopt::RunResult, syncopt::SyncoptError>| {
                r.map(|r| (observable(&r.compiled), format!("{:?}", r.sim)))
                    .map_err(|e| e.to_string())
            };
            let uncached = run(builder.run(&config));
            let cold = run(AnalysisSession::new().run(src, &opts, &config));
            // `session` holds the compile artifacts: only `sim` misses.
            let half_warm = run(session.run(src, &opts, &config));
            let before = session.cache_stats();
            let warm = run(session.run(src, &opts, &config));
            assert_eq!(uncached, cold, "{at}: builder vs cold session, run");
            assert_eq!(cold, half_warm, "{at}: cold vs half-warm session, run");
            assert_eq!(cold, warm, "{at}: cold vs warm session, run");
            if warm.is_ok() {
                assert_eq!(session.cache_stats().since(before).misses, 0, "{at}");
                simulated += 1;
            }
        }
    }
    assert!(simulated > 500, "only {simulated} programs ran to the end");
}
