//! Consistency properties tying the race detector to the delay-set
//! analysis it is built on, checked over a deterministic corpus (the
//! sample programs plus the evaluation kernels at several machine sizes).
//!
//! The central property: a pair the detector calls *ordered by
//! precedence* must have lost a direction in the step-5 oriented
//! conflict set — i.e. it is absent from the oriented set's unordered
//! conflicts. If this ever breaks, the race check and the optimizer
//! disagree about which conflicts synchronization covers.

use syncopt::core::analyze_with;
use syncopt::core::races::{classify_races, Confidence, SyncEvidence};
use syncopt::core::sync::SyncOptions;
use syncopt::frontend::prepare_program;
use syncopt::ir::cfg::Cfg;
use syncopt::ir::lower::lower_main;

fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
    let mut entries: Vec<_> = std::fs::read_dir(root)
        .expect("programs/ should exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ms"))
        .collect();
    entries.sort();
    for path in entries {
        out.push((
            path.file_name().unwrap().to_string_lossy().into_owned(),
            std::fs::read_to_string(&path).unwrap(),
        ));
    }
    for procs in [2, 4, 8] {
        for k in syncopt::kernels::all_kernels(procs) {
            out.push((format!("{}@{procs}", k.name), k.source));
        }
    }
    out
}

fn lower(src: &str) -> Cfg {
    lower_main(&prepare_program(src).expect("corpus parses")).expect("corpus lowers")
}

#[test]
fn ordered_pairs_are_absent_from_oriented_unordered_conflicts() {
    for (name, src) in corpus() {
        let cfg = lower(&src);
        for procs in [None, Some(4), Some(8)] {
            let opts = SyncOptions {
                procs,
                ..SyncOptions::default()
            };
            let analysis = analyze_with(&cfg, &opts);
            let sync = &analysis.sync;
            let races = classify_races(&cfg, &analysis, &opts);
            for o in &races.ordered {
                if let SyncEvidence::Precedence { first, second, .. } = o.evidence {
                    // Step 5 must have dropped the direction precedence
                    // forbids, so the pair is no longer bidirectional in
                    // the oriented conflict set.
                    assert!(
                        !sync.oriented.edge(second, first),
                        "{name} (procs {procs:?}): step 5 should have dropped \
                         the {second}->{first} direction of pair {:?}",
                        o.pair
                    );
                    let (a, b) = o.pair;
                    assert!(
                        !(sync.oriented.edge(a, b) && sync.oriented.edge(b, a)),
                        "{name} (procs {procs:?}): precedence-ordered pair \
                         {:?} kept both directions after orientation",
                        o.pair
                    );
                }
            }
        }
    }
}

#[test]
fn races_and_ordered_partition_the_data_conflicts() {
    for (name, src) in corpus() {
        let cfg = lower(&src);
        let opts = SyncOptions::default();
        let analysis = analyze_with(&cfg, &opts);
        let races = classify_races(&cfg, &analysis, &opts);
        let data_pairs: Vec<_> = analysis
            .conflicts
            .unordered_pairs()
            .into_iter()
            .filter(|&(a, b)| {
                cfg.accesses.info(a).kind.is_data() && cfg.accesses.info(b).kind.is_data()
            })
            .collect();
        let mut classified: Vec<_> = races
            .races
            .iter()
            .map(|r| r.pair)
            .chain(races.ordered.iter().map(|o| o.pair))
            .collect();
        classified.sort();
        let mut expected = data_pairs;
        expected.sort();
        assert_eq!(classified, expected, "{name}");
    }
}

#[test]
fn kernels_are_race_free_at_every_machine_size() {
    for procs in [2, 4, 8, 16] {
        for k in syncopt::kernels::all_kernels(procs) {
            let cfg = lower(&k.source);
            let opts = SyncOptions {
                procs: Some(procs),
                ..SyncOptions::default()
            };
            let races = classify_races(&cfg, &analyze_with(&cfg, &opts), &opts);
            assert!(races.race_free(), "{}@{procs}: {:?}", k.name, races.races);
        }
    }
}

#[test]
fn proven_races_only_in_sync_free_programs() {
    for (name, src) in corpus() {
        let cfg = lower(&src);
        let races = syncopt::core::detect_races(&cfg, &SyncOptions::default());
        let has_sync = cfg.accesses.iter().any(|(_, i)| i.kind.is_sync());
        for r in &races.races {
            if has_sync {
                assert_eq!(r.confidence, Confidence::UnprovenOrdered, "{name}: {r:?}");
            } else {
                assert_eq!(r.confidence, Confidence::ProvenRacy, "{name}: {r:?}");
            }
        }
    }
}
