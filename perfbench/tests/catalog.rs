//! The metric catalogue obeys the benchmark-file grammar, every
//! per-layer metric says what it should move, and `BENCHMARK.json`
//! matches the catalogue.

use std::collections::HashSet;

use oocp_obs::json::{parse, Json};
use oocp_perfbench::catalog::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Metrics whose value is a report, not something a change should move.
const REPORT_ONLY: [&str; 3] = ["trace.run_s", "trace.overhead_frac", "host.calib_s"];

#[test]
fn names_and_units_follow_the_grammar_and_are_unique() {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let mut seen = HashSet::new();
    for n in &names {
        assert!(is_name(n), "bad name {n:?}");
        assert!(seen.insert(*n), "name {n:?} used twice");
    }
    for u in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(is_unit(u), "bad unit {u:?}");
    }
    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why",
            w.name
        );
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
}

#[test]
fn bounds_are_in_range_and_setup_has_the_largest() {
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    for m in &END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
        assert!(
            m.bound <= setup.bound,
            "{} has a larger bound than setup_s",
            m.name
        );
    }
}

#[test]
fn every_layer_metric_declares_what_it_moves() {
    let e2e: HashSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let workloads: HashSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for m in &PER_LAYER {
        if REPORT_ONLY.contains(&m.name) {
            assert!(m.moves.is_empty(), "{} is report-only", m.name);
            continue;
        }
        assert!(!m.moves.is_empty(), "{} moves nothing", m.name);
        for (metric, on) in m.moves {
            assert!(
                e2e.contains(metric),
                "{}: {metric} is not end-to-end",
                m.name
            );
            assert!(!on.is_empty(), "{}: moves {metric} on no workload", m.name);
            for w in *on {
                assert!(workloads.contains(w), "{}: unknown workload {w}", m.name);
            }
        }
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let text = include_str!("../../BENCHMARK.json");
    assert_eq!(
        text,
        benchmark_json(),
        "regenerate BENCHMARK.json from the catalogue"
    );
    let j = parse(text).expect("BENCHMARK.json parses");
    let Json::Obj(fields) = &j else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(text.len() <= 64 * 1024);
}
