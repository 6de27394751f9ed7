//! Tiny-size runs of every workload, untraced and traced, plus the
//! checks that must catch a wrong result.

use std::process::Command;

use oocp_bench::Mode;
use oocp_nas::App;
use oocp_perfbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use oocp_perfbench::cells::{CellRun, RunTimes, Scale, SetupTimes, Sim};
use oocp_perfbench::run::{cell_problems, run, Options, Report};

fn tiny(workload: &str, trace: bool) -> Report {
    run(&Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    })
    .expect("known workload")
}

/// One test runs every workload in turn: host times are process CPU
/// time, which counts every thread, so these runs must not overlap.
#[test]
fn every_workload_runs_correct_untraced_and_traced() {
    for w in &WORKLOADS {
        let r = tiny(w.name, false);
        assert!(r.correct(), "{}: {:?}", w.name, r.checks.problems);
        assert!(r.checks.attempted >= 2, "{}: two passes at least", w.name);
        for m in &END_TO_END {
            let v = r.metrics[m.name];
            assert!(v.is_finite() && v > 0.0, "{}: {} = {v}", w.name, m.name);
        }

        let r = tiny(w.name, true);
        assert!(r.correct(), "{} traced: {:?}", w.name, r.checks.problems);
        for m in &PER_LAYER {
            let v = r.metrics.get(m.name).copied().unwrap_or(0.0);
            assert!(v.is_finite() && v >= 0.0, "{}: {} = {v}", w.name, m.name);
        }
        assert!(r.metrics["ir.ops"] > 0.0, "{}: ir.ops", w.name);
        // The traced host times partition the traced measured phase.
        let parts: &[&str] = if w.name == "tenants-2" {
            &["hub.run_s", "nas.verify_s"]
        } else {
            &[
                "ir.self_s",
                "os.touch_hit_s",
                "os.touch_fault_s",
                "rt.filtered_s",
                "rt.hint_call_s",
                "os.finish_s",
                "nas.verify_s",
            ]
        };
        let sum: f64 = parts.iter().map(|p| r.metrics[p]).sum();
        let total = r.metrics["trace.run_s"];
        assert!(
            (sum - total).abs() <= 1e-3 * total,
            "{}: parts {sum} != trace.run_s {total}",
            w.name
        );
    }
}

fn cell(mode: Mode, checksum: u64, elapsed_ns: u64) -> CellRun {
    CellRun {
        app: App::Buk,
        mode,
        sim: Sim {
            checksum,
            elapsed_ns,
            ..Sim::default()
        },
        ledger: None,
        setup: SetupTimes::default(),
        run: RunTimes::default(),
        failure: None,
    }
}

#[test]
fn checks_catch_nondeterminism_checksum_and_trajectory_mismatches() {
    // The recorded BUK cells of the trajectory pass.
    let o = cell(Mode::Original, 0x2658_f853_99a7_01e6, 17_078_075_720);
    let p = cell(Mode::Prefetch, 0x2658_f853_99a7_01e6, 8_208_192_362);
    let pass = vec![o.clone(), p.clone()];
    assert!(cell_problems(&p, &pass, Some(&p.sim), true).is_empty());

    // A repeat whose simulated time moved.
    let moved = cell(Mode::Prefetch, p.sim.checksum, p.sim.elapsed_ns + 1);
    assert_eq!(cell_problems(&moved, &pass, Some(&p.sim), false).len(), 1);
    // A prefetching run that computed different data.
    let wrong = cell(Mode::Prefetch, 1, p.sim.elapsed_ns);
    let pass = vec![o, wrong.clone()];
    assert_eq!(cell_problems(&wrong, &pass, None, false).len(), 1);
    // Both, and off the trajectory.
    assert_eq!(cell_problems(&wrong, &pass, Some(&p.sim), true).len(), 3);
    // A verifier failure.
    let failed = CellRun {
        failure: Some("bad".into()),
        ..p.clone()
    };
    assert_eq!(
        cell_problems(&failed, std::slice::from_ref(&failed), None, false).len(),
        1
    );
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_oocp-perfbench");
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "paper-2x", "--trace", "2"],
        vec!["--seed", "x"],
        vec!["--workload", "paper-2x", "--seconds", "NaN"],
        vec![],
    ] {
        let out = Command::new(bin).args(&args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
