//! Determinism: given the same seed and configuration, every run of the
//! full stack is bit-identical — the property the whole experiment
//! methodology rests on.

use oocp::ir::{Executor, Step};
use oocp::rt::{FilterMode, Runtime, TenantHub, TenantProgram};
use oocp_bench::tenants::{platform, seed_of, tenant_spec, tenant_workload};
use oocp_bench::{run_workload, Config, Mode};
use oocp_nas::{build, App};

fn fingerprint(cfg: &Config, app: App, mode: Mode) -> (u64, u64, u64, u64, u64) {
    let w = build(app, cfg.bytes_for_ratio(2.0));
    let r = run_workload(&w, cfg, mode);
    (
        r.total(),
        r.os.hard_faults,
        r.os.prefetch_pages_issued,
        r.disk.requests(),
        r.rt.prefetch_ops,
    )
}

#[test]
fn same_seed_same_everything() {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(2 * 1024 * 1024);
    for app in [App::Buk, App::Fft] {
        for mode in [Mode::Original, Mode::Prefetch] {
            let a = fingerprint(&cfg, app, mode);
            let b = fingerprint(&cfg, app, mode);
            assert_eq!(a, b, "{app:?} {mode:?} not deterministic");
        }
    }
}

#[test]
fn different_seed_different_data_same_shape() {
    let mut cfg1 = Config::default_platform();
    cfg1.machine = cfg1.machine.with_memory_bytes(2 * 1024 * 1024);
    let mut cfg2 = cfg1;
    cfg2.seed = cfg1.seed + 1;
    let a = fingerprint(&cfg1, App::Buk, Mode::Prefetch);
    let b = fingerprint(&cfg2, App::Buk, Mode::Prefetch);
    // Different keys: timing differs slightly...
    assert_ne!(a.0, b.0, "different seeds should not collide exactly");
    // ...but the shape is stable: within 10% on every counter.
    let close = |x: u64, y: u64| {
        let (x, y) = (x as f64, y as f64);
        (x - y).abs() <= 0.1 * x.max(y)
    };
    assert!(close(a.0, b.0), "total time: {} vs {}", a.0, b.0);
    assert!(close(a.1, b.1), "faults: {} vs {}", a.1, b.1);
    assert!(close(a.3, b.3), "disk requests: {} vs {}", a.3, b.3);
}

#[test]
fn fault_wait_statistics_are_populated() {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(2 * 1024 * 1024);
    let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
    let o = run_workload(&w, &cfg, Mode::Original);
    let p = run_workload(&w, &cfg, Mode::Prefetch);
    assert_eq!(o.os.fault_wait.count(), o.os.hard_faults);
    // Original waits the full disk latency; prefetched residuals are
    // far smaller on average.
    assert!(o.os.fault_wait.mean() > 1e6, "original mean wait >= 1ms");
    // Per-fault waits need not shrink (the sequential extent layout
    // already makes each original read cheap); the *total* stall —
    // count x mean — must collapse.
    let total = |s: &oocp::os::OsStats| s.fault_wait.count() as f64 * s.fault_wait.mean();
    assert!(
        total(&p.os) < 0.2 * total(&o.os),
        "prefetching must collapse total fault wait: {} vs {}",
        total(&p.os),
        total(&o.os)
    );
}

/// VM calls per hub slice ([`TenantHub`] switches tenants every 256).
const SLICE: u64 = 256;

/// The co-scheduling hub is as reproducible as a solo run: the same
/// three tenants, one killed exactly on a slice boundary, run twice.
#[test]
fn co_scheduled_hub_is_deterministic() {
    let cfg = platform();
    let (w, prog) = tenant_workload(&cfg);
    let run = || {
        let programs = (0..3)
            .map(|t| {
                let p = TenantProgram::new(prog.clone(), w.param_values.clone())
                    .with_spec(tenant_spec(&cfg, t));
                if t == 1 {
                    p.with_kill_at(2 * SLICE)
                } else {
                    p
                }
            })
            .collect();
        let mut hub = TenantHub::new(cfg.machine, programs)
            .expect("canonical platform is valid")
            .with_cost(cfg.cost);
        for t in 0..3 {
            let binds = hub.binds(t).to_vec();
            w.init(&binds, &mut hub.data(), seed_of(&cfg, t));
        }
        hub.run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.elapsed_ns, b.elapsed_ns);
    for (t, (x, y)) in a.tenants.iter().zip(&b.tenants).enumerate() {
        assert_eq!(x.checksum, y.checksum, "tenant {t} checksum");
        assert_eq!(x.finished_at, y.finished_at, "tenant {t} finish");
        assert_eq!(
            x.demand_stall_p95_ns, y.demand_stall_p95_ns,
            "tenant {t} p95"
        );
        assert_eq!(x.demand_stalls, y.demand_stalls, "tenant {t} stalls");
        assert_eq!(x.rt, y.rt, "tenant {t} run-time counters");
        assert_eq!(x.killed, t == 1, "tenant {t} kill flag");
    }
    let victim = a.tenants[1].finished_at;
    assert!(
        a.tenants.iter().all(|t| t.finished_at >= victim),
        "the victim stops at its kill, before any survivor finishes"
    );
}

/// A tenant killed after `k` VM calls finishes at the clock of its
/// kill: alone on the machine, exactly where a [`Runtime`] stands after
/// an executor has made the same `k` calls.
#[test]
fn killed_tenant_finishes_at_the_clock_of_its_kill() {
    let cfg = platform();
    let (w, prog) = tenant_workload(&cfg);
    let kill_at = 2 * SLICE;
    let program = TenantProgram::new(prog.clone(), w.param_values.clone()).with_kill_at(kill_at);
    let mut hub = TenantHub::new(cfg.machine, vec![program])
        .expect("canonical platform is valid")
        .with_cost(cfg.cost);
    let binds = hub.binds(0).to_vec();
    w.init(&binds, &mut hub.data(), seed_of(&cfg, 0));
    let hub = hub.run();
    assert!(hub.tenants[0].killed);

    let (mut rt, binds) = Runtime::for_program(cfg.machine, &prog, FilterMode::Enabled);
    w.init(&binds, &mut rt, seed_of(&cfg, 0));
    let mut exec = Executor::new(&prog, &binds, &w.param_values, cfg.cost);
    assert_eq!(exec.step(&mut rt, kill_at), Step::Yield);
    assert_eq!(exec.calls(), kill_at);
    assert_eq!(hub.tenants[0].finished_at, rt.machine().now());
    assert_eq!(hub.tenants[0].rt, *rt.stats());
}
