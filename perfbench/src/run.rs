//! One benchmark run: set up, measure whole passes until the time
//! budget is spent, check every output, and reduce to metrics.
//!
//! A *pass* runs every cell of the workload once. An untraced run
//! reports the end-to-end metrics; a traced run alternates untraced and
//! traced passes and reports the per-layer metrics. Every cell run of
//! every pass is checked and counted as attempted; one that fails any
//! check counts as failed. The end-to-end host times are scaled to the
//! reference host's speed by probes taken alongside the work (see
//! [`crate::host::probe_s`]).

use std::collections::BTreeMap;
use std::time::Instant;

use oocp_bench::Mode;

use crate::bench7;
use crate::catalog::{END_TO_END, PER_LAYER};
use crate::cells::{prepare, run_cell, CellRun, Ledger, Scale, SetupTimes, Sim, Suite};
use crate::host::{geomean, median, peak_rss_mb, probe_s, scaled};
use crate::hub::{HubRun, HubSuite};
use crate::traced::VmTimes;

/// Set-up-only rounds before the measured passes; `setup_s` is the
/// median over these and the passes' own set-ups.
const SETUP_ROUNDS: usize = 5;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (see [`crate::catalog::WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Time budget for the measured passes, seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
}

/// Runs attempted and failed, with what went wrong.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// Every failed check, naming its run.
    pub problems: Vec<String>,
}

impl Checks {
    /// Count one run; it failed if `problems` is non-empty.
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }
}

/// A finished run: its checks and its metrics, by catalogue name.
#[derive(Clone, Debug)]
pub struct Report {
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Whether the metrics are the per-layer set.
    pub traced: bool,
    /// Median CPU seconds of the probe loop over the run.
    pub probe_s: f64,
}

impl Report {
    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of the run's set, with its unit, in catalogue order.
    pub fn json(&self) -> String {
        let units: Vec<(&str, &str)> = if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics: Vec<String> = units
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number: every digit Rust's shortest round-trip form has; a
/// non-finite value (which no metric should produce) becomes 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Run the benchmark. `Err` names an unknown workload.
pub fn run(o: &Options) -> Result<Report, String> {
    match o.workload.as_str() {
        "paper-2x" => Ok(single(
            o,
            &Suite::paper_2x(o.seed, o.scale),
            o.seed == bench7::SEED && o.scale == Scale::Full,
        )),
        "incore-warm" => Ok(single(o, &Suite::incore_warm(o.seed, o.scale), false)),
        "tenants-2" => Ok(tenants(o, &HubSuite::tenants_2(o.seed, o.scale))),
        w => Err(format!("unknown workload {w:?}")),
    }
}

/// Whether the pass loop may stop: the budget is spent, there are two
/// passes to compare, and a traced run has its traced pass.
fn enough(o: &Options, start: Instant, plain: usize, traced: usize) -> bool {
    start.elapsed().as_secs_f64() >= o.seconds && plain + traced >= 2 && (!o.trace || traced >= 1)
}

fn setup_sum(v: impl IntoIterator<Item = SetupTimes>) -> SetupTimes {
    v.into_iter()
        .fold(SetupTimes::default(), |a, s| SetupTimes {
            build_s: a.build_s + s.build_s,
            compile_s: a.compile_s + s.compile_s,
            os_s: a.os_s + s.os_s,
            init_s: a.init_s + s.init_s,
        })
}

/// Median of one field over the set-up rounds.
fn setup_median(rounds: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&mut rounds.iter().map(f).collect::<Vec<_>>())
}

/// One pass of a single-program workload: its cell runs and the median
/// probe taken between them.
struct Pass {
    cells: Vec<CellRun>,
    probe_s: f64,
}

impl Pass {
    /// Host seconds of the measured phase, raw.
    fn run_s(&self) -> f64 {
        self.cells.iter().map(|r| r.run.run_s).sum()
    }
}

/// `paper-2x` and `incore-warm`.
fn single(o: &Options, suite: &Suite, check_bench7: bool) -> Report {
    let cells = suite.cells();
    let mut checks = Checks::default();
    let mut probes: Vec<f64> = Vec::new();
    let mut setups: Vec<SetupTimes> = Vec::new();
    // Set-up totals at the reference speed, for `setup_s`.
    let mut setup_ref: Vec<f64> = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let probe = probe_s();
        let s = setup_sum(
            cells
                .iter()
                .map(|&(a, m)| prepare(suite, a, m, false).setup),
        );
        probes.push(probe);
        setup_ref.push(scaled(s.total(), probe));
        setups.push(s);
    }

    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut reference: Vec<Sim> = Vec::new();
    while !enough(o, start, plain.len(), traced.len()) {
        let trace_this = o.trace && plain.len() > traced.len();
        // A probe before the first cell and after every cell.
        let mut around = vec![probe_s()];
        let pass: Vec<CellRun> = cells
            .iter()
            .map(|&(a, m)| {
                let r = run_cell(suite, a, m, trace_this);
                around.push(probe_s());
                r
            })
            .collect();
        probes.extend(&around);
        let probe = median(&mut around);
        let setup = setup_sum(pass.iter().map(|r| r.setup));
        setup_ref.push(scaled(setup.total(), probe));
        setups.push(setup);
        for (i, r) in pass.iter().enumerate() {
            let problems = cell_problems(r, &pass, reference.get(i), check_bench7);
            checks.record(&format!("{} {}", r.app.name(), r.mode.label()), problems);
        }
        if reference.is_empty() {
            reference = pass.iter().map(|r| r.sim).collect();
            for r in &pass {
                println!(
                    "{:<6} {:<2} sim {:>9.3} s  host run {:.3} s  setup {:.4} s",
                    r.app.name(),
                    r.mode.label(),
                    r.sim.elapsed_ns as f64 * 1e-9,
                    r.run.run_s,
                    r.setup.total()
                );
            }
        }
        let pass = Pass {
            cells: pass,
            probe_s: probe,
        };
        if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
    }

    let ref_total = |p: &Pass| scaled(p.run_s(), p.probe_s);
    let mut metrics = BTreeMap::new();
    if o.trace {
        // The traced pass with the median measured phase.
        let mut order: Vec<usize> = (0..traced.len()).collect();
        order.sort_by(|&a, &b| ref_total(&traced[a]).total_cmp(&ref_total(&traced[b])));
        let traced_pass = &traced[order[order.len() / 2]];
        let plain_run = median(&mut plain.iter().map(ref_total).collect::<Vec<_>>());
        let pass = &traced_pass.cells;
        let mut vm = VmTimes::default();
        for r in pass {
            vm.merge(&r.run.vm.expect("traced runs carry VM times"));
        }
        let host = HostSplit {
            run_s: traced_pass.run_s(),
            program_s: pass.iter().map(|r| r.run.program_s).sum(),
            finish_s: pass.iter().map(|r| r.run.finish_s).sum(),
            verify_s: pass.iter().map(|r| r.run.verify_s).sum(),
            ops: pass.iter().map(|r| r.sim.ops).sum(),
            vm,
        };
        if let Some(p) = host.problem() {
            checks.record("trace partition", vec![p]);
        }
        host.insert(&mut metrics);
        let p_runs = pass.iter().filter(|r| r.mode == Mode::Prefetch);
        insert_sim(&mut metrics, p_runs.map(|r| (&r.sim, r.ledger.as_ref())));
        insert_setup(&mut metrics, &setups);
        metrics.insert("trace.run_s", host.run_s);
        metrics.insert("trace.overhead_frac", ref_total(traced_pass) / plain_run);
    } else {
        let run_s: f64 = (0..cells.len())
            .map(|i| {
                median(
                    &mut plain
                        .iter()
                        .map(|p| scaled(p.cells[i].run.run_s, p.probe_s))
                        .collect::<Vec<_>>(),
                )
            })
            .sum();
        metrics.insert("run_s", run_s);
        metrics.insert("setup_s", median(&mut setup_ref));
        metrics.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        // Cells come in (O, P) pairs, one per kernel.
        let pairs: Vec<(f64, f64)> = reference
            .chunks(2)
            .map(|c| (c[0].elapsed_ns as f64, c[1].elapsed_ns as f64))
            .collect();
        let speedups: Vec<f64> = pairs.iter().map(|(o, p)| o / p).collect();
        let sim_p: f64 = pairs.iter().map(|(_, p)| p).sum();
        metrics.insert("sim_s", sim_p * 1e-9);
        metrics.insert("sim_speedup", geomean(&speedups));
    }
    Report {
        checks,
        metrics,
        traced: o.trace,
        probe_s: median(&mut probes),
    }
}

/// What is wrong with cell run `r` of `pass`: its own failure, a
/// simulated difference from the first pass's run of the cell, a `P`
/// checksum that differs from the pass's `O` checksum, and, when asked,
/// a difference from the `BENCH_7` trajectory.
pub fn cell_problems(
    r: &CellRun,
    pass: &[CellRun],
    first: Option<&Sim>,
    check_bench7: bool,
) -> Vec<String> {
    let mut problems: Vec<String> = r.failure.iter().cloned().collect();
    if first.is_some_and(|f| *f != r.sim) {
        problems.push("simulated results differ from the first pass".to_string());
    }
    if r.mode == Mode::Prefetch {
        let orig = pass
            .iter()
            .find(|x| x.app == r.app && x.mode == Mode::Original);
        if let Some(orig) = orig.filter(|o| o.sim.checksum != r.sim.checksum) {
            problems.push(format!(
                "P checksum {:016x} != O checksum {:016x}",
                r.sim.checksum, orig.sim.checksum
            ));
        }
    }
    if check_bench7 {
        if let Some((elapsed, checksum)) = bench7::expected(r.app, r.mode) {
            if (r.sim.elapsed_ns, r.sim.checksum) != (elapsed, checksum) {
                problems.push(format!(
                    "elapsed {} ns / checksum {:016x} differ from BENCH_7 \
                     ({elapsed} ns / {checksum:016x})",
                    r.sim.elapsed_ns, r.sim.checksum
                ));
            }
        }
    }
    problems
}

/// `tenants-2`.
fn tenants(o: &Options, suite: &HubSuite) -> Report {
    let n = suite.tenants;
    let mut checks = Checks::default();
    let mut probes: Vec<f64> = Vec::new();
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut setup_ref: Vec<f64> = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let probe = probe_s();
        let s = suite.prepare_hub(false).setup;
        probes.push(probe);
        setup_ref.push(scaled(s.total(), probe));
        setups.push(s);
    }

    // Each tenant alone through Runtime: the reference results.
    let solos: Vec<CellRun> = (0..n).map(|t| suite.run_solo(t, false)).collect();
    for (t, s) in solos.iter().enumerate() {
        checks.record(
            &format!("solo tenant {t}"),
            s.failure.iter().cloned().collect(),
        );
    }

    let start = Instant::now();
    // Each hub run with the mean of the probes taken either side of it.
    let mut plain: Vec<(HubRun, f64)> = Vec::new();
    let mut traced: Vec<(HubRun, f64)> = Vec::new();
    while !enough(o, start, plain.len(), traced.len()) {
        let trace_this = o.trace && plain.len() > traced.len();
        let hub = suite.prepare_hub(trace_this);
        let before = probe_s();
        let r = hub.run();
        let after = probe_s();
        probes.extend([before, after]);
        let probe = (before + after) / 2.0;
        setup_ref.push(scaled(r.setup.total(), probe));
        setups.push(r.setup);
        let mut problems: Vec<String> = r.failure.iter().cloned().collect();
        for (t, (out, solo)) in r.tenants.iter().zip(&solos).enumerate() {
            if out.checksum != solo.sim.checksum {
                problems.push(format!(
                    "tenant {t} checksum {:016x} != solo {:016x}",
                    out.checksum, solo.sim.checksum
                ));
            }
        }
        if let Some((first, _)) = plain.first() {
            if first.sim != r.sim || first.tenants != r.tenants {
                problems.push("simulated results differ from the first pass".to_string());
            }
        } else {
            println!(
                "hub    {n} tenants  makespan {:.3} s  host run {:.3} s  setup {:.4} s",
                r.sim.elapsed_ns as f64 * 1e-9,
                r.run.run_s,
                r.setup.total()
            );
        }
        checks.record("hub", problems);
        if trace_this {
            traced.push((r, probe));
        } else {
            plain.push((r, probe));
        }
    }
    let ref_run = |(r, probe): &(HubRun, f64)| scaled(r.run.run_s, *probe);

    let serial: f64 = solos.iter().map(|s| s.sim.elapsed_ns as f64).sum();
    let mut metrics = BTreeMap::new();
    if o.trace {
        let mut order: Vec<usize> = (0..traced.len()).collect();
        order.sort_by(|&a, &b| ref_run(&traced[a]).total_cmp(&ref_run(&traced[b])));
        let traced_hub = &traced[order[order.len() / 2]];
        let hub = &traced_hub.0;
        let plain_run = median(&mut plain.iter().map(ref_run).collect::<Vec<_>>());

        // The solos again, traced: the ir/os/rt split of hub.solo_s.
        let mut vm = VmTimes::default();
        let mut split = HostSplit::default();
        for (t, solo) in solos.iter().enumerate() {
            let r = suite.run_solo(t, true);
            let mut problems: Vec<String> = r.failure.iter().cloned().collect();
            if r.sim != solo.sim {
                problems.push("traced simulated results differ from the untraced run".into());
            }
            checks.record(&format!("traced solo tenant {t}"), problems);
            vm.merge(&r.run.vm.expect("traced runs carry VM times"));
            split.run_s += r.run.run_s;
            split.program_s += r.run.program_s;
            split.finish_s += r.run.finish_s;
            split.verify_s += r.run.verify_s;
            split.ops += r.sim.ops;
        }
        split.vm = vm;
        if let Some(p) = split.problem() {
            checks.record("trace partition", vec![p]);
        }
        split.insert(&mut metrics);
        insert_sim(&mut metrics, [(&hub.sim, hub.ledger.as_ref())]);
        insert_setup(&mut metrics, &setups);
        // Host seconds the same tenants take alone: interpretation,
        // simulation and flush, the work TenantHub::run does.
        let solo_s: f64 = solos.iter().map(|s| s.run.program_s + s.run.finish_s).sum();
        metrics.insert("nas.verify_s", hub.run.verify_s);
        metrics.insert("hub.run_s", hub.run.program_s);
        metrics.insert("hub.solo_s", solo_s);
        metrics.insert("hub.overhead_s", hub.run.program_s - solo_s);
        metrics.insert(
            "hub.quota_evictions",
            hub.tenants.iter().map(|t| t.quota_evictions).sum::<u64>() as f64,
        );
        let ratio = hub
            .tenants
            .iter()
            .enumerate()
            .map(|(t, out)| out.p95_ns as f64 / suite.solo_hub_p95(t).max(1) as f64)
            .fold(0.0, f64::max);
        metrics.insert("hub.p95_ratio", ratio);
        let worst = hub.tenants.iter().map(|t| t.p95_ns).max().unwrap_or(0);
        metrics.insert("tenant_p95_stall_ms", worst as f64 * 1e-6);
        metrics.insert("trace.run_s", hub.run.run_s);
        metrics.insert("trace.overhead_frac", ref_run(traced_hub) / plain_run);
    } else {
        let makespan = plain[0].0.sim.elapsed_ns as f64;
        metrics.insert(
            "run_s",
            median(&mut plain.iter().map(ref_run).collect::<Vec<_>>()),
        );
        metrics.insert("setup_s", median(&mut setup_ref));
        metrics.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        metrics.insert("sim_s", makespan * 1e-9);
        metrics.insert("sim_speedup", serial / makespan);
    }
    Report {
        checks,
        metrics,
        traced: o.trace,
        probe_s: median(&mut probes),
    }
}

/// The host-time split of a traced measured phase.
#[derive(Clone, Copy, Debug, Default)]
struct HostSplit {
    run_s: f64,
    program_s: f64,
    finish_s: f64,
    verify_s: f64,
    ops: u64,
    vm: VmTimes,
}

impl HostSplit {
    /// Interpreter self time: the program's time outside VM calls.
    fn ir_self_s(&self) -> f64 {
        self.program_s - self.vm.total_ns() * 1e-9
    }

    /// The estimate cannot be right if the VM calls took longer than
    /// the program that made them.
    fn problem(&self) -> Option<String> {
        (self.ir_self_s() <= 0.0).then(|| {
            format!(
                "VM calls estimated at {:.3} s exceed the program's {:.3} s",
                self.vm.total_ns() * 1e-9,
                self.program_s
            )
        })
    }

    fn insert(&self, m: &mut BTreeMap<&'static str, f64>) {
        let v = &self.vm;
        let clock = v.clock_ns();
        let ir = self.ir_self_s();
        m.insert("ir.self_s", ir);
        m.insert("ir.ops", self.ops as f64);
        m.insert("ir.ns_per_op", ir * 1e9 / self.ops.max(1) as f64);
        for (name_s, name_ns, c) in [
            ("os.touch_hit_s", "os.touch_hit_ns", v.hit),
            ("os.touch_fault_s", "os.touch_fault_ns", v.fault),
            ("rt.filtered_s", "rt.filtered_ns", v.filtered),
            ("rt.hint_call_s", "rt.hint_call_ns", v.hint_call),
        ] {
            m.insert(name_s, c.ns(clock) * 1e-9);
            m.insert(name_ns, c.ns_per_call(clock));
        }
        m.insert("os.finish_s", self.finish_s);
        m.insert("nas.verify_s", self.verify_s);
    }
}

/// Per-layer set-up metrics: the median of each part over the rounds.
fn insert_setup(m: &mut BTreeMap<&'static str, f64>, rounds: &[SetupTimes]) {
    m.insert("nas.build_s", setup_median(rounds, |s| s.build_s));
    m.insert("core.compile_s", setup_median(rounds, |s| s.compile_s));
    m.insert("os.setup_s", setup_median(rounds, |s| s.os_s));
    m.insert("nas.init_s", setup_median(rounds, |s| s.init_s));
}

/// The simulated counters, summed over the given runs.
fn insert_sim<'a>(
    m: &mut BTreeMap<&'static str, f64>,
    runs: impl IntoIterator<Item = (&'a Sim, Option<&'a Ledger>)>,
) {
    let mut s = Sim::default();
    let mut l = Ledger::default();
    let mut util_ns = 0.0;
    for (r, ledger) in runs {
        s.elapsed_ns += r.elapsed_ns;
        s.prefetch_ops += r.prefetch_ops;
        s.ops_fully_filtered += r.ops_fully_filtered;
        s.prefetch_groups += r.prefetch_groups;
        s.covered_faults += r.covered_faults;
        s.original_faults += r.original_faults;
        s.hard_faults += r.hard_faults;
        s.prefetched_hits += r.prefetched_hits;
        s.writebacks += r.writebacks;
        s.compute_ns += r.compute_ns;
        s.demand_stall_ns += r.demand_stall_ns;
        s.late_stall_ns += r.late_stall_ns;
        s.hint_overhead_ns += r.hint_overhead_ns;
        s.fault_overhead_ns += r.fault_overhead_ns;
        util_ns += r.disk_util * r.elapsed_ns as f64;
        s.disk_blocks += r.disk_blocks;
        s.demand_wait_ns += r.demand_wait_ns;
        s.prefetch_wait_ns += r.prefetch_wait_ns;
        s.write_wait_ns += r.write_wait_ns;
        s.demand_reads += r.demand_reads;
        s.prefetch_reads += r.prefetch_reads;
        s.writes += r.writes;
        s.queue_hwm = s.queue_hwm.max(r.queue_hwm);
        if let Some(x) = ledger {
            l.entries += x.entries;
            l.timely += x.timely;
            l.late += x.late;
            l.dropped += x.dropped;
            l.evicted_unused += x.evicted_unused;
        }
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let elapsed = s.elapsed_ns;
    let ms_per = |ns: u64, n: u64| ratio(ns, n) * 1e-6;
    m.insert("rt.prefetch_ops", s.prefetch_ops as f64);
    m.insert(
        "rt.filter_ratio",
        ratio(s.ops_fully_filtered, s.prefetch_ops),
    );
    m.insert("core.coverage", ratio(s.covered_faults, s.original_faults));
    m.insert("core.prefetch_groups", s.prefetch_groups as f64);
    m.insert("os.hard_faults", s.hard_faults as f64);
    m.insert("os.prefetched_hits", s.prefetched_hits as f64);
    m.insert("os.writebacks", s.writebacks as f64);
    m.insert("os.hint_useful_ratio", ratio(l.timely, l.entries));
    m.insert("os.late", l.late as f64);
    m.insert("os.dropped", l.dropped as f64);
    m.insert("os.evicted_unused", l.evicted_unused as f64);
    m.insert("os.compute_frac", ratio(s.compute_ns, elapsed));
    m.insert("os.demand_stall_frac", ratio(s.demand_stall_ns, elapsed));
    m.insert("os.late_stall_frac", ratio(s.late_stall_ns, elapsed));
    m.insert("os.hint_overhead_frac", ratio(s.hint_overhead_ns, elapsed));
    m.insert(
        "os.fault_overhead_frac",
        ratio(s.fault_overhead_ns, elapsed),
    );
    m.insert(
        "disk.util",
        if elapsed == 0 {
            0.0
        } else {
            util_ns / elapsed as f64
        },
    );
    m.insert(
        "disk.demand_wait_ms",
        ms_per(s.demand_wait_ns, s.demand_reads),
    );
    m.insert(
        "disk.prefetch_wait_ms",
        ms_per(s.prefetch_wait_ns, s.prefetch_reads),
    );
    m.insert("disk.write_wait_ms", ms_per(s.write_wait_ns, s.writes));
    let requests = s.demand_reads + s.prefetch_reads + s.writes;
    m.insert("disk.blocks_per_request", ratio(s.disk_blocks, requests));
    m.insert("disk.queue_hwm", s.queue_hwm as f64);
}
