//! Shared harness for the reproduction binaries.
//!
//! Each `src/bin/*.rs` binary regenerates one table or figure from the
//! paper's evaluation (see `DESIGN.md` section 5 for the index). This
//! library provides the common machinery: building a workload, running
//! it on the simulated machine in the original (paged-VM) or
//! prefetching configuration, and collecting every statistic the
//! figures need.

pub mod microbench;
pub mod report;
pub mod tenants;

use oocp_core::{compile, CompileReport, CompilerParams};
use oocp_ir::{run_program, run_program_profiled, ArrayBinding, CostModel, ExecStats, Program};
use oocp_nas::Workload;
use oocp_obs::{HostProf, MachineProf, Profile, TimeAttribution};
use oocp_os::{
    FaultPlan, FlushError, HistoryReplay, MachineParams, MetricsRegistry, MetricsReport, OsStats,
    PolicyKind, PrefetchPolicy, RecoveryReport, Segment, TimeSeriesRing, Trace,
};
use oocp_rt::{FilterMode, RtStats, Runtime};
use oocp_sim::time::{Ns, TimeBreakdown};

/// A file the harness could not create or write, with the path kept
/// for the error message. The bench binaries report these and exit
/// non-zero instead of panicking — an unwritable `--json` path is an
/// operator mistake, not a harness bug.
#[derive(Debug)]
pub struct WriteError {
    /// Path that failed.
    pub path: String,
    /// Underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot write {}: {}", self.path, self.source)
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The binaries' shared handler for a failed output write: print the
/// error and exit non-zero. A doomed `--csv`/`--json` path should fail
/// the run cleanly, not unwind through a panic backtrace.
pub fn exit_on(e: WriteError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

/// How to run a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The unmodified program relying on paged virtual memory ("O").
    Original,
    /// Compiler-inserted prefetching with the run-time filter ("P").
    Prefetch,
    /// Prefetching with the run-time layer disabled (Figure 4(c)).
    PrefetchNoFilter,
    /// Prefetching with two-version loops (the paper's proposed fix).
    PrefetchTwoVersion,
    /// Prefetching with in-core adaptive suppression (paper section
    /// 4.3.1 future work, implemented in the run-time layer).
    PrefetchAdaptive,
    /// Prefetching with memory-adaptive *code generation* (section
    /// 4.3.1's compiler-side proposal: the program tests its data size
    /// against an available-memory parameter at run time).
    PrefetchAdaptiveCode,
}

impl Mode {
    /// Short label used in table columns.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Original => "O",
            Mode::Prefetch => "P",
            Mode::PrefetchNoFilter => "P-nofilter",
            Mode::PrefetchTwoVersion => "P-2ver",
            Mode::PrefetchAdaptive => "P-adapt",
            Mode::PrefetchAdaptiveCode => "P-acode",
        }
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Mode the run used.
    pub mode: Mode,
    /// Simulated time ledger.
    pub time: TimeBreakdown,
    /// OS counters.
    pub os: OsStats,
    /// Run-time-layer counters.
    pub rt: RtStats,
    /// Aggregate disk counters.
    pub disk: oocp_disk::DiskStats,
    /// Average per-disk utilization.
    pub disk_util: f64,
    /// Time-weighted average free frames.
    pub avg_free_frames: f64,
    /// Interpreter dynamic counts.
    pub exec: ExecStats,
    /// Compile report (None for original runs).
    pub report: Option<CompileReport>,
    /// Whether the workload verifier accepted the results.
    pub verified: Result<(), String>,
    /// FNV-1a checksum of the final address-space contents. Two runs of
    /// the same workload that agree here computed bit-identical data —
    /// the correctness oracle for fault-injection sweeps.
    pub checksum: u64,
    /// Figure-5 attribution of every elapsed nanosecond (always
    /// collected; built from the OS's exact stall accumulators, so
    /// `attr.total() == time.total()`).
    pub attr: TimeAttribution,
    /// Observability snapshot: latency histograms and the prefetch-
    /// lifecycle ledger. Present when [`Config::metrics`] was set.
    pub obs: Option<MetricsReport>,
    /// Dirty pages that never durably reached the disks (write-backs
    /// abandoned after exhausted retries, or pages cut off by a
    /// simulated power loss). `None` means every result flushed clean.
    pub flush: Option<FlushError>,
    /// Name of the prefetch policy installed on the machine; `None`
    /// for the compiler-only default (no policy object at all).
    pub policy: Option<&'static str>,
    /// Continuous-telemetry output: the metrics registry (final values)
    /// and the sampled time-series ring. Present when
    /// [`Config::sampler`] was set.
    pub telemetry: Option<(MetricsRegistry, TimeSeriesRing)>,
}

impl RunResult {
    /// Total simulated execution time.
    pub fn total(&self) -> Ns {
        self.time.total()
    }
}

/// Experiment-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Machine parameters.
    pub machine: MachineParams,
    /// Workload seed.
    pub seed: u64,
    /// Interpreter cost model.
    pub cost: CostModel,
    /// Warm-start: preload the data set before timing (Figure 6).
    pub warm: bool,
    /// Enable the machine's observability layer (timing-neutral; fills
    /// [`RunResult::obs`]).
    pub metrics: bool,
    /// Attach the sim-time telemetry sampler: `(interval_ns, ring_cap)`.
    /// Implies metrics on the machine; timing-neutral like `metrics`
    /// (the sampler only reads counters at clock-advance points). Fills
    /// [`RunResult::telemetry`].
    pub sampler: Option<(Ns, usize)>,
}

impl Config {
    /// The default experiment platform: the paper's Table 1 shape with
    /// memory scaled down so the full suite runs quickly (data-set to
    /// memory *ratios* are what the experiments control).
    pub fn default_platform() -> Self {
        let machine = MachineParams::paper_platform().with_memory_bytes(8 * 1024 * 1024);
        Self {
            machine,
            seed: 20260706,
            cost: CostModel::default(),
            warm: false,
            metrics: false,
            sampler: None,
        }
    }

    /// Compiler parameters matched to this machine.
    pub fn compiler_params(&self) -> CompilerParams {
        CompilerParams::new(
            self.machine.page_bytes,
            self.machine.memory_bytes(),
            self.machine.disk.avg_access_ns() + self.machine.fault_overhead_ns,
        )
        .with_cost(self.cost)
    }

    /// Data-set size for a memory-ratio (e.g. 2.0 = twice memory).
    pub fn bytes_for_ratio(&self, ratio: f64) -> u64 {
        (self.machine.memory_bytes() as f64 * ratio) as u64
    }
}

/// Host-time capture threaded through a profiled run: the
/// interpreter's site tree plus the machine's flat charge-path
/// buckets, combined into one [`Profile`] by [`ProfCapture::finish`].
#[derive(Default)]
pub struct ProfCapture {
    /// Interpreter-side scoped collector.
    pub host: HostProf,
    /// Machine-side buckets, taken off the machine after the run.
    pub machine: MachineProf,
}

impl ProfCapture {
    /// A fresh, empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freeze into a [`Profile`]: the interpreter tree with the
    /// machine buckets grafted under the root as a `machine` subtree.
    pub fn finish(self) -> Profile {
        let mut p = self.host.finish();
        p.attach_machine(&self.machine);
        p
    }
}

/// Compile (or not) and execute one workload; verify the results.
pub fn run_workload(w: &Workload, cfg: &Config, mode: Mode) -> RunResult {
    run_workload_with(w, cfg, mode, cfg.compiler_params())
}

/// [`run_workload`] under the host-time profiler: same simulated run
/// (bit-identical results, stats, and timestamps — the probes read
/// only the host clock), plus the wall-clock attribution [`Profile`].
/// Under [`PolicyKind::HistoryReplay`] the *measured* second pass is
/// the one profiled.
pub fn run_workload_profiled(w: &Workload, cfg: &Config, mode: Mode) -> (RunResult, Profile) {
    let mut cap = ProfCapture::new();
    let (result, _) = run_workload_inner_prof(
        w,
        cfg,
        mode,
        cfg.compiler_params(),
        Vec::new(),
        None,
        0,
        Some(&mut cap),
    );
    (result, cap.finish())
}

/// [`run_workload`] with explicit compiler parameters (ablations).
pub fn run_workload_with(
    w: &Workload,
    cfg: &Config,
    mode: Mode,
    cparams: CompilerParams,
) -> RunResult {
    run_workload_pressured(w, cfg, mode, cparams, Vec::new())
}

/// [`run_workload_with`] plus a memory-pressure schedule: the resident
/// limit changes at the given simulated times (the multiprogramming
/// model of the paper's future work).
pub fn run_workload_pressured(
    w: &Workload,
    cfg: &Config,
    mode: Mode,
    cparams: CompilerParams,
    pressure: Vec<(Ns, u64)>,
) -> RunResult {
    run_workload_inner(w, cfg, mode, cparams, pressure, None, 0).0
}

/// [`run_workload`] with a fault plan installed on the machine before
/// the run starts: disk errors, stragglers, brownouts, bit-vector
/// desync, and pressure storms all per the plan. The run must still
/// verify and produce the same [`RunResult::checksum`] as a fault-free
/// run — faults may only cost time.
pub fn run_workload_faulted(w: &Workload, cfg: &Config, mode: Mode, plan: &FaultPlan) -> RunResult {
    run_workload_inner(
        w,
        cfg,
        mode,
        cfg.compiler_params(),
        Vec::new(),
        Some(plan),
        0,
    )
    .0
}

/// [`run_workload_faulted`] under the host-time profiler — the
/// cross-product tests/proptest_prof.rs sweeps to prove attachment is
/// host-time-only even while a fault plan is active.
pub fn run_workload_profiled_faulted(
    w: &Workload,
    cfg: &Config,
    mode: Mode,
    plan: &FaultPlan,
) -> (RunResult, Profile) {
    let mut cap = ProfCapture::new();
    let (result, _) = run_workload_inner_prof(
        w,
        cfg,
        mode,
        cfg.compiler_params(),
        Vec::new(),
        Some(plan),
        0,
        Some(&mut cap),
    );
    (result, cap.finish())
}

/// [`run_workload`] with the machine's event trace enabled: returns the
/// run plus the captured timeline (ring capacity `trace_cap` records).
/// The trace is what the perfgate tracediff aligns by prefetch span id.
pub fn run_workload_traced(
    w: &Workload,
    cfg: &Config,
    mode: Mode,
    trace_cap: usize,
) -> (RunResult, Option<Trace>) {
    run_workload_inner(
        w,
        cfg,
        mode,
        cfg.compiler_params(),
        Vec::new(),
        None,
        trace_cap,
    )
}

/// Compile (or pass through) a workload's program for `mode`.
fn prepare_program(
    w: &Workload,
    mode: Mode,
    cparams: &CompilerParams,
) -> (Program, Option<CompileReport>) {
    match mode {
        Mode::Original => (w.prog.clone(), None),
        Mode::Prefetch | Mode::PrefetchNoFilter | Mode::PrefetchAdaptive => {
            let (p, r) = compile(&w.prog, cparams);
            (p, Some(r))
        }
        Mode::PrefetchTwoVersion => {
            let (p, r) = compile(&w.prog, &cparams.with_two_version(true));
            (p, Some(r))
        }
        Mode::PrefetchAdaptiveCode => {
            let (p, r) = compile(&w.prog, &cparams.with_adaptive_in_core(true));
            (p, Some(r))
        }
    }
}

/// Snapshot a finished runtime into a [`RunResult`].
fn collect_result(
    mode: Mode,
    rt: &Runtime,
    exec: ExecStats,
    report: Option<CompileReport>,
    verified: Result<(), String>,
    checksum: u64,
    flush: Option<FlushError>,
) -> RunResult {
    let m = rt.machine();
    RunResult {
        mode,
        time: m.breakdown(),
        os: *m.stats(),
        disk: m.disk_stats(),
        disk_util: m.disk_utilization(),
        avg_free_frames: m.avg_free_frames(),
        attr: m.attribution(),
        obs: m.metrics_report(),
        rt: *rt.stats(),
        exec,
        report,
        verified,
        checksum,
        flush,
        policy: m.policy_name(),
        // Pulled separately by the run paths: sampler_output needs the
        // machine mutably to refresh the registry.
        telemetry: None,
    }
}

/// Pull the telemetry sampler's output (if one was attached) off the
/// finished runtime into the result.
fn collect_telemetry(rt: &mut Runtime, result: &mut RunResult) {
    result.telemetry = rt
        .machine_mut()
        .sampler_output()
        .map(|(reg, ring)| (reg.clone(), ring.clone()));
}

/// Run a workload, handling the [`PolicyKind::HistoryReplay`] two-pass
/// protocol: pass 1 runs with the recorder the machine installed by
/// default, pass 2 re-runs the same workload with the recorded miss
/// trace replayed as injected prefetches. All other policies (and the
/// policy-free default) are a single pass.
fn run_workload_inner(
    w: &Workload,
    cfg: &Config,
    mode: Mode,
    cparams: CompilerParams,
    pressure: Vec<(Ns, u64)>,
    plan: Option<&FaultPlan>,
    trace_cap: usize,
) -> (RunResult, Option<Trace>) {
    run_workload_inner_prof(w, cfg, mode, cparams, pressure, plan, trace_cap, None)
}

#[allow(clippy::too_many_arguments)]
fn run_workload_inner_prof(
    w: &Workload,
    cfg: &Config,
    mode: Mode,
    cparams: CompilerParams,
    pressure: Vec<(Ns, u64)>,
    plan: Option<&FaultPlan>,
    trace_cap: usize,
    mut prof: Option<&mut ProfCapture>,
) -> (RunResult, Option<Trace>) {
    let (result, trace, miss) = run_workload_once(
        w,
        cfg,
        mode,
        &cparams,
        pressure.clone(),
        plan,
        trace_cap,
        None,
        prof.as_deref_mut(),
    );
    if cfg.machine.policy == PolicyKind::HistoryReplay {
        if let Some(miss) = miss {
            // The replayed second pass is the measured one — restart
            // the capture so the profile covers only it.
            if let Some(p) = prof.as_deref_mut() {
                *p = ProfCapture::new();
            }
            let replay: Box<dyn PrefetchPolicy> = Box::new(HistoryReplay::replaying(miss));
            let (result, trace, _) = run_workload_once(
                w,
                cfg,
                mode,
                &cparams,
                pressure,
                plan,
                trace_cap,
                Some(replay),
                prof,
            );
            return (result, trace);
        }
    }
    (result, trace)
}

#[allow(clippy::too_many_arguments)]
fn run_workload_once(
    w: &Workload,
    cfg: &Config,
    mode: Mode,
    cparams: &CompilerParams,
    pressure: Vec<(Ns, u64)>,
    plan: Option<&FaultPlan>,
    trace_cap: usize,
    policy_override: Option<Box<dyn PrefetchPolicy>>,
    prof: Option<&mut ProfCapture>,
) -> (RunResult, Option<Trace>, Option<Vec<u64>>) {
    let (prog, report) = prepare_program(w, mode, cparams);
    let filter = if mode == Mode::PrefetchNoFilter {
        FilterMode::Disabled
    } else {
        FilterMode::Enabled
    };
    // The machine is sized by the ORIGINAL program's layout so both
    // versions see identical address spaces.
    let (binds, bytes) = ArrayBinding::sequential(&w.prog, cfg.machine.page_bytes);
    let mut machine = oocp_os::Machine::new(cfg.machine, bytes);
    if let Some(pol) = policy_override {
        machine.set_policy(pol);
    }
    if !pressure.is_empty() {
        machine.set_pressure_schedule(pressure);
    }
    if let Some(plan) = plan {
        machine.set_fault_plan(plan);
    }
    if trace_cap > 0 {
        machine.enable_trace(trace_cap);
    }
    let mut rt = Runtime::new(machine, filter).with_adaptive(mode == Mode::PrefetchAdaptive);
    if cfg.metrics {
        rt = rt.with_metrics();
    }
    if let Some((interval, cap)) = cfg.sampler {
        rt.machine_mut().attach_sampler(interval, cap);
    }
    w.init(&binds, &mut rt, cfg.seed);
    if cfg.warm {
        let m = rt.machine_mut();
        let pages = m
            .total_pages()
            .min(cfg.machine.resident_limit - cfg.machine.high_water - 1);
        m.preload(0, pages);
    }
    // Memory-adaptive programs take the available memory as an extra
    // runtime parameter.
    let mut param_values = w.param_values.clone();
    if let Some(Some(ap)) = report.as_ref().map(|r| r.adaptive_param) {
        debug_assert_eq!(ap, param_values.len());
        param_values.push(cfg.machine.memory_bytes() as i64);
    }
    let exec = match prof {
        Some(cap) => {
            rt.machine_mut().attach_host_prof();
            let exec = run_program_profiled(
                &prog,
                &binds,
                &param_values,
                cfg.cost,
                &mut rt,
                &mut cap.host,
            );
            if let Some(mp) = rt.machine_mut().take_host_prof() {
                cap.machine = mp;
            }
            exec
        }
        None => run_program(&prog, &binds, &param_values, cfg.cost, &mut rt),
    };
    let flush = rt.machine_mut().try_finish().err();
    let verified = w.verify(&binds, &rt);
    let checksum = data_checksum(&rt, bytes);
    let trace = rt.machine_mut().take_trace();
    let miss = rt.machine().policy_miss_trace();
    let mut result = collect_result(mode, &rt, exec, report, verified, checksum, flush);
    collect_telemetry(&mut rt, &mut result);
    (result, trace, miss)
}

/// A crash-recovery round trip of one workload. The fault plan must
/// schedule a power loss: the first leg runs into it (completing in
/// zombie mode so the interpreter never panics), the machine is then
/// recovered — journal rings scanned, committed intents replayed, torn
/// and uncommitted pages rolled back to their last durable version —
/// and the workload restarts from scratch on the recovered machine.
///
/// The write-ahead journal gives *per-page* atomicity, not cross-page
/// snapshot consistency, so the correctness oracle is application-
/// restart semantics: the re-run (same workload, same seed) must
/// produce bit-identical results to a run that never crashed.
pub struct CrashRun {
    /// The run that hit the power loss. Its in-memory checksum is
    /// intact (the crash affects durability, never computation), but
    /// [`RunResult::flush`] reports everything that failed to land.
    pub crashed: RunResult,
    /// What recovery found and did.
    pub recovery: RecoveryReport,
    /// The post-recovery restart. Its stats carry the `recovery_*`
    /// counters of the machine it ran on.
    pub rerun: RunResult,
}

/// Run `w` into a scheduled power loss, recover, and re-run. See
/// [`CrashRun`].
///
/// # Panics
///
/// Panics if `plan` schedules no crash.
pub fn run_workload_crash_recover(
    w: &Workload,
    cfg: &Config,
    mode: Mode,
    plan: &FaultPlan,
) -> CrashRun {
    assert!(
        plan.crash.is_some(),
        "run_workload_crash_recover needs a plan with a scheduled crash"
    );
    let cparams = cfg.compiler_params();
    let (prog, report) = prepare_program(w, mode, &cparams);
    let filter = if mode == Mode::PrefetchNoFilter {
        FilterMode::Disabled
    } else {
        FilterMode::Enabled
    };
    let (binds, bytes) = ArrayBinding::sequential(&w.prog, cfg.machine.page_bytes);
    let mut param_values = w.param_values.clone();
    if let Some(Some(ap)) = report.as_ref().map(|r| r.adaptive_param) {
        debug_assert_eq!(ap, param_values.len());
        param_values.push(cfg.machine.memory_bytes() as i64);
    }

    // Leg 1: run into the crash.
    let mut machine = oocp_os::Machine::new(cfg.machine, bytes);
    machine.set_fault_plan(plan);
    let mut rt = Runtime::new(machine, filter).with_adaptive(mode == Mode::PrefetchAdaptive);
    if cfg.metrics {
        rt = rt.with_metrics();
    }
    w.init(&binds, &mut rt, cfg.seed);
    let exec = run_program(&prog, &binds, &param_values, cfg.cost, &mut rt);
    let flush = rt.machine_mut().try_finish().err();
    let verified = w.verify(&binds, &rt);
    let checksum = data_checksum(&rt, bytes);
    let crashed = collect_result(mode, &rt, exec, report.clone(), verified, checksum, flush);

    // Recovery.
    let (machine, recovery) = rt.into_machine().recover();

    // Leg 2: application restart on the recovered machine.
    let mut rt = Runtime::new(machine, filter).with_adaptive(mode == Mode::PrefetchAdaptive);
    if cfg.metrics {
        rt = rt.with_metrics();
    }
    w.init(&binds, &mut rt, cfg.seed);
    let exec = run_program(&prog, &binds, &param_values, cfg.cost, &mut rt);
    let flush = rt.machine_mut().try_finish().err();
    let verified = w.verify(&binds, &rt);
    let checksum = data_checksum(&rt, bytes);
    let rerun = collect_result(mode, &rt, exec, report, verified, checksum, flush);

    CrashRun {
        crashed,
        recovery,
        rerun,
    }
}

/// Run a bare IR [`Program`] (e.g. a parsed `kernels/*.ook` file) on
/// the simulated machine, same contract as [`run_workload`] but without
/// a workload's initializer or verifier: the program starts from a
/// zeroed address space (the sample kernels initialize their own data),
/// `verified` is trivially `Ok`, and the checksum still fingerprints the
/// final address-space contents.
///
/// Only the non-adaptive modes make sense here ([`Mode::Original`],
/// [`Mode::Prefetch`], [`Mode::PrefetchNoFilter`],
/// [`Mode::PrefetchTwoVersion`]); the adaptive modes need a workload's
/// parameter plumbing.
pub fn run_ir_program(prog: &Program, param_values: &[i64], cfg: &Config, mode: Mode) -> RunResult {
    run_ir_traced(prog, param_values, cfg, mode, 0).0
}

/// [`run_ir_program`] with the event trace enabled (see
/// [`run_workload_traced`]).
pub fn run_ir_traced(
    prog: &Program,
    param_values: &[i64],
    cfg: &Config,
    mode: Mode,
    trace_cap: usize,
) -> (RunResult, Option<Trace>) {
    let (result, trace, _) = run_ir_inner(prog, param_values, cfg, mode, trace_cap, None);
    (result, trace)
}

/// [`run_ir_program`] under the host-time profiler (see
/// [`run_workload_profiled`]).
pub fn run_ir_profiled(
    prog: &Program,
    param_values: &[i64],
    cfg: &Config,
    mode: Mode,
) -> (RunResult, Profile) {
    let mut cap = ProfCapture::new();
    let (result, _, _) = run_ir_inner(prog, param_values, cfg, mode, 0, Some(&mut cap));
    (result, cap.finish())
}

fn run_ir_inner(
    prog: &Program,
    param_values: &[i64],
    cfg: &Config,
    mode: Mode,
    trace_cap: usize,
    mut prof: Option<&mut ProfCapture>,
) -> (RunResult, Option<Trace>, Option<Vec<u64>>) {
    let (result, trace, miss) = run_ir_once(
        prog,
        param_values,
        cfg,
        mode,
        trace_cap,
        None,
        prof.as_deref_mut(),
    );
    if cfg.machine.policy == PolicyKind::HistoryReplay {
        if let Some(miss) = miss {
            if let Some(p) = prof.as_deref_mut() {
                *p = ProfCapture::new();
            }
            let replay: Box<dyn PrefetchPolicy> = Box::new(HistoryReplay::replaying(miss));
            return run_ir_once(prog, param_values, cfg, mode, trace_cap, Some(replay), prof);
        }
    }
    (result, trace, miss)
}

fn run_ir_once(
    prog: &Program,
    param_values: &[i64],
    cfg: &Config,
    mode: Mode,
    trace_cap: usize,
    policy_override: Option<Box<dyn PrefetchPolicy>>,
    prof: Option<&mut ProfCapture>,
) -> (RunResult, Option<Trace>, Option<Vec<u64>>) {
    let cparams = cfg.compiler_params();
    let (run_prog, report): (Program, Option<CompileReport>) = match mode {
        Mode::Original => (prog.clone(), None),
        Mode::PrefetchTwoVersion => {
            let (p, r) = compile(prog, &cparams.with_two_version(true));
            (p, Some(r))
        }
        _ => {
            let (p, r) = compile(prog, &cparams);
            (p, Some(r))
        }
    };
    let filter = if mode == Mode::PrefetchNoFilter {
        FilterMode::Disabled
    } else {
        FilterMode::Enabled
    };
    let (binds, bytes) = ArrayBinding::sequential(prog, cfg.machine.page_bytes);
    let mut machine = oocp_os::Machine::new(cfg.machine, bytes);
    if let Some(pol) = policy_override {
        machine.set_policy(pol);
    }
    if trace_cap > 0 {
        machine.enable_trace(trace_cap);
    }
    let mut rt = Runtime::new(machine, filter);
    if cfg.metrics {
        rt = rt.with_metrics();
    }
    if let Some((interval, cap)) = cfg.sampler {
        rt.machine_mut().attach_sampler(interval, cap);
    }
    let exec = match prof {
        Some(cap) => {
            rt.machine_mut().attach_host_prof();
            let exec = run_program_profiled(
                &run_prog,
                &binds,
                param_values,
                cfg.cost,
                &mut rt,
                &mut cap.host,
            );
            if let Some(mp) = rt.machine_mut().take_host_prof() {
                cap.machine = mp;
            }
            exec
        }
        None => run_program(&run_prog, &binds, param_values, cfg.cost, &mut rt),
    };
    let flush = rt.machine_mut().try_finish().err();
    let checksum = data_checksum(&rt, bytes);
    let trace = rt.machine_mut().take_trace();
    let miss = rt.machine().policy_miss_trace();
    let mut result = collect_result(mode, &rt, exec, report, Ok(()), checksum, flush);
    collect_telemetry(&mut rt, &mut result);
    (result, trace, miss)
}

/// FNV-1a over the whole simulated address space, read word-by-word
/// through the zero-cost peek path (does not perturb the run — it is
/// taken after `finish()`): [`oocp_rt::segment_checksum`] of a segment
/// spanning the space.
pub fn data_checksum(rt: &Runtime, bytes: u64) -> u64 {
    oocp_rt::segment_checksum(rt.machine(), Segment { base: 0, bytes })
}

/// Format a nanosecond count as seconds with 3 decimals.
pub fn secs(ns: Ns) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Percentage of `part` in `total` (0 when empty).
pub fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// Print a normalized stacked-bar style row (Figure 3(a) text form).
pub fn print_breakdown_row(name: &str, label: &str, t: &TimeBreakdown, norm: Ns) {
    let n = norm.max(1) as f64;
    println!(
        "{name:<8} {label:<11} total {:>6.1}% | user {:>6.1}% | sys-fault {:>5.1}% | sys-pf {:>5.1}% | idle {:>6.1}%",
        t.total() as f64 / n * 100.0,
        t.user as f64 / n * 100.0,
        t.sys_fault as f64 / n * 100.0,
        t.sys_prefetch as f64 / n * 100.0,
        t.idle as f64 / n * 100.0,
    );
}

/// Default telemetry sampling interval: one row per simulated
/// millisecond — a few thousand rows across a typical matrix cell.
pub const SAMPLE_INTERVAL_NS: Ns = 1_000_000;

/// Default time-series ring capacity (oldest rows evicted beyond it).
pub const SAMPLE_RING_CAP: usize = 8192;

/// Parse `--key value` style overrides shared by the binaries.
///
/// Supported: `--mem-mb <n>`, `--seed <n>`, `--ratio <f>`, `--disks <n>`,
/// `--csv <path>`, `--json <path>`, `--metrics-out <prefix>`,
/// `--sample-interval-us <n>`, `--sched <policy>`, `--queue-depth <n>`,
/// `--policy <name>`, `--redundancy <none|parity>`, `--coalesce`,
/// `--smoke`, `--crash`, `--no-journal`, `--disk-death`,
/// `--corrupt-parity`.
pub struct Args {
    /// Parsed configuration (including any `--sched`/`--queue-depth`/
    /// `--coalesce` scheduler overrides, applied to `cfg.machine.sched`).
    pub cfg: Config,
    /// Data-set to memory ratio (default 2.0, the paper's headline).
    pub ratio: f64,
    /// Optional CSV output path (binaries that support it write their
    /// numeric rows there for plotting).
    pub csv: Option<String>,
    /// Optional JSON run-report output path (see [`report`]). Giving
    /// `--json` also enables [`Config::metrics`], so the report carries
    /// histograms and the lifecycle ledger.
    pub json: Option<String>,
    /// Optional telemetry export prefix: binaries that support it write
    /// `<prefix>.prom` (Prometheus text format) and `<prefix>.jsonl`
    /// (time-series rows) from [`RunResult::telemetry`]. Giving
    /// `--metrics-out` attaches the sampler ([`Config::sampler`]).
    pub metrics_out: Option<String>,
    /// Quick-gate mode: binaries that support it shrink to a single
    /// small kernel so CI can run them on every change.
    pub smoke: bool,
    /// Crash sweep mode (the chaos binary): simulate power loss at
    /// several points of each kernel and check verified recovery.
    pub crash: bool,
    /// Disable the writeback journal (`cfg.machine.journal = false`).
    /// Combined with `--crash` this is the *negative* gate: torn writes
    /// must then lose data, proving the crash oracle has teeth.
    pub no_journal: bool,
    /// Disk-death sweep mode (the chaos binary): kill one whole disk at
    /// several points of each kernel's run and check degraded reads,
    /// online rebuild, and bit-identical results under `--redundancy
    /// parity`. With `--redundancy none` the sweep must instead die
    /// with the typed data-loss error (the negative gate).
    pub disk_death: bool,
    /// Latent-corruption gate (the chaos binary): flip bits in stripe
    /// parity via the debug hook before a disk death; the rebuild's
    /// verify sweep must detect every corrupted row.
    pub corrupt_parity: bool,
}

impl Args {
    /// Parse from `std::env::args`.
    pub fn parse() -> Self {
        let mut cfg = Config::default_platform();
        let mut ratio = 2.0;
        let mut csv = None;
        let mut json = None;
        let mut metrics_out = None;
        let mut sample_interval = SAMPLE_INTERVAL_NS;
        let mut smoke = false;
        let mut crash = false;
        let mut no_journal = false;
        let mut disk_death = false;
        let mut corrupt_parity = false;
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            // Flags without a value first.
            match argv[i].as_str() {
                "--coalesce" => {
                    cfg.machine.sched = cfg.machine.sched.with_coalesce(true);
                    i += 1;
                    continue;
                }
                "--smoke" => {
                    smoke = true;
                    i += 1;
                    continue;
                }
                "--crash" => {
                    crash = true;
                    i += 1;
                    continue;
                }
                "--no-journal" => {
                    no_journal = true;
                    cfg.machine.journal = false;
                    i += 1;
                    continue;
                }
                "--disk-death" => {
                    disk_death = true;
                    i += 1;
                    continue;
                }
                "--corrupt-parity" => {
                    corrupt_parity = true;
                    i += 1;
                    continue;
                }
                _ => {}
            }
            let v = argv
                .get(i + 1)
                .unwrap_or_else(|| panic!("{} takes a value", argv[i]));
            match argv[i].as_str() {
                "--mem-mb" => {
                    let mb: u64 = v.parse().expect("--mem-mb takes an integer");
                    cfg.machine = cfg.machine.with_memory_bytes(mb * 1024 * 1024);
                }
                "--seed" => cfg.seed = v.parse().expect("--seed takes an integer"),
                "--ratio" => ratio = v.parse().expect("--ratio takes a float"),
                "--disks" => cfg.machine = cfg.machine.with_ndisks(v.parse().expect("--disks int")),
                "--csv" => csv = Some(v.clone()),
                "--json" => {
                    json = Some(v.clone());
                    cfg.metrics = true;
                }
                "--metrics-out" => {
                    metrics_out = Some(v.clone());
                    cfg.metrics = true;
                }
                "--sample-interval-us" => {
                    let us: u64 = v.parse().expect("--sample-interval-us takes an integer");
                    assert!(us > 0, "--sample-interval-us must be positive");
                    sample_interval = us * 1_000;
                }
                "--sched" => {
                    let policy = oocp_os::SchedPolicy::parse(v)
                        .unwrap_or_else(|| panic!("unknown scheduling policy {v}"));
                    cfg.machine.sched = cfg.machine.sched.with_policy(policy);
                }
                "--queue-depth" => {
                    let depth: usize = v.parse().expect("--queue-depth takes an integer");
                    cfg.machine.sched = cfg.machine.sched.with_queue_depth(depth);
                }
                "--policy" => {
                    let kind = PolicyKind::parse(v)
                        .unwrap_or_else(|| panic!("unknown prefetch policy {v}"));
                    cfg.machine = cfg.machine.with_prefetch_policy(kind);
                }
                "--redundancy" => {
                    let r = oocp_os::Redundancy::parse(v)
                        .unwrap_or_else(|| panic!("unknown redundancy scheme {v}"));
                    cfg.machine.redundancy = r;
                }
                other => panic!("unknown argument {other}"),
            }
            i += 2;
        }
        if metrics_out.is_some() {
            cfg.sampler = Some((sample_interval, SAMPLE_RING_CAP));
        }
        exit_on_bad_config(&cfg);
        Self {
            cfg,
            ratio,
            csv,
            json,
            metrics_out,
            smoke,
            crash,
            no_journal,
            disk_death,
            corrupt_parity,
        }
    }
}

/// Write a run's telemetry as `<prefix>.prom` (Prometheus text format)
/// and `<prefix>.jsonl` (the sampled time series). Both documents are
/// validated by `oocp_obs::check_prometheus_text` / `check_jsonl`
/// before touching the filesystem — an exporter bug should fail the
/// run, not land a corrupt file.
pub fn write_metrics(
    prefix: &str,
    reg: &MetricsRegistry,
    ring: &TimeSeriesRing,
) -> Result<(), WriteError> {
    let prom = oocp_obs::prometheus_text(reg);
    oocp_obs::check_prometheus_text(&prom).expect("prometheus exporter invariant");
    let jsonl = oocp_obs::jsonl_series(reg, ring);
    oocp_obs::check_jsonl(&jsonl).expect("jsonl exporter invariant");
    for (ext, text) in [("prom", prom), ("jsonl", jsonl)] {
        let path = format!("{prefix}.{ext}");
        std::fs::write(&path, text).map_err(|source| WriteError { path, source })?;
        eprintln!("wrote {prefix}.{ext}");
    }
    Ok(())
}

/// Reject an invalid machine configuration with a typed
/// [`oocp_os::ConfigError`] message and exit code 2 (operator error),
/// instead of letting `Machine::new` panic mid-run. Every binary that
/// accepts machine overrides funnels through here.
pub fn exit_on_bad_config(cfg: &Config) {
    if let Err(e) = cfg.machine.check() {
        eprintln!("error: invalid machine configuration: {e}");
        std::process::exit(2);
    }
}

/// Write CSV rows to `path` (header first). An unwritable path is
/// reported as a typed [`WriteError`] so binaries can print it and exit
/// non-zero instead of panicking.
pub fn write_csv(path: &str, header: &str, rows: &[String]) -> Result<(), WriteError> {
    let mut text =
        String::with_capacity(header.len() + rows.iter().map(|r| r.len() + 1).sum::<usize>() + 1);
    text.push_str(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|source| WriteError {
        path: path.to_string(),
        source,
    })?;
    eprintln!("wrote {path} ({} rows)", rows.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocp_nas::{build, App};

    #[test]
    fn original_and_prefetch_runs_verify_and_speed_up() {
        let mut cfg = Config::default_platform();
        cfg.machine = cfg.machine.with_memory_bytes(2 * 1024 * 1024);
        let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
        let o = run_workload(&w, &cfg, Mode::Original);
        let p = run_workload(&w, &cfg, Mode::Prefetch);
        o.verified.as_ref().expect("original verifies");
        p.verified.as_ref().expect("prefetch verifies");
        assert!(
            p.total() < o.total(),
            "prefetching must win: P {} vs O {}",
            p.total(),
            o.total()
        );
        assert!(p.os.coverage() > 0.5, "coverage {:.2}", p.os.coverage());
    }

    #[test]
    fn share_and_pct_helpers() {
        assert_eq!(share(1, 4), 0.25);
        assert_eq!(share(1, 0), 0.0);
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    fn write_csv_roundtrips() {
        let path = std::env::temp_dir().join("oocp_csv_test.csv");
        let path = path.to_str().unwrap();
        write_csv(path, "a,b", &["1,2".to_string(), "3,4".to_string()]).unwrap();
        let got = std::fs::read_to_string(path).unwrap();
        assert_eq!(got, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_csv_reports_unwritable_path() {
        let err = write_csv("/nonexistent-dir/x.csv", "a", &[]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("/nonexistent-dir/x.csv"),
            "names the path: {msg}"
        );
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn ir_program_runs_match_workload_contract() {
        use oocp_ir::parse_program;
        let src = "program t {\n    long a[4096];\n    for i = 0 to 4096 { a[i] = i; }\n    for i = 0 to 4096 { a[i] = a[i] + 1; }\n}\n";
        let prog = parse_program(src).unwrap();
        let mut cfg = Config::default_platform();
        cfg.machine = cfg.machine.with_memory_bytes(16 * 4096);
        cfg.metrics = true;
        let o = run_ir_program(&prog, &[], &cfg, Mode::Original);
        let (p, trace) = run_ir_traced(&prog, &[], &cfg, Mode::Prefetch, 1 << 14);
        assert_eq!(o.checksum, p.checksum, "modes agree on the data");
        assert!(p.attr.sums_to(p.total(), 0.0), "attribution exact");
        assert!(p.obs.is_some(), "metrics flow through the IR path");
        let trace = trace.expect("trace was enabled");
        assert!(!trace.span_lifecycles().is_empty(), "prefetch spans traced");
    }
}
