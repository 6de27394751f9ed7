//! Single-program workloads (`paper-2x`, `incore-warm`): every NAS
//! kernel run once unmodified (`O`) and once compiled with prefetching
//! (`P`), each with its set-up and measured phase timed separately.

use oocp_bench::{data_checksum, Config, Mode};
use oocp_core::{compile, CompileReport};
use oocp_ir::{run_program, ArrayBinding, CostModel, ExecStats, Program};
use oocp_nas::{build, App, Workload};
use oocp_os::{Machine, MetricsReport, SchedPolicy};
use oocp_rt::{FilterMode, Runtime};

use crate::host::Span;
use crate::traced::{TracedVm, VmTimes};

/// Problem size: the real workload, or a tiny one for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// A small data set: exercises every path in about a second a pass.
    Tiny,
}

/// A single-program workload: a platform, a data-set size relative to
/// memory, and whether the data is preloaded before timing.
#[derive(Clone, Copy, Debug)]
pub struct Suite {
    /// Platform, cost model, seed, warm start.
    pub cfg: Config,
    /// Data-set size as a multiple of memory.
    pub ratio: f64,
}

impl Suite {
    /// Figure 3's headline cells: data twice a 2 MB memory on the
    /// 7-disk platform under FCFS — exactly perfgate's `orig+fcfs` and
    /// `pf+fcfs` NAS cells.
    pub fn paper_2x(seed: u64, scale: Scale) -> Self {
        let mem = match scale {
            Scale::Full => 2 << 20,
            Scale::Tiny => 256 << 10,
        };
        Self::new(seed, mem, 2.0, false)
    }

    /// Figure 6's warm start: data a quarter of an 8 MB memory,
    /// preloaded, so no access faults.
    pub fn incore_warm(seed: u64, scale: Scale) -> Self {
        let mem = match scale {
            Scale::Full => 8 << 20,
            Scale::Tiny => 1 << 20,
        };
        Self::new(seed, mem, 0.25, true)
    }

    fn new(seed: u64, mem_bytes: u64, ratio: f64, warm: bool) -> Self {
        let mut cfg = Config::default_platform();
        cfg.machine = cfg.machine.with_memory_bytes(mem_bytes);
        cfg.machine.sched = cfg.machine.sched.with_policy(SchedPolicy::Fcfs);
        cfg.seed = seed;
        cfg.warm = warm;
        Self { cfg, ratio }
    }

    /// The cells of one pass: each kernel in `O` then `P`.
    pub fn cells(&self) -> Vec<(App, Mode)> {
        App::ALL
            .iter()
            .flat_map(|&a| [(a, Mode::Original), (a, Mode::Prefetch)])
            .collect()
    }
}

/// Host seconds of one cell's set-up, by layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `nas`: building the workload program.
    pub build_s: f64,
    /// `core`: the compiler pass (0 for `O` cells).
    pub compile_s: f64,
    /// `os`/`rt`: constructing the `Machine` and `Runtime` or hub, and
    /// preloading a warm start.
    pub os_s: f64,
    /// `nas`: initializing the input data.
    pub init_s: f64,
}

impl SetupTimes {
    /// Whole set-up.
    pub fn total(&self) -> f64 {
        self.build_s + self.compile_s + self.os_s + self.init_s
    }
}

/// Host seconds of one cell's measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunTimes {
    /// Whole measured phase: program + finish + verify.
    pub run_s: f64,
    /// `run_program` (interpreter plus every VM call it made).
    pub program_s: f64,
    /// `Machine::try_finish`: flushing dirty pages.
    pub finish_s: f64,
    /// The workload's verifier.
    pub verify_s: f64,
    /// Per-class VM call times (traced runs only).
    pub vm: Option<VmTimes>,
}

/// Prefetch-lifecycle ledger outcomes (traced runs only: the ledger
/// exists only with `Config::metrics`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Prefetches tracked.
    pub entries: u64,
    /// Arrived before use.
    pub timely: u64,
    /// Used while still in flight.
    pub late: u64,
    /// Dropped for any reason.
    pub dropped: u64,
    /// Evicted before use.
    pub evicted_unused: u64,
}

/// Every simulated number of one run that a metric or check reads. All
/// of it is deterministic: two runs of one cell must agree exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sim {
    pub elapsed_ns: u64,
    pub checksum: u64,
    /// Interpreter operations: loads, stores, flops, integer ops,
    /// iterations and hint statements.
    pub ops: u64,
    pub prefetch_ops: u64,
    pub ops_fully_filtered: u64,
    pub hint_syscalls: u64,
    pub prefetch_groups: u64,
    /// First-touch page-ins a prefetch covered, and all of them
    /// (`OsStats::coverage` is their ratio).
    pub covered_faults: u64,
    pub original_faults: u64,
    pub hard_faults: u64,
    pub prefetched_hits: u64,
    pub writebacks: u64,
    pub compute_ns: u64,
    pub demand_stall_ns: u64,
    pub late_stall_ns: u64,
    pub hint_overhead_ns: u64,
    pub fault_overhead_ns: u64,
    pub disk_util: f64,
    /// Blocks moved by demand reads, prefetch reads and writes.
    pub disk_blocks: u64,
    pub demand_wait_ns: u64,
    pub prefetch_wait_ns: u64,
    pub write_wait_ns: u64,
    pub demand_reads: u64,
    pub prefetch_reads: u64,
    pub writes: u64,
    pub queue_hwm: u64,
}

/// One run of one cell.
#[derive(Clone, Debug)]
pub struct CellRun {
    pub app: App,
    pub mode: Mode,
    pub sim: Sim,
    pub ledger: Option<Ledger>,
    pub setup: SetupTimes,
    pub run: RunTimes,
    /// Why the run is wrong (verifier, lost write-back), if it is.
    pub failure: Option<String>,
}

/// A cell set up and ready to run: the set-up phase's product.
pub struct Prepared {
    app: App,
    mode: Mode,
    w: Workload,
    prog: Program,
    report: Option<CompileReport>,
    binds: Vec<ArrayBinding>,
    bytes: u64,
    rt: Runtime,
    cost: CostModel,
    traced: bool,
    /// Host time the set-up took.
    pub setup: SetupTimes,
}

/// Build and compile one cell, construct its machine and runtime, and
/// initialize (and for a warm start, preload) its data. A `traced` cell
/// has the ledger on and will run through [`TracedVm`].
pub fn prepare(suite: &Suite, app: App, mode: Mode, traced: bool) -> Prepared {
    let cfg = &suite.cfg;
    let mut setup = SetupTimes::default();

    let t = Span::start();
    let w = build(app, cfg.bytes_for_ratio(suite.ratio));
    setup.build_s = t.secs();

    let t = Span::start();
    let (prog, report) = match mode {
        Mode::Original => (w.prog.clone(), None),
        _ => {
            let (p, r) = compile(&w.prog, &cfg.compiler_params());
            (p, Some(r))
        }
    };
    setup.compile_s = t.secs();

    // The address space is laid out from the original program so both
    // versions see identical data.
    let t = Span::start();
    let (binds, bytes) = ArrayBinding::sequential(&w.prog, cfg.machine.page_bytes);
    let mut rt = Runtime::new(Machine::new(cfg.machine, bytes), FilterMode::Enabled);
    if traced {
        rt = rt.with_metrics();
    }
    setup.os_s = t.secs();

    let t = Span::start();
    w.init(&binds, &mut rt, cfg.seed);
    setup.init_s = t.secs();

    if cfg.warm {
        let t = Span::start();
        let m = rt.machine_mut();
        let pages = m
            .total_pages()
            .min(cfg.machine.resident_limit - cfg.machine.high_water - 1);
        m.preload(0, pages);
        setup.os_s += t.secs();
    }
    Prepared {
        app,
        mode,
        w,
        prog,
        report,
        binds,
        bytes,
        rt,
        cost: cfg.cost,
        traced,
        setup,
    }
}

impl Prepared {
    /// Run the measured phase.
    pub fn run(mut self) -> CellRun {
        let (exec, run, failure) = measure(
            &mut self.rt,
            &self.prog,
            &self.binds,
            &self.w,
            self.cost,
            self.traced,
        );
        let (sim, ledger) = distill(&self.rt, &exec, self.report.as_ref(), self.bytes);
        CellRun {
            app: self.app,
            mode: self.mode,
            sim,
            ledger,
            setup: self.setup,
            run,
            failure,
        }
    }
}

/// Set up and run one cell, traced or not.
pub fn run_cell(suite: &Suite, app: App, mode: Mode, traced: bool) -> CellRun {
    prepare(suite, app, mode, traced).run()
}

/// The measured phase: run the program (through the probe when
/// traced), flush, verify. Returns the interpreter's counts, the host
/// times, and why the result is wrong, if it is.
pub(crate) fn measure(
    rt: &mut Runtime,
    prog: &Program,
    binds: &[ArrayBinding],
    w: &Workload,
    cost: CostModel,
    traced: bool,
) -> (ExecStats, RunTimes, Option<String>) {
    let mut run = RunTimes::default();
    let t0 = Span::start();
    let exec = if traced {
        let mut vm = TracedVm::new(rt);
        let exec = run_program(prog, binds, &w.param_values, cost, &mut vm);
        run.vm = Some(vm.times);
        exec
    } else {
        run_program(prog, binds, &w.param_values, cost, rt)
    };
    run.program_s = t0.secs();
    let t = Span::start();
    let flush = rt.machine_mut().try_finish();
    run.finish_s = t.secs();
    let t = Span::start();
    let verified = w.verify(binds, rt);
    run.verify_s = t.secs();
    run.run_s = t0.secs();
    let failure = match (verified, flush) {
        (Err(e), _) => Some(format!("verifier rejected the result: {e}")),
        (Ok(()), Err(e)) => Some(format!("final write-back failed: {e}")),
        (Ok(()), Ok(())) => None,
    };
    (exec, run, failure)
}

/// Read every simulated number of a finished run off the runtime.
/// `bytes` is the extent of the program's data, which the checksum
/// covers.
pub(crate) fn distill(
    rt: &Runtime,
    exec: &ExecStats,
    report: Option<&CompileReport>,
    bytes: u64,
) -> (Sim, Option<Ledger>) {
    let m = rt.machine();
    let mut sim = Sim::of_machine(m);
    let rts = rt.stats();
    sim.checksum = data_checksum(rt, bytes);
    sim.ops = exec.loads
        + exec.stores
        + exec.flops
        + exec.iops
        + exec.iters
        + exec.prefetch_stmts
        + exec.release_stmts;
    sim.prefetch_ops = rts.prefetch_ops;
    sim.ops_fully_filtered = rts.ops_fully_filtered;
    sim.prefetch_groups = report.map_or(0, |r| r.prefetched_groups() as u64);
    (sim, m.metrics_report().as_ref().map(Ledger::of))
}

impl Ledger {
    /// The ledger outcomes of a metrics report.
    pub fn of(r: &MetricsReport) -> Self {
        let l = r.ledger;
        Self {
            entries: r.ledger_entries,
            timely: l.timely_hits,
            late: l.late_inflight,
            dropped: l.dropped_no_memory
                + l.dropped_queue_full
                + l.dropped_io_error
                + l.dropped_quota
                + l.dropped_pressure,
            evicted_unused: l.evicted_unused,
        }
    }
}

impl Sim {
    /// The machine-side numbers of a finished machine; the program-side
    /// ones (checksum, ops, filter, compiler) are left for the caller.
    pub fn of_machine(m: &Machine) -> Self {
        let os = m.stats();
        let disk = m.disk_stats();
        let attr = m.attribution();
        Self {
            elapsed_ns: m.breakdown().total(),
            hint_syscalls: os.hint_syscalls,
            covered_faults: os.prefetched_hits + os.prefetched_faults(),
            original_faults: os.original_faults(),
            hard_faults: os.hard_faults,
            prefetched_hits: os.prefetched_hits,
            writebacks: os.writebacks,
            compute_ns: attr.compute_ns,
            demand_stall_ns: attr.demand_stall_ns,
            late_stall_ns: attr.late_prefetch_stall_ns,
            hint_overhead_ns: attr.hint_overhead_ns,
            fault_overhead_ns: attr.fault_overhead_ns,
            disk_util: m.disk_utilization(),
            disk_blocks: disk.demand_blocks + disk.prefetch_blocks + disk.write_blocks,
            demand_wait_ns: disk.demand_wait_ns,
            prefetch_wait_ns: disk.prefetch_wait_ns,
            write_wait_ns: disk.write_wait_ns,
            demand_reads: disk.demand_reads,
            prefetch_reads: disk.prefetch_reads,
            writes: disk.writes,
            queue_hwm: disk.queue_depth_hwm,
            ..Self::default()
        }
    }
}
