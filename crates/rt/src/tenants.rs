//! Multi-tenant co-scheduling hub: N IR programs interleaved on one
//! shared machine.
//!
//! The paper models one out-of-core application owning the whole
//! machine. This module turns the same substrate into a *multi-tenant*
//! machine: each tenant is an IR program with its own address-space
//! segment, residency bit vector, QoS class, and quotas
//! ([`TenantSpec`]), all sharing one free list, one pageout daemon, and
//! one disk array on a single simulated clock.
//!
//! # Interleaving model
//!
//! The hub runs every tenant on one thread. Each tenant's program is a
//! pausable [`Executor`], and the hub steps them round-robin: a tenant
//! runs until a demand fault blocks it or it has made a 256-call slice
//! of VM calls, then the next runnable tenant goes. Every switch is a
//! deterministic function of simulated state, so co-scheduled runs are
//! exactly reproducible.
//!
//! A tenant that hard-faults uses the machine's non-blocking touch
//! ([`Machine::touch_nb`]): all fault bookkeeping happens at block
//! time, the executor pauses with the access still to retry, and the
//! clock only advances idle when *every* tenant is blocked on disk
//! ([`Machine::advance_idle_to`]). Driven with a single tenant this
//! degenerates to exactly the classic blocking path, so solo-via-hub
//! runs are bit- and cycle-identical to [`crate::Runtime`] runs.
//!
//! # Graceful degradation
//!
//! Each tenant runs the same user-level hint filter and degraded-mode
//! state machine as [`crate::Runtime`], with its own state and its
//! [`TenantSpec`] as data. On top of the error-window entry path, the
//! pressure arbiter pushes non-guaranteed tenants into demand-only
//! degraded mode whenever global pressure reaches brownout; recovery
//! works by the same probing scheme — every Nth hint is issued for
//! real, and a streak of clean probes (no error drops, no pressure
//! sheds) re-enables hinting with a bit-vector resync.
//!
//! # Crash (kill) modeling
//!
//! A tenant may be killed after a fixed number of VM calls: it stops
//! there, before making the next call, and its finish time is the clock
//! at that moment. Its resident pages linger until the pageout daemon
//! reclaims them — exactly what happens to a SIGKILLed process's page
//! cache.

use oocp_ir::{ArrayBinding, ArrayData, CostModel, Executor, PagedVm, Program, Step};
use oocp_os::{
    ConfigError, Machine, MachineParams, MetricsReport, OsStats, Segment, TenantSpec, TenantStats,
    TimeAttribution, Touch,
};
use oocp_sim::time::{Ns, TimeBreakdown};

use crate::{FilterMode, HintFilter, RtStats};

/// One tenant's program and policy, as submitted to the hub.
pub struct TenantProgram {
    /// The (already compiled, if desired) program to execute.
    pub prog: Program,
    /// Runtime parameter values, one per program parameter.
    pub params: Vec<i64>,
    /// QoS class and quotas.
    pub spec: TenantSpec,
    /// Whether the user-level hint filter is active for this tenant.
    pub mode: FilterMode,
    /// Kill the tenant after this many VM calls (crash modeling).
    pub kill_at_op: Option<u64>,
}

impl TenantProgram {
    /// A guaranteed, unlimited, filtered tenant — the default citizen.
    pub fn new(prog: Program, params: Vec<i64>) -> Self {
        Self {
            prog,
            params,
            spec: TenantSpec::unlimited(),
            mode: FilterMode::Enabled,
            kill_at_op: None,
        }
    }

    /// Same tenant with a different policy.
    pub fn with_spec(mut self, spec: TenantSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Same tenant, killed after `n` VM calls.
    pub fn with_kill_at(mut self, n: u64) -> Self {
        self.kill_at_op = Some(n);
        self
    }
}

/// Per-tenant outcome of a co-scheduled run.
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// FNV-1a checksum of the tenant's final segment contents,
    /// bit-comparable to a solo run of the same program (segments are
    /// page-aligned and programs address arrays relative to their
    /// bindings, so the byte images coincide).
    pub checksum: u64,
    /// Whether the tenant was killed mid-run.
    pub killed: bool,
    /// Simulated time the tenant's interpreter finished.
    pub finished_at: Ns,
    /// Exact 95th-percentile demand stall the tenant experienced:
    /// the page-in service time from blocking to arrival. CPU queueing
    /// behind other tenants after the page lands is scheduler wait,
    /// not demand stall (solo runs resume at arrival, so the two
    /// definitions coincide there).
    pub demand_stall_p95_ns: Ns,
    /// Demand-stall episodes sampled.
    pub demand_stalls: u64,
    /// Frames the tenant still holds (active resident + in-flight)
    /// after the run finished — the quota-enforcement witness.
    pub resident_frames: u64,
    /// The machine's per-tenant counters (faults, drops, evictions).
    pub os: TenantStats,
    /// The tenant's user-level filter counters.
    pub rt: RtStats,
}

/// Whole-machine outcome of a co-scheduled run.
#[derive(Clone, Debug)]
pub struct HubResult {
    /// End-to-end simulated time.
    pub elapsed_ns: Ns,
    /// Machine time ledger (user / fault / prefetch / idle).
    pub time: TimeBreakdown,
    /// Shared OS counters.
    pub os: OsStats,
    /// Figure-5 attribution of the elapsed time.
    pub attr: TimeAttribution,
    /// Observability snapshot, if metrics were enabled.
    pub obs: Option<MetricsReport>,
    /// Per-tenant outcomes, in registration order.
    pub tenants: Vec<TenantOutcome>,
}

/// Scheduler state of one tenant.
#[derive(Clone, Copy, Debug)]
enum Run {
    /// Runnable.
    Ready,
    /// Blocked on a demand read completing at the given time.
    Blocked(Ns),
    /// Finished at the given time.
    Done(Ns),
    /// Killed at the given time.
    Killed(Ns),
}

/// VM calls in one slice. Small enough that a compute-bound tenant
/// cannot starve its neighbours, large enough that switching is noise.
const OPS_PER_SLICE: u64 = 256;

/// The per-tenant half of the runtime layer: hint filter plus demand
/// stall samples.
struct TenantRt {
    filter: HintFilter,
    /// Demand-stall samples (exact, for honest p95s).
    stalls: Vec<Ns>,
    /// Disk wait accrued by the access currently blocked, if any.
    wait: Option<Ns>,
}

/// One tenant's view of the shared machine, for one step of its
/// executor. The program addresses its own space from 0; the view
/// relocates every address by the segment's base.
struct TenantVm<'a> {
    machine: &'a mut Machine,
    rt: &'a mut TenantRt,
    base: u64,
}

impl PagedVm for TenantVm<'_> {
    fn page_bytes(&self) -> u64 {
        self.machine.params().page_bytes
    }

    fn tick_user(&mut self, ns: u64) {
        self.machine.tick_user(ns);
    }

    /// The stall sample is the page-in *service* time: from blocking to
    /// the page's arrival. Alone on the machine the tenant also resumes
    /// at exactly that moment, so the sample equals the wall-clock wait;
    /// co-scheduled, any further delay before the tenant runs again is
    /// CPU queueing behind other tenants — scheduler wait, not demand
    /// stall, and not what the disk scheduler and quotas are answerable
    /// for.
    fn touch_nb(&mut self, addr: u64, write: bool) -> Option<u64> {
        match self.machine.touch_nb(self.base + addr, 8, write) {
            Ok(Touch::Done { .. }) => {
                if let Some(w) = self.rt.wait.take() {
                    self.rt.stalls.push(w);
                }
                None
            }
            Ok(Touch::Blocked { until }) => {
                *self.rt.wait.get_or_insert(0) += until.saturating_sub(self.machine.now());
                Some(until)
            }
            Err(e) => panic!("page-in failed: {e}"),
        }
    }

    // Loads and stores follow a `touch_nb` that made the page ready.
    fn load_f64(&mut self, addr: u64) -> f64 {
        self.machine.peek_f64(self.base + addr)
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        self.machine.poke_f64(self.base + addr, v);
    }

    fn load_i64(&mut self, addr: u64) -> i64 {
        self.machine.peek_i64(self.base + addr)
    }

    fn store_i64(&mut self, addr: u64, v: i64) {
        self.machine.poke_i64(self.base + addr, v);
    }

    fn prefetch(&mut self, addr: u64, pages: u64) {
        let addr = self.base + addr;
        self.rt.filter.prefetch(self.machine, addr, pages, None);
    }

    fn release(&mut self, addr: u64, pages: u64) {
        self.rt
            .filter
            .release(self.machine, self.base + addr, pages);
    }

    fn prefetch_release(&mut self, pf_addr: u64, pf_pages: u64, rel_addr: u64, rel_pages: u64) {
        let (addr, rel) = (self.base + pf_addr, Some((self.base + rel_addr, rel_pages)));
        self.rt.filter.prefetch(self.machine, addr, pf_pages, rel);
    }
}

/// One registered tenant inside the hub.
struct Entry {
    exec: Executor,
    rt: TenantRt,
    run: Run,
    /// Segment-offset array bindings (initialization and verification).
    binds: Vec<ArrayBinding>,
    kill_at_op: Option<u64>,
    seg: Segment,
}

/// The hub: a machine with N registered tenants, ready to run.
pub struct TenantHub {
    machine: Machine,
    entries: Vec<Entry>,
    /// Room for the run's per-tenant outcomes.
    outcomes: Vec<TenantOutcome>,
}

/// Init/verify view of a machine's backing store (zero-cost
/// peek/poke), bridging [`Machine`] to [`oocp_ir::ArrayData`] for
/// workload initializers and verifiers.
pub struct HubData<'a>(pub &'a mut Machine);

impl ArrayData for HubData<'_> {
    fn peek_f64(&self, addr: u64) -> f64 {
        self.0.peek_f64(addr)
    }

    fn poke_f64(&mut self, addr: u64, v: f64) {
        self.0.poke_f64(addr, v);
    }

    fn peek_i64(&self, addr: u64) -> i64 {
        self.0.peek_i64(addr)
    }

    fn poke_i64(&mut self, addr: u64, v: i64) {
        self.0.poke_i64(addr, v);
    }
}

impl TenantHub {
    /// Build a machine hosting `programs` as tenants.
    ///
    /// Each program's arrays are laid out by
    /// [`ArrayBinding::sequential`] inside a private page-aligned
    /// segment; the returned bindings (one `Vec` per tenant, in order)
    /// are segment-offset and ready for initialization through
    /// [`TenantHub::data`]. Machine parameters are validated up front —
    /// a misconfigured machine is a typed [`ConfigError`], not a panic.
    pub fn new(params: MachineParams, programs: Vec<TenantProgram>) -> Result<Self, ConfigError> {
        params.check()?;
        assert!(!programs.is_empty(), "a hub needs at least one tenant");
        // Everything a run needs is allocated before the machine's
        // memory: the lowered programs, the stall records (about one
        // sample per page), and the outcomes. A run then leaves nothing
        // that outlives it next to that memory, where it would fragment
        // the heap from one hub to the next.
        let outcomes = Vec::with_capacity(programs.len());
        let lowered: Vec<_> = programs
            .into_iter()
            .map(|t| {
                let (binds, bytes) = ArrayBinding::sequential(&t.prog, params.page_bytes);
                let exec = Executor::new(&t.prog, &binds, &t.params, CostModel::default());
                let stalls = Vec::with_capacity((bytes / params.page_bytes) as usize);
                (t, binds, bytes, exec, stalls)
            })
            .collect();
        let total: u64 = lowered.iter().map(|l| l.2).sum();
        let mut machine = Machine::new(params, total);
        let entries = lowered
            .into_iter()
            .enumerate()
            .map(|(id, (t, mut binds, bytes, exec, stalls))| {
                let (_, seg) = machine.register_tenant(t.spec, bytes);
                for b in &mut binds {
                    b.base += seg.base;
                }
                let filter = HintFilter::new(&machine, t.mode, t.spec, id as u32, seg);
                Entry {
                    exec,
                    rt: TenantRt {
                        filter,
                        stalls,
                        wait: None,
                    },
                    run: Run::Ready,
                    binds,
                    kill_at_op: t.kill_at_op,
                    seg,
                }
            })
            .collect();
        Ok(Self {
            machine,
            entries,
            outcomes,
        })
    }

    /// Same hub with a different interpreter cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        for e in &mut self.entries {
            e.exec.set_cost(cost);
        }
        self
    }

    /// The shared machine (fault plans, metrics, preloading).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// A tenant's segment-offset array bindings.
    pub fn binds(&self, t: usize) -> &[ArrayBinding] {
        &self.entries[t].binds
    }

    /// A tenant's segment.
    pub fn segment(&self, t: usize) -> Segment {
        self.entries[t].seg
    }

    /// Zero-cost data view for workload initialization.
    pub fn data(&mut self) -> HubData<'_> {
        HubData(&mut self.machine)
    }

    /// Run every tenant to completion, interleaved on the shared
    /// machine, and collect the per-tenant and machine-wide outcomes.
    pub fn run(self) -> HubResult {
        self.run_full().0
    }

    /// [`TenantHub::run`], additionally handing back the finished
    /// machine (for workload verifiers and post-mortems).
    pub fn run_full(self) -> (HubResult, Machine) {
        let Self {
            mut machine,
            mut entries,
            mut outcomes,
        } = self;
        let n = entries.len();
        // Round-robin cursor: the last tenant scheduled.
        let mut rr = n - 1;
        loop {
            let now = machine.now();
            let pick = (1..=n)
                .map(|k| (rr + k) % n)
                .find(|&t| match entries[t].run {
                    Run::Ready => true,
                    Run::Blocked(u) => u <= now,
                    Run::Done(_) | Run::Killed(_) => false,
                });
            let Some(t) = pick else {
                // No tenant is runnable. If any are blocked, the whole
                // machine is waiting on disk: advance the clock (charged
                // as idle) to the earliest completion. Otherwise all are
                // done.
                let next = entries.iter().filter_map(|e| match e.run {
                    Run::Blocked(u) => Some(u),
                    _ => None,
                });
                match next.min() {
                    Some(u) => machine.advance_idle_to(u),
                    None => break,
                }
                continue;
            };
            rr = t;
            machine.set_tenant(t as u32);
            // Run to the end of the slice, or to the kill point.
            let e = &mut entries[t];
            let slice_end = (e.exec.calls() / OPS_PER_SLICE + 1) * OPS_PER_SLICE;
            let limit = e.kill_at_op.map_or(slice_end, |k| slice_end.min(k));
            let mut vm = TenantVm {
                machine: &mut machine,
                rt: &mut e.rt,
                base: e.seg.base,
            };
            e.run = match e.exec.step(&mut vm, limit) {
                Step::Blocked(u) => Run::Blocked(u),
                Step::Yield if e.kill_at_op == Some(e.exec.calls()) => Run::Killed(machine.now()),
                Step::Yield => Run::Ready,
                Step::Done => Run::Done(machine.now()),
            };
        }
        // Flush leftover dirty pages exactly like a solo run's finish.
        let _ = machine.try_finish();
        outcomes.extend(entries.iter_mut().enumerate().map(|(t, e)| {
            let (Run::Done(finished_at) | Run::Killed(finished_at)) = e.run else {
                unreachable!("every tenant ran to the end")
            };
            let sorted = &mut e.rt.stalls;
            sorted.sort_unstable();
            let p95 = if sorted.is_empty() {
                0
            } else {
                sorted[(sorted.len() - 1) * 95 / 100]
            };
            TenantOutcome {
                checksum: segment_checksum(&machine, e.seg),
                killed: matches!(e.run, Run::Killed(_)),
                finished_at,
                demand_stall_p95_ns: p95,
                demand_stalls: sorted.len() as u64,
                resident_frames: machine.tenant_usage(t as u32),
                os: machine.tenant_stats(t as u32),
                rt: e.rt.filter.stats,
            }
        }));
        let res = HubResult {
            elapsed_ns: machine.now(),
            time: machine.breakdown(),
            os: *machine.stats(),
            attr: machine.attribution(),
            obs: machine.metrics_report(),
            tenants: outcomes,
        };
        (res, machine)
    }
}

/// FNV-1a over one segment's final bytes, word by word — the same
/// algorithm (and thus the same value) as the bench harness's
/// whole-space checksum of a solo run of the same program.
pub fn segment_checksum(machine: &Machine, seg: Segment) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut off = 0;
    while off + 8 <= seg.bytes {
        for b in (machine.peek_i64(seg.base + off) as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        off += 8;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use oocp_ir::{lin, run_program, var, ArrayRef, ElemType, Expr, HintTarget, Stmt};
    use oocp_os::QosClass;

    const PAGE: u64 = 4096;
    const WORDS: i64 = (PAGE / 8) as i64;

    /// A paged streaming kernel with compiler-style hints: for each of
    /// `pages` pages, prefetch a 4-page block ahead, bump the page's
    /// first word, and release the page behind.
    fn stream(pages: i64) -> Program {
        let mut p = Program::new("stream");
        let a = p.array("a", ElemType::F64, vec![pages * WORDS]);
        let at = |idx: oocp_ir::LinExpr| ArrayRef::affine(a, vec![idx]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(pages),
            1,
            vec![
                Stmt::Prefetch {
                    target: HintTarget {
                        target: at(var(i).scale(WORDS)),
                    },
                    pages: 4,
                },
                Stmt::Store {
                    dst: at(var(i).scale(WORDS)),
                    value: Expr::add(Expr::LoadF(at(var(i).scale(WORDS))), Expr::ConstF(1.0)),
                },
                Stmt::Release {
                    target: HintTarget {
                        target: at(var(i).scale(WORDS)),
                    },
                    pages: 1,
                },
            ],
        )];
        p
    }

    /// The same data transformation as [`stream`] with no hints at
    /// all: every page is a blocking demand fault, and used pages
    /// accumulate until the daemon (or a memory quota) evicts them.
    fn demand(pages: i64) -> Program {
        let mut p = Program::new("demand");
        let a = p.array("a", ElemType::F64, vec![pages * WORDS]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(pages),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(a, vec![var(i).scale(WORDS)]),
                value: Expr::add(
                    Expr::LoadF(ArrayRef::affine(a, vec![var(i).scale(WORDS)])),
                    Expr::ConstF(1.0),
                ),
            }],
        )];
        p
    }

    /// An out-of-core machine: 64 frames against 256-page tenants.
    fn params() -> MachineParams {
        let mut p = MachineParams::small();
        p.resident_limit = 64;
        p.demand_reserve = 4;
        p.low_water = 8;
        p.high_water = 16;
        p
    }

    /// Deterministic per-tenant fill pattern.
    fn fill(data: &mut dyn ArrayData, base: u64, bytes: u64, salt: u64) {
        let mut off = 0;
        while off < bytes {
            data.poke_f64(base + off, (off / 8 + salt) as f64);
            off += 8;
        }
    }

    /// Run `prog` alone through the classic blocking [`Runtime`].
    fn solo_runtime(prog: &Program, salt: u64) -> (u64, Ns, oocp_os::OsStats) {
        let (bytes, _) = layout_bytes(prog);
        let (mut rt, binds) = Runtime::for_program(params(), prog, FilterMode::Enabled);
        fill(&mut rt, 0, bytes, salt);
        run_program(prog, &binds, &[], CostModel::default(), &mut rt);
        let mut machine = rt.into_machine();
        machine.try_finish().unwrap();
        let sum = segment_checksum(&machine, Segment { base: 0, bytes });
        (sum, machine.now(), *machine.stats())
    }

    fn layout_bytes(prog: &Program) -> (u64, Vec<ArrayBinding>) {
        let (binds, bytes) = ArrayBinding::sequential(prog, PAGE);
        (bytes, binds)
    }

    /// Run `prog` alone through the hub (one registered tenant).
    fn solo_hub(prog: &Program, salt: u64) -> HubResult {
        let mut hub =
            TenantHub::new(params(), vec![TenantProgram::new(prog.clone(), vec![])]).unwrap();
        let seg = hub.segment(0);
        fill(&mut hub.data(), seg.base, seg.bytes, salt);
        hub.run()
    }

    #[test]
    fn solo_via_hub_is_cycle_identical_to_runtime() {
        let prog = stream(256);
        let (sum, elapsed, os) = solo_runtime(&prog, 3);
        let hub = solo_hub(&prog, 3);
        assert_eq!(hub.tenants[0].checksum, sum, "data image must match");
        assert_eq!(hub.elapsed_ns, elapsed, "sim clock must match");
        assert_eq!(hub.os.hard_faults, os.hard_faults);
        assert_eq!(hub.os.soft_faults, os.soft_faults);
        assert_eq!(hub.os.prefetch_pages_issued, os.prefetch_pages_issued);
        assert_eq!(hub.os.hint_syscalls, os.hint_syscalls);
        assert_eq!(hub.os.fault_wait.sum(), os.fault_wait.sum());
        assert!(!hub.tenants[0].killed);
    }

    #[test]
    fn co_scheduled_tenants_keep_their_solo_checksums_and_beat_serial() {
        // A demand-bound workload: one outstanding disk read per solo
        // tenant, so a lone run leaves the array idle and co-scheduling
        // has stalls to overlap.
        let prog = demand(256);
        let solo: Vec<HubResult> = (0..3).map(|t| solo_hub(&prog, t)).collect();
        let mut hub = TenantHub::new(
            params(),
            (0..3)
                .map(|_| TenantProgram::new(prog.clone(), vec![]))
                .collect(),
        )
        .unwrap();
        for t in 0..3 {
            let seg = hub.segment(t);
            fill(&mut hub.data(), seg.base, seg.bytes, t as u64);
        }
        let res = hub.run();
        for (t, s) in solo.iter().enumerate() {
            assert_eq!(
                res.tenants[t].checksum, s.tenants[0].checksum,
                "tenant {t} must be bit-identical to its solo run"
            );
            assert!(res.tenants[t].demand_stalls > 0, "tenant {t} paged");
        }
        // The run truly interleaved: the clock beats the serial sum of
        // the solo runs because their demand stalls overlap.
        let serial: Ns = solo.iter().map(|r| r.elapsed_ns).sum();
        assert!(
            res.elapsed_ns < serial,
            "co-scheduling ({}) must beat serial ({serial})",
            res.elapsed_ns
        );
    }

    #[test]
    fn killed_tenant_leaves_the_survivor_bit_exact() {
        let prog = stream(256);
        let survivor_solo = solo_hub(&prog, 0).tenants[0].checksum;
        let mut hub = TenantHub::new(
            params(),
            vec![
                TenantProgram::new(prog.clone(), vec![]),
                TenantProgram::new(prog.clone(), vec![]).with_kill_at(500),
            ],
        )
        .unwrap();
        for t in 0..2 {
            let seg = hub.segment(t);
            fill(&mut hub.data(), seg.base, seg.bytes, t as u64);
        }
        let res = hub.run();
        assert!(res.tenants[1].killed, "tenant 1 must have been killed");
        assert!(!res.tenants[0].killed);
        assert_eq!(
            res.tenants[0].checksum, survivor_solo,
            "the survivor's data must be untouched by the crash"
        );
    }

    #[test]
    fn quota_starved_tenant_still_terminates_with_correct_data() {
        // No releases: used pages pile up, so the 2-frame quota forces
        // the starved tenant to recycle its own frames on every fault.
        let prog = demand(128);
        let solo = solo_hub(&prog, 9).tenants[0].checksum;
        let starved = TenantSpec::unlimited().with_memory_frames(2);
        let mut hub = TenantHub::new(
            params(),
            vec![
                TenantProgram::new(prog.clone(), vec![]),
                TenantProgram::new(prog.clone(), vec![]).with_spec(starved),
            ],
        )
        .unwrap();
        for t in 0..2 {
            let seg = hub.segment(t);
            fill(&mut hub.data(), seg.base, seg.bytes, 9);
        }
        let res = hub.run();
        for t in 0..2 {
            assert_eq!(res.tenants[t].checksum, solo, "tenant {t} data");
        }
        assert!(
            res.tenants[1].os.quota_evictions > 0,
            "the starved tenant must have recycled its own frames"
        );
    }

    /// One block prefetch of `pages` pages at page `at` of a
    /// `len`-page array, and nothing else.
    fn one_hint(len: i64, at: i64, pages: u64) -> Program {
        let mut p = Program::new("hint");
        let a = p.array("a", ElemType::F64, vec![len * WORDS]);
        p.body = vec![Stmt::Prefetch {
            target: HintTarget {
                target: ArrayRef::affine(a, vec![lin(at * WORDS)]),
            },
            pages,
        }];
        p
    }

    /// Co-schedule `tenants` on the out-of-core machine under a
    /// resident-limit schedule (see [`Machine::set_pressure_schedule`]).
    fn co_run(tenants: Vec<(Program, TenantSpec)>, pressure: Vec<(Ns, u64)>) -> HubResult {
        let n = tenants.len();
        let programs = tenants
            .into_iter()
            .map(|(p, s)| TenantProgram::new(p, vec![]).with_spec(s))
            .collect();
        let mut hub = TenantHub::new(params(), programs).unwrap();
        for t in 0..n {
            let seg = hub.segment(t);
            fill(&mut hub.data(), seg.base, seg.bytes, t as u64);
        }
        hub.machine_mut().set_pressure_schedule(pressure);
        hub.run()
    }

    fn spec(qos: QosClass) -> TenantSpec {
        TenantSpec::unlimited().with_qos(qos)
    }

    /// For each of `pages` pages: prefetch a 4-page block `dist` pages
    /// ahead and bump the page's first word; nothing is released.
    fn ahead(pages: i64, dist: i64) -> Program {
        let mut p = Program::new("ahead");
        let a = p.array("a", ElemType::F64, vec![pages * WORDS]);
        let at = |idx: oocp_ir::LinExpr| ArrayRef::affine(a, vec![idx]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(pages),
            1,
            vec![
                Stmt::Prefetch {
                    target: HintTarget {
                        target: at(var(i).offset(dist).scale(WORDS)),
                    },
                    pages: 4,
                },
                Stmt::Store {
                    dst: at(var(i).scale(WORDS)),
                    value: Expr::add(Expr::LoadF(at(var(i).scale(WORDS))), Expr::ConstF(1.0)),
                },
            ],
        )];
        p
    }

    #[test]
    fn brownout_degrades_non_guaranteed_tenants_until_probes_recover() {
        // The guaranteed hog opens with a 64-page block prefetch that
        // fills memory with in-flight reads: the pool drains below the
        // low watermark, a brownout.
        let mut hog = demand(256);
        hog.body.insert(
            0,
            Stmt::Prefetch {
                target: HintTarget {
                    target: ArrayRef::affine(0, vec![lin(0)]),
                },
                pages: 64,
            },
        );
        let res = co_run(
            vec![
                (hog, spec(QosClass::Guaranteed)),
                (stream(256), spec(QosClass::Burstable)),
                (stream(256), spec(QosClass::BestEffort)),
            ],
            vec![],
        );
        let g = &res.tenants[0].rt;
        assert_eq!(g.degraded_entries, 0, "guaranteed tenants never degrade");
        assert_eq!(g.hints_dropped_degraded, 0);
        for (t, out) in res.tenants.iter().enumerate().skip(1) {
            let rt = &out.rt;
            assert!(rt.degraded_entries >= 1, "tenant {t} must degrade");
            assert!(rt.hints_dropped_degraded > 0, "tenant {t} drops hints");
            assert!(
                rt.degraded_probes >= Runtime::EXIT_CLEAN_PROBES as u64,
                "tenant {t} probes its way out"
            );
            assert_eq!(
                rt.degraded_exits, rt.degraded_entries,
                "tenant {t} recovers"
            );
            assert!(rt.degraded_ns > 0);
        }
        assert_eq!(res.os.hints_dropped_on_error, 0, "no I/O errors involved");
    }

    #[test]
    fn pressure_sheds_count_as_hint_errors_only_below_guaranteed() {
        // Nothing is released, so memory stays full and the pool sits
        // between the watermarks: elevated pressure, where only the
        // best-effort tenant's pipelining is shed.
        let res = co_run(
            vec![
                (ahead(256, 16), spec(QosClass::Guaranteed)),
                (ahead(256, 16), spec(QosClass::Burstable)),
                (ahead(256, 16), spec(QosClass::BestEffort)),
            ],
            vec![],
        );
        assert_eq!(res.os.hints_dropped_on_error, 0, "no I/O errors involved");
        let [g, b, be] = [&res.tenants[0], &res.tenants[1], &res.tenants[2]];
        assert_eq!(g.os.hints_dropped_pressure, 0);
        assert_eq!(g.rt.degraded_entries, 0);
        // The burstable tenant never saw a brownout at a hint (it would
        // have degraded on the spot), so the best-effort tenant's
        // episodes were entered through its error window, fed by sheds.
        assert_eq!(b.os.hints_dropped_pressure, 0);
        assert_eq!(b.rt.degraded_entries, 0);
        assert!(be.os.hints_dropped_pressure > 0, "best effort is shed");
        assert!(be.rt.degraded_entries > 0, "sheds count as hint errors");
    }

    #[test]
    fn hints_clamp_to_segment_depth_and_elevated_best_effort_slots() {
        // Segment end: 8 pages named at tenant 0's last page would run
        // into tenant 1's segment.
        let res = co_run(
            vec![
                (one_hint(4, 3, 8), TenantSpec::unlimited()),
                (one_hint(4, 0, 1), TenantSpec::unlimited()),
            ],
            vec![],
        );
        assert_eq!(res.tenants[0].rt.prefetch_pages, 1);
        assert_eq!(res.tenants[0].os.prefetch_pages_issued, 1);
        // Pipeline depth quota.
        let shallow = TenantSpec {
            max_pipeline_depth: Some(2),
            ..TenantSpec::unlimited()
        };
        let res = co_run(vec![(one_hint(16, 0, 8), shallow)], vec![]);
        assert_eq!(res.tenants[0].rt.prefetch_pages, 2);
        // Elevated pressure: tenant 0's 50 in-flight pages leave a pool
        // of 14 frames, between the watermarks (8 and 16). Only the
        // best-effort tenant is clamped.
        let res = co_run(
            vec![
                (one_hint(64, 0, 50), TenantSpec::unlimited()),
                (one_hint(16, 0, 8), spec(QosClass::BestEffort)),
                (one_hint(16, 0, 8), spec(QosClass::Burstable)),
            ],
            vec![],
        );
        assert_eq!(res.tenants[0].rt.prefetch_pages, 50);
        assert_eq!(
            res.tenants[1].rt.prefetch_pages,
            oocp_os::ELEVATED_BEST_EFFORT_SLOTS
        );
        assert_eq!(res.tenants[2].rt.prefetch_pages, 8);
    }

    #[test]
    fn bad_machine_params_surface_as_config_error() {
        let mut p = params();
        p.low_water = p.high_water + 1;
        let err = TenantHub::new(p, vec![TenantProgram::new(stream(8), vec![])])
            .err()
            .expect("inverted watermarks must be rejected");
        assert!(err.to_string().contains("low watermark"));
    }
}
