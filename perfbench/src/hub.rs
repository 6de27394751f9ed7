//! The `tenants-2` workload: two EMBAR tenants co-scheduled by
//! `TenantHub`, and the same tenants run alone through `Runtime` as the
//! reference for their results and for the hub's cost.

use oocp_bench::tenants::{platform, qos_for};
use oocp_bench::{Config, Mode};
use oocp_core::{compile, CompileReport, CompilerParams};
use oocp_ir::{ArrayBinding, Program};
use oocp_nas::{build, App, Workload};
use oocp_os::{Machine, TenantSpec};
use oocp_rt::{FilterMode, HubData, Runtime, TenantHub, TenantProgram};

use crate::cells::{distill, measure, CellRun, Ledger, RunTimes, Scale, SetupTimes, Sim};
use crate::host::Span;

/// A co-scheduled workload: `tenants` copies of EMBAR, each reserved
/// an equal share of the frames and holding data twice its share.
#[derive(Clone, Copy, Debug)]
pub struct HubSuite {
    /// Platform (DemandPriority, queue depth 64), cost model, seed.
    pub cfg: Config,
    /// Tenants co-scheduled.
    pub tenants: usize,
}

/// One tenant's outcome in the co-scheduled run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantOut {
    /// Final segment checksum.
    pub checksum: u64,
    /// p95 demand stall, simulated ns.
    pub p95_ns: u64,
    /// Frames taken back because the tenant exceeded its reservation.
    pub quota_evictions: u64,
}

/// One co-scheduled run.
#[derive(Clone, Debug)]
pub struct HubRun {
    /// Machine-wide simulated numbers; `elapsed_ns` is the makespan.
    pub sim: Sim,
    /// Per-tenant outcomes.
    pub tenants: Vec<TenantOut>,
    /// Ledger outcomes (traced runs only).
    pub ledger: Option<Ledger>,
    /// Host time the set-up took.
    pub setup: SetupTimes,
    /// `program_s` is `TenantHub::run` (interpretation of every tenant,
    /// simulation, and the final flush); `finish_s` is 0.
    pub run: RunTimes,
    /// Why the run is wrong, if it is.
    pub failure: Option<String>,
}

/// A hub set up and ready to run.
pub struct PreparedHub {
    w: Workload,
    report: CompileReport,
    hub: TenantHub,
    binds: Vec<Vec<ArrayBinding>>,
    /// Host time the set-up took.
    pub setup: SetupTimes,
}

impl PreparedHub {
    /// Run every tenant to completion on the shared machine, then
    /// verify each tenant's data.
    pub fn run(self) -> HubRun {
        let Self {
            w,
            report,
            hub,
            binds,
            setup,
        } = self;
        let mut run = RunTimes::default();
        let t0 = Span::start();
        let (res, mut machine) = hub.run_full();
        run.program_s = t0.secs();
        let t = Span::start();
        let view = HubData(&mut machine);
        let mut failure = binds
            .iter()
            .enumerate()
            .find_map(|(i, b)| w.verify(b, &view).err().map(|e| format!("tenant {i}: {e}")));
        run.verify_s = t.secs();
        run.run_s = t0.secs();

        if let Some(i) = res.tenants.iter().position(|t| t.killed) {
            failure.get_or_insert(format!("tenant {i} was killed"));
        }
        let mut sim = Sim::of_machine(&machine);
        sim.elapsed_ns = res.elapsed_ns;
        sim.checksum = res
            .tenants
            .iter()
            .fold(0, |h, t| h.rotate_left(17) ^ t.checksum);
        sim.prefetch_ops = res.tenants.iter().map(|t| t.rt.prefetch_ops).sum();
        sim.ops_fully_filtered = res.tenants.iter().map(|t| t.rt.ops_fully_filtered).sum();
        sim.prefetch_groups = report.prefetched_groups() as u64;
        HubRun {
            sim,
            tenants: res
                .tenants
                .iter()
                .map(|t| TenantOut {
                    checksum: t.checksum,
                    p95_ns: t.demand_stall_p95_ns,
                    quota_evictions: t.os.quota_evictions,
                })
                .collect(),
            ledger: res.obs.as_ref().map(Ledger::of),
            setup,
            run,
            failure,
        }
    }
}

impl HubSuite {
    /// Two tenants, Guaranteed and Burstable, on the co-scheduling
    /// platform with `paper-2x`'s 2 MB of memory at full scale. On a
    /// larger memory the tenants' data spills the host's caches and the
    /// hub's host time follows the probe (`host::probe_s`) too weakly
    /// for scaling by it to steady `run_s`.
    pub fn tenants_2(seed: u64, scale: Scale) -> Self {
        let mut cfg = platform();
        let mem = match scale {
            Scale::Full => 2 << 20,
            Scale::Tiny => 1 << 20,
        };
        cfg.machine = cfg.machine.with_memory_bytes(mem);
        cfg.seed = seed;
        Self { cfg, tenants: 2 }
    }

    /// Frames reserved per tenant.
    pub fn reservation(&self) -> u64 {
        self.cfg.machine.resident_limit / self.tenants as u64
    }

    /// Tenant `t`'s spec: its QoS class and reservation.
    pub fn spec(&self, t: usize) -> TenantSpec {
        TenantSpec::unlimited()
            .with_qos(qos_for(t))
            .with_memory_frames(self.reservation())
    }

    /// Tenant `t`'s init seed.
    pub fn seed_of(&self, t: usize) -> u64 {
        self.cfg.seed + t as u64
    }

    /// The tenant workload (data twice a reservation), compiled for the
    /// reservation rather than the whole machine.
    fn prepare(&self, setup: &mut SetupTimes) -> (Workload, Program, CompileReport) {
        let m = &self.cfg.machine;
        let t = Span::start();
        let w = build(App::Embar, 2 * self.reservation() * m.page_bytes);
        setup.build_s += t.secs();
        let t = Span::start();
        let cp = CompilerParams::new(
            m.page_bytes,
            self.reservation() * m.page_bytes,
            m.disk.avg_access_ns() + m.fault_overhead_ns,
        )
        .with_cost(self.cfg.cost);
        let (prog, report) = compile(&w.prog, &cp);
        setup.compile_s += t.secs();
        (w, prog, report)
    }

    /// Set up the co-scheduled hub; `metrics` turns the ledger on
    /// (traced runs).
    pub fn prepare_hub(&self, metrics: bool) -> PreparedHub {
        let mut setup = SetupTimes::default();
        let (w, prog, report) = self.prepare(&mut setup);

        let t = Span::start();
        let programs = (0..self.tenants)
            .map(|t| {
                TenantProgram::new(prog.clone(), w.param_values.clone()).with_spec(self.spec(t))
            })
            .collect();
        let mut hub = TenantHub::new(self.cfg.machine, programs)
            .expect("the co-scheduling platform is a valid machine")
            .with_cost(self.cfg.cost);
        if metrics {
            hub.machine_mut().enable_metrics();
        }
        let binds: Vec<Vec<ArrayBinding>> =
            (0..self.tenants).map(|t| hub.binds(t).to_vec()).collect();
        setup.os_s = t.secs();

        let t = Span::start();
        for (i, b) in binds.iter().enumerate() {
            w.init(b, &mut hub.data(), self.seed_of(i));
        }
        setup.init_s = t.secs();
        PreparedHub {
            w,
            report,
            hub,
            binds,
            setup,
        }
    }

    /// Tenant `t` alone on the machine through `Runtime`, under its
    /// reservation: the reference checksum and the solo elapsed time.
    /// A `traced` run goes through the probe, as in
    /// [`crate::cells::run_cell`].
    pub fn run_solo(&self, t: usize, traced: bool) -> CellRun {
        let mut setup = SetupTimes::default();
        let (w, prog, report) = self.prepare(&mut setup);
        let s = Span::start();
        let (binds, bytes) = ArrayBinding::sequential(&w.prog, self.cfg.machine.page_bytes);
        let mut machine = Machine::new(self.cfg.machine, bytes);
        let (_, seg) = machine.register_tenant(self.spec(t), bytes);
        assert_eq!(
            seg.base, 0,
            "a lone tenant's segment starts the address space"
        );
        let mut rt = Runtime::new(machine, FilterMode::Enabled);
        if traced {
            rt = rt.with_metrics();
        }
        setup.os_s = s.secs();
        let s = Span::start();
        w.init(&binds, &mut rt, self.seed_of(t));
        setup.init_s = s.secs();
        let (exec, run, failure) = measure(&mut rt, &prog, &binds, &w, self.cfg.cost, traced);
        let (sim, ledger) = distill(&rt, &exec, Some(&report), bytes);
        CellRun {
            app: App::Embar,
            mode: Mode::Prefetch,
            sim,
            ledger,
            setup,
            run,
            failure,
        }
    }

    /// Tenant `t`'s p95 demand stall when it runs alone in a one-tenant
    /// hub — the base of the co-scheduled p95 ratio (the hub measures
    /// the stall; `Runtime` does not).
    pub fn solo_hub_p95(&self, t: usize) -> u64 {
        let (w, prog, _) = self.prepare(&mut SetupTimes::default());
        let program = TenantProgram::new(prog, w.param_values.clone()).with_spec(self.spec(t));
        let mut hub = TenantHub::new(self.cfg.machine, vec![program])
            .expect("the co-scheduling platform is a valid machine")
            .with_cost(self.cfg.cost);
        let binds = hub.binds(0).to_vec();
        w.init(&binds, &mut hub.data(), self.seed_of(t));
        hub.run().tenants[0].demand_stall_p95_ns
    }
}
