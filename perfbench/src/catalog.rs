//! Every workload and metric the benchmark reports, with what each
//! per-layer metric is expected to move. `BENCHMARK.json` at the
//! repository root mirrors this file; a test keeps the two equal.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its name and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper-2x",
        why: "Figure 3: all 8 NAS kernels, O and P, data 2x a 2 MB memory; faults, hints, write-backs and disk queues all busy",
    },
    Workload {
        name: "incore-warm",
        why: "Figure 6 warm start: all 8 NAS kernels, O and P, preloaded data 25% of 8 MB; no faults, interpreter and hint filter do the work",
    },
    Workload {
        name: "tenants-2",
        why: "two EMBAR tenants co-scheduled by TenantHub, each out of core in half the memory; the only workload on the hub, its baton and quotas",
    },
];

/// A metric a user of the reproduction sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "sim_s",
        unit: "sim-s",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "sim_speedup",
        unit: "x",
        better: Better::Higher,
        bound: 0.02,
    },
];

/// A metric of one layer, from the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metrics this one should move, each with the
    /// workloads it should move them on. Empty for report-only metrics.
    pub moves: &'static [(&'static str, &'static [&'static str])],
}

const ALL: &[&str] = &["paper-2x", "incore-warm", "tenants-2"];
const PAPER: &[&str] = &["paper-2x"];
const WARM_PAPER: &[&str] = &["incore-warm", "paper-2x"];
const TENANTS: &[&str] = &["tenants-2"];
const OOC: &[&str] = &["paper-2x", "tenants-2"];
/// What a simulated counter moves: simulated time out of core.
const SIM: &[(&str, &[&str])] = &[("sim_s", OOC), ("sim_speedup", OOC)];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static [&'static str])],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, printed by every traced run. Host times of
/// the measured phase partition `trace.run_s`: `ir.self_s +
/// os.touch_hit_s + os.touch_fault_s + rt.filtered_s + rt.hint_call_s +
/// os.finish_s + nas.verify_s` (on `tenants-2`: `hub.run_s +
/// nas.verify_s`, with the `ir`/`os`/`rt` split taken from the solo
/// runs that make up `hub.solo_s`).
pub const PER_LAYER: [Layer; 48] = [
    // ir: the interpreter.
    layer("ir.self_s", "s", Lower, &[("run_s", ALL)]),
    layer("ir.ops", "count", Lower, &[("run_s", &["incore-warm"])]),
    layer("ir.ns_per_op", "ns", Lower, &[("run_s", ALL)]),
    // os: resident touches, the fault path, the flush.
    layer("os.touch_hit_s", "s", Lower, &[("run_s", ALL)]),
    layer("os.touch_hit_ns", "ns", Lower, &[("run_s", ALL)]),
    layer("os.touch_fault_s", "s", Lower, &[("run_s", PAPER)]),
    layer("os.touch_fault_ns", "ns", Lower, &[("run_s", PAPER)]),
    layer("os.finish_s", "s", Lower, &[("run_s", PAPER)]),
    layer("os.setup_s", "s", Lower, &[("setup_s", ALL)]),
    // rt: the user-level hint filter.
    layer("rt.filtered_s", "s", Lower, &[("run_s", WARM_PAPER)]),
    layer("rt.filtered_ns", "ns", Lower, &[("run_s", WARM_PAPER)]),
    layer("rt.hint_call_s", "s", Lower, &[("run_s", PAPER)]),
    layer("rt.hint_call_ns", "ns", Lower, &[("run_s", PAPER)]),
    // nas and core: set-up and verification.
    layer("nas.build_s", "s", Lower, &[("setup_s", ALL)]),
    layer("nas.init_s", "s", Lower, &[("setup_s", ALL)]),
    layer("nas.verify_s", "s", Lower, &[("run_s", ALL)]),
    layer("core.compile_s", "s", Lower, &[("setup_s", ALL)]),
    // Simulated counters of the prefetching runs.
    layer("rt.prefetch_ops", "count", Lower, SIM),
    layer("rt.filter_ratio", "ratio", Higher, SIM),
    layer("core.coverage", "ratio", Higher, SIM),
    layer("core.prefetch_groups", "count", Higher, SIM),
    layer("os.hard_faults", "count", Lower, SIM),
    layer("os.prefetched_hits", "count", Higher, SIM),
    layer("os.writebacks", "count", Lower, SIM),
    layer("os.hint_useful_ratio", "ratio", Higher, SIM),
    layer("os.late", "count", Lower, SIM),
    layer("os.dropped", "count", Lower, SIM),
    layer("os.evicted_unused", "count", Lower, SIM),
    layer("os.compute_frac", "ratio", Higher, SIM),
    layer("os.demand_stall_frac", "ratio", Lower, SIM),
    layer("os.late_stall_frac", "ratio", Lower, SIM),
    layer(
        "os.hint_overhead_frac",
        "ratio",
        Lower,
        &[("sim_s", OOC), ("sim_speedup", ALL)],
    ),
    layer("os.fault_overhead_frac", "ratio", Lower, SIM),
    layer("disk.util", "ratio", Higher, SIM),
    layer("disk.demand_wait_ms", "sim-ms", Lower, SIM),
    layer("disk.prefetch_wait_ms", "sim-ms", Lower, SIM),
    layer("disk.write_wait_ms", "sim-ms", Lower, SIM),
    layer("disk.blocks_per_request", "count", Higher, SIM),
    layer("disk.queue_hwm", "count", Lower, SIM),
    // The tenant hub.
    layer("hub.run_s", "s", Lower, &[("run_s", TENANTS)]),
    layer("hub.solo_s", "s", Lower, &[("run_s", TENANTS)]),
    layer("hub.overhead_s", "s", Lower, &[("run_s", TENANTS)]),
    layer("hub.quota_evictions", "count", Lower, &[("sim_s", TENANTS)]),
    layer("hub.p95_ratio", "ratio", Lower, &[("sim_speedup", TENANTS)]),
    layer(
        "tenant_p95_stall_ms",
        "sim-ms",
        Lower,
        &[("sim_s", TENANTS)],
    ),
    // Report only.
    layer("trace.run_s", "s", Lower, &[]),
    layer("trace.overhead_frac", "ratio", Lower, &[]),
    layer("host.calib_s", "s", Lower, &[]),
];

/// The `BENCHMARK.json` this catalogue implies, as its text.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
          \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"perfbench\"],\n";
    s += &format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS);
    s += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}
