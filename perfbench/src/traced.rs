//! The traced run's probe: a forwarding [`PagedVm`] around the run-time
//! layer that times calls into the `rt` and `os` layers from outside
//! the program.
//!
//! Every call is classified exactly, from counter deltas the layers
//! already keep: a load/store is a *fault* when `OsStats::hard_faults`
//! moved, else a *hit*; a hint call is *filtered* when neither
//! `RtStats::prefetch_syscalls` nor `RtStats::release_syscalls` moved,
//! else a *hint call* that reached the OS. Only a deterministic sample
//! of the cheap calls is timed, because a clock read costs more than a
//! resident touch: loads/stores to pages the residency bit vector says
//! are absent (the likely faults) are always timed; every
//! [`SAMPLE`]-th call of the other streams is timed and weighted by
//! [`SAMPLE`]. Each class total is the weighted sum of its timed
//! calls, less the cost of a clock read per timed call, measured by
//! timing an empty interval next to every sampled call. `tick_user`
//! (charging computation to the simulated clock, a few ns) is below the
//! clock's resolution and is forwarded untimed, so its cost stays in
//! the interpreter's self time. The probe reads counters and the bit
//! vector but never writes the machine, so the simulated run is the
//! untraced run, bit for bit.

use std::time::Instant;

use oocp_ir::PagedVm;
use oocp_rt::Runtime;

/// One timed call in this many of each cheap stream.
pub const SAMPLE: u64 = 16;

/// Host time of one call class, estimated from its timed sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Class {
    /// Calls of this class (exact).
    pub calls: u64,
    /// Weighted sum of the timed intervals, clock cost included, ns.
    raw_ns: f64,
    /// Sum of the weights of the timed calls.
    weight: u64,
}

impl Class {
    fn add(&mut self, ns: u128, weight: u64) {
        self.raw_ns += ns as f64 * weight as f64;
        self.weight += weight;
    }

    /// Estimated host ns in all calls of the class, given the cost of a
    /// clock read as it shows in a timed interval (never negative).
    pub fn ns(&self, clock_ns: f64) -> f64 {
        (self.raw_ns - self.weight as f64 * clock_ns).max(0.0)
    }

    /// Mean host ns per call (0 when the class saw no calls).
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns(clock_ns) / self.calls as f64
        }
    }

    fn merge(&mut self, o: &Class) {
        self.calls += o.calls;
        self.raw_ns += o.raw_ns;
        self.weight += o.weight;
    }
}

/// Per-class host time of the calls a program made into the VM, and
/// the clock cost measured alongside them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VmTimes {
    /// Loads/stores that did not hard-fault (`os`).
    pub hit: Class,
    /// Loads/stores that hard-faulted (`os` fault path, `disk`).
    pub fault: Class,
    /// Hint calls absorbed by the user-level filter (`rt`).
    pub filtered: Class,
    /// Hint calls that reached the OS (`rt` + `os` + `disk`).
    pub hint_call: Class,
    /// Empty intervals timed during the run, and their total ns.
    empty: u64,
    empty_ns: u128,
}

impl VmTimes {
    /// Mean ns of an empty timed interval: the clock cost subtracted
    /// from every timed call.
    pub fn clock_ns(&self) -> f64 {
        if self.empty == 0 {
            0.0
        } else {
            self.empty_ns as f64 / self.empty as f64
        }
    }

    /// Estimated host nanoseconds inside the VM, all classes.
    pub fn total_ns(&self) -> f64 {
        let clock = self.clock_ns();
        [self.hit, self.fault, self.filtered, self.hint_call]
            .iter()
            .map(|c| c.ns(clock))
            .sum()
    }

    /// Fold another run's classes in.
    pub fn merge(&mut self, o: &VmTimes) {
        self.hit.merge(&o.hit);
        self.fault.merge(&o.fault);
        self.filtered.merge(&o.filtered);
        self.hint_call.merge(&o.hint_call);
        self.empty += o.empty;
        self.empty_ns += o.empty_ns;
    }
}

/// Run `f`, returning its value and the host ns the interval took.
#[inline(always)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_nanos())
}

/// The forwarding probe. See the module docs.
pub struct TracedVm<'a> {
    rt: &'a mut Runtime,
    /// Calls seen per sampled stream: predicted-resident touch, hint.
    seen: [u64; 2],
    /// Accumulated per-class times.
    pub times: VmTimes,
}

const TOUCH: usize = 0;
const HINT: usize = 1;

impl<'a> TracedVm<'a> {
    /// Wrap `rt`.
    pub fn new(rt: &'a mut Runtime) -> Self {
        Self {
            rt,
            seen: [0; 2],
            times: VmTimes::default(),
        }
    }

    /// Whether this call of `stream` is in the timed sample. Every
    /// sampled call also times one empty interval, so the clock cost
    /// is measured under the same conditions as the calls.
    fn sampled(&mut self, stream: usize) -> bool {
        let k = self.seen[stream];
        self.seen[stream] += 1;
        if !k.is_multiple_of(SAMPLE) {
            return false;
        }
        let ((), ns) = timed(|| ());
        self.times.empty += 1;
        self.times.empty_ns += ns;
        true
    }

    fn syscalls(&self) -> u64 {
        let s = self.rt.stats();
        s.prefetch_syscalls + s.release_syscalls
    }

    /// Run one load/store, timing it if it is likely to fault or is
    /// in the sample, and classify it by the hard-fault delta.
    fn touch<T>(&mut self, addr: u64, f: impl FnOnce(&mut Runtime) -> T) -> T {
        let m = self.rt.machine();
        let faults = m.stats().hard_faults;
        let weight = if !m.bits().test(m.page_of(addr)) {
            1
        } else if self.sampled(TOUCH) {
            SAMPLE
        } else {
            0
        };
        let (v, ns) = if weight > 0 {
            timed(|| f(self.rt))
        } else {
            (f(self.rt), 0)
        };
        let class = if self.rt.machine().stats().hard_faults > faults {
            &mut self.times.fault
        } else {
            &mut self.times.hit
        };
        class.calls += 1;
        if weight > 0 {
            class.add(ns, weight);
        }
        v
    }

    /// Run one hint call, timing it if it is in the sample, and
    /// classify it by the syscall delta.
    fn hint(&mut self, f: impl FnOnce(&mut Runtime)) {
        let before = self.syscalls();
        let ns = if self.sampled(HINT) {
            Some(timed(|| f(self.rt)).1)
        } else {
            f(self.rt);
            None
        };
        let class = if self.syscalls() > before {
            &mut self.times.hint_call
        } else {
            &mut self.times.filtered
        };
        class.calls += 1;
        if let Some(ns) = ns {
            class.add(ns, SAMPLE);
        }
    }
}

impl PagedVm for TracedVm<'_> {
    fn page_bytes(&self) -> u64 {
        self.rt.page_bytes()
    }

    fn tick_user(&mut self, ns: u64) {
        self.rt.tick_user(ns);
    }

    fn load_f64(&mut self, addr: u64) -> f64 {
        self.touch(addr, |rt| rt.load_f64(addr))
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        self.touch(addr, |rt| rt.store_f64(addr, v));
    }

    fn load_i64(&mut self, addr: u64) -> i64 {
        self.touch(addr, |rt| rt.load_i64(addr))
    }

    fn store_i64(&mut self, addr: u64, v: i64) {
        self.touch(addr, |rt| rt.store_i64(addr, v));
    }

    fn prefetch(&mut self, addr: u64, pages: u64) {
        self.hint(|rt| rt.prefetch(addr, pages));
    }

    fn release(&mut self, addr: u64, pages: u64) {
        self.hint(|rt| rt.release(addr, pages));
    }

    fn prefetch_release(&mut self, pf_addr: u64, pf_pages: u64, rel_addr: u64, rel_pages: u64) {
        self.hint(|rt| rt.prefetch_release(pf_addr, pf_pages, rel_addr, rel_pages));
    }
}
