//! Facts about the host the benchmark ran on, and small statistics.

use std::hint::black_box;

/// CPU seconds of the probe loop on a reference host: a 2-vCPU KVM
/// guest on an Intel Xeon (Emerald Rapids), when its host was quiet.
/// [`scaled`] expresses host times at this speed.
pub const PROBE_REF_S: f64 = 0.012;

/// CPU seconds of one probe: a fixed loop of eight independent
/// add/xor/rotate chains, then a stream of unpredictable branches.
///
/// It uses no memory beyond registers and L1, so the program under test
/// cannot slow it; only the host can (most likely through a busy
/// sibling hyperthread or a lower clock). The interpreter loses speed
/// to the same causes, so a measured time divided by a probe taken
/// alongside it drifts far less with the host's load than the time
/// alone.
pub fn probe_s() -> f64 {
    let t = Span::start();
    let mut v = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..1_000_000u64 {
        for k in 0..8 {
            v[k] = (v[k] ^ i)
                .wrapping_add(v[(k + 1) & 7] >> 3)
                .rotate_left(k as u32 + 1);
        }
    }
    black_box(v);
    let mut x = 0x1234_5678u64;
    let mut acc = 0u64;
    for _ in 0..500_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = match x & 7 {
            0 => acc.wrapping_add(x),
            1 => acc ^ x,
            2 => acc.rotate_left(3),
            3 => acc.wrapping_mul(3),
            4 => acc.wrapping_sub(x >> 3),
            5 => acc | (x & 0xff),
            6 => acc & !x.rotate_right(7),
            _ => acc.wrapping_add(1),
        };
        acc = black_box(acc);
    }
    t.secs()
}

/// Host seconds `secs`, measured while the probe took `probe_s`,
/// expressed at the reference host's speed.
pub fn scaled(secs: f64, probe_s: f64) -> f64 {
    secs * PROBE_REF_S / probe_s
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Keep the calling thread, and every thread it starts from now on, on
/// the CPU it is running on. The hub's tenant threads take turns, never
/// run at once, so one CPU costs them nothing; on one CPU a hand-off is
/// a local context switch rather than a cross-CPU wake-up, whose cost
/// varies with what the rest of the host is doing. Returns the CPU, or
/// `None` if the host refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid cpu_set_t of `size_of_val(&mask)`
    // bytes for the call's duration; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used, all threads, user and system.
fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A span on the process CPU clock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Span(f64);

impl Span {
    /// Start a span now.
    pub fn start() -> Self {
        Span(cpu_s())
    }

    /// CPU seconds since the span started.
    pub fn secs(self) -> f64 {
        cpu_s() - self.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median of `v` (mean of the middle two for an even count; 0 when
/// empty). Reorders `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values (1 when empty).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 1.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_is_seconds_at_the_reference_speed() {
        assert!((scaled(3.0, PROBE_REF_S) - 3.0).abs() < 1e-12);
        assert!((scaled(3.0, 2.0 * PROBE_REF_S) - 1.5).abs() < 1e-12);
        assert!(probe_s() > 0.0);
    }

    #[test]
    fn rss_is_read() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
