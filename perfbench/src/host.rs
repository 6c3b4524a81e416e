//! Process-level measurements: the CPU clock every timing uses, kernel
//! resource counters, and resident memory.
//!
//! All timings are CPU seconds of this process (user + system), not wall
//! time: the benchmark is single-threaded, so CPU time measures the work
//! while staying far less sensitive to neighbour load on a shared host.
//! Linux-only, like the rest of the benchmark.

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

/// Process CPU seconds (user + system) at nanosecond resolution.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: a valid clock id and a properly sized, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// A snapshot of the kernel's accounting for this process.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    user_s: f64,
    sys_s: f64,
    minflt: u64,
    nivcsw: u64,
    wall: std::time::Instant,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Self {
        // SAFETY: all-zero is a valid `Rusage` (plain integers).
        let mut r: Rusage = unsafe { std::mem::zeroed() };
        // SAFETY: RUSAGE_SELF with a properly sized, writable struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&r.utime),
            sys_s: secs(&r.stime),
            minflt: r.minflt as u64,
            nivcsw: r.nivcsw as u64,
            wall: std::time::Instant::now(),
        }
    }
}

/// What the kernel accounted between two snapshots.
#[derive(Debug, Clone, Copy)]
pub struct Delta {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// The system share of `cpu_s`.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
    /// Involuntary context switches (preemptions by other load).
    pub nivcsw: u64,
    /// Wall seconds.
    pub wall_s: f64,
}

impl Delta {
    /// Counters accrued from `before` to `after`.
    pub fn between(before: &Usage, after: &Usage) -> Self {
        let sys_s = after.sys_s - before.sys_s;
        Delta {
            cpu_s: after.user_s - before.user_s + sys_s,
            sys_s,
            minflt: after.minflt - before.minflt,
            nivcsw: after.nivcsw - before.nivcsw,
            wall_s: after.wall.duration_since(before.wall).as_secs_f64(),
        }
    }
}

/// A `Vm*` field of `/proc/self/status` in KiB (`"VmHWM"` is the peak
/// resident set, `"VmRSS"` the current one).
pub fn vm_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"))
}
