//! Allocator tuning for session-long simulations.
//!
//! A continuous online session registers millions of flows, but its
//! flow storage does not grow with session length: the fluid network
//! retires finished and cancelled flows and compacts their records and
//! path ranges, so the flow registry, path arena and event calendar
//! follow the live and pending flows. What still grows with the session
//! is its per-arrival bookkeeping — the arrival stream and one outcome
//! and decision record per application — which reaches hundreds of
//! megabytes at the million-arrival scale. Under glibc's default malloc
//! tuning every growth step of a vector that large cycles through
//! `mmap`/`munmap` (blocks above the 128 KiB mmap threshold are returned
//! to the kernel on free), and heap-top churn triggers repeated trims,
//! each costing kernel time in page faults and mapping churn.
//!
//! [`tune_for_long_sessions`] raises both thresholds so large blocks stay
//! in the allocator's arena and get reused across growth steps. It is a
//! hint: calling it is never required for correctness, only for
//! throughput, and it is a no-op on non-glibc targets. Call it once at
//! process start from binaries that drive large sessions (the `repro`
//! CLI, the scale benches); libraries should not call it.

/// Raise glibc's malloc mmap/trim thresholds so large session buffers
/// are recycled inside the arena instead of being returned to the
/// kernel on every growth step. No-op off glibc.
pub fn tune_for_long_sessions() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // From glibc's malloc.h: mallopt parameter numbers. Declared
        // locally to keep the workspace free of a libc dependency.
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const ONE_GIB: i32 = 1 << 30;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt only adjusts allocator parameters; it is safe
        // to call at any time and the return value (success flag) can be
        // ignored — failure just leaves the defaults in place.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, ONE_GIB);
            mallopt(M_MMAP_THRESHOLD, ONE_GIB);
        }
    }
}
