//! Shared tick clock for the profiler and the flight recorder: both stamp
//! with the same counter, so a trace dump and a cycle table taken from the
//! same run line up. Nothing on the hot path reads it when both features
//! are off.

use std::sync::OnceLock;

/// Raw tick counter: TSC on `x86_64`, monotonic nanoseconds elsewhere.
/// Only deltas are meaningful; convert with [`ticks_per_sec`].
#[inline]
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // _rdtsc is a register read; no memory is touched.
pub fn ticks() -> u64 {
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Raw tick counter (monotonic nanoseconds since first use).
#[inline]
#[cfg(not(target_arch = "x86_64"))]
pub fn ticks() -> u64 {
    use std::time::Instant;
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Measured tick rate (ticks per wall-clock second), calibrated once per
/// process with a short spin against `Instant`. Used to render the cycle
/// table in milliseconds and to convert trace timestamps to microseconds.
pub fn ticks_per_sec() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        let start = std::time::Instant::now();
        let t0 = ticks();
        while start.elapsed() < std::time::Duration::from_millis(5) {
            std::hint::spin_loop();
        }
        let dt = ticks().wrapping_sub(t0);
        dt as f64 / start.elapsed().as_secs_f64()
    })
}
