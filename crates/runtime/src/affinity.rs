//! Best-effort worker pinning (Linux; other platforms run unpinned).
//! Placement never affects results, only cache locality.

/// The CPUs this process may run on, ascending: its inherited mask
/// (taskset, container cpusets), so pinning never targets a CPU the
/// kernel would reject. Empty when the mask cannot be read (always on
/// non-Linux targets).
pub(crate) fn allowed_cpus() -> Vec<usize> {
    imp::allowed_cpus()
}

/// Pins the calling thread to `cpu` (modulo the platform mask width).
/// Returns whether the kernel accepted the mask; always `false` on
/// non-Linux targets.
pub(crate) fn pin_current_thread(cpu: usize) -> bool {
    imp::pin_current_thread(cpu)
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t` is 1024 bits on Linux/glibc.
    const MASK_WORDS: usize = 1024 / 64;

    // The glibc wrappers around the affinity syscalls. `pid == 0` targets
    // the calling thread.
    #[allow(unsafe_code)]
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; MASK_WORDS];
        // Safety: the mask buffer outlives the call and its length is
        // passed in bytes, exactly as the glibc signature expects.
        #[allow(unsafe_code)]
        let rc = unsafe {
            sched_getaffinity(0, MASK_WORDS * std::mem::size_of::<u64>(), mask.as_mut_ptr())
        };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    pub fn pin_current_thread(cpu: usize) -> bool {
        let cpu = cpu % (MASK_WORDS * 64);
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1u64 << (cpu % 64);
        // Safety: as above — caller-owned buffer, byte length.
        #[allow(unsafe_code)]
        let rc =
            unsafe { sched_setaffinity(0, MASK_WORDS * std::mem::size_of::<u64>(), mask.as_ptr()) };
        rc == 0
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_to_core_zero_succeeds_on_linux() {
        // Pin a scratch thread (not the test runner) to core 0 — which
        // always exists. A restricted container mask may still reject the
        // call, so a `false` return is tolerated; what must hold is that
        // the thread keeps running normally either way.
        let pinned = std::thread::spawn(|| {
            let ok = pin_current_thread(0);
            (ok, 6 * 7)
        })
        .join()
        .expect("pinned thread must not crash");
        assert_eq!(pinned.1, 42);
        if cfg!(not(target_os = "linux")) {
            assert!(!pinned.0, "non-Linux targets report unpinned");
        }
    }

    #[test]
    fn out_of_range_core_wraps() {
        // Must not panic or write out of bounds for absurd core indices.
        let _ = pin_current_thread(usize::MAX);
    }

    #[test]
    fn allowed_cpus_matches_parallelism_shape() {
        let cpus = allowed_cpus();
        if cfg!(target_os = "linux") {
            // At least the CPU we are running on is allowed, the list is
            // ascending and duplicate-free, and pinning to an allowed CPU
            // from a scratch thread succeeds.
            assert!(!cpus.is_empty());
            assert!(cpus.windows(2).all(|w| w[0] < w[1]));
            let first = cpus[0];
            let ok = std::thread::spawn(move || pin_current_thread(first)).join().unwrap();
            assert!(ok, "pinning to an allowed CPU must succeed");
        } else {
            assert!(cpus.is_empty());
        }
    }
}
