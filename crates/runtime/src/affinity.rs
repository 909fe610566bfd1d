//! Memory-domain discovery and best-effort worker pinning (Linux; other
//! platforms run unpinned). Placement never affects results, only cache
//! locality.

/// The machine's memory domains, as ascending CPU lists: each online
/// sysfs NUMA node whose `cpulist` intersects the allowed CPUs, ordered by
/// node id; or one domain of every allowed CPU where sysfs is unreadable.
/// Every domain is non-empty, and no CPU is in two.
pub(crate) fn memory_domains() -> Vec<Vec<usize>> {
    let mut allowed = imp::allowed_cpus();
    if allowed.is_empty() {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        allowed = (0..n).collect();
    }
    let discovered = sysfs_domains(&allowed);
    if discovered.is_empty() {
        vec![allowed]
    } else {
        discovered
    }
}

/// NUMA domains from sysfs, intersected with `allowed`; empty when sysfs
/// is unreadable (non-Linux) or no node intersects the allowed set.
fn sysfs_domains(allowed: &[usize]) -> Vec<Vec<usize>> {
    let Ok(entries) = std::fs::read_dir("/sys/devices/system/node") else {
        return Vec::new();
    };
    let mut nodes: Vec<(usize, std::path::PathBuf)> = entries
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            let id: usize = name.strip_prefix("node")?.parse().ok()?;
            Some((id, e.path()))
        })
        .collect();
    nodes.sort_unstable_by_key(|&(id, _)| id);
    nodes
        .into_iter()
        .filter_map(|(_, path)| {
            let list = std::fs::read_to_string(path.join("cpulist")).ok()?;
            let cpus: Vec<usize> =
                parse_cpu_list(&list).into_iter().filter(|c| allowed.contains(c)).collect();
            (!cpus.is_empty()).then_some(cpus)
        })
        .collect()
}

/// Parses a kernel CPU list (`"0-3,8,10-11"`) into ascending CPU ids.
/// Malformed tokens are skipped: sysfs is trusted input, and a partial
/// parse degrades to a smaller domain rather than a crash.
fn parse_cpu_list(s: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for token in s.trim().split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        match token.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
                    cpus.extend(lo..=hi);
                }
            }
            None => {
                if let Ok(c) = token.parse::<usize>() {
                    cpus.push(c);
                }
            }
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    cpus
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

    /// The CPUs this process may run on, ascending: its inherited mask
    /// (taskset, container cpusets), so pinning never targets a CPU the
    /// kernel would reject. Empty when the mask cannot be read.
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
    fn cpu_list_parsing() {
        assert_eq!(parse_cpu_list("0-3,8,10-11\n"), vec![0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert_eq!(parse_cpu_list("2, 0-1 , junk, 2"), vec![0, 1, 2], "dedup + skip malformed");
    }

    #[test]
    fn memory_domains_cover_a_nonempty_cpu_set() {
        // Whatever the discovery path (sysfs or flat fallback), the
        // contract is: at least one domain, every domain non-empty, no CPU
        // in two domains.
        let doms = memory_domains();
        assert!(!doms.is_empty());
        let mut seen = std::collections::HashSet::new();
        for d in &doms {
            assert!(!d.is_empty(), "empty domain");
            for &c in d {
                assert!(seen.insert(c), "cpu {c} appears in two domains");
            }
        }
    }

    #[test]
    fn allowed_cpus_matches_parallelism_shape() {
        let cpus = imp::allowed_cpus();
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
