//! Worker-thread CPU affinity.
//!
//! The detection threads ([`crate::ShardedDetectionPool`], the streaming
//! runtime's pool) are long-lived — spawned once and reused across every
//! frame a receiver decodes — so
//! pinning each worker to one core is a cheap, stable win: the worker's
//! search workspace (enumerator slabs, QR factors, recycled output
//! buffers) stays in one core's cache instead of migrating with the
//! scheduler. Each shard's workers are pinned round-robin over the CPUs
//! of the shard's memory domain; set `GS_NO_PIN` (or `GS_NO_PIN=1`) to
//! opt out, e.g. when sharing a box with other pinned workloads.
//!
//! This module also discovers the machine's **memory domains**
//! ([`memory_domains`]): the NUMA topology read from sysfs, a flat
//! single-domain fallback where sysfs is unavailable, and a `GS_DOMAINS`
//! synthetic override. Domains are the shard axis of the pool: one job
//! queue (and, in the streaming runtime, one channel-table replica) per
//! domain, served by workers pinned inside it.
//!
//! Pinning is best-effort and Linux-only: on other platforms, or when the
//! syscall fails (containers with restricted affinity masks), workers
//! simply run unpinned — placement never affects correctness, only cache
//! locality.

/// Whether `GS_NO_PIN` disables worker pinning for this process.
///
/// Parsed through the workspace's shared knob policy
/// ([`gs_linalg::env::env_flag`]): unset keeps pinning on; empty or
/// `1`/`true`/`yes`/`on` disables it; `0`/`false`/`no`/`off` keeps it on;
/// anything else warns on stderr and disables pinning (the safe reading of
/// a mistyped opt-out).
pub fn pinning_disabled_by_env() -> bool {
    gs_linalg::env::env_flag("GS_NO_PIN")
}

/// The machine's memory domains, as ascending CPU lists — the shard axis
/// of [`crate::ShardedDetectionPool`].
///
/// Resolution order:
///
/// 1. `GS_DOMAINS=<n>` (a positive integer) splits the process's allowed
///    CPUs into `n` contiguous synthetic domains — the debugging/benching
///    override, and the way to exercise sharding on a single-domain box.
///    `GS_DOMAINS=auto` (or `0`, or unset) defers to discovery; an
///    unrecognized value warns on stderr and defers to discovery.
/// 2. sysfs NUMA discovery: each online `/sys/devices/system/node/node*`
///    whose `cpulist` intersects the allowed set becomes one domain.
/// 3. Flat fallback: one domain holding every allowed CPU (non-Linux, or
///    sysfs unreadable).
///
/// Every returned domain is non-empty and the union covers exactly the
/// allowed CPUs visible through some domain; domains are ordered by node
/// id (or contiguously for the synthetic split).
pub fn memory_domains() -> Vec<Vec<usize>> {
    let allowed = {
        let a = allowed_cpus();
        if a.is_empty() {
            let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            (0..n).collect()
        } else {
            a
        }
    };
    let forced = gs_linalg::env::env_knob(
        "GS_DOMAINS",
        "a positive integer|auto",
        "using sysfs domain discovery",
        0usize,
        0usize,
        |v| match v {
            "" | "auto" | "0" => Some(0),
            _ => v.parse::<usize>().ok(),
        },
    );
    if forced > 0 {
        return split_domains(&allowed, forced);
    }
    let discovered = sysfs_domains(&allowed);
    if discovered.is_empty() {
        vec![allowed]
    } else {
        discovered
    }
}

/// Splits `allowed` into **exactly** `n` contiguous, non-empty synthetic
/// domains (clamped to the CPU count), balanced to within one CPU — the
/// `k*len/n` partition, so a requested count is always honoured when
/// enough CPUs exist (fixed-size chunking could merge the tail and return
/// fewer domains than the operator configured).
fn split_domains(allowed: &[usize], n: usize) -> Vec<Vec<usize>> {
    if allowed.is_empty() {
        return vec![Vec::new()];
    }
    let n = n.clamp(1, allowed.len());
    (0..n).map(|k| allowed[k * allowed.len() / n..(k + 1) * allowed.len() / n].to_vec()).collect()
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
/// Malformed tokens are skipped — sysfs is trusted input, and a partial
/// parse degrades to a smaller domain rather than a crash.
pub fn parse_cpu_list(s: &str) -> Vec<usize> {
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

/// The CPUs this process is allowed to run on, in ascending order —
/// the domain the round-robin pinning indexes into. Respecting the
/// inherited mask matters precisely in the restricted deployments
/// (taskset, container cpusets): pinning to absolute core 0 from inside
/// `taskset -c 4-7` would be rejected and silently lose the feature.
/// Returns an empty vector when the mask cannot be read (non-Linux).
pub fn allowed_cpus() -> Vec<usize> {
    imp::allowed_cpus()
}

/// Pins the calling thread to `cpu` (an entry of [`allowed_cpus`], modulo
/// the platform mask width). Returns whether the kernel accepted the
/// mask; always `false` on non-Linux targets.
pub fn pin_current_thread(cpu: usize) -> bool {
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
    fn cpu_list_parsing() {
        assert_eq!(parse_cpu_list("0-3,8,10-11\n"), vec![0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert_eq!(parse_cpu_list("2, 0-1 , junk, 2"), vec![0, 1, 2], "dedup + skip malformed");
    }

    #[test]
    fn synthetic_split_covers_all_cpus() {
        for len in [1usize, 5, 6, 8] {
            let allowed: Vec<usize> = (0..len).collect();
            for n in 1..=8 {
                let doms = split_domains(&allowed, n);
                assert!(doms.iter().all(|d| !d.is_empty()), "len={len} n={n}: no empty domain");
                let flat: Vec<usize> = doms.iter().flatten().copied().collect();
                assert_eq!(flat, allowed, "len={len} n={n}: covers the allowed set, in order");
                // The requested count is honoured exactly whenever enough
                // CPUs exist (GS_DOMAINS=4 on a 6-CPU box must give 4
                // domains, not 3).
                assert_eq!(doms.len(), n.min(len), "len={len} n={n}");
            }
        }
    }

    #[test]
    fn memory_domains_cover_a_nonempty_cpu_set() {
        // Whatever the discovery path (sysfs, flat fallback, or a
        // GS_DOMAINS override inherited from the environment), the
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
