//! The per-thread instrumentation state behind the `profile` and `trace`
//! features: one thread-local and one registry, shared by the cycle table
//! (counter cells and the scope stack doing self-time attribution) and the
//! flight recorder (event ring and ambient frame context).

use std::cell::Cell;
use std::sync::{Arc, Mutex};
#[cfg(feature = "profile")]
use {
    crate::{clock::ticks, Stage, StageProfile},
    std::sync::atomic::{AtomicU64, Ordering},
};

/// What a thread shares with the [`REGISTRY`], so it outlives the thread:
/// pool workers come and go; their cycles and events must not.
pub(crate) struct ThreadSlot {
    #[cfg(feature = "profile")]
    cells: [StageCell; Stage::COUNT],
    #[cfg(feature = "trace")]
    pub(crate) ring: crate::trace::Ring,
}

/// Every slot ever registered, in registration order (a slot's index is
/// its ring's thread id). Entries are kept after thread exit on purpose —
/// that is what preserves attribution across the stream pool's
/// handoff between workers.
pub(crate) static REGISTRY: Mutex<Vec<Arc<ThreadSlot>>> = Mutex::new(Vec::new());

/// Deepest scope nesting tracked per thread. Deeper scopes still count
/// invocations but stop re-attributing time (the enclosing scope absorbs
/// it) — the receive chain nests 3–4 deep, so 32 is pure headroom.
#[cfg(feature = "profile")]
const MAX_DEPTH: usize = 32;

/// The thread's own view: its registered slot plus the owner-only state.
pub(crate) struct Local {
    pub(crate) slot: Arc<ThreadSlot>,
    #[cfg(feature = "profile")]
    depth: Cell<usize>,
    #[cfg(feature = "profile")]
    stack_stage: [Cell<usize>; MAX_DEPTH],
    #[cfg(feature = "profile")]
    resume: [Cell<u64>; MAX_DEPTH],
    /// Ambient frame identity (`FrameCtx::NONE` when unset).
    #[cfg(feature = "trace")]
    pub(crate) ctx: Cell<crate::trace::FrameCtx>,
}

impl Local {
    fn register() -> Self {
        let mut registry = REGISTRY.lock().expect("instrumentation registry poisoned");
        let slot = Arc::new(ThreadSlot {
            #[cfg(feature = "profile")]
            cells: std::array::from_fn(|_| StageCell::default()),
            #[cfg(feature = "trace")]
            ring: crate::trace::Ring::new(registry.len().min(u16::MAX as usize - 1) as u16),
        });
        registry.push(Arc::clone(&slot));
        Local {
            slot,
            #[cfg(feature = "profile")]
            depth: Cell::new(0),
            #[cfg(feature = "profile")]
            stack_stage: std::array::from_fn(|_| Cell::new(0)),
            #[cfg(feature = "profile")]
            resume: std::array::from_fn(|_| Cell::new(0)),
            #[cfg(feature = "trace")]
            ctx: Cell::new(crate::trace::FrameCtx::NONE),
        }
    }
}

thread_local! {
    pub(crate) static LOCAL: Local = Local::register();
}

/// One row of a thread's table. Single-writer: only the owning thread
/// stores, so plain `Relaxed` load+store (no RMW contention) is enough;
/// [`snapshot`] on other threads sees values at worst one scope stale.
#[cfg(feature = "profile")]
#[derive(Default)]
struct StageCell {
    cycles: AtomicU64,
    invocations: AtomicU64,
    bytes: AtomicU64,
}

/// Owner-only writer: load+store is a cheap non-atomic-RMW add.
#[cfg(feature = "profile")]
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed).wrapping_add(by), Ordering::Relaxed);
}

/// Scope entry on the cycle table: count an invocation, attribute the
/// ticks since the last attribution point to the enclosing stage, and
/// push `stage`. Returns whether it pushed (false when the stack is full
/// or the thread is tearing down).
#[cfg(feature = "profile")]
#[inline]
pub(crate) fn push(stage: Stage) -> bool {
    LOCAL
        .try_with(|l| {
            let now = ticks();
            let idx = stage.index();
            bump(&l.slot.cells[idx].invocations, 1);
            let d = l.depth.get();
            if d >= MAX_DEPTH {
                return false;
            }
            if d > 0 {
                let parent = &l.slot.cells[l.stack_stage[d - 1].get()];
                bump(&parent.cycles, now.saturating_sub(l.resume[d - 1].get()));
            }
            l.stack_stage[d].set(idx);
            l.resume[d].set(now);
            l.depth.set(d + 1);
            true
        })
        .unwrap_or(false)
}

/// Scope exit on the cycle table: attribute the remainder to the popped
/// stage and resume the parent.
#[cfg(feature = "profile")]
#[inline]
pub(crate) fn pop(pushed: bool) {
    if !pushed {
        return;
    }
    // try_with: guards may drop during thread teardown after the TLS
    // slot is gone; losing those final ticks beats aborting.
    let _ = LOCAL.try_with(|l| {
        let now = ticks();
        let d = l.depth.get() - 1;
        bump(&l.slot.cells[l.stack_stage[d].get()].cycles, now.saturating_sub(l.resume[d].get()));
        l.depth.set(d);
        if d > 0 {
            l.resume[d - 1].set(now);
        }
    });
}

/// Add pre-measured counters to `stage` on the current thread's table.
#[cfg(feature = "profile")]
#[inline]
pub(crate) fn record(stage: Stage, cycles: u64, invocations: u64, bytes: u64) {
    let _ = LOCAL.try_with(|l| {
        let c = &l.slot.cells[stage.index()];
        for (counter, by) in [(&c.cycles, cycles), (&c.invocations, invocations), (&c.bytes, bytes)]
        {
            if by > 0 {
                bump(counter, by);
            }
        }
    });
}

/// Sum every registered thread table.
#[cfg(feature = "profile")]
pub(crate) fn snapshot() -> StageProfile {
    let mut out = StageProfile::empty();
    let registry = REGISTRY.lock().expect("instrumentation registry poisoned");
    for slot in registry.iter() {
        for (rec, cell) in out.stages.iter_mut().zip(slot.cells.iter()) {
            rec.cycles = rec.cycles.wrapping_add(cell.cycles.load(Ordering::Relaxed));
            rec.invocations =
                rec.invocations.wrapping_add(cell.invocations.load(Ordering::Relaxed));
            rec.bytes = rec.bytes.wrapping_add(cell.bytes.load(Ordering::Relaxed));
        }
    }
    out
}

#[cfg(test)]
#[cfg(feature = "profile")]
mod tests {
    use super::*;
    use crate::{scope, snapshot, ticks_per_sec};

    fn spin_ticks(min: u64) {
        let t0 = ticks();
        while ticks().wrapping_sub(t0) < min {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn scopes_attribute_self_time() {
        let before = snapshot();
        {
            let _outer = scope(Stage::Recover);
            spin_ticks(20_000);
            {
                let _inner = scope(Stage::Viterbi);
                spin_ticks(20_000);
            }
            spin_ticks(20_000);
        }
        let d = snapshot().delta(&before);
        let rec = d.stages[Stage::Recover.index()];
        let vit = d.stages[Stage::Viterbi.index()];
        assert_eq!(rec.invocations, 1);
        assert_eq!(vit.invocations, 1);
        // Self time: outer ≈ 2 spins, inner ≈ 1 spin, neither zero and
        // the inner spin is not double-counted into the outer.
        assert!(rec.cycles >= 30_000, "outer self-time too small: {}", rec.cycles);
        assert!(vit.cycles >= 15_000, "inner self-time too small: {}", vit.cycles);
    }

    #[test]
    fn record_and_bytes_land_in_the_table() {
        let before = snapshot();
        crate::record(Stage::Queue, 777, 3, 0);
        let g = scope(Stage::PedKernel);
        g.add_bytes(4096);
        drop(g);
        let d = snapshot().delta(&before);
        assert_eq!(d.stages[Stage::Queue.index()].cycles, 777);
        assert_eq!(d.stages[Stage::Queue.index()].invocations, 3);
        assert_eq!(d.stages[Stage::PedKernel.index()].bytes, 4096);
    }

    #[test]
    fn counters_survive_thread_exit() {
        let before = snapshot();
        std::thread::spawn(|| {
            let _g = scope(Stage::Enumerate);
            spin_ticks(10_000);
        })
        .join()
        .unwrap();
        let d = snapshot().delta(&before);
        assert!(d.stages[Stage::Enumerate.index()].cycles > 0);
        assert_eq!(d.stages[Stage::Enumerate.index()].invocations, 1);
    }

    #[test]
    fn depth_overflow_counts_but_does_not_corrupt() {
        let before = snapshot();
        fn nest(n: usize) {
            let _g = scope(Stage::Filter);
            if n > 0 {
                nest(n - 1);
            }
        }
        nest(MAX_DEPTH + 8);
        let d = snapshot().delta(&before);
        assert_eq!(d.stages[Stage::Filter.index()].invocations, (MAX_DEPTH + 9) as u64);
        LOCAL.with(|l| assert_eq!(l.depth.get(), 0));
    }

    #[test]
    fn tick_rate_is_sane() {
        let tps = ticks_per_sec();
        // Any real TSC or nanosecond clock ticks between 10 MHz and 10 GHz.
        assert!(tps > 1e7 && tps < 1e10, "implausible tick rate {tps}");
    }
}
