//! Thread-local [`MemSystem`] reuse pool.
//!
//! Building a [`MemSystem`] allocates every node's cache slot arrays
//! (512 + 8192 words per node in the paper's machine), directories and
//! banks; resetting one costs a walk over the lines the last run touched.
//! Consecutive leases on a thread rarely share a whole
//! [`MemSystemConfig`] — a fuzz case's node-fault legs each carry their own
//! fault time, a checkpoint rerun runs on one processor fewer, and serial
//! re-execution on one — so the pool does not match configurations at all:
//! [`MemSystem::reset_to`] adopts any configuration in place. A lease
//! prefers a pooled system of the same *shape* (processor count and cache
//! geometry), which resets without resizing anything, and otherwise takes
//! any pooled system and resizes it. Only an empty pool builds.
//!
//! Correctness: a reset system must be observationally identical to a fresh
//! one — the serving layer's byte-identity guarantee (cold = warm = any
//! `--jobs`) rides on it, and `crates/check/tests/reuse_equiv.rs` pins it
//! across configurations. The pool is thread-local, so parallel workers
//! (`crates/par`) never contend and per-thread behaviour stays
//! deterministic.
//!
//! Scenario runners lease through [`lease`]; the guard returns the system on
//! drop. [`counters`] exposes global build/reuse totals for the serve
//! metrics plane (telemetry only — never part of a deterministic payload).

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use specrt_proto::{MemSystem, MemSystemConfig};

/// Systems kept per thread. Scenario runners hold at most two machines at
/// once (an aborted speculative run and its serial re-execution or
/// checkpoint rerun), so a small pool already captures the reuse; anything
/// larger just holds memory hostage.
const MAX_POOLED: usize = 4;

thread_local! {
    static POOL: RefCell<Vec<MemSystem>> = const { RefCell::new(Vec::new()) };
}

static BUILDS: AtomicU64 = AtomicU64::new(0);
static REUSES: AtomicU64 = AtomicU64::new(0);

/// A leased [`MemSystem`], returned to the thread's pool on drop.
///
/// Dereferences to [`MemSystem`]; scenario code uses it exactly like an
/// owned system.
pub struct PooledMem {
    ms: Option<MemSystem>,
}

/// Leases a system for `cfg`: a pooled instance re-targeted in place by
/// [`MemSystem::reset_to`] — one of the same shape if the thread has one,
/// any otherwise — or, from an empty pool, a freshly constructed one.
pub fn lease(cfg: MemSystemConfig) -> PooledMem {
    let pooled = POOL.with(|p| {
        let mut p = p.borrow_mut();
        let same_shape = |c: &MemSystemConfig| c.procs == cfg.procs && c.cache == cfg.cache;
        let i = p
            .iter()
            .position(|ms| same_shape(ms.config()))
            .or_else(|| p.len().checked_sub(1))?;
        Some(p.swap_remove(i))
    });
    let ms = match pooled {
        Some(mut ms) => {
            let _prof = specrt_prof::scope("machine.reset");
            ms.reset_to(cfg);
            REUSES.fetch_add(1, Ordering::Relaxed);
            ms
        }
        None => {
            let _prof = specrt_prof::scope("machine.build");
            BUILDS.fetch_add(1, Ordering::Relaxed);
            MemSystem::new(cfg)
        }
    };
    PooledMem { ms: Some(ms) }
}

/// Global `(builds, reuses)` totals across all threads since process start.
/// Monotonic telemetry for the serve metrics plane; relaxed counters, never
/// part of a deterministic result payload.
pub fn counters() -> (u64, u64) {
    (
        BUILDS.load(Ordering::Relaxed),
        REUSES.load(Ordering::Relaxed),
    )
}

impl Deref for PooledMem {
    type Target = MemSystem;

    fn deref(&self) -> &MemSystem {
        self.ms.as_ref().expect("leased system present until drop")
    }
}

impl DerefMut for PooledMem {
    fn deref_mut(&mut self) -> &mut MemSystem {
        self.ms.as_mut().expect("leased system present until drop")
    }
}

impl Drop for PooledMem {
    fn drop(&mut self) {
        let ms = self.ms.take().expect("dropped once");
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < MAX_POOLED {
                p.push(ms);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_reuses_matching_config_on_this_thread() {
        let cfg = MemSystemConfig::default();
        let (b0, r0) = counters();
        drop(lease(cfg)); // seed the pool
        let _m = lease(cfg); // must come back from the pool
        let (b1, r1) = counters();
        // Other tests on other threads may build concurrently, but *this*
        // thread's second lease can only have been a reuse.
        assert!(r1 > r0, "second lease should reuse ({r0} -> {r1})");
        assert!(b1 > b0);
    }

    #[test]
    fn different_config_adopts_a_pooled_system() {
        let a = MemSystemConfig::default();
        let mut b = a;
        b.procs = a.procs + 1;
        b.dir_banks = a.dir_banks / 2;
        drop(lease(a));
        let leased = lease(b);
        assert_eq!(*leased.config(), b);
        assert_eq!(leased.procs(), b.procs);
    }
}
