//! Build-count regression: once a thread's machine pool is warm, a fuzz
//! sweep builds no `MemSystem` at all.
//!
//! `pool::lease` hands any pooled system to any configuration and
//! `MemSystem::reset_to` re-targets it in place — node-fault legs with a
//! per-case fault time, checkpoint reruns on fewer survivors and cases of
//! every processor count included. A scenario holds at most two machines
//! at once (an aborted speculative run and its serial re-execution), so
//! after one warm-up case that aborts every lease is a reuse.
//!
//! `pool::counters()` is process-global, so this file holds a single test:
//! no other test thread can build while it counts.

use specrt_check::{node_fault_legs, run_case, CaseSpec, TEMPLATE_SEEDS};
use specrt_engine::SplitMix64;
use specrt_machine::pool;

fn check_case(seed: u64) {
    let case = CaseSpec::generate(seed);
    let r = run_case(&case);
    assert!(r.ok(), "case {seed:#x} disagrees: {:?}", r.mismatches);
    let legs = node_fault_legs(&case);
    assert!(legs.is_empty(), "case {seed:#x} lost data: {legs:?}");
}

#[test]
fn warm_pool_builds_nothing_over_200_cases() {
    let mut rng = SplitMix64::new(0x5eed);
    let seeds: Vec<u64> = (0..TEMPLATE_SEEDS)
        .chain(std::iter::repeat_with(|| rng.next_u64()))
        .take(200)
        .collect();
    // Template 2 writes an element another processor read first: its
    // hardware runs abort into serial re-execution.
    check_case(2);
    let (builds_before, reuses_before) = pool::counters();
    for &seed in &seeds {
        check_case(seed);
    }
    let (builds_after, reuses_after) = pool::counters();
    assert_eq!(
        builds_after - builds_before,
        0,
        "a warm pool must serve every lease ({} reuses)",
        reuses_after - reuses_before
    );
    assert!(reuses_after - reuses_before >= 200 * 5);
}
