//! Debug-build conformance smoke: a bounded differential-fuzz run (with
//! every `debug_assertions` invariant hook live) and the model checker at
//! the small scope `specrt-check interleave` runs.

use specrt_check::{fuzz, run_model, ModelConfig};
use specrt_spec::{SpecScope, SpecVariant};

#[test]
fn bounded_fuzz_agrees_with_oracle_under_debug_invariants() {
    let report = fuzz(60, 0x5eed);
    assert!(
        report.ok(),
        "differential fuzz found disagreements: {:?}",
        report.failures
    );
    // The templates alone already drive the full machine through the
    // hot-path race cases.
    let visited = report.visited_race_cases();
    for c in ['a', 'b', 'c', 'd', 'e'] {
        assert!(visited.contains(&c), "race case {c} unvisited by fuzz");
    }
}

#[test]
fn interleave_scope_is_sound_and_covers_all_race_cases() {
    let report = run_model(&ModelConfig {
        variant: SpecVariant::NonPriv,
        scope: SpecScope {
            lines: 1,
            elems: 2,
            procs: 3,
        },
        max_ops: 5,
        jobs: 1,
    });
    assert_eq!(
        report.violations, 0,
        "an interleaving let a non-envelope pattern pass"
    );
    assert_eq!(
        report.conservative, 0,
        "an envelope-holding script never passed"
    );
    assert!(
        report.coverage.complete(),
        "race cases unvisited: {:?}",
        report.coverage.unvisited()
    );
    assert!(report.states > 1000, "suspiciously small state space");
}
