//! Golden model-checker reports.
//!
//! CI compares `specrt-check model` at `--jobs 1` against `--jobs 2`, which
//! proves the parallel explorer deterministic but not that the protocol's
//! state space stayed put. This file pins [`run_model`]'s report byte for
//! byte instead: script count, unique states, dedup hits, race-case
//! coverage and the (zero) violation counts of each clean variant, plus the
//! minimal counterexample each CI mutation gate reports at that gate's
//! scope. A change to any transition of `ProtocolSpec` that moves the
//! explored state space shows up here as a diff.
//!
//! Regenerate deliberately with
//! `REGEN_GOLDEN=1 cargo test -p specrt-check --test model_golden`.

use std::path::PathBuf;

use specrt_check::{run_model, ModelConfig};
use specrt_spec::{fault, FaultKind, SpecScope, SpecVariant};

fn cfg(variant: SpecVariant, lines: u16, elems: u16, procs: u16, max_ops: usize) -> ModelConfig {
    ModelConfig {
        variant,
        scope: SpecScope {
            lines,
            elems,
            procs,
        },
        max_ops,
        jobs: 1,
    }
}

fn check(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/model_golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{name}: golden missing, run with REGEN_GOLDEN=1"));
    assert_eq!(
        got, want,
        "{name}: model report changed (regenerate deliberately with REGEN_GOLDEN=1)"
    );
}

#[test]
fn clean_variant_reports_are_pinned() {
    let mut text = String::new();
    for variant in SpecVariant::ALL {
        let report = run_model(&cfg(variant, 1, 2, 3, 4));
        assert!(report.ok(), "{}", report.render());
        text.push_str(&report.render());
    }
    check("clean", &text);
}

/// Runs one CI mutation gate and pins its report, counterexample included.
fn gate(name: &str, bug: FaultKind, variant: SpecVariant, max_ops: usize) {
    let _guard = fault::Injected::new(bug);
    let report = run_model(&cfg(variant, 1, 2, 2, max_ops));
    assert!(!report.ok(), "injected bug '{}' was not caught", bug.name());
    check(name, &report.render());
}

#[test]
fn drop_ronly_gate_is_pinned() {
    gate(
        "drop_ronly",
        FaultKind::DropROnlyCheck,
        SpecVariant::NonPriv,
        3,
    );
}

#[test]
fn drop_maxr1st_gate_is_pinned() {
    gate(
        "drop_maxr1st",
        FaultKind::DropMaxR1stUpdate,
        SpecVariant::Priv,
        2,
    );
}

#[test]
fn swap_ts_compare_gate_is_pinned() {
    gate(
        "swap_ts_compare",
        FaultKind::SwapTsCompare,
        SpecVariant::Priv,
        2,
    );
}
