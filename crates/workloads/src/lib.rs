#![warn(missing_docs)]

//! # specrt-workloads
//!
//! Synthetic stand-ins for the four Perfect Club loops of the paper's
//! evaluation (§5.2). The original 1989 Perfect Club sources and inputs are
//! not available, so each loop is reconstructed from every characteristic
//! §5.2 reports — iteration counts, invocation counts, working-set sizes,
//! element sizes, access patterns, privatization needs, load-imbalance
//! profiles, scheduling constraints, and Track's 5-of-56 instances that
//! fail the iteration-wise test. See `DESIGN.md` §4 for the substitution
//! rationale.
//!
//! | module | paper loop | test | §5.2 facts reproduced |
//! |---|---|---|---|
//! | [`ocean`] | Ocean `ftrvmt.do109` | non-priv | 8 procs, 32 iterations, strides vary per invocation, small working set, processor-wise SW |
//! | [`p3m`] | P3m `pp.do100` | privatization | 16 procs, huge iteration count, 4-byte elements, no read-in/copy-out, high imbalance → dynamic scheduling |
//! | [`adm`] | Adm `run.do20` | both | 16 procs, 32/64 iterations, 8-byte elements, mixed non-priv + priv arrays, processor-wise SW |
//! | [`track`] | Track `nlfilt.do300` | non-priv ×4 | 16 procs, ~480 iterations, 4- and 8-byte elements, tested-access fraction 0–44%, 5/56 instances fail iteration-wise but pass processor-wise, imbalance → HW dynamic small blocks |
//!
//! Every invocation is generated deterministically from the invocation
//! index, and each module also provides the §6.2 *forced-failure* variant
//! used in Figure 13. [`synth`] additionally provides conflict-density-
//! parameterized loops for the §2.2.4 profitability sweep.

pub mod adm;
pub mod common;
pub mod ocean;
pub mod p3m;
pub mod synth;
pub mod track;

pub use common::{Scale, Workload};

/// The four loops' names, in the paper's presentation order.
const NAMES: [&str; 4] = ["ocean", "p3m", "adm", "track"];

/// The workload called `name` (`ocean`, `p3m`, `adm` or `track`) at the
/// given scale, built on its own; `None` for any other name.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    match name {
        "ocean" => Some(ocean::workload(scale)),
        "p3m" => Some(p3m::workload(scale)),
        "adm" => Some(adm::workload(scale)),
        "track" => Some(track::workload(scale)),
        _ => None,
    }
}

/// All four workloads at the given scale, in the paper's presentation
/// order.
pub fn all_workloads(scale: Scale) -> Vec<Workload> {
    NAMES
        .iter()
        .map(|name| by_name(name, scale).expect("every listed name builds"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_workloads_present() {
        let ws = all_workloads(Scale::Smoke);
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["ocean", "p3m", "adm", "track"]);
    }

    #[test]
    fn by_name_builds_exactly_the_named_workload() {
        for w in all_workloads(Scale::Smoke) {
            let alone = by_name(w.name, Scale::Smoke).expect("known name");
            assert_eq!(alone.name, w.name);
            assert_eq!(alone.invocations.len(), w.invocations.len());
        }
        assert!(by_name("swim", Scale::Smoke).is_none());
    }

    #[test]
    fn paper_processor_counts() {
        let ws = all_workloads(Scale::Smoke);
        assert_eq!(ws[0].procs, 8, "Ocean runs with 8 processors");
        for w in &ws[1..] {
            assert_eq!(w.procs, 16, "{} runs with 16 processors", w.name);
        }
    }
}
