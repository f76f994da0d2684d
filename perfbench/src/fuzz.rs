//! `fuzz`: the differential fuzzer's work over a fixed number of generated
//! cases. Every case runs `run_case` (nonpriv, priv, priv3 and SW-LRPD
//! against the trace oracle and the serial image) and `node_fault_legs`
//! (each node-level fault under checkpoint-restart). The seed sets the case
//! stream exactly as `specrt-check fuzz --seed` does, and each run checks
//! that once against `fuzz_jobs` itself. Unlike `fuzz_jobs`, which
//! generates each case inside its worker, the benchmark generates the cases
//! during set-up, so that the program receives only the generated cases.

use std::time::Instant;

use specrt_check::{
    fuzz_jobs, node_fault_legs, run_case, CaseSpec, RACE_CASE_KEYS, TEMPLATE_SEEDS,
};
use specrt_engine::{SplitMix64, StatSet};

use crate::measure::{thread_cpu_seconds, Fnv, Recorder};
use crate::{Pass, Sim};

/// Cases per pass.
const CASES: u64 = 4000;

pub struct Prepared {
    seed: u64,
    cases: Vec<CaseSpec>,
    jobs: usize,
}

/// The case seeds of `specrt-check fuzz --cases CASES --seed seed`: the
/// deterministic templates first, then a SplitMix64 stream. The fuzzer
/// keeps its own copy private; [`cross_check`] catches any drift.
fn case_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..CASES)
        .map(|i| {
            if i < TEMPLATE_SEEDS {
                i
            } else {
                rng.next_u64()
            }
        })
        .collect()
}

/// Generates the cases; their `check.gen` spans go under `parent`.
pub fn setup(seed: u64, jobs: usize, rec: &Recorder, parent: u64) -> Prepared {
    let cases = case_seeds(seed)
        .into_iter()
        .map(|s| rec.span("check.gen", "", parent, |_| CaseSpec::generate(s)))
        .collect();
    Prepared { seed, cases, jobs }
}

/// The exact simulated counts of a run with merged statistics `stats`.
fn counts(stats: &StatSet) -> Vec<(&'static str, f64)> {
    let race_cases: u64 = RACE_CASE_KEYS.iter().map(|k| stats.get(k)).sum();
    vec![
        ("proto.transactions", stats.get("transactions") as f64),
        ("proto.invalidations", stats.get("invalidations") as f64),
        ("proto.update_messages", stats.get("update_messages") as f64),
        ("proto.race_cases", race_cases as f64),
    ]
}

/// Runs the fuzzer's own entry point, `fuzz_jobs`, once over the same
/// seed and checks that the benchmark ran the fuzzer's work: as many
/// cases, a clean report that visits every race case (a)–(h), and the same
/// simulated counts as a pass (`sim`).
pub fn cross_check(p: &Prepared, sim: &Sim) -> Result<(), String> {
    let report = fuzz_jobs(CASES, p.seed, p.jobs);
    let visited = report.visited_race_cases().len();
    if report.cases != p.cases.len() as u64 || !report.ok() || visited != RACE_CASE_KEYS.len() {
        return Err(format!(
            "fuzz_jobs: {} cases, ok {}, {visited} race cases visited",
            report.cases,
            report.ok()
        ));
    }
    if counts(&report.stats) != sim.counts {
        return Err("fuzz_jobs' simulated counts differ from the benchmark's".to_string());
    }
    Ok(())
}

pub fn pass(p: &Prepared, rec: &Recorder, root: u64) -> Pass {
    let started = Instant::now();
    let results = specrt_par::par_map(p.jobs, &p.cases, |_, case| {
        let cpu = thread_cpu_seconds();
        let (r, legs) = rec.span("check.case", "", root, |id| {
            let r = rec.span("check.run_case", "", id, |_| run_case(case));
            let legs = rec.span("check.node_fault_legs", "", id, |_| node_fault_legs(case));
            (r, legs)
        });
        (r, legs, (thread_cpu_seconds() - cpu) * 1e3)
    });
    let host_s = started.elapsed().as_secs_f64();

    let mut pass = Pass {
        host_s,
        latencies_ms: Vec::with_capacity(results.len()),
        attempted: p.cases.len() as u64 + 1,
        failed: 0,
        errors: Vec::new(),
        sim: Sim {
            fingerprint: 0,
            counts: Vec::new(),
            results: Vec::new(),
        },
        layer: Vec::new(),
    };
    let mut stats = StatSet::new();
    let mut fp = Fnv::new();
    for (case, (r, legs, ms)) in p.cases.iter().zip(results) {
        pass.latencies_ms.push(ms);
        for m in r.mismatches.iter().chain(&legs) {
            pass.fail(format!("case seed {:#x}: {m}", case.seed));
        }
        fp.u64(case.seed)
            .u64(r.mismatches.len() as u64)
            .u64(legs.len() as u64);
        for (k, v) in r.stats.iter() {
            fp.str(k).u64(v);
        }
        stats.merge(&r.stats);
    }
    // The run as a whole must visit every race case (a)–(h).
    let missing: Vec<&str> = RACE_CASE_KEYS
        .iter()
        .copied()
        .filter(|k| stats.get(k) == 0)
        .collect();
    if !missing.is_empty() {
        pass.fail(format!("race cases never visited: {missing:?}"));
    }
    pass.sim = Sim {
        fingerprint: fp.finish(),
        counts: counts(&stats),
        results: Vec::new(),
    };
    pass
}
