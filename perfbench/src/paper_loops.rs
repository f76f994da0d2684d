//! `paper_loops`: the four paper loops at `Scale::Bench`, every invocation
//! under Serial, Ideal, SW (the paper's variant) and HW, plus each loop's
//! §6.2 forced-failure instance under Serial, SW and HW — the work
//! `experiments all bench` does for Figures 11–13. The seed sets the order
//! in which the invocation indices enter the worker pool; the set of runs,
//! and so every simulated figure, is the same for every seed.

use std::time::Instant;

use specrt_engine::SplitMix64;
use specrt_ir::ArrayId;
use specrt_machine::{run_scenario, RunResult, Scenario, SwVariant};
use specrt_mem::MemoryImage;
use specrt_workloads::{all_workloads, Scale, Workload};

use crate::measure::{thread_cpu_seconds, Fnv, Recorder};
use crate::{Pass, Sim};

/// Paper aggregates (§6): HW and SW speedup over Serial, and the HW
/// scheme's execution time on a forced failure normalised to Serial.
const PAPER_HW_SPEEDUP: f64 = 6.7;
const PAPER_SW_SPEEDUP: f64 = 2.9;
const PAPER_HW_FAIL_SLOWDOWN: f64 = 1.22;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Serial,
    Ideal,
    Sw,
    Hw,
    FailSerial,
    FailSw,
    FailHw,
}

/// One `run_scenario` call of the pass.
struct Unit {
    /// Index into the workload list.
    lp: usize,
    /// Invocation index (unused by the failure instance).
    inv: usize,
    kind: Kind,
    scenario: Scenario,
}

pub struct Prepared {
    workloads: Vec<Workload>,
    /// Units in canonical (loop, invocation, scenario) order.
    units: Vec<Unit>,
    /// Submission order: a seeded permutation of `units`.
    order: Vec<usize>,
    jobs: usize,
}

pub fn setup(seed: u64, jobs: usize) -> Prepared {
    let workloads = all_workloads(Scale::Bench);
    let mut units = Vec::new();
    for (lp, w) in workloads.iter().enumerate() {
        for inv in 0..w.invocations.len() {
            for (kind, scenario) in [
                (Kind::Serial, Scenario::Serial),
                (Kind::Ideal, Scenario::Ideal),
                (Kind::Sw, Scenario::Sw(w.sw_variant)),
                (Kind::Hw, Scenario::Hw),
            ] {
                units.push(Unit {
                    lp,
                    inv,
                    kind,
                    scenario,
                });
            }
        }
        // Track's §6.2 recipe runs the iteration-wise test on the instance
        // that needs the processor-wise one, as `fig13_jobs` does.
        let fail_sw = if w.name == "track" {
            SwVariant::IterationWise
        } else {
            w.sw_variant
        };
        for (kind, scenario) in [
            (Kind::FailSerial, Scenario::Serial),
            (Kind::FailSw, Scenario::Sw(fail_sw)),
            (Kind::FailHw, Scenario::Hw),
        ] {
            units.push(Unit {
                lp,
                inv: 0,
                kind,
                scenario,
            });
        }
    }
    let mut order: Vec<usize> = (0..units.len()).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    Prepared {
        workloads,
        units,
        order,
        jobs,
    }
}

/// The parts of a [`RunResult`] a pass keeps: its simulated outcome and
/// the CPU time of the call.
struct Digest {
    cycles: u64,
    busy: u64,
    sync: u64,
    mem: u64,
    passed: Option<bool>,
    /// Hash of the whole final image.
    image: u64,
    /// Hash of the arrays live after the loop (what Serial must match).
    live_image: u64,
    stats: u64,
    transactions: u64,
    invalidations: u64,
    update_messages: u64,
    race_cases: u64,
    messages: u64,
    queue: u64,
    ms: f64,
}

/// Content hash of the arrays `ids` of `img`.
fn image_hash(img: &MemoryImage, ids: &[ArrayId]) -> u64 {
    let mut h = Fnv::new();
    for &id in ids {
        h.u64(id.0 as u64);
        for s in img.contents(id) {
            h.u64(match s {
                specrt_ir::Scalar::Int(_) => 0,
                specrt_ir::Scalar::Float(_) => 1,
            });
            h.u64(s.to_bits());
        }
    }
    h.finish()
}

fn digest(r: &RunResult, live: &[ArrayId], ms: f64) -> Digest {
    let mut stats = Fnv::new();
    let mut race_cases = 0;
    for (k, v) in r.stats.iter() {
        stats.str(k).u64(v);
        if k.starts_with("race_case_") {
            race_cases += v;
        }
    }
    Digest {
        cycles: r.total_cycles.raw(),
        busy: r.breakdown.busy.raw(),
        sync: r.breakdown.sync.raw(),
        mem: r.breakdown.mem.raw(),
        passed: r.passed,
        image: image_hash(&r.final_image, &r.final_image.array_ids()),
        live_image: image_hash(&r.final_image, live),
        stats: stats.finish(),
        transactions: r.stats.get("transactions"),
        invalidations: r.stats.get("invalidations"),
        update_messages: r.stats.get("update_messages"),
        race_cases,
        messages: r.net.messages,
        queue: r.net.total_queue,
        ms,
    }
}

fn detail(kind: Kind, loop_name: &str) -> &'static str {
    match kind {
        Kind::Serial => "serial",
        Kind::Ideal => "ideal",
        Kind::Sw => "sw",
        Kind::Hw => match loop_name {
            "ocean" => "hw/ocean",
            "p3m" => "hw/p3m",
            "adm" => "hw/adm",
            "track" => "hw/track",
            _ => "hw/other",
        },
        Kind::FailSerial => "fail.serial",
        Kind::FailSw => "fail.sw",
        Kind::FailHw => "fail.hw",
    }
}

pub fn pass(p: &Prepared, rec: &Recorder, root: u64) -> Pass {
    let started = Instant::now();
    let digests = specrt_par::par_map(p.jobs, &p.order, |_, &u| {
        let unit = &p.units[u];
        let w = &p.workloads[unit.lp];
        let spec = match unit.kind {
            Kind::FailSerial | Kind::FailSw | Kind::FailHw => &w.failure_instance,
            _ => &w.invocations[unit.inv],
        };
        let cpu = thread_cpu_seconds();
        let r = rec.span(
            "machine.run_scenario",
            detail(unit.kind, w.name),
            root,
            |_| run_scenario(spec, unit.scenario, w.procs),
        );
        let ms = (thread_cpu_seconds() - cpu) * 1e3;
        (u, digest(&r, &spec.live_after, ms))
    });
    let host_s = started.elapsed().as_secs_f64();

    let mut by_unit: Vec<Option<Digest>> = (0..p.units.len()).map(|_| None).collect();
    for (u, d) in digests {
        by_unit[u] = Some(d);
    }
    let by_unit: Vec<Digest> = by_unit
        .into_iter()
        .map(|d| d.expect("every unit ran once"))
        .collect();

    let mut pass = Pass {
        host_s,
        latencies_ms: by_unit.iter().map(|d| d.ms).collect(),
        attempted: p.units.len() as u64,
        failed: 0,
        errors: Vec::new(),
        sim: Sim {
            fingerprint: 0,
            counts: Vec::new(),
            results: Vec::new(),
        },
        layer: Vec::new(),
    };

    // Correctness: every speculative run ends with Serial's image of the
    // arrays live after the loop; regular
    // invocations pass both run-time tests, forced failures fail both.
    let serial_of = |unit: &Unit| {
        let want = match unit.kind {
            Kind::FailSw | Kind::FailHw => Kind::FailSerial,
            _ => Kind::Serial,
        };
        p.units
            .iter()
            .position(|v| v.lp == unit.lp && v.inv == unit.inv && v.kind == want)
            .expect("every invocation has a serial run")
    };
    for (u, unit) in p.units.iter().enumerate() {
        let want_pass = match unit.kind {
            Kind::Sw | Kind::Hw => true,
            Kind::FailSw | Kind::FailHw => false,
            _ => continue,
        };
        let d = &by_unit[u];
        let name = p.workloads[unit.lp].name;
        if d.live_image != by_unit[serial_of(unit)].live_image {
            pass.fail(format!(
                "{name} invocation {} {:?}: final image differs from Serial",
                unit.inv, unit.kind
            ));
        } else if d.passed != Some(want_pass) {
            pass.fail(format!(
                "{name} invocation {} {:?}: run-time test gave {:?}, expected {want_pass}",
                unit.inv, unit.kind, d.passed
            ));
        }
    }

    let mut fp = Fnv::new();
    let sum = |f: fn(&Digest) -> u64| by_unit.iter().map(f).sum::<u64>() as f64;
    let counts = vec![
        ("machine.busy_cycles", sum(|d| d.busy)),
        ("machine.sync_cycles", sum(|d| d.sync)),
        ("machine.mem_cycles", sum(|d| d.mem)),
        ("machine.total_cycles", sum(|d| d.cycles)),
        ("proto.transactions", sum(|d| d.transactions)),
        ("proto.invalidations", sum(|d| d.invalidations)),
        ("proto.update_messages", sum(|d| d.update_messages)),
        ("proto.race_cases", sum(|d| d.race_cases)),
        ("net.messages", sum(|d| d.messages)),
        ("net.queue_cycles", sum(|d| d.queue)),
    ];
    for d in &by_unit {
        fp.u64(d.cycles).u64(d.busy).u64(d.sync).u64(d.mem);
        fp.u64(d.passed.map_or(2, u64::from))
            .u64(d.image)
            .u64(d.stats);
        fp.u64(d.messages).u64(d.queue);
    }

    // Per-loop cycle totals, then means over the four loops.
    let cycles_of = |lp: usize, kind: Kind| {
        p.units
            .iter()
            .zip(&by_unit)
            .filter(|(u, _)| u.lp == lp && u.kind == kind)
            .map(|(_, d)| d.cycles)
            .sum::<u64>() as f64
    };
    let loops = p.workloads.len();
    let mean_over_loops = |num: Kind, den: Kind| {
        (0..loops)
            .map(|lp| cycles_of(lp, num) / cycles_of(lp, den))
            .sum::<f64>()
            / loops as f64
    };
    pass.sim = Sim {
        fingerprint: fp.finish(),
        counts,
        results: vec![
            (
                "hw_speedup",
                mean_over_loops(Kind::Serial, Kind::Hw),
                PAPER_HW_SPEEDUP,
            ),
            (
                "sw_speedup",
                mean_over_loops(Kind::Serial, Kind::Sw),
                PAPER_SW_SPEEDUP,
            ),
            (
                "hw_fail_slowdown",
                mean_over_loops(Kind::FailHw, Kind::FailSerial),
                PAPER_HW_FAIL_SLOWDOWN,
            ),
        ],
    };
    pass
}
