//! Probes: short, fixed loops over one layer's public API, timed in the
//! traced run. Each reports the median of several repetitions.

use std::hint::black_box;
use std::time::Instant;

use specrt_cache::{CacheConfig, CacheHierarchy, LineState, LineTags};
use specrt_check::{canonical_key, CaseSpec};
use specrt_engine::Cycles;
use specrt_ir::{execute_iteration, ArrayId, MapMemory};
use specrt_machine::MachineConfig;
use specrt_mem::{ElemSize, LineAddr, PlacementPolicy, ProcId};
use specrt_proto::{MemSystem, MemSystemConfig, NullSink, Tracer};
use specrt_spec::{
    DirElem, DirEvent, IterationNumbering, NonPrivDirElem, ProtocolKind, ProtocolSpec, TestPlan,
};

use crate::measure::median;

/// Repetitions per probe.
const REPS: usize = 5;
/// Generated case whose loop body the IR and canonical-key probes use.
const PROBE_CASE_SEED: u64 = 0x1234_5678;
const A: ArrayId = ArrayId(0);

/// Median over `REPS` repetitions of the nanoseconds per unit of work,
/// where one call of `f` does the work and returns how many units it did.
fn ns_per_unit(mut f: impl FnMut() -> u64) -> f64 {
    f(); // warm-up
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let units = f();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn mem_system(plan: TestPlan) -> MemSystem {
    let mut ms = MemSystem::new(MemSystemConfig::default());
    ms.alloc_array(A, 4096, ElemSize::W8, PlacementPolicy::RoundRobin);
    ms.configure_loop(plan, IterationNumbering::iteration_wise());
    ms
}

/// A nonpriv read hit on one line, `n` times.
fn nonpriv_hits(ms: &mut MemSystem, n: u64) -> u64 {
    let mut t = 1_000_000u64;
    for _ in 0..n {
        t += 2;
        black_box(ms.read(ProcId(0), A, 0, Cycles(t)));
    }
    n
}

fn nonpriv_plan() -> TestPlan {
    let mut plan = TestPlan::new();
    plan.set(A, ProtocolKind::NonPriv);
    plan
}

/// Runs every probe; `seed` selects the serve mix whose requests are
/// parsed.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    const N: u64 = 200_000;
    let mut out = Vec::new();

    let mut ms = mem_system(nonpriv_plan());
    ms.read(ProcId(0), A, 0, Cycles(0));
    let plain = ns_per_unit(|| nonpriv_hits(&mut ms, N));
    out.push(("proto.nonpriv_read_hit_ns", plain));

    let mut traced = mem_system(nonpriv_plan());
    traced.set_tracer(Tracer::new(Box::new(NullSink)));
    traced.read(ProcId(0), A, 0, Cycles(0));
    let null_sink = ns_per_unit(|| nonpriv_hits(&mut traced, N));
    out.push(("trace.null_sink_pct", 100.0 * (null_sink / plain - 1.0)));

    let mut plan = TestPlan::new();
    plan.set(
        A,
        ProtocolKind::Priv {
            read_in: false,
            copy_out: false,
        },
    );
    let mut ms = mem_system(plan);
    ms.begin_iteration(ProcId(0), 0);
    ms.write(ProcId(0), A, 0, Cycles(0));
    let (mut t, mut iter) = (1u64, 0u64);
    out.push((
        "proto.priv_write_hit_ns",
        ns_per_unit(|| {
            for _ in 0..N / 10 {
                t += 2;
                iter += 1;
                ms.begin_iteration(ProcId(0), iter);
                black_box(ms.write(ProcId(0), A, 0, Cycles(t)));
            }
            N / 10
        }),
    ));

    let mut ms = mem_system(TestPlan::new());
    let mut t = 0u64;
    out.push((
        "proto.pingpong_ns",
        ns_per_unit(|| {
            for _ in 0..N / 10 {
                t += 1000;
                black_box(ms.write(ProcId(0), A, 0, Cycles(t)));
                black_box(ms.write(ProcId(1), A, 0, Cycles(t + 500)));
            }
            N / 10
        }),
    ));

    // Lookups over 2048 lines after filling 1024 of them: a mix of L1
    // hits, L2 hits and misses.
    let mut cache = CacheHierarchy::new(CacheConfig::default());
    for line in 0..1024 {
        cache.fill(LineAddr(line), LineState::Clean, LineTags::empty());
    }
    out.push((
        "cache.probe_ns",
        ns_per_unit(|| {
            for i in 0..N {
                black_box(cache.probe(black_box(LineAddr(i % 2048))));
            }
            N
        }),
    ));

    let case = CaseSpec::generate(PROBE_CASE_SEED);
    let body = case.body();
    out.push((
        "ir.instr_ns",
        ns_per_unit(|| {
            let mut mem = MapMemory::new();
            let mut instrs = 0;
            for _ in 0..200 {
                for iter in 0..case.iters() {
                    instrs += execute_iteration(&body, iter, 0, &mut mem)
                        .expect("generated bodies execute");
                }
            }
            instrs
        }),
    ));

    out.push((
        "spec.dir_step_ns",
        ns_per_unit(|| {
            let mut e = DirElem::NonPriv(NonPrivDirElem::default());
            for i in 0..N {
                let ev = if i % 2 == 0 {
                    DirEvent::ReadReq { from: ProcId(0) }
                } else {
                    DirEvent::WriteReq { from: ProcId(0) }
                };
                let (next, em) = ProtocolSpec::dir_step(black_box(e), ev);
                black_box(em);
                e = next;
            }
            N
        }),
    ));

    let cfg = MachineConfig::with_procs(case.procs);
    out.push((
        "check.canon_key_ns",
        ns_per_unit(|| {
            for _ in 0..N / 20 {
                black_box(canonical_key(black_box(&case), &cfg, "hw-nonpriv"));
            }
            N / 20
        }),
    ));

    // One pass over the mix's distinct requests: paper-loop requests build
    // their workload while parsing, so they dominate the mean.
    let lines: Vec<String> = crate::serve_mix::distinct_bodies(seed)
        .iter()
        .map(|b| format!("{{{b}}}"))
        .collect();
    let t = Instant::now();
    for line in &lines {
        black_box(specrt_serve::parse_request(line).expect("mix requests parse"));
    }
    out.push((
        "serve.parse_us",
        t.elapsed().as_secs_f64() * 1e6 / lines.len() as f64,
    ));
    out
}
