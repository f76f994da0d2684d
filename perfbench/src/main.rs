//! The specrt benchmark.
//!
//! ```text
//! specrt-perfbench --workload <paper_loops|fuzz|model|serve_mix> --seed <n>
//!                  --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up from `--seed`, then repeats the workload's fixed
//! work ("passes") until `--seconds` have elapsed, checking every output.
//! With `--trace 0` it sets the workload up again between passes (the
//! median set-up time is `setup_s`) and reports the end-to-end metrics,
//! every time scaled to the host's speed during the run (see `calib`);
//! with `--trace 1` it spends half the time on untraced passes and half on
//! traced ones — the benchmark's own spans around each layer call plus the
//! `specrt-prof` host profiler — and reports the per-layer metrics. A
//! readable report goes to standard output, followed by one JSON line with
//! the result. Spans of a traced run are written to `perfbench/out/`. The
//! metrics and the reasoning behind them are described in
//! `perfbench/METRICS.md`.

mod calib;
mod fuzz;
mod measure;
mod model;
mod paper_loops;
mod probes;
mod serve_mix;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use calib::Sampler;
use measure::{median, percentile, ratio, span_mean_ns, span_total_ms, Recorder, Span};
use specrt_prof::ProfReport;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Share of an end-to-end run spent on repeated set-ups. They are made
/// between passes, at least one after each, so that they sample the same
/// host conditions as the passes; `setup_s` is their median.
const SETUP_SHARE: f64 = 0.1;

/// Per-layer metrics, reported by a traced run. A layer a workload does
/// not reach reports 0.
const PER_LAYER: [(&str, &str); 60] = [
    ("machine.serial_ms", "ms"),
    ("machine.ideal_ms", "ms"),
    ("machine.sw_ms", "ms"),
    ("machine.hw_ms", "ms"),
    ("machine.fail_ms", "ms"),
    ("machine.hw_ms.ocean", "ms"),
    ("machine.hw_ms.p3m", "ms"),
    ("machine.hw_ms.adm", "ms"),
    ("machine.hw_ms.track", "ms"),
    ("machine.exec_self_pct", "%"),
    ("machine.ckpt_rerun_self_pct", "%"),
    ("machine.backup_self_pct", "%"),
    ("machine.restore_self_pct", "%"),
    ("machine.serial_reexec_self_pct", "%"),
    ("machine.setup_self_pct", "%"),
    ("machine.pool_reuse", "ratio"),
    ("machine.busy_cycles", "cycles"),
    ("machine.sync_cycles", "cycles"),
    ("machine.mem_cycles", "cycles"),
    ("proto.access_calls", "count"),
    ("proto.access_ns", "ns"),
    ("proto.drain_ns", "ns"),
    ("proto.nonpriv_read_hit_ns", "ns"),
    ("proto.priv_write_hit_ns", "ns"),
    ("proto.pingpong_ns", "ns"),
    ("proto.transactions", "count"),
    ("proto.invalidations", "count"),
    ("proto.update_messages", "count"),
    ("proto.race_cases", "count"),
    ("engine.evq_ops", "count"),
    ("engine.evq_ns", "ns"),
    ("net.route_calls", "count"),
    ("net.route_ns", "ns"),
    ("net.messages", "count"),
    ("net.queue_cycles", "cycles"),
    ("cache.probe_ns", "ns"),
    ("ir.instr_ns", "ns"),
    ("lrpd.oracle_ms", "ms"),
    ("spec.dir_step_ns", "ns"),
    ("check.case_ms", "ms"),
    ("check.node_legs_ms", "ms"),
    ("check.gen_us", "us"),
    ("check.model_states.nonpriv", "count"),
    ("check.model_states.priv", "count"),
    ("check.model_states.priv3", "count"),
    ("check.model_states_per_s.nonpriv", "1/s"),
    ("check.model_states_per_s.priv", "1/s"),
    ("check.model_states_per_s.priv3", "1/s"),
    ("check.model_dedup", "ratio"),
    ("check.canon_key_ns", "ns"),
    ("par.worker_util", "ratio"),
    ("par.imbalance", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.hit_us", "us"),
    ("serve.miss_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.busy_rejections", "count"),
    ("serve.gen_late_ms", "ms"),
    ("prof.overhead_pct", "%"),
    ("trace.null_sink_pct", "%"),
];

/// What one pass over a workload's fixed work produced.
pub struct Pass {
    /// Host seconds the work took: wall time, except on `serve_mix`, whose
    /// wall time the offered rate fixes, where it is CPU time.
    pub host_s: f64,
    /// Latency of every operation of the pass, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub errors: Vec<String>,
    /// The simulated outcome, identical on every pass.
    pub sim: Sim,
    /// Per-layer numbers the workload measures itself during a pass.
    pub layer: Vec<(&'static str, f64)>,
}

/// The deterministic, simulated outcome of a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Hash over every run's simulated cycles, statistics and final image.
    pub fingerprint: u64,
    /// Exact simulated counts (per-layer metrics of the same name).
    pub counts: Vec<(&'static str, f64)>,
    /// Simulated results with the paper's aggregate: (name, value, paper).
    pub results: Vec<(&'static str, f64, f64)>,
}

impl Pass {
    /// Records one failed check (keeping the first few descriptions).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    PaperLoops,
    Fuzz,
    Model,
    ServeMix,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "paper_loops" => Kind::PaperLoops,
            "fuzz" => Kind::Fuzz,
            "model" => Kind::Model,
            "serve_mix" => Kind::ServeMix,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Kind::PaperLoops => "paper_loops",
            Kind::Fuzz => "fuzz",
            Kind::Model => "model",
            Kind::ServeMix => "serve_mix",
        }
    }
}

/// A workload's generated inputs, ready to run.
enum Prepared {
    PaperLoops(paper_loops::Prepared),
    Fuzz(fuzz::Prepared),
    Model(model::Prepared),
    ServeMix(serve_mix::Prepared),
}

impl Prepared {
    /// Generates the workload's inputs; spans of layer calls made on the
    /// way go under `parent`.
    fn setup(kind: Kind, seed: u64, jobs: usize, rec: &Recorder, parent: u64) -> Prepared {
        match kind {
            Kind::PaperLoops => Prepared::PaperLoops(paper_loops::setup(seed, jobs)),
            Kind::Fuzz => Prepared::Fuzz(fuzz::setup(seed, jobs, rec, parent)),
            Kind::Model => Prepared::Model(model::setup(jobs)),
            Kind::ServeMix => Prepared::ServeMix(serve_mix::setup(seed, jobs)),
        }
    }

    fn pass(&self, rec: &Recorder, root: u64) -> Pass {
        match self {
            Prepared::PaperLoops(p) => paper_loops::pass(p, rec, root),
            Prepared::Fuzz(p) => fuzz::pass(p, rec, root),
            Prepared::Model(p) => model::pass(p, rec, root),
            Prepared::ServeMix(p) => serve_mix::pass(p, rec, root),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (paper_loops|fuzz|model|serve_mix)")
                })?)
            }
            "--seed" => {
                seed = specrt_check::parse_seed(&value)
                    .ok_or_else(|| format!("--seed: not an unsigned integer: {value:?}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds: expected 0 < s <= 600, got {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Passes of one phase of a run, with their outcomes merged.
#[derive(Default)]
struct Phase {
    host_s: Vec<f64>,
    /// Per pass: when it started and ended, and how many latencies it gave.
    windows: Vec<(Instant, Instant, usize)>,
    latencies_ms: Vec<f64>,
    layer: BTreeMap<&'static str, Vec<f64>>,
    sims: Vec<Sim>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Phase {
    fn passes(&self) -> usize {
        self.host_s.len()
    }

    /// Mean over the phase's passes of a per-pass layer number.
    fn layer_mean(&self, name: &str) -> f64 {
        self.layer
            .get(name)
            .map_or(0.0, |v| ratio(v.iter().sum(), v.len() as f64))
    }
}

/// Repeats passes until `budget_s` has elapsed (at least one pass),
/// calling `between` after each.
fn run_passes(
    prep: &Prepared,
    rec: &Recorder,
    kind: Kind,
    budget_s: f64,
    mut between: impl FnMut(),
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    while phase.passes() == 0 || started.elapsed().as_secs_f64() < budget_s {
        rec.begin_run();
        let from = Instant::now();
        let pass = rec.span("perfbench.pass", kind.name(), 0, |root| {
            prep.pass(rec, root)
        });
        phase
            .windows
            .push((from, Instant::now(), pass.latencies_ms.len()));
        phase.host_s.push(pass.host_s);
        phase.latencies_ms.extend(pass.latencies_ms);
        for (name, v) in pass.layer {
            phase.layer.entry(name).or_default().push(v);
        }
        phase.attempted += pass.attempted;
        phase.failed += pass.failed;
        phase.errors.extend(pass.errors);
        phase.sims.push(pass.sim);
        between();
    }
    phase
}

/// A metric as reported: name, value, unit and sample count.
type Metric = (&'static str, f64, &'static str, usize);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("specrt-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rec = Recorder::new();

    // An end-to-end run times the calibration kernel throughout (see
    // `calib`), to scale its times to the host's speed.
    let sampler = (!args.trace).then(Sampler::start);
    let started = Instant::now();
    let setup = || {
        let t = Instant::now();
        let p = Prepared::setup(args.kind, args.seed, jobs, &rec, 0);
        (p, t.elapsed().as_secs_f64())
    };
    let (prep, first_setup_s) = setup();

    let (phases, metrics) = if args.trace {
        // The set-up's layer calls (case generation) are traced once too.
        rec.set_enabled(true);
        rec.begin_run();
        rec.span("perfbench.setup", args.kind.name(), 0, |id| {
            Prepared::setup(args.kind, args.seed, jobs, &rec, id)
        });
        rec.set_enabled(false);

        let untraced = run_passes(&prep, &rec, args.kind, args.seconds / 2.0, || {});
        let pool_before = specrt_machine::pool::counters();
        specrt_prof::set_enabled(true);
        rec.set_enabled(true);
        let traced = run_passes(&prep, &rec, args.kind, args.seconds / 2.0, || {});
        rec.set_enabled(false);
        specrt_prof::set_enabled(false);
        specrt_prof::flush_thread();
        let report = specrt_prof::take_report();
        let pool_after = specrt_machine::pool::counters();
        let pool = (pool_after.0 - pool_before.0, pool_after.1 - pool_before.1);

        let spans = rec.spans();
        let path = PathBuf::from("perfbench/out").join(format!(
            "spans-{}-seed{}.jsonl",
            args.kind.name(),
            args.seed
        ));
        let tag = format!("{}-seed{}", args.kind.name(), args.seed);
        match measure::write_spans(&path, &tag, &spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("specrt-perfbench: cannot write {}: {e}", path.display()),
        }
        let probes = probes::run(args.seed);
        let metrics = per_layer(&untraced, &traced, &spans, &report, pool, &probes);
        (vec![untraced, traced], metrics)
    } else {
        // Set-ups, each with when it started.
        let mut setups = vec![(started, first_setup_s)];
        let phase = run_passes(&prep, &rec, args.kind, args.seconds, || loop {
            let from = Instant::now();
            setups.push((from, setup().1));
            let spent: f64 = setups.iter().map(|s| s.1).sum();
            if spent >= SETUP_SHARE * started.elapsed().as_secs_f64() {
                break;
            }
        });
        let calib = sampler.expect("an end-to-end run samples").finish();
        // Each pass's times are scaled by the host's speed during that pass,
        // and each set-up's, a few milliseconds, by its speed in the second
        // around it.
        let setup_s: Vec<f64> = setups.iter().map(|&(_, s)| s).collect();
        let scaled_setup_s: Vec<f64> = setups
            .iter()
            .map(|&(from, s)| {
                let margin = Duration::from_millis(500);
                let to = from + Duration::from_secs_f64(s) + margin;
                s * calib.scale_between(from.checked_sub(margin).unwrap_or(from), to)
            })
            .collect();
        let (mut host_s, mut latencies_ms) = (Vec::new(), Vec::new());
        let mut at = 0;
        for (&(from, to, n), &s) in phase.windows.iter().zip(&phase.host_s) {
            let scale = calib.scale_between(from, to);
            host_s.push(s * scale);
            latencies_ms.extend(phase.latencies_ms[at..at + n].iter().map(|v| v * scale));
            at += n;
        }
        println!(
            "calibration: {} samples, median {:.6} s, scale {:.6}; \
             raw setup_s {:.6} host_s {:.6} p50_ms {:.6} p99_ms {:.6}",
            calib.samples(),
            calib.median_s(),
            calib.scale(),
            median(&setup_s),
            median(&phase.host_s),
            percentile(&phase.latencies_ms, 0.50),
            percentile(&phase.latencies_ms, 0.99),
        );
        let n_lat = latencies_ms.len();
        let metrics = vec![
            ("setup_s", median(&scaled_setup_s), "s", setup_s.len()),
            ("host_s", median(&host_s), "s", phase.passes()),
            ("peak_rss_mb", measure::peak_rss_mb(), "MiB", 1),
            ("p50_ms", percentile(&latencies_ms, 0.50), "ms", n_lat),
            ("p99_ms", percentile(&latencies_ms, 0.99), "ms", n_lat),
        ];
        (vec![phase], metrics)
    };
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|(name, v, unit, n)| (name, finite(v), unit, n))
        .collect();

    // Every pass must reproduce the first pass's simulated outcome.
    let first = phases[0].sims[0].clone();
    let mut attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = phases.iter().map(|p| p.failed).sum();
    let mut errors: Vec<String> = phases.iter().flat_map(|p| p.errors.clone()).collect();
    for sim in phases.iter().flat_map(|p| &p.sims) {
        attempted += 1;
        if *sim != first {
            failed += 1;
            errors.push("simulated outcome differs between passes".to_string());
        }
    }
    if let Prepared::Fuzz(p) = &prep {
        attempted += 1;
        if let Err(e) = fuzz::cross_check(p, &first) {
            failed += 1;
            errors.push(e);
        }
    }

    print_report(
        &args, jobs, &phases, &metrics, &first, attempted, failed, &errors,
    );
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
}

/// JSON has no NaN or infinity; a metric that would be one reads 0. An
/// empty sum (-0.0) reads 0 too.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v + 0.0
    } else {
        0.0
    }
}

#[allow(clippy::too_many_arguments)]
fn print_report(
    args: &Args,
    jobs: usize,
    phases: &[Phase],
    metrics: &[Metric],
    sim: &Sim,
    attempted: u64,
    failed: u64,
    errors: &[String],
) {
    let passes: Vec<String> = phases.iter().map(|p| p.passes().to_string()).collect();
    println!(
        "specrt-perfbench: workload {} seed {} trace {} jobs {jobs} passes {}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        passes.join("+")
    );
    for (i, phase) in phases.iter().enumerate() {
        let secs: Vec<String> = phase.host_s.iter().map(|s| format!("{s:.4}")).collect();
        println!("phase {i} host_s per pass: {}", secs.join(" "));
    }
    println!(
        "{:<34} {:>16} {:<7} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for (name, value, unit, n) in metrics {
        println!("{name:<34} {value:>16.6} {unit:<7} {n:>8}");
    }
    println!(
        "{:<34} {:>16.6} {:<7} {:>8}",
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
        attempted
    );
    for (name, value, paper) in &sim.results {
        println!(
            "{name:<34} {value:>16.6} {:<7} {:>8}   paper aggregate {paper} \
             (the only reference; the model is otherwise unvalidated)",
            "x", 4
        );
    }
    println!(
        "simulated fingerprint {:#018x} (each run starts with empty modelled caches)",
        sim.fingerprint
    );
    for (name, value) in &sim.counts {
        println!("  exact {name} = {value}");
    }
    for e in errors.iter().take(10) {
        println!("FAILED: {e}");
    }
}

/// Assembles every per-layer metric from the traced passes, the spans, the
/// host profile and the probes.
fn per_layer(
    untraced: &Phase,
    traced: &Phase,
    spans: &[Span],
    report: &ProfReport,
    pool: (u64, u64),
    probes: &[(&'static str, f64)],
) -> Vec<Metric> {
    let passes = traced.passes() as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let per_pass_ms =
        |name: &str, detail: &dyn Fn(&str) -> bool| span_total_ms(spans, name, detail) / passes;

    // Scenario spans of paper_loops carry details like `sw`, `hw/ocean`
    // and `fail.hw`.
    for (metric, prefix) in [
        ("machine.serial_ms", "serial"),
        ("machine.ideal_ms", "ideal"),
        ("machine.sw_ms", "sw"),
        ("machine.hw_ms", "hw/"),
        ("machine.fail_ms", "fail."),
        ("machine.hw_ms.ocean", "hw/ocean"),
        ("machine.hw_ms.p3m", "hw/p3m"),
        ("machine.hw_ms.adm", "hw/adm"),
        ("machine.hw_ms.track", "hw/track"),
    ] {
        m.insert(
            metric,
            per_pass_ms("machine.run_scenario", &|d| d.starts_with(prefix)),
        );
    }
    m.insert("check.case_ms", per_pass_ms("check.run_case", &|_| true));
    m.insert(
        "check.node_legs_ms",
        per_pass_ms("check.node_fault_legs", &|_| true),
    );
    m.insert("check.gen_us", span_mean_ns(spans, "check.gen") / 1e3);

    prof_metrics(report, passes, &mut m);
    let (builds, reuses) = pool;
    m.insert(
        "machine.pool_reuse",
        ratio(reuses as f64, (builds + reuses) as f64),
    );

    for (name, v) in &traced.sims[0].counts {
        m.insert(name, *v);
    }
    for name in traced.layer.keys() {
        m.insert(name, traced.layer_mean(name));
    }
    for (name, v) in probes {
        m.insert(name, *v);
    }
    m.insert(
        "prof.overhead_pct",
        100.0 * (ratio(median(&traced.host_s), median(&untraced.host_s)) - 1.0),
    );

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name,
                m.get(name).copied().unwrap_or(0.0),
                unit,
                traced.passes(),
            )
        })
        .collect()
}

/// Per-layer metrics read from the host profiler's report.
fn prof_metrics(report: &ProfReport, passes: f64, m: &mut BTreeMap<&'static str, f64>) {
    let totals = report.totals();
    let get = |name: &str| {
        totals
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    };
    let all_self: u64 = totals.iter().map(|(_, s)| s.self_ns).sum();
    for (metric, span) in [
        ("machine.exec_self_pct", "machine.exec"),
        ("machine.ckpt_rerun_self_pct", "machine.ckpt_rerun"),
        ("machine.backup_self_pct", "machine.backup"),
        ("machine.restore_self_pct", "machine.restore"),
        ("machine.serial_reexec_self_pct", "machine.serial_reexec"),
        ("machine.setup_self_pct", "machine.setup"),
    ] {
        m.insert(
            metric,
            100.0 * ratio(get(span).self_ns as f64, all_self as f64),
        );
    }
    let per_call_ns = |s: specrt_prof::SpanStat| ratio(s.total_ns as f64, s.count as f64);
    let access = get("proto.access");
    m.insert("proto.access_calls", access.count as f64 / passes);
    m.insert("proto.access_ns", per_call_ns(access));
    m.insert("proto.drain_ns", per_call_ns(get("proto.drain")));
    let mut evq = get("engine.evq_push");
    evq.absorb(&get("engine.evq_pop"));
    m.insert("engine.evq_ops", evq.count as f64 / passes);
    m.insert("engine.evq_ns", per_call_ns(evq));
    let route = get("net.route");
    m.insert("net.route_calls", route.count as f64 / passes);
    m.insert("net.route_ns", per_call_ns(route));
    m.insert(
        "lrpd.oracle_ms",
        get("fuzz.oracle").total_ns as f64 / 1e6 / passes,
    );

    let util = report.worker_utilization();
    m.insert(
        "par.worker_util",
        ratio(util.iter().map(|(_, u)| u).sum(), util.len() as f64),
    );
    // Busy time per pool worker; imbalance is the busiest over the mean.
    let busy: Vec<f64> = report
        .threads
        .iter()
        .filter(|t| t.span("par.worker").is_some())
        .map(|t| t.span("par.case").map_or(0.0, |s| s.total_ns as f64))
        .collect();
    let mean = ratio(busy.iter().sum(), busy.len() as f64);
    let max = busy.iter().copied().fold(0.0, f64::max);
    m.insert(
        "par.imbalance",
        if mean > 0.0 { max / mean - 1.0 } else { 0.0 },
    );
}
