//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! experiments [all|claims|fig11|fig12|fig13|fig14|state|ablation] [smoke|bench|full]
//!             [--jobs N]
//! experiments --trace <path> [--metrics] [--workload <name>] [smoke|bench|full]
//!             [--net <flat|mesh>] [--link-bw <cycles>] [--net-report]
//! ```
//!
//! Defaults to `all bench`. Output is the plain-text analogue of the
//! paper's Figures 11–14 plus the §3.4 state-cost table and the §4.1
//! ablations; `EXPERIMENTS.md` records the paper-vs-measured comparison.
//!
//! `--jobs N` fans the independent scenario simulations of each figure out
//! over `N` worker threads (`0` = all available cores, the default). Every
//! row is reassembled in its serial position, so the output is
//! byte-identical for every job count.
//!
//! With `--trace <path>` the binary instead runs one traced HW execution
//! of a paper workload (a passing invocation followed by its §6.2
//! forced-failure instance), writes the structured event stream to
//! `<path>` — JSONL if the path ends in `.jsonl`, a Chrome `trace_events`
//! JSON document (loadable in Perfetto / `chrome://tracing`) otherwise —
//! and prints an abort-forensics table. `--metrics` prints the unified
//! metrics registry (protocol counters, latency histograms, Busy/Sync/Mem
//! breakdowns, network counters) of the same runs as one JSON object on
//! stdout.
//!
//! `--net mesh` swaps the constant-latency crossbar for a 2D mesh with
//! finite link bandwidth (`--link-bw` cycles of link occupancy per
//! message), and `--net-report` prints per-link utilization plus the
//! worst hotspot alongside the abort forensics.
//!
//! `--profile[=FILE]` enables the host-side span profiler for whatever the
//! invocation runs and prints the ranked self-time table to **stderr**
//! when it finishes; `=FILE` additionally writes a Chrome `trace_events`
//! timeline of the host spans (one track per worker). stdout — the figure
//! tables themselves — is byte-identical with or without it.

use specrt_core::experiments::{
    ablation_chunking, ablation_machine, ablation_policy, ablation_track_block, evaluate_all,
    extension_density, fig11_from, fig12_from, fig13, fig14, state_cost_table, LoopResults,
};
use specrt_core::report::{bar_chart, bsm, f2, stacked_bar, Table};
use specrt_engine::Cycles;
use specrt_machine::{run_scenario_configured, MachineConfig, RunResult, Scenario};
use specrt_proto::NetConfig;
use specrt_trace::export::{chrome_trace, jsonl, metrics_json};
use specrt_trace::{MetricsRegistry, TraceEvent};
use specrt_workloads::{all_workloads, Scale};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    let mut metrics = false;
    let mut net_arg: Option<String> = None;
    let mut link_bw: Option<u64> = None;
    let mut net_report = false;
    let mut workload = String::from("adm");
    let mut jobs = specrt_par::default_jobs();
    let mut profile = false;
    let mut profile_out: Option<String> = None;
    let mut pos: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--profile" => profile = true,
            flag if flag.starts_with("--profile=") => {
                profile = true;
                let p = &flag["--profile=".len()..];
                if p.is_empty() {
                    eprintln!("--profile= requires a file name");
                    std::process::exit(2);
                }
                profile_out = Some(p.to_string());
            }
            "--jobs" | "-j" => match it.next().as_deref().and_then(specrt_par::parse_jobs) {
                Some(j) => jobs = j,
                None => {
                    eprintln!("--jobs requires a worker count (0 = all cores)");
                    std::process::exit(2);
                }
            },
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p),
                None => {
                    eprintln!("--trace requires an output path");
                    std::process::exit(2);
                }
            },
            "--metrics" => metrics = true,
            "--net" => match it.next() {
                Some(n) if n == "flat" || n == "mesh" => net_arg = Some(n),
                Some(other) => {
                    eprintln!("unknown topology {other:?}; use flat|mesh");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--net requires a topology (flat|mesh)");
                    std::process::exit(2);
                }
            },
            "--link-bw" => match it.next().as_deref().map(str::parse) {
                Some(Ok(v)) => link_bw = Some(v),
                _ => {
                    eprintln!("--link-bw requires a cycle count");
                    std::process::exit(2);
                }
            },
            "--net-report" => net_report = true,
            "--workload" => match it.next() {
                Some(w) => workload = w,
                None => {
                    eprintln!("--workload requires a workload name");
                    std::process::exit(2);
                }
            },
            _ => pos.push(a),
        }
    }
    if profile {
        specrt_prof::set_enabled(true);
    }
    let report_mode = trace_path.is_some() || metrics || net_report;
    let what = pos.first().map(String::as_str).unwrap_or("all");
    let scale_arg = if report_mode { pos.first() } else { pos.get(1) };
    let scale = match scale_arg.map(String::as_str) {
        Some("smoke") => Scale::Smoke,
        Some("full") => Scale::Full,
        None | Some("bench") => Scale::Bench,
        Some(other) => {
            eprintln!("unknown scale {other:?}; use smoke|bench|full");
            std::process::exit(2);
        }
    };

    if report_mode {
        let opts = ReportOptions {
            trace_path: trace_path.as_deref(),
            metrics,
            net: net_arg.as_deref(),
            link_bw,
            net_report,
        };
        trace_report(&workload, scale, &opts);
        if profile {
            finish_profile(profile_out.as_deref());
        }
        return;
    }
    if net_arg.is_some() || link_bw.is_some() {
        eprintln!("--net/--link-bw only apply to --trace/--metrics/--net-report runs");
        std::process::exit(2);
    }

    let needs_eval = matches!(what, "all" | "claims" | "fig11" | "fig12");
    let results: Vec<LoopResults> = if needs_eval {
        eprintln!("running all scenarios on all workloads ({scale:?} scale, {jobs} worker(s))...");
        evaluate_all(scale, jobs)
    } else {
        Vec::new()
    };

    match what {
        "all" => {
            print_fig11(&results);
            print_fig12(&results);
            print_fig13(scale, jobs);
            print_fig14(scale, jobs);
            print_state();
            print_ablation(scale, jobs);
        }
        "claims" => print_claims(&results, scale, jobs),
        "fig11" => print_fig11(&results),
        "fig12" => print_fig12(&results),
        "fig13" => print_fig13(scale, jobs),
        "fig14" => print_fig14(scale, jobs),
        "state" => print_state(),
        "ablation" => print_ablation(scale, jobs),
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    }
    if profile {
        finish_profile(profile_out.as_deref());
    }
}

/// Prints the ranked host self-time table to stderr and, when asked,
/// writes the host-span Chrome timeline — after all deterministic stdout
/// output is complete.
fn finish_profile(out: Option<&str>) {
    let report = specrt_prof::take_report();
    specrt_prof::set_enabled(false);
    eprint!("{}", report.render_table(20));
    if let Some(path) = out {
        let doc = specrt_trace::export::chrome_host_trace(&report);
        match std::fs::write(path, doc) {
            Ok(()) => eprintln!("host timeline written to {path} (Chrome trace_events)"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}

/// Checks the four quantitative claims of the paper's abstract against the
/// measured results and prints a pass/fail report.
fn print_claims(results: &[LoopResults], scale: Scale, jobs: usize) {
    println!("== Reproduction report: the abstract's claims ==\n");
    let rows = fig11_from(results);
    let hw_mean: f64 = rows.iter().map(|r| r.hw).sum::<f64>() / rows.len() as f64;
    let ratio_geo: f64 = rows
        .iter()
        .map(|r| r.hw / r.sw)
        .product::<f64>()
        .powf(1.0 / rows.len() as f64);
    let all_hw_beat_sw = rows.iter().all(|r| r.hw > r.sw);
    let f13 = fig13(scale, jobs);
    let hw_fail: f64 = f13.iter().map(|r| r.hw.total()).sum::<f64>() / f13.len() as f64;
    let sw_fail: f64 = f13.iter().map(|r| r.sw.total()).sum::<f64>() / f13.len() as f64;
    let early = f13
        .iter()
        .all(|r| r.hw_iterations_before_abort * 4 < r.iterations.max(4));

    let check = |ok: bool| if ok { "PASS" } else { "FAIL" };
    println!(
        "[{}] \"delivers a speedup of 7 for 16 processors\": HW mean {:.2}x (> 4 expected at reproduction scale)",
        check(hw_mean > 4.0),
        hw_mean
    );
    println!(
        "[{}] \"twice faster than the software scheme\": geometric-mean HW/SW {:.2}x on {} loops (all HW > SW: {})",
        check(ratio_geo > 1.5 && all_hw_beat_sw),
        ratio_geo,
        rows.len(),
        all_hw_beat_sw
    );
    println!(
        "[{}] \"detects serial loops very quickly\": HW aborts in the first quarter of every forced-failure loop: {}",
        check(early),
        early
    );
    println!(
        "[{}] failure is cheap: HW {:.2}x vs SW {:.2}x serial on forced failures (paper: 1.22 vs 1.58)",
        check(hw_fail < sw_fail && hw_fail < 1.6),
        hw_fail,
        sw_fail
    );
}

fn print_fig11(results: &[LoopResults]) {
    println!("== Figure 11: speedups of the parallel executions ==");
    println!(
        "(paper: HW averages 6.7 at 16 procs, SW 2.9; HW roughly half-way between SW and Ideal)\n"
    );
    let mut t = Table::new(vec!["loop", "procs", "Ideal", "SW", "HW", "HW/SW"]);
    for r in fig11_from(results) {
        t.row(vec![
            r.workload.clone(),
            r.procs.to_string(),
            f2(r.ideal),
            f2(r.sw),
            f2(r.hw),
            f2(r.hw / r.sw),
        ]);
    }
    println!("{}", t.render());
    let mut bars = Vec::new();
    for r in fig11_from(results) {
        bars.push((format!("{} Ideal", r.workload), r.ideal));
        bars.push((format!("{} SW", r.workload), r.sw));
        bars.push((format!("{} HW", r.workload), r.hw));
    }
    println!("{}", bar_chart(&bars, 50));
}

fn print_fig12(results: &[LoopResults]) {
    println!("== Figure 12: execution time breakdown (normalized to Serial) ==");
    println!("(bars are Busy+Sync+Mem; paper: HW has lower Busy and Mem than SW everywhere)\n");
    let mut t = Table::new(vec!["loop", "scenario", "busy+sync+mem", "total"]);
    let rows = fig12_from(results);
    let scale_max = rows
        .iter()
        .flat_map(|r| r.bars.iter().map(|b| b.total()))
        .fold(1.0_f64, f64::max);
    for row in &rows {
        for bar in &row.bars {
            t.row(vec![
                row.workload.clone(),
                bar.scenario.clone(),
                bsm(bar.busy, bar.sync, bar.mem),
                f2(bar.total()),
            ]);
        }
    }
    println!("{}", t.render());
    println!("(stacked: # busy, ~ sync, . mem)");
    for row in &rows {
        for bar in &row.bars {
            println!(
                "{:<5} {:<8} |{}",
                row.workload,
                bar.scenario,
                stacked_bar(bar.busy, bar.sync, bar.mem, scale_max, 60)
            );
        }
    }
    println!();
}

fn print_fig13(scale: Scale, jobs: usize) {
    println!("== Figure 13: execution time when the test fails (normalized to Serial) ==");
    println!("(paper: HW averages 1.22x Serial, SW 1.58x; HW aborts almost immediately)\n");
    let mut t = Table::new(vec![
        "loop",
        "Serial",
        "SW (fail)",
        "HW (fail)",
        "HW iters before abort",
    ]);
    for r in fig13(scale, jobs) {
        t.row(vec![
            r.workload.clone(),
            f2(r.serial.total()),
            f2(r.sw.total()),
            f2(r.hw.total()),
            format!("{}/{}", r.hw_iterations_before_abort, r.iterations),
        ]);
    }
    println!("{}", t.render());
}

fn print_fig14(scale: Scale, jobs: usize) {
    println!("== Figure 14: scalability (speedups at 8 and 16 processors) ==");
    println!("(paper: SW saturates earlier; P3m's SW is slower at 16 than at 8)\n");
    let mut t = Table::new(vec!["loop", "procs", "Ideal", "SW", "HW"]);
    for r in fig14(scale, jobs) {
        t.row(vec![
            r.workload.clone(),
            r.procs.to_string(),
            f2(r.ideal),
            f2(r.sw),
            f2(r.hw),
        ]);
    }
    println!("{}", t.render());
}

fn print_state() {
    println!("== Figure 5 / section 3.4: per-element overhead state ==\n");
    let mut t = Table::new(vec![
        "configuration",
        "HW dir bits",
        "HW tag bits",
        "SW bits",
        "HW/SW",
    ]);
    for r in state_cost_table() {
        t.row(vec![
            r.config.clone(),
            r.hw_dir_bits.to_string(),
            r.hw_tag_bits.to_string(),
            r.sw_bits.to_string(),
            f2(r.ratio),
        ]);
    }
    println!("{}", t.render());
}

fn print_ablation(scale: Scale, jobs: usize) {
    println!(
        "== Ablation (section 4.1): superiteration chunking on the privatization protocol ==\n"
    );
    let mut t = Table::new(vec![
        "chunk",
        "HW cycles",
        "read-first signals",
        "stamp bits",
    ]);
    for r in ablation_chunking(scale, jobs) {
        t.row(vec![
            r.chunk.to_string(),
            r.hw_cycles.to_string(),
            r.read_first_signals.to_string(),
            r.stamp_bits.to_string(),
        ]);
    }
    println!("{}", t.render());

    println!("== Ablation: machine-model sensitivity (Ocean, HW vs SW) ==\n");
    let mut t = Table::new(vec!["machine", "HW speedup", "SW speedup"]);
    for r in ablation_machine(jobs) {
        t.row(vec![r.config.clone(), f2(r.hw_speedup), f2(r.sw_speedup)]);
    }
    println!("{}", t.render());

    println!("== Extension (section 2.2.4): profitability vs conflict density ==\n");
    let mut t = Table::new(vec!["density", "pass rate", "HW/serial", "SW/serial"]);
    for r in extension_density(scale, jobs) {
        t.row(vec![
            format!("{:.2}", r.density),
            f2(r.pass_rate),
            f2(r.hw_over_serial),
            f2(r.sw_over_serial),
        ]);
    }
    println!("{}", t.render());

    println!("== Ablation: abort latency and dirty-read coherence policy (Ocean) ==\n");
    let mut t = Table::new(vec!["configuration", "HW cycles"]);
    for r in ablation_policy(jobs) {
        t.row(vec![r.config.clone(), r.hw_cycles.to_string()]);
    }
    println!("{}", t.render());

    println!("== Ablation (section 5.2): Track's dynamic block size under HW ==\n");
    let mut t = Table::new(vec!["block", "passed", "HW cycles"]);
    for r in ablation_track_block(jobs) {
        t.row(vec![
            r.block.to_string(),
            r.passed.to_string(),
            r.hw_cycles.to_string(),
        ]);
    }
    println!("{}", t.render());
}

// ----------------------------------------------------------------------
// Structured tracing / metrics (`--trace` / `--metrics`)
// ----------------------------------------------------------------------

/// Events a run can collect before the ring buffer starts evicting.
const TRACE_CAPACITY: usize = 1 << 18;

/// Shifts every timestamp in `events` forward by `by` cycles, so that two
/// runs can share one trace file without overlapping on the timeline.
fn shift_events(events: &mut [TraceEvent], by: Cycles) {
    for e in events {
        match e {
            TraceEvent::Transaction { at, complete, .. } => {
                *at += by;
                *complete += by;
            }
            TraceEvent::SpecTransition { at, .. }
            | TraceEvent::Message { at, .. }
            | TraceEvent::Net { at, .. }
            | TraceEvent::Sched { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::NodeFault { at, .. }
            | TraceEvent::Recovery { at, .. }
            | TraceEvent::Abort { at, .. } => *at += by,
        }
    }
}

/// Flags governing a `--trace`/`--metrics`/`--net-report` run.
struct ReportOptions<'a> {
    trace_path: Option<&'a str>,
    metrics: bool,
    /// `--net flat|mesh`; `None` keeps the default (flat) interconnect.
    net: Option<&'a str>,
    /// `--link-bw`: cycles each message occupies a link (0 = infinite bw).
    link_bw: Option<u64>,
    net_report: bool,
}

/// Runs HW executions of `name` with tracing on (one passing invocation,
/// then the §6.2 forced-failure instance), exports the combined event
/// stream and prints forensics / metrics / the network report.
fn trace_report(name: &str, scale: Scale, opts: &ReportOptions) {
    let workloads = all_workloads(scale);
    let Some(w) = workloads.iter().find(|w| w.name == name) else {
        let names: Vec<&str> = workloads.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; available: {}", names.join(", "));
        std::process::exit(2);
    };
    let mut net = match opts.net {
        Some("mesh") => NetConfig::mesh(w.procs),
        _ => NetConfig::flat(),
    };
    if let Some(bw) = opts.link_bw {
        net = net.with_link_service(bw);
    }
    let mut cfg = MachineConfig::with_procs(w.procs).with_net(net);
    cfg.trace_capacity = TRACE_CAPACITY;
    cfg.trace_net = opts.net_report;

    eprintln!(
        "tracing HW run of {name} ({} procs, {} interconnect, {scale:?} scale)...",
        w.procs,
        cfg.mem.net.topology.label(),
    );
    let mut pass = run_scenario_configured(&w.invocations[0], Scenario::Hw, cfg);
    eprintln!("tracing HW run of the forced-failure instance...");
    let mut fail = run_scenario_configured(&w.failure_instance, Scenario::Hw, cfg);

    // Place the failure run after the passing run on the shared timeline.
    shift_events(&mut fail.trace, pass.total_cycles + Cycles(1000));
    let mut events = std::mem::take(&mut pass.trace);
    events.append(&mut fail.trace);

    print_trace_summary(&events, &pass, &fail);
    print_abort_forensics(&events);
    if opts.net_report {
        print_net_report(&[("pass", &pass), ("fail", &fail)]);
    }

    if let Some(path) = opts.trace_path {
        let doc = if path.ends_with(".jsonl") {
            jsonl(&events)
        } else {
            chrome_trace(&events)
        };
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {} events to {path} ({})",
            events.len(),
            if path.ends_with(".jsonl") {
                "JSONL"
            } else {
                "Chrome trace_events; load in Perfetto or chrome://tracing"
            }
        );
    }

    if opts.metrics {
        let mut m = MetricsRegistry::new();
        for (tag, run) in [("pass", &pass), ("fail", &fail)] {
            m.absorb_stats(&format!("proto.{tag}"), &run.stats);
            m.record_breakdown(&format!("machine.{tag}"), run.breakdown);
            m.incr(
                &format!("machine.{tag}.total_cycles"),
                run.total_cycles.raw(),
            );
            m.incr(&format!("machine.{tag}.iterations"), run.iterations);
            let n = &run.net;
            m.incr(&format!("net.{tag}.messages"), n.messages);
            m.incr(&format!("net.{tag}.local_messages"), n.local_messages);
            m.incr(&format!("net.{tag}.total_hops"), n.total_hops);
            m.incr(&format!("net.{tag}.queue_cycles"), n.total_queue);
            m.incr(&format!("net.{tag}.contended_links"), n.links.len() as u64);
            for l in &n.links {
                m.observe(&format!("net.{tag}.link_queued"), l.queued);
            }
        }
        for e in &events {
            m.incr(&format!("trace.events.{}", e.kind()), 1);
            if let TraceEvent::Transaction {
                at,
                complete,
                queue,
                ..
            } = e
            {
                m.observe("mem.access_latency", complete.raw() - at.raw());
                m.observe("mem.queue_delay", queue.raw());
            }
        }
        println!("{}", metrics_json(&m));
    }
}

fn print_trace_summary(events: &[TraceEvent], pass: &RunResult, fail: &RunResult) {
    let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
    let mut protocols: Vec<&'static str> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SpecTransition { protocol, .. } => Some(*protocol),
            _ => None,
        })
        .collect();
    protocols.sort_unstable();
    protocols.dedup();
    println!("== Traced HW runs ==\n");
    let mut t = Table::new(vec!["run", "passed", "cycles", "iterations"]);
    for r in [pass, fail] {
        t.row(vec![
            r.name.clone(),
            r.passed.map(|p| p.to_string()).unwrap_or_default(),
            r.total_cycles.raw().to_string(),
            r.iterations.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "events: {} transactions, {} spec transitions ({}), {} messages, {} sched, {} aborts\n",
        count("txn"),
        count("spec"),
        if protocols.is_empty() {
            "none".to_string()
        } else {
            protocols.join(", ")
        },
        count("msg"),
        count("sched"),
        count("abort"),
    );
}

/// The abort-forensics table: one row per FAIL with full context.
fn print_abort_forensics(events: &[TraceEvent]) {
    let aborts: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Abort { .. }))
        .collect();
    if aborts.is_empty() {
        println!("no speculation failures detected in the traced runs\n");
        return;
    }
    println!("== Abort forensics ==\n");
    let mut t = Table::new(vec!["cycle", "proc", "array", "elem", "iter", "reason"]);
    let opt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
    for e in &aborts {
        if let TraceEvent::Abort {
            at,
            proc,
            arr,
            idx,
            iter,
            reason,
            ..
        } = e
        {
            t.row(vec![
                at.raw().to_string(),
                opt(proc.map(|p| format!("cpu{p}"))),
                opt(arr.map(|a| format!("arr{a}"))),
                opt(idx.map(|i| i.to_string())),
                opt(iter.map(|i| i.to_string())),
                reason.clone(),
            ]);
        }
    }
    println!("{}", t.render());
}

/// How many of the busiest links the `--net-report` table shows per run.
const NET_REPORT_LINKS: usize = 8;

/// The `--net-report` tables: per-run traffic totals, then per-link
/// utilization for the most congested links, with the worst hotspot called
/// out (the link aborts and retries pile onto first).
fn print_net_report(runs: &[(&str, &RunResult)]) {
    println!("== Network report ==\n");
    let mut t = Table::new(vec![
        "run",
        "topology",
        "messages",
        "local",
        "mean hops",
        "queue cycles",
        "contended links",
    ]);
    for (tag, r) in runs {
        let n = &r.net;
        t.row(vec![
            tag.to_string(),
            n.topology.clone(),
            n.messages.to_string(),
            n.local_messages.to_string(),
            f2(n.mean_hops()),
            n.total_queue.to_string(),
            n.links.len().to_string(),
        ]);
    }
    println!("{}", t.render());

    for (tag, r) in runs {
        let n = &r.net;
        if n.links.is_empty() {
            println!("{tag}: no link saw traffic (flat interconnect with infinite bandwidth)\n");
            continue;
        }
        let mut links = n.links.clone();
        links.sort_by_key(|l| std::cmp::Reverse((l.queued, l.busy, l.msgs)));
        println!(
            "-- {tag}: busiest {} of {} links --",
            links.len().min(NET_REPORT_LINKS),
            links.len()
        );
        let cycles = r.total_cycles.raw().max(1) as f64;
        let mut t = Table::new(vec!["link", "messages", "busy", "queued", "util %"]);
        for l in links.iter().take(NET_REPORT_LINKS) {
            t.row(vec![
                l.link.to_string(),
                l.msgs.to_string(),
                l.busy.to_string(),
                l.queued.to_string(),
                f2(100.0 * l.busy as f64 / cycles),
            ]);
        }
        println!("{}", t.render());
        if let Some(h) = n.hotspot() {
            println!(
                "{tag}: worst hotspot {} ({} messages, {} queued cycles)\n",
                h.link, h.msgs, h.queued
            );
        }
    }
}
