//! Pool-reuse equivalence: a leased-and-reset `MemSystem` must be
//! indistinguishable from a freshly built one.
//!
//! Every scenario runner leases its machine from the thread-local pool
//! (`specrt_machine::pool`), so on a warmed thread runs execute on
//! instances that already ran *other* cases — under other configurations —
//! and were re-targeted in place by `MemSystem::reset_to`. Any state that
//! survives the reset — a stale directory entry, an unsorted layout slot, a
//! leftover message watermark, a fault plane or bank count adopted from the
//! previous configuration — would show up as a divergence between a cold
//! (fresh-thread, fresh-build) run and a warm (pooled) run of the same
//! case. These tests render both byte-for-byte: oracle mismatches, merged
//! protocol stats, the verdict, and the full event trace of the hardware
//! non-privatization run, across the whole pinned fuzz corpus plus one
//! fault-campaign cell; and, across configurations, every run of the
//! node-fault legs, a checkpoint rerun on the survivors and a larger
//! machine, each after a warm-up under unrelated configurations.

use std::fmt::Write as _;
use std::path::PathBuf;

use specrt_check::{
    node_fault_legs, parse_seed, run_case, CampaignConfig, CaseSpec, NODE_OUTAGE_CYCLES,
};
use specrt_machine::{
    pool, run_scenario_configured, CheckpointConfig, LoopSpec, MachineConfig, RecoveryPolicy,
    Scenario,
};
use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};
use specrt_spec::ProtocolKind;

fn corpus_seeds() -> Vec<u64> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut seeds: Vec<u64> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "seed"))
        .map(|e| {
            let text = std::fs::read_to_string(e.path()).expect("seed file readable");
            parse_seed(&text).expect("seed parses")
        })
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// Everything observable about one case, rendered canonically.
fn canonical(seed: u64) -> String {
    let case = CaseSpec::generate(seed);
    let r = run_case(&case);
    let mut s = String::new();
    let _ = writeln!(s, "mismatches={:?}", r.mismatches);
    let mut stats: Vec<_> = r.stats.iter().collect();
    stats.sort();
    let _ = writeln!(s, "stats={stats:?}");
    let mut cfg = MachineConfig::with_procs(case.procs);
    cfg.trace_capacity = 1 << 14;
    let np = run_scenario_configured(
        &case.loop_spec(ProtocolKind::NonPriv, true),
        Scenario::Hw,
        cfg,
    );
    let _ = writeln!(
        s,
        "passed={:?} failure={:?} cycles={}",
        np.passed,
        np.failure,
        np.total_cycles.raw()
    );
    for ev in &np.trace {
        let _ = writeln!(s, "{ev:?}");
    }
    s
}

/// Runs `f` on a brand-new thread, whose thread-local pool is empty: every
/// lease inside builds fresh.
fn on_cold_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().expect("cold-thread run")
}

#[test]
fn corpus_runs_identically_on_fresh_and_reused_instances() {
    let seeds = corpus_seeds();
    assert!(seeds.len() >= 10);

    // Cold baseline: one fresh thread per seed, nothing pooled.
    let cold: Vec<String> = seeds
        .iter()
        .map(|&seed| on_cold_thread(move || canonical(seed)))
        .collect();

    // Warm the calling thread's pool with every case, then re-run: each
    // canonical() below executes on instances reset after earlier cases.
    for &seed in &seeds {
        let _ = canonical(seed);
    }
    let (_, reuses_before) = pool::counters();
    let warm: Vec<String> = seeds.iter().map(|&seed| canonical(seed)).collect();
    let (_, reuses_after) = pool::counters();
    assert!(
        reuses_after > reuses_before,
        "warm pass must actually exercise pooled instances"
    );

    for ((seed, c), w) in seeds.iter().zip(&cold).zip(&warm) {
        assert_eq!(c, w, "seed {seed:#x}: pooled run diverged from fresh build");
    }
}

#[test]
fn campaign_cell_runs_identically_on_fresh_and_reused_instances() {
    let cfg = CampaignConfig {
        cases: 4,
        fault_seeds: 1,
        rates_ppm: vec![0, 200_000],
        ..CampaignConfig::default()
    };
    let cold = {
        let cfg = cfg.clone();
        on_cold_thread(move || specrt_check::run_campaign(&cfg, 1).render_json())
    };
    // Warm the pool with unrelated corpus work first, then run the same
    // campaign on this (reused) thread.
    for &seed in corpus_seeds().iter().take(4) {
        let _ = canonical(seed);
    }
    let warm = specrt_check::run_campaign(&cfg, 1).render_json();
    assert_eq!(
        cold, warm,
        "campaign cell diverged between fresh and pooled runs"
    );
}

/// Everything observable about one run, rendered canonically: verdict,
/// cycles, breakdown, the full stat set, the network summary, the trace as
/// JSONL and every array of the final image.
fn render_run(spec: &LoopSpec, scenario: Scenario, cfg: MachineConfig) -> String {
    let r = run_scenario_configured(spec, scenario, cfg);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "passed={:?} failure={:?} iters={} cycles={} breakdown={:?}",
        r.passed,
        r.failure,
        r.iterations,
        r.total_cycles.raw(),
        r.breakdown
    );
    let _ = writeln!(s, "stats={:?}", r.stats.iter().collect::<Vec<_>>());
    let _ = writeln!(s, "net={:?}", r.net);
    let _ = writeln!(s, "{}", specrt_trace::export::jsonl(&r.trace));
    for id in r.final_image.array_ids() {
        let _ = writeln!(s, "{id:?}={:?}", r.final_image.contents(id));
    }
    s
}

fn node_fault(kind: NodeFaultKind, node: u32, at_cycle: u64) -> FaultConfig {
    FaultConfig {
        node_fault: Some(NodeFaultConfig {
            kind,
            node,
            at_cycle,
        }),
        ..FaultConfig::none()
    }
}

/// The configuration of `node_fault_legs`, traced.
fn leg_cfg(procs: u32, faults: FaultConfig) -> MachineConfig {
    let mut cfg = MachineConfig::with_procs(procs)
        .with_net(NetConfig::flat().with_faults(faults))
        .with_recovery(RecoveryPolicy::CheckpointRestart {
            checkpoint: CheckpointConfig { every_iters: 2 },
        });
    cfg.trace_capacity = 1 << 14;
    cfg
}

/// Every run `node_fault_legs` makes for the case at `seed`, rendered, plus
/// the legs' own verdict.
fn render_node_legs(seed: u64) -> String {
    let case = CaseSpec::generate(seed);
    let spec = case.loop_spec(ProtocolKind::NonPriv, true);
    let mut s = render_run(
        &spec,
        Scenario::Serial,
        leg_cfg(case.procs, FaultConfig::none()),
    );
    let fault_free = run_scenario_configured(
        &spec,
        Scenario::Hw,
        leg_cfg(case.procs, FaultConfig::none()),
    );
    let at_cycle = fault_free.total_cycles.raw() / 2;
    let node = 1u32.min(case.procs - 1);
    for kind in [
        NodeFaultKind::Crash,
        NodeFaultKind::Pause {
            for_cycles: NODE_OUTAGE_CYCLES,
        },
        NodeFaultKind::Partition {
            for_cycles: NODE_OUTAGE_CYCLES,
        },
    ] {
        let faults = node_fault(kind, node, at_cycle);
        s += &render_run(&spec, Scenario::Hw, leg_cfg(case.procs, faults));
    }
    let _ = writeln!(s, "legs={:?}", node_fault_legs(&case));
    s
}

/// A node crash two thirds into a 4-processor run, late enough that a
/// checkpoint precedes it: recovery reruns the lost suffix on 3 survivors.
fn render_ckpt_rerun(seed: u64) -> String {
    let case = CaseSpec::generate(seed);
    let spec = case.loop_spec(ProtocolKind::NonPriv, true);
    let probe = run_scenario_configured(&spec, Scenario::Hw, leg_cfg(4, FaultConfig::none()));
    let crash_at = probe.total_cycles.raw() * 2 / 3;
    let faults = node_fault(NodeFaultKind::Crash, 3, crash_at);
    render_run(&spec, Scenario::Hw, leg_cfg(4, faults))
}

/// A 16-processor mesh run of the case at `seed`, privatized.
fn render_large(seed: u64) -> String {
    let case = CaseSpec::generate(seed);
    let spec = case.loop_spec(
        ProtocolKind::Priv {
            read_in: true,
            copy_out: true,
        },
        true,
    );
    let mut cfg = MachineConfig::with_procs(16).with_net(NetConfig::mesh(16));
    cfg.trace_capacity = 1 << 14;
    render_run(&spec, Scenario::Hw, cfg)
}

/// Fills this thread's pool with machines of unrelated configurations: a
/// 4-processor mesh under a node crash, a lossy flat network under
/// speculative retry, and a 1-processor serial run.
fn warm_pool_with_other_configs() {
    let case = CaseSpec::generate(0x5eed);
    let spec = case.loop_spec(ProtocolKind::NonPriv, true);
    let crash = node_fault(NodeFaultKind::Crash, 2, 500);
    let mesh = MachineConfig::with_procs(4)
        .with_net(NetConfig::mesh(4).with_faults(crash))
        .with_recovery(RecoveryPolicy::CheckpointRestart {
            checkpoint: CheckpointConfig { every_iters: 2 },
        });
    let _ = run_scenario_configured(&spec, Scenario::Hw, mesh);
    let lossy = FaultConfig {
        seed: 7,
        drop_ppm: 200_000,
        ..FaultConfig::none()
    };
    let mut retry = MachineConfig::with_procs(case.procs)
        .with_net(NetConfig::flat().with_faults(lossy))
        .with_recovery(RecoveryPolicy::RetrySpeculative { max_attempts: 2 });
    retry.mem.retry.timeout = 64;
    retry.mem.retry.max_retries = 1;
    retry.mem.dir_banks = 2;
    let _ = run_scenario_configured(&spec, Scenario::Hw, retry);
    let _ = run_scenario_configured(&spec, Scenario::Serial, MachineConfig::with_procs(1));
}

#[test]
fn cross_config_runs_identically_on_fresh_and_reused_instances() {
    let seeds: Vec<u64> = corpus_seeds().into_iter().take(6).collect();
    type Render = fn(u64) -> String;
    let mut jobs: Vec<(&str, Render, u64)> = seeds
        .iter()
        .map(|&seed| ("node legs", render_node_legs as Render, seed))
        .collect();
    jobs.push(("ckpt rerun", render_ckpt_rerun, 7));
    jobs.push(("16-proc mesh", render_large, 5));
    jobs.push(("node legs after growth", render_node_legs, seeds[0]));

    let cold: Vec<String> = jobs
        .iter()
        .map(|&(_, f, seed)| on_cold_thread(move || f(seed)))
        .collect();

    // Reuse counts are pinned by `pool_builds.rs`; here only the bytes
    // matter.
    warm_pool_with_other_configs();
    let warm: Vec<String> = jobs.iter().map(|&(_, f, seed)| f(seed)).collect();

    let ckpt = &cold[seeds.len()];
    assert!(
        ckpt.contains("\"checkpoint.restores\"") && !ckpt.contains("serial_fallbacks"),
        "the checkpoint job must rerun on survivors"
    );
    for ((label, _, seed), (c, w)) in jobs.iter().zip(cold.iter().zip(&warm)) {
        assert_eq!(
            c, w,
            "{label} seed {seed:#x}: pooled run diverged from fresh build"
        );
    }
}
