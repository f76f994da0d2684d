//! Golden renderings of every recovery route through the HW scenario.
//!
//! The recovery tests in `specrt_machine::scenario` check properties
//! (the run passes, the image matches the serial oracle, a `Recovery`
//! event appears). This file pins the routes byte for byte instead: for
//! each run it renders the cycle count, the Busy/Sync/Mem breakdown, the
//! verdict, the iteration count, every protocol statistic, the network
//! summary, the full event trace as JSONL and every array of the final
//! memory image. Any change to how a failed speculation is rolled back or
//! re-executed shows up here as a diff.
//!
//! Routes covered, all with tracing on:
//!
//! * `SerialReexec` (the paper's policy): a passing loop, a deterministic
//!   failure, and a windowed privatized loop;
//! * `RetrySpeculative`: a transient message loss that a retry recovers,
//!   retries exhausted by a deterministic conflict, and retries exhausted
//!   by a node pause;
//! * `CheckpointRestart`: a fault-free checkpointed run, a node crash
//!   rerun on the survivors, a rerun that fails again and falls back to a
//!   serial suffix, a failure before the first snapshot, a privatized loop
//!   with a stamp window (passing and crashed), and the injected
//!   stale-snapshot bug;
//! * the SW scheme's failure path, which shares the rollback.
//!
//! Regenerate deliberately with
//! `REGEN_GOLDEN=1 cargo test -p specrt-check --test recovery_golden`.

use std::fmt::Write as _;

use specrt_ir::{ArrayId, BinOp, Operand, ProgramBuilder, Scalar};
use specrt_machine::{
    run_scenario_configured, ArrayDecl, CheckpointConfig, LoopSpec, MachineConfig, RecoveryPolicy,
    RunResult, Scenario, ScheduleKind, SwVariant,
};
use specrt_mem::ElemSize;
use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};
use specrt_spec::{fault, FaultKind, IterationNumbering, ProtocolKind, TestPlan};
use specrt_trace::export::jsonl;

const A: ArrayId = ArrayId(0);
const K: ArrayId = ArrayId(1);
const OUT: ArrayId = ArrayId(2);

const PROCS: u32 = 4;
const TRACE: usize = 1 << 14;

/// `A[K[i]] += 1`; a permutation `K` makes it parallel.
fn permutation_loop(n: u64, k: impl Fn(u64) -> i64) -> LoopSpec {
    let mut b = ProgramBuilder::new();
    let idx = b.load(K, Operand::Iter);
    let v = b.load(A, Operand::Reg(idx));
    let v2 = b.binop(BinOp::FAdd, Operand::Reg(v), Operand::ImmF(1.0));
    b.store(A, Operand::Reg(idx), Operand::Reg(v2));
    b.compute(120);
    let mut plan = TestPlan::new();
    plan.set(A, ProtocolKind::NonPriv);
    LoopSpec {
        name: "permutation".into(),
        body: b.build().unwrap(),
        iters: n,
        arrays: vec![
            ArrayDecl::with_init(
                A,
                ElemSize::W8,
                (0..n).map(|i| Scalar::Float(i as f64)).collect(),
            ),
            ArrayDecl::with_init(K, ElemSize::W8, (0..n).map(|i| Scalar::Int(k(i))).collect()),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![A],
        stamp_window: None,
    }
}

/// Trip count of every pinned HW run.
const N: u64 = 32;

fn parallel_loop() -> LoopSpec {
    permutation_loop(N, |i| ((i * 7) % N) as i64)
}

/// Every iteration collides on `A[0]`.
fn colliding_loop(n: u64) -> LoopSpec {
    permutation_loop(n, |_| 0)
}

/// The first half of the iterations is independent; the rest collide on `A[0]`.
fn late_collision_loop() -> LoopSpec {
    permutation_loop(N, |i| if i < N / 2 { i as i64 } else { 0 })
}

/// `OUT[i] = A[K[i]]` with `A` read-only under test: clean-line hits keep
/// `ROnly` updates flowing all loop long, so a node fault anywhere in the
/// run swallows one.
fn gather_loop() -> LoopSpec {
    let n = N;
    let mut b = ProgramBuilder::new();
    let idx = b.load(K, Operand::Iter);
    let v = b.load(A, Operand::Reg(idx));
    b.store(OUT, Operand::Iter, Operand::Reg(v));
    b.compute(120);
    let mut plan = TestPlan::new();
    plan.set(A, ProtocolKind::NonPriv);
    LoopSpec {
        name: "gather".into(),
        body: b.build().unwrap(),
        iters: n,
        arrays: vec![
            ArrayDecl::with_init(
                A,
                ElemSize::W8,
                (0..n).map(|i| Scalar::Float(i as f64)).collect(),
            ),
            ArrayDecl::with_init(
                K,
                ElemSize::W8,
                (0..n).map(|i| Scalar::Int(((i * 7) % n) as i64)).collect(),
            ),
            ArrayDecl::zeroed(OUT, n, ElemSize::W8),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![A, OUT],
        stamp_window: None,
    }
}

/// A privatized read-in loop over an 8-iteration stamp window: every
/// iteration reads four table slots, then writes and re-reads its own
/// scratch slot.
fn windowed_priv_loop() -> LoopSpec {
    let iters = N;
    let mut b = ProgramBuilder::new();
    let mut acc = b.mov(Operand::ImmF(0.0));
    for slot in 0..4 {
        let v = b.load(A, Operand::ImmI(slot));
        acc = b.binop(BinOp::FAdd, Operand::Reg(acc), Operand::Reg(v));
    }
    let e = b.binop(BinOp::Rem, Operand::Iter, Operand::ImmI(20));
    let e2 = b.binop(BinOp::Add, Operand::Reg(e), Operand::ImmI(4));
    b.store(A, Operand::Reg(e2), Operand::Reg(acc));
    let rv = b.load(A, Operand::Reg(e2));
    b.store(K, Operand::Iter, Operand::Reg(rv));
    b.compute(20);
    let mut plan = TestPlan::new();
    plan.set(
        A,
        ProtocolKind::Priv {
            read_in: true,
            copy_out: true,
        },
    );
    LoopSpec {
        name: "stamp-window".into(),
        body: b.build().unwrap(),
        iters,
        arrays: vec![
            ArrayDecl::with_init(
                A,
                ElemSize::W8,
                (0..24).map(|i| Scalar::Float(1.0 + i as f64)).collect(),
            ),
            ArrayDecl::zeroed(K, iters, ElemSize::W8),
        ],
        plan,
        numbering: IterationNumbering::iteration_wise(),
        schedule: ScheduleKind::Static,
        live_after: vec![A, K],
        stamp_window: Some(8),
    }
}

fn config(recovery: RecoveryPolicy, faults: FaultConfig) -> MachineConfig {
    let mut cfg = MachineConfig::with_procs(PROCS)
        .with_net(NetConfig::flat().with_faults(faults))
        .with_recovery(recovery);
    cfg.mem.retry.timeout = 64;
    cfg.mem.retry.max_retries = 2;
    cfg.trace_capacity = TRACE;
    cfg
}

fn checkpoint_every(every_iters: u64) -> RecoveryPolicy {
    RecoveryPolicy::CheckpointRestart {
        checkpoint: CheckpointConfig { every_iters },
    }
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

/// A node crash two thirds of the way through a fault-free checkpointed
/// run of `spec`: past at least one snapshot, before the loop ends.
fn crash_past_first_snapshot(spec: &LoopSpec, every_iters: u64) -> FaultConfig {
    let probe = run_scenario_configured(
        spec,
        Scenario::Hw,
        config(checkpoint_every(every_iters), FaultConfig::none()),
    );
    assert_eq!(probe.passed, Some(true), "{:?}", probe.failure);
    node_fault(NodeFaultKind::Crash, 3, probe.total_cycles.raw() * 2 / 3)
}

/// Everything observable about one run, rendered canonically.
fn render(r: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "scenario={} name={}", r.scenario, r.name);
    let _ = writeln!(s, "total_cycles={}", r.total_cycles.raw());
    let _ = writeln!(s, "breakdown={:?}", r.breakdown);
    let _ = writeln!(s, "passed={:?}", r.passed);
    let _ = writeln!(s, "failure={:?}", r.failure);
    let _ = writeln!(s, "iterations={}", r.iterations);
    let _ = writeln!(s, "[stats]");
    for (k, v) in r.stats.iter() {
        let _ = writeln!(s, "{k}={v}");
    }
    let _ = writeln!(s, "[net]\n{:?}", r.net);
    let _ = writeln!(s, "[image]");
    for id in r.final_image.array_ids() {
        let _ = writeln!(s, "{id:?}={:?}", r.final_image.contents(id));
    }
    let _ = writeln!(s, "[trace]\n{}", jsonl(&r.trace));
    s
}

fn check_golden(name: &str, r: &RunResult) {
    let got = render(r);
    let path = format!(
        "{}/tests/recovery_golden/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file exists");
    assert!(
        got == golden,
        "{name}: recovery run diverged from {path}; if the change is \
         intentional, regenerate with \
         REGEN_GOLDEN=1 cargo test -p specrt-check --test recovery_golden"
    );
}

fn hw(spec: &LoopSpec, cfg: MachineConfig) -> RunResult {
    run_scenario_configured(spec, Scenario::Hw, cfg)
}

#[test]
fn serial_reexec_pass() {
    let r = hw(
        &parallel_loop(),
        config(RecoveryPolicy::SerialReexec, FaultConfig::none()),
    );
    assert_eq!(r.passed, Some(true));
    check_golden("serial_reexec_pass", &r);
}

#[test]
fn serial_reexec_deterministic_failure() {
    let r = hw(
        &colliding_loop(N),
        config(RecoveryPolicy::SerialReexec, FaultConfig::none()),
    );
    assert_eq!(r.passed, Some(false));
    check_golden("serial_reexec_failure", &r);
}

#[test]
fn serial_reexec_windowed_priv_pass() {
    let r = hw(
        &windowed_priv_loop(),
        config(RecoveryPolicy::SerialReexec, FaultConfig::none()),
    );
    assert_eq!(r.passed, Some(true), "{:?}", r.failure);
    check_golden("serial_reexec_windowed_priv", &r);
}

#[test]
fn retry_recovers_transient_drop() {
    let faults = FaultConfig {
        seed: 7,
        drop_ppm: 350_000,
        ..FaultConfig::none()
    };
    let mut cfg = config(RecoveryPolicy::RetrySpeculative { max_attempts: 3 }, faults);
    cfg.mem.retry.max_retries = 1;
    let r = hw(&parallel_loop(), cfg);
    assert_eq!(r.passed, Some(true), "{:?}", r.failure);
    assert!(r.stats.get("retry.speculative_reruns") >= 1);
    check_golden("retry_transient_drop", &r);
}

#[test]
fn retry_exhausted_by_deterministic_conflict() {
    let r = hw(
        &colliding_loop(N),
        config(
            RecoveryPolicy::RetrySpeculative { max_attempts: 2 },
            FaultConfig::none(),
        ),
    );
    assert_eq!(r.passed, Some(false));
    assert_eq!(r.stats.get("retry.speculative_reruns"), 2);
    check_golden("retry_exhausted_conflict", &r);
}

#[test]
fn retry_exhausted_by_node_pause() {
    let faults = node_fault(
        NodeFaultKind::Pause {
            for_cycles: u64::MAX / 2,
        },
        2,
        1,
    );
    let r = hw(
        &gather_loop(),
        config(RecoveryPolicy::RetrySpeculative { max_attempts: 2 }, faults),
    );
    assert_eq!(r.passed, Some(false));
    check_golden("retry_exhausted_pause", &r);
}

#[test]
fn checkpoint_fault_free_pass() {
    let r = hw(
        &gather_loop(),
        config(checkpoint_every(8), FaultConfig::none()),
    );
    assert_eq!(r.passed, Some(true));
    assert!(r.stats.get("checkpoint.snapshots") >= 3);
    check_golden("ckpt_fault_free", &r);
}

#[test]
fn checkpoint_crash_rerun_on_survivors() {
    let spec = gather_loop();
    let faults = crash_past_first_snapshot(&spec, 8);
    let r = hw(&spec, config(checkpoint_every(8), faults));
    assert_eq!(r.passed, Some(true), "{:?}", r.failure);
    assert!(r.stats.get("checkpoint.restores") >= 1);
    assert_eq!(r.stats.get("checkpoint.serial_fallbacks"), 0);
    check_golden("ckpt_crash_rerun", &r);
}

#[test]
fn checkpoint_rerun_fails_again_and_runs_serial_suffix() {
    let r = hw(
        &late_collision_loop(),
        config(checkpoint_every(8), FaultConfig::none()),
    );
    assert_eq!(r.passed, Some(false));
    assert!(r.stats.get("checkpoint.serial_fallbacks") >= 1);
    check_golden("ckpt_serial_suffix", &r);
}

#[test]
fn checkpoint_failure_before_first_snapshot() {
    let r = hw(
        &parallel_loop(),
        config(checkpoint_every(8), node_fault(NodeFaultKind::Crash, 1, 0)),
    );
    assert_eq!(r.passed, Some(false));
    assert_eq!(r.stats.get("checkpoint.restores"), 0);
    check_golden("ckpt_before_first_snapshot", &r);
}

#[test]
fn checkpoint_windowed_priv_pass() {
    let r = hw(
        &windowed_priv_loop(),
        config(checkpoint_every(4), FaultConfig::none()),
    );
    assert_eq!(r.passed, Some(true), "{:?}", r.failure);
    check_golden("ckpt_windowed_priv_pass", &r);
}

#[test]
fn checkpoint_windowed_priv_crash() {
    let spec = windowed_priv_loop();
    let faults = crash_past_first_snapshot(&spec, 4);
    let r = hw(&spec, config(checkpoint_every(4), faults));
    check_golden("ckpt_windowed_priv_crash", &r);
}

#[test]
fn checkpoint_injected_stale_snapshot() {
    let spec = gather_loop();
    let faults = crash_past_first_snapshot(&spec, 8);
    let _bug = fault::Injected::new(FaultKind::CkptSkipDirtySnapshot);
    let r = hw(&spec, config(checkpoint_every(8), faults));
    assert!(r.stats.get("checkpoint.restores") >= 1);
    check_golden("ckpt_stale_snapshot", &r);
}

#[test]
fn sw_failure_rolls_back_and_reexecutes() {
    let r = run_scenario_configured(
        &colliding_loop(N / 4),
        Scenario::Sw(SwVariant::IterationWise),
        config(RecoveryPolicy::SerialReexec, FaultConfig::none()),
    );
    assert_eq!(r.passed, Some(false));
    check_golden("sw_failure", &r);
}
