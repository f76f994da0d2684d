//! The paper's four execution scenarios (§6): `Serial`, `Ideal`, `SW`
//! (software LRPD) and `HW` (the proposed hardware scheme).
//!
//! Each scenario is a sequence of *phases* run on the simulated machine;
//! every phase is an executor run whose time and Busy/Sync/Mem breakdown
//! accumulate into the result:
//!
//! * **Serial** — all iterations on one processor, all data local (§6:
//!   "the uniprocessor execution of the loop, where all the data is
//!   allocated in the memory local to the processor").
//! * **Ideal** — the doall without any tests: privatized arrays still use
//!   private copies (the compiler privatized them) but no dependence test
//!   runs and no update messages are sent.
//! * **SW** — backup → shadow zero-out → marking loop (instrumented
//!   per-processor bodies) → merging-analysis loop → outcome; on failure,
//!   restore + serial re-execution; on success, copy-out of live
//!   privatized arrays.
//! * **HW** — backup → speculative loop under the protocol extensions with
//!   immediate abort on FAIL; on failure, restore + serial re-execution
//!   (or, under the non-default [`RecoveryPolicy`] variants, a speculative
//!   retry or a rerun from the last checkpoint first); on success,
//!   copy-out.
//!
//! Serial re-execution is modelled on a one-processor machine with local
//! data, matching the paper's accounting ("the HW execution time includes
//! the parallel execution up to when the dependence is detected … plus the
//! Serial time", §6.2).

use std::collections::BTreeMap;

use specrt_engine::{Cycles, StatSet, TimeBreakdown};
use specrt_ir::{ArrayId, Program, Scalar};
use specrt_lrpd::phases::{
    copy_body_region, merge_analysis_body, merge_analysis_body_bitmap, reduction_body,
    zero_shadow_body, zero_shadow_body_bitmap,
};
use specrt_lrpd::shadow::{CNT_ATM, CNT_ATW, CNT_BAD_NP, CNT_BAD_WR, CNT_LEN};
use specrt_lrpd::{instrument_for_proc, sw_private_copy_id, InstrumentConfig, ShadowIds};
use specrt_mem::{ArrayBackup, ElemSize, MemoryImage, NodeId, PlacementPolicy, ProcId};
use specrt_proto::{private_copy_id, FaultConfig, NetSummary, TraceEvent};
use specrt_spec::{fault, FailReason, IterationNumbering, ProtocolKind, TestPlan};

use crate::config::{MachineConfig, RecoveryPolicy};
use crate::exec::{ExecEnd, ExecSummary, Executor};
use crate::loopspec::{LoopSpec, ScheduleKind};
use crate::pool::PooledMem;
use crate::sched::{BlockCyclic, DynamicSelf, Replicated, Scheduler, StaticChunked, Windowed};

/// Reserved id bit for backup copies.
const BACKUP_BASE: u32 = 0x1000_0000;
/// Reserved id bit for copy-out timing scratch arrays.
const SCRATCH_BASE: u32 = 0x0800_0000;
/// Reserved id bit for the software scheme's global reduction flags.
const REDUCE_BASE: u32 = 0x0400_0000;

fn backup_id(arr: ArrayId) -> ArrayId {
    ArrayId(BACKUP_BASE | arr.0)
}

fn scratch_id(arr: ArrayId) -> ArrayId {
    ArrayId(SCRATCH_BASE | arr.0)
}

fn reduce_id(arr: ArrayId) -> ArrayId {
    ArrayId(REDUCE_BASE | arr.0)
}

/// Which software-test granularity to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwVariant {
    /// Iteration-wise stamps, any scheduling.
    IterationWise,
    /// Processor-wise (1-bit) test: stamps collapse to the processor's
    /// chunk; requires static contiguous scheduling (§2.2.3).
    ProcessorWise,
}

/// An execution scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Uniprocessor, local data, no tests.
    Serial,
    /// Doall without tests (upper bound).
    Ideal,
    /// Software LRPD test.
    Sw(SwVariant),
    /// Hardware speculation protocols.
    Hw,
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scenario::Serial => write!(f, "Serial"),
            Scenario::Ideal => write!(f, "Ideal"),
            Scenario::Sw(SwVariant::IterationWise) => write!(f, "SW(iter)"),
            Scenario::Sw(SwVariant::ProcessorWise) => write!(f, "SW(proc)"),
            Scenario::Hw => write!(f, "HW"),
        }
    }
}

/// Result of running a loop under one scenario.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scenario run.
    pub scenario: Scenario,
    /// Loop name.
    pub name: String,
    /// End-to-end wall-clock cycles, including all phases (and serial
    /// re-execution if the test failed).
    pub total_cycles: Cycles,
    /// Average per-processor Busy/Sync/Mem decomposition over all phases.
    pub breakdown: TimeBreakdown,
    /// Whether the run-time test passed (`None` for Serial/Ideal).
    pub passed: Option<bool>,
    /// Failure description if the test failed.
    pub failure: Option<String>,
    /// Iterations executed speculatively (before any abort).
    pub iterations: u64,
    /// Final contents of the loop's arrays (for correctness checks).
    pub final_image: MemoryImage,
    /// Protocol statistics (HW/Ideal runs).
    pub stats: StatSet,
    /// Interconnect traffic summary (messages, hops, queueing, per-link
    /// occupancy) of the run's speculative machine.
    pub net: NetSummary,
    /// Structured trace events collected during the run (empty unless
    /// [`MachineConfig::trace_capacity`] is non-zero).
    pub trace: Vec<TraceEvent>,
}

impl RunResult {
    /// Speedup of this run relative to a serial run of the same loop.
    pub fn speedup_over(&self, serial: &RunResult) -> f64 {
        serial.total_cycles.raw() as f64 / self.total_cycles.raw() as f64
    }
}

struct Accum {
    per_proc: Vec<TimeBreakdown>,
    now: Cycles,
}

impl Accum {
    fn new(procs: usize) -> Self {
        Accum {
            per_proc: vec![TimeBreakdown::new(); procs],
            now: Cycles::ZERO,
        }
    }

    fn absorb(&mut self, summary: &ExecSummary) {
        for (acc, bd) in self.per_proc.iter_mut().zip(&summary.per_proc) {
            *acc = acc.merged(bd);
        }
        self.now = self.now.max(summary.finish_time);
    }

    fn average(&self) -> TimeBreakdown {
        let n = self.per_proc.len().max(1) as u64;
        self.per_proc
            .iter()
            .fold(TimeBreakdown::new(), |a, b| a.merged(b))
            .scaled(1, n)
    }
}

fn make_sched(
    kind: ScheduleKind,
    total: u64,
    procs: u32,
    cfg: &MachineConfig,
) -> Box<dyn Scheduler> {
    match kind {
        ScheduleKind::Static => {
            Box::new(StaticChunked::new(total, procs, cfg.sched_static_overhead))
        }
        ScheduleKind::BlockCyclic { block } => Box::new(BlockCyclic::new(
            total,
            procs,
            block,
            cfg.sched_static_overhead,
        )),
        ScheduleKind::Dynamic { block } => Box::new(DynamicSelf::new(
            total,
            procs,
            block,
            cfg.sched_lock_hold,
            cfg.sched_static_overhead,
        )),
    }
}

/// Runs `spec` under `scenario` on a `procs`-processor machine.
///
/// # Panics
///
/// Panics on malformed specs (undeclared arrays, invalid programs) — these
/// are construction bugs, not run-time conditions.
pub fn run_scenario(spec: &LoopSpec, scenario: Scenario, procs: u32) -> RunResult {
    run_scenario_configured(spec, scenario, MachineConfig::with_procs(procs))
}

/// [`run_scenario`] with an explicit machine configuration (cache geometry,
/// latencies, write-buffer depth, …). The `Serial` scenario and any serial
/// re-execution use the same configuration with one processor.
pub fn run_scenario_configured(
    spec: &LoopSpec,
    scenario: Scenario,
    cfg: MachineConfig,
) -> RunResult {
    match scenario {
        Scenario::Serial => run_serial(spec, cfg),
        Scenario::Ideal => run_ideal(spec, cfg),
        Scenario::Hw => run_hw(spec, cfg),
        Scenario::Sw(variant) => run_sw(spec, cfg, variant),
    }
}

// ----------------------------------------------------------------------
// The machine and its shared phases
// ----------------------------------------------------------------------

/// A last-writer map: `(array, element) → (stamp, value)` of the
/// highest-stamped write to each element.
type Winners = BTreeMap<(ArrayId, u64), (u64, Scalar)>;

/// Merges one window's last-writer map into the run's accumulated one:
/// the higher stamp (`iteration + 1`) wins. Windows partition the
/// iteration space, so two windows can never record the *same* stamp for
/// the same `(array, element)` — the `>=` tiebreak only fires when a map
/// is merged over itself (idempotence), never to pick between distinct
/// writes. Together with `BTreeMap`'s fixed iteration order this makes
/// the merge order-independent: no window arrival order, host hash seed,
/// or `--jobs` schedule can leak into verdicts, stats, or images (pinned
/// by `winner_merge_tests`).
fn merge_winners(into: &mut Winners, from: &Winners) {
    for (k, v) in from {
        let e = into.entry(*k).or_insert(*v);
        if v.0 >= e.0 {
            *e = *v;
        }
    }
}

/// What the backup phase saved: the densely-backed arrays (copied up
/// front), the sparsely-backed ones, and a functional snapshot of the
/// sparse arrays for the restore path.
struct Backup {
    dense: Vec<ArrayId>,
    sparse: Vec<ArrayId>,
    snapshot: ArrayBackup,
}

/// The simulated machine one scenario runs on: its memory system, its
/// functional memory image, and the time and Busy/Sync/Mem breakdown
/// every phase so far has accumulated.
struct Machine<'s> {
    spec: &'s LoopSpec,
    cfg: MachineConfig,
    ms: PooledMem,
    image: MemoryImage,
    accum: Accum,
}

impl<'s> Machine<'s> {
    /// Leases a machine for `cfg` and registers the loop's arrays on it,
    /// plus the barrier's synchronization words. The arrays start from
    /// `source` (a re-execution restarting from a restored or checkpointed
    /// image) or, without one, from the loop's initial values: that is a
    /// run's initial set-up, the work `machine.setup` times. Event tracing
    /// is on whenever `cfg` asks for it.
    fn fresh(
        spec: &'s LoopSpec,
        cfg: MachineConfig,
        source: Option<&MemoryImage>,
        placement: PlacementPolicy,
    ) -> Self {
        let mut ms = crate::pool::lease(cfg.mem);
        if cfg.trace_capacity > 0 {
            ms.enable_event_trace(cfg.trace_capacity);
            ms.set_net_trace(cfg.trace_net);
        }
        let _prof = source
            .is_none()
            .then(|| specrt_prof::scope("machine.setup"));
        let mut image = MemoryImage::new();
        for a in &spec.arrays {
            ms.alloc_array(a.id, a.len, a.elem, placement);
            let init = source.map_or_else(|| a.padded_init(), |s| s.contents(a.id));
            image.register_with(a.id, init);
        }
        // Synchronization infrastructure: barrier counter + sense flag.
        ms.alloc_array(
            crate::exec::BARRIER_ARRAY,
            2,
            ElemSize::W8,
            PlacementPolicy::Local(NodeId(0)),
        );
        image.register(crate::exec::BARRIER_ARRAY, 2);
        Machine {
            spec,
            cfg,
            ms,
            image,
            accum: Accum::new(cfg.procs() as usize),
        }
    }

    /// A fresh one-processor machine with all data local to it, under
    /// plain coherence.
    fn serial(spec: &'s LoopSpec, mut cfg: MachineConfig, source: Option<&MemoryImage>) -> Self {
        cfg.mem.procs = 1;
        let mut m = Machine::fresh(spec, cfg, source, PlacementPolicy::Local(NodeId(0)));
        m.ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        m
    }

    /// The run's result: everything the machine accumulated, with the
    /// verdict (`None` for the untested scenarios) and the statistics the
    /// scenario reports.
    fn finish(
        mut self,
        scenario: Scenario,
        verdict: Option<Result<(), String>>,
        iterations: u64,
        stats: StatSet,
    ) -> RunResult {
        RunResult {
            scenario,
            name: self.spec.name.clone(),
            total_cycles: self.accum.now,
            breakdown: self.accum.average(),
            passed: verdict.as_ref().map(Result::is_ok),
            failure: verdict.and_then(Result::err),
            iterations,
            final_image: self.image,
            stats,
            net: self.ms.net_summary(),
            trace: self.ms.take_event_trace(),
        }
    }

    /// An executor for `programs` on this machine, starting now.
    fn executor<'m>(
        &'m mut self,
        programs: Vec<Program>,
        sched: &'m mut dyn Scheduler,
    ) -> Executor<'m> {
        Executor::new(&self.cfg, &mut self.ms, &mut self.image, programs, sched)
            .starting_at(self.accum.now)
    }

    /// Runs one phase that cannot fail and charges its time.
    fn phase(&mut self, programs: Vec<Program>, sched: &mut dyn Scheduler) -> ExecSummary {
        let summary = self.executor(programs, sched).run();
        assert_eq!(summary.end, ExecEnd::Completed, "phase cannot fail");
        self.accum.absorb(&summary);
        summary
    }

    /// Runs iterations `[start, spec.iters)` on processor 0.
    fn run_serially(&mut self, start: u64) -> ExecSummary {
        let inner = StaticChunked::new(self.spec.iters - start, 1, self.cfg.sched_static_overhead);
        let mut sched = Windowed::new(Box::new(inner), start);
        self.phase(vec![self.spec.body.clone()], &mut sched)
    }

    /// Runs a copy loop `dst[off+e] = src[off+e]` over `len` elements in
    /// parallel.
    fn copy(&mut self, src: ArrayId, dst: ArrayId, region: (u64, u64)) {
        let (off, len) = region;
        let procs = self.ms.procs();
        let mut sched = StaticChunked::new(len, procs, self.cfg.sched_static_overhead);
        let body = copy_body_region(src, dst, off);
        self.phase(vec![body; procs as usize], &mut sched);
    }

    /// Registers backup and scratch allocations used by the speculative
    /// scenarios. Returns the live privatized arrays.
    fn setup_speculative_storage(&mut self) -> Vec<ArrayId> {
        let _prof = specrt_prof::scope("machine.setup");
        let spec = self.spec;
        let live_priv: Vec<ArrayId> = spec
            .live_after
            .iter()
            .copied()
            .filter(|&a| spec.plan.kind_of(a).is_privatized())
            .collect();
        let backups = spec.backup_arrays().into_iter().map(|a| (a, backup_id(a)));
        let scratch = live_priv.iter().map(|&a| (a, scratch_id(a)));
        for (arr, id) in backups.chain(scratch) {
            let decl = spec.array(arr);
            self.ms
                .alloc_array(id, decl.len, decl.elem, PlacementPolicy::RoundRobin);
            self.image.register(id, decl.len);
        }
        live_priv
    }

    /// Registers each processor's private copy of every privatized array.
    fn register_private_copies(&mut self) {
        for arr in self.spec.plan.priv_arrays() {
            for p in 0..self.ms.procs() {
                let id = private_copy_id(arr, ProcId(p));
                self.image.register(id, self.spec.array(arr).len);
            }
        }
    }

    /// The backup phase. Densely-backed arrays are copied up front;
    /// sparsely-backed arrays (§2.2.1's save-on-first-write) cost nothing
    /// here — the hardware/software saves each element's old value
    /// alongside its first write, which our model folds into the write
    /// itself — and are captured functionally for the restore path.
    fn backup(&mut self) -> Backup {
        let _prof = specrt_prof::scope("machine.backup");
        let spec = self.spec;
        let (sparse, dense): (Vec<ArrayId>, Vec<ArrayId>) = spec
            .backup_arrays()
            .into_iter()
            .partition(|&arr| spec.array(arr).sparse_backup);
        for &arr in &dense {
            self.copy(arr, backup_id(arr), spec.array(arr).backup_elems());
        }
        let snapshot = self.image.snapshot(&sparse);
        Backup {
            dense,
            sparse,
            snapshot,
        }
    }

    /// Rolls a failed speculation back to the backups: dense arrays copy
    /// their backup region back; sparse arrays restore only the elements
    /// the speculation wrote (`winners` records them), timed as that many
    /// copies, while the snapshot reinstates their exact old values.
    fn rollback(&mut self, backup: &Backup, winners: &Winners) {
        let _prof = specrt_prof::scope("machine.restore");
        for &arr in &backup.dense {
            self.copy(backup_id(arr), arr, self.spec.array(arr).backup_elems());
        }
        for &arr in &backup.sparse {
            let count = winners.keys().filter(|(a, _)| *a == arr).count() as u64;
            if count > 0 {
                self.copy(backup_id(arr), arr, (0, count));
            }
        }
        self.image.restore(&backup.snapshot);
    }

    /// The copy-out phase: timed as a parallel copy of each live
    /// privatized array; functionally, the tracked last-writer values are
    /// applied.
    fn copy_out(&mut self, live_priv: &[ArrayId], winners: &Winners, hw_private_src: bool) {
        let _prof = specrt_prof::scope("machine.copy_out");
        for &arr in live_priv {
            // Timing: each processor copies its slice from its own private
            // copy into a scratch array with the same distribution as the
            // original; functionally the last-writer values are applied
            // below, so the scratch contents are snapshot-restored.
            let snapshot = self.image.contents(scratch_id(arr));
            let src = if hw_private_src {
                private_copy_id(arr, ProcId(0))
            } else {
                sw_private_copy_id(arr, ProcId(0))
            };
            self.copy(src, scratch_id(arr), (0, self.spec.array(arr).len));
            self.image.set_contents(scratch_id(arr), snapshot);
            for (&(warr, idx), &(_, value)) in winners {
                if warr == arr {
                    self.image.write(arr, idx, value);
                }
            }
        }
    }

    /// Serial re-execution after a failed speculation, on an untraced
    /// one-processor machine with local data, matching the paper's
    /// accounting ("the HW execution time includes the parallel execution
    /// up to when the dependence is detected … plus the Serial time",
    /// §6.2). Re-runs `[start, spec.iters)` from this machine's image — the
    /// whole loop after a rollback, or only the suffix a checkpoint does
    /// not cover — and copies the results back.
    fn serial_reexec(&mut self, start: u64) {
        let _prof = specrt_prof::scope("machine.serial_reexec");
        let mut cfg = self.cfg;
        cfg.trace_capacity = 0;
        let mut serial = Machine::serial(self.spec, cfg, Some(&self.image));
        serial.run_serially(start);
        self.accum.now += serial.accum.now;
        // The serial portion is wall-clock for the whole machine: fold it
        // into every processor so the averaged breakdown reflects it fully.
        for bd in &mut self.accum.per_proc {
            *bd = bd.merged(&serial.accum.per_proc[0]);
        }
        for a in &self.spec.arrays {
            self.image.set_contents(a.id, serial.image.contents(a.id));
        }
    }
}

// ----------------------------------------------------------------------
// Serial
// ----------------------------------------------------------------------

fn run_serial(spec: &LoopSpec, cfg: MachineConfig) -> RunResult {
    let mut m = Machine::serial(spec, cfg, None);
    let summary = m.run_serially(0);
    let stats = m.ms.stats().clone();
    m.finish(Scenario::Serial, None, summary.iterations, stats)
}

// ----------------------------------------------------------------------
// Ideal
// ----------------------------------------------------------------------

fn run_ideal(spec: &LoopSpec, cfg: MachineConfig) -> RunResult {
    let procs = cfg.procs();
    let mut m = Machine::fresh(spec, cfg, None, PlacementPolicy::RoundRobin);

    // Privatized arrays keep their data path; non-privatized tested arrays
    // revert to plain coherence; no test runs at all.
    let mut plan = TestPlan::new();
    for (arr, kind) in spec.plan.arrays_under_test() {
        if kind.is_privatized() {
            plan.set(arr, kind);
        }
    }
    let priv_arrays = plan.priv_arrays();
    m.ms.configure_loop(plan, spec.numbering);
    m.ms.set_test_enabled(false);
    m.register_private_copies();
    // Scratch arrays for copy-out timing.
    let live_priv: Vec<ArrayId> = spec
        .live_after
        .iter()
        .copied()
        .filter(|a| priv_arrays.contains(a))
        .collect();
    for &arr in &live_priv {
        let decl = spec.array(arr);
        m.ms.alloc_array(
            scratch_id(arr),
            decl.len,
            decl.elem,
            PlacementPolicy::RoundRobin,
        );
        m.image.register(scratch_id(arr), decl.len);
    }

    let mut sched = make_sched(spec.schedule, spec.iters, procs, &cfg);
    let mut exec = m
        .executor(vec![spec.body.clone(); procs as usize], sched.as_mut())
        .route_privatized(true);
    for &arr in &priv_arrays {
        for p in 0..procs {
            exec = exec.track_copy_out(private_copy_id(arr, ProcId(p)), arr);
        }
    }
    let summary = exec.run();
    assert_eq!(summary.end, ExecEnd::Completed, "ideal run cannot fail");
    m.accum.absorb(&summary);
    m.copy_out(&live_priv, &summary.winners, true);
    let stats = m.ms.stats().clone();
    m.finish(Scenario::Ideal, None, summary.iterations, stats)
}

// ----------------------------------------------------------------------
// HW
// ----------------------------------------------------------------------

/// A resumable prefix snapshotted at a window barrier.
struct Checkpoint {
    /// First iteration the rerun must execute.
    start: u64,
    /// The committed memory image.
    image: MemoryImage,
    /// The committed prefix's last-writer map.
    winners: Winners,
    /// Iterations completed before the barrier.
    iterations: u64,
}

/// Snapshot state of a `CheckpointRestart` run.
struct Checkpoints {
    /// The most recent snapshot: the only one recovery rolls back to.
    last: Option<Checkpoint>,
    /// Pre-loop image, kept only to model the injected stale-snapshot bug
    /// (the checkpoint analogue of forgetting to merge dirty-line tags):
    /// snapshots record it instead of the committed image, and the
    /// campaign's serial-oracle image check must flag the stale rollback.
    stale: Option<MemoryImage>,
}

/// The outcome of one speculative pass over the loop.
struct Speculation {
    /// Why the pass failed, if it did.
    failed: Option<FailReason>,
    /// Iterations executed (up to the abort).
    iterations: u64,
    /// Accumulated last-writer map.
    winners: Winners,
}

/// A checkpoint rerun that passed: its machine's time, image and
/// statistics, and what it executed.
struct CkptRerun {
    accum: Accum,
    image: MemoryImage,
    stats: StatSet,
    run: Speculation,
}

impl Machine<'_> {
    /// One speculative pass over iterations `[first, spec.iters)` under the
    /// protocol extensions, in windows of `window` iterations (§3.3: if the
    /// stamps would overflow, the loop runs in windows separated by
    /// all-processor synchronizations that reset them). Each barrier
    /// between windows flushes the verdict, partially commits the prefix
    /// and, with `ckpts`, snapshots it. Ends at the flushed verdict, with
    /// the machine quiescent.
    fn speculate(
        &mut self,
        first: u64,
        window: u64,
        mut ckpts: Option<&mut Checkpoints>,
    ) -> Speculation {
        let spec = self.spec;
        let procs = self.ms.procs();
        let priv_arrays = spec.plan.priv_arrays();
        let sparse: Vec<ArrayId> = spec
            .backup_arrays()
            .into_iter()
            .filter(|&a| spec.array(a).sparse_backup)
            .collect();
        let mut run = Speculation {
            failed: None,
            iterations: 0,
            winners: Winners::new(),
        };
        let mut loop_end = ExecEnd::Completed;
        let mut start = first;
        while start < spec.iters {
            let len = window.min(spec.iters - start);
            if start > first {
                // Synchronization point: all in-flight protocol messages
                // land, the stamps reset, and a barrier separates the
                // windows.
                self.ms.drain_all_messages();
                if let Some((reason, at)) = self.ms.failure() {
                    loop_end = ExecEnd::Failed { reason, at };
                    break;
                }
                // Window-flushed verdict: a conflict hidden on a dirty line
                // must surface *before* the prefix is declared committed
                // (and snapshotted) — the same merge the loop-end verdict
                // does, at every barrier.
                self.ms.merge_dirty_tags(self.accum.now);
                if let Some((reason, at)) = self.ms.failure() {
                    loop_end = ExecEnd::Failed { reason, at };
                    break;
                }
                self.ms.reset_stamp_window(start);
                // Partial commit (§3.3): fold the accumulated last-writer
                // values of the privatized arrays into the shared image.
                // The stamp reset wipes the private directories, so the
                // next window's read-ins go back to shared memory — which
                // must hold every value the committed prefix wrote, or a
                // processor re-reads-in stale data over its own
                // earlier-window private write.
                for (&(arr, idx), &(_, value)) in &run.winners {
                    self.image.write(arr, idx, value);
                }
                self.accum.now += Cycles(self.cfg.barrier_overhead);
                if let Some(ckpts) = ckpts.as_deref_mut() {
                    // Snapshot the committed prefix: the winner values are
                    // already folded into the image at this barrier.
                    ckpts.last = Some(Checkpoint {
                        start,
                        image: ckpts.stale.as_ref().unwrap_or(&self.image).clone(),
                        winners: run.winners.clone(),
                        iterations: run.iterations,
                    });
                    self.ms.incr_stat("checkpoint.snapshots");
                    // Committing the snapshot to safe storage costs one
                    // more barrier episode on top of the window barrier.
                    self.accum.now += Cycles(self.cfg.barrier_overhead);
                }
            }
            let mut sched = Windowed::new(make_sched(spec.schedule, len, procs, &self.cfg), start);
            let mut exec = self
                .executor(vec![spec.body.clone(); procs as usize], &mut sched)
                .route_privatized(true)
                .speculative(true);
            for &arr in &priv_arrays {
                for p in 0..procs {
                    exec = exec.track_copy_out(private_copy_id(arr, ProcId(p)), arr);
                }
            }
            for &arr in &sparse {
                exec = exec.track_copy_out(arr, arr);
            }
            let summary = exec.run();
            self.accum.absorb(&summary);
            run.iterations += summary.iterations;
            merge_winners(&mut run.winners, &summary.winners);
            if let ExecEnd::Failed { reason, at } = summary.end {
                loop_end = ExecEnd::Failed { reason, at };
                break;
            }
            start += len;
        }
        self.ms.drain_all_messages();
        // Quiescent point: every protocol message has landed; the directory
        // and cache views must agree before the verdict is read.
        #[cfg(debug_assertions)]
        self.ms.assert_invariants();
        // Flushed-verdict semantics (paper §4, flush-after-every-loop): a
        // dirty line's locally accumulated access bits never reached the
        // directory, so a conflict hidden by a silent dirty-hit write could
        // escape a drain-point-only verdict. Merge them (state-only, no
        // eviction, no timing charge) before reading the verdict. A run
        // that already failed promptly skips the merge — its verdict is
        // settled and the failure state must not be perturbed.
        run.failed = match loop_end {
            ExecEnd::Failed { reason, .. } => Some(reason),
            ExecEnd::Completed => {
                self.ms.merge_dirty_tags(self.accum.now);
                self.ms.failure().map(|(reason, at)| {
                    self.accum.now = at.max(self.accum.now) + Cycles(self.cfg.abort_latency);
                    reason
                })
            }
        };
        run
    }

    /// Re-runs the lost iterations `[start, spec.iters)` speculatively, as
    /// one window with no snapshots, on a fresh `survivors`-processor
    /// machine seeded from this machine's image (the restored checkpoint).
    /// The suspected node is fenced out and the survivors restart on a
    /// fault-free, untraced interconnect — re-injecting the same
    /// deterministic node fault would kill every recovery attempt
    /// (DESIGN.md §16 records the simplification). Returns `None` when the
    /// rerun fails again (a deterministic dependence violation in the
    /// suffix); the caller then re-executes the same suffix serially.
    fn checkpoint_rerun(&self, start: u64, survivors: u32) -> Option<CkptRerun> {
        let _prof = specrt_prof::scope("machine.ckpt_rerun");
        let mut cfg = self.cfg;
        cfg.mem.procs = survivors;
        cfg.mem.net.faults = FaultConfig::none();
        cfg.trace_capacity = 0;
        let mut rerun = Machine::fresh(
            self.spec,
            cfg,
            Some(&self.image),
            PlacementPolicy::RoundRobin,
        );
        rerun.register_private_copies();
        rerun
            .ms
            .configure_loop(self.spec.plan.clone(), self.spec.numbering);
        // Stamps restart relative to the checkpoint, exactly as the
        // original machine's window barrier would have left them.
        rerun.ms.reset_stamp_window(start);
        let run = rerun.speculate(start, self.spec.iters - start, None);
        if run.failed.is_some() {
            return None;
        }
        Some(CkptRerun {
            stats: rerun.ms.stats().clone(),
            accum: rerun.accum,
            image: rerun.image,
            run,
        })
    }

    /// Emits a `Recovery` trace event. Only the non-default recovery
    /// policies emit them: the paper's `SerialReexec` baseline must stay
    /// byte-identical to the pre-resilience golden traces.
    fn note_recovery(&mut self, action: &'static str, attempt: u32) {
        if !matches!(self.cfg.recovery, RecoveryPolicy::SerialReexec) && self.ms.tracer().enabled()
        {
            let at = self.accum.now;
            self.ms.tracer_mut().emit(TraceEvent::Recovery {
                at,
                action,
                attempt,
            });
        }
    }
}

/// The HW scenario as one phase loop: backup → speculative pass → verdict
/// → copy-out on success; on failure, roll back to the backups and then
/// retry speculatively (`RetrySpeculative`, while attempts remain), rerun
/// the lost suffix from the last checkpoint (`CheckpointRestart`), or fall
/// back to the paper's serial re-execution.
fn run_hw(spec: &LoopSpec, cfg: MachineConfig) -> RunResult {
    let procs = cfg.procs();
    let mut m = Machine::fresh(spec, cfg, None, PlacementPolicy::RoundRobin);
    let live_priv = m.setup_speculative_storage();
    let backup = m.backup();
    m.register_private_copies();

    // Stamp windows (§3.3) only matter to privatized arrays. Under
    // CheckpointRestart the loop always runs in windows of at most
    // `every_iters`, so a window barrier — the quiescent point a
    // checkpoint snapshots — occurs at least that often.
    let mut window = spec
        .stamp_window
        .filter(|_| !spec.plan.priv_arrays().is_empty())
        .unwrap_or(spec.iters)
        .max(1);
    let mut ckpts = match cfg.recovery {
        RecoveryPolicy::CheckpointRestart { checkpoint } => {
            window = window.min(checkpoint.every_iters.max(1));
            Some(Checkpoints {
                last: None,
                stale: fault::active(fault::FaultKind::CkptSkipDirtySnapshot)
                    .then(|| m.image.clone()),
            })
        }
        _ => None,
    };

    // The paper's policy (SerialReexec) runs the loop once and falls
    // straight back to serial re-execution on failure; RetrySpeculative
    // re-runs it speculatively up to `retries` more times first — a
    // transient failure (a lost message escalated by the watchdog) need
    // not repeat, while a deterministic dependence violation burns the
    // attempts and lands in the same serial safety net.
    let retries = cfg.recovery.retries();
    let mut attempt: u32 = 0;
    let (failure, iterations, stats) = loop {
        m.ms.configure_loop(spec.plan.clone(), spec.numbering);
        let run = m.speculate(0, window, ckpts.as_mut());
        let stats = m.ms.stats().clone();
        // Post-loop phases (rollback / copy-out / re-execution) run under
        // plain coherence.
        m.ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());
        let Some(reason) = run.failed else {
            m.copy_out(&live_priv, &run.winners, true);
            break (None, run.iterations, stats);
        };

        if attempt < retries {
            // Retry: roll back, re-arm the speculation hardware, and go
            // around again. Private copies restart clean, exactly as a
            // fresh loop entry would see them (their read-in/copy-out
            // decisions were wiped with the access bits).
            attempt += 1;
            m.rollback(&backup, &run.winners);
            for arr in spec.plan.priv_arrays() {
                let len = spec.array(arr).len as usize;
                for p in 0..procs {
                    let id = private_copy_id(arr, ProcId(p));
                    m.image.set_contents(id, vec![Scalar::ZERO; len]);
                }
            }
            m.ms.reset_speculation();
            m.note_recovery("retry-speculative", attempt);
            continue;
        }

        // Checkpoint restart: roll back to the last window checkpoint and
        // re-run only the lost iterations — on the survivors when a node
        // was declared unreachable (its remaining chunk is redistributed by
        // the fresh schedule over `survivors` processors). The serial
        // safety net covers the rest: a failure no checkpoint precedes, or
        // a rerun that fails again (then only over the lost suffix).
        let Some(ckpt) = ckpts.as_mut().and_then(|c| c.last.take()) else {
            m.note_recovery("serial-reexec", attempt);
            m.rollback(&backup, &run.winners);
            m.serial_reexec(0);
            break (Some(reason), run.iterations, stats);
        };
        m.note_recovery("checkpoint-restart", attempt + 1);
        m.ms.incr_stat("checkpoint.restores");
        // Timed rollback: the same restore traffic any abort pays;
        // functionally the checkpoint image then replaces the speculative
        // one wholesale.
        m.rollback(&backup, &run.winners);
        m.image = ckpt.image;
        let survivors = match reason {
            FailReason::NodeUnreachable { .. } => procs.saturating_sub(1).max(1),
            _ => procs,
        };
        let Some(rerun) = m.checkpoint_rerun(ckpt.start, survivors) else {
            // The rerun failed again (a deterministic dependence violation
            // in the suffix): serial re-execution, but only of the
            // iterations the checkpoint does not cover.
            m.ms.incr_stat("checkpoint.serial_fallbacks");
            m.note_recovery("serial-reexec", attempt + 1);
            m.serial_reexec(ckpt.start);
            break (Some(reason), run.iterations, m.ms.stats().clone());
        };
        m.accum.now += rerun.accum.now;
        for (bd, rb) in m.accum.per_proc.iter_mut().zip(&rerun.accum.per_proc) {
            *bd = bd.merged(rb);
        }
        for a in &spec.arrays {
            m.image.set_contents(a.id, rerun.image.contents(a.id));
        }
        let mut winners = ckpt.winners;
        merge_winners(&mut winners, &rerun.run.winners);
        let mut stats = m.ms.stats().clone();
        stats.merge(&rerun.stats);
        m.copy_out(&live_priv, &winners, true);
        break (None, ckpt.iterations + rerun.run.iterations, stats);
    };
    let verdict = failure.map_or(Ok(()), |reason| Err(reason.to_string()));
    m.finish(Scenario::Hw, Some(verdict), iterations, stats)
}

// ----------------------------------------------------------------------
// SW
// ----------------------------------------------------------------------

fn run_sw(spec: &LoopSpec, cfg: MachineConfig, variant: SwVariant) -> RunResult {
    let procs = cfg.procs();
    let mut m = Machine::fresh(spec, cfg, None, PlacementPolicy::RoundRobin);
    let live_priv = m.setup_speculative_storage();

    let tested: Vec<(ArrayId, ProtocolKind)> = spec.plan.arrays_under_test().collect();
    let priv_arrays = spec.plan.priv_arrays();
    // Processor-wise shadows are 1-bit-per-element bitmaps (§2.2.3),
    // manipulated 64 elements per word; iteration-wise shadows are 4-byte
    // stamp arrays.
    let bitmap = variant == SwVariant::ProcessorWise;

    // Allocate shadow arrays (node-local) and counters, plus software
    // private copies of privatized arrays.
    let Machine { ms, image, .. } = &mut m;
    for &(arr, _) in &tested {
        let len = spec.array(arr).len;
        for p in 0..procs {
            let ids = ShadowIds::new(arr, ProcId(p));
            if bitmap {
                let words = len.div_ceil(64);
                for sid in [ids.w_last(), ids.r_cur(), ids.np()] {
                    ms.alloc_array(sid, words, ElemSize::W8, PlacementPolicy::Local(NodeId(p)));
                    image.register(sid, words);
                }
            } else {
                for sid in ids.data_shadows() {
                    ms.alloc_array(sid, len, ElemSize::W4, PlacementPolicy::Local(NodeId(p)));
                    image.register(sid, len);
                }
            }
            ms.alloc_array(
                ids.counters(),
                CNT_LEN,
                ElemSize::W8,
                PlacementPolicy::Local(NodeId(p)),
            );
            image.register(ids.counters(), CNT_LEN);
        }
        // Global reduction flags (read by processor 0's final reduction).
        ms.alloc_array(
            reduce_id(arr),
            CNT_LEN,
            ElemSize::W8,
            PlacementPolicy::Local(NodeId(0)),
        );
        image.register(reduce_id(arr), CNT_LEN);
    }
    for &arr in &priv_arrays {
        let decl = spec.array(arr);
        for p in 0..procs {
            ms.alloc_array(
                sw_private_copy_id(arr, ProcId(p)),
                decl.len,
                decl.elem,
                PlacementPolicy::Local(NodeId(p)),
            );
            image.register(sw_private_copy_id(arr, ProcId(p)), decl.len);
        }
    }
    ms.configure_loop(TestPlan::new(), IterationNumbering::iteration_wise());

    // Phase 1: backup.
    let backup = m.backup();

    // Phase 2: shadow zero-out (each processor clears its own shadows;
    // bitmap shadows clear 64 elements per store).
    for &(arr, _) in &tested {
        let len = spec.array(arr).len;
        let units = if bitmap { len.div_ceil(64) } else { len };
        let programs: Vec<Program> = (0..procs)
            .map(|p| {
                let ids = ShadowIds::new(arr, ProcId(p));
                if bitmap {
                    zero_shadow_body_bitmap(&ids)
                } else {
                    zero_shadow_body(&ids)
                }
            })
            .collect();
        let mut sched = Replicated::new(units, procs, cfg.sched_static_overhead);
        m.phase(programs, &mut sched);
    }

    // Phase 3: the marking loop.
    let (numbering, schedule) = match variant {
        SwVariant::IterationWise => (spec.numbering, spec.schedule),
        SwVariant::ProcessorWise => (
            IterationNumbering::processor_wise(spec.iters, procs),
            ScheduleKind::Static,
        ),
    };
    let icfg = InstrumentConfig {
        plan: spec.plan.clone(),
        numbering,
        bitmap,
    };
    let programs: Vec<Program> = (0..procs)
        .map(|p| instrument_for_proc(&spec.body, &icfg, ProcId(p)))
        .collect();
    let mut sched = make_sched(schedule, spec.iters, procs, &cfg);
    let mut exec = m.executor(programs, sched.as_mut());
    for &arr in &priv_arrays {
        for p in 0..procs {
            exec = exec.track_copy_out(sw_private_copy_id(arr, ProcId(p)), arr);
        }
    }
    for &arr in &backup.sparse {
        exec = exec.track_copy_out(arr, arr);
    }
    let summary = exec.run();
    assert_eq!(
        summary.end,
        ExecEnd::Completed,
        "SW marking loop runs to completion"
    );
    m.accum.absorb(&summary);

    // Phase 4: merging + analysis (word-granular for bitmap shadows).
    for &(arr, _) in &tested {
        let len = spec.array(arr).len;
        let units = if bitmap { len.div_ceil(64) } else { len };
        let all: Vec<ShadowIds> = (0..procs).map(|p| ShadowIds::new(arr, ProcId(p))).collect();
        let programs: Vec<Program> = (0..procs)
            .map(|p| {
                if bitmap {
                    merge_analysis_body_bitmap(&all, ProcId(p))
                } else {
                    merge_analysis_body(&all, ProcId(p))
                }
            })
            .collect();
        let mut sched = StaticChunked::new(units, procs, cfg.sched_static_overhead);
        m.phase(programs, &mut sched);
    }

    // Phase 5: the final reduction over the per-processor counters, run
    // serially on processor 0 (one remote counter line per processor).
    for &(arr, _) in &tested {
        let all: Vec<ShadowIds> = (0..procs).map(|p| ShadowIds::new(arr, ProcId(p))).collect();
        let body = reduction_body(&all, reduce_id(arr), bitmap);
        let mut sched = crate::sched::SingleProc::new(procs as u64, cfg.sched_static_overhead);
        m.phase(vec![body; procs as usize], &mut sched);
    }
    // The verdict is read from the simulated machine's reduction output.
    let mut failing = Vec::new();
    for &(arr, kind) in &tested {
        let g = reduce_id(arr);
        let atw = m.image.read(g, CNT_ATW).as_int();
        let slot1 = m.image.read(g, CNT_ATM).as_int();
        let bad_wr = m.image.read(g, CNT_BAD_WR).as_int() != 0;
        let bad_np = m.image.read(g, CNT_BAD_NP).as_int() != 0;
        // Test (c): no element written by two (super)iterations — expressed
        // as `Atw == Atm` for stamps, or directly as the absence of a
        // multi-writer overlap for bitmaps.
        let single_writers = if bitmap { slot1 == 0 } else { atw == slot1 };
        let ok = !bad_wr && (single_writers || (kind.is_privatized() && !bad_np));
        if !ok {
            failing.push(arr.to_string());
        }
    }

    let stats = m.ms.stats().clone();
    let verdict = if failing.is_empty() {
        m.copy_out(&live_priv, &summary.winners, false);
        Ok(())
    } else {
        m.rollback(&backup, &summary.winners);
        m.serial_reexec(0);
        Err(format!("LRPD test failed for {}", failing.join(", ")))
    };
    m.finish(
        Scenario::Sw(variant),
        Some(verdict),
        summary.iterations,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopspec::ArrayDecl;
    use specrt_ir::{BinOp, Operand, ProgramBuilder};

    const A: ArrayId = ArrayId(0);
    const K: ArrayId = ArrayId(1);
    const OUT: ArrayId = ArrayId(2);

    /// Pins the determinism contract of [`merge_winners`]: the
    /// accumulated last-writer map must not depend on the order windows
    /// are merged in, and merging a window over itself must be a no-op —
    /// so no arrival order, host hash seed, or `--jobs` schedule can
    /// leak into verdicts, stats, or final images.
    mod winner_merge_tests {
        use super::super::merge_winners;
        use specrt_ir::ArrayId;
        use specrt_ir::Scalar;
        use std::collections::BTreeMap;

        type Winners = BTreeMap<(ArrayId, u64), (u64, Scalar)>;
        type Entry = ((u32, u64), (u64, i64));

        fn window(entries: &[Entry]) -> Winners {
            entries
                .iter()
                .map(|&((a, e), (stamp, v))| ((ArrayId(a), e), (stamp, Scalar::Int(v))))
                .collect()
        }

        #[test]
        fn merge_is_order_independent() {
            // Three windows over disjoint stamp ranges (as real windows
            // are), with overlapping element sets.
            let w1 = window(&[((0, 0), (1, 10)), ((0, 1), (2, 11))]);
            let w2 = window(&[((0, 0), (4, 20)), ((1, 3), (3, 21))]);
            let w3 = window(&[((0, 1), (6, 30)), ((1, 3), (5, 31))]);
            let windows = [&w1, &w2, &w3];
            let orders: &[[usize; 3]] = &[
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ];
            let mut results = orders.iter().map(|order| {
                let mut acc = Winners::new();
                for &i in order {
                    merge_winners(&mut acc, windows[i]);
                }
                acc
            });
            let first = results.next().unwrap();
            assert!(
                results.all(|r| r == first),
                "winner merge must not depend on window order"
            );
            // Highest stamp won everywhere.
            assert_eq!(first[&(ArrayId(0), 0)], (4, Scalar::Int(20)));
            assert_eq!(first[&(ArrayId(0), 1)], (6, Scalar::Int(30)));
            assert_eq!(first[&(ArrayId(1), 3)], (5, Scalar::Int(31)));
        }

        #[test]
        fn merge_is_idempotent() {
            let w = window(&[((0, 0), (3, 7)), ((2, 9), (8, 1))]);
            let mut acc = Winners::new();
            merge_winners(&mut acc, &w);
            let once = acc.clone();
            merge_winners(&mut acc, &w);
            assert_eq!(acc, once, "self-merge must be a no-op");
        }
    }

    /// `A[K[i]] += 1` with K a permutation: parallel without privatization.
    fn permutation_loop(n: u64) -> LoopSpec {
        let mut b = ProgramBuilder::new();
        let idx = b.load(K, Operand::Iter);
        let v = b.load(A, Operand::Reg(idx));
        let v2 = b.binop(BinOp::FAdd, Operand::Reg(v), Operand::ImmF(1.0));
        b.store(A, Operand::Reg(idx), Operand::Reg(v2));
        b.compute(120);
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(A, ProtocolKind::NonPriv);
        // K[i] = (i * 7) mod n is a permutation when gcd(7, n) = 1... we use
        // n a power of two, so it is.
        let k_init: Vec<Scalar> = (0..n).map(|i| Scalar::Int(((i * 7) % n) as i64)).collect();
        let a_init: Vec<Scalar> = (0..n).map(|i| Scalar::Float(i as f64)).collect();
        LoopSpec {
            name: "permutation".into(),
            body,
            iters: n,
            arrays: vec![
                ArrayDecl::with_init(A, ElemSize::W8, a_init),
                ArrayDecl::with_init(K, ElemSize::W8, k_init),
            ],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![A],
            stamp_window: None,
        }
    }

    /// `OUT[i] = A[K[i]]` with A read-only under test. Every element read
    /// that hits a resident *clean* line emits an asynchronous `ROnly`
    /// update — and reads never dirty the lines — so protocol messages
    /// flow across the whole loop, and again on every speculative retry
    /// (the access bits reset, the lines stay clean). That makes this the
    /// workload of choice for node-fault tests: a crash or pause anywhere
    /// in the run reliably swallows some update and arms the watchdog.
    fn gather_loop(n: u64) -> LoopSpec {
        let mut b = ProgramBuilder::new();
        let idx = b.load(K, Operand::Iter);
        let v = b.load(A, Operand::Reg(idx));
        b.store(OUT, Operand::Iter, Operand::Reg(v));
        b.compute(120);
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(A, ProtocolKind::NonPriv);
        let k_init: Vec<Scalar> = (0..n).map(|i| Scalar::Int(((i * 7) % n) as i64)).collect();
        let a_init: Vec<Scalar> = (0..n).map(|i| Scalar::Float(i as f64)).collect();
        LoopSpec {
            name: "gather".into(),
            body,
            iters: n,
            arrays: vec![
                ArrayDecl::with_init(A, ElemSize::W8, a_init),
                ArrayDecl::with_init(K, ElemSize::W8, k_init),
                ArrayDecl::zeroed(OUT, n, ElemSize::W8),
            ],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![A, OUT],
            stamp_window: None,
        }
    }

    /// All iterations collide on A[0]: not parallel.
    fn colliding_loop(n: u64) -> LoopSpec {
        let mut spec = permutation_loop(n);
        let k_init: Vec<Scalar> = (0..n).map(|_| Scalar::Int(0)).collect();
        spec.arrays[1] = ArrayDecl::with_init(K, ElemSize::W8, k_init);
        spec.name = "colliding".into();
        spec
    }

    /// Workspace loop: every iteration writes then reads A[0..4];
    /// privatizable.
    fn workspace_loop(n: u64) -> LoopSpec {
        let mut b = ProgramBuilder::new();
        for e in 0..4 {
            b.store(A, Operand::ImmI(e), Operand::Iter);
        }
        let mut acc = b.mov(Operand::ImmI(0));
        for e in 0..4 {
            let v = b.load(A, Operand::ImmI(e));
            acc = b.binop(BinOp::Add, Operand::Reg(acc), Operand::Reg(v));
        }
        b.store(K, Operand::Iter, Operand::Reg(acc));
        b.compute(15);
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(
            A,
            ProtocolKind::Priv {
                read_in: false,
                copy_out: false,
            },
        );
        LoopSpec {
            name: "workspace".into(),
            body,
            iters: n,
            arrays: vec![
                ArrayDecl::zeroed(A, 4, ElemSize::W8),
                ArrayDecl::zeroed(K, n, ElemSize::W8),
            ],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![],
            stamp_window: None,
        }
    }

    fn check_matches_serial(spec: &LoopSpec, scenario: Scenario, procs: u32) -> RunResult {
        let serial = run_scenario(spec, Scenario::Serial, procs);
        let run = run_scenario(spec, scenario, procs);
        // Privatized arrays that are dead after the loop hold unspecified
        // values; compare only live state.
        let ids: Vec<ArrayId> = spec
            .arrays
            .iter()
            .map(|a| a.id)
            .filter(|&id| !spec.plan.kind_of(id).is_privatized() || spec.live_after.contains(&id))
            .collect();
        assert!(
            run.final_image.same_contents(&serial.final_image, &ids),
            "{scenario} final state differs from serial for {}",
            spec.name
        );
        run
    }

    #[test]
    fn hw_passes_parallel_loop_and_matches_serial() {
        let spec = permutation_loop(64);
        let run = check_matches_serial(&spec, Scenario::Hw, 4);
        assert_eq!(run.passed, Some(true), "{:?}", run.failure);
        assert_eq!(run.iterations, 64);
    }

    #[test]
    fn hw_fails_colliding_loop_and_recovers() {
        let spec = colliding_loop(64);
        let run = check_matches_serial(&spec, Scenario::Hw, 4);
        assert_eq!(run.passed, Some(false));
        assert!(run.failure.is_some());
        assert!(run.iterations < 64, "must abort early");
    }

    #[test]
    fn sw_passes_parallel_loop_and_matches_serial() {
        let spec = permutation_loop(64);
        let run = check_matches_serial(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert_eq!(run.passed, Some(true), "{:?}", run.failure);
    }

    #[test]
    fn sw_fails_colliding_loop_and_recovers() {
        let spec = colliding_loop(64);
        let run = check_matches_serial(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert_eq!(run.passed, Some(false));
        assert_eq!(run.iterations, 64, "SW only learns of failure at the end");
    }

    #[test]
    fn ideal_matches_serial() {
        let spec = permutation_loop(64);
        let run = check_matches_serial(&spec, Scenario::Ideal, 4);
        assert_eq!(run.passed, None);
    }

    #[test]
    fn hw_faster_than_sw_faster_than_serial_on_parallel_loop() {
        let spec = permutation_loop(256);
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let ideal = run_scenario(&spec, Scenario::Ideal, 4);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        let sw = run_scenario(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert!(ideal.total_cycles < serial.total_cycles);
        assert!(hw.total_cycles < serial.total_cycles, "HW should speed up");
        assert!(
            hw.total_cycles < sw.total_cycles,
            "HW {} should beat SW {}",
            hw.total_cycles,
            sw.total_cycles
        );
        assert!(ideal.total_cycles <= hw.total_cycles);
        assert!(hw.speedup_over(&serial) > 1.0);
    }

    #[test]
    fn hw_failure_detected_earlier_than_sw() {
        let spec = colliding_loop(128);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        let sw = run_scenario(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert!(
            hw.total_cycles < sw.total_cycles,
            "early abort must beat run-to-completion: HW {} vs SW {}",
            hw.total_cycles,
            sw.total_cycles
        );
    }

    #[test]
    fn privatized_workspace_passes_hw_and_sw() {
        let spec = workspace_loop(32);
        let hw = check_matches_serial(&spec, Scenario::Hw, 4);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
        let sw = check_matches_serial(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert_eq!(sw.passed, Some(true), "{:?}", sw.failure);
    }

    #[test]
    fn processor_wise_passes_same_proc_dependences() {
        // Iterations 2k and 2k+1 collide on A[k]; static chunking with 4
        // processors over 32 iterations puts each colliding pair on the
        // same processor, so the processor-wise SW test and the HW test
        // (processor-wise by construction) pass, while the iteration-wise
        // SW test fails.
        let mut b = ProgramBuilder::new();
        let half = b.binop(BinOp::Div, Operand::Iter, Operand::ImmI(2));
        let v = b.load(A, Operand::Reg(half));
        let v2 = b.binop(BinOp::FAdd, Operand::Reg(v), Operand::ImmF(1.0));
        b.store(A, Operand::Reg(half), Operand::Reg(v2));
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(A, ProtocolKind::NonPriv);
        let spec = LoopSpec {
            name: "pairs".into(),
            body,
            iters: 32,
            arrays: vec![ArrayDecl::zeroed(A, 16, ElemSize::W8)],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![A],
            stamp_window: None,
        };
        let pw = run_scenario(&spec, Scenario::Sw(SwVariant::ProcessorWise), 4);
        assert_eq!(pw.passed, Some(true), "{:?}", pw.failure);
        let iw = run_scenario(&spec, Scenario::Sw(SwVariant::IterationWise), 4);
        assert_eq!(iw.passed, Some(false));
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
    }

    /// A lossy interconnect makes the watchdog abort the first speculative
    /// attempt; `RetrySpeculative` restores the backups, re-runs the loop
    /// (drawing fresh fault decisions), and passes — where the paper's
    /// `SerialReexec` policy falls straight back to serial. Both end on the
    /// serial-equivalent memory image. The drop rate and fault seed are
    /// picked so the first attempt deterministically loses an update
    /// message past the retransmission budget.
    #[test]
    fn retry_policy_recovers_transient_message_loss() {
        use crate::config::RecoveryPolicy;
        use specrt_proto::{FaultConfig, NetConfig};

        let spec = permutation_loop(64);
        let faults = FaultConfig {
            seed: 6,
            drop_ppm: 350_000,
            dup_ppm: 0,
            delay_ppm: 0,
            delay_cycles: 0,
            node_fault: None,
        };
        let mut cfg = MachineConfig::with_procs(4).with_net(NetConfig::flat().with_faults(faults));
        cfg.mem.retry.timeout = 64;
        cfg.mem.retry.max_retries = 1;
        cfg.trace_capacity = 4096;
        let serial = run_scenario_configured(&spec, Scenario::Serial, cfg);

        // Paper policy: the loss escalates into abort + serial fallback.
        let base = run_scenario_configured(&spec, Scenario::Hw, cfg);
        assert_eq!(base.passed, Some(false));
        assert!(
            base.failure.as_deref().unwrap_or("").contains("lost"),
            "expected a message-loss abort, got {:?}",
            base.failure
        );
        assert!(base.final_image.same_contents(&serial.final_image, &[A]));

        // Retry policy: the re-run draws different fault decisions and
        // completes speculatively.
        let retry = run_scenario_configured(
            &spec,
            Scenario::Hw,
            cfg.with_recovery(RecoveryPolicy::RetrySpeculative { max_attempts: 3 }),
        );
        assert_eq!(retry.passed, Some(true), "{:?}", retry.failure);
        assert!(retry.stats.get("retry.speculative_reruns") >= 1);
        assert!(retry.final_image.same_contents(&serial.final_image, &[A]));
        assert!(
            retry.trace.iter().any(|e| matches!(
                e,
                TraceEvent::Recovery {
                    action: "retry-speculative",
                    ..
                }
            )),
            "retry must be visible in the event trace"
        );
    }

    /// A deterministic dependence violation fails every speculative
    /// attempt: `RetrySpeculative` burns its budget, lands in the serial
    /// safety net, and still produces the serial result.
    #[test]
    fn retry_policy_exhausts_on_deterministic_conflict() {
        use crate::config::RecoveryPolicy;

        let spec = colliding_loop(64);
        let mut cfg = MachineConfig::with_procs(4)
            .with_recovery(RecoveryPolicy::RetrySpeculative { max_attempts: 2 });
        cfg.trace_capacity = 4096;
        let serial = run_scenario_configured(&spec, Scenario::Serial, cfg);
        let run = run_scenario_configured(&spec, Scenario::Hw, cfg);
        assert_eq!(run.passed, Some(false));
        assert!(run.failure.is_some());
        assert_eq!(run.stats.get("retry.speculative_reruns"), 2);
        assert!(run.final_image.same_contents(&serial.final_image, &[A]));
        let serial_fallback = run.trace.iter().any(|e| {
            matches!(
                e,
                TraceEvent::Recovery {
                    action: "serial-reexec",
                    attempt: 2,
                    ..
                }
            )
        });
        assert!(serial_fallback, "exhaustion must emit the fallback event");
    }

    /// A `NodePause` outlasting every retransmission backoff exhausts the
    /// `RetrySpeculative` budget: each attempt escalates to
    /// `NodeUnreachable`, and after the budget burns the machine falls back
    /// to serial re-execution with the serial-equivalent image. The
    /// per-attempt cost (abort + restore + re-run to the same escalation
    /// point) is probe-pinned: the node fault is a pure function of
    /// (src, dst, cycle) and draws no RNG, so consecutive attempts cost
    /// exactly the same number of cycles.
    #[test]
    fn retry_exhaustion_under_long_pause_falls_back_to_serial() {
        use crate::config::RecoveryPolicy;
        use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};

        let spec = gather_loop(64);
        let faults = FaultConfig {
            node_fault: Some(NodeFaultConfig {
                kind: NodeFaultKind::Pause {
                    for_cycles: u64::MAX / 2,
                },
                node: 2,
                at_cycle: 1,
            }),
            ..FaultConfig::none()
        };
        let run_with = |attempts: u32| {
            let mut cfg =
                MachineConfig::with_procs(4).with_net(NetConfig::flat().with_faults(faults));
            cfg.mem.retry.timeout = 64;
            cfg.mem.retry.max_retries = 2;
            cfg.trace_capacity = 4096;
            cfg.recovery = RecoveryPolicy::RetrySpeculative {
                max_attempts: attempts,
            };
            run_scenario_configured(&spec, Scenario::Hw, cfg)
        };
        let serial = run_scenario(&spec, Scenario::Serial, 4);

        let runs: Vec<RunResult> = [1u32, 2, 3].map(run_with).to_vec();
        for run in &runs {
            assert_eq!(run.passed, Some(false), "{:?}", run.failure);
            assert!(
                run.failure.as_deref().unwrap_or("").contains("unreachable"),
                "expected watchdog escalation, got {:?}",
                run.failure
            );
            assert!(run.stats.get("fault.node.unreachable") >= 1);
            assert!(run
                .final_image
                .same_contents(&serial.final_image, &[A, OUT]));
        }
        assert_eq!(runs[0].stats.get("retry.speculative_reruns"), 1);
        assert_eq!(runs[1].stats.get("retry.speculative_reruns"), 2);
        assert_eq!(runs[2].stats.get("retry.speculative_reruns"), 3);
        for (run, budget) in runs.iter().zip([1u32, 2, 3]) {
            assert!(
                run.trace.iter().any(|e| matches!(
                    e,
                    TraceEvent::Recovery {
                        action: "serial-reexec",
                        attempt,
                        ..
                    } if *attempt == budget
                )),
                "missing serial fallback event for budget {budget}"
            );
        }
        // Probe-pinned per-attempt cost: cycle-exact linearity across
        // budgets.
        let t: Vec<u64> = runs.iter().map(|r| r.total_cycles.raw()).collect();
        assert!(t[1] > t[0], "an extra attempt must cost time");
        assert_eq!(
            t[2] - t[1],
            t[1] - t[0],
            "per-attempt cost must be cycle-exact: {t:?}"
        );
    }

    /// The acceptance scenario for the checkpoint plane: a node crash
    /// mid-loop under `CheckpointRestart` rolls back to the last window
    /// checkpoint and re-runs only the lost iterations on the survivors —
    /// the loop still *passes*, no whole-loop serial re-execution happens,
    /// and the final image is the serial one.
    #[test]
    fn checkpoint_restart_recovers_node_crash_without_full_reexec() {
        use crate::config::{CheckpointConfig, RecoveryPolicy};
        use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};

        let spec = gather_loop(64);
        let recovery = RecoveryPolicy::CheckpointRestart {
            checkpoint: CheckpointConfig { every_iters: 16 },
        };
        let mk_cfg = |faults: FaultConfig| {
            let mut cfg =
                MachineConfig::with_procs(4).with_net(NetConfig::flat().with_faults(faults));
            cfg.mem.retry.timeout = 64;
            cfg.mem.retry.max_retries = 2;
            cfg.trace_capacity = 4096;
            cfg.recovery = recovery;
            cfg
        };
        // Fault-free probe run under the same checkpointing cadence, to pin
        // a crash time that lands past the first checkpoint.
        let probe = run_scenario_configured(&spec, Scenario::Hw, mk_cfg(FaultConfig::none()));
        assert_eq!(probe.passed, Some(true), "{:?}", probe.failure);
        assert!(probe.stats.get("checkpoint.snapshots") >= 3);
        assert_eq!(probe.stats.get("checkpoint.restores"), 0);
        let crash_at = probe.total_cycles.raw() * 2 / 3;

        let faults = FaultConfig {
            node_fault: Some(NodeFaultConfig {
                kind: NodeFaultKind::Crash,
                node: 3,
                at_cycle: crash_at,
            }),
            ..FaultConfig::none()
        };
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario_configured(&spec, Scenario::Hw, mk_cfg(faults));
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
        assert_eq!(hw.iterations, 64, "every iteration must commit");
        assert!(hw.stats.get("fault.node.unreachable") >= 1);
        assert!(hw.stats.get("checkpoint.restores") >= 1);
        assert_eq!(hw.stats.get("checkpoint.serial_fallbacks"), 0);
        assert!(
            hw.trace.iter().any(|e| matches!(
                e,
                TraceEvent::Recovery {
                    action: "checkpoint-restart",
                    ..
                }
            )),
            "restart must be visible in the event trace"
        );
        assert!(
            !hw.trace.iter().any(|e| matches!(
                e,
                TraceEvent::Recovery {
                    action: "serial-reexec",
                    ..
                }
            )),
            "recovery must not fall back to serial re-execution"
        );
        assert!(hw.final_image.same_contents(&serial.final_image, &[A, OUT]));
    }

    /// With no checkpoint preceding the failure (crash before the first
    /// window barrier), `CheckpointRestart` degrades to the serial safety
    /// net — and a deterministic conflict makes the post-restore rerun fail
    /// again, exercising the suffix-serial fallback. Both end on the serial
    /// image.
    #[test]
    fn checkpoint_restart_serial_fallbacks_match_serial() {
        use crate::config::{CheckpointConfig, RecoveryPolicy};
        use specrt_proto::{FaultConfig, NetConfig, NodeFaultConfig, NodeFaultKind};

        let recovery = RecoveryPolicy::CheckpointRestart {
            checkpoint: CheckpointConfig { every_iters: 16 },
        };

        // Crash from cycle 0: the very first window dies (the permutation
        // loop's early clean-line hits send updates before the first
        // barrier), no checkpoint exists, and the whole loop re-executes
        // serially.
        let spec = permutation_loop(64);
        let faults = FaultConfig {
            node_fault: Some(NodeFaultConfig {
                kind: NodeFaultKind::Crash,
                node: 1,
                at_cycle: 0,
            }),
            ..FaultConfig::none()
        };
        let mut cfg = MachineConfig::with_procs(4).with_net(NetConfig::flat().with_faults(faults));
        cfg.mem.retry.timeout = 64;
        cfg.mem.retry.max_retries = 2;
        cfg.recovery = recovery;
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario_configured(&spec, Scenario::Hw, cfg);
        assert_eq!(hw.passed, Some(false), "{:?}", hw.failure);
        assert_eq!(hw.stats.get("checkpoint.restores"), 0);
        assert!(hw.final_image.same_contents(&serial.final_image, &[A]));

        // Deterministic late conflict: the first two windows pass and
        // checkpoint, iterations 32+ all collide on A[0] — the restart
        // reruns the suffix, fails again deterministically, and only the
        // suffix re-executes serially from the checkpoint.
        let mut spec = permutation_loop(64);
        let k_init: Vec<Scalar> = (0..64)
            .map(|i| Scalar::Int(if i < 32 { i } else { 0 }))
            .collect();
        spec.arrays[1] = ArrayDecl::with_init(K, ElemSize::W8, k_init);
        spec.name = "late-collision".into();
        let mut cfg = MachineConfig::with_procs(4);
        cfg.recovery = recovery;
        cfg.trace_capacity = 4096;
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario_configured(&spec, Scenario::Hw, cfg);
        assert_eq!(hw.passed, Some(false));
        assert!(hw.stats.get("checkpoint.restores") >= 1);
        assert!(hw.stats.get("checkpoint.serial_fallbacks") >= 1);
        assert!(
            hw.trace.iter().any(|e| matches!(
                e,
                TraceEvent::Recovery {
                    action: "checkpoint-restart",
                    ..
                }
            )) && hw.trace.iter().any(|e| matches!(
                e,
                TraceEvent::Recovery {
                    action: "serial-reexec",
                    ..
                }
            )),
            "both recovery stages must be visible in the event trace"
        );
        assert!(hw.final_image.same_contents(&serial.final_image, &[A]));
    }

    /// The FAIL broadcast rides the same interconnect as everything else:
    /// on a congested mesh the abort traffic queues behind hot links, yet
    /// the post-detection `abort_latency` is still charged on top of the
    /// (delayed) detection time, and the machine quiesces — `run_hw` drains
    /// every in-flight message and checks directory/cache agreement before
    /// the serial safety net runs, so the final image must still be the
    /// serial one.
    #[test]
    fn mesh_contention_delays_abort_but_keeps_accounting_and_quiescence() {
        use specrt_proto::NetConfig;

        let spec = colliding_loop(64);
        let serial = run_scenario(&spec, Scenario::Serial, 4);

        let hot = |abort: u64| {
            let mut cfg =
                MachineConfig::with_procs(4).with_net(NetConfig::mesh(4).with_link_service(400));
            cfg.abort_latency = abort;
            cfg
        };
        let run = run_scenario_configured(&spec, Scenario::Hw, hot(200));
        assert_eq!(run.passed, Some(false));
        assert!(
            run.iterations < 64,
            "must abort early even under contention"
        );
        assert!(
            run.net.total_queue > 0,
            "a 400-cycle link service must actually queue: {:?}",
            run.net
        );
        assert!(
            run.final_image.same_contents(&serial.final_image, &[A]),
            "machine must quiesce and fall back to the serial answer"
        );

        // Detection is network-bound: the same abort on the flat
        // infinite-bandwidth crossbar resolves sooner end to end.
        let mut flat_cfg = MachineConfig::with_procs(4);
        flat_cfg.abort_latency = 200;
        let flat = run_scenario_configured(&spec, Scenario::Hw, flat_cfg);
        assert_eq!(flat.passed, Some(false));
        assert!(
            run.total_cycles > flat.total_cycles,
            "hot mesh {} must be slower to detect + recover than flat {}",
            run.total_cycles.raw(),
            flat.total_cycles.raw()
        );

        // `abort_latency` accounting survives contention. The charge is
        // `max(detect + abort_latency, pending network drain)` per
        // processor, so short latencies can hide inside the queue drain —
        // but once the latency dominates, lengthening it by Δ must push the
        // end-to-end time out by exactly Δ.
        let slow = run_scenario_configured(&spec, Scenario::Hw, hot(5_000));
        let slower = run_scenario_configured(&spec, Scenario::Hw, hot(10_000));
        assert_eq!(slow.passed, Some(false));
        assert!(slow.total_cycles > run.total_cycles, "latency not charged");
        assert_eq!(
            slower.total_cycles.raw() - slow.total_cycles.raw(),
            5_000,
            "dominant abort_latency must shift the end time rigidly: {} vs {}",
            slower.total_cycles.raw(),
            slow.total_cycles.raw()
        );
        assert!(slow.final_image.same_contents(&serial.final_image, &[A]));
    }
}

#[cfg(test)]
mod stamp_window_tests {
    use super::*;
    use crate::loopspec::ArrayDecl;
    use specrt_ir::{BinOp, Operand, ProgramBuilder};

    const A: ArrayId = ArrayId(0);
    const OUT: ArrayId = ArrayId(1);

    /// A privatized read-in workload: every iteration reads four table
    /// slots (read-first) and writes its own scratch slot.
    fn priv_spec(iters: u64, window: Option<u64>) -> LoopSpec {
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
        b.store(OUT, Operand::Iter, Operand::Reg(rv));
        b.compute(20);
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(
            A,
            ProtocolKind::Priv {
                read_in: true,
                copy_out: false,
            },
        );
        LoopSpec {
            name: "stamp-window".into(),
            body,
            iters,
            arrays: vec![
                ArrayDecl::with_init(
                    A,
                    ElemSize::W8,
                    (0..24)
                        .map(|i| specrt_ir::Scalar::Float(1.0 + i as f64))
                        .collect(),
                ),
                ArrayDecl::zeroed(OUT, iters, ElemSize::W8),
            ],
            plan,
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![OUT],
            stamp_window: window,
        }
    }

    #[test]
    fn windowed_run_passes_and_matches_serial() {
        let spec = priv_spec(64, Some(16));
        let serial = run_scenario(&spec, Scenario::Serial, 4);
        let hw = run_scenario(&spec, Scenario::Hw, 4);
        assert_eq!(hw.passed, Some(true), "{:?}", hw.failure);
        assert_eq!(hw.iterations, 64);
        assert!(hw.stats.get("stamp_window_resets") >= 3);
        assert!(hw.final_image.same_contents(&serial.final_image, &[OUT]));
    }

    #[test]
    fn windowed_run_costs_more_than_unwindowed() {
        let plain = run_scenario(&priv_spec(64, None), Scenario::Hw, 4);
        let windowed = run_scenario(&priv_spec(64, Some(8)), Scenario::Hw, 4);
        assert_eq!(plain.passed, Some(true));
        assert_eq!(windowed.passed, Some(true));
        assert!(
            windowed.total_cycles > plain.total_cycles,
            "periodic synchronization must cost: {} vs {}",
            windowed.total_cycles,
            plain.total_cycles
        );
    }

    #[test]
    fn window_boundary_masks_cross_window_flow_dependence() {
        // Iteration 0 writes element 30; iteration 40 reads it first. With
        // a 32-iteration window the barrier orders them (valid!), so the
        // windowed run passes while the unwindowed stamped run fails.
        let mut b = ProgramBuilder::new();
        let is0 = b.binop(BinOp::CmpEq, Operand::Iter, Operand::ImmI(0));
        let not0 = b.label();
        let end = b.label();
        b.bz(Operand::Reg(is0), not0);
        b.store(A, Operand::ImmI(30), Operand::ImmF(7.0));
        b.jmp(end);
        b.bind(not0);
        let is40 = b.binop(BinOp::CmpEq, Operand::Iter, Operand::ImmI(40));
        b.bz(Operand::Reg(is40), end);
        let v = b.load(A, Operand::ImmI(30));
        b.store(OUT, Operand::ImmI(40), Operand::Reg(v));
        b.bind(end);
        b.compute(10);
        let body = b.build().unwrap();
        let mut plan = TestPlan::new();
        plan.set(
            A,
            ProtocolKind::Priv {
                read_in: true,
                copy_out: false,
            },
        );
        let mk = |window| LoopSpec {
            name: "cross-window".into(),
            body: body.clone(),
            iters: 64,
            arrays: vec![
                ArrayDecl::zeroed(A, 32, ElemSize::W8),
                ArrayDecl::zeroed(OUT, 64, ElemSize::W8),
            ],
            plan: plan.clone(),
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![OUT],
            stamp_window: window,
        };
        let unwindowed = run_scenario(&mk(None), Scenario::Hw, 2);
        assert_eq!(
            unwindowed.passed,
            Some(false),
            "flow dependence across procs"
        );
        let windowed = run_scenario(&mk(Some(32)), Scenario::Hw, 2);
        assert_eq!(windowed.passed, Some(true), "{:?}", windowed.failure);
        // Both end in the serial state regardless.
        let serial = run_scenario(&mk(None), Scenario::Serial, 2);
        assert!(windowed
            .final_image
            .same_contents(&serial.final_image, &[OUT]));
        assert!(unwindowed
            .final_image
            .same_contents(&serial.final_image, &[OUT]));
    }
}

#[cfg(test)]
mod detailed_barrier_tests {
    use super::*;
    use crate::loopspec::ArrayDecl;
    use specrt_ir::{Operand, ProgramBuilder};

    const A: ArrayId = ArrayId(0);

    fn simple_spec(iters: u64) -> LoopSpec {
        let mut b = ProgramBuilder::new();
        b.store(A, Operand::Iter, Operand::Iter);
        b.compute(30);
        LoopSpec {
            name: "barrier-test".into(),
            body: b.build().unwrap(),
            iters,
            arrays: vec![ArrayDecl::zeroed(A, iters, ElemSize::W8)],
            plan: TestPlan::new(),
            numbering: IterationNumbering::iteration_wise(),
            schedule: ScheduleKind::Static,
            live_after: vec![A],
            stamp_window: None,
        }
    }

    #[test]
    fn detailed_barrier_completes_and_matches_serial() {
        let spec = simple_spec(64);
        let mut cfg = MachineConfig::with_procs(8);
        cfg.detailed_barrier = true;
        let run = run_scenario_configured(&spec, Scenario::Hw, cfg);
        assert_eq!(run.passed, Some(true));
        let serial = run_scenario_configured(&spec, Scenario::Serial, cfg);
        assert!(run.final_image.same_contents(&serial.final_image, &[A]));
    }

    #[test]
    fn detailed_barrier_cost_grows_with_processors() {
        // With the constant model the barrier costs the same at 4 and 16
        // processors; the detailed model serializes arrivals and wake-ups
        // at the counter's home bank, so sync per processor grows.
        let spec = simple_spec(64);
        let sync_of = |procs: u32| {
            let mut cfg = MachineConfig::with_procs(procs);
            cfg.detailed_barrier = true;
            let r = run_scenario_configured(&spec, Scenario::Ideal, cfg);
            r.breakdown.sync.raw()
        };
        let s4 = sync_of(4);
        let s16 = sync_of(16);
        assert!(
            s16 > s4,
            "barrier hot-spot must grow with processors: {s4} vs {s16}"
        );
    }

    #[test]
    fn detailed_barrier_exceeds_constant_model_under_contention() {
        let spec = simple_spec(64);
        let cfg = MachineConfig::with_procs(16);
        let constant = run_scenario_configured(&spec, Scenario::Ideal, cfg);
        let mut dcfg = cfg;
        dcfg.detailed_barrier = true;
        let detailed = run_scenario_configured(&spec, Scenario::Ideal, dcfg);
        assert!(
            detailed.total_cycles > constant.total_cycles,
            "16-way fetch&op serialization must cost more than the constant: {} vs {}",
            detailed.total_cycles,
            constant.total_cycles
        );
    }
}
