//! Measurement plumbing shared by the workloads: the in-memory span
//! recorder, summary statistics, process counters read from `/proc`, and a
//! small content hash for simulated fingerprints.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed benchmark span: a timed call into a layer's public API.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Workload run (one traced pass) the span belongs to.
    pub run: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a run's root.
    pub parent: u64,
    /// Layer call, e.g. `machine.run_scenario`.
    pub name: &'static str,
    /// Qualifier of the call, e.g. the scenario or loop (may be empty).
    pub detail: &'static str,
    /// Benchmark-local thread number.
    pub thread: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Records spans in memory while enabled; a disabled recorder only runs
/// the wrapped call. Spans are written out once, after the run.
pub struct Recorder {
    enabled: AtomicBool,
    run: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    epoch: Instant,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            run: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Starts a new workload run; later spans carry its id.
    pub fn begin_run(&self) {
        self.run.fetch_add(1, Ordering::SeqCst);
    }

    /// Runs `f`, recording it as span `name`/`detail` under `parent` when
    /// enabled. `f` receives the span's id (0 when disabled) so that calls
    /// it makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        detail: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled.load(Ordering::Relaxed) {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let span = Span {
            run: self.run.load(Ordering::Relaxed),
            id,
            parent,
            name,
            detail,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_spans(path: &std::path::Path, tag: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == 0 {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"run\":\"{tag}-{}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
             \"detail\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.run, s.id, s.name, s.detail, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Total duration in milliseconds of the spans named `name` whose detail
/// satisfies `detail`.
pub fn span_total_ms(spans: &[Span], name: &str, detail: &dyn Fn(&str) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && detail(s.detail))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

/// Mean duration in nanoseconds of the spans named `name`; 0 if none.
pub fn span_mean_ns(spans: &[Span], name: &str) -> f64 {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns()));
    ratio(total as f64, n as f64)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never reached).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `v` (mean of the middle two for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    quantile_interp(v, 0.5)
}

fn quantile_interp(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile `q` (0..=1) of `v`; 0 if empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Peak resident set size of this process in MiB (`getrusage`'s
/// `ru_maxrss`).
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval`s, then 14
    // longs, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` of the layout
    // above that outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss_kb as f64 / 1024.0
}

/// User plus system CPU seconds consumed by this process so far, all
/// threads included.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed by the calling thread so far. Unlike wall time it
/// does not grow while the thread is preempted.
pub fn thread_cpu_seconds() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

fn clock_seconds(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and both callers pass
    // a CPU-time clock id the kernel always supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// FNV-1a over 64-bit words: the benchmark's own fingerprint hash, so a
/// fingerprint changes only when simulated results do.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Fnv {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new();
        assert_eq!(rec.span("a", "", 0, |id| id), 0);
        rec.set_enabled(true);
        let id = rec.span("a", "", 0, |id| id);
        assert_ne!(id, 0);
        assert_eq!(rec.spans().len(), 1);
    }
}
