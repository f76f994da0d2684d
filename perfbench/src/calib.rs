//! Host-speed calibration.
//!
//! The benchmark runs on a share of a machine that other work uses too, and
//! the same fixed work runs at different speeds at different times: by a
//! fifth and more from one second to the next, and by half and more
//! between runs minutes apart. So while an end-to-end run measures, a sampler thread
//! times a short fixed kernel of the benchmark's own every few
//! milliseconds, and the run scales each time it measures by the kernel's
//! reference time over the kernel's median time while it was measured
//! (the whole run, for short measurements). Reported times are
//! "reference seconds": what the work would have taken on a host that
//! runs the kernel in its reference time. The kernel calls no code of the
//! repository, so a change to the program moves a scaled time exactly as
//! much as a raw one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::measure::{median, thread_cpu_seconds};

/// Kernel steps per sample (about 0.6 ms on the reference host, within
/// one scheduler time slice, so that a worker seldom preempts a sample).
const STEPS: u64 = 1 << 15;
/// Pause between samples: the sampler uses about 4% of one vCPU.
const PERIOD: Duration = Duration::from_millis(15);
/// Words of the table that stays in the core's first-level cache (16 KiB).
const SMALL_WORDS: usize = 1 << 11;
/// Words of the table that stays in the core's second-level cache
/// (512 KiB, a quarter of it on the reference host).
const BIG_WORDS: usize = 1 << 16;
/// Reference CPU time of a sample: the median sample of the first trials
/// on the 2-vCPU host the bounds were set on.
const REF_S: f64 = 0.00065;
/// Fewest samples a window must hold to be scaled on its own.
const MIN_WINDOW_SAMPLES: usize = 20;

/// Times the kernel in the background until [`Sampler::finish`].
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, f64)>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let fill = |n: usize| -> Vec<u64> { (0..n as u64).map(mix).collect() };
            let (mut small, mut big) = (fill(SMALL_WORDS), fill(BIG_WORDS));
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                // The tables are loaded into the core's caches first, so
                // that the sample does not depend on what ran before it.
                black_box(small.iter().chain(big.iter()).fold(0, |a, &w| a ^ w));
                // CPU time, unlike wall time, leaves out the time the
                // thread waits for a vCPU: the sample measures how fast
                // the host runs the kernel, not how threads were scheduled.
                let t = thread_cpu_seconds();
                black_box(kernel(samples.len() as u64, &mut small, &mut big));
                samples.push((Instant::now(), thread_cpu_seconds() - t));
            }
            samples
        });
        Sampler { stop, thread }
    }

    /// Stops the sampler and waits for it.
    pub fn finish(self) -> Calibration {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.thread.join().expect("calibration sampler panicked");
        Calibration { samples }
    }
}

/// The kernel's CPU times over one run, with the time each ended.
pub struct Calibration {
    samples: Vec<(Instant, f64)>,
}

impl Calibration {
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median CPU seconds of a sample over the whole run.
    pub fn median_s(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Factor turning host seconds measured over the whole run into
    /// reference seconds.
    pub fn scale(&self) -> f64 {
        REF_S / self.median_s()
    }

    /// Factor turning host seconds measured between `from` and `to` into
    /// reference seconds: from the samples taken meanwhile, or from the
    /// whole run's if too few were.
    pub fn scale_between(&self, from: Instant, to: Instant) -> f64 {
        let within: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.0 >= from && s.0 <= to)
            .map(|s| s.1)
            .collect();
        if within.len() < MIN_WINDOW_SAMPLES {
            self.scale()
        } else {
            REF_S / median(&within)
        }
    }
}

/// SplitMix64's output function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fixed work: data-dependent branches between updates of two tables
/// in the core's own caches, a priority queue and integer division — the
/// kinds of work the simulator does, in fixed proportions. It is bound by
/// the core, not by memory: what slows it is what slows a core of a shared
/// host (a busy sibling thread, a lower clock).
fn kernel(seed: u64, small: &mut [u64], big: &mut [u64]) -> u64 {
    let mut heap = BinaryHeap::with_capacity(1024);
    let (mut x, mut acc) = (seed, 0u64);
    for _ in 0..STEPS {
        x = mix(x);
        match x >> 62 {
            0 => {
                let i = x as usize & (SMALL_WORDS - 1);
                small[i] = small[i].wrapping_add(x);
            }
            1 => {
                let i = (x >> 8) as usize & (BIG_WORDS - 1);
                acc ^= big[i];
                big[i] = x;
            }
            2 => {
                heap.push(Reverse(x & 0xffff));
                if heap.len() > 512 {
                    acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
                }
            }
            _ => acc = acc.rotate_left(5) ^ (x % 7 + acc % 13),
        }
    }
    acc
}
