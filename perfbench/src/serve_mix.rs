//! `serve_mix`: an open loop against an in-process `ServeCore`. One
//! generator thread sends requests at their seeded Poisson arrival times
//! at a fixed offered rate, whether or not earlier ones have been
//! answered; each request is timed from the moment it was due. The mix is
//! seeded case requests across the protocols plus paper-loop invocations,
//! on both lanes, with a fixed share of repeats that the result cache can
//! answer. Each pass starts a fresh service, so its cache starts empty.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use specrt_engine::SplitMix64;
use specrt_serve::{Outcome, ServeConfig, ServeCore};

use crate::measure::{cpu_seconds, percentile, ratio, Fnv, Recorder};
use crate::{Pass, Sim};

/// Offered rate, requests per second: about an eighth of the mix's cold
/// throughput (every request a miss), which measured 650–900 requests/s on
/// the 2-vCPU host the bounds were set on. The workers are idle most of
/// the time: latency comes from the work itself and from waiting behind
/// Ocean runs, not from a backlog (see `perfbench/METRICS.md`).
const RATE_PER_S: f64 = 100.0;
/// Distinct case requests per pass.
const CASES: usize = 240;
/// Ocean invocations at bench scale.
const OCEAN_INVOCATIONS: u64 = 40;
/// Paper-loop requests per pass: Ocean invocations under HW on the batch
/// lane, each a ~40 ms simulation (after an ~8 ms parse) that short
/// requests can queue behind. Never repeated, so each one misses. Every
/// even invocation, so that all use the same stride and every pass sends
/// the same ones (the seed sets only their order): they are 4.6% of all
/// requests, so p99 falls among requests of one size, whatever the seed.
const LARGE: usize = OCEAN_INVOCATIONS as usize / 2;
/// Repeats of case requests per pass: 40% of all requests. At half, the
/// median request would sit on the edge between cache hits (microseconds)
/// and misses (milliseconds), and p50 would swing with the hit share.
const CASE_REPEATS: usize = (CASES + LARGE) * 2 / 3;
/// Per-lane queue bound of the service.
const QUEUE_DEPTH: usize = 64;
/// Latency charged to a failed or refused request: beyond any limit.
const FAILED_LATENCY_MS: f64 = 60_000.0;
/// Seed tag separating the mix stream from other uses of the seed.
const MIX_TAG: u64 = 0x5e77_e000_0000_0000;

const PROTOCOLS: [&str; 7] = [
    "hw-nonpriv",
    "hw-priv",
    "hw-priv3",
    "sw-lrpd",
    "ideal",
    "serial",
    "check",
];

struct Request {
    /// Due time, seconds after the pass starts.
    due_s: f64,
    line: String,
    /// Index of the distinct request this one is (or repeats).
    distinct: usize,
}

pub struct Prepared {
    requests: Vec<Request>,
    /// Distinct requests among `requests`.
    distinct: usize,
    workers: usize,
}

/// The distinct request bodies of the mix for `seed` (without ids): the
/// case requests, then the paper-loop requests.
pub fn distinct_bodies(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ MIX_TAG);
    let mut bodies = Vec::with_capacity(CASES + LARGE);
    for i in 0..CASES {
        let lane = if i % 4 == 3 { "batch" } else { "interactive" };
        bodies.push(format!(
            "\"op\":\"case\",\"seed\":{},\"protocol\":\"{}\",\"lane\":\"{lane}\"",
            rng.next_u64() >> 1,
            PROTOCOLS[i % PROTOCOLS.len()],
        ));
    }
    let mut even: Vec<u64> = (0..OCEAN_INVOCATIONS).step_by(2).collect();
    rng.shuffle(&mut even);
    for inv in &even {
        bodies.push(format!(
            "\"op\":\"workload\",\"name\":\"ocean\",\"scenario\":\"hw\",\"invocation\":{inv},\
             \"scale\":\"bench\",\"lane\":\"batch\""
        ));
    }
    bodies
}

/// Generates the pass's schedule and checks that every request in it
/// parses, then starts and stops one service: the start-up a user of
/// `specrt-serve` pays (each pass starts its own, so that its result cache
/// starts empty).
pub fn setup(seed: u64, workers: usize) -> Prepared {
    let bodies = distinct_bodies(seed);
    for b in &bodies {
        specrt_serve::parse_request(&format!("{{{b}}}")).expect("the mix's requests are valid");
    }
    drop(start_service(workers));
    let mut rng = SplitMix64::new(seed ^ MIX_TAG ^ 1);
    // Every case once plus repeats drawn among them, in a seeded order
    // (the first occurrence of each is the one that misses). The
    // paper-loop requests go one to each equal slice of the pass, at a
    // seeded place in its first half, so that no two overlap.
    let mut picks: Vec<usize> = (0..CASES).collect();
    picks.extend((0..CASE_REPEATS).map(|_| rng.below(CASES as u64) as usize));
    rng.shuffle(&mut picks);
    let slice = (CASES + CASE_REPEATS + LARGE) / LARGE;
    for k in 0..LARGE {
        let at = k * slice + rng.below(slice as u64 / 2) as usize;
        picks.insert(at, CASES + k);
    }
    let mut due_s = 0.0;
    let requests = picks
        .into_iter()
        .enumerate()
        .map(|(id, distinct)| {
            due_s += -(1.0 - rng.next_f64()).ln() / RATE_PER_S;
            Request {
                due_s,
                line: format!("{{\"id\":{id},{}}}", bodies[distinct]),
                distinct,
            }
        })
        .collect();
    Prepared {
        requests,
        distinct: bodies.len(),
        workers,
    }
}

/// A response with its echoed id removed (ids differ between repeats).
fn strip_id(response: &str) -> &str {
    match response.strip_prefix("{\"id\":") {
        Some(rest) => rest.split_once(',').map_or(response, |(_, body)| body),
        None => response.strip_prefix('{').unwrap_or(response),
    }
}

/// What the generator and the waiters record per request.
#[derive(Default)]
struct Answer {
    /// Milliseconds from due time to response.
    latency_ms: f64,
    /// The response, if the service produced one.
    response: Option<String>,
    /// Answered at once by `handle_line` (a cache hit or a refusal).
    ready: bool,
    /// Microseconds spent inside `handle_line`.
    handle_us: f64,
}

fn start_service(workers: usize) -> Arc<ServeCore> {
    ServeCore::new(ServeConfig {
        workers,
        queue_depth: QUEUE_DEPTH,
        cache_capacity: 1024,
    })
}

pub fn pass(p: &Prepared, rec: &Recorder, root: u64) -> Pass {
    let core = start_service(p.workers);
    let answers: Vec<Mutex<Answer>> = p.requests.iter().map(|_| Mutex::default()).collect();
    let mut late_ms = Vec::with_capacity(p.requests.len());
    let cpu_before = cpu_seconds();
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for (req, slot) in p.requests.iter().zip(&answers) {
            let due = start + Duration::from_secs_f64(req.due_s);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            late_ms.push((sent - due).as_secs_f64() * 1e3);
            let outcome = rec.span("serve.handle_line", "", root, |_| {
                core.handle_line(&req.line)
            });
            let handled = Instant::now();
            let handle_us = (handled - sent).as_secs_f64() * 1e6;
            match outcome {
                Outcome::Ready(r) | Outcome::Shutdown(r) => {
                    *slot.lock().expect("answer slot") = Answer {
                        latency_ms: (handled - due).as_secs_f64() * 1e3,
                        response: Some(r),
                        ready: true,
                        handle_us,
                    };
                }
                Outcome::Pending(rx) => {
                    s.spawn(move || {
                        let response = rec.span("serve.wait", "", root, |_| rx.recv().ok());
                        *slot.lock().expect("answer slot") = Answer {
                            latency_ms: due.elapsed().as_secs_f64() * 1e3,
                            response,
                            ready: false,
                            handle_us,
                        };
                    });
                }
            }
        }
    });
    let host_s = cpu_seconds() - cpu_before;
    // A finished job may still hold its reference for a moment; the last
    // one must drop here, since dropping the service joins its workers.
    while Arc::strong_count(&core) > 1 {
        std::thread::sleep(Duration::from_micros(100));
    }
    drop(core);

    let answers: Vec<Answer> = answers
        .into_iter()
        .map(|a| a.into_inner().expect("answer slot"))
        .collect();
    let mut pass = Pass {
        host_s,
        latencies_ms: Vec::with_capacity(answers.len()),
        attempted: answers.len() as u64,
        failed: 0,
        errors: Vec::new(),
        sim: Sim {
            fingerprint: 0,
            counts: Vec::new(),
            results: Vec::new(),
        },
        layer: Vec::new(),
    };
    let mut first: Vec<Option<&str>> = vec![None; p.distinct];
    let (mut hits, mut busy) = (0u64, 0u64);
    let (mut hit_us, mut miss_ms, mut misses) = (0.0, 0.0, 0u64);
    for (req, a) in p.requests.iter().zip(&answers) {
        let body = a.response.as_deref().map(strip_id);
        let ok = match body {
            None => {
                pass.fail(format!("request {}: the job died", req.line));
                false
            }
            Some(b) if !b.starts_with("\"ok\":true") => {
                if b.contains("busy") {
                    busy += 1;
                }
                pass.fail(format!("request {}: {b}", req.line));
                false
            }
            Some(b) => match first[req.distinct] {
                None => {
                    first[req.distinct] = Some(b);
                    true
                }
                Some(f) if f == b => true,
                Some(_) => {
                    pass.fail(format!("request {}: repeat answered differently", req.line));
                    false
                }
            },
        };
        pass.latencies_ms
            .push(if ok { a.latency_ms } else { FAILED_LATENCY_MS });
        if ok && a.ready {
            hits += 1;
            hit_us += a.handle_us;
        } else if ok {
            misses += 1;
            miss_ms += a.latency_ms;
        }
    }
    let mut fp = Fnv::new();
    for b in first.iter().flatten() {
        fp.str(b);
    }
    pass.sim.fingerprint = fp.finish();
    pass.layer = vec![
        ("serve.hit_us", ratio(hit_us, hits as f64)),
        ("serve.miss_ms", ratio(miss_ms, misses as f64)),
        (
            "serve.cache_hit_ratio",
            ratio(hits as f64, answers.len() as f64),
        ),
        ("serve.busy_rejections", busy as f64),
        ("serve.gen_late_ms", percentile(&late_ms, 0.99)),
    ];
    pass
}
