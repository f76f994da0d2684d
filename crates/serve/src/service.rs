//! The service core: request → (cache | worker pool) → rendered response.
//!
//! [`ServeCore`] is transport-agnostic — `server` feeds it lines from TCP
//! or stdio, the bench load driver calls it in-process. One line in, one
//! [`Outcome`] out:
//!
//! * admin requests (`ping`, `stats`, `shutdown`) and **cache hits**
//!   answer immediately ([`Outcome::Ready`]) without touching a Machine;
//! * misses are submitted to the two-lane [`WorkerPool`]; the caller gets
//!   a [`Outcome::Pending`] receiver that resolves when the simulation
//!   finishes;
//! * a full lane answers `busy` immediately with `"retryable":true` —
//!   backpressure is a response, not a blocked socket.
//!
//! **Determinism boundary.** The cached payload — everything inside
//! `{"ok":true,"key":…,"result":…}` — is a pure function of the canonical
//! request key: simulated cycles, verdicts, image hashes only. The `id`
//! echo is spliced *around* the cached bytes per response, so a cold run,
//! a warm hit, and any `--jobs` width return byte-identical payloads.
//! Host-time observations (request latency) exist only in the metrics
//! channel, never in a payload.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use specrt_check::Json;
use specrt_engine::StatSet;
use specrt_machine::{run_scenario_configured, RunResult};
use specrt_mem::MemoryImage;
use specrt_par::WorkerPool;
use specrt_trace::export::{escape_json, metrics_json};
use specrt_trace::MetricsRegistry;

use crate::cache::ResultCache;
use crate::request::{extract_id, parse_request, Protocol, Request, SimJob, Work};

/// Sizing knobs for a [`ServeCore`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads simulating.
    pub workers: usize,
    /// Per-lane queue bound (jobs beyond it are rejected `busy`).
    pub queue_depth: usize,
    /// Result-cache capacity in payloads (`0` disables the cache).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_depth: 64,
            cache_capacity: 1024,
        }
    }
}

/// How one request line resolves.
pub enum Outcome {
    /// The response is already rendered (admin, cache hit, error, busy).
    Ready(String),
    /// The response arrives on this receiver when the simulation
    /// completes. A dropped sender means the job died (panicked).
    Pending(mpsc::Receiver<String>),
    /// The response is rendered and the service should stop afterwards.
    Shutdown(String),
}

/// The shared service state. Construct once, share via `Arc` across
/// connections.
pub struct ServeCore {
    pool: WorkerPool,
    cache: ResultCache,
    metrics: Mutex<MetricsRegistry>,
    metrics_out: Mutex<Option<PathBuf>>,
    in_flight: AtomicU64,
}

impl ServeCore {
    /// Builds the pool and cache.
    pub fn new(cfg: ServeConfig) -> Arc<ServeCore> {
        Arc::new(ServeCore {
            pool: WorkerPool::new(cfg.workers, cfg.queue_depth),
            cache: ResultCache::new(cfg.cache_capacity),
            metrics: Mutex::new(MetricsRegistry::new()),
            metrics_out: Mutex::new(None),
            in_flight: AtomicU64::new(0),
        })
    }

    /// Streams a metrics snapshot to `path` after every completed request
    /// (`None` disables).
    pub fn set_metrics_out(&self, path: Option<PathBuf>) {
        *self.metrics_out.lock().expect("metrics_out lock") = path;
    }

    /// The underlying pool (tests and telemetry).
    #[doc(hidden)]
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Simulations accepted but not yet answered.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Handles one request line. See the module docs for the outcome
    /// contract.
    pub fn handle_line(self: &Arc<Self>, line: &str) -> Outcome {
        let started = Instant::now();
        self.with_metrics(|m| m.incr("serve.requests", 1));
        let parsed = match parse_request(line) {
            Ok(p) => p,
            Err(e) => {
                self.with_metrics(|m| m.incr("serve.errors", 1));
                return Outcome::Ready(error_payload(&extract_id(line), &e, false));
            }
        };
        let id = parsed.id;
        match parsed.request {
            Request::Ping => Outcome::Ready(respond(&id, "{\"ok\":true,\"result\":\"pong\"}")),
            Request::Stats => {
                let snap = self.metrics_snapshot_json();
                Outcome::Ready(respond(&id, &format!("{{\"ok\":true,\"result\":{snap}}}")))
            }
            Request::Shutdown => {
                Outcome::Shutdown(respond(&id, "{\"ok\":true,\"result\":\"shutting down\"}"))
            }
            Request::Sim { lane, job } => self.handle_sim(id, lane, job, started),
        }
    }

    fn handle_sim(
        self: &Arc<Self>,
        id: Option<String>,
        lane: specrt_par::Lane,
        job: Box<SimJob>,
        started: Instant,
    ) -> Outcome {
        if let Some(hit) = self.cache.get(job.key) {
            self.with_metrics(|m| {
                m.incr("serve.cache_hits", 1);
                m.observe("serve.latency_us", elapsed_us(started));
            });
            self.dump_metrics();
            return Outcome::Ready(respond(&id, &hit));
        }
        self.with_metrics(|m| m.incr("serve.cache_misses", 1));
        let (tx, rx) = mpsc::channel();
        let core = Arc::clone(self);
        let busy_id = id.clone();
        let submitted = self.pool.submit(lane, move || {
            let _prof = specrt_prof::scope("serve.execute");
            let (payload, stats) = execute_job(&job);
            let payload: Arc<str> = Arc::from(payload);
            core.cache.insert(job.key, Arc::clone(&payload));
            core.with_metrics(|m| {
                m.absorb_stats("serve.run.", &stats);
                m.observe("serve.latency_us", elapsed_us(started));
                m.incr("serve.completed", 1);
            });
            core.in_flight.fetch_sub(1, Ordering::Relaxed);
            core.dump_metrics();
            let _ = tx.send(respond(&id, &payload));
        });
        match submitted {
            Ok(()) => {
                self.in_flight.fetch_add(1, Ordering::Relaxed);
                Outcome::Pending(rx)
            }
            Err(q) => {
                self.with_metrics(|m| m.incr("serve.busy_rejections", 1));
                Outcome::Ready(error_payload(
                    &busy_id,
                    &format!("busy: {} queue full, retry later", q.0.name()),
                    true,
                ))
            }
        }
    }

    fn with_metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut self.metrics.lock().expect("metrics lock"))
    }

    /// Records a connection writer thread dying mid-stream (visible as
    /// `serve.writer_panics` and counted into `serve.errors`); the
    /// transport maps the dead thread to a structured I/O error instead of
    /// propagating the panic into the connection loop.
    pub fn count_writer_panic(&self) {
        self.with_metrics(|m| {
            m.incr("serve.writer_panics", 1);
            m.incr("serve.errors", 1);
        });
    }

    /// Renders the full metrics snapshot: accumulated counters and
    /// latency histograms plus point-in-time gauges (queue depths, cache
    /// occupancy, pool telemetry) and derived p50/p99 request latency.
    pub fn metrics_snapshot_json(&self) -> String {
        let mut m = MetricsRegistry::new();
        self.with_metrics(|inner| m.merge(inner));
        let (qi, qb) = self.pool.queue_depths();
        m.incr("serve.queue.interactive", qi as u64);
        m.incr("serve.queue.batch", qb as u64);
        m.incr("serve.queue.capacity", self.pool.queue_capacity() as u64);
        m.incr("serve.pool.workers", self.pool.workers() as u64);
        m.incr("serve.pool.executed", self.pool.executed());
        m.incr("serve.pool.panicked", self.pool.panicked());
        m.incr("serve.in_flight", self.in_flight());
        let (_, _, evictions) = self.cache.counters();
        m.incr("serve.cache.entries", self.cache.entries() as u64);
        m.incr("serve.cache.evictions", evictions);
        let quantiles = m
            .histogram("serve.latency_us")
            .map(|h| (h.quantile(0.5), h.quantile(0.99)));
        if let Some((p50, p99)) = quantiles {
            m.incr("serve.latency_us.p50", p50);
            m.incr("serve.latency_us.p99", p99);
        }
        metrics_json(&m)
    }

    fn dump_metrics(&self) {
        let path = self.metrics_out.lock().expect("metrics_out lock").clone();
        if let Some(path) = path {
            let mut snap = self.metrics_snapshot_json();
            snap.push('\n');
            if let Err(e) = std::fs::write(&path, snap) {
                eprintln!("specrt-serve: cannot write {}: {e}", path.display());
            }
        }
    }
}

fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Splices the echoed request id (raw JSON) in front of a cached payload.
/// The payload itself stays id-free so cold and warm responses share
/// bytes.
pub fn respond(id: &Option<String>, payload: &str) -> String {
    match id {
        Some(raw) => {
            debug_assert!(payload.starts_with('{'));
            format!("{{\"id\":{raw},{}", &payload[1..])
        }
        None => payload.to_string(),
    }
}

/// Renders an error response.
pub fn error_payload(id: &Option<String>, msg: &str, retryable: bool) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":\"");
    out.push_str(&escape_json(msg));
    out.push_str("\",\"retryable\":");
    out.push_str(if retryable { "true" } else { "false" });
    out.push('}');
    respond(id, &out)
}

/// Runs one simulation job to its id-free payload. Pure: the bytes depend
/// only on the job (enforced by the determinism tests).
pub fn execute_job(job: &SimJob) -> (String, StatSet) {
    match &job.work {
        Work::Case {
            case,
            protocol: Protocol::Check,
            cfg: _,
        } => {
            let r = specrt_check::run_case(case);
            let result = Json::Obj(vec![
                ("protocol".into(), Json::str("check")),
                ("ok".into(), Json::Bool(r.ok())),
                (
                    "mismatches".into(),
                    Json::Arr(
                        r.mismatches
                            .iter()
                            .map(|mm| Json::str(mm.to_string()))
                            .collect(),
                    ),
                ),
                ("stats".into(), stats_json(&r.stats)),
            ]);
            (payload_ok(job.key, &result), r.stats)
        }
        Work::Case {
            case,
            protocol,
            cfg,
        } => {
            let (kind, live, scenario) = protocol
                .run_plan()
                .expect("non-check protocols have a run plan");
            let spec = case.loop_spec(kind, live);
            let r = run_scenario_configured(&spec, scenario, *cfg);
            let head = vec![("protocol".to_string(), Json::str(protocol.label()))];
            let result = run_json(head, &r);
            (payload_ok(job.key, &result), r.stats)
        }
        Work::Workload {
            name,
            spec,
            scenario,
            scenario_label,
            cfg,
        } => {
            let r = run_scenario_configured(spec, *scenario, *cfg);
            let head = vec![
                ("workload".to_string(), Json::str(name.as_str())),
                ("loop".to_string(), Json::str(spec.name.as_str())),
                ("protocol".to_string(), Json::str(scenario_label.as_str())),
            ];
            let result = run_json(head, &r);
            (payload_ok(job.key, &result), r.stats)
        }
    }
}

fn payload_ok(key: u64, result: &Json) -> String {
    format!(
        "{{\"ok\":true,\"key\":\"0x{key:016x}\",\"result\":{}}}",
        result.render()
    )
}

fn stats_json(stats: &StatSet) -> Json {
    Json::Obj(
        stats
            .iter()
            .map(|(k, v)| (k.to_string(), Json::num_u64(v)))
            .collect(),
    )
}

/// Canonical content hash of a final memory image: array ids in sorted
/// order, each element tagged with its scalar kind (an integer whose bits
/// equal a float's must not collide).
pub fn image_hash(img: &MemoryImage) -> u64 {
    let mut h = specrt_check::CanonHasher::new();
    h.write_str("image");
    for id in img.array_ids() {
        h.write_u64(id.0 as u64);
        let contents = img.contents(id);
        h.write_u64(contents.len() as u64);
        for s in contents {
            h.write_u64(match s {
                specrt_ir::Scalar::Int(_) => 0,
                specrt_ir::Scalar::Float(_) => 1,
            });
            h.write_u64(s.to_bits());
        }
    }
    h.finish()
}

fn run_json(mut fields: Vec<(String, Json)>, r: &RunResult) -> Json {
    fields.push(("scenario".into(), Json::str(r.scenario.to_string())));
    fields.push((
        "passed".into(),
        match r.passed {
            Some(b) => Json::Bool(b),
            None => Json::Null,
        },
    ));
    fields.push((
        "failure".into(),
        match &r.failure {
            Some(f) => Json::str(f.as_str()),
            None => Json::Null,
        },
    ));
    fields.push(("cycles".into(), Json::num_u64(r.total_cycles.raw())));
    fields.push(("iterations".into(), Json::num_u64(r.iterations)));
    fields.push(("busy".into(), Json::num_u64(r.breakdown.busy.raw())));
    fields.push(("sync".into(), Json::num_u64(r.breakdown.sync.raw())));
    fields.push(("mem".into(), Json::num_u64(r.breakdown.mem.raw())));
    fields.push((
        "image".into(),
        Json::str(format!("0x{:016x}", image_hash(&r.final_image))),
    ));
    fields.push((
        "net".into(),
        Json::Obj(vec![
            ("messages".into(), Json::num_u64(r.net.messages)),
            ("local_messages".into(), Json::num_u64(r.net.local_messages)),
            ("total_hops".into(), Json::num_u64(r.net.total_hops)),
            ("total_queue".into(), Json::num_u64(r.net.total_queue)),
        ]),
    ));
    fields.push(("stats".into(), stats_json(&r.stats)));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respond_splices_the_id_without_touching_the_payload() {
        let payload = "{\"ok\":true,\"result\":1}";
        assert_eq!(respond(&None, payload), payload);
        assert_eq!(
            respond(&Some("42".into()), payload),
            "{\"id\":42,\"ok\":true,\"result\":1}"
        );
        assert_eq!(
            respond(&Some("\"abc\"".into()), payload),
            "{\"id\":\"abc\",\"ok\":true,\"result\":1}"
        );
    }

    #[test]
    fn error_payload_escapes_the_message() {
        let e = error_payload(&None, "bad \"op\"", true);
        assert_eq!(
            e,
            "{\"ok\":false,\"error\":\"bad \\\"op\\\"\",\"retryable\":true}"
        );
        assert!(Json::parse(&e).is_ok());
    }
}
