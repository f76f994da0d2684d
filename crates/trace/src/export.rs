//! Exporters: JSONL event dumps, Chrome `trace_events` JSON (loadable in
//! Perfetto or `chrome://tracing`), and a JSON rendering of the metrics
//! registry. All JSON is emitted by hand — the crate stays
//! zero-dependency, and the schema is small and flat.

use std::fmt::Write as _;

use crate::event::TraceEvent;
use crate::metrics::MetricsRegistry;

/// Escapes `s` for inclusion in a JSON string literal (the quotes are the
/// caller's): `"`, `\\` and the control characters. The one JSON string
/// escaper of the workspace — the trace exporters, the canonical request
/// form and the serve error payloads all use it.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One flat JSON object per event (no trailing newline on the last line).
///
/// Every object carries `"kind"` and `"t"`; the remaining fields follow
/// the [`TraceEvent`] variant's fields.
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&event_json(e));
    }
    out
}

fn event_json(e: &TraceEvent) -> String {
    let mut s = format!("{{\"kind\":\"{}\",\"t\":{}", e.kind(), e.at().raw());
    match e {
        TraceEvent::Transaction {
            proc,
            arr,
            idx,
            write,
            hit,
            home,
            queue,
            complete,
            case,
            ..
        } => {
            let _ = write!(
                s,
                ",\"proc\":{proc},\"arr\":{arr},\"idx\":{idx},\"write\":{write},\
                 \"hit\":\"{}\",\"home\":{home},\"queue\":{},\"complete\":{}",
                hit.label(),
                queue.raw(),
                complete.raw()
            );
            if let Some(c) = case {
                let _ = write!(s, ",\"case\":\"{c}\"");
            }
        }
        TraceEvent::SpecTransition {
            proc,
            arr,
            idx,
            protocol,
            from,
            to,
            iter,
            ..
        } => {
            let _ = write!(
                s,
                ",\"proc\":{proc},\"arr\":{arr},\"idx\":{idx},\"protocol\":\"{protocol}\",\
                 \"from\":\"{}\",\"to\":\"{}\"",
                escape_json(from),
                escape_json(to)
            );
            if let Some(i) = iter {
                let _ = write!(s, ",\"iter\":{i}");
            }
        }
        TraceEvent::Message { kind, arr, idx, .. } => {
            let _ = write!(s, ",\"msg\":\"{kind}\",\"arr\":{arr},\"idx\":{idx}");
        }
        TraceEvent::Net {
            src,
            dst,
            hops,
            queue,
            transit,
            ..
        } => {
            let _ = write!(
                s,
                ",\"src\":{src},\"dst\":{dst},\"hops\":{hops},\"queue\":{},\"transit\":{}",
                queue.raw(),
                transit.raw()
            );
        }
        TraceEvent::Sched {
            proc,
            iter,
            policy,
            overhead,
            wait,
            ..
        } => {
            let _ = write!(
                s,
                ",\"proc\":{proc},\"iter\":{iter},\"policy\":\"{policy}\",\
                 \"overhead\":{},\"wait\":{}",
                overhead.raw(),
                wait.raw()
            );
        }
        TraceEvent::Fault {
            src,
            dst,
            kind,
            attempt,
            ..
        } => {
            let _ = write!(
                s,
                ",\"src\":{src},\"dst\":{dst},\"fault\":\"{kind}\",\"attempt\":{attempt}"
            );
        }
        TraceEvent::NodeFault {
            src,
            dst,
            node,
            kind,
            attempt,
            ..
        } => {
            let _ = write!(
                s,
                ",\"src\":{src},\"dst\":{dst},\"node\":{node},\"fault\":\"{kind}\",\
                 \"attempt\":{attempt}"
            );
        }
        TraceEvent::Recovery {
            action, attempt, ..
        } => {
            let _ = write!(s, ",\"action\":\"{action}\",\"attempt\":{attempt}");
        }
        TraceEvent::Abort {
            proc,
            arr,
            idx,
            iter,
            label,
            reason,
            ..
        } => {
            let _ = write!(
                s,
                ",\"label\":\"{label}\",\"reason\":\"{}\"",
                escape_json(reason)
            );
            if let Some(p) = proc {
                let _ = write!(s, ",\"proc\":{p}");
            }
            if let Some(a) = arr {
                let _ = write!(s, ",\"arr\":{a}");
            }
            if let Some(i) = idx {
                let _ = write!(s, ",\"idx\":{i}");
            }
            if let Some(i) = iter {
                let _ = write!(s, ",\"iter\":{i}");
            }
        }
    }
    s.push('}');
    s
}

/// A Chrome `trace_events` JSON document.
///
/// Transactions and scheduler dispatches become complete (`"ph":"X"`)
/// events on the issuing processor's track; state transitions and
/// messages become thread-scoped instants; aborts become process-scoped
/// instants so they stand out at any zoom. Simulated cycles are reported
/// as microseconds (Perfetto's native unit) one-to-one.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&chrome_event(e));
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

fn chrome_event(e: &TraceEvent) -> String {
    let args = event_json(e);
    match e {
        TraceEvent::Transaction {
            at,
            proc,
            arr,
            idx,
            write,
            hit,
            complete,
            ..
        } => format!(
            "{{\"name\":\"{} arr{arr}[{idx}] {}\",\"cat\":\"txn\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{proc},\"args\":{args}}}",
            if *write { "store" } else { "load" },
            hit.label(),
            at.raw(),
            complete.raw().saturating_sub(at.raw()).max(1),
        ),
        TraceEvent::SpecTransition {
            at,
            proc,
            arr,
            idx,
            protocol,
            to,
            ..
        } => format!(
            "{{\"name\":\"{protocol} arr{arr}[{idx}] -> {}\",\"cat\":\"spec\",\"ph\":\"i\",\
             \"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{proc},\"args\":{args}}}",
            escape_json(to),
            at.raw(),
        ),
        TraceEvent::Message { at, kind, arr, idx } => format!(
            "{{\"name\":\"{kind} arr{arr}[{idx}]\",\"cat\":\"msg\",\"ph\":\"i\",\"s\":\"p\",\
             \"ts\":{},\"pid\":0,\"tid\":0,\"args\":{args}}}",
            at.raw(),
        ),
        TraceEvent::Net {
            at,
            src,
            dst,
            hops,
            transit,
            ..
        } => format!(
            "{{\"name\":\"net n{src}->n{dst} ({hops} hops)\",\"cat\":\"net\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{src},\"args\":{args}}}",
            at.raw(),
            transit.raw().max(1),
        ),
        TraceEvent::Sched {
            at,
            proc,
            iter,
            policy,
            overhead,
            wait,
            ..
        } => format!(
            "{{\"name\":\"{policy} iter {iter}\",\"cat\":\"sched\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{proc},\"args\":{args}}}",
            at.raw(),
            (overhead.raw() + wait.raw()).max(1),
        ),
        TraceEvent::Fault {
            at, src, dst, kind, ..
        } => format!(
            "{{\"name\":\"fault {kind} n{src}->n{dst}\",\"cat\":\"fault\",\"ph\":\"i\",\
             \"s\":\"p\",\"ts\":{},\"pid\":0,\"tid\":{src},\"args\":{args}}}",
            at.raw(),
        ),
        TraceEvent::NodeFault {
            at,
            src,
            dst,
            node,
            kind,
            ..
        } => format!(
            "{{\"name\":\"nodefault {kind} n{node} n{src}->n{dst}\",\"cat\":\"fault\",\
             \"ph\":\"i\",\"s\":\"p\",\"ts\":{},\"pid\":0,\"tid\":{src},\"args\":{args}}}",
            at.raw(),
        ),
        TraceEvent::Recovery { at, action, .. } => format!(
            "{{\"name\":\"recovery {action}\",\"cat\":\"recovery\",\"ph\":\"i\",\"s\":\"g\",\
             \"ts\":{},\"pid\":0,\"tid\":0,\"args\":{args}}}",
            at.raw(),
        ),
        TraceEvent::Abort { at, label, .. } => format!(
            "{{\"name\":\"FAIL {label}\",\"cat\":\"abort\",\"ph\":\"i\",\"s\":\"g\",\
             \"ts\":{},\"pid\":0,\"tid\":0,\"args\":{args}}}",
            at.raw(),
        ),
    }
}

/// A Chrome `trace_events` document of *host* profiling spans: one track
/// per profiled thread (named via `thread_name` metadata, so worker tracks
/// read `worker-0`, `worker-1`, …), one complete (`"ph":"X"`) event per
/// [`specrt_prof::TimelineSpan`]. Timestamps are microseconds since the
/// process profiling epoch — real wall time, unlike [`chrome_trace`] whose
/// "microseconds" are simulated cycles; the two documents use different
/// pids so they stay distinguishable if ever concatenated.
pub fn chrome_host_trace(report: &specrt_prof::ProfReport) -> String {
    let mut out = String::from(
        "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
         \"tid\":0,\"args\":{\"name\":\"specrt host profile\"}}",
    );
    for (tid, t) in report.threads.iter().enumerate() {
        let _ = write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(&t.label)
        );
        for s in &t.timeline {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":{tid}}}",
                escape_json(s.name),
                s.start_ns as f64 / 1e3,
                (s.dur_ns as f64 / 1e3).max(0.001),
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// A single JSON object with `counters`, `histograms` (count/mean/max and
/// the non-empty log-2 buckets) and `breakdowns` (busy/sync/mem cycles).
pub fn metrics_json(m: &MetricsRegistry) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (k, v)) in m.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", escape_json(k));
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, h)) in m.histograms().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"max\":{},\"buckets\":{{",
            escape_json(k),
            h.count(),
            h.sum(),
            h.mean(),
            h.max()
        );
        let mut first = true;
        for b in 0..64 {
            if h.bucket(b) > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":{}", 1u64 << b, h.bucket(b));
            }
        }
        out.push_str("}}");
    }
    out.push_str("},\"breakdowns\":{");
    for (i, (k, b)) in m.breakdowns().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"busy\":{},\"sync\":{},\"mem\":{}}}",
            escape_json(k),
            b.busy.raw(),
            b.sync.raw(),
            b.mem.raw()
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HitKind;
    use specrt_engine::Cycles;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Transaction {
                at: Cycles(10),
                proc: 1,
                arr: 0,
                idx: 7,
                write: true,
                hit: HitKind::Miss,
                home: 2,
                queue: Cycles(4),
                complete: Cycles(218),
                case: Some("d"),
            },
            TraceEvent::SpecTransition {
                at: Cycles(12),
                proc: 1,
                arr: 0,
                idx: 7,
                protocol: "nonpriv",
                from: "Clear".into(),
                to: "NoShr,First(cpu1)".into(),
                iter: Some(3),
            },
            TraceEvent::Abort {
                at: Cycles(300),
                proc: Some(2),
                arr: Some(0),
                idx: Some(7),
                iter: Some(4),
                label: "write_conflict",
                reason: "cpu2 wrote an element first accessed by cpu1".into(),
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let out = jsonl(&sample_events());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "line: {l}");
        }
        assert!(lines[0].contains("\"case\":\"d\""));
        assert!(lines[1].contains("\"protocol\":\"nonpriv\""));
        assert!(lines[2].contains("\"label\":\"write_conflict\""));
    }

    #[test]
    fn chrome_trace_shape() {
        let out = chrome_trace(&sample_events());
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.ends_with('}'));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"dur\":208"));
        assert!(out.contains("FAIL write_conflict"));
    }

    #[test]
    fn net_events_export() {
        let e = TraceEvent::Net {
            at: Cycles(5),
            src: 0,
            dst: 3,
            hops: 2,
            queue: Cycles(7),
            transit: Cycles(63),
        };
        let line = jsonl(std::slice::from_ref(&e));
        assert!(line.contains("\"kind\":\"net\""));
        assert!(line.contains("\"src\":0") && line.contains("\"dst\":3"));
        assert!(line.contains("\"hops\":2"));
        assert!(line.contains("\"queue\":7") && line.contains("\"transit\":63"));
        let chrome = chrome_trace(&[e]);
        assert!(chrome.contains("\"cat\":\"net\""));
        assert!(chrome.contains("\"dur\":63"));
    }

    #[test]
    fn fault_and_recovery_events_export() {
        let f = TraceEvent::Fault {
            at: Cycles(40),
            src: 1,
            dst: 6,
            kind: "drop",
            attempt: 2,
        };
        let r = TraceEvent::Recovery {
            at: Cycles(90),
            action: "retry-speculative",
            attempt: 1,
        };
        let lines = jsonl(&[f.clone(), r.clone()]);
        assert!(lines.contains("\"kind\":\"fault\""));
        assert!(lines.contains("\"fault\":\"drop\"") && lines.contains("\"attempt\":2"));
        assert!(lines.contains("\"kind\":\"recovery\""));
        assert!(lines.contains("\"action\":\"retry-speculative\""));
        let chrome = chrome_trace(&[f, r]);
        assert!(chrome.contains("\"cat\":\"fault\""));
        assert!(chrome.contains("recovery retry-speculative"));
    }

    #[test]
    fn node_fault_events_export() {
        let e = TraceEvent::NodeFault {
            at: Cycles(70),
            src: 0,
            dst: 2,
            node: 2,
            kind: "crash",
            attempt: 1,
        };
        let lines = jsonl(std::slice::from_ref(&e));
        assert!(lines.contains("\"kind\":\"nodefault\""), "{lines}");
        assert!(lines.contains("\"node\":2"), "{lines}");
        assert!(lines.contains("\"fault\":\"crash\""), "{lines}");
        let chrome = chrome_trace(&[e]);
        assert!(chrome.contains("nodefault crash n2 n0->n2"), "{chrome}");
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_host_trace_names_worker_tracks() {
        let report = specrt_prof::ProfReport {
            threads: vec![
                specrt_prof::ThreadProfile {
                    label: "main".into(),
                    spans: Vec::new(),
                    timeline: vec![specrt_prof::TimelineSpan {
                        name: "fuzz.case",
                        start_ns: 1_500,
                        dur_ns: 2_000,
                        depth: 0,
                    }],
                    dropped: 0,
                },
                specrt_prof::ThreadProfile {
                    label: "worker-0".into(),
                    spans: Vec::new(),
                    timeline: vec![specrt_prof::TimelineSpan {
                        name: "par.worker",
                        start_ns: 0,
                        dur_ns: 10_000,
                        depth: 0,
                    }],
                    dropped: 0,
                },
            ],
        };
        let out = chrome_host_trace(&report);
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.ends_with('}'));
        assert!(out.contains("\"name\":\"thread_name\""));
        assert!(out.contains("{\"name\":\"worker-0\"}"));
        // ns become µs; host events live on pid 1, away from simulated pid 0.
        assert!(out.contains("\"ts\":1.500"));
        assert!(out.contains("\"dur\":2.000"));
        assert!(out.contains("\"pid\":1"));
        assert!(!out.contains("\"pid\":0,"));
    }

    #[test]
    fn metrics_json_shape() {
        let mut m = MetricsRegistry::new();
        m.incr("proto.msgs", 2);
        m.observe("lat", 100);
        m.record_breakdown(
            "proc0",
            specrt_engine::TimeBreakdown {
                busy: Cycles(5),
                sync: Cycles(1),
                mem: Cycles(2),
            },
        );
        let out = metrics_json(&m);
        assert!(out.contains("\"proto.msgs\":2"));
        assert!(out.contains("\"count\":1"));
        assert!(out.contains("\"64\":1")); // 100 lands in the [64,128) bucket
        assert!(out.contains("\"busy\":5"));
    }
}
