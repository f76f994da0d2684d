//! Golden table of every element-layer transition of [`ProtocolSpec`].
//!
//! For 3 processors, iteration stamps 1..=3 (plus `MinW` = ∞) and every
//! `ElemTag` bit combination, the test feeds each input of `dir_step`,
//! `cache_step`, `private_cache_read`/`_write`, `private_step` and
//! `private3_step` through the spec and renders one line per input:
//! `<step> <state> <event> => <successor> <emission>`.
//!
//! The table is rendered once fault-free and once under each spec fault
//! injection (`drop-ronly`, `drop-maxr1st`, `swap-ts-compare`). Every line
//! carries the fault-free outcome; where an injection changes it, the line
//! ends with ` | <fault> => <successor> <emission>`, so all four tables are
//! pinned in full by one file. Emissions render neutrally (`-`, `notify`,
//! `local`, `bounce:<proc>`, `fail:<label>(<reason>)`), independent of how
//! the spec's result types are spelled.
//!
//! Shared-directory stamp states are the reachable ones (`MaxR1st <= MinW`):
//! the spec's debug assertions reject the others.
//!
//! Regenerate deliberately with
//! `REGEN_GOLDEN=1 cargo test -p specrt-spec --test transition_golden`.

use std::path::PathBuf;

use specrt_cache::{ElemTag, FirstTag};
use specrt_mem::ProcId;
use specrt_spec::{
    fault, CacheEmission, CacheEvent, DirElem, DirEmission, DirEvent, FailReason, FaultKind,
    NonPrivDirElem, PrivNoReadInPrivate, PrivNoReadInShared, PrivPrivateElem, PrivSharedElem,
    PrivateEffect, PrivateEvent, ProtocolSpec,
};

const PROCS: u32 = 3;
const STAMPS: [u64; 3] = [1, 2, 3];
const INF: u64 = u64::MAX;

fn procs() -> impl Iterator<Item = ProcId> {
    (0..PROCS).map(ProcId)
}

fn bools() -> [bool; 2] {
    [false, true]
}

fn fail(r: FailReason) -> String {
    format!("fail:{}({r})", r.label())
}

/// Every `ElemTag` bit combination (`First` × `NoShr` × `ROnly` ×
/// `Read1st` × `Write`).
fn all_tags() -> Vec<ElemTag> {
    let mut out = Vec::new();
    for first in [FirstTag::None, FirstTag::Own, FirstTag::Other] {
        for no_shr in bools() {
            for r_only in bools() {
                for read1st in bools() {
                    for write in bools() {
                        let mut t = ElemTag::CLEAR;
                        t.set_first(first);
                        t.set_no_shr(no_shr);
                        t.set_r_only(r_only);
                        t.set_read1st(read1st);
                        t.set_write(write);
                        out.push(t);
                    }
                }
            }
        }
    }
    out
}

fn tag(t: ElemTag) -> String {
    let mut s = t.first().to_string();
    for (on, name) in [
        (t.no_shr(), "noshr"),
        (t.r_only(), "ronly"),
        (t.read1st(), "r1st"),
        (t.write(), "w"),
    ] {
        if on {
            s.push('+');
            s.push_str(name);
        }
    }
    s
}

fn dir_elem(e: DirElem) -> String {
    match e {
        DirElem::NonPriv(d) => d.state_label(),
        DirElem::Priv(d) => d.state_label(),
        DirElem::Priv3(d) => d.state_label(),
    }
}

fn dir_event(ev: DirEvent) -> String {
    match ev {
        DirEvent::ReadReq { from } => format!("read_req({from})"),
        DirEvent::WriteReq { from } => format!("write_req({from})"),
        DirEvent::Writeback { tag: t, owner } => format!("writeback({},{owner})", tag(t)),
        DirEvent::FirstUpdate { sender } => format!("first_update({sender})"),
        DirEvent::ROnlyUpdate { sender } => format!("r_only_update({sender})"),
        DirEvent::ReadFirst { iter } => format!("read_first({iter})"),
        DirEvent::FirstWrite { iter } => format!("first_write({iter})"),
    }
}

fn dir_emission(em: Option<DirEmission>) -> String {
    match em {
        None => "-".to_string(),
        Some(DirEmission::SendFirstUpdateFail { target }) => format!("bounce:{target}"),
        Some(DirEmission::Fail(r)) => fail(r),
    }
}

fn cache_emission(em: Option<CacheEmission>) -> String {
    match em {
        None => "-".to_string(),
        Some(CacheEmission::SendFirstUpdate) => "notify:first_update".to_string(),
        Some(CacheEmission::SendROnlyUpdate) => "notify:r_only_update".to_string(),
        Some(CacheEmission::NeedWriteReq) => "write_req".to_string(),
        Some(CacheEmission::Fail(r)) => fail(r),
    }
}

fn private_effect(effect: PrivateEffect) -> String {
    match effect {
        PrivateEffect::None => "local",
        PrivateEffect::SignalReadFirst => "notify:read_first",
        PrivateEffect::TestReadFirst => "test:read_first",
        PrivateEffect::SignalFirstWrite => "notify:first_write",
        PrivateEffect::TestFirstWrite => "test:first_write",
    }
    .to_string()
}

fn private_elem(e: PrivPrivateElem) -> String {
    format!("PMaxR1st={},PMaxW={}", e.pmax_r1st, e.pmax_w)
}

fn priv3_elem(e: PrivNoReadInPrivate) -> String {
    let bits: Vec<&str> = [
        (e.read1st, "Read1st"),
        (e.write, "Write"),
        (e.write_any, "WriteAny"),
    ]
    .into_iter()
    .filter_map(|(on, name)| on.then_some(name))
    .collect();
    if bits.is_empty() {
        "Clear".to_string()
    } else {
        bits.join(",")
    }
}

/// `private3_step`'s outcome, rendered neutrally.
fn priv3_outcome(e: PrivNoReadInPrivate, write: bool) -> String {
    let (next, r) = ProtocolSpec::private3_step(e, write);
    let em = match r {
        Ok(PrivateEffect::None) => "local".to_string(),
        Ok(PrivateEffect::SignalReadFirst | PrivateEffect::SignalFirstWrite) => {
            "notify".to_string()
        }
        Ok(other) => panic!("private3_step produced {other:?}"),
        Err(r) => fail(r),
    };
    format!("{} {em}", priv3_elem(next))
}

/// One row of the table: the rendered input and a closure producing the
/// rendered `<successor> <emission>` under the active injection.
type Row = (String, Box<dyn Fn() -> String>);

fn dir_rows(elem: DirElem, events: &[DirEvent], rows: &mut Vec<Row>) {
    for &ev in events {
        rows.push((
            format!("dir {} {}", dir_elem(elem), dir_event(ev)),
            Box::new(move || {
                let (next, em) = ProtocolSpec::dir_step(elem, ev);
                format!("{} {}", dir_elem(next), dir_emission(em))
            }),
        ));
    }
}

fn table() -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();

    // Shared directory, non-privatization: First × NoShr × ROnly.
    let mut nonpriv_events = Vec::new();
    for p in procs() {
        nonpriv_events.push(DirEvent::ReadReq { from: p });
        nonpriv_events.push(DirEvent::WriteReq { from: p });
        nonpriv_events.push(DirEvent::FirstUpdate { sender: p });
        nonpriv_events.push(DirEvent::ROnlyUpdate { sender: p });
        for t in all_tags() {
            nonpriv_events.push(DirEvent::Writeback { tag: t, owner: p });
        }
    }
    for first in std::iter::once(None).chain(procs().map(Some)) {
        for no_shr in bools() {
            for r_only in bools() {
                let e = NonPrivDirElem {
                    first,
                    no_shr,
                    r_only,
                };
                dir_rows(DirElem::NonPriv(e), &nonpriv_events, &mut rows);
            }
        }
    }

    // Shared directory, privatization: reachable MaxR1st/MinW stamps.
    let mut stamp_events = Vec::new();
    for iter in STAMPS {
        stamp_events.push(DirEvent::ReadFirst { iter });
        stamp_events.push(DirEvent::FirstWrite { iter });
    }
    for max_r1st in [0, 1, 2, 3] {
        for min_w in [1, 2, 3, INF] {
            if max_r1st <= min_w {
                let e = PrivSharedElem { max_r1st, min_w };
                dir_rows(DirElem::Priv(e), &stamp_events, &mut rows);
            }
        }
    }

    // Shared directory, reduced no-read-in bits.
    for any_r1st in bools() {
        for any_w in bools() {
            let e = PrivNoReadInShared { any_r1st, any_w };
            dir_rows(DirElem::Priv3(e), &stamp_events, &mut rows);
        }
    }

    // Non-privatization cache tags.
    for t in all_tags() {
        for dirty in bools() {
            let mut events = Vec::new();
            for p in procs() {
                events.push(CacheEvent::Read { reader: p });
                events.push(CacheEvent::Write { writer: p });
                events.push(CacheEvent::FirstUpdateFail { target: p });
            }
            events.push(CacheEvent::CompleteWrite);
            for ev in events {
                rows.push((
                    format!(
                        "cache {} {} {ev:?}",
                        tag(t),
                        if dirty { "dirty" } else { "clean" }
                    ),
                    Box::new(move || {
                        let (next, em) = ProtocolSpec::cache_step(t, dirty, ev);
                        format!("{} {}", tag(next), cache_emission(em))
                    }),
                ));
            }
        }
    }

    // Privatization cache tags.
    for t in all_tags() {
        for write in bools() {
            rows.push((
                format!(
                    "private_cache {} {}",
                    tag(t),
                    if write { "write" } else { "read" }
                ),
                Box::new(move || {
                    let (next, signal) = if write {
                        ProtocolSpec::private_cache_write(t)
                    } else {
                        ProtocolSpec::private_cache_read(t)
                    };
                    format!("{} {}", tag(next), if signal { "notify" } else { "local" })
                }),
            ));
        }
    }

    // Stamped private directory.
    for pmax_r1st in [0, 1, 2, 3] {
        for pmax_w in [0, 1, 2, 3] {
            let e = PrivPrivateElem { pmax_r1st, pmax_w };
            let mut events = Vec::new();
            for iter in STAMPS {
                events.push(PrivateEvent::ReadFirstSignal { iter });
                events.push(PrivateEvent::FirstWriteSignal { iter });
                for line_untouched in bools() {
                    events.push(PrivateEvent::ReadMiss {
                        iter,
                        line_untouched,
                    });
                    events.push(PrivateEvent::WriteMiss {
                        iter,
                        line_untouched,
                    });
                }
            }
            for ev in events {
                rows.push((
                    format!("private {} {ev:?}", private_elem(e)),
                    Box::new(move || {
                        let (next, effect) = ProtocolSpec::private_step(e, ev);
                        format!("{} {}", private_elem(next), private_effect(effect))
                    }),
                ));
            }
        }
    }

    // Reduced no-read-in private directory.
    for read1st in bools() {
        for write_bit in bools() {
            for write_any in bools() {
                let e = PrivNoReadInPrivate {
                    read1st,
                    write: write_bit,
                    write_any,
                };
                for write in bools() {
                    rows.push((
                        format!(
                            "private3 {} {}",
                            priv3_elem(e),
                            if write { "write" } else { "read" }
                        ),
                        Box::new(move || priv3_outcome(e, write)),
                    ));
                }
            }
        }
    }
    rows
}

fn render() -> String {
    let rows = table();
    let clean: Vec<String> = rows.iter().map(|(_, out)| out()).collect();
    let faults = [
        FaultKind::DropROnlyCheck,
        FaultKind::DropMaxR1stUpdate,
        FaultKind::SwapTsCompare,
    ];
    let faulted: Vec<Vec<String>> = faults
        .iter()
        .map(|&kind| {
            let _guard = fault::Injected::new(kind);
            rows.iter().map(|(_, out)| out()).collect()
        })
        .collect();
    let mut text = String::new();
    for (i, (input, _)) in rows.iter().enumerate() {
        text.push_str(&format!("{input} => {}", clean[i]));
        for (kind, outs) in faults.iter().zip(&faulted) {
            if outs[i] != clean[i] {
                text.push_str(&format!(" | {} => {}", kind.name(), outs[i]));
            }
        }
        text.push('\n');
    }
    text
}

#[test]
fn element_transitions_are_pinned() {
    let got = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/transition_golden.txt");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing: run with REGEN_GOLDEN=1 to create it");
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "transition table changed at line {}:\n  got:  {}\n  want: {}\n\
             (regenerate deliberately with REGEN_GOLDEN=1)",
            first + 1,
            got.lines().nth(first).unwrap_or("<eof>"),
            want.lines().nth(first).unwrap_or("<eof>")
        );
    }
}
