//! The non-privatization algorithm (paper Figures 4, 6 and 7).
//!
//! Invariant enforced per element of an array under test: the element is
//! either **read-only** (arbitrarily shared) or **not shared** (accessed by
//! exactly one processor, which may read and write it freely). Any access
//! pattern outside this envelope FAILs the speculation.
//!
//! State:
//!
//! * directory (home node), per element: `First` — id of the first processor
//!   to access the element; `NoShr` — the element has been written; `ROnly`
//!   — the element has been read by more than one processor;
//! * cache tags, per element: the same bits, except `First` is summarized to
//!   NONE/OWN/OTHER (a cache only needs to know whether *it* was first).
//!
//! Tag bits are kept coherent with the directory lazily: changes made while
//! the line is **dirty** need no message (any other processor must fetch the
//! line — and the tags — from the owner); changes on clean lines send
//! `First_update` / `ROnly_update` messages, whose races the directory
//! resolves (algorithms (f)–(h)).
//!
//! The transitions are the non-privatization arms of
//! [`ProtocolSpec::dir_step`] and [`ProtocolSpec::cache_step`]. One
//! deliberate deviation from the paper's literal pseudo-code is documented
//! at the `First_update` transition.

use specrt_cache::{ElemTag, FirstTag};
use specrt_mem::ProcId;

use crate::fail::FailReason;
use crate::protospec::{CacheEmission, CacheEvent, DirEmission, DirEvent};
#[cfg(doc)]
use crate::ProtocolSpec;

/// Directory-side per-element state for the non-privatization protocol
/// (Figure 5-a: `log(Proc)`-bit `First` + `NoShr` + `ROnly`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NonPrivDirElem {
    /// First processor to access the element, if any.
    pub first: Option<ProcId>,
    /// Set when the element has been written.
    pub no_shr: bool,
    /// Set when the element has been read by more than one processor.
    pub r_only: bool,
}

impl NonPrivDirElem {
    /// Compact state label for tracing: `Clear`, or the set bits joined
    /// with `,` — e.g. `First(cpu1)`, `NoShr,First(cpu0)`,
    /// `ROnly,First(cpu2)`.
    pub fn state_label(&self) -> String {
        let mut parts = Vec::new();
        if self.no_shr {
            parts.push("NoShr".to_string());
        }
        if self.r_only {
            parts.push("ROnly".to_string());
        }
        if let Some(p) = self.first {
            parts.push(format!("First({p})"));
        }
        if parts.is_empty() {
            "Clear".to_string()
        } else {
            parts.join(",")
        }
    }

    /// Projects the directory state into the cache-tag view sent to
    /// `viewer` with a data reply ("Copy dir state to tag state for all the
    /// words in the line").
    pub fn to_tag(&self, viewer: ProcId) -> ElemTag {
        let mut t = ElemTag::CLEAR;
        t.set_first(match self.first {
            None => FirstTag::None,
            Some(p) if p == viewer => FirstTag::Own,
            Some(_) => FirstTag::Other,
        });
        t.set_no_shr(self.no_shr);
        t.set_r_only(self.r_only);
        t
    }

    /// The directory transitions (algorithms (b), (d)–(f) and (h)): the
    /// non-privatization arm of [`ProtocolSpec::dir_step`].
    ///
    /// # Panics
    ///
    /// Panics on a privatization event.
    pub(crate) fn step(&mut self, ev: DirEvent) -> Option<DirEmission> {
        let fail = |reason| Some(DirEmission::Fail(reason));
        match ev {
            // Read request (algorithm (b)), run *after* the executor merged
            // any dirty owner's tag state (`Writeback`). FAILs when the
            // requester reads data already written by another processor.
            DirEvent::ReadReq { from: req } => {
                if self.first != Some(req) && self.no_shr && self.first.is_some() {
                    return fail(FailReason::ReadOfRemotelyWritten {
                        reader: req,
                        first: self.first,
                    });
                }
                match self.first {
                    None => self.first = Some(req),
                    Some(f) if f != req && !self.r_only => self.r_only = true,
                    _ => {}
                }
                None
            }
            // Write request (algorithm (d)), run *after* the executor
            // invalidated the sharers and merged the dirty owner's tag
            // state. FAILs when another processor accessed the element
            // first, or the element is marked read-shared.
            DirEvent::WriteReq { from: req } => {
                let foreign_first = matches!(self.first, Some(f) if f != req);
                // The `r_only` disjunct is the check the conformance harness can
                // deliberately disable to prove the fuzzer catches protocol bugs.
                let r_only_conflict =
                    self.r_only && !crate::fault::active(crate::fault::FaultKind::DropROnlyCheck);
                if foreign_first || r_only_conflict {
                    return fail(FailReason::WriteConflict {
                        writer: req,
                        first: self.first,
                        r_only: self.r_only,
                    });
                }
                self.first = Some(req);
                self.no_shr = true;
                None
            }
            // Merges a dirty line's tag state into the directory (algorithm
            // (e), and the "update dir.First, dir.Priv and dir.ROnly" steps
            // of (b) and (d)). `owner` is the processor whose cache held the
            // dirty line.
            //
            // Extension over the paper's literal pseudo-code: the merge itself
            // checks for conflicts. A processor that holds a line dirty updates tag
            // bits of *other elements on the line* without messaging the home, so
            // by the time the line is written back the directory may hold a
            // different `First` (from an update message that raced in). The merge
            // is the first moment both views meet; if together they show an element
            // both written and touched by two processors, the speculation FAILs
            // here — before any other processor can consume the line, since every
            // fetch of a dirty line performs this merge first.
            DirEvent::Writeback { tag, owner } => {
                let mut multi_proc = false;
                if tag.first() == FirstTag::Own {
                    match self.first {
                        None => self.first = Some(owner),
                        Some(q) if q == owner => {}
                        Some(_) => multi_proc = true,
                    }
                }
                self.no_shr |= tag.no_shr();
                self.r_only |= tag.r_only();
                if multi_proc {
                    if self.no_shr {
                        return fail(FailReason::WriteConflict {
                            writer: owner,
                            first: self.first,
                            r_only: self.r_only,
                        });
                    }
                    // Two distinct processors have (only) read the element.
                    self.r_only = true;
                }
                if self.no_shr && self.r_only {
                    return fail(FailReason::WriteConflict {
                        writer: owner,
                        first: self.first,
                        r_only: true,
                    });
                }
                None
            }
            // A `First_update` from `sender` (algorithm (f)).
            //
            // Deviation from the paper's literal pseudo-code: when `dir.First`
            // already equals the sender the update is treated as redundant instead
            // of bouncing (the paper's code would set `ROnly` and bounce, which is
            // safe but needlessly conservative; the bounce branch is annotated
            // "race between two First_updates", i.e. intended for *different*
            // senders).
            //
            // FAILs when the update races with a write that reached the
            // directory first (`dir.NoShr` already set). A losing sender is
            // bounced a `First_update_fail` (handled at its cache by
            // `CacheEvent::FirstUpdateFail`).
            DirEvent::FirstUpdate { sender } => {
                if self.no_shr {
                    return fail(FailReason::FirstUpdateRace { sender });
                }
                match self.first {
                    None => {
                        self.first = Some(sender);
                        None
                    }
                    Some(f) if f == sender => None,
                    Some(_) => {
                        self.r_only = true;
                        Some(DirEmission::SendFirstUpdateFail { target: sender })
                    }
                }
            }
            // An `ROnly_update` (algorithm (h)). A race between two
            // `ROnly_update`s needs no bounce: the second is plainly ignored.
            // FAILs when the update races with a write (`dir.NoShr` set).
            DirEvent::ROnlyUpdate { sender } => {
                if self.no_shr {
                    return fail(FailReason::ROnlyUpdateRace { sender });
                }
                self.r_only = true;
                None
            }
            ev => panic!("protocol spec: event {ev:?} does not apply to {self:?}"),
        }
    }
}

/// The cache-tag transitions (algorithms (a), (c), (g) and the grant
/// completion of (d)): the body of [`ProtocolSpec::cache_step`].
pub(crate) fn tag_step(tag: &mut ElemTag, dirty: bool, ev: CacheEvent) -> Option<CacheEmission> {
    let fail = |reason| Some(CacheEmission::Fail(reason));
    match ev {
        // Read of a resident line (algorithm (a)). No message is needed
        // when the line is dirty, because any other processor must fetch
        // the line — tags included — from this cache. FAILs when the tag
        // shows the element written by another processor
        // (`First == OTHER && NoShr`).
        CacheEvent::Read { reader } => {
            if tag.first() == FirstTag::Other && tag.no_shr() {
                return fail(FailReason::ReadOfRemotelyWritten {
                    reader,
                    first: None,
                });
            }
            if tag.first() == FirstTag::None {
                tag.set_first(FirstTag::Own);
                (!dirty).then_some(CacheEmission::SendFirstUpdate)
            } else if tag.first() == FirstTag::Other && !tag.r_only() {
                tag.set_r_only(true);
                (!dirty).then_some(CacheEmission::SendROnlyUpdate)
            } else {
                None
            }
        }
        // Write of a resident line (algorithm (c)). On a dirty line the
        // write proceeds locally and the tags are updated with no directory
        // message. On a clean line the executor must issue a `write_req`
        // and apply `CompleteWrite` once the exclusive grant arrives. FAILs
        // when the element was first accessed by another processor or is
        // marked read-shared.
        CacheEvent::Write { writer } => {
            if tag.first() == FirstTag::Other || tag.r_only() {
                return fail(FailReason::WriteConflict {
                    writer,
                    first: None,
                    r_only: tag.r_only(),
                });
            }
            if !dirty {
                return Some(CacheEmission::NeedWriteReq);
            }
            tag.set_first(FirstTag::Own);
            tag.set_no_shr(true);
            None
        }
        // The tag effects of a completed write: `tag.First = OWN`,
        // `tag.NoShr = 1` ("no need to tell the directory" — the write
        // request itself already updated it, or the line is dirty).
        CacheEvent::CompleteWrite => {
            tag.set_first(FirstTag::Own);
            tag.set_no_shr(true);
            None
        }
        // A `First_update_fail` bounce (algorithm (g)): this processor was
        // not first after all. FAILs when the processor had *already
        // written* the element on the strength of believing it was first
        // (`tag.First == OWN && tag.NoShr`).
        CacheEvent::FirstUpdateFail { target } => {
            if tag.first() == FirstTag::Own && tag.no_shr() {
                return fail(FailReason::FirstUpdateFailAfterWrite { proc: target });
            }
            tag.set_first(FirstTag::Other);
            tag.set_r_only(true);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protospec::{DirElem, ProtocolSpec};

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);

    /// Runs `ev` through [`ProtocolSpec::dir_step`] at `d`, keeping the
    /// successor.
    fn dir(d: &mut NonPrivDirElem, ev: DirEvent) -> Option<DirEmission> {
        let (next, em) = ProtocolSpec::dir_step(DirElem::NonPriv(*d), ev);
        *d = next.unwrap_nonpriv();
        em
    }

    fn read(d: &mut NonPrivDirElem, from: ProcId) -> Option<DirEmission> {
        dir(d, DirEvent::ReadReq { from })
    }

    fn write(d: &mut NonPrivDirElem, from: ProcId) -> Option<DirEmission> {
        dir(d, DirEvent::WriteReq { from })
    }

    fn first_update(d: &mut NonPrivDirElem, sender: ProcId) -> Option<DirEmission> {
        dir(d, DirEvent::FirstUpdate { sender })
    }

    fn r_only_update(d: &mut NonPrivDirElem, sender: ProcId) -> Option<DirEmission> {
        dir(d, DirEvent::ROnlyUpdate { sender })
    }

    fn merge(d: &mut NonPrivDirElem, tag: ElemTag, owner: ProcId) -> Option<DirEmission> {
        dir(d, DirEvent::Writeback { tag, owner })
    }

    /// Runs `ev` through [`ProtocolSpec::cache_step`] at `t`, keeping the
    /// successor.
    fn cache(t: &mut ElemTag, dirty: bool, ev: CacheEvent) -> Option<CacheEmission> {
        let (next, em) = ProtocolSpec::cache_step(*t, dirty, ev);
        *t = next;
        em
    }

    fn cache_read(t: &mut ElemTag, dirty: bool) -> Option<CacheEmission> {
        cache(t, dirty, CacheEvent::Read { reader: P0 })
    }

    fn cache_write(t: &mut ElemTag, dirty: bool) -> Option<CacheEmission> {
        cache(t, dirty, CacheEvent::Write { writer: P0 })
    }

    fn dir_fail(em: Option<DirEmission>) -> FailReason {
        match em {
            Some(DirEmission::Fail(reason)) => reason,
            other => panic!("expected a FAIL, got {other:?}"),
        }
    }

    fn cache_fail(em: Option<CacheEmission>) -> FailReason {
        match em {
            Some(CacheEmission::Fail(reason)) => reason,
            other => panic!("expected a FAIL, got {other:?}"),
        }
    }

    // ---- directory-level sequences (as if uncached) ----

    #[test]
    fn state_labels_follow_transitions() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(d.state_label(), "Clear");
        assert_eq!(read(&mut d, P0), None);
        assert_eq!(d.state_label(), "First(cpu0)");
        assert_eq!(read(&mut d, P1), None);
        assert_eq!(d.state_label(), "ROnly,First(cpu0)");
        let mut w = NonPrivDirElem::default();
        assert_eq!(write(&mut w, P1), None);
        assert_eq!(w.state_label(), "NoShr,First(cpu1)");
    }

    #[test]
    fn single_processor_read_write_passes() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(read(&mut d, P0), None);
        assert_eq!(write(&mut d, P0), None);
        assert_eq!(read(&mut d, P0), None);
        assert_eq!(write(&mut d, P0), None);
        assert_eq!(d.first, Some(P0));
        assert!(d.no_shr);
        assert!(!d.r_only);
    }

    #[test]
    fn read_only_sharing_passes() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(read(&mut d, P0), None);
        assert_eq!(read(&mut d, P1), None);
        assert_eq!(read(&mut d, P0), None);
        assert!(d.r_only);
        assert!(!d.no_shr);
    }

    #[test]
    fn remote_read_after_write_fails() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(write(&mut d, P0), None);
        let err = dir_fail(read(&mut d, P1));
        assert!(matches!(err, FailReason::ReadOfRemotelyWritten { reader, .. } if reader == P1));
    }

    #[test]
    fn write_after_foreign_first_fails() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(read(&mut d, P0), None);
        let err = dir_fail(write(&mut d, P1));
        assert!(matches!(err, FailReason::WriteConflict { writer, .. } if writer == P1));
    }

    #[test]
    fn write_to_read_shared_element_fails_even_for_first() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(read(&mut d, P0), None);
        assert_eq!(read(&mut d, P1), None); // sets ROnly
        let err = dir_fail(write(&mut d, P0));
        assert!(matches!(
            err,
            FailReason::WriteConflict { r_only: true, .. }
        ));
    }

    #[test]
    fn two_concurrent_writes_second_fails() {
        // The paper's §3.2 race walk-through: both writes serialize at the
        // directory; the second finds NoShr set by the first.
        let mut d = NonPrivDirElem::default();
        assert_eq!(write(&mut d, P0), None);
        dir_fail(write(&mut d, P1));
    }

    // ---- update-message races (algorithms (f)-(h)) ----

    #[test]
    fn first_update_accepted_then_bounced() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(first_update(&mut d, P0), None);
        assert_eq!(d.first, Some(P0));
        assert_eq!(
            first_update(&mut d, P1),
            Some(DirEmission::SendFirstUpdateFail { target: P1 })
        );
        assert!(
            d.r_only,
            "losing a First_update race marks the element read-shared"
        );
    }

    #[test]
    fn first_update_redundant_for_same_sender() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(first_update(&mut d, P0), None);
        assert_eq!(first_update(&mut d, P0), None);
        assert!(!d.r_only);
    }

    #[test]
    fn first_update_vs_write_race_fails() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(write(&mut d, P0), None);
        let err = dir_fail(first_update(&mut d, P1));
        assert!(matches!(err, FailReason::FirstUpdateRace { sender } if sender == P1));
    }

    #[test]
    fn r_only_update_vs_write_race_fails() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(write(&mut d, P0), None);
        dir_fail(r_only_update(&mut d, P1));
    }

    #[test]
    fn r_only_update_race_between_readers_is_benign() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(read(&mut d, P0), None);
        assert_eq!(read(&mut d, P1), None);
        assert_eq!(r_only_update(&mut d, P0), None);
        assert_eq!(r_only_update(&mut d, P1), None); // second plainly ignored
        assert!(d.r_only);
    }

    // ---- cache-tag side ----

    #[test]
    fn cache_read_first_touch_sends_first_update_when_clean() {
        let mut t = ElemTag::CLEAR;
        assert_eq!(
            cache_read(&mut t, false),
            Some(CacheEmission::SendFirstUpdate)
        );
        assert_eq!(t.first(), FirstTag::Own);
    }

    #[test]
    fn cache_read_first_touch_on_dirty_line_is_silent() {
        let mut t = ElemTag::CLEAR;
        assert_eq!(cache_read(&mut t, true), None);
        assert_eq!(t.first(), FirstTag::Own);
    }

    #[test]
    fn cache_read_sets_r_only_when_other_was_first() {
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Other);
        assert_eq!(
            cache_read(&mut t, false),
            Some(CacheEmission::SendROnlyUpdate)
        );
        assert!(t.r_only());
        // A second read needs no further message.
        assert_eq!(cache_read(&mut t, false), None);
    }

    #[test]
    fn cache_read_of_remotely_written_fails() {
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Other);
        t.set_no_shr(true);
        cache_fail(cache_read(&mut t, false));
    }

    #[test]
    fn cache_write_dirty_line_proceeds_and_tags() {
        let mut t = ElemTag::CLEAR;
        assert_eq!(cache_write(&mut t, true), None);
        assert_eq!(t.first(), FirstTag::Own);
        assert!(t.no_shr());
    }

    #[test]
    fn cache_write_clean_line_needs_upgrade() {
        let mut t = ElemTag::CLEAR;
        assert_eq!(
            cache_write(&mut t, false),
            Some(CacheEmission::NeedWriteReq)
        );
        // Tags are not yet updated; they are set on grant completion.
        assert_eq!(t.first(), FirstTag::None);
        assert_eq!(cache(&mut t, true, CacheEvent::CompleteWrite), None);
        assert_eq!(t.first(), FirstTag::Own);
        assert!(t.no_shr());
    }

    #[test]
    fn cache_write_fails_on_other_first_or_r_only() {
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Other);
        cache_fail(cache_write(&mut t, false));
        let mut t = ElemTag::CLEAR;
        t.set_r_only(true);
        cache_fail(cache_write(&mut t, true));
    }

    #[test]
    fn first_update_fail_bounce_without_write_demotes() {
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Own);
        assert_eq!(
            cache(&mut t, false, CacheEvent::FirstUpdateFail { target: P0 }),
            None
        );
        assert_eq!(t.first(), FirstTag::Other);
        assert!(t.r_only());
    }

    #[test]
    fn first_update_fail_bounce_after_write_fails() {
        // "The slower processor not only read but also wrote the data before
        // knowing whether it was the First processor" (paper §3.2).
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Own);
        t.set_no_shr(true);
        let err = cache_fail(cache(
            &mut t,
            false,
            CacheEvent::FirstUpdateFail { target: P1 },
        ));
        assert!(matches!(err, FailReason::FirstUpdateFailAfterWrite { proc } if proc == P1));
    }

    // ---- dir <-> tag projection ----

    #[test]
    fn to_tag_maps_first_to_viewpoint() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(write(&mut d, P0), None);
        let own = d.to_tag(P0);
        assert_eq!(own.first(), FirstTag::Own);
        assert!(own.no_shr());
        let other = d.to_tag(P1);
        assert_eq!(other.first(), FirstTag::Other);
    }

    #[test]
    fn merge_writeback_propagates_owner_state() {
        let mut d = NonPrivDirElem::default();
        let mut t = ElemTag::CLEAR;
        // Owner read and wrote the element while the line was dirty: the
        // directory never heard about it until the write-back.
        t.set_first(FirstTag::Own);
        t.set_no_shr(true);
        assert_eq!(merge(&mut d, t, P1), None);
        assert_eq!(d.first, Some(P1));
        assert!(d.no_shr);
        // A read by another processor now fails, as required.
        dir_fail(read(&mut d, P0));
    }

    #[test]
    fn merge_writeback_of_untouched_tag_is_noop() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(merge(&mut d, ElemTag::CLEAR, P1), None);
        assert_eq!(d, NonPrivDirElem::default());
    }

    #[test]
    fn merge_writeback_detects_in_flight_read_vs_dirty_write() {
        // P0's First_update (from a read) reached the directory while P1
        // held the line dirty and wrote the element without messaging.
        let mut d = NonPrivDirElem::default();
        assert_eq!(first_update(&mut d, P0), None);
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Own);
        t.set_no_shr(true);
        let err = dir_fail(merge(&mut d, t, P1));
        assert!(matches!(err, FailReason::WriteConflict { writer, .. } if writer == P1));
    }

    #[test]
    fn merge_writeback_two_silent_readers_become_r_only() {
        // P0 read (directory knows); P1 read the same element on a line it
        // held dirty (for some other element) — silent. The merge must
        // conclude "read by two processors" without failing.
        let mut d = NonPrivDirElem::default();
        assert_eq!(first_update(&mut d, P0), None);
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Own); // P1 believed it was first
        assert_eq!(merge(&mut d, t, P1), None);
        assert!(d.r_only);
        assert_eq!(d.first, Some(P0));
        // A later write by anyone now fails.
        dir_fail(write(&mut d, P0));
    }

    // ---- order-independence property of the envelope ----

    #[test]
    fn envelope_property_exhaustive_small() {
        // For every access sequence of length <= 4 over 2 processors and one
        // element (directory-serialized, uncached), the protocol passes iff
        // the element is read-only or single-processor.
        #[derive(Clone, Copy)]
        enum Acc {
            R(ProcId),
            W(ProcId),
        }
        let choices = [Acc::R(P0), Acc::W(P0), Acc::R(P1), Acc::W(P1)];
        for len in 0..=4usize {
            let mut idx = vec![0usize; len];
            loop {
                let seq: Vec<Acc> = idx.iter().map(|&i| choices[i]).collect();
                // Run protocol.
                let mut d = NonPrivDirElem::default();
                let mut failed = false;
                for a in &seq {
                    let em = match a {
                        Acc::R(p) => read(&mut d, *p),
                        Acc::W(p) => write(&mut d, *p),
                    };
                    if em.is_some() {
                        failed = true;
                        break;
                    }
                }
                // Oracle.
                let procs: std::collections::BTreeSet<u32> = seq
                    .iter()
                    .map(|a| match a {
                        Acc::R(p) | Acc::W(p) => p.0,
                    })
                    .collect();
                let any_write = seq.iter().any(|a| matches!(a, Acc::W(_)));
                let ok = procs.len() <= 1 || !any_write;
                assert_eq!(!failed, ok, "mismatch for sequence of length {len}");
                // Next index vector.
                let mut k = 0;
                loop {
                    if k == len {
                        break;
                    }
                    idx[k] += 1;
                    if idx[k] < choices.len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == len {
                    break;
                }
            }
        }
    }
}
