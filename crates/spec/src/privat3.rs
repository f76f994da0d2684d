//! The reduced, no-read-in privatization state (paper Figure 5-b and §4.1).
//!
//! When read-in and copy-out are not needed — "the large majority of
//! parallelizable loops" — the per-element directory state shrinks from two
//! iteration time stamps to a few bits:
//!
//! * private directory (§4.1): `Read1st` and `Write`, "used like the
//!   Read1st and Write fields of the cache tags … cleared at the beginning
//!   of each iteration", plus the sticky `WriteAny` bit ("set if the
//!   element has been written in any of the iterations executed so far");
//! * shared directory: two sticky bits — some iteration read-first
//!   (`AnyR1st`), some iteration wrote (`AnyW`).
//!
//! Without time stamps the ordering between a read-first and a write in
//! different iterations is unknown, so the test is **conservative**: any
//! element that is both read-first and written (in distinct iterations)
//! FAILs, even when the stamped protocol would have proven all read-firsts
//! early enough. That loses exactly the Figure-3 patterns — which need
//! read-in anyway — and nothing else; the property tests pin this down.

use crate::fail::FailReason;
use crate::protospec::{DirEmission, DirEvent, PrivateEffect};
#[cfg(doc)]
use crate::ProtocolSpec;

/// Shared-directory per-element state: two sticky bits (Figure 5-b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrivNoReadInShared {
    /// Some iteration read the element before writing it.
    pub any_r1st: bool,
    /// Some iteration wrote the element.
    pub any_w: bool,
}

impl PrivNoReadInShared {
    /// Compact state label for tracing: `Clear`, `AnyR1st`, `AnyW` or
    /// `AnyR1st,AnyW`.
    pub fn state_label(&self) -> String {
        match (self.any_r1st, self.any_w) {
            (false, false) => "Clear".to_string(),
            (true, false) => "AnyR1st".to_string(),
            (false, true) => "AnyW".to_string(),
            (true, true) => "AnyR1st,AnyW".to_string(),
        }
    }

    /// The shared-directory bit tests: the no-read-in arm of
    /// [`ProtocolSpec::dir_step`]. Iteration stamps are ignored.
    ///
    /// # Panics
    ///
    /// Panics on a non-privatization event.
    pub(crate) fn step(&mut self, ev: DirEvent) -> Option<DirEmission> {
        match ev {
            // A read-first signal. FAILs if the element was already written
            // by some iteration: with no stamps the order is unknown, so the
            // worst case (flow dependence) is assumed.
            DirEvent::ReadFirst { .. } => {
                if self.any_w {
                    return Some(DirEmission::Fail(FailReason::ReadFirstAfterWrite {
                        iter: 0,
                        min_w: 0,
                    }));
                }
                self.any_r1st = true;
                None
            }
            // A first-write signal. FAILs if the element was already
            // read-first by some iteration.
            DirEvent::FirstWrite { .. } => {
                if self.any_r1st {
                    return Some(DirEmission::Fail(FailReason::WriteBeforeReadFirst {
                        iter: 0,
                        max_r1st: 0,
                    }));
                }
                self.any_w = true;
                None
            }
            ev => panic!("protocol spec: event {ev:?} does not apply to {self:?}"),
        }
    }
}

/// Private-directory per-element state: `Read1st`/`Write` per iteration
/// plus the sticky `WriteAny` (§4.1's three-bit optimization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrivNoReadInPrivate {
    /// This iteration read the element before writing it.
    pub read1st: bool,
    /// This iteration wrote the element.
    pub write: bool,
    /// Some iteration of this processor wrote the element.
    pub write_any: bool,
}

impl PrivNoReadInPrivate {
    /// Start of a new iteration: clears the per-iteration bits.
    pub fn clear_iteration(&mut self) {
        self.read1st = false;
        self.write = false;
    }

    /// A read (`write == false`) or write by this processor: the body of
    /// [`ProtocolSpec::private3_step`].
    pub(crate) fn step(&mut self, write: bool) -> Result<PrivateEffect, FailReason> {
        if write {
            // Only the processor's *first* write to the element in the whole
            // loop notifies the shared directory (mirroring the `PMaxW == 0`
            // test of algorithm (g)).
            let first_in_loop = !self.write_any;
            self.write = true;
            self.write_any = true;
            return Ok(if first_in_loop {
                PrivateEffect::SignalFirstWrite
            } else {
                PrivateEffect::None
            });
        }
        if self.read1st || self.write {
            return Ok(PrivateEffect::None);
        }
        // A read-first for this iteration. FAILs when an *earlier* iteration
        // of this same processor wrote the element — a same-processor flow
        // dependence across iterations, which even the stamped protocol
        // rejects.
        if self.write_any {
            return Err(FailReason::ReadFirstAfterWrite { iter: 0, min_w: 0 });
        }
        self.read1st = true;
        Ok(PrivateEffect::SignalReadFirst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privat::PrivSharedElem;
    use crate::protospec::{DirElem, ProtocolSpec};

    /// Runs `ev` through [`ProtocolSpec::dir_step`] at `s`, keeping the
    /// successor; `Err` carries a FAIL.
    fn shared(s: &mut PrivNoReadInShared, ev: DirEvent) -> Result<(), FailReason> {
        let (next, em) = ProtocolSpec::dir_step(DirElem::Priv3(*s), ev);
        let DirElem::Priv3(next) = next else {
            panic!("variant changed: {next:?}")
        };
        *s = next;
        match em {
            None => Ok(()),
            Some(DirEmission::Fail(reason)) => Err(reason),
            Some(other) => panic!("unexpected emission {other:?}"),
        }
    }

    fn read_first(s: &mut PrivNoReadInShared) -> Result<(), FailReason> {
        shared(s, DirEvent::ReadFirst { iter: 1 })
    }

    fn first_write(s: &mut PrivNoReadInShared) -> Result<(), FailReason> {
        shared(s, DirEvent::FirstWrite { iter: 1 })
    }

    /// The stamped protocol's shared-directory step, for comparison.
    fn stamped(s: &mut PrivSharedElem, ev: DirEvent) -> Result<(), FailReason> {
        let (next, em) = ProtocolSpec::dir_step(DirElem::Priv(*s), ev);
        let DirElem::Priv(next) = next else {
            panic!("variant changed: {next:?}")
        };
        *s = next;
        match em {
            None => Ok(()),
            Some(DirEmission::Fail(reason)) => Err(reason),
            Some(other) => panic!("unexpected emission {other:?}"),
        }
    }

    /// Runs one access through [`ProtocolSpec::private3_step`] at `p`,
    /// keeping the successor.
    fn access(p: &mut PrivNoReadInPrivate, write: bool) -> Result<PrivateEffect, FailReason> {
        let (next, r) = ProtocolSpec::private3_step(*p, write);
        *p = next;
        r
    }

    #[test]
    fn no_read_in_state_labels() {
        let mut s = PrivNoReadInShared::default();
        assert_eq!(s.state_label(), "Clear");
        read_first(&mut s).unwrap();
        assert_eq!(s.state_label(), "AnyR1st");
        let mut w = PrivNoReadInShared::default();
        first_write(&mut w).unwrap();
        assert_eq!(w.state_label(), "AnyW");
    }

    #[test]
    fn write_before_read_pattern_passes() {
        // The workspace pattern: every iteration writes then reads.
        let mut p = PrivNoReadInPrivate::default();
        let mut s = PrivNoReadInShared::default();
        for _iter in 0..5 {
            p.clear_iteration();
            if access(&mut p, true).unwrap() == PrivateEffect::SignalFirstWrite {
                first_write(&mut s).unwrap();
            }
            assert_eq!(access(&mut p, false).unwrap(), PrivateEffect::None);
        }
        assert!(s.any_w && !s.any_r1st);
    }

    #[test]
    fn read_only_pattern_passes() {
        let mut p = PrivNoReadInPrivate::default();
        let mut s = PrivNoReadInShared::default();
        for _ in 0..3 {
            p.clear_iteration();
            if access(&mut p, false).unwrap() == PrivateEffect::SignalReadFirst {
                read_first(&mut s).unwrap();
            }
        }
        assert!(s.any_r1st && !s.any_w);
    }

    #[test]
    fn same_proc_write_then_later_read_first_fails_locally() {
        let mut p = PrivNoReadInPrivate::default();
        access(&mut p, true).unwrap();
        p.clear_iteration();
        assert!(access(&mut p, false).is_err());
    }

    #[test]
    fn cross_proc_mixed_read_write_fails_at_shared() {
        let mut s = PrivNoReadInShared::default();
        read_first(&mut s).unwrap();
        assert!(first_write(&mut s).is_err());
        let mut s2 = PrivNoReadInShared::default();
        first_write(&mut s2).unwrap();
        assert!(read_first(&mut s2).is_err());
    }

    #[test]
    fn conservative_wrt_stamps_on_figure3_patterns() {
        // Reads (iters 1..2) then writes (iters 3..4): the stamped protocol
        // passes (needs read-in); the reduced state must fail.
        let mut st = PrivSharedElem::default();
        stamped(&mut st, DirEvent::ReadFirst { iter: 1 }).unwrap();
        stamped(&mut st, DirEvent::ReadFirst { iter: 2 }).unwrap();
        stamped(&mut st, DirEvent::FirstWrite { iter: 3 }).unwrap();
        stamped(&mut st, DirEvent::FirstWrite { iter: 4 }).unwrap(); // passes

        let mut reduced = PrivNoReadInShared::default();
        read_first(&mut reduced).unwrap();
        read_first(&mut reduced).unwrap();
        assert!(
            first_write(&mut reduced).is_err(),
            "reduced state is conservative"
        );
    }

    #[test]
    fn write_any_is_sticky_across_iterations() {
        let mut p = PrivNoReadInPrivate::default();
        access(&mut p, true).unwrap();
        assert_ne!(p, PrivNoReadInPrivate::default());
        p.clear_iteration();
        assert_ne!(
            p,
            PrivNoReadInPrivate::default(),
            "WriteAny is sticky across iterations"
        );
        assert!(p.write_any && !p.write && !p.read1st);
    }

    #[test]
    fn exhaustive_agreement_with_stamps_when_not_mixed() {
        // For every per-iteration behaviour sequence of length 4 executed by
        // ONE processor, the reduced protocol fails iff the stamped protocol
        // fails OR the element is both read-first and written (the
        // conservative extension).
        #[derive(Clone, Copy, PartialEq)]
        enum B {
            Skip,
            ReadFirst,
            WriteFirst,
        }
        let opts = [B::Skip, B::ReadFirst, B::WriteFirst];
        for a in opts {
            for b in opts {
                for c in opts {
                    for d in opts {
                        let seq = [a, b, c, d];
                        // Stamped.
                        let mut st = PrivSharedElem::default();
                        let mut st_fail = false;
                        for (i, beh) in seq.iter().enumerate() {
                            let iter = i as u64 + 1;
                            let r = match beh {
                                B::Skip => Ok(()),
                                B::ReadFirst => stamped(&mut st, DirEvent::ReadFirst { iter }),
                                B::WriteFirst => stamped(&mut st, DirEvent::FirstWrite { iter }),
                            };
                            if r.is_err() {
                                st_fail = true;
                                break;
                            }
                        }
                        // Reduced.
                        let mut rd = PrivNoReadInShared::default();
                        let mut rd_fail = false;
                        for beh in seq.iter() {
                            let r = match beh {
                                B::Skip => Ok(()),
                                B::ReadFirst => read_first(&mut rd),
                                B::WriteFirst => first_write(&mut rd),
                            };
                            if r.is_err() {
                                rd_fail = true;
                                break;
                            }
                        }
                        let mixed = seq.contains(&B::ReadFirst) && seq.contains(&B::WriteFirst);
                        assert_eq!(rd_fail, mixed, "reduced = mixed-use detector");
                        if st_fail {
                            assert!(rd_fail, "reduced must be conservative wrt stamps");
                        }
                    }
                }
            }
        }
    }
}
