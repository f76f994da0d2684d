//! Randomized tests: the speculation protocols against ground-truth
//! oracles, driven by the in-repo deterministic [`SplitMix64`] generator.
//!
//! The non-privatization protocol must pass exactly the access patterns
//! inside its envelope (every element read-only or single-processor), and
//! the privatization stamps must fail exactly when some element's
//! read-first iteration follows a writing iteration.

use specrt_engine::SplitMix64;
use specrt_mem::ProcId;
use specrt_spec::{
    DirElem, DirEmission, DirEvent, NonPrivDirElem, PrivPrivateElem, PrivSharedElem, PrivateEvent,
    ProtocolSpec,
};

#[derive(Debug, Clone, Copy)]
struct Access {
    proc: u8,
    elem: u8,
    write: bool,
}

/// Runs `ev` through [`ProtocolSpec::dir_step`] at `elem`, keeping the
/// successor; returns whether the step FAILed.
fn dir_fails(elem: &mut DirElem, ev: DirEvent) -> bool {
    let (next, em) = ProtocolSpec::dir_step(*elem, ev);
    *elem = next;
    matches!(em, Some(DirEmission::Fail(_)))
}

fn random_accesses(rng: &mut SplitMix64, procs: u8, elems: u8, max_len: u64) -> Vec<Access> {
    (0..rng.below(max_len))
        .map(|_| Access {
            proc: rng.below(procs as u64) as u8,
            elem: rng.below(elems as u64) as u8,
            write: rng.chance(0.5),
        })
        .collect()
}

/// Directory-serialized non-privatization protocol == the
/// read-only-or-single-processor envelope, for every element
/// independently.
#[test]
fn nonpriv_matches_envelope() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    for _case in 0..256 {
        let accesses = random_accesses(&mut rng, 4, 6, 60);
        let mut dirs = [DirElem::NonPriv(NonPrivDirElem::default()); 6];
        let mut failed = [false; 6];
        for a in &accesses {
            if failed[a.elem as usize] {
                continue;
            }
            let from = ProcId(a.proc as u32);
            let ev = if a.write {
                DirEvent::WriteReq { from }
            } else {
                DirEvent::ReadReq { from }
            };
            failed[a.elem as usize] = dir_fails(&mut dirs[a.elem as usize], ev);
        }
        for e in 0..6u8 {
            let touching: std::collections::BTreeSet<u8> = accesses
                .iter()
                .filter(|a| a.elem == e)
                .map(|a| a.proc)
                .collect();
            let any_write = accesses.iter().any(|a| a.elem == e && a.write);
            let envelope_ok = touching.len() <= 1 || !any_write;
            assert_eq!(
                !failed[e as usize], envelope_ok,
                "element {e} (touching {touching:?}, write {any_write}, accesses {accesses:?})"
            );
        }
    }
}

/// The privatization stamps fail exactly iff max(read-first iteration)
/// exceeds min(write iteration), independent of signal arrival order
/// within each processor's monotone sequence.
#[test]
fn priv_stamps_match_minmax_rule() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    for _case in 0..512 {
        // (iteration, is_read_first) events; iterations 1..=40.
        let events: Vec<(u64, bool)> = (0..rng.below(40))
            .map(|_| (rng.range(1, 41), rng.chance(0.5)))
            .collect();
        let mut shared = DirElem::Priv(PrivSharedElem::default());
        let mut failed = false;
        for &(iter, is_read) in &events {
            if failed {
                break;
            }
            let ev = if is_read {
                DirEvent::ReadFirst { iter }
            } else {
                DirEvent::FirstWrite { iter }
            };
            failed |= dir_fails(&mut shared, ev);
        }
        // The protocol fails at the first event where the min/max rule is
        // violated, and max/min are monotone over the prefix, so overall
        // failure == rule violated on the full set.
        let max_rf = events
            .iter()
            .filter(|e| e.1)
            .map(|e| e.0)
            .max()
            .unwrap_or(0);
        let min_w = events
            .iter()
            .filter(|e| !e.1)
            .map(|e| e.0)
            .min()
            .unwrap_or(u64::MAX);
        assert_eq!(failed, max_rf > min_w, "events {events:?}");
    }
}

/// Private-directory stamps: the element stays clear until the first
/// event, and `pmax` fields track maxima under monotone per-processor
/// iteration sequences.
#[test]
fn private_stamps_track_maxima() {
    let mut rng = SplitMix64::new(0x5eed_0003);
    for _case in 0..512 {
        let mut iters: Vec<(u64, bool)> = (0..rng.range(1, 30))
            .map(|_| (rng.range(1, 31), rng.chance(0.5)))
            .collect();
        // Per-processor iteration sequences are nondecreasing.
        iters.sort_by_key(|e| e.0);
        let mut p = PrivPrivateElem::default();
        let mut max_w = 0u64;
        let mut max_rf = 0u64;
        for &(iter, is_read) in &iters {
            if is_read {
                // A read is read-first iff neither stamp reached this
                // iteration yet.
                if p.pmax_r1st < iter && p.pmax_w < iter {
                    p = ProtocolSpec::private_step(p, PrivateEvent::ReadFirstSignal { iter }).0;
                    max_rf = max_rf.max(iter);
                }
            } else {
                p = ProtocolSpec::private_step(p, PrivateEvent::FirstWriteSignal { iter }).0;
                max_w = max_w.max(iter);
            }
        }
        assert_eq!(p.pmax_w, max_w);
        assert_eq!(p.pmax_r1st, max_rf);
        assert_ne!(p, PrivPrivateElem::default());
    }
}

/// Tag round trip: directory state projected to a tag and merged back
/// never loses the written/shared bits.
#[test]
fn dir_tag_projection_round_trip() {
    let mut rng = SplitMix64::new(0x5eed_0004);
    'case: for _case in 0..512 {
        let reads: Vec<u32> = (0..rng.below(3)).map(|_| rng.below(4) as u32).collect();
        let writes: Vec<u32> = (0..rng.below(3)).map(|_| rng.below(4) as u32).collect();
        let mut elem = DirElem::NonPriv(NonPrivDirElem::default());
        for &p in &reads {
            if dir_fails(&mut elem, DirEvent::ReadReq { from: ProcId(p) }) {
                continue 'case;
            }
        }
        for &p in &writes {
            if dir_fails(&mut elem, DirEvent::WriteReq { from: ProcId(p) }) {
                continue 'case;
            }
        }
        let d = elem.unwrap_nonpriv();
        let viewer = ProcId(0);
        let tag = d.to_tag(viewer);
        assert_eq!(tag.no_shr(), d.no_shr);
        assert_eq!(tag.r_only(), d.r_only);
        // Merging the projection back from its owner is a no-op on the
        // envelope decision.
        let (merged, em) = ProtocolSpec::dir_step(elem, DirEvent::Writeback { tag, owner: viewer });
        let merged = merged.unwrap_nonpriv();
        if d.first == Some(viewer) || d.first.is_none() {
            assert_eq!(em, None);
            assert_eq!(merged.no_shr, d.no_shr);
            assert_eq!(merged.r_only | d.r_only, merged.r_only);
        }
    }
}
