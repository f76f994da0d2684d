//! Directory-side access-bit stores — the "dedicated memory that is close to
//! the directory and is accessed at the same time as the directory" (§4.1).
//!
//! Logically the bits live in the directory slice of each element's home
//! node; we store them per array (contiguously, like the hardware's access
//! bit table indexed through the translation table) and compute the home
//! node only for timing. One [`ElemStore`] instance holds each kind of
//! state: keyed by array for the shared directory, by (array, processor)
//! for the private copies.

use std::hash::Hash;

use specrt_engine::FixedMap;

/// Per-element state of type `T` for every registered array, keyed by `K`.
#[derive(Debug, Clone)]
pub struct ElemStore<K, T> {
    pub(crate) arrays: FixedMap<K, Vec<T>>,
}

impl<K, T> Default for ElemStore<K, T> {
    fn default() -> Self {
        ElemStore {
            arrays: FixedMap::default(),
        }
    }
}

impl<K: Copy + Eq + Hash, T: Clone + Default> ElemStore<K, T> {
    /// Registers `key` with `len` elements, all in the default (clear)
    /// state, replacing any earlier registration.
    pub fn register(&mut self, key: K, len: u64) {
        self.arrays.insert(key, vec![T::default(); len as usize]);
    }

    /// Whether `key` is registered.
    pub fn contains(&self, key: K) -> bool {
        self.arrays.contains_key(&key)
    }

    /// Element state accessor.
    ///
    /// # Panics
    ///
    /// Panics if `key` is unregistered or the index out of range.
    pub fn elem(&self, key: K, idx: u64) -> &T {
        &self.arrays[&key][idx as usize]
    }

    /// Mutable element state accessor.
    ///
    /// # Panics
    ///
    /// Panics if `key` is unregistered or the index out of range.
    pub fn elem_mut(&mut self, key: K, idx: u64) -> &mut T {
        &mut self.arrays.get_mut(&key).expect("array registered")[idx as usize]
    }

    /// Returns every element of every registered array to `T::default()`
    /// (loop start: "clearing the directory tags … with a system call").
    pub fn reset(&mut self) {
        for v in self.arrays.values_mut() {
            v.fill(T::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrt_ir::ArrayId;
    use specrt_mem::ProcId;
    use specrt_spec::{
        DirElem, DirEvent, NonPrivDirElem, PrivNoReadInPrivate, PrivNoReadInShared,
        PrivPrivateElem, PrivSharedElem, PrivateEvent, ProtocolSpec,
    };

    #[test]
    fn nonpriv_store_round_trip() {
        let mut s: ElemStore<ArrayId, NonPrivDirElem> = ElemStore::default();
        s.register(ArrayId(0), 4);
        assert!(s.contains(ArrayId(0)));
        assert!(!s.contains(ArrayId(1)));
        let e = s.elem_mut(ArrayId(0), 2);
        let (next, em) =
            ProtocolSpec::dir_step(DirElem::NonPriv(*e), DirEvent::WriteReq { from: ProcId(1) });
        assert_eq!(em, None);
        *e = next.unwrap_nonpriv();
        assert_eq!(s.elem(ArrayId(0), 2).first, Some(ProcId(1)));
        s.reset();
        assert_eq!(*s.elem(ArrayId(0), 2), NonPrivDirElem::default());
    }

    #[test]
    fn priv_stores_reset_to_clear_state() {
        let mut shared: ElemStore<ArrayId, PrivSharedElem> = ElemStore::default();
        shared.register(ArrayId(1), 3);
        *shared.elem_mut(ArrayId(1), 0) = PrivSharedElem {
            max_r1st: 1,
            min_w: 1,
        };
        shared.reset();
        assert_eq!(*shared.elem(ArrayId(1), 0), PrivSharedElem::default());
        assert_eq!(shared.elem(ArrayId(1), 0).min_w, u64::MAX, "no write");

        let key = (ArrayId(0), ProcId(0));
        let mut private: ElemStore<(ArrayId, ProcId), PrivPrivateElem> = ElemStore::default();
        private.register(key, 2);
        let e = private.elem_mut(key, 1);
        *e = ProtocolSpec::private_step(*e, PrivateEvent::ReadFirstSignal { iter: 1 }).0;
        assert_ne!(*private.elem(key, 1), PrivPrivateElem::default());
        private.reset();
        assert_eq!(*private.elem(key, 1), PrivPrivateElem::default());
    }

    #[test]
    fn touched_marks_answer_the_line_read_in_test() {
        // The stamped private copies' sticky touched marks are a `bool`
        // instance of the store: a line may be read in only while none of
        // its elements is marked.
        let key = (ArrayId(0), ProcId(0));
        let mut touched: ElemStore<(ArrayId, ProcId), bool> = ElemStore::default();
        touched.register(key, 8);
        let untouched =
            |t: &ElemStore<_, bool>, r: std::ops::Range<u64>| r.clone().all(|i| !*t.elem(key, i));
        assert!(untouched(&touched, 0..8));
        *touched.elem_mut(key, 3) = true;
        assert!(!untouched(&touched, 0..8));
        assert!(untouched(&touched, 4..8));
        touched.reset();
        assert!(untouched(&touched, 0..8));
    }

    #[test]
    fn priv3_stores_round_trip() {
        let mut s: ElemStore<ArrayId, PrivNoReadInShared> = ElemStore::default();
        s.register(ArrayId(0), 2);
        assert!(s.contains(ArrayId(0)));
        s.elem_mut(ArrayId(0), 1).any_w = true;
        s.reset();
        assert_eq!(*s.elem(ArrayId(0), 1), PrivNoReadInShared::default());

        let key = (ArrayId(0), ProcId(0));
        let mut p: ElemStore<(ArrayId, ProcId), PrivNoReadInPrivate> = ElemStore::default();
        p.register(key, 2);
        let e = p.elem_mut(key, 0);
        *e = ProtocolSpec::private3_step(*e, true).0;
        assert!(p.elem(key, 0).write && p.elem(key, 0).write_any);
        p.reset();
        assert_eq!(*p.elem(key, 0), PrivNoReadInPrivate::default());
    }
}
