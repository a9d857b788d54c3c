//! Allocation-free storage for hot-path fan-out lists.
//!
//! The runtime's steady state is dominated by tiny lists: a state's notify
//! list (usually one or two machines), the per-host fan-out a daemon
//! builds while routing, an actor's watcher list. Carrying those as `Vec`
//! means one heap allocation per message — per event, at campaign scale.
//!
//! * [`SmSet`] — a set of a study's state machines as one 64-bit word:
//!   notify lists, per-host routing targets and the machines a
//!   notification message names. Copying one is copying a `u64`.
//! * [`InlineVec`] — keeps up to `N` elements inline in the containing
//!   value and spills to a heap `Vec` only beyond that, so the common case
//!   allocates nothing (the engine's watcher lists, whose ids are not
//!   bounded by a study).
//!
//! `InlineVec` is `unsafe`-free (this crate forbids `unsafe`): the
//! inline buffer is `[Option<T>; N]`, filled front to back, so no
//! uninitialized storage is ever observed. That costs the niche-less types
//! a word of padding per slot, which is irrelevant next to the allocation
//! it saves; id-like types (`Option<u32>` newtypes) pay 4 bytes.

use crate::ids::SmId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of state machines, one bit per [`SmId`]: the notify list of a
/// state, the targets a notification message carries, the machines a
/// daemon forwards to on one host.
///
/// Iteration is in ascending machine id, so every fan-out built from a
/// set — local deliveries, one `ForwardNotify` per host, exit and crash
/// notifications — runs in that order. The paper's notify list names whom
/// to tell, not in what order, and a set cannot hold a machine twice.
///
/// A set holds machines `0..64` ([`SmSet::CAPACITY`]);
/// [`Study::compile`](crate::study::Study::compile) refuses a study of more
/// machines with [`CoreError::TooManyMachines`](crate::error::CoreError::TooManyMachines),
/// so every id of a compiled study fits.
///
/// # Examples
///
/// ```
/// use loki_core::ids::Id;
/// use loki_core::small::SmSet;
///
/// let mut set: SmSet = [5, 1, 3].into_iter().map(Id::from_raw).collect();
/// assert!(set.insert(Id::from_raw(0)));
/// assert!(!set.insert(Id::from_raw(3))); // already there
/// assert!(set.remove(Id::from_raw(5)));
/// assert_eq!(set.len(), 3);
/// let ids: Vec<u32> = set.iter().map(|sm| sm.raw()).collect();
/// assert_eq!(ids, vec![0, 1, 3]); // ascending, whatever the insertion order
/// ```
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SmSet(u64);

impl SmSet {
    /// Machines a set can hold: ids `0..CAPACITY`.
    pub const CAPACITY: usize = 64;

    /// The empty set.
    pub const fn new() -> Self {
        SmSet(0)
    }

    /// The set holding only `sm`.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is not below [`SmSet::CAPACITY`].
    pub fn one(sm: SmId) -> Self {
        SmSet(bit(sm))
    }

    /// Adds `sm`; returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is not below [`SmSet::CAPACITY`].
    #[inline]
    pub fn insert(&mut self, sm: SmId) -> bool {
        let bit = bit(sm);
        let absent = self.0 & bit == 0;
        self.0 |= bit;
        absent
    }

    /// Removes `sm`; returns whether it was present. An id past the
    /// capacity is never present.
    #[inline]
    pub fn remove(&mut self, sm: SmId) -> bool {
        let present = self.contains(sm);
        if present {
            self.0 &= !bit(sm);
        }
        present
    }

    /// Whether `sm` is in the set. An id past the capacity never is.
    #[inline]
    pub fn contains(self, sm: SmId) -> bool {
        sm.index() < Self::CAPACITY && self.0 & bit(sm) != 0
    }

    /// Number of machines in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The machines in ascending id order.
    #[inline]
    pub fn iter(self) -> SmSetIter {
        SmSetIter(self.0)
    }
}

/// The bit of `sm`.
#[inline]
fn bit(sm: SmId) -> u64 {
    assert!(
        sm.index() < SmSet::CAPACITY,
        "machine #{} does not fit an SmSet",
        sm.raw()
    );
    1 << sm.index()
}

/// Iterator over an [`SmSet`] in ascending machine id.
#[derive(Clone, Debug)]
pub struct SmSetIter(u64);

impl Iterator for SmSetIter {
    type Item = SmId;

    #[inline]
    fn next(&mut self) -> Option<SmId> {
        if self.0 == 0 {
            return None;
        }
        let low = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(SmId::from_raw(low))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SmSetIter {}

impl IntoIterator for SmSet {
    type Item = SmId;
    type IntoIter = SmSetIter;

    fn into_iter(self) -> SmSetIter {
        self.iter()
    }
}

impl FromIterator<SmId> for SmSet {
    fn from_iter<I: IntoIterator<Item = SmId>>(iter: I) -> Self {
        let mut set = SmSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<SmId> for SmSet {
    fn extend<I: IntoIterator<Item = SmId>>(&mut self, iter: I) {
        for sm in iter {
            self.insert(sm);
        }
    }
}

/// Prints as the list of its machines, ascending.
impl fmt::Debug for SmSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A vector storing its first `N` elements inline, spilling to the heap
/// beyond that. Push-only (plus [`clear`](InlineVec::clear)): exactly the
/// shape of the runtime's fan-out lists, which are built once and then
/// iterated or consumed.
///
/// # Examples
///
/// ```
/// use loki_core::small::InlineVec;
///
/// let mut v: InlineVec<u32, 4> = InlineVec::new();
/// for i in 0..3 {
///     v.push(i); // inline, no allocation
/// }
/// assert_eq!(v.len(), 3);
/// assert!(!v.spilled());
/// v.extend([3, 4, 5]); // 5th and 6th elements spill to the heap
/// assert!(v.spilled());
/// assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
/// ```
pub struct InlineVec<T, const N: usize> {
    /// Inline slots, occupied front to back; `None` past `inline_len`.
    inline: [Option<T>; N],
    /// Number of occupied inline slots (`<= N`).
    inline_len: u32,
    /// Overflow storage for elements past the first `N`.
    spill: Vec<T>,
}

impl<T, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector. Allocation-free.
    pub fn new() -> Self {
        InlineVec {
            inline: std::array::from_fn(|_| None),
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    /// Creates an empty vector holding exactly one element. Allocation-free
    /// when `N >= 1`.
    pub fn one(value: T) -> Self {
        let mut v = Self::new();
        v.push(value);
        v
    }

    /// Appends `value`; allocates only once the inline capacity `N` is
    /// exhausted.
    pub fn push(&mut self, value: T) {
        let i = self.inline_len as usize;
        if i < N {
            self.inline[i] = Some(value);
            self.inline_len += 1;
        } else {
            self.spill.push(value);
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inline_len as usize + self.spill.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0 && self.spill.is_empty()
    }

    /// Whether elements have overflowed to the heap.
    pub fn spilled(&self) -> bool {
        !self.spill.is_empty()
    }

    /// Removes all elements, keeping any spill capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.inline[..self.inline_len as usize] {
            *slot = None;
        }
        self.inline_len = 0;
        self.spill.clear();
    }

    /// Iterates over the elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline.iter().flatten().chain(self.spill.iter())
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        InlineVec {
            inline: self.inline.clone(),
            inline_len: self.inline_len,
            spill: self.spill.clone(),
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Equality is element-wise in insertion order; the inline/spill split is
/// an implementation detail (vectors of different `N` still compare by
/// content within the same `N`).
impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}
impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::array::IntoIter<Option<T>, N>>,
        std::vec::IntoIter<T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        // Occupied inline slots are a prefix, so `flatten` yields exactly
        // the first `inline_len` elements in order.
        self.inline.into_iter().flatten().chain(self.spill)
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::slice::Iter<'a, Option<T>>>,
        std::slice::Iter<'a, T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline.iter().flatten().chain(self.spill.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm(raw: u32) -> SmId {
        SmId::from_raw(raw)
    }

    fn raws(set: SmSet) -> Vec<u32> {
        set.iter().map(SmId::raw).collect()
    }

    #[test]
    fn sm_set_iterates_ascending_whatever_the_insertion_order() {
        let mut set = SmSet::new();
        for raw in [63, 7, 0, 31, 7, 2] {
            set.insert(sm(raw));
        }
        assert_eq!(raws(set), vec![0, 2, 7, 31, 63]);
        assert_eq!(set.iter().len(), 5);
        let by_value: Vec<u32> = set.into_iter().map(SmId::raw).collect();
        assert_eq!(by_value, raws(set));
    }

    #[test]
    fn sm_set_one_insert_remove_len() {
        let mut set = SmSet::one(sm(4));
        assert_eq!((set.len(), raws(set)), (1, vec![4]));
        assert!(set.contains(sm(4)) && !set.contains(sm(3)));
        assert!(set.insert(sm(9)), "absent: inserted");
        assert!(!set.insert(sm(4)), "present: no change");
        assert_eq!(set.len(), 2);
        assert!(set.remove(sm(4)));
        assert!(!set.remove(sm(4)), "already gone");
        assert!(!set.remove(sm(64)), "past the capacity: never present");
        assert!(!set.contains(sm(200)));
        assert_eq!(raws(set), vec![9]);
        assert!(set.remove(sm(9)));
        assert!(set.is_empty() && set == SmSet::new());
        assert_eq!(set.len(), 0);
        assert_eq!(set.iter().next(), None);
    }

    #[test]
    fn sm_set_from_iterator_dedupes_and_prints_as_a_list() {
        let set: SmSet = [3, 1, 3, 63, 1].into_iter().map(sm).collect();
        assert_eq!(raws(set), vec![1, 3, 63]);
        assert_eq!(set.len(), 3);
        let full: SmSet = (0..64).map(sm).collect();
        assert_eq!(full.len(), SmSet::CAPACITY);
        assert_eq!(raws(full), (0..64).collect::<Vec<_>>());
        assert_eq!(format!("{set:?}"), format!("{:?}", [sm(1), sm(3), sm(63)]));
    }

    #[test]
    #[should_panic(expected = "does not fit an SmSet")]
    fn sm_set_refuses_an_id_past_its_capacity() {
        SmSet::new().insert(sm(64));
    }

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert!(!v.spilled());
        v.push(3);
        assert!(v.spilled());
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn one_and_from_iterator() {
        let v: InlineVec<u32, 4> = InlineVec::one(9);
        assert_eq!(v.len(), 1);
        assert!(!v.spilled());
        let w: InlineVec<u32, 4> = (0..6).collect();
        assert_eq!(w.len(), 6);
        assert_eq!(
            w.iter().copied().collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
    }

    #[test]
    fn equality_ignores_storage_split() {
        let a: InlineVec<u32, 2> = (0..5).collect();
        let b: InlineVec<u32, 2> = (0..5).collect();
        let c: InlineVec<u32, 2> = (0..4).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clear_resets_and_reuses() {
        let mut v: InlineVec<u32, 2> = (0..4).collect();
        v.clear();
        assert!(v.is_empty());
        assert!(!v.spilled());
        v.push(7);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn debug_and_clone() {
        let v: InlineVec<u32, 2> = (0..3).collect();
        assert_eq!(format!("{v:?}"), "[0, 1, 2]");
        assert_eq!(v.clone(), v);
    }

    #[test]
    fn works_with_non_copy_types() {
        let mut v: InlineVec<String, 1> = InlineVec::new();
        v.push("a".to_owned());
        v.push("b".to_owned());
        let owned: Vec<String> = v.into_iter().collect();
        assert_eq!(owned, vec!["a".to_owned(), "b".to_owned()]);
    }
}
