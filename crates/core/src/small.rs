//! Allocation-free storage for hot-path fan-out lists.
//!
//! The runtime's steady state is dominated by tiny lists: a state's notify
//! list (usually one or two machines) and the per-host fan-out a daemon
//! builds while routing. Carrying those as `Vec` means one heap allocation
//! per message — per event, at campaign scale.
//!
//! * [`SmSet`] — a set of a study's state machines as one 64-bit word:
//!   notify lists, per-host routing targets and the machines a
//!   notification message names. Copying one is copying a `u64`.

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
}
