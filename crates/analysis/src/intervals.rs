//! Interval sets over the global timeline.
//!
//! The correctness check reasons about *definitely-true* and
//! *possibly-true* regions of Boolean state expressions. Both are unions of
//! disjoint time intervals; this module provides the set algebra (union,
//! intersection, complement within a window) those computations need.
//!
//! Endpoints are whole nanoseconds (`i64`, the default), with `i64::MIN` and
//! `i64::MAX` as the open ends of the line, which no projected time (inside
//! `±2⁶²` ns) meets. The measure phase reuses the algebra over `f64`.

/// A set of disjoint, sorted, closed intervals `[lo, hi]` over global time
/// (whole nanoseconds unless `T` says otherwise).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalSet<T = i64> {
    spans: Vec<(T, T)>,
}

impl<T: Copy + PartialOrd> IntervalSet<T> {
    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet { spans: Vec::new() }
    }

    /// Builds a set from arbitrary (possibly overlapping, unsorted)
    /// intervals; empty or inverted inputs are dropped (and so is any span
    /// with an unordered, NaN, endpoint).
    ///
    /// Merges in place: the input vector is reused as the backing store.
    /// Already-sorted input, the common case, costs the sort one linear
    /// pass.
    pub fn from_spans(mut spans: Vec<(T, T)>) -> Self {
        spans.retain(|(lo, hi)| lo <= hi);
        // What is left is ordered: no NaN endpoint passed the filter.
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut kept = 0;
        for i in 0..spans.len() {
            let (lo, hi) = spans[i];
            if kept > 0 && lo <= spans[kept - 1].1 {
                if hi > spans[kept - 1].1 {
                    spans[kept - 1].1 = hi;
                }
            } else {
                spans[kept] = (lo, hi);
                kept += 1;
            }
        }
        spans.truncate(kept);
        IntervalSet { spans }
    }

    /// The spans of the set.
    pub fn spans(&self) -> &[(T, T)] {
        &self.spans
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The first span ending at or after `t`, the only one that can hold
    /// `t` or anything right of it: spans are disjoint and sorted, so both
    /// their starts and their ends ascend and a binary search on the ends
    /// finds it.
    fn first_ending_at_or_after(&self, t: T) -> Option<(T, T)> {
        let idx = self.spans.partition_point(|&(_, hi)| hi < t);
        self.spans.get(idx).copied()
    }

    /// Whether `t` lies in the set.
    pub fn contains(&self, t: T) -> bool {
        self.contains_interval(t, t)
    }

    /// Whether the whole interval `[lo, hi]` lies within a single span.
    pub fn contains_interval(&self, lo: T, hi: T) -> bool {
        self.first_ending_at_or_after(hi)
            .is_some_and(|(a, _)| a <= lo)
    }

    /// Whether the closed interval `[lo, hi]` meets the set anywhere.
    ///
    /// Equivalent to `!self.intersect(&IntervalSet::from_spans(vec![(lo,
    /// hi)])).is_empty()` but allocation-free; an inverted probe (`lo >
    /// hi`) is the empty interval and never overlaps, matching
    /// [`IntervalSet::from_spans`]'s treatment of inverted inputs.
    pub fn overlaps(&self, lo: T, hi: T) -> bool {
        lo <= hi
            && self
                .first_ending_at_or_after(lo)
                .is_some_and(|(a, _)| a <= hi)
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet<T>) -> IntervalSet<T> {
        let mut spans = self.spans.clone();
        spans.extend_from_slice(&other.spans);
        IntervalSet::from_spans(spans)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet<T>) -> IntervalSet<T> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let (a_lo, a_hi) = self.spans[i];
            let (b_lo, b_hi) = other.spans[j];
            let lo = if b_lo > a_lo { b_lo } else { a_lo };
            let hi = if b_hi < a_hi { b_hi } else { a_hi };
            if lo <= hi {
                out.push((lo, hi));
            }
            if a_hi < b_hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { spans: out }
    }

    /// Complement within the window `[window_lo, window_hi]`. The result is
    /// closed too: it shares each boundary point with the set.
    pub fn complement(&self, window_lo: T, window_hi: T) -> IntervalSet<T> {
        let mut out = Vec::new();
        let mut cursor = window_lo;
        for &(lo, hi) in &self.spans {
            if hi < window_lo {
                continue;
            }
            if lo > window_hi {
                break;
            }
            if lo > cursor {
                out.push((cursor, lo));
            }
            if hi > cursor {
                cursor = hi;
            }
        }
        if cursor < window_hi {
            out.push((cursor, window_hi));
        }
        IntervalSet { spans: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(spans: &[(i64, i64)]) -> IntervalSet {
        IntervalSet::from_spans(spans.to_vec())
    }

    #[test]
    fn from_spans_merges_and_sorts() {
        let s = set(&[(5, 7), (1, 3), (2, 4), (9, 8)]);
        assert_eq!(s.spans(), &[(1, 4), (5, 7)]);
    }

    #[test]
    fn touching_spans_merge() {
        let s = set(&[(1, 2), (2, 3)]);
        assert_eq!(s.spans(), &[(1, 3)]);
    }

    #[test]
    fn containment() {
        let s = set(&[(1, 3), (5, 8)]);
        assert!(s.contains(2));
        assert!(!s.contains(4));
        assert!(s.contains_interval(6, 7));
        assert!(!s.contains_interval(2, 6)); // spans a gap
        assert!(!IntervalSet::empty().contains(0));
    }

    #[test]
    fn overlaps_matches_intersect() {
        let a = set(&[(1, 3), (5, 8)]);
        assert!(a.overlaps(2, 4));
        assert!(a.overlaps(3, 5)); // touches both spans
        assert!(!a.overlaps(4, 4)); // falls in the gap
        assert!(a.overlaps(8, 8)); // degenerate point on a boundary
        assert!(!a.overlaps(9, 7)); // inverted probe is empty
        assert!(!IntervalSet::empty().overlaps(0, 100));
    }

    #[test]
    fn queries_at_the_edges() {
        // A point span's complement leaves two spans touching at the point.
        let touching = set(&[(3, 3)]).complement(0, 6);
        assert_eq!(touching.spans(), &[(0, 3), (3, 6)]);
        assert!(touching.contains(3));
        assert!(touching.contains_interval(3, 6));
        assert!(!touching.contains_interval(2, 4)); // no single span holds it
        assert!(touching.overlaps(6, 9));
        assert!(!touching.overlaps(7, 9));

        // The open ends of the line are the ends of `i64`.
        let a = set(&[(i64::MIN, 1), (5, 8), (10, i64::MAX)]);
        assert!(a.contains(i64::MIN) && a.contains(i64::MAX));
        assert!(a.contains(5) && a.contains(8) && !a.contains(9));
        assert!(a.contains_interval(5, 8)); // both endpoints exactly
        assert!(!a.contains_interval(8, 10)); // endpoints in, gap between
        assert!(a.contains_interval(11, i64::MAX));
        assert!(a.overlaps(1, 5) && !a.overlaps(2, 4));
        assert!(!a.overlaps(i64::MAX, i64::MIN)); // inverted
        assert_eq!(a.complement(i64::MIN, i64::MAX).spans(), &[(1, 5), (8, 10)]);

        let none = IntervalSet::empty();
        assert!(!none.contains_interval(0, 0));
        assert!(!none.overlaps(i64::MIN, i64::MAX));
    }

    #[test]
    fn union_intersect() {
        let a = set(&[(1, 4), (6, 9)]);
        let b = set(&[(3, 7)]);
        assert_eq!(a.union(&b).spans(), &[(1, 9)]);
        assert_eq!(a.intersect(&b).spans(), &[(3, 4), (6, 7)]);
        assert!(a.intersect(&IntervalSet::empty()).is_empty());
    }

    #[test]
    fn complement_within_window() {
        let a = set(&[(2, 3), (5, 6)]);
        assert_eq!(a.complement(0, 10).spans(), &[(0, 2), (3, 5), (6, 10)]);
        assert_eq!(IntervalSet::empty().complement(0, 1).spans(), &[(0, 1)]);
        // Span covering the whole window -> empty complement.
        let full = set(&[(0, 10)]);
        assert!(full.complement(0, 10).is_empty());
        // Spans outside the window are ignored.
        let outside = set(&[(20, 30)]);
        assert_eq!(outside.complement(0, 10).spans(), &[(0, 10)]);
    }

    #[test]
    fn double_complement_is_identity_within_window() {
        let a = set(&[(2, 3), (5, 6)]);
        let cc = a.complement(0, 10).complement(0, 10);
        assert_eq!(cc, a);
    }
}
