//! Interval sets over the global timeline.
//!
//! The correctness check reasons about *definitely-true* and
//! *possibly-true* regions of Boolean state expressions. Both are unions of
//! disjoint time intervals; this module provides the set algebra (union,
//! intersection, complement within a window) those computations need.

/// A set of disjoint, sorted, closed intervals `[lo, hi]` over global time
/// (nanoseconds as `f64`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalSet {
    spans: Vec<(f64, f64)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet { spans: Vec::new() }
    }

    /// Builds a set from arbitrary (possibly overlapping, unsorted)
    /// intervals; empty or inverted inputs are dropped.
    ///
    /// Merges in place: the input vector is reused as the backing store,
    /// so the call allocates nothing beyond what the caller handed over.
    /// Already-sorted input — the common case now that state intervals
    /// come off merge-ordered timelines — is detected by a single
    /// monotonicity scan and skips the sort entirely.
    pub fn from_spans(mut spans: Vec<(f64, f64)>) -> Self {
        spans.retain(|(lo, hi)| lo <= hi);
        let sorted = spans
            .windows(2)
            .all(|w| w[0].0.total_cmp(&w[1].0) != std::cmp::Ordering::Greater);
        if !sorted {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let mut kept = 0;
        for i in 0..spans.len() {
            let (lo, hi) = spans[i];
            if kept > 0 && lo <= spans[kept - 1].1 {
                spans[kept - 1].1 = spans[kept - 1].1.max(hi);
            } else {
                spans[kept] = (lo, hi);
                kept += 1;
            }
        }
        spans.truncate(kept);
        IntervalSet { spans }
    }

    /// The spans of the set.
    pub fn spans(&self) -> &[(f64, f64)] {
        &self.spans
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of disjoint spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The first span ending at or after `t`, the only one that can hold
    /// `t` or anything right of it: spans are disjoint and sorted, so both
    /// their starts and their ends ascend and a binary search on the ends
    /// finds it.
    fn first_ending_at_or_after(&self, t: f64) -> Option<(f64, f64)> {
        let idx = self.spans.partition_point(|&(_, hi)| hi < t);
        self.spans.get(idx).copied()
    }

    /// Whether `t` lies in the set.
    pub fn contains(&self, t: f64) -> bool {
        self.contains_interval(t, t)
    }

    /// Whether the whole interval `[lo, hi]` lies within a single span.
    pub fn contains_interval(&self, lo: f64, hi: f64) -> bool {
        self.first_ending_at_or_after(hi)
            .is_some_and(|(a, _)| a <= lo)
    }

    /// Whether the closed interval `[lo, hi]` meets the set anywhere.
    ///
    /// Equivalent to `!self.intersect(&IntervalSet::from_spans(vec![(lo,
    /// hi)])).is_empty()` but allocation-free; an inverted probe (`lo >
    /// hi`) is the empty interval and never overlaps, matching
    /// [`IntervalSet::from_spans`]'s treatment of inverted inputs.
    pub fn overlaps(&self, lo: f64, hi: f64) -> bool {
        lo <= hi
            && self
                .first_ending_at_or_after(lo)
                .is_some_and(|(a, _)| a <= hi)
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut spans = self.spans.clone();
        spans.extend_from_slice(&other.spans);
        IntervalSet::from_spans(spans)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let (a_lo, a_hi) = self.spans[i];
            let (b_lo, b_hi) = other.spans[j];
            let lo = a_lo.max(b_lo);
            let hi = a_hi.min(b_hi);
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

    /// Complement within the window `[window_lo, window_hi]`.
    pub fn complement(&self, window_lo: f64, window_hi: f64) -> IntervalSet {
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
            cursor = cursor.max(hi);
        }
        if cursor < window_hi {
            out.push((cursor, window_hi));
        }
        IntervalSet { spans: out }
    }

    /// Total measure (sum of span lengths).
    pub fn total_length(&self) -> f64 {
        self.spans.iter().map(|(lo, hi)| hi - lo).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(spans: &[(f64, f64)]) -> IntervalSet {
        IntervalSet::from_spans(spans.to_vec())
    }

    #[test]
    fn from_spans_merges_and_sorts() {
        let s = set(&[(5.0, 7.0), (1.0, 3.0), (2.0, 4.0), (9.0, 8.0)]);
        assert_eq!(s.spans(), &[(1.0, 4.0), (5.0, 7.0)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn touching_spans_merge() {
        let s = set(&[(1.0, 2.0), (2.0, 3.0)]);
        assert_eq!(s.spans(), &[(1.0, 3.0)]);
    }

    #[test]
    fn containment() {
        let s = set(&[(1.0, 3.0), (5.0, 8.0)]);
        assert!(s.contains(2.0));
        assert!(!s.contains(4.0));
        assert!(s.contains_interval(5.5, 7.0));
        assert!(!s.contains_interval(2.0, 6.0)); // spans a gap
        assert!(!IntervalSet::empty().contains(0.0));
    }

    #[test]
    fn overlaps_matches_intersect() {
        let a = set(&[(1.0, 3.0), (5.0, 8.0)]);
        assert!(a.overlaps(2.0, 4.0));
        assert!(a.overlaps(3.0, 5.0)); // touches both spans
        assert!(!a.overlaps(4.0, 4.5)); // falls in the gap
        assert!(a.overlaps(8.0, 8.0)); // degenerate point on a boundary
        assert!(!a.overlaps(9.0, 7.0)); // inverted probe is empty
        assert!(!IntervalSet::empty().overlaps(0.0, 100.0));
    }

    #[test]
    fn queries_at_the_edges() {
        // A point span's complement leaves two spans touching at the point.
        let touching = set(&[(3.0, 3.0)]).complement(0.0, 6.0);
        assert_eq!(touching.spans(), &[(0.0, 3.0), (3.0, 6.0)]);
        assert!(touching.contains(3.0));
        assert!(touching.contains_interval(3.0, 6.0));
        assert!(!touching.contains_interval(2.0, 4.0)); // no single span holds it
        assert!(touching.overlaps(6.0, 9.0));
        assert!(!touching.overlaps(6.5, 9.0));

        let a = set(&[(f64::NEG_INFINITY, 1.0), (5.0, 8.0), (10.0, f64::INFINITY)]);
        assert!(a.contains(f64::NEG_INFINITY) && a.contains(f64::INFINITY));
        assert!(a.contains(5.0) && a.contains(8.0) && !a.contains(9.0));
        assert!(a.contains_interval(5.0, 8.0)); // both endpoints exactly
        assert!(!a.contains_interval(8.0, 10.0)); // endpoints in, gap between
        assert!(a.contains_interval(11.0, f64::INFINITY));
        assert!(a.overlaps(1.0, 5.0) && !a.overlaps(2.0, 4.0));
        assert!(!a.overlaps(f64::INFINITY, f64::NEG_INFINITY)); // inverted

        let none = IntervalSet::empty();
        assert!(!none.contains_interval(0.0, 0.0));
        assert!(!none.overlaps(f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn union_intersect() {
        let a = set(&[(1.0, 4.0), (6.0, 9.0)]);
        let b = set(&[(3.0, 7.0)]);
        assert_eq!(a.union(&b).spans(), &[(1.0, 9.0)]);
        assert_eq!(a.intersect(&b).spans(), &[(3.0, 4.0), (6.0, 7.0)]);
        assert!(a.intersect(&IntervalSet::empty()).is_empty());
    }

    #[test]
    fn complement_within_window() {
        let a = set(&[(2.0, 3.0), (5.0, 6.0)]);
        assert_eq!(
            a.complement(0.0, 10.0).spans(),
            &[(0.0, 2.0), (3.0, 5.0), (6.0, 10.0)]
        );
        assert_eq!(
            IntervalSet::empty().complement(0.0, 1.0).spans(),
            &[(0.0, 1.0)]
        );
        // Span covering the whole window -> empty complement.
        let full = set(&[(0.0, 10.0)]);
        assert!(full.complement(0.0, 10.0).is_empty());
        // Spans outside the window are ignored.
        let outside = set(&[(20.0, 30.0)]);
        assert_eq!(outside.complement(0.0, 10.0).spans(), &[(0.0, 10.0)]);
    }

    #[test]
    fn double_complement_is_identity_within_window() {
        let a = set(&[(2.0, 3.0), (5.0, 6.0)]);
        let cc = a.complement(0.0, 10.0).complement(0.0, 10.0);
        assert_eq!(cc, a);
    }

    #[test]
    fn total_length() {
        let a = set(&[(1.0, 3.0), (5.0, 8.0)]);
        assert!((a.total_length() - 5.0).abs() < 1e-12);
    }
}
