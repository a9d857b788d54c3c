//! K-way merge of time-sorted event runs.
//!
//! `make_global` appends each local timeline's events as one contiguous
//! *run*, and within a run the projected midpoints are (almost always)
//! already non-decreasing — the affine `(α, β)` projection is monotonic in
//! local time. Globally ordering the events therefore does not need a full
//! `O(n log n)` stable sort: merging the `k` runs head-to-head is
//! `O(n log k)`, and against a reused [`MergeScratch`] it allocates nothing.
//!
//! The merge must be *byte-identical* to the stable sort it replaces.
//! A stable sort keyed on the midpoint keeps equal-key elements in input
//! order, and input order here is `(run index, position within run)` —
//! exactly the order a min-heap keyed `(mid, run)` pops tied heads in, since
//! positions within one run enter the heap in order. [`merge_sorted_runs`]
//! produces a destination permutation from that heap and applies it in
//! place with a cycle walk: no element clones (event payloads may own
//! strings), no unsafe (this crate forbids it), no extra buffers beyond the
//! reused scratch.
//!
//! Callers are responsible for detecting the (rare) non-monotonic run —
//! e.g. a clock stepping backwards across a restart onto a different host —
//! and falling back to the stable sort, which
//! [`make_global`](crate::global::make_global) does.

use loki_core::campaign::SyncSample;
use std::cmp::Ordering;

/// The current head of one run inside the merge heap.
#[derive(Clone, Copy, Debug)]
struct Head {
    /// Sort key of the element at `idx`.
    key: f64,
    /// Run index — the tiebreaker that reproduces stable-sort order.
    run: u32,
    /// Absolute index of the run's current head element.
    idx: u32,
}

/// `a` orders strictly before `b` in the merge (min-heap order).
///
/// Keys compare with `f64::total_cmp`, matching
/// `sort_by(|a, b| key(a).total_cmp(&key(b)))` exactly — including the
/// `-0.0 < 0.0` and NaN placements; ties break on run index.
#[inline]
fn head_lt(a: &Head, b: &Head) -> bool {
    match a.key.total_cmp(&b.key) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => a.run < b.run,
    }
}

/// Reusable scratch for [`merge_sorted_runs`]: the run table filled by the
/// caller, plus the permutation and heap buffers the merge works in. All
/// retain capacity across uses, so a reused `MergeScratch` makes the merge
/// allocation-free in steady state. `make_global` keeps one per thread and
/// gathers its one other per-experiment buffer here too, so a single object
/// covers the whole construction.
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// One host's sync samples (pre- then post-phase), gathered for clock
    /// calibration before the merge; not touched by [`merge_sorted_runs`].
    pub samples: Vec<SyncSample>,
    /// Half-open `[start, end)` index ranges of the sorted runs, in input
    /// order. Filled by the caller before [`merge_sorted_runs`]; ranges
    /// must be non-empty, non-overlapping, and cover the slice exactly.
    pub runs: Vec<(u32, u32)>,
    /// Destination permutation (`perm[src] == dst`), built then consumed in
    /// place by the cycle walk.
    perm: Vec<u32>,
    /// The k-entry min-heap of run heads.
    heap: Vec<Head>,
}

impl MergeScratch {
    /// Drops buffer contents but keeps capacity (for reuse).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.runs.clear();
        self.perm.clear();
        self.heap.clear();
    }
}

/// Restores the min-heap property upward from `pos`.
fn sift_up(heap: &mut [Head], mut pos: usize) {
    while pos > 0 {
        let parent = (pos - 1) / 2;
        if head_lt(&heap[pos], &heap[parent]) {
            heap.swap(pos, parent);
            pos = parent;
        } else {
            break;
        }
    }
}

/// Restores the min-heap property downward from `pos`.
fn sift_down(heap: &mut [Head], mut pos: usize) {
    let len = heap.len();
    loop {
        let mut best = pos;
        let left = 2 * pos + 1;
        let right = left + 1;
        if left < len && head_lt(&heap[left], &heap[best]) {
            best = left;
        }
        if right < len && head_lt(&heap[right], &heap[best]) {
            best = right;
        }
        if best == pos {
            break;
        }
        heap.swap(pos, best);
        pos = best;
    }
}

/// Merges the sorted runs described by `scratch.runs` so that `items` ends
/// up ordered exactly as `items.sort_by(|a, b| key(a).total_cmp(&key(b)))`
/// would leave it — provided every run is non-decreasing under
/// `total_cmp(key)`. Runs of a single range (or none) return immediately:
/// the slice is already sorted.
///
/// The merge walks the `k` run heads through a min-heap keyed
/// `(key, run index)`, recording for each source index its destination,
/// then applies that permutation in place by walking its cycles — `O(n log
/// k)` time, zero allocation once `scratch` has warmed up, no element
/// clones.
///
/// # Panics
///
/// Debug builds assert the run table is well-formed (non-empty ranges
/// covering `items`); release builds trust the caller.
pub fn merge_sorted_runs<T, F: Fn(&T) -> f64>(items: &mut [T], scratch: &mut MergeScratch, key: F) {
    let MergeScratch {
        runs, perm, heap, ..
    } = scratch;
    if runs.len() <= 1 {
        return;
    }
    let n = items.len();
    debug_assert!(u32::try_from(n).is_ok(), "merge index space is u32");
    debug_assert_eq!(
        runs.iter().map(|&(s, e)| (e - s) as usize).sum::<usize>(),
        n,
        "runs must cover the slice exactly"
    );
    perm.clear();
    perm.resize(n, 0);
    heap.clear();
    for (run, &(start, end)) in runs.iter().enumerate() {
        debug_assert!(start < end, "runs must be non-empty");
        heap.push(Head {
            key: key(&items[start as usize]),
            run: run as u32,
            idx: start,
        });
        let top = heap.len() - 1;
        sift_up(heap, top);
    }
    let mut dst = 0u32;
    while let Some(&Head { run, idx, .. }) = heap.first() {
        perm[idx as usize] = dst;
        dst += 1;
        let next = idx + 1;
        let end = runs[run as usize].1;
        if next < end {
            heap[0] = Head {
                key: key(&items[next as usize]),
                run,
                idx: next,
            };
        } else {
            let last = heap.len() - 1;
            heap.swap(0, last);
            heap.pop();
            if heap.is_empty() {
                break;
            }
        }
        sift_down(heap, 0);
    }
    // Apply the destination permutation in place: walk each cycle with
    // swaps until every element sits at `perm[i] == i`.
    for i in 0..n {
        while perm[i] as usize != i {
            let j = perm[i] as usize;
            items.swap(i, j);
            perm.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Tagged = Vec<(f64, u32)>;

    /// Reference: stable sort with the same comparator.
    fn stable(mut v: Tagged) -> Tagged {
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v
    }

    /// Tags each element with its run so ties are observable.
    fn run_merge(runs: Vec<Vec<f64>>) -> (Tagged, Tagged) {
        let mut items = Vec::new();
        let mut scratch = MergeScratch::default();
        for (r, run) in runs.iter().enumerate() {
            let start = items.len() as u32;
            items.extend(run.iter().map(|&k| (k, r as u32)));
            if !run.is_empty() {
                scratch.runs.push((start, items.len() as u32));
            }
        }
        let reference = stable(items.clone());
        merge_sorted_runs(&mut items, &mut scratch, |e| e.0);
        (items, reference)
    }

    #[test]
    fn merges_disjoint_runs() {
        let (merged, reference) =
            run_merge(vec![vec![1.0, 4.0, 9.0], vec![2.0, 3.0], vec![0.5, 7.0]]);
        assert_eq!(merged, reference);
    }

    #[test]
    fn ties_resolve_in_run_order() {
        // Every element keyed 1.0: output must be run 0's elements first,
        // then run 1's, then run 2's — exactly stable-sort order.
        let (merged, reference) = run_merge(vec![vec![1.0, 1.0], vec![1.0], vec![1.0, 1.0, 1.0]]);
        assert_eq!(merged, reference);
        let runs: Vec<u32> = merged.iter().map(|e| e.1).collect();
        assert_eq!(runs, vec![0, 0, 1, 2, 2, 2]);
    }

    #[test]
    fn single_run_is_a_no_op() {
        let (merged, reference) = run_merge(vec![vec![3.0, 5.0, 8.0]]);
        assert_eq!(merged, reference);
    }

    #[test]
    fn empty_input() {
        let (merged, reference) = run_merge(vec![]);
        assert_eq!(merged, reference);
        let (merged, reference) = run_merge(vec![vec![], vec![]]);
        assert_eq!(merged, reference);
    }

    #[test]
    fn negative_zero_orders_before_positive_zero() {
        let (merged, reference) = run_merge(vec![vec![-0.0, 0.0], vec![-0.0, 0.0]]);
        assert_eq!(merged, reference);
        assert!(merged[0].0.is_sign_negative());
        assert!(merged[1].0.is_sign_negative());
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let mut scratch = MergeScratch::default();
        for trial in 0..3u32 {
            let mut items: Vec<(f64, u32)> = Vec::new();
            scratch.clear();
            for r in 0..4u32 {
                let start = items.len() as u32;
                for i in 0..(trial + r + 1) {
                    items.push(((r + i * 3) as f64, r));
                }
                scratch.runs.push((start, items.len() as u32));
            }
            let reference = stable(items.clone());
            merge_sorted_runs(&mut items, &mut scratch, |e| e.0);
            assert_eq!(items, reference, "trial {trial}");
        }
    }
}
