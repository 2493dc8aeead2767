//! Interval ("position") labels — Section 3.1 of the paper.
//!
//! Every node carries a `(start, end)` pair with `start <= end` such that:
//!
//! * `start` is the node's pre-order (document) position;
//! * `end` is at least `start` and at least the `end` of every descendant —
//!   concretely, the largest `start` occurring in the subtree.
//!
//! Consequently two intervals are either disjoint or strictly nested
//! (the *containment* property that Lemma 1 of the paper rests on), and the
//! ancestor test is a pair of integer comparisons.

/// A `(start, end)` position label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    pub start: u32,
    pub end: u32,
}

impl Interval {
    /// Creates an interval, checking `start <= end` in debug builds.
    #[inline]
    pub fn new(start: u32, end: u32) -> Self {
        debug_assert!(start <= end, "interval start must not exceed end");
        Interval { start, end }
    }

    /// True iff `self` labels a proper ancestor of the node labeled `d`.
    ///
    /// This is the paper's test: the ancestor starts strictly earlier and
    /// ends no earlier.
    #[inline]
    pub fn is_ancestor_of(self, d: Interval) -> bool {
        self.start < d.start && self.end >= d.end
    }

    /// True iff the two intervals have no position in common.
    #[inline]
    pub fn disjoint(self, other: Interval) -> bool {
        self.end < other.start || other.end < self.start
    }

    /// True iff `self` comes entirely before `other` in document order
    /// (used by the ordered-semantics extension).
    #[inline]
    pub fn before(self, other: Interval) -> bool {
        self.end < other.start
    }

    /// Width of the interval in positions (a leaf has width 1).
    #[inline]
    pub fn width(self) -> u32 {
        self.end - self.start + 1
    }
}

/// Validates the containment property over a set of intervals: any two are
/// either disjoint or strictly nested. `O(n log n)`; intended for tests and
/// data-generator sanity checks.
pub fn check_containment(intervals: &[Interval]) -> bool {
    let mut sorted: Vec<Interval> = intervals.to_vec();
    sorted.sort();
    let mut stack: Vec<Interval> = Vec::new();
    for iv in sorted {
        while let Some(top) = stack.last() {
            if top.end < iv.start {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(top) = stack.last() {
            // Same start is fine only when one is a copy of the other
            // (predicates may list a node once), otherwise require nesting.
            if !(top.start < iv.start && top.end >= iv.end) && *top != iv {
                return false;
            }
        }
        stack.push(iv);
    }
    true
}

/// True when no interval in the set is nested inside another — the
/// *no-overlap* property of Definition 2 of the paper.
///
/// A document-ordered list (every classified match list) is checked in
/// place: it has the property iff each interval ends before the next one
/// starts. Only a list out of document order is copied and sorted.
pub fn no_overlap(intervals: &[Interval]) -> bool {
    for w in intervals.windows(2) {
        if w[0].end < w[1].start {
            continue;
        }
        if w[0].start <= w[1].start {
            // Two intervals of the set share a position.
            return false;
        }
        let mut sorted: Vec<Interval> = intervals.to_vec();
        sorted.sort();
        return sorted.windows(2).all(|w| w[0].end < w[1].start);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ancestor_test_matches_definition() {
        let root = Interval::new(0, 10);
        let mid = Interval::new(1, 5);
        let leaf = Interval::new(3, 3);
        assert!(root.is_ancestor_of(mid));
        assert!(root.is_ancestor_of(leaf));
        assert!(mid.is_ancestor_of(leaf));
        assert!(!leaf.is_ancestor_of(mid));
        assert!(!mid.is_ancestor_of(root));
        // A node is not its own ancestor.
        assert!(!mid.is_ancestor_of(mid));
    }

    #[test]
    fn disjoint_and_before() {
        let a = Interval::new(0, 3);
        let b = Interval::new(4, 9);
        assert!(a.disjoint(b));
        assert!(b.disjoint(a));
        assert!(a.before(b));
        assert!(!b.before(a));
        let c = Interval::new(2, 5);
        assert!(!a.disjoint(c));
    }

    #[test]
    fn width_of_leaf_is_one() {
        assert_eq!(Interval::new(7, 7).width(), 1);
        assert_eq!(Interval::new(2, 5).width(), 4);
    }

    #[test]
    fn containment_checker_accepts_tree_intervals() {
        // A valid nesting: root(0,6) { a(1,3){b(2,2), c(3,3)}, d(4,6){e(5,5), f(6,6)} }
        let ivs = [
            Interval::new(0, 6),
            Interval::new(1, 3),
            Interval::new(2, 2),
            Interval::new(3, 3),
            Interval::new(4, 6),
            Interval::new(5, 5),
            Interval::new(6, 6),
        ];
        assert!(check_containment(&ivs));
    }

    #[test]
    fn containment_checker_rejects_partial_overlap() {
        let ivs = [Interval::new(0, 5), Interval::new(3, 8)];
        assert!(!check_containment(&ivs));
    }

    #[test]
    fn no_overlap_detection() {
        let flat = [
            Interval::new(1, 3),
            Interval::new(5, 7),
            Interval::new(9, 9),
        ];
        assert!(no_overlap(&flat));
        let nested = [Interval::new(1, 6), Interval::new(2, 3)];
        assert!(!no_overlap(&nested));
        // Out of document order: decided on a sorted copy.
        let shuffled = [flat[2], flat[0], flat[1]];
        assert!(no_overlap(&shuffled));
        let nested_late = [flat[2], Interval::new(2, 2), Interval::new(1, 3)];
        assert!(!no_overlap(&nested_late));
    }
}
