//! One-dimensional interval-set algebra.
//!
//! Every 2-D question the rectangle union answers (boundary extraction,
//! tiling, window difference) restricts, on one line or slab, to unions,
//! differences and symmetric differences of closed 1-D intervals: the
//! runs the union's cell grid yields there must be exactly these. So
//! [`IntervalSet`] is the oracle the grid's runs are tested against. It
//! keeps a canonical sorted list of disjoint, non-touching intervals so
//! the set operations stay linear. Every comparison is exact.

/// A canonical set of disjoint closed intervals on the real line.
///
/// Canonical form: sorted by lower endpoint, pairwise disjoint, and with
/// gaps of positive width (overlapping or abutting intervals are merged).
/// Degenerate intervals (zero width) are dropped, however close to each
/// other the rest lie.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalSet {
    /// Canonical intervals as `(lo, hi)` pairs with `lo < hi`.
    runs: Vec<(f64, f64)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a canonical set from arbitrary (possibly overlapping,
    /// unordered, or degenerate) intervals.
    pub fn from_intervals<I: IntoIterator<Item = (f64, f64)>>(intervals: I) -> Self {
        let mut runs: Vec<(f64, f64)> = intervals.into_iter().collect();
        canonicalize(&mut runs);
        Self { runs }
    }

    /// A single interval, or the empty set if degenerate.
    pub fn single(lo: f64, hi: f64) -> Self {
        Self::from_intervals([(lo, hi)])
    }

    /// The canonical runs.
    pub fn runs(&self) -> &[(f64, f64)] {
        &self.runs
    }

    /// The set contains no interval of positive length.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Membership test (closed semantics).
    pub fn contains(&self, x: f64) -> bool {
        // Binary search on lower endpoints.
        let idx = self.runs.partition_point(|&(lo, _)| lo <= x);
        idx > 0 && x <= self.runs[idx - 1].1
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        IntervalSet::from_intervals(self.runs.iter().chain(other.runs.iter()).copied())
    }

    /// Set intersection.
    pub fn intersection(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let (alo, ahi) = self.runs[i];
            let (blo, bhi) = other.runs[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if hi > lo {
                out.push((lo, hi));
            }
            if ahi < bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { runs: out }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        let mut runs = Vec::new();
        difference_into(&self.runs, &other.runs, &mut runs);
        IntervalSet { runs }
    }

    /// Symmetric difference `(self \ other) ∪ (other \ self)` — the parts
    /// covered by exactly one operand. This is what determines which
    /// portions of a candidate edge lie on the union boundary.
    pub fn symmetric_difference(&self, other: &IntervalSet) -> IntervalSet {
        self.difference(other).union(&other.difference(self))
    }

    /// Clips the set to `[lo, hi]`.
    pub fn clip(&self, lo: f64, hi: f64) -> IntervalSet {
        self.intersection(&IntervalSet::single(lo, hi))
    }
}

/// Puts `v` in [`IntervalSet`]'s canonical form in place. The sort need
/// not be stable — intervals with bit-equal lower ends merge to their
/// maximum in any order — and so never allocates.
fn canonicalize(v: &mut Vec<(f64, f64)>) {
    v.retain(|&(lo, hi)| hi > lo);
    v.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut len = 0;
    for i in 0..v.len() {
        let (lo, hi) = v[i];
        if len > 0 && lo <= v[len - 1].1 {
            v[len - 1].1 = v[len - 1].1.max(hi);
        } else {
            v[len] = (lo, hi);
            len += 1;
        }
    }
    v.truncate(len);
}

/// Appends the canonical runs of `a \ b` to `out`; both inputs canonical.
fn difference_into(a: &[(f64, f64)], b: &[(f64, f64)], out: &mut Vec<(f64, f64)>) {
    let mut j = 0;
    for &(alo, ahi) in a {
        let mut cursor = alo;
        // Skip subtrahend runs entirely left of this run.
        while j < b.len() && b[j].1 <= alo {
            j += 1;
        }
        let mut k = j;
        while k < b.len() && b[k].0 < ahi {
            let (blo, bhi) = b[k];
            if blo > cursor {
                out.push((cursor, blo.min(ahi)));
            }
            cursor = cursor.max(bhi);
            if cursor >= ahi {
                break;
            }
            k += 1;
        }
        if ahi > cursor {
            out.push((cursor, ahi));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn set(v: &[(f64, f64)]) -> IntervalSet {
        IntervalSet::from_intervals(v.iter().copied())
    }

    #[test]
    fn canonicalization_merges_overlaps_and_abutments() {
        let s = set(&[(0.0, 1.0), (0.5, 2.0), (2.0, 3.0), (5.0, 6.0)]);
        assert_eq!(s.runs(), &[(0.0, 3.0), (5.0, 6.0)]);
    }

    #[test]
    fn degenerate_intervals_are_dropped() {
        // Only zero (or negative) width is degenerate: a sliver of any
        // positive width is kept, and so is a gap of any positive width.
        let s = set(&[(1.0, 1.0), (3.0, 2.0), (2.0, 2.0 + 5e-10)]);
        assert_eq!(s.runs(), &[(2.0, 2.0 + 5e-10)]);
        let s = set(&[(0.0, 1.0), (1.0 + 5e-10, 2.0)]);
        assert_eq!(s.runs(), &[(0.0, 1.0), (1.0 + 5e-10, 2.0)]);
        assert!(!s.contains(1.0 + 2.5e-10));
        assert!(s.contains(1.0) && s.contains(1.0 + 5e-10));
    }

    #[test]
    fn union_and_total_len() {
        let a = set(&[(0.0, 1.0)]);
        let b = set(&[(2.0, 4.0)]);
        let u = a.union(&b);
        assert_eq!(u.runs(), &[(0.0, 1.0), (2.0, 4.0)]);
        assert!(approx_eq(
            u.runs().iter().map(|(lo, hi)| hi - lo).sum(),
            3.0
        ));
    }

    #[test]
    fn intersection_basic() {
        let a = set(&[(0.0, 2.0), (3.0, 5.0)]);
        let b = set(&[(1.0, 4.0)]);
        assert_eq!(a.intersection(&b).runs(), &[(1.0, 2.0), (3.0, 4.0)]);
    }

    #[test]
    fn intersection_disjoint_is_empty() {
        let a = set(&[(0.0, 1.0)]);
        let b = set(&[(2.0, 3.0)]);
        assert!(a.intersection(&b).is_empty());
    }

    #[test]
    fn difference_carves_holes() {
        let a = set(&[(0.0, 10.0)]);
        let b = set(&[(2.0, 3.0), (5.0, 7.0)]);
        assert_eq!(
            a.difference(&b).runs(),
            &[(0.0, 2.0), (3.0, 5.0), (7.0, 10.0)]
        );
    }

    #[test]
    fn difference_with_overhanging_subtrahend() {
        let a = set(&[(1.0, 4.0)]);
        let b = set(&[(0.0, 2.0), (3.5, 9.0)]);
        assert_eq!(a.difference(&b).runs(), &[(2.0, 3.5)]);
    }

    #[test]
    fn difference_total_removal() {
        let a = set(&[(1.0, 2.0)]);
        let b = set(&[(0.0, 3.0)]);
        assert!(a.difference(&b).is_empty());
    }

    #[test]
    fn symmetric_difference_is_xor() {
        let a = set(&[(0.0, 4.0)]);
        let b = set(&[(2.0, 6.0)]);
        assert_eq!(a.symmetric_difference(&b).runs(), &[(0.0, 2.0), (4.0, 6.0)]);
    }

    #[test]
    fn subset_semantics() {
        // `a ⊆ b` exactly when `a \ b` is empty.
        let a = set(&[(1.0, 2.0), (3.0, 4.0)]);
        let b = set(&[(0.0, 5.0)]);
        assert!(a.difference(&b).is_empty());
        assert!(!b.difference(&a).is_empty());
        assert!(IntervalSet::new().difference(&a).is_empty());
    }

    #[test]
    fn contains_uses_binary_search() {
        let s = set(&[(0.0, 1.0), (5.0, 6.0)]);
        assert!(s.contains(0.5));
        assert!(s.contains(0.0));
        assert!(s.contains(6.0));
        assert!(!s.contains(3.0));
        assert!(!s.contains(-1.0));
        assert!(!s.contains(7.0));
    }

    #[test]
    fn clip_restricts_to_window() {
        let s = set(&[(0.0, 10.0)]);
        assert_eq!(s.clip(2.0, 3.0).runs(), &[(2.0, 3.0)]);
        assert!(s.clip(20.0, 30.0).is_empty());
    }
}
