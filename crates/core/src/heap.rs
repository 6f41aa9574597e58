//! The result heap `H` of Table 2 and its six states (§3.3.3).

use airshare_broadcast::Poi;

/// One candidate nearest neighbor in the heap.
#[derive(Clone, Copy, Debug)]
pub struct NnCandidate {
    /// The POI.
    pub poi: Poi,
    /// Euclidean distance to the query point.
    pub distance: f64,
    /// Proven by Lemma 3.1 to be a true top-k neighbor.
    pub verified: bool,
    /// For unverified entries: probability the candidate is the true
    /// next neighbor (Lemma 3.2, `e^{-λu}`). `None` for verified entries.
    pub correctness: Option<f64>,
    /// For unverified entries: the surpassing ratio `‖q,o_u‖ / ‖q,o_lv‖`
    /// against the last verified entry (Table 2). `None` when there is
    /// no verified entry or the entry is verified.
    pub surpassing_ratio: Option<f64>,
}

/// The six post-NNV heap states of §3.3.3, which determine the on-air
/// search bounds available to the broadcast fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapState {
    /// State 1: full, verified and unverified entries → upper and lower
    /// bounds.
    FullMixed,
    /// State 2: full, only unverified entries → upper bound only.
    FullUnverified,
    /// State 3: not full, verified and unverified entries → lower bound.
    PartialMixed,
    /// State 4: not full, only verified entries → lower bound.
    PartialVerified,
    /// State 5: not full, only unverified entries → no bounds.
    PartialUnverified,
    /// State 6: empty → no bounds.
    Empty,
}

/// The heap `H`: up to `k` candidates ascending by distance, the verified
/// ones forming a prefix (NNV verifies by a single distance threshold, so
/// any verified candidate is closer than every unverified one).
#[derive(Clone, Debug)]
pub struct ResultHeap {
    k: usize,
    entries: Vec<NnCandidate>,
}

impl ResultHeap {
    /// An empty heap for a k-NN query.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            k,
            entries: Vec::with_capacity(k),
        }
    }

    /// An empty heap for a k-NN query that fills `entries`' buffer
    /// (cleared first) instead of allocating its own.
    pub(crate) fn with_buffer(k: usize, mut entries: Vec<NnCandidate>) -> Self {
        assert!(k >= 1, "k must be at least 1");
        entries.clear();
        Self { k, entries }
    }

    /// The candidates, ascending by distance, as an owned vector.
    pub fn into_entries(self) -> Vec<NnCandidate> {
        self.entries
    }

    /// The query's `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Candidates ascending by distance.
    pub fn entries(&self) -> &[NnCandidate] {
        &self.entries
    }

    /// Number of candidates held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No candidates held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The heap holds `k` candidates.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.k
    }

    /// Number of verified candidates (`H.verified` in the paper).
    pub fn verified_count(&self) -> usize {
        self.entries.iter().filter(|e| e.verified).count()
    }

    /// All `k` requested neighbors are verified — the query is fulfilled
    /// exactly from peer data.
    pub fn is_fulfilled(&self) -> bool {
        self.is_full() && self.verified_count() == self.k
    }

    /// Pushes a candidate; the caller must push in ascending distance
    /// order (NNV iterates a sorted list). Ignored once full.
    pub(crate) fn push(&mut self, c: NnCandidate) {
        if self.entries.len() >= self.k {
            return;
        }
        debug_assert!(
            self.entries
                .last()
                .map(|l| l.distance <= c.distance + 1e-12)
                .unwrap_or(true),
            "heap must be filled in ascending distance order"
        );
        debug_assert!(
            !(c.verified && self.entries.last().map(|l| !l.verified).unwrap_or(false)),
            "verified candidate after an unverified one breaks the prefix"
        );
        self.entries.push(c);
    }

    /// The state of the heap per §3.3.3.
    pub fn state(&self) -> HeapState {
        let full = self.is_full();
        let v = self.verified_count();
        let u = self.len() - v;
        match (full, v > 0, u > 0) {
            (_, false, false) => HeapState::Empty,
            (true, true, true) => HeapState::FullMixed,
            (true, false, true) => HeapState::FullUnverified,
            (true, true, false) => HeapState::FullMixed, // fully verified ⊂ state 1 semantics
            (false, true, true) => HeapState::PartialMixed,
            (false, true, false) => HeapState::PartialVerified,
            (false, false, true) => HeapState::PartialUnverified,
        }
    }

    /// The on-air *upper* search bound: the distance of the last (k-th)
    /// entry when the heap is full — the true k-th NN can be no farther
    /// (States 1 and 2).
    pub fn upper_bound(&self) -> Option<f64> {
        self.is_full().then(|| {
            self.entries
                .last()
                .map(|e| e.distance)
                .expect("full heap is non-empty")
        })
    }

    /// The on-air *lower* search bound `d_v`: the distance of the last
    /// verified entry. Every POI within the circle `C_i(q, d_v)` is
    /// already known, so buckets fully covered by it can be skipped
    /// (States 1, 3, 4).
    pub fn lower_bound(&self) -> Option<f64> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.verified)
            .map(|e| e.distance)
    }

    /// Every unverified entry clears the correctness threshold — the
    /// condition for an *approximate* SBNN answer (§4.2 counts answers
    /// with correctness probability above 50 %).
    pub fn approximate_acceptable(&self, min_correctness: f64) -> bool {
        self.is_full()
            && self
                .entries
                .iter()
                .filter(|e| !e.verified)
                .all(|e| e.correctness.unwrap_or(0.0) >= min_correctness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_geom::Point;

    fn cand(id: u32, d: f64, verified: bool) -> NnCandidate {
        NnCandidate {
            poi: Poi::new(id, Point::new(d, 0.0)),
            distance: d,
            verified,
            correctness: (!verified).then_some(0.7),
            surpassing_ratio: None,
        }
    }

    #[test]
    fn states_enumerate_correctly() {
        // State 6: empty.
        let h = ResultHeap::new(3);
        assert_eq!(h.state(), HeapState::Empty);

        // State 4: partial, verified only.
        let mut h = ResultHeap::new(3);
        h.push(cand(0, 1.0, true));
        assert_eq!(h.state(), HeapState::PartialVerified);
        assert_eq!(h.lower_bound(), Some(1.0));
        assert_eq!(h.upper_bound(), None);

        // State 3: partial, mixed.
        h.push(cand(1, 2.0, false));
        assert_eq!(h.state(), HeapState::PartialMixed);
        assert_eq!(h.lower_bound(), Some(1.0));

        // State 1: full, mixed.
        h.push(cand(2, 3.0, false));
        assert_eq!(h.state(), HeapState::FullMixed);
        assert_eq!(h.upper_bound(), Some(3.0));
        assert_eq!(h.lower_bound(), Some(1.0));

        // State 5: partial, unverified only.
        let mut h = ResultHeap::new(3);
        h.push(cand(0, 1.0, false));
        assert_eq!(h.state(), HeapState::PartialUnverified);
        assert_eq!(h.lower_bound(), None);
        assert_eq!(h.upper_bound(), None);

        // State 2: full, unverified only.
        h.push(cand(1, 2.0, false));
        h.push(cand(2, 3.0, false));
        assert_eq!(h.state(), HeapState::FullUnverified);
        assert_eq!(h.upper_bound(), Some(3.0));
        assert_eq!(h.lower_bound(), None);
    }

    #[test]
    fn fulfilled_requires_k_verified() {
        let mut h = ResultHeap::new(2);
        h.push(cand(0, 1.0, true));
        assert!(!h.is_fulfilled());
        h.push(cand(1, 2.0, true));
        assert!(h.is_fulfilled());
    }

    #[test]
    fn push_ignores_overflow() {
        let mut h = ResultHeap::new(1);
        h.push(cand(0, 1.0, true));
        h.push(cand(1, 2.0, false));
        assert_eq!(h.len(), 1);
        assert_eq!(h.entries()[0].poi.id, 0);
    }

    #[test]
    fn approximate_acceptance_threshold() {
        let mut h = ResultHeap::new(2);
        h.push(cand(0, 1.0, true));
        let mut weak = cand(1, 2.0, false);
        weak.correctness = Some(0.4);
        h.push(weak);
        assert!(!h.approximate_acceptable(0.5));
        assert!(h.approximate_acceptable(0.3));
        // A partial heap is never acceptable.
        let mut p = ResultHeap::new(3);
        p.push(cand(0, 1.0, true));
        assert!(!p.approximate_acceptable(0.0));
    }

    #[test]
    fn fully_verified_full_heap_reports_bounds() {
        let mut h = ResultHeap::new(2);
        h.push(cand(0, 1.0, true));
        h.push(cand(1, 2.0, true));
        assert!(h.is_fulfilled());
        assert_eq!(h.upper_bound(), Some(2.0));
        assert_eq!(h.lower_bound(), Some(2.0));
    }
}
