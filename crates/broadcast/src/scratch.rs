//! Reusable per-query working buffers: the index path's own, and those
//! the layers above it (peer replies, the merged region, NNV) keep here.

use crate::BucketId;
use std::any::Any;
use std::fmt;

/// Vectors of one element type kept for reuse; beyond this many the
/// surplus is dropped, so a caller that hands back more than it takes
/// cannot grow the pool without bound.
const POOL_CAP: usize = 16;

/// Scratch buffers threaded through every per-query API — the
/// index-path calls ([`crate::AirIndex`]'s `*_scratch` methods and
/// [`crate::OnAirClient`]'s `*_rec` and `*_cost` methods), the peer
/// share exchange, the merged-region build and SBNN/SBWQ — so that a
/// steady-state query performs no heap allocation: after a few warm-up
/// queries the buffers reach their high-water marks and every later
/// query reuses them in place.
///
/// Three kinds of buffer live here:
///
/// * The index path's own fields: curve intervals and the bucket plan.
/// * **Retained values** of the crates above, one per type
///   ([`QueryScratch::retained`]): the peer-reply arena, the merged
///   region, NNV's and SBWQ's working sets, and the simulator's
///   per-worker outcome sink for a batch. A layer that needs its buffers
///   while also passing the scratch on takes them out with
///   `std::mem::take` and puts them back when done.
/// * **Vector pools**, one per element type ([`QueryScratch::take_vec`],
///   [`QueryScratch::recycle`]): the owned vectors inside query results
///   (an on-air retrieval's POIs, SBNN's neighbors, SBWQ's windows) are
///   drawn from here, and a caller that is done with a result hands
///   them back. A caller that keeps them simply costs the next query
///   a fresh allocation.
///
/// Ownership rules:
///
/// * One `QueryScratch` per worker (simulation shard, service worker,
///   benchmark thread). The buffers carry no query state between calls
///   — every user clears what it writes — so a scratch may be reused
///   across queries of any kind, but never shared concurrently.
/// * Index-path methods leave their *result* in
///   [`QueryScratch::buckets`]; callers must copy it out (or finish
///   consuming it) before issuing the next scratch call.
/// * Allocation-free operation is a steady-state property: a fresh
///   scratch still grows its buffers on first use. Cloning copies the
///   index buffers only; a clone's retained values and pools start empty.
#[derive(Default)]
pub struct QueryScratch {
    /// Curve intervals of the current predicate, possibly accumulated
    /// across several reduced windows and merged in place.
    pub(crate) intervals: Vec<(u64, u64)>,
    /// Per-window decomposition output, before accumulation.
    pub(crate) tmp_intervals: Vec<(u64, u64)>,
    /// Bucket ids of the current predicate (sorted, deduplicated).
    pub(crate) buckets: Vec<BucketId>,
    /// Retained values and vector pools, at most one of each type.
    retained: Vec<Box<dyn Any + Send>>,
}

impl QueryScratch {
    /// Fresh scratch with empty (unallocated) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket ids produced by the most recent `*_scratch` index call.
    pub fn buckets(&self) -> &[BucketId] {
        &self.buckets
    }

    /// The retained value of type `T`, created by `T::default()` on first
    /// use. Its contents are whatever its last user left; users clear
    /// what they read.
    pub fn retained<T: Default + Send + 'static>(&mut self) -> &mut T {
        let at = match self.retained.iter().position(|b| b.is::<T>()) {
            Some(at) => at,
            None => {
                self.retained.push(Box::<T>::default());
                self.retained.len() - 1
            }
        };
        self.retained[at]
            .downcast_mut()
            .expect("slot found by its type")
    }

    /// An empty vector, with the capacity of one handed back earlier
    /// through [`QueryScratch::recycle`] when there is one.
    pub fn take_vec<T: Send + 'static>(&mut self) -> Vec<T> {
        self.retained::<Vec<Vec<T>>>().pop().unwrap_or_default()
    }

    /// Hands a vector back for a later [`QueryScratch::take_vec`]; its
    /// contents are dropped, its capacity kept.
    pub fn recycle<T: Send + 'static>(&mut self, mut v: Vec<T>) {
        v.clear();
        let pool = self.retained::<Vec<Vec<T>>>();
        if v.capacity() > 0 && pool.len() < POOL_CAP {
            pool.push(v);
        }
    }
}

impl Clone for QueryScratch {
    fn clone(&self) -> Self {
        Self {
            intervals: self.intervals.clone(),
            tmp_intervals: self.tmp_intervals.clone(),
            buckets: self.buckets.clone(),
            retained: Vec::new(),
        }
    }
}

impl fmt::Debug for QueryScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryScratch")
            .field("intervals", &self.intervals)
            .field("tmp_intervals", &self.tmp_intervals)
            .field("buckets", &self.buckets)
            .field("retained", &self.retained.len())
            .finish()
    }
}

#[cfg(test)]
impl QueryScratch {
    /// The bucket set one planner call leaves in a fresh scratch.
    pub(crate) fn planned(plan: impl FnOnce(&mut Self)) -> Vec<BucketId> {
        let mut scratch = Self::new();
        plan(&mut scratch);
        scratch.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retained_values_persist_per_type() {
        let mut s = QueryScratch::new();
        s.retained::<Vec<u32>>().push(7);
        s.retained::<Vec<u64>>().push(9);
        assert_eq!(s.retained::<Vec<u32>>(), &[7]);
        assert_eq!(s.retained::<Vec<u64>>(), &[9]);
    }

    #[test]
    fn recycled_vectors_come_back_empty_with_their_capacity() {
        let mut s = QueryScratch::new();
        let mut v: Vec<u32> = s.take_vec();
        v.extend(0..100);
        let cap = v.capacity();
        s.recycle(v);
        let again: Vec<u32> = s.take_vec();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
        assert_eq!(s.take_vec::<u32>().capacity(), 0, "the pool held one");
    }
}
