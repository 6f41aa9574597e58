//! Reusable per-query working buffers for the index path.

use crate::BucketId;

/// Scratch buffers threaded through the index-path query APIs
/// ([`crate::AirIndex`]'s `*_scratch` methods and
/// [`crate::OnAirClient`]'s `*_rec` and `*_cost` methods) so that steady-state
/// queries perform no heap allocation: after a few warm-up queries the
/// buffers reach their high-water marks and every later decomposition,
/// interval merge, and bucket mapping reuses them in place.
///
/// Ownership rules:
///
/// * One `QueryScratch` per worker (simulation shard, benchmark thread).
///   The buffers carry no query state between calls — every method that
///   takes a scratch clears what it writes — so a scratch may be reused
///   across queries of any kind, but never shared concurrently.
/// * Methods leave their *result* in [`QueryScratch::buckets`]; callers
///   must copy it out (or finish consuming it) before issuing the next
///   scratch call.
/// * Allocation-free operation is a steady-state property: a fresh
///   scratch still grows its buffers on first use.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    /// Curve intervals of the current predicate, possibly accumulated
    /// across several reduced windows and merged in place.
    pub(crate) intervals: Vec<(u64, u64)>,
    /// Per-window decomposition output, before accumulation.
    pub(crate) tmp_intervals: Vec<(u64, u64)>,
    /// Bucket ids of the current predicate (sorted, deduplicated).
    pub(crate) buckets: Vec<BucketId>,
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
