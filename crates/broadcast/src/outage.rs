//! Base-station outage windows.
//!
//! A real broadcast tower goes dark: maintenance, backhaul loss, power.
//! During an outage the channel carries nothing — clients cannot probe,
//! read the index, or download buckets, and must degrade to whatever
//! cached or peer knowledge they hold. [`OutageSchedule`] models this as
//! a set of half-open silence windows over an abstract *slot* axis; the
//! simulator instantiates it over epoch numbers so outage membership is
//! decided by exactly the same arithmetic that groups events into
//! epochs (no floating-point edge can disagree between the sequential
//! and parallel engines).
//!
//! The schedule is pure configured data — no randomness — so it is
//! trivially deterministic and, when empty, completely inert.

/// A set of half-open `[start, end)` silence windows on the broadcast
/// channel, normalized (sorted, overlaps merged) at construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OutageSchedule {
    /// Sorted, disjoint, non-empty half-open windows.
    windows: Vec<(u64, u64)>,
}

impl OutageSchedule {
    /// Builds a schedule from arbitrary `[start, end)` windows. Empty or
    /// inverted windows (`start >= end`) are dropped; overlapping and
    /// adjacent windows are merged. (The simulator's config validation
    /// rejects inverted windows *before* they get here — dropping them
    /// keeps this type total for direct users.)
    pub fn new(mut windows: Vec<(u64, u64)>) -> Self {
        windows.retain(|&(s, e)| s < e);
        windows.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(windows.len());
        for (s, e) in windows {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        OutageSchedule { windows: merged }
    }

    /// Whether the channel is silent at `slot`.
    pub fn is_silent(&self, slot: u64) -> bool {
        // Windows are sorted and disjoint: find the last window starting
        // at or before `slot` and check containment.
        match self.windows.partition_point(|&(s, _)| s <= slot) {
            0 => false,
            i => slot < self.windows[i - 1].1,
        }
    }

    /// No outage windows are configured: the schedule is inert.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The normalized windows (sorted, disjoint, non-empty).
    pub fn windows(&self) -> &[(u64, u64)] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_always_live() {
        let s = OutageSchedule::default();
        assert!(s.is_empty());
        for slot in [0, 1, 1000, u64::MAX] {
            assert!(!s.is_silent(slot));
        }
    }

    #[test]
    fn membership_is_half_open() {
        let s = OutageSchedule::new(vec![(10, 20)]);
        assert!(!s.is_silent(9));
        assert!(s.is_silent(10));
        assert!(s.is_silent(19));
        assert!(!s.is_silent(20));
    }

    #[test]
    fn windows_normalize_to_sorted_disjoint() {
        let s = OutageSchedule::new(vec![(30, 40), (5, 10), (8, 12), (12, 15), (40, 40), (9, 3)]);
        // (8,12) overlaps (5,10); (12,15) is adjacent and merges too;
        // (40,40) and (9,3) are empty/inverted and dropped.
        assert_eq!(s.windows(), &[(5, 15), (30, 40)]);
        assert!(s.is_silent(5) && s.is_silent(14) && !s.is_silent(15));
        assert!(s.is_silent(39) && !s.is_silent(29));
    }

    #[test]
    fn brute_force_agreement() {
        let s = OutageSchedule::new(vec![(3, 7), (9, 10), (20, 25)]);
        for slot in 0..30u64 {
            let expect = (3..7).contains(&slot) || slot == 9 || (20..25).contains(&slot);
            assert_eq!(s.is_silent(slot), expect, "slot {slot}");
        }
    }
}
