//! `(1, m)` broadcast-cycle timing.

use crate::BucketId;
use std::fmt;

/// Rejected [`Schedule`] parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// `m == 0`: the index must appear at least once per cycle.
    ZeroReplication,
    /// `index_buckets == 0`: an index segment cannot be empty.
    ZeroIndexBuckets,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::ZeroReplication => write!(f, "index replication m must be ≥ 1"),
            ScheduleError::ZeroIndexBuckets => {
                write!(f, "index must occupy at least one bucket")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The `(1, m)` index allocation of Imielinski et al. (paper Figure 2):
/// the full index is broadcast `m` times per cycle, each occurrence
/// preceding `1/m` of the data file.
///
/// A cycle therefore looks like
///
/// ```text
/// [ index ][ data slice 0 ][ index ][ data slice 1 ] … [ index ][ slice m-1 ]
/// ```
///
/// All times are in ticks (one bucket of airtime). Absolute time starts
/// at 0 with the first index segment of cycle 0.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    data_buckets: usize,
    index_buckets: usize,
    m: usize,
}

impl Schedule {
    /// Creates a schedule, rejecting impossible parameters: `m ≥ 1` and
    /// `index_buckets ≥ 1` are required. `m` larger than the number of
    /// data buckets is clamped (replicating the index more often than
    /// data slices exist is harmless but pointless).
    pub fn try_new(
        data_buckets: usize,
        index_buckets: usize,
        m: usize,
    ) -> Result<Self, ScheduleError> {
        if m < 1 {
            return Err(ScheduleError::ZeroReplication);
        }
        if index_buckets < 1 {
            return Err(ScheduleError::ZeroIndexBuckets);
        }
        Ok(Self {
            data_buckets,
            index_buckets,
            m: m.min(data_buckets.max(1)),
        })
    }

    /// Creates the `(1, m)` schedule matching a built air index: data and
    /// index segment sizes are read off the backend, so the pair is
    /// consistent by construction for any [`crate::AirIndexBackend`].
    pub fn try_for_backend(
        backend: &dyn crate::AirIndexBackend,
        m: usize,
    ) -> Result<Self, ScheduleError> {
        Self::try_new(backend.data_buckets(), backend.index_buckets(), m)
    }

    /// Number of data buckets per cycle.
    pub fn data_buckets(&self) -> usize {
        self.data_buckets
    }

    /// Ticks one index segment occupies.
    pub fn index_buckets(&self) -> usize {
        self.index_buckets
    }

    /// The replication factor `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total cycle length in ticks: `m · index + data`.
    pub fn cycle_len(&self) -> u64 {
        (self.m * self.index_buckets + self.data_buckets) as u64
    }

    /// First data bucket of slice `s` (balanced partition).
    fn slice_start(&self, s: usize) -> usize {
        s * self.data_buckets / self.m
    }

    /// Cycle-relative start time of the `s`-th index segment.
    fn segment_start(&self, s: usize) -> u64 {
        (s * self.index_buckets + self.slice_start(s)) as u64
    }

    /// Cycle-relative time at which data bucket `b` begins transmission.
    ///
    /// Closed form: the slice containing `b` is the largest `s` with
    /// `⌊s·D/m⌋ ≤ b`, i.e. `s = min(m-1, ⌊((b+1)·m - 1) / D⌋)` for `D`
    /// data buckets — no scan over the slices.
    pub fn bucket_offset(&self, b: BucketId) -> u64 {
        debug_assert!(b < self.data_buckets);
        let s = (((b + 1) * self.m - 1) / self.data_buckets.max(1)).min(self.m - 1);
        debug_assert!(self.slice_start(s) <= b);
        debug_assert!(s + 1 == self.m || self.slice_start(s + 1) > b);
        self.segment_start(s) + (self.index_buckets + b - self.slice_start(s)) as u64
    }

    /// Earliest absolute start time `≥ t` of an index segment — the
    /// client's *initial probe* target.
    ///
    /// Closed form: with cycle length `L` and cycle-relative time `w`,
    /// the first segment not yet started is `s = ⌈w·m / L⌉`, because
    /// `segment_start(s) = s·I + ⌊s·D/m⌋` is sandwiched in
    /// `[s·L/m - 1, s·L/m]` — so no scan over the segments either.
    pub fn next_index_start(&self, t: u64) -> u64 {
        let cl = self.cycle_len();
        let cycle = t / cl;
        let within = t % cl;
        let s = ((within * self.m as u64).div_ceil(cl)) as usize;
        if s == self.m {
            return (cycle + 1) * cl; // first segment of the next cycle
        }
        debug_assert!(self.segment_start(s) >= within);
        debug_assert!(s == 0 || self.segment_start(s - 1) < within);
        cycle * cl + self.segment_start(s)
    }

    /// Earliest absolute completion time of data bucket `b` whose
    /// transmission starts at or after `t`. (A bucket started at `x`
    /// completes at `x + 1`.)
    pub fn bucket_completion_after(&self, b: BucketId, t: u64) -> u64 {
        let cl = self.cycle_len();
        let off = self.bucket_offset(b);
        let cycle = t / cl;
        let start = if cycle * cl + off >= t {
            cycle * cl + off
        } else {
            (cycle + 1) * cl + off
        };
        start + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_layout_m1() {
        // index(2) + data(6): cycle = 8.
        let s = Schedule::try_new(6, 2, 1).unwrap();
        assert_eq!(s.cycle_len(), 8);
        assert_eq!(s.bucket_offset(0), 2);
        assert_eq!(s.bucket_offset(5), 7);
        assert_eq!(s.next_index_start(0), 0);
        assert_eq!(s.next_index_start(1), 8);
    }

    #[test]
    fn cycle_layout_m2_balanced() {
        // 6 data buckets, index 2, m=2:
        // [idx 0..2][d0 d1 d2][idx 7..9][d3 d4 d5], cycle = 10.
        let s = Schedule::try_new(6, 2, 2).unwrap();
        assert_eq!(s.cycle_len(), 10);
        assert_eq!(s.bucket_offset(0), 2);
        assert_eq!(s.bucket_offset(2), 4);
        assert_eq!(s.bucket_offset(3), 7);
        assert_eq!(s.bucket_offset(5), 9);
        assert_eq!(s.next_index_start(0), 0);
        assert_eq!(s.next_index_start(1), 5);
        assert_eq!(s.next_index_start(5), 5);
        assert_eq!(s.next_index_start(6), 10);
    }

    #[test]
    fn uneven_slices_are_balanced() {
        // 7 data buckets over m=3: slices of 2,3,2 (floor partition
        // boundaries at 0, 2, 4).
        let s = Schedule::try_new(7, 1, 3).unwrap();
        assert_eq!(s.cycle_len(), 10);
        // Every bucket has a unique, increasing offset.
        let offs: Vec<u64> = (0..7).map(|b| s.bucket_offset(b)).collect();
        for w in offs.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(offs.iter().all(|&o| o < 10));
    }

    #[test]
    fn bucket_completion_wraps_to_next_cycle() {
        let s = Schedule::try_new(6, 2, 1).unwrap();
        // Bucket 0 starts at offset 2; from t=0 it completes at 3.
        assert_eq!(s.bucket_completion_after(0, 0), 3);
        // From t=3 (just missed), the next occurrence is cycle 1: 8+2+1.
        assert_eq!(s.bucket_completion_after(0, 3), 11);
        // Exactly at its start time counts as caught.
        assert_eq!(s.bucket_completion_after(0, 2), 3);
    }

    #[test]
    fn try_new_rejects_impossible_layouts() {
        assert_eq!(
            Schedule::try_new(6, 2, 0).unwrap_err(),
            ScheduleError::ZeroReplication
        );
        assert_eq!(
            Schedule::try_new(6, 0, 1).unwrap_err(),
            ScheduleError::ZeroIndexBuckets
        );
        assert!(Schedule::try_new(6, 2, 1).is_ok());
    }

    #[test]
    fn m_clamped_to_data_buckets() {
        let s = Schedule::try_new(2, 1, 100).unwrap();
        assert_eq!(s.m(), 2);
    }

    #[test]
    fn closed_forms_match_linear_scans() {
        // The pre-optimization O(m) scans, kept as the oracle.
        fn bucket_offset_scan(s: &Schedule, b: BucketId) -> u64 {
            let sl = (0..s.m())
                .rev()
                .find(|&sl| s.slice_start(sl) <= b)
                .expect("bucket belongs to some slice");
            s.segment_start(sl) + (s.index_buckets() + b - s.slice_start(sl)) as u64
        }
        fn next_index_start_scan(s: &Schedule, t: u64) -> u64 {
            let cl = s.cycle_len();
            let (cycle, within) = (t / cl, t % cl);
            for sl in 0..s.m() {
                if s.segment_start(sl) >= within {
                    return cycle * cl + s.segment_start(sl);
                }
            }
            (cycle + 1) * cl
        }
        for data in [1usize, 2, 5, 6, 7, 13, 120] {
            for idx in [1usize, 2, 4] {
                for m in [1usize, 2, 3, 5, 12, 200] {
                    let s = Schedule::try_new(data, idx, m).unwrap();
                    for b in 0..data {
                        assert_eq!(
                            s.bucket_offset(b),
                            bucket_offset_scan(&s, b),
                            "offset(D={data}, I={idx}, m={m}, b={b})"
                        );
                    }
                    for t in 0..2 * s.cycle_len() {
                        assert_eq!(
                            s.next_index_start(t),
                            next_index_start_scan(&s, t),
                            "probe(D={data}, I={idx}, m={m}, t={t})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn average_index_wait_shrinks_with_m() {
        // The whole point of (1, m): probing waits ~cycle/(2m) for an
        // index. Check monotonicity empirically.
        let data = 120;
        let idx = 4;
        let wait = |m: usize| {
            let s = Schedule::try_new(data, idx, m).unwrap();
            let cl = s.cycle_len();
            (0..cl)
                .map(|t| (s.next_index_start(t) - t) as f64)
                .sum::<f64>()
                / cl as f64
        };
        let w1 = wait(1);
        let w4 = wait(4);
        let w12 = wait(12);
        assert!(w4 < w1, "{w4} !< {w1}");
        assert!(w12 < w4, "{w12} !< {w4}");
    }
}
