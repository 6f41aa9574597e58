//! Broadcast buckets — the unit of airtime.

use crate::Poi;
use airshare_geom::Rect;

/// Index of a data bucket within the broadcast file (0-based, in
/// broadcast order).
pub type BucketId = usize;

/// A fixed-capacity broadcast bucket holding POIs that are consecutive in
/// Hilbert order. One bucket takes one tick of airtime.
#[derive(Clone, Debug)]
pub struct Bucket {
    /// Position in the broadcast file.
    pub id: BucketId,
    /// Inclusive range of Hilbert values of the POIs inside.
    pub hilbert_range: (u64, u64),
    /// Minimum bounding rectangle of the POI positions inside.
    pub mbr: Rect,
    /// The data payload.
    pub pois: Vec<Poi>,
}

impl Bucket {
    /// Builds a bucket from POIs already sorted by Hilbert value.
    /// `values` are the corresponding Hilbert values. Panics when empty.
    pub(crate) fn build(id: BucketId, pois: Vec<Poi>, values: &[u64]) -> Self {
        assert!(!pois.is_empty() && pois.len() == values.len());
        let mbr = Rect::bounding(pois.iter().map(|p| p.pos)).expect("non-empty bucket");
        let lo = *values.first().expect("non-empty");
        let hi = *values.last().expect("non-empty");
        debug_assert!(lo <= hi, "values must be sorted");
        Self {
            id,
            hilbert_range: (lo, hi),
            mbr,
            pois,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_geom::Point;

    #[test]
    fn build_computes_range_and_mbr() {
        let pois = vec![
            Poi::new(0, Point::new(1.0, 1.0)),
            Poi::new(1, Point::new(2.0, 3.0)),
        ];
        let b = Bucket::build(0, pois, &[10, 12]);
        assert_eq!(b.hilbert_range, (10, 12));
        assert_eq!(b.mbr, Rect::from_coords(1.0, 1.0, 2.0, 3.0));
    }
}
