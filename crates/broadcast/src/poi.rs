//! Points of interest — the broadcast data items.

use airshare_geom::Point;

/// Typed handle for a POI: the server-assigned identifier, wrapped so
/// that APIs shuttling *references* to POIs (cache entries, peer
/// replies, merged regions) cannot be confused with APIs shuttling the
/// POIs themselves.
///
/// A `PoiId` resolves to its canonical [`Poi`] through a
/// [`PoiTable`](crate::PoiTable): the table owns the single payload
/// copy (position, category) and every cache/reply/report stores only
/// this 4-byte handle. Handles are stable for the lifetime of the
/// table — the broadcast file never reassigns ids within a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PoiId(pub u32);

impl PoiId {
    /// The raw server-assigned identifier.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The identifier as a `usize` index (for dense id spaces).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for PoiId {
    fn from(raw: u32) -> Self {
        PoiId(raw)
    }
}

impl std::fmt::Display for PoiId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "poi#{}", self.0)
    }
}

/// POI category ("data type" in the paper's cache-capacity discussion:
/// gas stations, hospitals, restaurants, … — caches are sized *per data
/// type*).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PoiCategory(pub u8);

impl PoiCategory {
    /// The default category used when an experiment models a single POI
    /// type (the paper uses gas stations throughout §4).
    pub const GAS_STATION: PoiCategory = PoiCategory(0);
}

/// A point of interest: the unit of data on the broadcast channel, in
/// peer caches, and in query results.
///
/// Per the paper's notation, "we use the object identifier to represent
/// its position coordinates" — a POI is identified by `id` and carries
/// its exact location.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Poi {
    /// Server-assigned identifier.
    pub id: u32,
    /// Exact position (miles).
    pub pos: Point,
    /// Data type.
    pub category: PoiCategory,
}

impl Poi {
    /// Creates a POI in the default category.
    pub fn new(id: u32, pos: Point) -> Self {
        Self {
            id,
            pos,
            category: PoiCategory::default(),
        }
    }

    /// The typed handle naming this POI in handle-based APIs.
    #[inline]
    pub fn handle(&self) -> PoiId {
        PoiId(self.id)
    }

    /// Euclidean distance from this POI to `p`.
    pub fn distance_to(&self, p: Point) -> f64 {
        self.pos.distance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_point_distance() {
        let poi = Poi::new(7, Point::new(3.0, 4.0));
        assert!((poi.distance_to(Point::ORIGIN) - 5.0).abs() < 1e-12);
        assert_eq!(poi.category, PoiCategory::GAS_STATION);
        assert_eq!(poi.handle(), PoiId(7));
    }
}
