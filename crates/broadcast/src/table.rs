//! The canonical POI table: one deduplicated copy of every POI payload,
//! addressed by [`PoiId`] handles.
//!
//! Every other layer of the system — index backends, host caches, peer
//! replies, merged regions — refers to POIs by 4-byte [`PoiId`] handles
//! and resolves positions through this table. That keeps a fleet of a
//! million hosts from holding a million redundant copies of the same
//! 32-byte payloads, and it hardens the share protocol: a peer can
//! claim a region contains poi #9, but it cannot forge poi #9's
//! *position* — the receiver resolves the handle against its own table.
//!
//! Ids in this system are server-assigned and dense (`0..n` in
//! broadcast-file order), so the table is a flat `Vec` indexed by id
//! with O(1) resolution; a sorted fallback keeps sparse id spaces
//! (hand-built tests, partial tables) working at O(log n).

use crate::{Poi, PoiId};

/// The canonical, deduplicated POI store for one broadcast file.
///
/// Interning is by server id: two [`Poi`] values with the same `id` are
/// the same POI, and the first payload interned wins. Handles returned
/// by [`intern`](PoiTable::intern) (or built with [`Poi::handle`]) stay
/// valid for the table's lifetime — the table never removes or reorders
/// entries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoiTable {
    /// Sorted ascending by `id`, unique.
    pois: Vec<Poi>,
    /// `pois[i].id == i` for all `i` — enables O(1) [`get`](Self::get).
    dense: bool,
}

impl PoiTable {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            pois: Vec::new(),
            dense: true,
        }
    }

    /// Builds a table from a POI set, interning each in turn.
    pub fn from_pois(pois: impl IntoIterator<Item = Poi>) -> Self {
        let mut t = Self::new();
        for p in pois {
            t.intern(p);
        }
        t
    }

    /// Interns a POI, returning its handle. If the id is already
    /// present, the existing payload is kept and its handle returned.
    pub fn intern(&mut self, poi: Poi) -> PoiId {
        let handle = poi.handle();
        if self.dense {
            let idx = poi.id as usize;
            if idx == self.pois.len() {
                self.pois.push(poi);
                return handle;
            }
            if idx < self.pois.len() {
                return handle; // already interned (dense ⇒ slot idx holds id idx)
            }
            self.dense = false;
        }
        match self.pois.binary_search_by_key(&poi.id, |p| p.id) {
            Ok(_) => {}
            Err(at) => self.pois.insert(at, poi),
        }
        handle
    }

    /// The slot of a handle's POI in [`as_slice`](Self::as_slice), or
    /// `None` for a handle this table never interned. Slots ascend with
    /// ids, so a set of slots read in order is a set of POIs in id order.
    #[inline]
    pub fn slot(&self, id: PoiId) -> Option<usize> {
        if self.dense {
            (id.index() < self.pois.len()).then_some(id.index())
        } else {
            self.pois.binary_search_by_key(&id.raw(), |p| p.id).ok()
        }
    }

    /// Resolves a handle to its canonical POI, or `None` for a handle
    /// this table never interned (e.g. a forged id in a peer reply).
    #[inline]
    pub fn get(&self, id: PoiId) -> Option<&Poi> {
        self.slot(id).map(|i| &self.pois[i])
    }

    /// Whether the table holds this handle.
    #[inline]
    pub fn contains(&self, id: PoiId) -> bool {
        self.get(id).is_some()
    }

    /// Number of interned POIs.
    pub fn len(&self) -> usize {
        self.pois.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.pois.is_empty()
    }

    /// The canonical POIs, sorted by id. For a dense table this is the
    /// broadcast file in server order.
    pub fn as_slice(&self) -> &[Poi] {
        &self.pois
    }

    /// Iterates over the canonical POIs in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, Poi> {
        self.pois.iter()
    }

    /// An owned copy of the POI set (for APIs that still take ownership).
    pub fn to_vec(&self) -> Vec<Poi> {
        self.pois.clone()
    }
}

impl<'a> IntoIterator for &'a PoiTable {
    type Item = &'a Poi;
    type IntoIter = std::slice::Iter<'a, Poi>;
    fn into_iter(self) -> Self::IntoIter {
        self.pois.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_geom::Point;

    #[test]
    fn dense_round_trip() {
        let t = PoiTable::from_pois((0..10).map(|i| Poi::new(i, Point::new(i as f64, 0.0))));
        assert_eq!(t.len(), 10);
        assert!(t.dense);
        for i in 0..10u32 {
            assert_eq!(t.get(PoiId(i)).unwrap().pos.x, i as f64);
        }
        assert!(t.get(PoiId(10)).is_none());
        assert_eq!(t.slot(PoiId(9)), Some(9));
        assert_eq!(t.slot(PoiId(10)), None);
    }

    #[test]
    fn sparse_round_trip() {
        let t = PoiTable::from_pois([
            Poi::new(7, Point::new(7.0, 0.0)),
            Poi::new(3, Point::new(3.0, 0.0)),
            Poi::new(100, Point::new(100.0, 0.0)),
        ]);
        assert!(!t.dense);
        assert_eq!(t.get(PoiId(3)).unwrap().pos.x, 3.0);
        assert_eq!(t.get(PoiId(100)).unwrap().pos.x, 100.0);
        assert!(t.get(PoiId(4)).is_none());
        assert_eq!(t.slot(PoiId(7)), Some(1));
        assert_eq!(t.slot(PoiId(4)), None);
        // as_slice is id-sorted even for sparse tables.
        let ids: Vec<u32> = t.as_slice().iter().map(|p| p.id).collect();
        assert_eq!(ids, [3, 7, 100]);
    }

    #[test]
    fn intern_dedups_by_id() {
        let mut t = PoiTable::new();
        let a = t.intern(Poi::new(0, Point::new(1.0, 1.0)));
        let b = t.intern(Poi::new(0, Point::new(9.0, 9.0))); // forged duplicate
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(a).unwrap().pos, Point::new(1.0, 1.0)); // first wins
    }
}
