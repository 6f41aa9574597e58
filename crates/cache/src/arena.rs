//! Arena-backed storage for cache entries, addressed by generational
//! handles.
//!
//! A fleet-scale cache cannot afford one heap allocation per entry per
//! host: a million hosts each holding a handful of `Vec<Poi>`-backed
//! entries is millions of small allocations churned every epoch. The
//! [`EntryArena`] instead keeps every entry of one host cache in two
//! flat buffers — a slot table of fixed-size entry metadata and a shared
//! pool of [`PoiId`] handles — and hands out [`EntryId`] generational
//! indices. Steady-state insert/evict traffic then allocates nothing:
//! freed slots are reused through a free list, and the POI pool is
//! compacted in place (amortized O(1)) once garbage reaches half the
//! pool.
//!
//! ## Handle lifetimes
//!
//! An [`EntryId`] is an index plus a generation counter. Removing an
//! entry bumps its slot's generation, so a stale handle held across a
//! removal can never alias a later entry that reuses the slot —
//! [`EntryArena::get`] returns `None` for it. Handles are only
//! meaningful against the arena that issued them.

use airshare_broadcast::{PoiId, PoiTable};
use airshare_geom::Rect;

/// Generational handle to one entry in an [`EntryArena`].
///
/// `Copy`, 8 bytes, and safe to hold across mutations: if the entry it
/// named has been removed (even if the slot was reused), lookups return
/// `None` instead of aliasing the new occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId {
    index: u32,
    generation: u32,
}

impl EntryId {
    /// The slot index (stable while the entry is live).
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The generation the slot had when this handle was issued.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// One slot of entry metadata. The POI membership lives as a
/// `[start, start+len)` span in the arena's shared pool.
#[derive(Clone, Copy, Debug)]
struct Slot {
    generation: u32,
    live: bool,
    vr: Rect,
    last_used: f64,
    start: u32,
    len: u32,
}

/// A borrowed view of one live cache entry: the verified region, its
/// last-use time, and the POI membership as handles into the canonical
/// [`PoiTable`].
#[derive(Clone, Copy, Debug)]
pub struct EntryView<'a> {
    /// The verified region.
    pub vr: Rect,
    /// Last time this entry served a query (for LRU).
    pub last_used: f64,
    /// Handles of the POIs inside `vr`, in stored order.
    pub poi_ids: &'a [PoiId],
}

impl<'a> EntryView<'a> {
    /// Number of POIs carried.
    pub fn len(&self) -> usize {
        self.poi_ids.len()
    }

    /// The entry carries no POIs.
    pub fn is_empty(&self) -> bool {
        self.poi_ids.is_empty()
    }

    /// Whether the entry honors the containment invariant *against the
    /// canonical table*: well-formed finite region, every handle
    /// resolvable, every resolved position inside the region.
    pub fn is_consistent(&self, table: &PoiTable) -> bool {
        let r = &self.vr;
        r.x1.is_finite()
            && r.y1.is_finite()
            && r.x2.is_finite()
            && r.y2.is_finite()
            && r.x1 <= r.x2
            && r.y1 <= r.y2
            && self
                .poi_ids
                .iter()
                .all(|&id| table.get(id).is_some_and(|p| r.contains(p.pos)))
    }
}

/// Arena storage for the entries of one host cache.
///
/// See the module docs for the memory model. Cloning an arena clones
/// the flat buffers; [`Clone::clone_from`] reuses the destination's
/// buffers, which is what keeps the simulator's per-epoch cache
/// snapshots allocation-free once warm.
#[derive(Debug, Default)]
pub struct EntryArena {
    slots: Vec<Slot>,
    pool: Vec<PoiId>,
    free: Vec<u32>,
    /// Scratch buffer for in-place pool compaction (kept to retain
    /// capacity between compactions).
    scratch: Vec<PoiId>,
    /// Dead handles still occupying pool space.
    garbage: usize,
}

impl Clone for EntryArena {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            pool: self.pool.clone(),
            free: self.free.clone(),
            scratch: Vec::new(),
            garbage: self.garbage,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.pool.clone_from(&source.pool);
        self.free.clone_from(&source.free);
        self.garbage = source.garbage;
    }
}

impl EntryArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the arena holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total POI handles held by live entries.
    pub fn pool_live(&self) -> usize {
        self.pool.len() - self.garbage
    }

    /// Inserts an entry, pushing its POI handles into the pool.
    /// Compacts the pool first when garbage has reached half of it, so
    /// pool capacity stays bounded by ~2× the live watermark.
    pub fn insert(
        &mut self,
        vr: Rect,
        last_used: f64,
        ids: impl IntoIterator<Item = PoiId>,
    ) -> EntryId {
        if self.garbage > 0 && 2 * self.garbage >= self.pool.len() {
            self.compact();
        }
        let start = self.pool.len() as u32;
        self.pool.extend(ids);
        let len = self.pool.len() as u32 - start;
        let slot = Slot {
            generation: 0, // patched below for reused slots
            live: true,
            vr,
            last_used,
            start,
            len,
        };
        match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                let generation = s.generation;
                *s = Slot { generation, ..slot };
                EntryId {
                    index: i,
                    generation,
                }
            }
            None => {
                self.slots.push(slot);
                EntryId {
                    index: (self.slots.len() - 1) as u32,
                    generation: 0,
                }
            }
        }
    }

    /// Removes an entry. Returns `false` (and does nothing) for a stale
    /// or foreign handle. The slot's generation is bumped so existing
    /// handles to it become invalid; its pool span becomes garbage to be
    /// reclaimed by the next compaction.
    pub fn remove(&mut self, id: EntryId) -> bool {
        match self.slots.get_mut(id.index()) {
            Some(s) if s.live && s.generation == id.generation => {
                s.live = false;
                s.generation = s.generation.wrapping_add(1);
                self.garbage += s.len as usize;
                self.free.push(id.index);
                true
            }
            _ => false,
        }
    }

    /// Whether the handle names a live entry.
    pub fn contains(&self, id: EntryId) -> bool {
        self.slot(id).is_some()
    }

    #[inline]
    fn slot(&self, id: EntryId) -> Option<&Slot> {
        self.slots
            .get(id.index())
            .filter(|s| s.live && s.generation == id.generation)
    }

    /// A view of the entry, or `None` for a stale/foreign handle.
    pub fn get(&self, id: EntryId) -> Option<EntryView<'_>> {
        self.slot(id).map(|s| EntryView {
            vr: s.vr,
            last_used: s.last_used,
            poi_ids: &self.pool[s.start as usize..(s.start + s.len) as usize],
        })
    }

    fn expect_slot(&self, id: EntryId) -> &Slot {
        self.slot(id).expect("stale EntryId")
    }

    /// The entry's verified region. Panics on a stale handle (internal
    /// callers hold only live handles).
    #[inline]
    pub fn vr(&self, id: EntryId) -> Rect {
        self.expect_slot(id).vr
    }

    /// The entry's last-used time. Panics on a stale handle.
    #[inline]
    pub fn last_used(&self, id: EntryId) -> f64 {
        self.expect_slot(id).last_used
    }

    /// POI count of the entry. Panics on a stale handle.
    #[inline]
    pub fn poi_len(&self, id: EntryId) -> usize {
        self.expect_slot(id).len as usize
    }

    /// The entry's POI handles. Panics on a stale handle.
    #[inline]
    pub fn poi_ids(&self, id: EntryId) -> &[PoiId] {
        let s = self.expect_slot(id);
        &self.pool[s.start as usize..(s.start + s.len) as usize]
    }

    /// Marks the entry as used at `t`. Panics on a stale handle.
    #[inline]
    pub fn set_last_used(&mut self, id: EntryId, t: f64) {
        let idx = id.index();
        let s = self
            .slots
            .get_mut(idx)
            .filter(|s| s.live && s.generation == id.generation)
            .expect("stale EntryId");
        s.last_used = t;
    }

    /// Reclaims pool space held by removed entries. Live spans are
    /// copied (in slot order) into a retained scratch buffer that is
    /// swapped in, so a warm arena compacts without allocating.
    pub fn compact(&mut self) {
        if self.garbage == 0 {
            return;
        }
        self.scratch.clear();
        self.scratch.reserve(self.pool.len() - self.garbage);
        for s in &mut self.slots {
            if !s.live {
                continue;
            }
            let new_start = self.scratch.len() as u32;
            self.scratch
                .extend_from_slice(&self.pool[s.start as usize..(s.start + s.len) as usize]);
            s.start = new_start;
        }
        std::mem::swap(&mut self.pool, &mut self.scratch);
        self.garbage = 0;
    }

    /// Removes every entry (generations keep advancing, so handles from
    /// before the clear stay invalid).
    pub fn clear(&mut self) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.live {
                s.live = false;
                s.generation = s.generation.wrapping_add(1);
                self.free.push(i as u32);
            }
        }
        self.pool.clear();
        self.garbage = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_broadcast::Poi;
    use airshare_geom::Point;

    fn rect(s: f64) -> Rect {
        Rect::from_coords(0.0, 0.0, s, s)
    }

    fn ids(range: std::ops::Range<u32>) -> Vec<PoiId> {
        range.map(PoiId).collect()
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut a = EntryArena::new();
        let e = a.insert(rect(1.0), 2.0, ids(0..3));
        assert_eq!(a.len(), 1);
        let v = a.get(e).unwrap();
        assert_eq!(v.vr, rect(1.0));
        assert_eq!(v.last_used, 2.0);
        assert_eq!(v.poi_ids, &[PoiId(0), PoiId(1), PoiId(2)]);
        assert!(a.remove(e));
        assert!(!a.remove(e), "double remove must fail");
        assert!(a.get(e).is_none());
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn stale_handle_never_aliases_reused_slot() {
        let mut a = EntryArena::new();
        let e1 = a.insert(rect(1.0), 0.0, ids(0..2));
        a.remove(e1);
        let e2 = a.insert(rect(2.0), 0.0, ids(5..9));
        // Slot was reused but the old handle stays dead.
        assert_eq!(e1.index(), e2.index());
        assert!(a.get(e1).is_none());
        assert_eq!(a.get(e2).unwrap().poi_ids.len(), 4);
    }

    #[test]
    fn compaction_preserves_spans_and_frees_garbage() {
        let mut a = EntryArena::new();
        let keep1 = a.insert(rect(1.0), 0.0, ids(0..10));
        let drop1 = a.insert(rect(2.0), 0.0, ids(10..30));
        let keep2 = a.insert(rect(3.0), 0.0, ids(30..35));
        a.remove(drop1);
        assert_eq!(a.pool_live(), 15);
        a.compact();
        assert_eq!(a.pool_live(), 15);
        assert_eq!(a.poi_ids(keep1), ids(0..10).as_slice());
        assert_eq!(a.poi_ids(keep2), ids(30..35).as_slice());
    }

    #[test]
    fn steady_state_churn_does_not_grow_pool_unboundedly() {
        let mut a = EntryArena::new();
        let mut live: Vec<EntryId> = Vec::new();
        for round in 0..1000u32 {
            if live.len() >= 8 {
                let victim = live.remove((round as usize) % live.len());
                a.remove(victim);
            }
            live.push(a.insert(rect(1.0), 0.0, ids(round..round + 10)));
        }
        // 8 live entries × 10 ids; pool bounded ~2× the live watermark.
        assert!(a.pool.capacity() <= 400, "pool grew to {}", a.pool.capacity());
        for &e in &live {
            assert!(a.contains(e));
        }
    }

    #[test]
    fn view_consistency_checks_against_table() {
        let table = PoiTable::from_pois([Poi::new(0, Point::new(0.5, 0.5))]);
        let mut a = EntryArena::new();
        let good = a.insert(rect(1.0), 0.0, [PoiId(0)]);
        let unresolvable = a.insert(rect(1.0), 0.0, [PoiId(7)]);
        assert!(a.get(good).unwrap().is_consistent(&table));
        assert!(!a.get(unresolvable).unwrap().is_consistent(&table));
        let outside = a.insert(rect(0.25), 0.0, [PoiId(0)]);
        assert!(!a.get(outside).unwrap().is_consistent(&table));
        let nan = Rect {
            x1: 0.0,
            y1: 0.0,
            x2: f64::NAN,
            y2: 1.0,
        };
        let malformed = a.insert(nan, 0.0, []);
        assert!(!a.get(malformed).unwrap().is_consistent(&table));
    }
}
