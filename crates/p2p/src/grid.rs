//! Uniform-grid neighbor discovery, rebuilt by counting sort.
//!
//! With 200 m cells and the paper's vehicle speeds, 88 % of a
//! million-host fleet changes cell at every epoch boundary (measured),
//! so there is no delta worth tracking: each refresh re-bins from
//! scratch into two flat arrays — a CSR layout of `offsets` per cell
//! and host-id `members` — in linear passes over the position column.
//! Hosts are scattered in ascending id, so every cell comes out
//! id-sorted for free, and the buffers are retained, so a warm refresh
//! allocates nothing.
//!
//! The one pass that must read every host — pass 2: copy its position
//! into the grid, key it, keep it or not — has its loop body compiled
//! per cell layout and per keep rule. Below `FAN_OUT_HOSTS` hosts, or on
//! a one-thread pool, it is one loop on the caller that lists the kept
//! `(id, slot)` pairs as it goes. A large fleet's pass is fanned out over
//! an [`ExecPool`] in contiguous host-id chunks that write each host's
//! slot, or none, to a retained slot column; a serial pass over that
//! column then lists the kept pairs in ascending id, so the result is the
//! inline pass's, bit for bit.
//!
//! A refresh bins either every online host
//! ([`NeighborGrid::refresh_active`]) or only those a known set of
//! queries can reach ([`NeighborGrid::refresh_near`]): the hosts whose
//! cell lies within `rings` cells of some query center's cell. The
//! radius rule: a disk of radius `r` never leaves the `⌈r/cell⌉`-ring
//! of its center's cell, and a relay found there is itself inside that
//! ring, so an `h`-hop flood from a center stays inside its
//! `h·⌈r/cell⌉`-ring. Every lookup inside the marks answers exactly as
//! after a full refresh; a million-host epoch with a few hundred
//! queriers bins a few hundred cells' worth of hosts. Both refreshes
//! are one counting sort: they differ only in the extent and in which
//! hosts pass 2 keeps.
//!
//! Cells are numbered column-major (`x` outer, `y` inner) — the order
//! [`NeighborGrid::neighbors_within`] enumerates them in — so each
//! column of a query's ring is one contiguous run of `members`.

use airshare_exec::ExecPool;
use airshare_geom::{Point, Rect};

/// Cell key: `floor(coordinate / cell)` per axis.
type Key = (i64, i64);

/// A slot column entry for a host that is not binned.
const UNBINNED: u32 = u32::MAX;

/// Fleets smaller than this bin inline on the caller. Probed on 2
/// vCPUs, one marked refresh around 500 centers: inline and two threads
/// tie at 65,536 hosts, and two threads win from 262,144 up (a million:
/// 13–21 ms inline, 9–14 ms fanned out). The 18,660-host city worlds
/// stay on the caller.
const FAN_OUT_HOSTS: usize = 1 << 17;

/// Cells in the inclusive key extent `[min, max]`, if few enough to
/// index directly: at most 8 per host, with a floor for small fleets.
/// `None` means the extent is indexed by its occupied cells instead.
fn dense_cells(min: Key, max: Key, hosts: usize) -> Option<usize> {
    if min.0 > max.0 || min.1 > max.1 {
        return Some(0);
    }
    let nx = max.0 as i128 - min.0 as i128 + 1;
    let ny = max.1 as i128 - min.1 as i128 + 1;
    let cap = (8 * hosts.max(8_192)).min(u32::MAX as usize) as i128;
    nx.checked_mul(ny).filter(|&c| c <= cap).map(|c| c as usize)
}

/// A spatial hash over host positions.
///
/// Cells are squares of side `cell`; a radius-`r` disk query inspects the
/// `⌈r/cell⌉`-ring of cells around the query point. Pick `cell` equal to
/// the maximum transmission range for O(occupants) queries.
///
/// Cell `s` holds `members[offsets[s]..offsets[s + 1]]`, ascending by
/// host id. While the extent stays within 8 cells per host, `s` is
/// computed from the key; past that (a transmission range far below the
/// host spacing) only occupied cells get a slot and `s` is the key's
/// rank in the sorted `keys`. Both numberings are `(x, y)`-lexicographic,
/// so queries answer identically in either.
#[derive(Clone, Debug)]
pub struct NeighborGrid {
    cell: f64,
    positions: Vec<Point>,
    /// Inclusive key extent of the binned cells (`min > max` when there
    /// are none): the indexed hosts' after a full refresh, the marked
    /// rings' bounding box after a marked one.
    min: Key,
    max: Key,
    /// Occupied cell keys, sorted; empty while cells are indexed directly.
    keys: Vec<Key>,
    /// Per-cell start into `members`; two entries longer than the cell
    /// count, which lets the counting sort use it as its own cursor.
    offsets: Vec<u32>,
    members: Vec<u32>,
    /// A fanned-out pass 2's output: each host's slot, or `UNBINNED`.
    /// Empty for a fleet binned on the caller.
    slots: Vec<u32>,
    /// `(host, slot)` of each binned host in ascending id, at the front.
    binned: Vec<(u32, u32)>,
    /// A marked refresh's per-slot marks, one entry past the cells: the
    /// never-marked slot every host outside the extent maps to. Sized on
    /// first use.
    marked: Vec<bool>,
}

impl NeighborGrid {
    /// Builds a grid over host positions (index = host id), every host
    /// online. A later [`NeighborGrid::refresh_active`] takes hosts off
    /// the air.
    pub fn build(positions: Vec<Point>, cell: f64) -> Self {
        let mut grid = Self::empty(cell);
        grid.refresh_active(&positions, &vec![true; positions.len()]);
        grid
    }

    /// An empty grid with buffers reserved for a `hosts`-sized fleet
    /// spread over `bounds`, so that its refreshes do not allocate. The
    /// first [`NeighborGrid::refresh_active`] populates it.
    pub fn with_bounds(bounds: &Rect, cell: f64, hosts: usize) -> Self {
        let mut grid = Self::empty(cell);
        let min = Self::key(Point::new(bounds.x1, bounds.y1), cell);
        let max = Self::key(Point::new(bounds.x2, bounds.y2), cell);
        let dense = dense_cells(min, max, hosts);
        if dense.is_none() {
            grid.keys.reserve(hosts);
        }
        grid.offsets.reserve(dense.unwrap_or(hosts) + 2);
        grid.positions.reserve(hosts);
        grid.members.reserve(hosts);
        if hosts >= FAN_OUT_HOSTS {
            grid.slots.reserve(hosts);
        }
        grid.binned.reserve(hosts);
        grid
    }

    fn empty(cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        Self {
            cell,
            positions: Vec::new(),
            min: (i64::MAX, i64::MAX),
            max: (i64::MIN, i64::MIN),
            keys: Vec::new(),
            offsets: Vec::new(),
            members: Vec::new(),
            slots: Vec::new(),
            binned: Vec::new(),
            marked: Vec::new(),
        }
    }

    fn key(p: Point, cell: f64) -> Key {
        // `(q.floor() as i64)` for every `q`, NaN and infinities
        // included, without the libm call `floor` compiles to on
        // baseline x86-64 (a quarter of a refresh, measured). Below
        // 2^51 in magnitude, adding 1.5 · 2^52 rounds `q` to the nearest
        // integer in the sum's low bits, exactly; step down where that
        // rounded up. Elsewhere: truncate, then step down where
        // truncation rounded up.
        let floor = |q: f64| {
            const MAGIC: f64 = 6_755_399_441_055_744.0;
            if q.abs() < 2_251_799_813_685_248.0 {
                let sum = q + MAGIC;
                let near = sum.to_bits() as i64 - MAGIC.to_bits() as i64;
                near - (q < sum - MAGIC) as i64
            } else {
                let t = q as i64;
                t.saturating_sub((q < t as f64) as i64)
            }
        };
        (floor(p.x / cell), floor(p.y / cell))
    }

    /// Number of indexed hosts.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// The grid indexes no hosts.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Stored position of host `i`.
    pub fn position(&self, i: usize) -> Point {
        self.positions[i]
    }

    /// Brings the grid up to date with the fleet's current positions and
    /// online flags — the epoch loop's maintenance step. Positions are
    /// copied into the grid's retained buffer and every online host is
    /// re-binned; nothing is carried over from the previous refresh, so
    /// the result depends on this call's arguments alone.
    ///
    /// Only hosts with `online[i] == true` are discoverable. Positions are
    /// kept for *all* hosts (so [`NeighborGrid::position`] stays total —
    /// multihop relays need it), but offline hosts never appear in any
    /// neighbor query: a crashed or not-yet-joined host is radio-silent.
    pub fn refresh_active(&mut self, positions: &[Point], online: &[bool]) {
        self.rebuild(positions, online, None, &ExecPool::sequential());
    }

    /// [`NeighborGrid::refresh_active`] for a known set of lookups: bins
    /// only the online hosts whose cell is within `rings` cells, per
    /// axis, of some center's cell. A [`NeighborGrid::neighbors_within`]
    /// whose `⌈range/cell⌉`-ring lies inside those marks — from a center
    /// with `⌈range/cell⌉ ≤ rings`, or from a relay it returned with
    /// `2·⌈range/cell⌉ ≤ rings`, and so on per hop — answers exactly as
    /// after a full refresh; lookups elsewhere may miss hosts. Centers
    /// with a non-finite coordinate reach no host and mark nothing. When
    /// the marks span too many cells to index directly, every online
    /// host is binned, as by a full refresh.
    ///
    /// A fleet of 131,072 hosts or more has its per-host pass fanned
    /// out over `pool`, with the same result on any pool. That path
    /// allocates what spawning the pool's threads allocates, where the
    /// inline path of a smaller fleet, or of a one-thread pool,
    /// allocates nothing once warm.
    pub fn refresh_near(
        &mut self,
        positions: &[Point],
        online: &[bool],
        centers: &[Point],
        rings: u32,
        pool: &ExecPool,
    ) {
        self.rebuild(positions, online, Some((centers, rings)), pool);
    }

    /// A host with a NaN coordinate is at no distance from anything: it
    /// gets no cell, like an offline one.
    fn indexed(p: &Point, on: bool) -> bool {
        on & !p.x.is_nan() & !p.y.is_nan()
    }

    /// Pass 2 over the whole fleet: each position is copied from `src`
    /// into `dst`, and the `(id, slot)` of each indexed host whose slot
    /// `keep` keeps is listed at the front of `binned` in ascending id.
    /// Returns how many. The listing has no branch on what is kept:
    /// every host's pair is written at a cursor, which steps past the
    /// kept ones.
    ///
    /// Below `FAN_OUT_HOSTS` hosts, or on a one-thread pool, one loop on
    /// the caller does it all. Above, contiguous host-id chunks, one per
    /// worker on `pool`, write each host's slot, or `UNBINNED`, to their
    /// slices of `slots`, and one serial pass over that column lists the
    /// pairs, so the result does not depend on the chunking. Measured on
    /// 2 vCPUs, each shape is the faster one on its side: the slot column
    /// cost the 18,660-host city worlds' grid phase half again, and at a
    /// million hosts it beat one-loop chunks compacted afterwards by a
    /// few percent while touching only as much of `binned` as it keeps.
    #[allow(clippy::too_many_arguments)]
    fn bin_fleet(
        src: &[Point],
        online: &[bool],
        dst: &mut [Point],
        slots: &mut Vec<u32>,
        binned: &mut Vec<(u32, u32)>,
        slot_of: impl Fn(Point) -> u32 + Sync + Copy,
        keep: impl Fn(u32) -> bool + Sync + Copy,
        pool: &ExecPool,
    ) -> usize {
        let n = src.len();
        let mut kept = 0;
        if n < FAN_OUT_HOSTS || pool.threads() <= 1 {
            if binned.len() < n {
                binned.resize(n, (0, 0));
            }
            for (i, ((&p, &on), d)) in src.iter().zip(online).zip(dst).enumerate() {
                *d = p;
                let s = slot_of(p);
                binned[kept] = (i as u32, s);
                kept += (Self::indexed(&p, on) & keep(s)) as usize;
            }
            return kept;
        }
        slots.resize(n, UNBINNED);
        let len = n.div_ceil(pool.threads());
        let chunks = dst.chunks_mut(len).zip(slots.chunks_mut(len));
        pool.for_each_with(
            &mut vec![(); pool.threads()],
            chunks,
            |(), c, (dst, slots)| {
                let hosts = c * len..c * len + dst.len();
                let (src, online) = (&src[hosts.clone()], &online[hosts]);
                // Copies the loop owns: it keeps their captures in
                // registers instead of reloading them around every store.
                let (slot_of, keep) = (slot_of, keep);
                for (((&p, &on), d), slot) in src.iter().zip(online).zip(dst).zip(slots) {
                    *d = p;
                    let s = slot_of(p);
                    // `UNBINNED` is all ones: a dropped host's slot is
                    // masked to it, without a branch.
                    let dropped = !(Self::indexed(&p, on) & keep(s)) as u32;
                    *slot = s | dropped.wrapping_neg();
                }
            },
        );
        // `binned` grows only when the cursor reaches its end, so a marked
        // refresh touches no more of it than the most hosts it has kept.
        for (i, &s) in slots.iter().enumerate() {
            let pair = (i as u32, s);
            match binned.get_mut(kept) {
                Some(at) => *at = pair,
                None => binned.push(pair),
            }
            kept += (s != UNBINNED) as usize;
        }
        kept
    }

    /// The inclusive key box of each finite center's `rings`-ring.
    fn rings(centers: &[Point], rings: u32, cell: f64) -> impl Iterator<Item = (Key, Key)> + '_ {
        let r = i64::from(rings);
        let finite = |c: &&Point| c.x.is_finite() && c.y.is_finite();
        centers.iter().filter(finite).map(move |&c| {
            let (kx, ky) = Self::key(c, cell);
            let lo = (kx.saturating_sub(r), ky.saturating_sub(r));
            (lo, (kx.saturating_add(r), ky.saturating_add(r)))
        })
    }

    /// Counting sort of the online hosts of `positions` into
    /// `offsets`/`members`: all of them, or with `near`, those within
    /// the marked rings. Pass 2 copies `positions` into the grid.
    fn rebuild(
        &mut self,
        positions: &[Point],
        online: &[bool],
        near: Option<(&[Point], u32)>,
        pool: &ExecPool,
    ) {
        let n = positions.len();
        assert_eq!(n, online.len(), "one flag per host");
        assert!(n < u32::MAX as usize, "host ids must fit u32");
        let cell = self.cell;

        // A marked refresh's extent is the bounding box of the rings
        // around its (finite) centers — no pass over the fleet — if that
        // box is small enough to index directly.
        let marked_extent = near.and_then(|(centers, rings)| {
            let (mut min, mut max) = ((i64::MAX, i64::MAX), (i64::MIN, i64::MIN));
            for (lo, hi) in Self::rings(centers, rings, cell) {
                min = (min.0.min(lo.0), min.1.min(lo.1));
                max = (max.0.max(hi.0), max.1.max(hi.1));
            }
            dense_cells(min, max, n).map(|_| (min, max))
        });
        let near = near.filter(|_| marked_extent.is_some());

        // Pass 1 of a full refresh: the extent, taken over coordinates
        // (the key is monotonic in each) so that the loop carries no
        // division.
        let (min, max) = marked_extent.unwrap_or_else(|| {
            let inf = f64::INFINITY;
            let (mut lo, mut hi) = (Point::new(inf, inf), Point::new(-inf, -inf));
            for (p, &on) in positions.iter().zip(online) {
                if Self::indexed(p, on) {
                    lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
                    hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
                }
            }
            (Self::key(lo, cell), Self::key(hi, cell))
        });
        (self.min, self.max) = (min, max);

        // Past the direct-indexing cap (full refreshes only), slots are
        // ranks among the occupied keys.
        self.keys.clear();
        let dense = dense_cells(min, max, n);
        if dense.is_none() {
            let hosts = positions.iter().zip(online);
            let hosts = hosts.filter(|&(p, &on)| Self::indexed(p, on));
            self.keys.extend(hosts.map(|(p, _)| Self::key(*p, cell)));
            self.keys.sort_unstable();
            self.keys.dedup();
        }
        let cells = dense.unwrap_or(self.keys.len());
        // Every position has a slot, `cells` for one whose key is outside
        // the extent; wrapping arithmetic, because such keys are anything.
        // The per-host closures capture copies and slices, not
        // references to locals, so that `bin_fleet` can copy them whole.
        let ny = max.1.wrapping_sub(min.1).wrapping_add(1);
        let column = move |kx: i64| kx.wrapping_sub(min.0).wrapping_mul(ny);
        let keys = self.keys.as_slice();
        let direct = move |p: Point| {
            let k = Self::key(p, cell);
            let inside = (min.0 <= k.0) & (k.0 <= max.0) & (min.1 <= k.1) & (k.1 <= max.1);
            let s = column(k.0).wrapping_add(k.1.wrapping_sub(min.1)) as u32;
            if inside {
                s
            } else {
                cells as u32
            }
        };
        let ranked =
            move |p: Point| keys.binary_search(&Self::key(p, cell)).unwrap_or(cells) as u32;

        // Pass 2: every indexed host of a full refresh, or those in the
        // marked cells, is listed with its slot; the position copy rides
        // along. Sizing the buffers writes only what a growing fleet adds.
        self.positions.resize(n, Point::ORIGIN);
        let (dst, slots, binned) = (&mut self.positions, &mut self.slots, &mut self.binned);
        let all = |_| true;
        let kept = match near {
            None => match dense {
                Some(_) => {
                    Self::bin_fleet(positions, online, dst, slots, binned, direct, all, pool)
                }
                None => Self::bin_fleet(positions, online, dst, slots, binned, ranked, all, pool),
            },
            Some((centers, rings)) => {
                self.marked.clear();
                self.marked.resize(cells + 1, false);
                for (lo, hi) in Self::rings(centers, rings, cell) {
                    for kx in lo.0..=hi.0 {
                        let at = |ky: i64| column(kx).wrapping_add(ky.wrapping_sub(min.1)) as usize;
                        self.marked[at(lo.1)..=at(hi.1)].fill(true);
                    }
                }
                // A marked refresh's extent is always indexed directly.
                let marked = self.marked.as_slice();
                let keep = move |s: u32| marked[s as usize];
                Self::bin_fleet(positions, online, dst, slots, binned, direct, keep, pool)
            }
        };
        let binned = &self.binned[..kept];

        // Pass 3: count each cell two entries ahead, so that pass 4 can
        // advance `offsets[slot + 1]` in place.
        self.offsets.clear();
        self.offsets.resize(cells + 2, 0);
        for &(_, s) in binned {
            self.offsets[s as usize + 2] += 1;
        }
        for s in 2..self.offsets.len() {
            self.offsets[s] += self.offsets[s - 1];
        }

        // Pass 4: scatter in ascending host id, which leaves every cell
        // id-sorted and `offsets[s]..offsets[s + 1]` spanning cell `s`.
        self.members.clear();
        self.members.resize(kept, 0);
        for &(i, s) in binned {
            let at = &mut self.offsets[s as usize + 1];
            self.members[*at as usize] = i;
            *at += 1;
        }
    }

    /// Online host ids within Euclidean distance `range` (inclusive) of
    /// `center`, excluding `exclude` (the querying host itself); empty
    /// for a negative or NaN `range`.
    ///
    /// The order is part of the contract — reply streams, and so every
    /// report, depend on it: cells of the `⌈range/cell⌉`-ring around
    /// `center` by ascending `x` key, then ascending `y` key, then
    /// ascending host id within a cell. It is a function of the last
    /// refresh's positions and flags only, never of refresh history.
    pub fn neighbors_within(
        &self,
        center: Point,
        range: f64,
        exclude: Option<usize>,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_within(center, range, exclude, |i| out.push(i));
        out
    }

    /// The walk behind [`NeighborGrid::neighbors_within`]: hands each
    /// host it would return to `visit`, in its order, and allocates
    /// nothing — the share exchange collects peers into retained buffers.
    pub(crate) fn for_each_within(
        &self,
        center: Point,
        range: f64,
        exclude: Option<usize>,
        mut visit: impl FnMut(usize),
    ) {
        if range.is_nan() || range < 0.0 {
            return;
        }
        // The ring, clamped to the extent: cells outside it are empty,
        // and an unclamped ring is unbounded work for a large `range`.
        let reach = (range / self.cell).ceil() as i64;
        let (cx, cy) = Self::key(center, self.cell);
        let x_lo = cx.saturating_sub(reach).max(self.min.0);
        let x_hi = cx.saturating_add(reach).min(self.max.0);
        let y_lo = cy.saturating_sub(reach).max(self.min.1);
        let y_hi = cy.saturating_add(reach).min(self.max.1);
        if x_lo > x_hi || y_lo > y_hi {
            return;
        }
        let r_sq = range * range;
        // Slots `lo..hi` are one column's cells, contiguous in `members`.
        let mut scan = |lo: usize, hi: usize| {
            for &i in &self.members[self.offsets[lo] as usize..self.offsets[hi] as usize] {
                let i = i as usize;
                if Some(i) != exclude && self.positions[i].distance_sq(center) <= r_sq {
                    visit(i);
                }
            }
        };
        if self.keys.is_empty() {
            let ny = self.max.1 - self.min.1 + 1;
            for kx in x_lo..=x_hi {
                let column = (kx - self.min.0) * ny;
                scan(
                    (column + (y_lo - self.min.1)) as usize,
                    (column + (y_hi - self.min.1)) as usize + 1,
                );
            }
        } else {
            // Walk the occupied columns of the sorted keys in range.
            let mut at = self.keys.partition_point(|&k| k < (x_lo, y_lo));
            while let Some(&(kx, _)) = self.keys.get(at).filter(|k| k.0 <= x_hi) {
                let lo = at + self.keys[at..].partition_point(|&k| k < (kx, y_lo));
                let hi = lo + self.keys[lo..].partition_point(|&k| k <= (kx, y_hi));
                scan(lo, hi);
                at = hi + self.keys[hi..].partition_point(|&k| k.0 <= kx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter(n: usize) -> Vec<Point> {
        let mut state = 11u64;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let x = (state >> 16 & 0xFFFF) as f64 / 6553.6;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let y = (state >> 16 & 0xFFFF) as f64 / 6553.6;
                Point::new(x, y)
            })
            .collect()
    }

    /// What `neighbors_within` promises, computed the slow way: filter
    /// by distance, order by cell column, cell row, host id.
    fn brute_force(pts: &[Point], cell: f64, center: Point, range: f64) -> Vec<usize> {
        let mut want: Vec<usize> = (0..pts.len())
            .filter(|&i| pts[i].distance_sq(center) <= range * range)
            .collect();
        want.sort_by_key(|&i| (NeighborGrid::key(pts[i], cell), i));
        want
    }

    #[test]
    fn neighbors_match_brute_force() {
        let pts = scatter(500);
        let center = Point::new(5.0, 5.0);
        // 1.0 indexes the 10 x 10 world directly; 0.01 puts a million
        // cells under 500 hosts, past the cap.
        for cell in [1.0, 0.01] {
            let g = NeighborGrid::build(pts.clone(), cell);
            for range in [0.0, 0.3, 1.0, 2.5] {
                assert_eq!(
                    g.neighbors_within(center, range, None),
                    brute_force(&pts, cell, center, range),
                    "cell {cell}, range {range}"
                );
            }
        }
    }

    #[test]
    fn exclude_omits_self() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)];
        let g = NeighborGrid::build(pts, 1.0);
        let n = g.neighbors_within(Point::new(0.0, 0.0), 1.0, Some(0));
        assert_eq!(n, vec![1]);
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let pts = vec![Point::new(3.0, 4.0)];
        let g = NeighborGrid::build(pts, 1.0);
        assert_eq!(g.neighbors_within(Point::ORIGIN, 5.0, None).len(), 1);
        assert_eq!(g.neighbors_within(Point::ORIGIN, 4.999, None).len(), 0);
    }

    #[test]
    fn negative_coordinates_hash_correctly() {
        let pts = vec![Point::new(-0.5, -0.5), Point::new(0.5, 0.5)];
        let g = NeighborGrid::build(pts, 1.0);
        let n = g.neighbors_within(Point::new(-0.4, -0.4), 0.3, None);
        assert_eq!(n, vec![0]);
    }

    #[test]
    fn offline_hosts_are_invisible_but_addressable() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(0.2, 0.0),
        ];
        let mut g = NeighborGrid::build(Vec::new(), 1.0);
        g.refresh_active(&pts, &[true, false, true]);
        let n = g.neighbors_within(Point::ORIGIN, 1.0, None);
        assert_eq!(n, vec![0, 2], "offline host 1 must not be discoverable");
        // Positions stay total: relays can still be located by id.
        assert_eq!(g.position(1), Point::new(0.1, 0.0));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn empty_grid() {
        let g = NeighborGrid::build(Vec::new(), 1.0);
        assert!(g.is_empty());
        assert!(g.neighbors_within(Point::ORIGIN, 10.0, None).is_empty());
        // Hosts, but none on the air.
        let mut g = NeighborGrid::build(Vec::new(), 1.0);
        g.refresh_active(&[Point::ORIGIN], &[false]);
        assert_eq!(g.len(), 1);
        assert!(g.neighbors_within(Point::ORIGIN, 10.0, None).is_empty());
    }

    #[test]
    fn refresh_forgets_the_previous_epoch() {
        let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let mut g = NeighborGrid::with_bounds(&world, 1.0, 200);
        let pts = scatter(200);
        g.refresh_active(&pts, &[true; 200]);
        // A smaller fleet, half of it offline, somewhere else.
        let moved: Vec<Point> = pts[..50].iter().map(|p| Point::new(p.y, p.x)).collect();
        let online: Vec<bool> = (0..50).map(|i| i % 2 == 0).collect();
        g.refresh_active(&moved, &online);
        assert_eq!(g.len(), 50);
        let got = g.neighbors_within(Point::new(5.0, 5.0), 20.0, None);
        assert_eq!(got.len(), 25);
        assert!(got.iter().all(|&i| online[i]));
        assert_eq!(g.position(7), moved[7]);
    }

    #[test]
    fn refresh_grows_past_the_declared_bounds() {
        let world = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
        let mut g = NeighborGrid::with_bounds(&world, 1.0, 3);
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(3.0, 3.0),
            Point::new(2.0, 2.0),
        ];
        g.refresh_active(&pts, &[true, true, true]);
        // One host escapes the declared world; the grid must follow it.
        let pts2 = vec![
            Point::new(1.0, 1.0),
            Point::new(90.0, -6.0),
            Point::new(2.0, 2.0),
        ];
        g.refresh_active(&pts2, &[true, true, true]);
        assert_eq!(
            g.neighbors_within(Point::new(90.0, -6.0), 0.5, None),
            vec![1]
        );
        assert_eq!(g.neighbors_within(Point::new(1.0, 1.0), 0.5, None), vec![0]);
    }

    #[test]
    fn huge_extent_answers_like_a_small_one() {
        // Two points ~1e9 cells apart, and one at infinity: an array
        // over that extent would be absurd, and a ring walked cell by
        // cell across it would never finish.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1e9, 1e9),
            Point::new(f64::NEG_INFINITY, f64::INFINITY),
        ];
        let g = NeighborGrid::build(pts, 1.0);
        assert_eq!(g.neighbors_within(Point::new(0.1, 0.1), 1.0, None), vec![0]);
        assert_eq!(g.neighbors_within(Point::new(1e9, 1e9), 1.0, None), vec![1]);
        assert_eq!(g.neighbors_within(Point::ORIGIN, 1e10, None), vec![0, 1]);
    }

    #[test]
    fn unbounded_range_returns_everyone_in_contract_order() {
        let pts = scatter(300);
        let online: Vec<bool> = (0..300).map(|i| i % 7 != 0).collect();
        let center = Point::new(2.0, 8.0);
        for cell in [1.0, 0.01] {
            let mut g = NeighborGrid::build(Vec::new(), cell);
            g.refresh_active(&pts, &online);
            let mut everyone: Vec<usize> = (0..300).filter(|&i| online[i]).collect();
            everyone.sort_by_key(|&i| (NeighborGrid::key(pts[i], cell), i));
            for range in [1e12, f64::INFINITY] {
                assert_eq!(g.neighbors_within(center, range, None), everyone);
            }
        }
    }

    #[test]
    fn negative_and_nan_ranges_match_nothing() {
        let g = NeighborGrid::build(scatter(50), 1.0);
        for range in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            assert!(g
                .neighbors_within(Point::new(5.0, 5.0), range, None)
                .is_empty());
        }
    }

    #[test]
    fn nan_positions_are_kept_but_never_neighbors() {
        // Clients report their own positions; nothing upstream rejects
        // a NaN. Such a host must not break the others' cells.
        let mut pts = scatter(100);
        pts[3] = Point::new(f64::NAN, 4.0);
        pts[60] = Point::new(2.0, f64::NAN);
        for cell in [1.0, 0.01] {
            let g = NeighborGrid::build(pts.clone(), cell);
            assert!(g.position(3).x.is_nan());
            let center = Point::new(5.0, 5.0);
            assert_eq!(
                g.neighbors_within(center, f64::INFINITY, None),
                brute_force(&pts, cell, center, f64::INFINITY)
            );
        }
    }

    /// The fanned-out pass 2 builds the inline pass's grid bit for bit,
    /// on pools of 1, 2 and 8 threads: directly indexed marks, and marks
    /// too wide to index, whose full-rebuild fallback takes the
    /// sorted-key lookup. NaN and offline hosts sit on every chunk edge,
    /// and the fanned grid last binned a larger fleet, so stale pairs
    /// lie past the new one's end of `binned`.
    #[test]
    fn fanned_out_refresh_equals_the_inline_one() {
        let n = FAN_OUT_HOSTS + 1_237;
        // A 100 x 100 world: a handful of hosts per 0.5 cell.
        let spread = |pts: Vec<Point>| -> Vec<Point> {
            pts.into_iter()
                .map(|p| Point::new(10.0 * p.x, 10.0 * p.y))
                .collect()
        };
        let mut pts = spread(scatter(n));
        let mut online: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
        for threads in [2, 8] {
            let len = n.div_ceil(threads);
            for edge in (1..threads).map(|c| c * len) {
                pts[edge - 1] = Point::new(f64::NAN, 30.0);
                pts[edge] = Point::new(40.0, f64::NAN);
                online[edge - 2] = false;
                online[edge + 1] = false;
            }
        }
        let centers: Vec<Point> = (0..40).map(|i| pts[i * 997]).collect();
        let larger = spread(scatter(n + 500));
        let world = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let bits = |g: &NeighborGrid| -> Vec<(u64, u64)> {
            g.positions
                .iter()
                .map(|p| (p.x.to_bits(), p.y.to_bits()))
                .collect()
        };

        for cell in [0.5, 1e-4] {
            let mut found = 0;
            let mut inline = NeighborGrid::with_bounds(&world, cell, n);
            inline.refresh_near(&pts, &online, &centers, 2, &ExecPool::sequential());
            assert_eq!(
                inline.keys.is_empty(),
                cell == 0.5,
                "cell {cell}: wrong layout"
            );
            for threads in [1, 2, 8] {
                let pool = ExecPool::fixed(threads);
                let mut fanned = NeighborGrid::with_bounds(&world, cell, n);
                fanned.refresh_near(&larger, &vec![true; n + 500], &centers, 2, &pool);
                fanned.refresh_near(&pts, &online, &centers, 2, &pool);

                let at = format!("cell {cell}, {threads} threads");
                assert_eq!(bits(&fanned), bits(&inline), "{at}: positions");
                assert_eq!((fanned.min, fanned.max), (inline.min, inline.max), "{at}");
                assert_eq!(fanned.keys, inline.keys, "{at}: keys");
                assert_eq!(fanned.offsets, inline.offsets, "{at}: offsets");
                assert_eq!(fanned.members, inline.members, "{at}: members");
                for &c in &centers {
                    for range in [cell, 0.7] {
                        let got = fanned.neighbors_within(c, range, None);
                        assert_eq!(got, inline.neighbors_within(c, range, None), "{at}");
                        found += got.len();
                        for &j in &got {
                            let from = inline.position(j);
                            assert_eq!(
                                fanned.neighbors_within(from, range, Some(j)),
                                inline.neighbors_within(from, range, Some(j)),
                                "{at}: relay {j}"
                            );
                        }
                    }
                }
            }
            assert!(found > 0, "cell {cell}: no lookup found a host");
        }
    }

    #[test]
    fn key_is_floor_for_every_float() {
        let edge = [
            0.0, -0.0, 0.5, -0.5, -2.0, 2.0, 1e30, -1e30, 9.3e18, -9.3e18,
        ];
        // Ties, the largest fraction below one half, and both sides of
        // 2^51 and 2^52, where the rounding sum changes binade.
        let near = [
            1.5,
            2.5,
            0.49999999999999994,
            2_251_799_813_685_247.5,
            2_251_799_813_685_248.0,
            2_251_799_813_685_249.0,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
        ];
        let near = near.into_iter().flat_map(|q| [q, -q]);
        let odd = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        for q in edge
            .into_iter()
            .chain(near)
            .chain(odd)
            .chain(scatter(200).iter().map(|p| p.x - 5.0))
        {
            for cell in [1.0, 0.3, 1e-3] {
                let want = (q / cell).floor() as i64;
                assert_eq!(
                    NeighborGrid::key(Point::new(q, -q), cell).0,
                    want,
                    "{q} / {cell}"
                );
            }
        }
    }
}
