//! Hilbert curve codec and window-to-interval decomposition.
//!
//! The codec is table-driven: the classic quadrant-rotation recurrence is
//! reformulated as a four-state machine (the rotation group of the curve
//! is `{identity, swap, complement, swap∘complement}`, which is abelian).
//! Encoding, which index builds and kNN scans run, processes four levels —
//! one byte of interleaved output — per lookup in 256-entry
//! state-transition tables; decoding, which only tests run, steps one
//! level at a time through the 4-entry tables the window decomposition
//! walks. The tables are precomputed at compile time, so
//! [`HilbertCurve::new`] only validates the order; the original bitwise
//! loops survive as `*_reference` oracles for property tests and the
//! hot-path benchmark.

/// An order-`k` Hilbert curve over the `2^k × 2^k` integer cell grid.
///
/// `encode` maps a cell to its position `d ∈ [0, 4^k)` along the curve,
/// walking precomputed 256-entry transition tables byte-at-a-time;
/// `decode` inverts it one level at a time.
/// `encode_reference`/`decode_reference` keep the classic iterative
/// quadrant-rotation algorithm as a correctness oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HilbertCurve {
    order: u32,
}

/// An inclusive rectangle of cells `[x1..=x2] × [y1..=y2]` on the curve's
/// grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellRect {
    /// Leftmost column.
    pub x1: u32,
    /// Bottom row.
    pub y1: u32,
    /// Rightmost column (inclusive).
    pub x2: u32,
    /// Top row (inclusive).
    pub y2: u32,
}

impl CellRect {
    /// Creates a cell rectangle; panics in debug builds when inverted.
    pub fn new(x1: u32, y1: u32, x2: u32, y2: u32) -> Self {
        debug_assert!(x1 <= x2 && y1 <= y2);
        Self { x1, y1, x2, y2 }
    }

    /// Number of cells covered.
    pub fn cell_count(&self) -> u64 {
        (self.x2 - self.x1 + 1) as u64 * (self.y2 - self.y1 + 1) as u64
    }

    /// Closed containment of a cell.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x1 && x <= self.x2 && y >= self.y1 && y <= self.y2
    }

    /// `self` fully contains the square `[x0, x0+s) × [y0, y0+s)`.
    fn contains_square(&self, x0: u32, y0: u32, s: u32) -> bool {
        x0 >= self.x1 && x0 + (s - 1) <= self.x2 && y0 >= self.y1 && y0 + (s - 1) <= self.y2
    }

    /// `self` is disjoint from the square `[x0, x0+s) × [y0, y0+s)`.
    fn disjoint_square(&self, x0: u32, y0: u32, s: u32) -> bool {
        x0 > self.x2 || x0 + (s - 1) < self.x1 || y0 > self.y2 || y0 + (s - 1) < self.y1
    }
}

/// Codec state: bit 0 = "swap x/y", bit 1 = "complement both". The curve's
/// per-quadrant frame transforms form this four-element abelian group, so
/// one byte of state suffices and composition order never matters.
type State = u8;

/// One encode level on original coordinate bits `(xi, yi)` under `state`;
/// returns the emitted base-4 digit and the successor state.
const fn enc_step(state: State, xi: u8, yi: u8) -> (u8, State) {
    let comp = (state >> 1) & 1;
    let swap = state & 1;
    let xc = xi ^ comp;
    let yc = yi ^ comp;
    let (rx, ry) = if swap == 1 { (yc, xc) } else { (xc, yc) };
    let digit = (3 * rx) ^ ry;
    let mut next = state;
    if ry == 0 {
        next ^= 1; // compose a swap
        if rx == 1 {
            next ^= 2; // ... and a complement
        }
    }
    (digit, next)
}

/// One decode level: base-4 digit under `state` back to the original
/// coordinate bits `(xi, yi)` plus the successor state.
const fn dec_step(state: State, digit: u8) -> (u8, u8, State) {
    let comp = (state >> 1) & 1;
    let swap = state & 1;
    let rx = (digit >> 1) & 1;
    let ry = ((digit >> 1) ^ digit) & 1;
    let (xr, yr) = if swap == 1 { (ry, rx) } else { (rx, ry) };
    let mut next = state;
    if ry == 0 {
        next ^= 1;
        if rx == 1 {
            next ^= 2;
        }
    }
    (xr ^ comp, yr ^ comp, next)
}

/// Single-level tables. Encoding takes the `order % 4` leading levels
/// here (levels cannot be zero-padded: even an all-zero level mutates
/// the state); decoding and the window decomposition take every level.
/// `STEP2_ENC[state][(xi<<1)|yi] = (next_state << 2) | digit`.
static STEP2_ENC: [[u8; 4]; 4] = build_step2_enc();
/// `STEP2_DEC[state][digit] = (next_state << 2) | (xi << 1) | yi`.
static STEP2_DEC: [[u8; 4]; 4] = build_step2_dec();

const fn build_step2_enc() -> [[u8; 4]; 4] {
    let mut t = [[0u8; 4]; 4];
    let mut s = 0;
    while s < 4 {
        let mut b = 0;
        while b < 4 {
            let (digit, next) = enc_step(s as State, (b >> 1) as u8 & 1, b as u8 & 1);
            t[s][b] = (next << 2) | digit;
            b += 1;
        }
        s += 1;
    }
    t
}

const fn build_step2_dec() -> [[u8; 4]; 4] {
    let mut t = [[0u8; 4]; 4];
    let mut s = 0;
    while s < 4 {
        let mut d = 0;
        while d < 4 {
            let (xi, yi, next) = dec_step(s as State, d as u8);
            t[s][d] = (next << 2) | (xi << 1) | yi;
            d += 1;
        }
        s += 1;
    }
    t
}

/// Byte-at-a-time encode transitions: four levels per lookup.
/// `ENC_LUT[state][(x_nibble<<4)|y_nibble] = (next_state << 8) | d_byte`.
static ENC_LUT: [[u16; 256]; 4] = build_enc_lut();

const fn build_enc_lut() -> [[u16; 256]; 4] {
    let mut enc = [[0u16; 256]; 4];
    let mut state = 0;
    while state < 4 {
        let mut b = 0;
        while b < 256 {
            let xn = (b >> 4) as u8;
            let yn = (b & 0xF) as u8;
            let mut s = state as State;
            let mut dd: u16 = 0;
            let mut lvl = 4;
            while lvl > 0 {
                lvl -= 1;
                let (digit, ns) = enc_step(s, (xn >> lvl) & 1, (yn >> lvl) & 1);
                dd = (dd << 2) | digit as u16;
                s = ns;
            }
            enc[state][b] = ((s as u16) << 8) | dd;
            b += 1;
        }
        state += 1;
    }
    enc
}

/// Explicit-stack frame for the iterative decomposition: the square
/// `[x0, x0+2^k) × [y0, y0+2^k)` covering curve range `[d0, d0+4^k)`,
/// entered with codec state `state`.
#[derive(Clone, Copy)]
struct Frame {
    x0: u32,
    y0: u32,
    d0: u64,
    k: u8,
    state: State,
}

/// Upper bound on the decomposition stack: one live frame plus at most
/// three deferred siblings per level of descent.
const DECOMP_STACK: usize = 3 * HilbertCurve::MAX_ORDER as usize + 1;

impl HilbertCurve {
    /// Maximum supported order: indexes fit in `u64` (4^31 < 2^64) and
    /// coordinates in `u32`.
    pub const MAX_ORDER: u32 = 31;

    /// Creates an order-`order` curve. Panics if `order == 0` or
    /// `order > MAX_ORDER`. The codec transition tables are compile-time
    /// constants shared by all curves, so construction is free.
    pub fn new(order: u32) -> Self {
        assert!(
            (1..=Self::MAX_ORDER).contains(&order),
            "Hilbert order must be in 1..={}, got {order}",
            Self::MAX_ORDER
        );
        Self { order }
    }

    /// The curve's order `k`.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Cells per side (`2^k`).
    pub fn side(&self) -> u32 {
        1u32 << self.order
    }

    /// Total number of cells (`4^k`).
    pub fn cell_count(&self) -> u64 {
        1u64 << (2 * self.order)
    }

    /// Maps cell `(x, y)` to its curve position `d ∈ [0, 4^k)`.
    ///
    /// Panics in debug builds when the coordinates exceed the grid.
    pub fn encode(&self, x: u32, y: u32) -> u64 {
        debug_assert!(x < self.side() && y < self.side());
        let mut state = 0usize;
        let mut d: u64 = 0;
        let mut lvl = self.order;
        // Leading `order % 4` levels, one 2-bit step each.
        while lvl & 3 != 0 {
            lvl -= 1;
            let b = (((x >> lvl) & 1) << 1) | ((y >> lvl) & 1);
            let e = STEP2_ENC[state][b as usize];
            d = (d << 2) | (e & 3) as u64;
            state = (e >> 2) as usize;
        }
        // Remaining levels, four at a time.
        while lvl != 0 {
            lvl -= 4;
            let b = (((x >> lvl) & 0xF) << 4) | ((y >> lvl) & 0xF);
            let e = ENC_LUT[state][b as usize];
            d = (d << 8) | (e & 0xFF) as u64;
            state = (e >> 8) as usize;
        }
        d
    }

    /// Maps curve position `d` back to its cell `(x, y)`.
    ///
    /// Panics in debug builds when `d` exceeds the curve length.
    pub fn decode(&self, d: u64) -> (u32, u32) {
        debug_assert!(d < self.cell_count());
        let mut state = 0usize;
        let (mut x, mut y) = (0u32, 0u32);
        for lvl in (0..self.order).rev() {
            let e = STEP2_DEC[state][((d >> (2 * lvl)) & 3) as usize];
            x = (x << 1) | ((e >> 1) & 1) as u32;
            y = (y << 1) | (e & 1) as u32;
            state = (e >> 2) as usize;
        }
        (x, y)
    }

    /// Reference encoder: the classic per-level quadrant-rotation loop.
    /// Oracle for property tests; not used on any query path.
    #[doc(hidden)]
    pub fn encode_reference(&self, mut x: u32, mut y: u32) -> u64 {
        debug_assert!(x < self.side() && y < self.side());
        let mut d: u64 = 0;
        let mut s: u32 = self.side() >> 1;
        while s > 0 {
            let rx = u32::from(x & s > 0);
            let ry = u32::from(y & s > 0);
            d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
            rotate(s, &mut x, &mut y, rx, ry);
            s >>= 1;
        }
        d
    }

    /// Reference decoder: inverse of [`HilbertCurve::encode_reference`].
    #[doc(hidden)]
    pub fn decode_reference(&self, d: u64) -> (u32, u32) {
        debug_assert!(d < self.cell_count());
        let (mut x, mut y) = (0u32, 0u32);
        let mut t = d;
        let mut s: u32 = 1;
        while s < self.side() {
            let rx = (1 & (t >> 1)) as u32;
            let ry = (1 & (t ^ rx as u64)) as u32;
            rotate(s, &mut x, &mut y, rx, ry);
            x += s * rx;
            y += s * ry;
            t >>= 2;
            s <<= 1;
        }
        (x, y)
    }

    /// Decomposes a rectangular cell window into the minimal set of
    /// maximal contiguous curve intervals `[lo, hi]` (inclusive), sorted
    /// ascending, writing them into `out` (which is cleared first).
    /// Performs no heap allocation beyond growing `out`, which amortizes
    /// to zero when the buffer is reused.
    ///
    /// This is exact: the union of the intervals equals the set of curve
    /// positions of the cells in `rect`, and the output size is
    /// proportional to the window perimeter in cells, not its area. The
    /// descent walks an explicit fixed-size stack in curve order, so the
    /// intervals emerge pre-sorted and are merged on the fly; child
    /// quadrant geometry comes from the codec state machine, not from
    /// per-child `decode` calls.
    pub fn intervals_for_rect_into(&self, rect: &CellRect, out: &mut Vec<(u64, u64)>) {
        debug_assert!(rect.x2 < self.side() && rect.y2 < self.side());
        out.clear();
        let mut stack = [Frame {
            x0: 0,
            y0: 0,
            d0: 0,
            k: 0,
            state: 0,
        }; DECOMP_STACK];
        stack[0].k = self.order as u8;
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let f = stack[top];
            let s = 1u32 << f.k;
            if rect.disjoint_square(f.x0, f.y0, s) {
                continue;
            }
            let cells = 1u64 << (2 * f.k);
            if rect.contains_square(f.x0, f.y0, s) {
                let (lo, hi) = (f.d0, f.d0 + cells - 1);
                // Frames pop in curve order, so `lo` only ever grows:
                // merging against the last interval suffices.
                match out.last_mut() {
                    Some(last) if lo <= last.1 + 1 => last.1 = last.1.max(hi),
                    _ => out.push((lo, hi)),
                }
                continue;
            }
            debug_assert!(f.k > 0, "single cell must be contained or disjoint");
            let half = s >> 1;
            let quarter = cells >> 2;
            // Push children in reverse digit order so they pop in curve
            // order; their squares come from the decode state machine.
            let mut digit = 4u8;
            while digit > 0 {
                digit -= 1;
                let e = STEP2_DEC[f.state as usize][digit as usize];
                debug_assert!(top < DECOMP_STACK);
                stack[top] = Frame {
                    x0: f.x0 + (((e >> 1) & 1) as u32) * half,
                    y0: f.y0 + ((e & 1) as u32) * half,
                    d0: f.d0 + digit as u64 * quarter,
                    k: f.k - 1,
                    state: e >> 2,
                };
                top += 1;
            }
        }
    }

    /// Reference decomposition: the original recursive descent with a
    /// post-hoc sort+merge, its child geometry recovered via
    /// [`HilbertCurve::decode_reference`]. Oracle for property tests.
    #[doc(hidden)]
    pub fn intervals_for_rect_reference(&self, rect: &CellRect) -> Vec<(u64, u64)> {
        debug_assert!(rect.x2 < self.side() && rect.y2 < self.side());
        let mut out = Vec::new();
        self.decompose_reference(rect, 0, 0, self.side(), 0, &mut out);
        out.sort_unstable_by_key(|&(lo, _)| lo);
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(out.len());
        for (lo, hi) in out {
            match merged.last_mut() {
                Some(last) if lo <= last.1 + 1 => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        merged
    }

    /// The smallest and largest curve positions inside the window — the
    /// "first point `a` and last point `b`" of the paper's Figure 8.
    /// Returns `(a, b)` with `a ≤ b`.
    ///
    /// Runs in O(order): each endpoint is found by descending the quadrant
    /// tree greedily, taking the first (respectively last) child in curve
    /// order that intersects the window. Panics when `rect` is inverted or
    /// lies outside the grid — in every build, not just debug.
    pub fn window_span(&self, rect: &CellRect) -> (u64, u64) {
        assert!(
            rect.x1 <= rect.x2
                && rect.y1 <= rect.y2
                && rect.x2 < self.side()
                && rect.y2 < self.side(),
            "window_span: {rect:?} is inverted or outside the order-{} grid",
            self.order
        );
        (
            self.rect_extreme(rect, false),
            self.rect_extreme(rect, true),
        )
    }

    /// Smallest (`largest == false`) or largest curve position within
    /// `rect`, by greedy quadrant descent. The caller guarantees `rect`
    /// intersects the grid, so every level has an intersecting child.
    fn rect_extreme(&self, rect: &CellRect, largest: bool) -> u64 {
        let (mut x0, mut y0) = (0u32, 0u32);
        let mut state = 0usize;
        let mut d = 0u64;
        let mut k = self.order;
        while k > 0 {
            k -= 1;
            let half = 1u32 << k;
            let quarter = 1u64 << (2 * k);
            let digits: [u8; 4] = if largest { [3, 2, 1, 0] } else { [0, 1, 2, 3] };
            let mut found = false;
            for digit in digits {
                let e = STEP2_DEC[state][digit as usize];
                let cx = x0 + (((e >> 1) & 1) as u32) * half;
                let cy = y0 + ((e & 1) as u32) * half;
                if !rect.disjoint_square(cx, cy, half) {
                    // Children in curve order occupy contiguous ascending
                    // index blocks, so the extreme lies in the first
                    // (resp. last) intersecting child.
                    (x0, y0) = (cx, cy);
                    d += digit as u64 * quarter;
                    state = (e >> 2) as usize;
                    found = true;
                    break;
                }
            }
            // The four children tile a square that intersects `rect`.
            assert!(found, "window_span descent lost the window");
        }
        d
    }

    fn decompose_reference(
        &self,
        rect: &CellRect,
        x0: u32,
        y0: u32,
        s: u32,
        d0: u64,
        out: &mut Vec<(u64, u64)>,
    ) {
        if rect.disjoint_square(x0, y0, s) {
            return;
        }
        let square_cells = (s as u64) * (s as u64);
        if rect.contains_square(x0, y0, s) {
            out.push((d0, d0 + square_cells - 1));
            return;
        }
        debug_assert!(s > 1, "single cell must be contained or disjoint");
        let half = s >> 1;
        let quarter = square_cells >> 2;
        for k in 0..4u64 {
            let child_d0 = d0 + k * quarter;
            // Any cell of the child quadrant identifies its square; use
            // the first cell and align down to the child grid.
            let (cx, cy) = self.decode_reference(child_d0);
            let qx = x0 + ((cx - x0) / half) * half;
            let qy = y0 + ((cy - y0) / half) * half;
            self.decompose_reference(rect, qx, qy, half, child_d0, out);
        }
    }
}

/// Quadrant rotation/reflection step shared by the reference codec.
#[inline]
fn rotate(s: u32, x: &mut u32, y: &mut u32, rx: u32, ry: u32) {
    if ry == 0 {
        if rx == 1 {
            *x = s.wrapping_sub(1).wrapping_sub(*x);
            *y = s.wrapping_sub(1).wrapping_sub(*y);
        }
        core::mem::swap(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rect`'s interval decomposition in a fresh buffer.
    fn intervals(c: &HilbertCurve, rect: &CellRect) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        c.intervals_for_rect_into(rect, &mut out);
        out
    }

    #[test]
    fn order_one_visits_four_cells_in_curve_order() {
        let c = HilbertCurve::new(1);
        // Standard order-1 Hilbert: (0,0) → (0,1) → (1,1) → (1,0).
        assert_eq!(c.decode(0), (0, 0));
        assert_eq!(c.decode(1), (0, 1));
        assert_eq!(c.decode(2), (1, 1));
        assert_eq!(c.decode(3), (1, 0));
    }

    #[test]
    fn encode_decode_roundtrip_small_orders() {
        for order in 1..=6 {
            let c = HilbertCurve::new(order);
            for d in 0..c.cell_count() {
                let (x, y) = c.decode(d);
                assert_eq!(c.encode(x, y), d, "order {order}, d {d}");
            }
        }
    }

    #[test]
    fn lut_codec_matches_reference_exhaustively() {
        // Orders straddling the 2-bit/byte-step boundary (order % 4 =
        // 1, 2, 3, 0): every cell must agree with the bitwise oracle.
        for order in [1, 2, 3, 4, 5, 7, 8] {
            let c = HilbertCurve::new(order);
            for d in 0..c.cell_count() {
                let (x, y) = c.decode_reference(d);
                assert_eq!(c.encode(x, y), d, "order {order}, encode({x},{y})");
                assert_eq!(c.decode(d), (x, y), "order {order}, decode({d})");
            }
        }
    }

    #[test]
    fn curve_is_a_bijection_and_connected() {
        let c = HilbertCurve::new(5);
        let mut seen = vec![false; c.cell_count() as usize];
        let (mut px, mut py) = c.decode(0);
        seen[0] = true;
        for d in 1..c.cell_count() {
            let (x, y) = c.decode(d);
            assert!(!seen[c.encode(x, y) as usize]);
            seen[c.encode(x, y) as usize] = true;
            // Consecutive curve cells are 4-neighbours (curve continuity).
            let step = (x as i64 - px as i64).abs() + (y as i64 - py as i64).abs();
            assert_eq!(step, 1, "discontinuity at d={d}");
            (px, py) = (x, y);
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn intervals_cover_exactly_the_window() {
        let c = HilbertCurve::new(4);
        let rect = CellRect::new(3, 5, 9, 11);
        let ivs = intervals(&c, &rect);
        // Expand intervals into a set and compare with brute force.
        let mut from_ivs: Vec<u64> = ivs.iter().flat_map(|&(lo, hi)| lo..=hi).collect();
        from_ivs.sort_unstable();
        let mut brute: Vec<u64> = (rect.x1..=rect.x2)
            .flat_map(|x| (rect.y1..=rect.y2).map(move |y| (x, y)))
            .map(|(x, y)| c.encode(x, y))
            .collect();
        brute.sort_unstable();
        assert_eq!(from_ivs, brute);
        // Intervals must be maximal: no two adjacent.
        for w in ivs.windows(2) {
            assert!(w[1].0 > w[0].1 + 1);
        }
    }

    #[test]
    fn iterative_decomposition_matches_reference() {
        for order in [3, 4, 6] {
            let c = HilbertCurve::new(order);
            let side = c.side();
            let mut out = Vec::new();
            for (x1, y1, x2, y2) in [
                (0, 0, side - 1, side - 1),
                (1, 1, side - 2, side - 2),
                (0, 0, 0, side - 1),
                (side / 2, 0, side / 2, side - 1),
                (1, 2, 3, 3),
            ] {
                let rect = CellRect::new(x1, y1, x2, y2);
                c.intervals_for_rect_into(&rect, &mut out);
                assert_eq!(
                    out,
                    c.intervals_for_rect_reference(&rect),
                    "order {order} {rect:?}"
                );
            }
        }
    }

    #[test]
    fn full_grid_is_one_interval() {
        let c = HilbertCurve::new(3);
        let rect = CellRect::new(0, 0, 7, 7);
        assert_eq!(intervals(&c, &rect), vec![(0, 63)]);
    }

    #[test]
    fn single_cell_window() {
        let c = HilbertCurve::new(3);
        for (x, y) in [(0, 0), (7, 7), (3, 4)] {
            let d = c.encode(x, y);
            assert_eq!(intervals(&c, &CellRect::new(x, y, x, y)), vec![(d, d)]);
        }
    }

    #[test]
    fn window_span_brackets_all_intervals() {
        let c = HilbertCurve::new(5);
        let rect = CellRect::new(2, 2, 20, 9);
        let (a, b) = c.window_span(&rect);
        for &(lo, hi) in &intervals(&c, &rect) {
            assert!(lo >= a && hi <= b);
        }
        // a and b are attained by window cells.
        let (ax, ay) = c.decode(a);
        let (bx, by) = c.decode(b);
        assert!(rect.contains(ax, ay));
        assert!(rect.contains(bx, by));
    }

    #[test]
    fn window_span_matches_decomposition_endpoints() {
        // The O(order) greedy descent must agree with the full
        // decomposition on every window of a small grid, and on assorted
        // windows of larger ones.
        let c = HilbertCurve::new(3);
        for x1 in 0..8 {
            for y1 in 0..8 {
                for x2 in x1..8 {
                    for y2 in y1..8 {
                        let rect = CellRect::new(x1, y1, x2, y2);
                        let ivs = intervals(&c, &rect);
                        let expect = (ivs.first().unwrap().0, ivs.last().unwrap().1);
                        assert_eq!(c.window_span(&rect), expect, "{rect:?}");
                    }
                }
            }
        }
        let c = HilbertCurve::new(9);
        for rect in [
            CellRect::new(0, 0, 511, 511),
            CellRect::new(17, 300, 200, 450),
            CellRect::new(511, 0, 511, 0),
            CellRect::new(100, 100, 100, 400),
        ] {
            let ivs = intervals(&c, &rect);
            let expect = (ivs.first().unwrap().0, ivs.last().unwrap().1);
            assert_eq!(c.window_span(&rect), expect, "{rect:?}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the order-")]
    fn window_span_rejects_out_of_grid_rect() {
        let c = HilbertCurve::new(3);
        // Bypass CellRect::new's debug-only check to exercise the
        // release-mode guard too.
        let rect = CellRect {
            x1: 0,
            y1: 0,
            x2: 8,
            y2: 8,
        };
        c.window_span(&rect);
    }

    #[test]
    fn paper_figure4_grid_sanity() {
        // The paper's Figure 4 uses an 8×8 grid (order 3, indexes 0..63).
        let c = HilbertCurve::new(3);
        assert_eq!(c.side(), 8);
        assert_eq!(c.cell_count(), 64);
        // Figure 4 draws index 0 at the bottom-left corner region and 63
        // at the bottom-right; the curve must start at (0,0).
        assert_eq!(c.decode(0), (0, 0));
        let (x63, y63) = c.decode(63);
        assert_eq!(y63, 0, "curve ends on the bottom row");
        assert_eq!(x63, 7);
    }

    #[test]
    fn cell_rect_counting() {
        let r = CellRect::new(1, 2, 3, 5);
        assert_eq!(r.cell_count(), 3 * 4);
        assert!(r.contains(2, 3));
        assert!(!r.contains(0, 3));
    }

    #[test]
    #[should_panic]
    fn zero_order_rejected() {
        HilbertCurve::new(0);
    }

    #[test]
    fn high_order_encode_decode() {
        let c = HilbertCurve::new(HilbertCurve::MAX_ORDER);
        for &(x, y) in &[(0u32, 0u32), (1 << 30, 1 << 29), ((1 << 31) - 1, 12345)] {
            let d = c.encode(x, y);
            assert_eq!(c.decode(d), (x, y));
            assert_eq!(c.encode_reference(x, y), d);
            assert_eq!(c.decode_reference(d), (x, y));
        }
    }
}
