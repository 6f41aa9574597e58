//! Static point R-tree: STR bulk load, best-first kNN, window queries.

use airshare_geom::{Point, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Maximum node fan-out.
const DEFAULT_MAX: usize = 16;

/// A kNN search result: the item's position, payload reference and exact
/// Euclidean distance from the query point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor<'a, T> {
    /// Item position.
    pub point: Point,
    /// Borrowed payload.
    pub data: &'a T,
    /// Euclidean distance to the query point.
    pub distance: f64,
}

#[derive(Clone, Debug)]
enum Node<T> {
    Leaf(Vec<(Point, T)>),
    Internal(Vec<(Rect, Node<T>)>),
}

/// A static R-tree over `(Point, T)` items, built once and then only read.
///
/// * [`RTree::bulk_load`] builds a packed tree with sort-tile-recursive
///   (STR) packing from the static POI sets the simulator works with;
///   there is no insertion or removal afterwards.
/// * [`RTree::knn`] is the Hjaltason–Samet best-first search over a
///   priority queue of `MINDIST` values; it is exact and visits the
///   minimal set of nodes.
#[derive(Clone, Debug)]
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
}

impl<T> RTree<T> {
    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Builds a packed tree from a batch of items using STR packing.
    pub fn bulk_load(mut items: Vec<(Point, T)>) -> Self {
        let max_entries = DEFAULT_MAX;
        let len = items.len();
        if items.is_empty() {
            return Self {
                root: Node::Leaf(Vec::new()),
                len,
            };
        }
        // STR: sort by x, cut into vertical slices of ~sqrt(P) leaves,
        // sort each slice by y, pack leaves of `max_entries`.
        let leaf_count = len.div_ceil(max_entries);
        let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slice = len.div_ceil(slice_count);
        items.sort_by(|a, b| a.0.x.total_cmp(&b.0.x));

        let mut leaves: Vec<(Rect, Node<T>)> = Vec::with_capacity(leaf_count);
        let mut items = items.into_iter().peekable();
        while items.peek().is_some() {
            let mut slice: Vec<(Point, T)> = items.by_ref().take(per_slice).collect();
            slice.sort_by(|a, b| a.0.y.total_cmp(&b.0.y));
            let mut slice = slice.into_iter().peekable();
            while slice.peek().is_some() {
                let leaf: Vec<(Point, T)> = slice.by_ref().take(max_entries).collect();
                let mbr = Rect::bounding(leaf.iter().map(|e| e.0)).expect("non-empty leaf");
                leaves.push((mbr, Node::Leaf(leaf)));
            }
        }
        // Pack upward until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            // Re-tile each level by center-x then center-y for locality.
            level.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
            let groups = level.len().div_ceil(max_entries);
            let slice_count = (groups as f64).sqrt().ceil() as usize;
            let per_slice = level.len().div_ceil(slice_count);
            let mut next: Vec<(Rect, Node<T>)> = Vec::with_capacity(groups);
            let mut it = level.into_iter().peekable();
            while it.peek().is_some() {
                let mut slice: Vec<(Rect, Node<T>)> = it.by_ref().take(per_slice).collect();
                slice.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
                let mut slice = slice.into_iter().peekable();
                while slice.peek().is_some() {
                    let children: Vec<(Rect, Node<T>)> = slice.by_ref().take(max_entries).collect();
                    let mbr = children
                        .iter()
                        .map(|c| c.0)
                        .reduce(|a, b| a.union_mbr(&b))
                        .expect("non-empty group");
                    next.push((mbr, Node::Internal(children)));
                }
            }
            level = next;
        }
        let root = level
            .pop()
            .map(|(_, n)| n)
            .unwrap_or(Node::Leaf(Vec::new()));
        Self { root, len }
    }

    /// All items inside the window (closed containment), in arbitrary
    /// order.
    pub fn window(&self, w: &Rect) -> Vec<(Point, &T)> {
        let mut out = Vec::new();
        window_rec(&self.root, w, &mut out);
        out
    }

    /// The `k` nearest items to `q`, sorted ascending by distance
    /// (fewer when the tree holds fewer items). Exact best-first search.
    pub fn knn(&self, q: Point, k: usize) -> Vec<Neighbor<'_, T>> {
        let mut out = Vec::with_capacity(k.min(self.len));
        if k == 0 || self.is_empty() {
            return out;
        }
        let mut heap: BinaryHeap<HeapEntry<'_, T>> = BinaryHeap::new();
        heap.push(HeapEntry {
            dist_sq: 0.0,
            kind: HeapKind::Node(&self.root),
        });
        while let Some(entry) = heap.pop() {
            match entry.kind {
                HeapKind::Node(Node::Leaf(items)) => {
                    for (p, d) in items {
                        heap.push(HeapEntry {
                            dist_sq: p.distance_sq(q),
                            kind: HeapKind::Item(*p, d),
                        });
                    }
                }
                HeapKind::Node(Node::Internal(children)) => {
                    for (mbr, child) in children {
                        heap.push(HeapEntry {
                            dist_sq: mbr.distance_sq_to_point(q),
                            kind: HeapKind::Node(child),
                        });
                    }
                }
                HeapKind::Item(p, d) => {
                    out.push(Neighbor {
                        point: p,
                        data: d,
                        distance: entry.dist_sq.sqrt(),
                    });
                    if out.len() == k {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Iterates over all items in depth-first leaf order.
    pub fn iter(&self) -> impl Iterator<Item = (Point, &T)> {
        // A lazy DFS over node references: internal children are pushed
        // onto a stack, leaf slices are drained via a cursor.
        let mut stack: Vec<&Node<T>> = vec![&self.root];
        let mut leaf: Option<(&[(Point, T)], usize)> = None;
        std::iter::from_fn(move || loop {
            if let Some((items, idx)) = &mut leaf {
                if *idx < items.len() {
                    let (p, d) = &items[*idx];
                    *idx += 1;
                    return Some((*p, d));
                }
                leaf = None;
            }
            match stack.pop()? {
                Node::Leaf(items) => leaf = Some((items.as_slice(), 0)),
                Node::Internal(children) => stack.extend(children.iter().map(|(_, c)| c)),
            }
        })
    }

    // ------------------------------------------------------------------
    // Invariant checking (used by tests)
    // ------------------------------------------------------------------

    /// Verifies structural invariants, panicking on violation. Intended
    /// for tests: MBR containment, fan-out bound, uniform leaf depth.
    pub fn check_invariants(&self) {
        fn rec<T>(
            n: &Node<T>,
            depth: usize,
            is_root: bool,
            leaf_depth: &mut Option<usize>,
        ) -> (Rect, usize) {
            match n {
                Node::Leaf(items) => {
                    assert!(is_root || !items.is_empty(), "empty non-root leaf");
                    assert!(items.len() <= DEFAULT_MAX, "overfull leaf");
                    match leaf_depth {
                        Some(d) => assert_eq!(*d, depth, "leaves at differing depths"),
                        None => *leaf_depth = Some(depth),
                    }
                    let mbr = Rect::bounding(items.iter().map(|e| e.0))
                        .unwrap_or(Rect::from_coords(0.0, 0.0, 0.0, 0.0));
                    (mbr, items.len())
                }
                Node::Internal(children) => {
                    assert!(!children.is_empty(), "empty internal node");
                    assert!(children.len() <= DEFAULT_MAX, "overfull internal node");
                    let mut total = 0;
                    let mut mbr: Option<Rect> = None;
                    for (r, c) in children {
                        let (child_mbr, count) = rec(c, depth + 1, false, leaf_depth);
                        assert!(
                            r.contains_rect(&child_mbr),
                            "stored MBR {r:?} does not contain child MBR {child_mbr:?}"
                        );
                        total += count;
                        mbr = Some(match mbr {
                            Some(m) => m.union_mbr(r),
                            None => *r,
                        });
                    }
                    (mbr.expect("non-empty internal"), total)
                }
            }
        }
        let mut leaf_depth = None;
        let (_, count) = rec(&self.root, 0, true, &mut leaf_depth);
        assert_eq!(count, self.len, "len mismatch");
    }
}

// ----------------------------------------------------------------------
// Query helpers
// ----------------------------------------------------------------------

fn window_rec<'a, T>(n: &'a Node<T>, w: &Rect, out: &mut Vec<(Point, &'a T)>) {
    match n {
        Node::Leaf(items) => {
            out.extend(
                items
                    .iter()
                    .filter(|(p, _)| w.contains(*p))
                    .map(|(p, d)| (*p, d)),
            );
        }
        Node::Internal(children) => {
            for (mbr, c) in children {
                if mbr.intersects(w) {
                    window_rec(c, w, out);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Best-first heap plumbing
// ----------------------------------------------------------------------

enum HeapKind<'a, T> {
    Node(&'a Node<T>),
    Item(Point, &'a T),
}

struct HeapEntry<'a, T> {
    dist_sq: f64,
    kind: HeapKind<'a, T>,
}

impl<T> PartialEq for HeapEntry<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq == other.dist_sq
    }
}
impl<T> Eq for HeapEntry<'_, T> {}
impl<T> PartialOrd for HeapEntry<'_, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<'_, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; items win ties over nodes so results pop
        // before equal-distance subtrees are expanded (both orders are
        // correct; this one terminates marginally earlier).
        other
            .dist_sq
            .total_cmp(&self.dist_sq)
            .then_with(|| match (&self.kind, &other.kind) {
                (HeapKind::Item(..), HeapKind::Node(_)) => Ordering::Greater,
                (HeapKind::Node(_), HeapKind::Item(..)) => Ordering::Less,
                _ => Ordering::Equal,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<(Point, usize)> {
        // Deterministic pseudo-random scatter (LCG) — no rand dependency
        // needed in unit tests.
        let mut state = 0x2545F4914F6CDD1Du64;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = (state >> 16 & 0xFFFF) as f64 / 655.36;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = (state >> 16 & 0xFFFF) as f64 / 655.36;
                (Point::new(x, y), i)
            })
            .collect()
    }

    #[test]
    fn empty_tree_queries() {
        let t: RTree<u32> = RTree::bulk_load(Vec::new());
        assert!(t.is_empty());
        t.check_invariants();
        assert_eq!(t.knn(Point::ORIGIN, 3).len(), 0);
        assert_eq!(t.window(&Rect::from_coords(0.0, 0.0, 1.0, 1.0)).len(), 0);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn bulk_load_at_fanout_edges() {
        // Sizes straddle one leaf (16), one full internal level (256) and
        // a third level (4097), where STR's slicing rounds differently.
        let everything = Rect::from_coords(-1.0, -1.0, 101.0, 101.0);
        let q = Point::new(37.0, 61.0);
        for n in [0, 1, 15, 16, 17, 255, 256, 257, 4097] {
            let t = RTree::bulk_load(pts(n));
            t.check_invariants();
            assert_eq!(t.len(), n, "n = {n}");

            let mut seen: Vec<usize> = t.iter().map(|(_, &i)| i).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "iter, n = {n}");

            let near = t.knn(q, n + 1);
            assert_eq!(near.len(), n, "knn, n = {n}");
            assert!(
                near.windows(2).all(|w| w[0].distance <= w[1].distance),
                "knn order, n = {n}"
            );

            assert_eq!(t.window(&everything).len(), n, "window, n = {n}");
        }
    }

    #[test]
    fn window_query_matches_filter() {
        let items = pts(800);
        let t = RTree::bulk_load(items.clone());
        let w = Rect::from_coords(20.0, 30.0, 60.0, 55.0);
        let mut got: Vec<usize> = t.window(&w).into_iter().map(|(_, &i)| i).collect();
        got.sort_unstable();
        let mut expect: Vec<usize> = items
            .iter()
            .filter(|(p, _)| w.contains(*p))
            .map(|&(_, i)| i)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert!(!got.is_empty(), "window unexpectedly empty");
    }

    #[test]
    fn knn_with_k_larger_than_len() {
        let t = RTree::bulk_load(pts(5));
        assert_eq!(t.knn(Point::ORIGIN, 100).len(), 5);
    }

    #[test]
    fn duplicate_points_are_kept() {
        let p = Point::new(1.0, 1.0);
        let t = RTree::bulk_load((0..50).map(|i| (p, i)).collect());
        t.check_invariants();
        assert_eq!(t.len(), 50);
        assert_eq!(t.knn(p, 50).len(), 50);
        assert!(t.knn(p, 50).iter().all(|n| n.distance == 0.0));
    }

    #[test]
    fn iter_visits_everything() {
        let items = pts(300);
        let t = RTree::bulk_load(items);
        let mut seen: Vec<usize> = t.iter().map(|(_, &i)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn nearest_on_singleton() {
        let t = RTree::bulk_load(vec![(Point::new(3.0, 4.0), "only")]);
        let n = t.knn(Point::ORIGIN, 1);
        assert_eq!(n.len(), 1);
        assert_eq!(*n[0].data, "only");
        assert!((n[0].distance - 5.0).abs() < 1e-12);
    }
}
