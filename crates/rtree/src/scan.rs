//! Brute-force linear scan baseline.

use crate::Neighbor;
use airshare_geom::{Point, Rect};

/// A flat list of `(Point, T)` items answering the same queries as
/// [`crate::RTree`] by exhaustive scan. Exists to cross-check the tree in
/// tests.
#[derive(Clone, Debug)]
pub struct LinearScan<T> {
    items: Vec<(Point, T)>,
}

impl<T> LinearScan<T> {
    /// Builds from a batch of items.
    pub fn from_items(items: Vec<(Point, T)>) -> Self {
        Self { items }
    }

    /// The `k` nearest items to `q`, ascending by distance.
    pub fn knn(&self, q: Point, k: usize) -> Vec<Neighbor<'_, T>> {
        let mut all: Vec<Neighbor<'_, T>> = self
            .items
            .iter()
            .map(|(p, d)| Neighbor {
                point: *p,
                data: d,
                distance: p.distance(q),
            })
            .collect();
        all.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        all.truncate(k);
        all
    }

    /// All items inside the window.
    pub fn window(&self, w: &Rect) -> Vec<(Point, &T)> {
        self.items
            .iter()
            .filter(|(p, _)| w.contains(*p))
            .map(|(p, d)| (*p, d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_orders_by_distance() {
        let s = LinearScan::from_items(vec![
            (Point::new(5.0, 0.0), 'a'),
            (Point::new(1.0, 0.0), 'b'),
            (Point::new(3.0, 0.0), 'c'),
        ]);
        let got: Vec<char> = s.knn(Point::ORIGIN, 2).iter().map(|n| *n.data).collect();
        assert_eq!(got, vec!['b', 'c']);
    }

    #[test]
    fn window_filters() {
        let s = LinearScan::from_items(vec![(Point::new(0.5, 0.5), 1), (Point::new(2.0, 2.0), 2)]);
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let got: Vec<i32> = s.window(&w).into_iter().map(|(_, &i)| i).collect();
        assert_eq!(got, vec![1]);
    }
}
