//! Property test: a retained [`NeighborGrid`] against a brute-force
//! model of its contract, through arbitrary epoch sequences.
//!
//! The grid has one build path, so comparing a refreshed grid with a
//! freshly built one would compare the code with itself. The reference
//! here shares nothing with it: filter every host by distance, then sort
//! by cell column, cell row, host id. Order is compared as strictly as
//! membership — the simulator's reply streams, and therefore its
//! reports, depend on the order `neighbors_within` returns hosts in.

use airshare_geom::{Point, Rect};
use airshare_p2p::NeighborGrid;
use proptest::prelude::*;

/// What `neighbors_within` promises, computed the slow way.
fn model(
    positions: &[Point],
    online: &[bool],
    cell: f64,
    center: Point,
    range: f64,
    exclude: Option<usize>,
) -> Vec<usize> {
    let key = |i: usize| {
        let p = positions[i];
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64, i)
    };
    let mut want: Vec<usize> = (0..positions.len())
        .filter(|&i| online[i] && Some(i) != exclude)
        .filter(|&i| positions[i].distance_sq(center) <= range * range)
        .collect();
    want.sort_by_key(|&i| key(i));
    want
}

/// One epoch boundary's worth of fleet change.
#[derive(Clone, Debug)]
struct Boundary {
    /// The fleet shrinks or grows to this many hosts (one boundary in
    /// four); new hosts start online in a row from `(1, 1)`.
    resize: Option<usize>,
    /// (host, x, y) mobility steps onto a quarter-unit lattice reaching
    /// past the declared world, so hosts share cells, sit at exactly
    /// representable distances, and leave the pre-sized extent.
    moves: Vec<(usize, i32, i32)>,
    /// Hosts whose online flag flips (crash, restart, admission).
    flips: Vec<usize>,
}

fn boundary() -> impl Strategy<Value = Boundary> {
    (
        (0usize..4, 1usize..40),
        prop::collection::vec((0usize..40, -8i32..48, -8i32..48), 0..40),
        prop::collection::vec(0usize..40, 0..40),
    )
        .prop_map(|((roll, hosts), moves, flips)| Boundary {
            resize: (roll == 0).then_some(hosts),
            moves,
            flips,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Mobility, churn, staged admission (`start_online == false`: the
    /// `LiveWorld` case, hosts admitted a few per boundary), fleet
    /// resizes and excursions past the declared bounds, probed after
    /// every refresh. A coarse cell keeps the extent small enough to be
    /// indexed directly; a fine one spreads the same fleet over millions
    /// of cells, which takes the grid past its cells-per-host cap and
    /// onto the sorted-key lookup.
    #[test]
    fn grid_matches_the_brute_force_model(
        seed_pts in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..40),
        start_online in any::<bool>(),
        epochs in prop::collection::vec(boundary(), 1..10),
        (fine, cell_draw) in (any::<bool>(), 0.0f64..1.0),
    ) {
        let cell = if fine { 0.004 + 0.02 * cell_draw } else { 0.25 + 2.75 * cell_draw };
        let mut positions: Vec<Point> =
            seed_pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut online = vec![start_online; positions.len()];
        let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let mut grid = NeighborGrid::with_bounds(&world, cell, positions.len());

        for (e, step) in epochs.iter().enumerate() {
            if let Some(hosts) = step.resize {
                let row = |i: usize| Point::new(1.0 + 0.37 * i as f64, 1.0);
                positions = (0..hosts).map(|i| *positions.get(i).unwrap_or(&row(i))).collect();
                online.resize(hosts, true);
            }
            let n = positions.len();
            for &(h, x, y) in &step.moves {
                positions[h % n] = Point::new(x as f64 / 4.0, y as f64 / 4.0);
            }
            for &h in &step.flips {
                online[h % n] = !online[h % n];
            }
            grid.refresh_active(&positions, &online);

            prop_assert_eq!(grid.len(), n);
            for (h, &p) in positions.iter().enumerate() {
                prop_assert_eq!(grid.position(h), p);
                for range in [0.0, cell * 1.4, 0.75, 2.5, 1e12] {
                    prop_assert_eq!(
                        grid.neighbors_within(p, range, Some(h)),
                        model(&positions, &online, cell, p, range, Some(h)),
                        "epoch {}, host {}, cell {}, range {}", e, h, cell, range
                    );
                }
            }
            for (gx, gy) in [(-3.0, 5.0), (4.1, 4.9), (11.5, 11.5)] {
                let c = Point::new(gx, gy);
                prop_assert_eq!(
                    grid.neighbors_within(c, 3.0, None),
                    model(&positions, &online, cell, c, 3.0, None),
                    "epoch {}, probe ({}, {}), cell {}", e, gx, gy, cell
                );
            }
        }
    }
}
