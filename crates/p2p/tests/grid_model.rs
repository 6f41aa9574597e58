//! Property test: a retained [`NeighborGrid`] against a brute-force
//! model of its contract, through arbitrary epoch sequences.
//!
//! The grid has one build path, so comparing a refreshed grid with a
//! freshly built one would compare the code with itself. The reference
//! here shares nothing with it: filter every host by distance, then sort
//! by cell column, cell row, host id. Order is compared as strictly as
//! membership — the simulator's reply streams, and therefore its
//! reports, depend on the order `neighbors_within` returns hosts in.

use airshare_exec::ExecPool;
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

/// A query center: mostly on the hosts' lattice, sometimes NaN,
/// infinite or far outside the world.
fn center() -> impl Strategy<Value = Point> {
    let odd = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e30,
        -1e300,
        f64::MAX,
    ];
    (0usize..12, -8i32..48, -8i32..48).prop_map(move |(roll, x, y)| {
        let (x, y) = (x as f64 / 4.0, y as f64 / 4.0);
        match roll {
            0 => Point::new(odd[(x + y).abs() as usize % odd.len()], y),
            1 => Point::new(x, odd[(x * 4.0).abs() as usize % odd.len()]),
            _ => Point::new(x, y),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A marked refresh answers every lookup whose ring lies inside
    /// its marks exactly as the model does, in membership and order:
    /// from any center `c` with `⌈r/cell⌉ ≤ rings`, and from each host
    /// that lookup returned (a relay's second hop) with `2·⌈r/cell⌉ ≤
    /// rings`. Any other lookup may miss hosts but never invents one
    /// or reorders the rest. Covers no centers at all, NaN, infinite
    /// and far-away centers, NaN and offline hosts, hosts outside the
    /// declared bounds, and a fine cell whose marks span too many cells
    /// to index directly (the full-rebuild fallback).
    #[test]
    fn marked_grid_matches_the_model_inside_its_marks(
        pts in prop::collection::vec((-8i32..48, -8i32..48, 0usize..8), 1..60),
        centers in prop::collection::vec(center(), 0..6),
        rings in 0u32..5,
        fine in any::<bool>(),
    ) {
        let cell = if fine { 0.01 } else { 0.5 };
        let positions: Vec<Point> = pts
            .iter()
            .map(|&(x, y, roll)| match roll {
                0 => Point::new(f64::NAN, y as f64 / 4.0),
                _ => Point::new(x as f64 / 4.0, y as f64 / 4.0),
            })
            .collect();
        let online: Vec<bool> = pts.iter().map(|&(_, _, roll)| roll != 1).collect();
        let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let mut grid = NeighborGrid::with_bounds(&world, cell, positions.len());
        // A full refresh first, so nothing of it may survive the marked one.
        grid.refresh_active(&positions, &online);
        grid.refresh_near(&positions, &online, &centers, rings, &ExecPool::sequential());
        prop_assert_eq!(grid.len(), positions.len());

        let reach = |r: f64| (r / cell).ceil() as u32;
        for (ci, &c) in centers.iter().enumerate() {
            for r in [0.0, 0.3 * cell, cell, 1.4 * cell, 2.0 * cell, 3.0 * cell] {
                let got = grid.neighbors_within(c, r, None);
                let want = model(&positions, &online, cell, c, r, None);
                if reach(r) > rings {
                    prop_assert!(is_subsequence(&got, &want), "center {} range {}", ci, r);
                    continue;
                }
                prop_assert_eq!(&got, &want, "center {}, range {}, rings {}", ci, r, rings);
                for &j in &got {
                    let from = grid.position(j);
                    let hop = grid.neighbors_within(from, r, Some(j));
                    let want = model(&positions, &online, cell, from, r, Some(j));
                    if 2 * reach(r) <= rings {
                        prop_assert_eq!(&hop, &want, "relay {} of center {}, range {}", j, ci, r);
                    } else {
                        prop_assert!(is_subsequence(&hop, &want), "relay {} of center {}", j, ci);
                    }
                }
            }
        }
        // Lookups from anywhere else: a subset, in order.
        for (h, &p) in positions.iter().enumerate() {
            for r in [cell, 2.5, 1e12] {
                let got = grid.neighbors_within(p, r, Some(h));
                let want = model(&positions, &online, cell, p, r, Some(h));
                prop_assert!(is_subsequence(&got, &want), "host {} range {}", h, r);
            }
        }
    }
}

/// `got` is `want` with some entries left out.
fn is_subsequence(got: &[usize], want: &[usize]) -> bool {
    let mut rest = want.iter();
    got.iter().all(|g| rest.any(|w| w == g))
}
