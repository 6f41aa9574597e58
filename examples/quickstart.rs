//! Quickstart: one SBNN query, end to end.
//!
//! Builds a small broadcast world, gives two peers cached verified
//! regions, and runs a 2-NN query that is answered entirely from peer
//! data — then the same query with no peers, to show the broadcast cost
//! that sharing avoided.
//!
//! Run with: `cargo run --release --example quickstart`

use airshare::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // --- The server side: 200 POIs on a 10 mi × 10 mi area, broadcast
    // on a (1, 4) Hilbert air index. ---
    let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
    let mut rng = StdRng::seed_from_u64(7);
    let pois: Vec<Poi> = (0..200)
        .map(|i| {
            Poi::new(
                i,
                Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)),
            )
        })
        .collect();
    let index = AirIndex::try_build(pois.clone(), Grid::new(world, 6), 8).unwrap();
    let schedule = Schedule::try_for_backend(&index, 4).expect("m >= 1");
    let client = OnAirClient::new(&index, &schedule);
    println!(
        "channel: {} data buckets, index {} buckets, cycle {} ticks",
        index.data_buckets(),
        index.index_buckets(),
        schedule.cycle_len()
    );

    // --- Two peers answered queries recently and cached the results:
    // each holds a verified region (it provably knows every POI inside)
    // plus those POIs. ---
    let q = Point::new(5.0, 5.0);
    let vr1 = Rect::from_coords(3.5, 3.5, 6.5, 6.5);
    let vr2 = Rect::from_coords(4.5, 2.0, 7.5, 5.0);
    let peer = |vr: Rect| -> (Rect, Vec<Poi>) {
        (
            vr,
            pois.iter()
                .filter(|p| vr.contains(p.pos))
                .copied()
                .collect(),
        )
    };
    let mvr = MergedRegion::from_regions([peer(vr1), peer(vr2)]);
    println!(
        "merged verified region: {} POIs known from peers",
        mvr.pois().len()
    );

    // --- SBNN: answer the 2-NN query from the peers alone. ---
    let cfg = SbnnConfig::paper_defaults(2, 200.0 / 100.0); // λ = POIs per mi²
                                                            // One scratch serves every query; `NoopRecorder` traces nothing.
    let mut scratch = QueryScratch::new();
    let outcome = sbnn_rec(q, &cfg, &mvr, None, &mut scratch, &mut NoopRecorder);
    match outcome {
        SbnnOutcome::Resolved(res) => {
            println!("resolved by {:?}:", res.resolved_by);
            for (i, n) in res.neighbors.iter().enumerate() {
                println!(
                    "  #{num}: POI {id} at {dist:.3} mi  ({status})",
                    num = i + 1,
                    id = n.poi.id,
                    dist = n.distance,
                    status = if n.verified {
                        "verified".to_string()
                    } else {
                        format!("correctness {:.0}%", 100.0 * n.correctness.unwrap_or(0.0))
                    }
                );
            }
        }
        SbnnOutcome::Unresolved(heap) => {
            println!(
                "peers could not finish ({} of {} verified)",
                heap.verified_count(),
                heap.k()
            );
        }
    }

    // --- The same query with no peers at all: pure on-air cost. ---
    let no_peers = MergedRegion::from_regions(Vec::<(Rect, Vec<Poi>)>::new());
    let res = sbnn_rec(
        q,
        &cfg,
        &no_peers,
        Some((&client.as_dyn(), 0)),
        &mut scratch,
        &mut NoopRecorder,
    )
    .resolved()
    .expect("broadcast always resolves");
    let air = res.air.expect("went on air");
    println!(
        "without peers: resolved by {:?} — access latency {} ticks, \
         tuning {} ticks, {} buckets downloaded",
        res.resolved_by, air.latency, air.tuning, air.buckets
    );
    println!("sharing avoided all of that wait.");
}
