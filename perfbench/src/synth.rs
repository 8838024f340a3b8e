//! Seeded synthetic REM snapshots for the serving workloads.
//!
//! Each AP gets a seeded position and transmit power; a cell's value is
//! log-distance path loss from the AP plus a smooth seeded shadowing
//! field, so the maps have the spatial structure of a real indoor REM
//! (strong near the AP, decaying with distance, rippled by walls) and
//! every value is finite.

use aerorem::core::rem::RemGrid;
use aerorem::core::snapshot::RemSnapshot;
use aerorem::propagation::ap::MacAddress;
use aerorem::spatial::Aabb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cells per axis: the paper's 3.74 × 3.20 × 2.10 m volume at 8 cm.
pub const DIMS: (usize, usize, usize) = (47, 40, 26);
/// APs per snapshot.
pub const APS: u32 = 4;

/// The snapshot for `(seed, variant)`. Variants of one seed share AP
/// identities and lattice but differ in every value, as two successive
/// surveys of one building would.
pub fn snapshot(seed: u64, variant: u64) -> RemSnapshot {
    let volume = Aabb::paper_volume();
    let (nx, ny, nz) = DIMS;
    let mut rng = StdRng::seed_from_u64(seed ^ variant.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let grids = (1..=APS)
        .map(|k| {
            let ap = volume.lerp_point(
                rng.gen_range(-0.3..1.3),
                rng.gen_range(-0.3..1.3),
                rng.gen_range(0.0..1.0),
            );
            let tx_dbm: f64 = rng.gen_range(-38.0..-28.0);
            let exponent: f64 = rng.gen_range(2.0..3.2);
            let phase: [f64; 3] = [rng.gen(), rng.gen(), rng.gen()];
            let mut values = Vec::with_capacity(nx * ny * nz);
            for iz in 0..nz {
                for iy in 0..ny {
                    for ix in 0..nx {
                        let p = volume.lerp_point(
                            (ix as f64 + 0.5) / nx as f64,
                            (iy as f64 + 0.5) / ny as f64,
                            (iz as f64 + 0.5) / nz as f64,
                        );
                        let d = (p - ap).norm().max(0.1);
                        let shadow = 4.0
                            * ((p.x * 2.9 + phase[0] * 6.3).sin()
                                + (p.y * 3.7 + phase[1] * 6.3).sin()
                                + (p.z * 5.1 + phase[2] * 6.3).cos());
                        values.push(tx_dbm - 10.0 * exponent * d.log10() + shadow);
                    }
                }
            }
            RemGrid::from_parts(MacAddress::from_index(k), volume, DIMS, values)
                .expect("synthetic grid matches its lattice")
        })
        .collect();
    RemSnapshot::new(grids).expect("synthetic snapshot has grids")
}
