//! Deterministic synthetic query workloads for benchmarking the store.
//!
//! Real REM traffic is not uniform: users cluster at hot spots (desks,
//! couches, doorways), so a serving bench that sprays uniform positions
//! overstates cache-friendliness exactly where it matters least. The
//! generator here draws cells from a **zipfian** rank distribution
//! (`P(rank) ∝ 1 / rank^s`) and scatters ranks across the lattice with a
//! fixed multiplicative permutation, so the hot set is both heavy-tailed
//! and spatially spread — a few hot cells scattered through the lattice,
//! many cold ones. A uniform mode is kept as the contrast arm.
//!
//! Everything is seeded: the same `(store shape, config)` always yields
//! the same query sequence, on any host.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::query::Query;
use crate::store::RemStore;

/// Which cell-popularity distribution a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Heavy-tailed hot spots: `P(rank) ∝ 1 / rank^s`.
    Zipfian,
    /// Every cell equally likely.
    Uniform,
}

impl std::str::FromStr for Distribution {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "zipfian" => Ok(Distribution::Zipfian),
            "uniform" => Ok(Distribution::Uniform),
            other => Err(format!("unknown distribution {other:?} (zipfian|uniform)")),
        }
    }
}

impl std::fmt::Display for Distribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Distribution::Zipfian => "zipfian",
            Distribution::Uniform => "uniform",
        })
    }
}

/// Parameters of a synthetic point-query workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of queries to generate.
    pub queries: usize,
    /// RNG seed; same seed → same workload.
    pub seed: u64,
    /// Cell-popularity distribution.
    pub distribution: Distribution,
    /// Zipf exponent `s` (ignored for uniform). `1.0` is classic Zipf;
    /// larger is hotter.
    pub exponent: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            queries: 1_000_000,
            seed: 2206,
            distribution: Distribution::Zipfian,
            exponent: 1.0,
        }
    }
}

/// Precomputed sampler over cell ranks.
struct CellSampler {
    /// Cumulative (unnormalized) rank weights; `cdf[r]` covers ranks
    /// `0..=r`. Empty for uniform.
    cdf: Vec<f64>,
    /// Multiplier of the rank→cell permutation (coprime with `cells`).
    stride: usize,
    cells: usize,
}

impl CellSampler {
    fn new(cells: usize, distribution: Distribution, exponent: f64) -> Self {
        let cdf = match distribution {
            Distribution::Uniform => Vec::new(),
            Distribution::Zipfian => {
                let mut acc = 0.0;
                (1..=cells)
                    .map(|rank| {
                        acc += (rank as f64).powf(-exponent);
                        acc
                    })
                    .collect()
            }
        };
        // Scatter ranks across the lattice so the hot set is not one
        // contiguous memory run: cell = rank * stride mod cells, with a
        // stride coprime to the cell count (fall back toward 1, which is
        // always coprime).
        let mut stride = 2_654_435_761 % cells.max(1);
        while stride > 1 && gcd(stride, cells) != 1 {
            stride -= 1;
        }
        CellSampler {
            cdf,
            stride: stride.max(1),
            cells,
        }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let rank = if self.cdf.is_empty() {
            rng.gen_range(0..self.cells)
        } else {
            let total = *self.cdf.last().expect("non-empty cdf");
            let u: f64 = rng.gen::<f64>() * total;
            self.cdf.partition_point(|&c| c < u).min(self.cells - 1)
        };
        (rank * self.stride) % self.cells
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Generates a seeded point-query workload against `store`.
///
/// Each query targets the center of a drawn cell (so every query is an
/// in-volume hit on the hot path) and a uniformly drawn AP.
pub fn point_workload(store: &RemStore, config: &WorkloadConfig) -> Vec<Query> {
    let layout = *store.layout();
    let cells = layout.cell_count();
    let macs = store.macs();
    let sampler = CellSampler::new(cells, config.distribution, config.exponent);
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.queries)
        .map(|_| {
            let cell = sampler.draw(&mut rng);
            let ap = macs[rng.gen_range(0..macs.len())];
            Query::Point {
                pos: layout.cell_center(cell),
                ap,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use aerorem_core::rem::RemGrid;
    use aerorem_core::snapshot::RemSnapshot;
    use aerorem_propagation::ap::MacAddress;
    use aerorem_spatial::Aabb;

    fn store() -> RemStore {
        let dims = (10, 10, 5);
        let grids = (1..=2)
            .map(|k| {
                let values = (0..500).map(|i| -40.0 - ((i + k) % 37) as f64).collect();
                RemGrid::from_parts(
                    MacAddress::from_index(k as u32),
                    Aabb::paper_volume(),
                    dims,
                    values,
                )
                .unwrap()
            })
            .collect();
        RemStore::build(&RemSnapshot::new(grids).unwrap(), StoreConfig::default()).unwrap()
    }

    #[test]
    fn workloads_are_seed_deterministic() {
        let store = store();
        let cfg = WorkloadConfig {
            queries: 500,
            ..WorkloadConfig::default()
        };
        assert_eq!(point_workload(&store, &cfg), point_workload(&store, &cfg));
        let other = point_workload(
            &store,
            &WorkloadConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        );
        assert_ne!(point_workload(&store, &cfg), other);
    }

    #[test]
    fn every_query_is_an_in_volume_hit() {
        let store = store();
        for dist in [Distribution::Zipfian, Distribution::Uniform] {
            let batch = point_workload(
                &store,
                &WorkloadConfig {
                    queries: 300,
                    distribution: dist,
                    ..WorkloadConfig::default()
                },
            );
            assert_eq!(batch.len(), 300);
            for q in &batch {
                let Query::Point { pos, ap } = q else {
                    panic!("point workload produced a non-point query")
                };
                assert!(store.point(*pos, *ap).is_some());
            }
        }
    }

    #[test]
    fn zipfian_is_hotter_than_uniform() {
        let store = store();
        let count_distinct = |dist| {
            let batch = point_workload(
                &store,
                &WorkloadConfig {
                    queries: 2000,
                    distribution: dist,
                    ..WorkloadConfig::default()
                },
            );
            let mut cells: Vec<String> = batch
                .iter()
                .map(|q| {
                    let Query::Point { pos, .. } = q else { unreachable!() };
                    format!("{pos:?}")
                })
                .collect();
            cells.sort();
            cells.dedup();
            cells.len()
        };
        let zipf = count_distinct(Distribution::Zipfian);
        let uniform = count_distinct(Distribution::Uniform);
        assert!(
            zipf < uniform,
            "zipfian ({zipf} distinct cells) should concentrate vs uniform ({uniform})"
        );
    }

    #[test]
    fn distribution_parses_and_displays() {
        assert_eq!("zipfian".parse::<Distribution>(), Ok(Distribution::Zipfian));
        assert_eq!("uniform".parse::<Distribution>(), Ok(Distribution::Uniform));
        assert!("pareto".parse::<Distribution>().is_err());
        assert_eq!(Distribution::Zipfian.to_string(), "zipfian");
    }
}
