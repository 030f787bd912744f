//! Workload inputs, generated from the run's seed alone.
//!
//! Every workload's data is a Matérn field (σ² = 1, ν = 0.5) sampled
//! exactly (`Z = L ε`) on a Morton-ordered jittered grid of the unit
//! square. The grid's jitter is fixed; the seed draws the field values,
//! the prediction targets and the request streams. Tile formats and TLR
//! ranks depend on the sites alone, so every seed asks the same work of
//! the solver and run-to-run spread measures the code, not the data. The
//! same seed gives bitwise the same inputs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xgs_covariance::{jittered_grid, morton_order, Location, Matern, MaternParams};
use xgs_tile::FlopKernelModel;

/// One dataset and the parameters it was drawn under.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    pub locs: Vec<Location>,
    pub z: Vec<f64>,
    /// `[σ², range, ν]`.
    pub theta: [f64; 3],
}

impl Field {
    pub fn kernel(&self) -> Matern {
        matern(self.theta)
    }
}

pub fn matern(theta: [f64; 3]) -> Matern {
    Matern::new(MaternParams::new(theta[0], theta[1], theta[2]))
}

/// Seed of the sites' jitter (fixed across runs).
const SITES_SEED: u64 = 1;

/// `n` fixed sites and one field realization at correlation `range`,
/// drawn from `seed`.
pub fn field(n: usize, range: f64, seed: u64) -> Field {
    let mut rng = StdRng::seed_from_u64(SITES_SEED);
    let mut locs = jittered_grid(n, &mut rng);
    morton_order(&mut locs);
    let theta = [1.0, range, 0.5];
    let z = xgs_core::simulate_field(&matern(theta), &locs, seed ^ 0x5eed_f1e1d);
    Field { locs, z, theta }
}

/// `k` prediction targets, uniform on the unit square.
pub fn targets(k: usize, seed: u64) -> Vec<Location> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07a2_9e75);
    (0..k)
        .map(|_| Location::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect()
}

/// The kernel-time model behind the structure decision: the repository's
/// demo-scale model (no memory-bound TLR penalty), under which tile-low-rank
/// compression engages at tile sizes this small.
pub fn tile_model() -> FlopKernelModel {
    FlopKernelModel {
        dense_rate: 45.0e9,
        mem_factor: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = field(200, 0.1, 9);
        assert_eq!(a, field(200, 0.1, 9));
        let b = field(200, 0.1, 10);
        assert_ne!(a.z, b.z);
        assert_eq!(a.locs, b.locs, "sites do not depend on the seed");
        assert_eq!(targets(16, 9), targets(16, 9));
        assert!(a.z.iter().all(|v| v.is_finite()));
    }
}
