//! Determinism under parallelism: every rayon-fanned path must produce
//! bitwise-identical results on a 1-thread pool and an N-thread pool.
//!
//! This is the repo's core reproducibility contract extended to the real
//! work-stealing pool: chunk *scheduling* may race, but each chunk's
//! arithmetic is independent of which worker runs it and of how many
//! workers exist, and order-preserving `collect` reassembles results by
//! chunk index. These tests pin that contract for the three rayon call
//! sites — covariance assembly (`par_chunks_mut`), tile generation
//! (`par_iter().map().collect()`), and PSO particle evaluation — plus the
//! task runtime's worker loops, which run on the same pool, and a full fit
//! on top of all of them.

use exageostat_rs::core::PsoOptions;
use exageostat_rs::covariance::covariance_matrix;
use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;
use std::sync::Arc;

/// Run `f` with the thread-local pool forced to `threads` workers.
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(f)
}

fn dataset(n: usize, seed: u64) -> (Vec<Location>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut locs = jittered_grid(n, &mut rng);
    morton_order(&mut locs);
    let z = simulate_field(
        &Matern::new(MaternParams::new(1.0, 0.09, 0.6)),
        &locs,
        seed + 1,
    );
    (locs, z)
}

#[test]
fn covariance_assembly_is_bitwise_identical_across_pool_sizes() {
    let (locs, _) = dataset(400, 7);
    let kernel = Matern::new(MaternParams::new(0.9, 0.13, 0.48));
    let one = with_pool(1, || covariance_matrix(&kernel, &locs));
    let many = with_pool(4, || covariance_matrix(&kernel, &locs));
    // Bitwise, not approximate: same chunk arithmetic regardless of who
    // runs it, order restored by index.
    assert_eq!(one.as_slice(), many.as_slice());
}

#[test]
fn pso_objective_fanout_is_bitwise_identical_across_pool_sizes() {
    // Rosenbrock-ish objective, expensive enough for chunks > 1 particle.
    let obj = |x: &[f64]| -> f64 {
        x.windows(2)
            .map(|w| 100.0 * (w[1] - w[0] * w[0]).powi(2) + (1.0 - w[0]).powi(2))
            .sum()
    };
    let bounds = vec![(-2.0, 2.0); 4];
    let opts = PsoOptions {
        particles: 24,
        iterations: 30,
        parallel: true,
        ..PsoOptions::default()
    };
    let one = with_pool(1, || particle_swarm(obj, &bounds, &opts));
    let many = with_pool(4, || particle_swarm(obj, &bounds, &opts));
    assert_eq!(one.x, many.x);
    assert_eq!(one.f.to_bits(), many.f.to_bits());
    assert_eq!(one.history, many.history);
    // Parallel evaluation must also match the sequential reference path.
    let seq = particle_swarm(
        obj,
        &bounds,
        &PsoOptions {
            parallel: false,
            ..opts
        },
    );
    assert_eq!(seq.x, one.x);
    assert_eq!(seq.f.to_bits(), one.f.to_bits());
}

#[test]
fn tile_cholesky_factor_is_bitwise_identical_across_pool_sizes() {
    let (locs, _) = dataset(600, 21);
    let kernel = Matern::new(MaternParams::new(1.1, 0.08, 0.5));
    let model = FlopKernelModel {
        dense_rate: 45.0e9,
        mem_factor: 1.0,
    };
    // MpDenseTlr exercises every tile format the generator can emit
    // (dense f64/f32/f16 and low-rank) through the pool-fanned
    // par_iter generation path. The task runtime on the whole pool
    // factors a second copy.
    let factor = |threads: usize| {
        with_pool(threads, || {
            let generate = || {
                SymTileMatrix::generate(
                    &kernel,
                    &locs,
                    TlrConfig::new(Variant::MpDenseTlr, 75),
                    &model,
                )
            };
            let mut f = TiledFactor::from_matrix(generate());
            f.factorize_seq().expect("SPD");
            let par = Arc::new(TiledFactor::from_matrix(generate()));
            par.factorize_parallel(0).0.expect("SPD");
            (f.to_dense_lower(), par.to_dense_lower())
        })
    };
    let (one, one_par) = factor(1);
    let (many, many_par) = factor(4);
    assert_eq!(one.as_slice(), many.as_slice());
    assert_eq!(one_par.as_slice(), many_par.as_slice());
    assert_eq!(one.as_slice(), one_par.as_slice());
}

#[test]
fn full_fit_is_bitwise_identical_across_pool_sizes() {
    let (locs, z) = dataset(300, 33);
    let model = FlopKernelModel {
        dense_rate: 45.0e9,
        mem_factor: 1.0,
    };
    let cfg = TlrConfig::new(Variant::DenseF64, 64);
    // `workers: 2` nests a task-runtime factorization in every particle.
    let run = |threads: usize, workers: usize| {
        with_pool(threads, || {
            let opts = FitOptions {
                workers,
                optimizer: exageostat_rs::core::mle::FitOptimizer::ParticleSwarm(PsoOptions {
                    particles: 6,
                    iterations: 4,
                    parallel: true,
                    ..PsoOptions::default()
                }),
                ..FitOptions::default()
            };
            fit(ModelFamily::MaternSpace, &locs, &z, &cfg, &model, &opts)
        })
    };
    for workers in [1, 2] {
        let one = run(1, workers);
        let many = run(4, workers);
        assert_eq!(one.llh.to_bits(), many.llh.to_bits());
        for (a, b) in one.theta.iter().zip(&many.theta) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(one.evals, many.evals);
    }
}
