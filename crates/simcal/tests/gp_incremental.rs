//! The GP surrogate's incremental refit and blocked scoring are bit-exact.
//!
//! One `GaussianProcess` refit over a growing history (extending its
//! factors in place, then rebuilding them once subsampling reorders the
//! fit set) must predict the same bits as a fresh GP fitted once on the
//! same data, and `predict_batch` must equal `predict` bit for bit.

use proptest::prelude::*;
use simcal::surrogate::{GaussianProcess, Surrogate};

fn gp_with_cap(max_points: usize) -> GaussianProcess {
    let mut gp = GaussianProcess::default();
    gp.max_points = max_points;
    gp
}

fn bits(p: (f64, f64)) -> (u64, u64) {
    (p.0.to_bits(), p.1.to_bits())
}

/// A history of `len` points in `dim` dimensions drawn from `raw`, where
/// every `dup_every`-th point repeats an earlier one exactly (duplicates
/// make the kernel matrix near-singular at the small length scales).
fn history(raw: &[f64], dim: usize, len: usize, dup_every: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut xs: Vec<Vec<f64>> = Vec::new();
    for i in 0..len {
        let p: Vec<f64> = (0..dim).map(|d| raw[(i * dim + d) % raw.len()]).collect();
        if dup_every > 0 && i > 0 && i % dup_every == 0 {
            xs.push(xs[i / 2].clone());
        } else {
            xs.push(p);
        }
    }
    let ys = xs
        .iter()
        .map(|p| {
            p.iter()
                .enumerate()
                .map(|(d, v)| (3.0 * (d + 1) as f64 * v).sin())
                .sum()
        })
        .collect();
    (xs, ys)
}

fn queries(raw: &[f64], dim: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..dim)
                .map(|d| raw[(i * 5 + d * 3 + 1) % raw.len()])
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn growing_refits_predict_like_a_fresh_fit(
        raw in proptest::collection::vec(0.0f64..1.0, 40..120),
        dim in 1usize..4,
        max_points in 12usize..30,
        step in 1usize..9,
        dup_every in 0usize..7,
        warm in 0usize..4,
    ) {
        let len = max_points + 3 * step + 5;
        let (xs, ys) = history(&raw, dim, len, dup_every);
        let probe = queries(&raw, dim, 9);
        let mut grown = gp_with_cap(max_points);
        // A warm prefix first, then batches appended at the end, as BO
        // does; the history crosses `max_points`, so both the in-place
        // extension and the rebuild after subsampling run.
        let mut n = warm.max(1);
        while n <= len {
            grown.fit(&xs[..n], &ys[..n]);
            let mut fresh = gp_with_cap(max_points);
            fresh.fit(&xs[..n], &ys[..n]);
            for q in &probe {
                prop_assert_eq!(bits(grown.predict(q)), bits(fresh.predict(q)), "n = {}", n);
            }
            n += step;
        }
    }

    #[test]
    fn predict_batch_equals_predict(
        raw in proptest::collection::vec(0.0f64..1.0, 30..90),
        dim in 1usize..5,
        len in 2usize..60,
        count in 0usize..40,
        dup_every in 0usize..5,
    ) {
        let (xs, ys) = history(&raw, dim, len, dup_every);
        let mut gp = GaussianProcess::default();
        gp.fit(&xs, &ys);
        let probe = queries(&raw, dim, count);
        let batch = gp.predict_batch(&probe);
        prop_assert_eq!(batch.len(), probe.len());
        for (q, b) in probe.iter().zip(&batch) {
            prop_assert_eq!(bits(*b), bits(gp.predict(q)));
        }
    }
}

#[test]
fn default_gp_crosses_max_points_bit_exactly() {
    // BO's shape: 16 initial points, then batches of 8, past the default
    // `max_points` = 200.
    let raw: Vec<f64> = (0..997)
        .map(|i| (i as f64 * 0.618_033_988_749_895) % 1.0)
        .collect();
    let (xs, ys) = history(&raw, 3, 232, 0);
    let probe = queries(&raw, 3, 33);
    let mut grown = GaussianProcess::default();
    for n in (16..=232).step_by(8) {
        grown.fit(&xs[..n], &ys[..n]);
        if n % 72 == 16 || n > 200 {
            let mut fresh = GaussianProcess::default();
            fresh.fit(&xs[..n], &ys[..n]);
            let batch = grown.predict_batch(&probe);
            for (q, b) in probe.iter().zip(&batch) {
                assert_eq!(bits(grown.predict(q)), bits(fresh.predict(q)), "n = {n}");
                assert_eq!(bits(*b), bits(fresh.predict(q)), "n = {n}");
            }
        }
    }
}

#[test]
fn changing_the_kernel_between_fits_rebuilds() {
    let raw: Vec<f64> = (0..211).map(|i| ((i * 37 % 211) as f64) / 211.0).collect();
    let (xs, ys) = history(&raw, 2, 40, 0);
    let probe = queries(&raw, 2, 7);
    let mut gp = GaussianProcess::default();
    gp.fit(&xs[..30], &ys[..30]);
    gp.length_scales = vec![0.3, 0.7];
    gp.noise = 1e-4;
    gp.fit(&xs, &ys);
    let mut fresh = GaussianProcess::default();
    fresh.length_scales = vec![0.3, 0.7];
    fresh.noise = 1e-4;
    fresh.fit(&xs, &ys);
    for q in &probe {
        assert_eq!(bits(gp.predict(q)), bits(fresh.predict(q)));
    }
}
