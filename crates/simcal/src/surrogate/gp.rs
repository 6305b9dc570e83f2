//! Gaussian-process regression with an RBF kernel.
//!
//! Targets are standardized before fitting; the RBF length scale is chosen
//! from a small grid by log marginal likelihood, which is the behaviour
//! that matters for BO (adapting to how wiggly the loss landscape is)
//! without a full hyperparameter optimizer.
//!
//! BO refits after every batch on a fit set that, until subsampling
//! starts, only grows at the end. The GP therefore keeps one packed
//! Cholesky factor per length scale and extends it in place when the new
//! fit set starts with the old one bit for bit; anything else rebuilds
//! the factors. Both paths produce the same bits (see
//! [`numeric::Cholesky`]).

use super::Surrogate;
use numeric::Cholesky;

/// Gaussian process with kernel
/// `k(a, b) = exp(-||a - b||^2 / (2 l^2)) + noise * 1{a == b}` over
/// standardized targets.
#[derive(Clone, Debug)]
pub struct GaussianProcess {
    /// Candidate RBF length scales (unit-cube coordinates).
    pub length_scales: Vec<f64>,
    /// Observation-noise variance added to the kernel diagonal.
    pub noise: f64,
    /// Cap on training points; the most recent and best points are kept.
    pub max_points: usize,
    /// The fit set the factors were built on, after subsampling.
    points: Vec<Vec<f64>>,
    /// Kernel Cholesky factor over `points` per entry of `length_scales`;
    /// `None` where that kernel matrix is not positive definite.
    factors: Vec<Option<Cholesky>>,
    /// Bits of the `length_scales` and `noise` the factors were built
    /// with; a change forces a rebuild.
    kernel_bits: Vec<u64>,
    fitted: Option<Fitted>,
}

#[derive(Clone, Debug)]
struct Fitted {
    /// Index of the chosen length scale (and its factor).
    scale: usize,
    alpha: Vec<f64>,
    length_scale: f64,
    y_mean: f64,
    y_std: f64,
}

impl Default for GaussianProcess {
    fn default() -> Self {
        Self {
            length_scales: vec![0.05, 0.1, 0.2, 0.5, 1.0],
            noise: 1e-6,
            max_points: 200,
            points: Vec::new(),
            factors: Vec::new(),
            kernel_bits: Vec::new(),
            fitted: None,
        }
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl GaussianProcess {
    /// Indices of the training points to fit, ascending: all of them up
    /// to `max_points`, else the `max_points / 2` best (lowest-y) points
    /// plus the most recent remainder. BO cares most about modelling the
    /// promising region and the frontier.
    fn subsample(&self, y: &[f64]) -> Vec<usize> {
        if y.len() <= self.max_points {
            return (0..y.len()).collect();
        }
        let keep_best = self.max_points / 2;
        let mut order: Vec<usize> = (0..y.len()).collect();
        order.sort_by(|&a, &b| y[a].partial_cmp(&y[b]).unwrap_or(std::cmp::Ordering::Equal));
        let mut selected: Vec<usize> = order[..keep_best].to_vec();
        let recent_start = y.len() - (self.max_points - keep_best);
        for i in recent_start..y.len() {
            if !selected.contains(&i) {
                selected.push(i);
            }
        }
        selected.sort_unstable();
        selected.truncate(self.max_points);
        selected
    }

    /// Bring `points` and `factors` to the fit set `x[keep]`: extend in
    /// place when the current fit set is a bitwise prefix of it under an
    /// unchanged kernel, otherwise rebuild from empty factors.
    fn update_factors(&mut self, x: &[Vec<f64>], keep: &[usize]) {
        let kernel_bits: Vec<u64> = self
            .length_scales
            .iter()
            .chain([&self.noise])
            .map(|v| v.to_bits())
            .collect();
        let is_prefix = kernel_bits == self.kernel_bits
            && self.points.len() <= keep.len()
            && self
                .points
                .iter()
                .zip(keep)
                .all(|(p, &i)| same_bits(p, &x[i]));
        if !is_prefix {
            self.points.clear();
            self.factors = vec![Some(Cholesky::empty()); self.length_scales.len()];
            self.kernel_bits = kernel_bits;
        }
        let known = self.points.len();
        self.points
            .extend(keep[known..].iter().map(|&i| x[i].clone()));

        let (points, diag) = (&self.points, self.noise + 1e-10);
        for (factor, &l) in self.factors.iter_mut().zip(&self.length_scales) {
            let Some(chol) = factor else {
                // Not PD over a prefix, so not PD over the whole set.
                continue;
            };
            let pd = chol.extend(points.len(), |i, j| {
                let k = (-sq_dist(&points[i], &points[j]) / (2.0 * l * l)).exp();
                if i == j {
                    k + diag
                } else {
                    k
                }
            });
            if !pd {
                *factor = None;
            }
        }
    }

    /// Kernel column `k(points, x)` at the fitted length scale.
    fn kstar(&self, l: f64, x: &[f64]) -> Vec<f64> {
        self.points
            .iter()
            .map(|xi| (-sq_dist(xi, x) / (2.0 * l * l)).exp())
            .collect()
    }

    fn fitted(&self) -> (&Fitted, &Cholesky) {
        let f = self.fitted.as_ref().expect("predict before fit");
        let chol = self.factors[f.scale]
            .as_ref()
            .expect("the chosen length scale has a factor");
        (f, chol)
    }

    /// Predictive `(mean, std)` from a kernel column, its dot product with
    /// `alpha`, and its forward solve `v = L^-1 k*`.
    fn moments(&self, f: &Fitted, mean_std: f64, v: &[f64]) -> (f64, f64) {
        let var = (1.0 + self.noise - v.iter().map(|x| x * x).sum::<f64>()).max(0.0);
        (f.y_mean + f.y_std * mean_std, f.y_std * var.sqrt())
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| a * b).sum::<f64>()
}

/// Candidates scored per [`Cholesky::solve_lower_block`] call; bounds
/// the kernel columns held at once.
const PREDICT_BLOCK: usize = 64;

impl Surrogate for GaussianProcess {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        let keep = self.subsample(y);
        // The factors change under any previous fit.
        self.fitted = None;
        self.update_factors(x, &keep);

        let y: Vec<f64> = keep.iter().map(|&i| y[i]).collect();
        let y_mean = numeric::mean(&y);
        let y_std = numeric::std_dev(&y).max(1e-12);
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();

        let n = ys.len();
        let mut best: Option<(f64, usize, Vec<f64>)> = None;
        for (scale, chol) in self.factors.iter().enumerate() {
            let Some(chol) = chol else { continue };
            let alpha = chol.solve(&ys);
            // log marginal likelihood = -0.5 y^T alpha - 0.5 log det K - n/2 log 2pi
            let lml = -0.5 * dot(&ys, &alpha)
                - 0.5 * chol.log_det()
                - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
            if best.as_ref().is_none_or(|(b, ..)| lml > *b) {
                best = Some((lml, scale, alpha));
            }
        }
        let (_, scale, alpha) = best.expect("at least one length scale must yield a PD kernel");
        self.fitted = Some(Fitted {
            scale,
            alpha,
            length_scale: self.length_scales[scale],
            y_mean,
            y_std,
        });
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        let (f, chol) = self.fitted();
        let kstar = self.kstar(f.length_scale, x);
        let v = chol.solve_lower(&kstar);
        self.moments(f, dot(&kstar, &f.alpha), &v)
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let (f, chol) = self.fitted();
        let mut out = Vec::with_capacity(xs.len());
        for block in xs.chunks(PREDICT_BLOCK) {
            let mut ks: Vec<Vec<f64>> = block
                .iter()
                .map(|x| self.kstar(f.length_scale, x))
                .collect();
            let means: Vec<f64> = ks.iter().map(|k| dot(k, &f.alpha)).collect();
            chol.solve_lower_block(&mut ks);
            out.extend(means.iter().zip(&ks).map(|(&m, v)| self.moments(f, m, v)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_training_points_closely() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let mut gp = GaussianProcess::default();
        gp.fit(&x, &y);
        for (xi, yi) in x.iter().zip(&y) {
            let (mean, std) = gp.predict(xi);
            assert!((mean - yi).abs() < 1e-2, "mean {mean} vs {yi}");
            assert!(std < 0.1, "training-point std should be small: {std}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2]];
        let y = vec![0.0, 1.0, 2.0];
        let mut gp = GaussianProcess::default();
        gp.fit(&x, &y);
        let (_, std_near) = gp.predict(&[0.1]);
        let (_, std_far) = gp.predict(&[0.95]);
        assert!(std_far > std_near * 2.0, "near {std_near}, far {std_far}");
    }

    #[test]
    fn constant_targets_predict_the_constant() {
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0]).collect();
        let y = vec![3.0; 5];
        let mut gp = GaussianProcess::default();
        gp.fit(&x, &y);
        let (mean, _) = gp.predict(&[0.5]);
        assert!((mean - 3.0).abs() < 1e-6);
    }

    #[test]
    fn subsampling_keeps_best_points() {
        let gp = GaussianProcess {
            max_points: 10,
            ..Default::default()
        };
        // 50 points, minimum at index 7.
        let y: Vec<f64> = (0..50).map(|i| ((i as f64) - 7.0).abs()).collect();
        let keep = gp.subsample(&y);
        assert_eq!(keep.len(), 10);
        assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "indices stay in order"
        );
        assert!(
            keep.iter().any(|&i| y[i] == 0.0),
            "best point must survive subsampling"
        );
    }

    #[test]
    fn fit_handles_duplicate_points() {
        let x = vec![vec![0.5], vec![0.5], vec![0.7]];
        let y = vec![1.0, 1.0, 2.0];
        let mut gp = GaussianProcess::default();
        gp.fit(&x, &y); // must not panic (jitter on the duplicate Gram rows)
        let (mean, _) = gp.predict(&[0.5]);
        assert!((mean - 1.0).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        GaussianProcess::default().predict(&[0.5]);
    }

    #[test]
    fn multidimensional_fit() {
        let mut pts = Vec::new();
        let mut ys = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let p = vec![i as f64 / 5.0, j as f64 / 5.0];
                ys.push(p[0] + 2.0 * p[1]);
                pts.push(p);
            }
        }
        let mut gp = GaussianProcess::default();
        gp.fit(&pts, &ys);
        let (mean, _) = gp.predict(&[0.5, 0.5]);
        assert!((mean - 1.5).abs() < 0.05, "mean {mean}");
    }
}
