//! Bitwise properties of the packed, extendable Cholesky factor.
//!
//! `Cholesky::extend` from any prefix, `Matrix::cholesky` and a dense
//! row-by-row reference factorization must agree on every bit of `L`, and
//! must reject exactly the same non-positive-definite inputs.

use numeric::{Cholesky, Matrix};
use proptest::prelude::*;

/// The dense row-by-row factorization the packed factor replaced, kept
/// here as the bitwise oracle.
fn dense_reference(a: &Matrix) -> Option<Vec<f64>> {
    let n = a.rows();
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Some(l)
}

/// The dense forward substitution the block solve must reproduce.
fn dense_solve_lower(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for (j, &yj) in y.iter().enumerate().take(i) {
            sum -= l[i * n + j] * yj;
        }
        y[i] = sum / l[i * n + i];
    }
    y
}

/// The dense backward substitution `solve` must reproduce after the
/// forward one.
fn dense_solve_upper(l: &[f64], n: usize, y: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for (j, &xj) in x.iter().enumerate().skip(i + 1) {
            sum -= l[j * n + i] * xj;
        }
        x[i] = sum / l[i * n + i];
    }
    x
}

/// An RBF Gram matrix over `points` with `jitter` on the diagonal. Repeated
/// points and a tiny jitter make it near-singular; zero jitter with a
/// duplicate makes it singular.
fn gram(points: &[Vec<f64>], scale: f64, jitter: f64) -> Matrix {
    let mut k = Matrix::from_symmetric_fn(points.len(), |i, j| {
        let d: f64 = points[i]
            .iter()
            .zip(&points[j])
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (-d / (2.0 * scale * scale)).exp()
    });
    k.add_diagonal(jitter);
    k
}

/// Points in the unit cube where roughly one in `dup_every` repeats an
/// earlier point exactly.
fn points_with_duplicates(raw: &[f64], dim: usize, dup_every: usize) -> Vec<Vec<f64>> {
    let mut pts: Vec<Vec<f64>> = Vec::new();
    for (i, chunk) in raw.chunks_exact(dim).enumerate() {
        if dup_every > 0 && i > 0 && i % dup_every == 0 {
            let src = pts[(chunk[0] * i as f64) as usize % i].clone();
            pts.push(src);
        } else {
            pts.push(chunk.to_vec());
        }
    }
    pts
}

fn bits_of(ch: &Cholesky) -> Vec<u64> {
    let n = ch.dim();
    (0..n)
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .map(|(i, j)| ch.l(i, j).to_bits())
        .collect()
}

fn dense_bits(l: &[f64], n: usize) -> Vec<u64> {
    (0..n)
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .map(|(i, j)| l[i * n + j].to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extend_from_every_prefix_equals_one_shot(
        raw in proptest::collection::vec(0.0f64..1.0, 24..96),
        dim in 1usize..4,
        dup_every in 0usize..6,
        scale_pick in 0usize..4,
        jitter_pick in 0usize..4,
    ) {
        let pts = points_with_duplicates(&raw, dim, dup_every);
        let scale = [0.05, 0.2, 0.5, 1.0][scale_pick];
        let jitter = [0.0, 1e-12, 1e-10, 1e-6][jitter_pick];
        let a = gram(&pts, scale, jitter);
        let n = a.rows();
        let oracle = dense_reference(&a);
        let full = a.cholesky();
        prop_assert_eq!(full.is_some(), oracle.is_some());
        if let (Some(full), Some(oracle)) = (&full, &oracle) {
            prop_assert_eq!(bits_of(full), dense_bits(oracle, n));
        }
        for m in 0..=n {
            // Factor the leading m x m block, then grow it to n x n.
            let mut ch = Cholesky::empty();
            let head_ok = ch.extend(m, |i, j| a[(i, j)]);
            let head = Matrix::from_symmetric_fn(m, |i, j| a[(i, j)]);
            prop_assert_eq!(head_ok, dense_reference(&head).is_some());
            if !head_ok {
                // A non-PD leading block means the whole matrix is not PD,
                // and the rejected factor is left as it was.
                prop_assert!(oracle.is_none());
                prop_assert_eq!(ch.dim(), 0);
                continue;
            }
            let grown = ch.extend(n, |i, j| a[(i, j)]);
            prop_assert_eq!(grown, oracle.is_some(), "prefix {}", m);
            match &oracle {
                Some(oracle) => prop_assert_eq!(bits_of(&ch), dense_bits(oracle, n)),
                None => prop_assert_eq!(ch.dim(), m, "failed extend must not change the factor"),
            }
        }
    }

    #[test]
    fn random_symmetric_matrices_are_rejected_alike(
        raw in proptest::collection::vec(-1.0f64..1.0, 1..64),
        diag_boost in 0.0f64..4.0,
        split in 0usize..9,
    ) {
        let n = (raw.len() as f64).sqrt() as usize;
        let a = Matrix::from_symmetric_fn(n, |i, j| {
            let v = raw[i * n + j].min(raw[j * n + i]);
            if i == j { v + diag_boost } else { v }
        });
        let oracle = dense_reference(&a);
        let mut ch = Cholesky::empty();
        let m = split.min(n);
        if ch.extend(m, |i, j| a[(i, j)]) {
            let ok = ch.extend(n, |i, j| a[(i, j)]);
            prop_assert_eq!(ok, oracle.is_some());
        } else {
            prop_assert!(oracle.is_none());
        }
        prop_assert_eq!(a.cholesky().is_some(), oracle.is_some());
        if let (Some(full), Some(oracle)) = (a.cholesky(), &oracle) {
            prop_assert_eq!(bits_of(&full), dense_bits(oracle, n));
            prop_assert_eq!(bits_of(&ch), dense_bits(oracle, n));
        }
    }

    #[test]
    fn block_and_full_solves_equal_dense_substitution(
        raw in proptest::collection::vec(0.0f64..1.0, 8..80),
        rhs_count in 0usize..40,
        rhs_seed in proptest::collection::vec(-2.0f64..2.0, 40),
    ) {
        let pts = points_with_duplicates(&raw, 2, 0);
        let a = gram(&pts, 0.3, 1e-6);
        let n = a.rows();
        let ch = a.cholesky().expect("jittered RBF Gram is PD");
        let dense = dense_reference(&a).expect("same verdict as the packed factor");
        let rhs: Vec<Vec<f64>> = (0..rhs_count)
            .map(|r| (0..n).map(|i| rhs_seed[(r * 7 + i) % rhs_seed.len()] * (1.0 + i as f64)).collect())
            .collect();
        let mut block = rhs.clone();
        ch.solve_lower_block(&mut block);
        for (b, y) in rhs.iter().zip(&block) {
            let single: Vec<u64> = ch.solve_lower(b).iter().map(|v| v.to_bits()).collect();
            let blocked: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
            let oracle: Vec<u64> = dense_solve_lower(&dense, n, b).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&blocked, &single);
            prop_assert_eq!(&single, &oracle);
            let full: Vec<u64> = ch.solve(b).iter().map(|v| v.to_bits()).collect();
            let dense_full: Vec<u64> = dense_solve_upper(&dense, n, &dense_solve_lower(&dense, n, b))
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(&full, &dense_full);
        }
    }
}

#[test]
fn a_failed_extend_leaves_a_factor_that_extends_again() {
    // The last point repeats the first: without jitter the 4 x 4 Gram
    // matrix is singular, its leading 3 x 3 block is not.
    let pts = vec![vec![0.1], vec![0.4], vec![0.9], vec![0.1]];
    let a = gram(&pts, 0.3, 0.0);
    assert!(a.cholesky().is_none());
    assert!(dense_reference(&a).is_none());
    let mut ch = Cholesky::empty();
    assert!(ch.extend(2, |i, j| a[(i, j)]));
    assert!(!ch.extend(4, |i, j| a[(i, j)]));
    assert_eq!(ch.dim(), 2, "the PD prefix survives a failed extend");
    assert!(ch.extend(3, |i, j| a[(i, j)]));
    let head = Matrix::from_symmetric_fn(3, |i, j| a[(i, j)]);
    assert_eq!(
        bits_of(&ch),
        dense_bits(&dense_reference(&head).unwrap(), 3)
    );
}

#[test]
#[should_panic(expected = "cannot shrink")]
fn extend_cannot_shrink() {
    let mut ch = Matrix::identity(3).cholesky().unwrap();
    ch.extend(2, |_, _| 1.0);
}
