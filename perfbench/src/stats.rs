//! Order statistics for the report: median, quartiles, and the tail
//! percentile the benchmark reports next to every median.

/// Summary of one timing (or other sampled quantity).
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// `(percentile, value)` of the highest order statistic with at least
    /// ten samples above it; `None` with ten samples or fewer.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let [q1, median, q3] = quartiles(&v);
        let tail = (n > 10).then(|| {
            let k = n - 10;
            (100.0 * k as f64 / n as f64, v[k - 1])
        });
        Summary {
            n,
            median,
            q1,
            q3,
            min: v[0],
            max: v[n - 1],
            tail,
        }
    }

    /// JSON object with every field, for the stamped record line.
    pub fn json(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("{{\"percentile\":{},\"value\":{}}}", num(p), num(v)),
            None => "null".into(),
        };
        format!(
            "{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"tail\":{}}}",
            self.n,
            num(self.median),
            num(self.q1),
            num(self.q3),
            num(self.min),
            num(self.max),
            tail
        )
    }

    /// One-line human rendering.
    pub fn text(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p:.1} {}", sig(v)),
            None => "no tail (<= 10 samples)".into(),
        };
        format!(
            "median {} (n={}, q1 {}, q3 {}, {tail})",
            sig(self.median),
            self.n,
            sig(self.q1),
            sig(self.q3)
        )
    }
}

/// `x` to four significant digits.
pub fn sig(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (3 - magnitude).max(0) as usize)
}

/// Quartiles of sorted data by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method),
/// so the benchmark's spreads read the same as an external check's.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    std::array::from_fn(|i| {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A finite JSON number (non-finite values never reach the output: they
/// would make the record unparseable).
pub fn num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value {x}");
    format!("{x}")
}

/// Minimal JSON string escaping for the stamp fields.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail, Some((75.0, 30.0)));
        assert_eq!(Summary::of(&v[..10]).tail, None);
    }
}
