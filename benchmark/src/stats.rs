//! Order statistics the way Python's `statistics.quantiles(v, n=4)` takes
//! them, so the spreads printed here are the ones the driver computes.

/// Median and quartiles of one metric's samples.
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// The `p`-quantile (0 < p < 1) of sorted `v` by the exclusive method:
/// position `p * (n + 1)` counted from 1, linear between neighbours,
/// clamped to the ends.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    let pos = p * (n + 1) as f64;
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

impl Summary {
    pub fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&samples, 0.5),
            q1: quantile(&samples, 0.25),
            q3: quantile(&samples, 0.75),
            n: samples.len(),
        }
    }

    pub fn note(&self) -> String {
        format!("q1 {:.6}  q3 {:.6}  n {}", self.q1, self.q3, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values `statistics.quantiles(v, n=4)` and `statistics.median(v)`
    /// give for the same lists.
    #[test]
    fn quartiles_match_python() {
        let s = Summary::of(vec![11.0, 1.0, 7.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 4.0, 9.0, 5));
        let s = Summary::of(vec![1.0, 2.0, 4.0, 7.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 6.25));
        let s = Summary::of(vec![3.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 3.0, 3.0));
    }
}
