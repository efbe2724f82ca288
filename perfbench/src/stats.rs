//! Sample statistics and result accounting shared by every workload:
//! nearest-rank percentiles that refuse a thin tail, failure accounting
//! against executions attempted, and ratios of interleaved pairs.

use vcsql::relation::Relation;

/// Fewest samples a reported percentile must leave above its rank.
pub const MIN_BEYOND: usize = 10;

/// Tolerance of the bag comparison, as `repro bench` uses it.
pub const BAG_EPS: f64 = 1e-9;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `samples`: the smallest
/// sample with at least `p·n` samples at or below it.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest rank of `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Fewest samples for which percentile `p` leaves [`MIN_BEYOND`] above it.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| beyond(n, p) >= MIN_BEYOND).expect("some sample count suffices")
}

/// A percentile fit to report: its value and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `p` of `samples`, refused (with the reason) when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Result<Percentile, String> {
    let n = samples.len();
    let past = if n == 0 { 0 } else { beyond(n, p) };
    if past < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples leaves {past} beyond it; at least {MIN_BEYOND} \
             (so {} samples) are needed",
            p * 100.0,
            min_samples(p)
        ));
    }
    let value = nearest_rank(samples, p).expect("non-empty");
    Ok(Percentile { value, samples: n, beyond: past })
}

/// Percentile `p` of each of `chunks` consecutive, equal-count chunks of
/// `samples` (taken in completion order), and the median of those: the
/// steady-state percentile, which a burst of host noise covering fewer than
/// half the chunks does not move. Every chunk must carry the percentile on
/// its own; `beyond` is the fewest samples beyond it in any chunk.
pub fn chunked_tail(samples: &[f64], chunks: usize, p: f64) -> Result<Percentile, String> {
    let size = samples.len() / chunks.max(1);
    let mut values = Vec::with_capacity(chunks);
    let mut fewest = usize::MAX;
    for c in 0..chunks {
        let end = if c + 1 == chunks { samples.len() } else { (c + 1) * size };
        let part = tail(&samples[c * size..end], p)
            .map_err(|why| format!("chunk {} of {chunks}: {why}", c + 1))?;
        values.push(part.value);
        fewest = fewest.min(part.beyond);
    }
    Ok(Percentile { value: median(&values), samples: samples.len(), beyond: fewest })
}

/// Median of `values` (mean of the middle two when even); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `values`; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Ratio of two arms timed back to back on the same queries, robust to
/// bursts of host noise: each query's arm time is its median over
/// repetitions, and the ratio is of the summed medians, `Σ_q med(a_q) /
/// Σ_q med(b_q)` — so a slow query weighs in by its time, as in a suite.
pub fn suite_ratio(pairs_by_query: &[Vec<(f64, f64)>]) -> Option<f64> {
    let (mut a, mut b) = (0.0, 0.0);
    for pairs in pairs_by_query.iter().filter(|p| !p.is_empty()) {
        a += median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        b += median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    }
    (b > 0.0).then(|| a / b)
}

/// Suite time from per-query medians: `Σ_q med(t_q)`.
pub fn suite_time(times_by_query: &[Vec<f64>]) -> f64 {
    times_by_query.iter().filter(|t| !t.is_empty()).map(|t| median(t)).sum()
}

/// Query executions attempted, and those that errored or returned a wrong
/// bag. A wrong bag is remembered by query id so the run can name it.
#[derive(Debug, Default, Clone)]
pub struct Outcomes {
    pub attempted: u64,
    pub errors: Vec<String>,
    pub wrong: Vec<String>,
}

impl Outcomes {
    /// Account one execution of query `id` against its reference bag.
    /// Returns whether it was correct.
    pub fn check<E: std::fmt::Display>(
        &mut self,
        id: &str,
        got: Result<&Relation, E>,
        reference: &Relation,
    ) -> bool {
        self.attempted += 1;
        match got {
            Ok(rel) if rel.same_bag_approx(reference, BAG_EPS) => true,
            Ok(rel) => {
                self.wrong.push(format!(
                    "{id}: wrong bag ({} rows, reference {} rows)",
                    rel.len(),
                    reference.len()
                ));
                false
            }
            Err(e) => {
                self.errors.push(format!("{id}: {e}"));
                false
            }
        }
    }

    /// Executions that errored or returned a wrong bag.
    pub fn failed(&self) -> u64 {
        (self.errors.len() + self.wrong.len()) as u64
    }

    /// `failed / attempted`, `0` when nothing was attempted.
    pub fn failure_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.errors.extend(other.errors);
        self.wrong.extend(other.wrong);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql::relation::{Column, DataType, Schema, Tuple, Value};

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.95), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&s, 0.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(nearest_rank(&rev, 0.5), Some(5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.5), 20);
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = tail(&s, 0.95).expect("200 samples carry a p95");
        assert_eq!((p95.value, p95.samples, p95.beyond), (190.0, 200, 10));
        let err = tail(&s[..199], 0.95).expect_err("199 samples leave 9 beyond");
        assert!(err.contains("200 samples"), "{err}");
        assert!(tail(&s, 0.99).is_err());
        assert!(tail(&[], 0.5).is_err());
    }

    #[test]
    fn chunked_tail_ignores_a_burst_in_a_minority_of_chunks() {
        let steady: Vec<f64> = (1..=200).map(f64::from).collect();
        let burst: Vec<f64> = steady.iter().map(|v| v * 3.0).collect();
        let mut run = Vec::new();
        for c in 0..10 {
            run.extend(if c == 2 || c == 7 { &burst } else { &steady });
        }
        let p = chunked_tail(&run, 10, 0.95).expect("200 per chunk carry a p95");
        assert_eq!((p.value, p.samples, p.beyond), (190.0, 2000, 10));
        // The plain percentile over the whole run is dragged up.
        assert!(tail(&run, 0.95).unwrap().value > 190.0);
        // Chunks too thin for the percentile refuse the whole figure.
        let err = chunked_tail(&run[..1999], 10, 0.95).expect_err("chunks of 199");
        assert!(err.starts_with("chunk 1 of 10"), "{err}");
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn ratio_is_taken_over_per_query_medians_of_pairs() {
        // Host speed drifts 3x across repetitions; each pair is timed back
        // to back, so the ratio still reads the true 2x.
        let q1 = vec![(2.0, 1.0), (6.0, 3.0), (4.0, 2.0)];
        assert_eq!(suite_ratio(std::slice::from_ref(&q1)), Some(2.0));
        // A burst that hits one arm of one repetition does not move it.
        let burst = vec![(2.0, 1.0), (50.0, 1.0), (2.0, 1.0)];
        assert_eq!(suite_ratio(&[burst]), Some(2.0));
        // Queries weigh in by their time, not as a mean of ratios.
        let slow = vec![(10.0, 1.0)];
        let fast = vec![(1.0, 10.0)];
        assert_eq!(suite_ratio(&[slow, fast]), Some(1.0));
        assert_eq!(suite_ratio(&[]), None);
        assert_eq!(suite_ratio(&[vec![], q1]), Some(2.0));
        assert_eq!(suite_ratio(&[vec![(1.0, 0.0)]]), None);
        assert_eq!(suite_time(&[vec![3.0, 1.0, 2.0], vec![], vec![5.0]]), 7.0);
    }

    fn bag(values: &[i64]) -> Relation {
        let schema = Schema::new("r", vec![Column::new("a", DataType::Int)]);
        let tuples = values.iter().map(|&v| Tuple::new(vec![Value::Int(v)])).collect();
        Relation::from_tuples(schema, tuples).expect("one int column")
    }

    #[test]
    fn failure_rate_counts_errors_and_wrong_bags() {
        let reference = bag(&[1, 2, 2]);
        let mut o = Outcomes::default();
        assert!(o.check::<String>("q1", Ok(&bag(&[2, 1, 2])), &reference));
        assert!(!o.check::<String>("q2", Ok(&bag(&[1, 2])), &reference));
        assert!(!o.check("q3", Err("engine said no"), &reference));
        assert!(o.check::<String>("q4", Ok(&reference), &reference));
        assert_eq!(o.attempted, 4);
        assert_eq!(o.failed(), 2);
        assert_eq!(o.failure_rate(), 0.5);
        assert!(o.wrong[0].starts_with("q2: wrong bag"), "{:?}", o.wrong);
        assert!(o.errors[0].contains("q3") && o.errors[0].contains("engine said no"));

        let mut total = Outcomes::default();
        assert_eq!(total.failure_rate(), 0.0);
        total.merge(o.clone());
        total.merge(o);
        assert_eq!((total.attempted, total.failed()), (8, 4));
    }
}
