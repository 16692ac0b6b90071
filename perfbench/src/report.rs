//! Percentiles, the metric table and the one-line JSON result.

use std::fmt::Write as _;

/// Nearest-rank percentile `q` (in `[0, 1]`) of `values`, and how many
/// samples lie beyond it. `None` for no samples.
pub fn percentile(values: &[u64], q: f64) -> Option<(u64, usize)> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// Median of `values`, `None` when empty.
pub fn median(values: &[u64]) -> Option<u64> {
    percentile(values, 0.5).map(|(v, _)| v)
}

/// Median of floating-point `values`, `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    Some(sorted[(sorted.len() - 1) / 2])
}

/// Blocks a run's samples are cut into by [`block_percentiles`] and
/// time slices by [`sliced_rate`].
pub const BLOCKS: usize = 10;

/// Percentile `q` of `values` taken in completion order, per block: the
/// samples are cut into up to [`BLOCKS`] consecutive blocks, each large
/// enough that ten samples lie beyond its nearest-rank percentile. The
/// reported figure is the median over blocks, so a stall of the host
/// during part of a run moves at most a minority of them. `None` when not
/// even one block can have ten samples beyond it.
pub fn block_percentiles(values: &[u64], q: f64) -> Option<Vec<f64>> {
    let min_block = (10.0 / (1.0 - q)).ceil() as usize;
    let blocks = (values.len() / min_block.max(1)).min(BLOCKS);
    if blocks == 0 {
        return None;
    }
    let n = values.len();
    Some(
        (0..blocks)
            .filter_map(|b| percentile(&values[b * n / blocks..(b + 1) * n / blocks], q))
            .map(|(v, _)| v as f64)
            .collect(),
    )
}

/// Completions per second: the median over [`BLOCKS`] equal time slices
/// of `[0, span_ns)` of the completions (`done_ns`, nanoseconds) in each.
pub fn sliced_rate(done_ns: &[u64], span_ns: u64) -> f64 {
    let slice = (span_ns / BLOCKS as u64).max(1);
    let mut counts = [0u64; BLOCKS];
    for &t in done_ns {
        counts[((t / slice) as usize).min(BLOCKS - 1)] += 1;
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 * 1e9 / slice as f64)
        .collect();
    median_f64(&rates).unwrap_or(0.0)
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value; `None` when the workload has nothing to measure (`n/a`).
    pub value: Option<f64>,
    /// Sample count behind a latency.
    pub samples: Option<usize>,
    /// The end-to-end metric this one should move (per-layer metrics).
    pub moves: &'static str,
    /// Free-form qualifier printed beside the value.
    pub note: String,
}

impl Metric {
    /// A metric with a value.
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: None,
            moves: "",
            note: String::new(),
        }
    }

    /// Percentile `q` of latencies (nanoseconds, in completion order) in
    /// `unit` (`us` or `ms`): the median of [`block_percentiles`]. Withheld, with a
    /// note, when no block has ten samples beyond it.
    pub fn percentile(name: &'static str, unit: &'static str, values: &[u64], q: f64) -> Metric {
        let div = if unit == "ms" { 1e6 } else { 1e3 };
        let mut metric = Metric::new(name, unit, None);
        metric.samples = Some(values.len());
        match block_percentiles(values, q) {
            Some(per_block) => {
                metric.value = median_f64(&per_block).map(|v| v / div);
                let shown: Vec<String> = per_block
                    .iter()
                    .map(|v| format!("{:.0}", v / div))
                    .collect();
                metric.note = format!("median of blocks [{}]", shown.join(", "));
            }
            None if !values.is_empty() => {
                metric.note = "withheld: fewer than 10 samples beyond it".to_string();
            }
            None => {}
        }
        metric
    }

    /// Sets the end-to-end metric this one should move.
    pub fn moves(mut self, moves: &'static str) -> Metric {
        self.moves = moves;
        self
    }

    /// Sets the note.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Finds a metric by name.
pub fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

/// The value of a metric by name.
pub fn value(metrics: &[Metric], name: &str) -> Option<f64> {
    find(metrics, name).and_then(|m| m.value)
}

/// A human-readable table of `metrics`.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("--- {title} ---\n");
    for m in metrics {
        let value = m
            .value
            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
        let _ = write!(out, "{:<30} {:>14} {:<8}", m.name, value, m.unit);
        if let Some(n) = m.samples {
            let _ = write!(out, " n={n}");
        }
        if !m.moves.is_empty() {
            let _ = write!(out, "  moves {}", m.moves);
        }
        if !m.note.is_empty() {
            let _ = write!(out, "  [{}]", m.note);
        }
        out.push('\n');
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and the named
/// metrics with their units. A metric without a value (`n/a` on this
/// workload) is written as 0.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[&str],
    metrics: &[Metric],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, name) in names.iter().enumerate() {
        let (value, unit) =
            find(metrics, name).map_or((0.0, ""), |m| (m.value.unwrap_or(0.0), m.unit));
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_count_the_tail() {
        let values: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&values, 0.5), Some((500, 500)));
        assert_eq!(percentile(&values, 0.99), Some((990, 10)));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn thin_tails_are_withheld() {
        let values: Vec<u64> = (1..=500).collect();
        let p99 = Metric::percentile("p99", "us", &values, 0.99);
        assert_eq!(p99.value, None);
        let p50 = Metric::percentile("p50", "us", &values, 0.5);
        assert!(p50.value.is_some());
    }

    #[test]
    fn a_stall_in_one_block_does_not_move_the_median_block() {
        let mut values = vec![100u64; 10_000];
        // One tenth of the run is ten times slower.
        for v in &mut values[3000..4000] {
            *v = 1000;
        }
        let blocks = block_percentiles(&values, 0.99).expect("ten blocks");
        assert_eq!(blocks.len(), 10);
        assert_eq!(median_f64(&blocks), Some(100.0));
        assert_eq!(percentile(&values, 0.99).map(|(v, _)| v), Some(1000));
        assert_eq!(block_percentiles(&values[..999], 0.99), None);
    }

    #[test]
    fn sliced_rates_ignore_a_stalled_slice() {
        // 100 completions per second for 10 s, none during second 4.
        let done: Vec<u64> = (0..1000u64)
            .map(|i| i * 10_000_000)
            .filter(|t| !(4_000_000_000..5_000_000_000).contains(t))
            .collect();
        assert_eq!(sliced_rate(&done, 10_000_000_000), 100.0);
    }

    #[test]
    fn the_json_line_has_the_four_keys() {
        let metrics = vec![
            Metric::new("a_ms", "ms", Some(1.5)),
            Metric::new("b", "count", None),
        ];
        let line = json_line(true, 3, 0, &["a_ms", "b"], &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
