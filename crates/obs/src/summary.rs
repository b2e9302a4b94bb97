//! The end-of-process summary sink: per-span-name aggregates rendered
//! as a fixed-width table together with every registered metric.
//!
//! Every span close calls `record_span` (cheap: one short mutex
//! acquisition on a map keyed by `&'static str`); [`render`] produces
//! the table the CLI prints on stderr under `--profile`.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::metrics::{Histogram, MetricValue};

/// Per-span-name aggregate. The histogram holds elapsed nanoseconds,
/// giving approximate p50/p99; count and total are exact.
struct Agg {
    count: u64,
    total_ns: u64,
    elapsed: Histogram,
}

fn aggregates() -> &'static Mutex<BTreeMap<&'static str, Agg>> {
    static AGGREGATES: OnceLock<Mutex<BTreeMap<&'static str, Agg>>> = OnceLock::new();
    AGGREGATES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Folds one closed span into the per-name aggregates.
pub(crate) fn record_span(name: &'static str, elapsed_ns: u64) {
    let mut map = aggregates().lock().expect("summary lock poisoned");
    let agg = map.entry(name).or_insert_with(|| Agg {
        count: 0,
        total_ns: 0,
        elapsed: Histogram::default(),
    });
    agg.count += 1;
    agg.total_ns = agg.total_ns.saturating_add(elapsed_ns);
    agg.elapsed.record(elapsed_ns);
}

/// Clears all span aggregates. For tests.
pub(crate) fn reset() {
    aggregates().lock().expect("summary lock poisoned").clear();
}

/// Formats a nanosecond duration with a unit chosen for readability.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Renders the summary: a span table (name, count, total, mean, ~p50,
/// ~p99 — quantiles are power-of-two bucket bounds, accurate to 2x)
/// followed by a metrics section listing every registered counter and
/// histogram. Returns an empty string when nothing was recorded.
///
/// Row order is deterministic: span rows sort by name (the aggregate
/// map is a `BTreeMap`, so iteration *is* the stable sort) and the
/// metrics section is name-sorted by [`crate::metrics::snapshot`].
/// Runs that record the same spans render identical tables regardless
/// of thread scheduling.
pub(crate) fn render() -> String {
    let mut out = String::new();
    {
        let map = aggregates().lock().expect("summary lock poisoned");
        if !map.is_empty() {
            let name_width = map
                .keys()
                .map(|n| n.len())
                .chain(std::iter::once("span".len()))
                .max()
                .unwrap_or(4);
            out.push_str(&format!(
                "{:<name_width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                "span", "count", "total", "mean", "~p50", "~p99"
            ));
            for (name, agg) in map.iter() {
                out.push_str(&format!(
                    "{:<name_width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                    name,
                    agg.count,
                    fmt_ns(agg.total_ns as f64),
                    fmt_ns(agg.total_ns as f64 / agg.count as f64),
                    fmt_ns(agg.elapsed.quantile(0.50) as f64),
                    fmt_ns(agg.elapsed.quantile(0.99) as f64),
                ));
            }
        }
    }
    let metrics = crate::metrics::snapshot();
    let live: Vec<_> = metrics
        .iter()
        .filter(|(_, v)| {
            !matches!(
                v,
                MetricValue::Counter(0) | MetricValue::Histogram { count: 0, .. }
            )
        })
        .collect();
    if !live.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str("metrics\n");
        for (name, value) in live {
            match value {
                MetricValue::Counter(v) => out.push_str(&format!("  {name} = {v}\n")),
                MetricValue::Histogram {
                    count,
                    sum,
                    p50,
                    p99,
                } => out.push_str(&format!(
                    "  {name}: count={count} sum={sum} ~p50={p50} ~p99={p99}\n"
                )),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.0), "12ns");
        assert_eq!(fmt_ns(1500.0), "1.50us");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00s");
    }

    #[test]
    fn render_aggregates_by_name() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        record_span("test.render.a", 1_000);
        record_span("test.render.a", 3_000);
        record_span("test.render.b", 2_000_000);
        let table = render();
        let line_a = table
            .lines()
            .find(|l| l.starts_with("test.render.a"))
            .expect("row for test.render.a");
        assert!(line_a.contains("2"), "count column: {line_a}");
        assert!(line_a.contains("4.00us"), "total column: {line_a}");
        assert!(line_a.contains("2.00us"), "mean column: {line_a}");
        assert!(table.lines().any(|l| l.starts_with("test.render.b")));
        crate::reset_for_tests();
        assert_eq!(render(), "");
    }

    #[test]
    fn rows_are_sorted_by_span_name_regardless_of_recording_order() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        // Recorded deliberately out of lexicographic order.
        for name in ["test.order.c", "test.order.a", "test.order.b"] {
            record_span(name, 1_000);
        }
        let table = render();
        let rows: Vec<&str> = table
            .lines()
            .filter(|l| l.starts_with("test.order."))
            .collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].starts_with("test.order.a"), "{rows:?}");
        assert!(rows[1].starts_with("test.order.b"), "{rows:?}");
        assert!(rows[2].starts_with("test.order.c"), "{rows:?}");
        // Rendering twice is byte-stable.
        assert_eq!(table, render());
        crate::reset_for_tests();
    }
}
