//! Ablation: exact convex-hull volume vs Monte-Carlo estimation.
//!
//! Cross-validates the geometry substrate behind Table I: the exact
//! incremental-hull volume is compared against LP-membership rejection
//! sampling at increasing sample counts, on both synthetic shapes with
//! known volumes and the actual SupermarQ feature cloud.

use supermarq::FeatureVector;
use supermarq_bench::render_table;
use supermarq_geometry::{hull_volume, monte_carlo_volume};

fn cube(d: usize) -> Vec<Vec<f64>> {
    (0..1usize << d)
        .map(|m| {
            (0..d)
                .map(|i| if m >> i & 1 == 1 { 1.0 } else { 0.0 })
                .collect()
        })
        .collect()
}

fn simplex(d: usize) -> Vec<Vec<f64>> {
    let mut pts = vec![vec![0.0; d]];
    for i in 0..d {
        let mut e = vec![0.0; d];
        e[i] = 1.0;
        pts.push(e);
    }
    pts
}

fn main() {
    println!("== Ablation: exact hull volume vs Monte-Carlo estimate ==\n");
    let suite = supermarq::coverage::supermarq_suite();
    let feature_cloud: Vec<Vec<f64>> = suite
        .iter()
        .map(|c| FeatureVector::of(c).to_vec())
        .collect();
    type Shape = (&'static str, Vec<Vec<f64>>, Option<f64>);
    let shapes: Vec<Shape> = vec![
        ("cube-3d", cube(3), Some(1.0)),
        ("cube-4d", cube(4), Some(1.0)),
        ("simplex-4d", simplex(4), Some(1.0 / 24.0)),
        ("simplex-6d", simplex(6), Some(1.0 / 720.0)),
        ("supermarq-features-6d", feature_cloud, None),
    ];
    let headers: Vec<String> = ["Shape", "Exact", "MC 1k", "MC 10k", "Analytic"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for (name, pts, analytic) in &shapes {
        let exact = hull_volume(pts);
        let mc1k = monte_carlo_volume(pts, 1_000, 5);
        let mc10k = monte_carlo_volume(pts, 10_000, 6);
        rows.push(vec![
            name.to_string(),
            format!("{exact:.4e}"),
            format!("{mc1k:.4e}"),
            format!("{mc10k:.4e}"),
            analytic.map_or("-".to_string(), |v| format!("{v:.4e}")),
        ]);
    }
    println!("{}", render_table(&headers, &rows));
    println!("Expected: the Monte-Carlo columns converge to the exact column as");
    println!("samples grow, and both match the analytic volumes where known.");
}
