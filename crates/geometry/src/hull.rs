//! Exact d-dimensional convex hull and volume.

use crate::linalg::determinant;

/// Error from hull construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HullError {
    /// Fewer than `d + 1` distinct points were supplied.
    TooFewPoints,
    /// The points lie in a lower-dimensional affine subspace, so the hull
    /// has zero d-volume.
    Degenerate,
    /// Points have inconsistent dimensions.
    DimensionMismatch,
}

impl std::fmt::Display for HullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HullError::TooFewPoints => write!(f, "need at least d+1 points"),
            HullError::Degenerate => write!(f, "points are affinely dependent (zero volume)"),
            HullError::DimensionMismatch => write!(f, "points differ in dimension"),
        }
    }
}

impl std::error::Error for HullError {}

#[derive(Debug, Clone)]
struct Facet {
    /// Indices of the d vertices spanning this simplicial facet.
    vertices: Vec<usize>,
    /// Outward normal (interior satisfies `normal . x < offset`).
    normal: Vec<f64>,
    /// Plane offset: `normal . x = offset` on the facet.
    offset: f64,
}

/// The convex hull of a finite point set in `d` dimensions, built with an
/// incremental (beneath-beyond / quickhull-style) algorithm. All facets are
/// simplicial.
///
/// This is what Table I's coverage metric is computed with: the volume of
/// the hull of a suite's feature vectors in the 6-D feature space.
///
/// # Example
///
/// ```
/// use supermarq_geometry::ConvexHull;
///
/// // 3-D unit simplex conv{0, e1, e2, e3}: volume 1/3! = 1/6.
/// let pts = vec![
///     vec![0.0, 0.0, 0.0],
///     vec![1.0, 0.0, 0.0],
///     vec![0.0, 1.0, 0.0],
///     vec![0.0, 0.0, 1.0],
/// ];
/// let hull = ConvexHull::new(&pts).unwrap();
/// assert!((hull.volume() - 1.0 / 6.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone)]
pub struct ConvexHull {
    dim: usize,
    points: Vec<Vec<f64>>,
    facets: Vec<Facet>,
    interior: Vec<f64>,
}

const EPS: f64 = 1e-9;

impl ConvexHull {
    /// Builds the convex hull of `points`.
    ///
    /// # Errors
    ///
    /// Returns [`HullError::Degenerate`] when the points do not span `d`
    /// dimensions (the hull then has zero volume), and the other variants
    /// for structurally invalid input.
    pub fn new(points: &[Vec<f64>]) -> Result<Self, HullError> {
        let dim = points.first().ok_or(HullError::TooFewPoints)?.len();
        if dim == 0 {
            return Err(HullError::TooFewPoints);
        }
        if points.iter().any(|p| p.len() != dim) {
            return Err(HullError::DimensionMismatch);
        }
        // Deduplicate.
        let mut pts: Vec<Vec<f64>> = Vec::new();
        for p in points {
            if !pts.iter().any(|q| dist_sq(q, p) < EPS * EPS) {
                pts.push(p.clone());
            }
        }
        if pts.len() < dim + 1 {
            return Err(HullError::TooFewPoints);
        }

        // Initial simplex: greedily extend an affinely independent set.
        let simplex = initial_simplex(&pts, dim).ok_or(HullError::Degenerate)?;

        // Interior point: centroid of the simplex.
        let mut interior = vec![0.0; dim];
        for &i in &simplex {
            for (c, v) in interior.iter_mut().zip(&pts[i]) {
                *c += v / (dim as f64 + 1.0);
            }
        }

        // Initial facets: all d-subsets of the simplex.
        let mut facets: Vec<Facet> = Vec::new();
        for omit in 0..=dim {
            let verts: Vec<usize> = simplex
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != omit)
                .map(|(_, &v)| v)
                .collect();
            facets.push(make_facet(&pts, verts, &interior).ok_or(HullError::Degenerate)?);
        }

        let mut hull = ConvexHull {
            dim,
            points: pts,
            facets,
            interior,
        };
        // Insert the remaining points incrementally.
        let in_simplex: std::collections::BTreeSet<usize> = simplex.into_iter().collect();
        for idx in 0..hull.points.len() {
            if !in_simplex.contains(&idx) {
                hull.insert_point(idx)?;
            }
        }
        Ok(hull)
    }

    /// The exact d-volume, computed by fanning simplices from the interior
    /// point: `sum_facets |det(w_i - c)| / d!`.
    pub fn volume(&self) -> f64 {
        let d = self.dim;
        let factorial: f64 = (1..=d).map(|k| k as f64).product();
        let mut total = 0.0;
        for facet in &self.facets {
            let rows: Vec<Vec<f64>> = facet
                .vertices
                .iter()
                .map(|&i| {
                    self.points[i]
                        .iter()
                        .zip(&self.interior)
                        .map(|(a, b)| a - b)
                        .collect()
                })
                .collect();
            total += determinant(&rows).abs() / factorial;
        }
        total
    }

    /// `true` if `point` lies inside or on the hull (within tolerance).
    ///
    /// # Panics
    ///
    /// Panics if the dimension mismatches.
    pub fn contains(&self, point: &[f64]) -> bool {
        assert_eq!(point.len(), self.dim, "dimension mismatch");
        self.facets
            .iter()
            .all(|f| dot(&f.normal, point) <= f.offset + 1e-7)
    }

    /// Incrementally adds point `idx`, replacing visible facets.
    fn insert_point(&mut self, idx: usize) -> Result<(), HullError> {
        let p = self.points[idx].clone();
        let visible: Vec<usize> = self
            .facets
            .iter()
            .enumerate()
            .filter(|(_, f)| dot(&f.normal, &p) > f.offset + EPS * (1.0 + f.offset.abs()))
            .map(|(i, _)| i)
            .collect();
        if visible.is_empty() {
            return Ok(()); // interior or boundary point
        }
        // Horizon ridges: (d-1)-faces of visible facets occurring exactly once.
        use std::collections::BTreeMap;
        let mut ridge_count: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
        for &fi in &visible {
            let verts = &self.facets[fi].vertices;
            for omit in 0..verts.len() {
                let mut ridge: Vec<usize> = verts
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != omit)
                    .map(|(_, &v)| v)
                    .collect();
                ridge.sort_unstable();
                *ridge_count.entry(ridge).or_insert(0) += 1;
            }
        }
        let horizon: Vec<Vec<usize>> = ridge_count
            .into_iter()
            .filter(|(_, c)| *c == 1)
            .map(|(r, _)| r)
            .collect();
        // Remove visible facets (descending index order).
        let mut visible_sorted = visible;
        visible_sorted.sort_unstable_by(|a, b| b.cmp(a));
        for fi in visible_sorted {
            self.facets.swap_remove(fi);
        }
        // New facets from each horizon ridge plus the new point.
        for ridge in horizon {
            let mut verts = ridge;
            verts.push(idx);
            if let Some(f) = make_facet(&self.points, verts, &self.interior) {
                self.facets.push(f);
            }
            // Degenerate (zero-area) facets are dropped; they contribute no
            // volume.
        }
        Ok(())
    }
}

/// Convenience wrapper: the hull volume of a point set, treating degenerate
/// inputs as zero volume.
pub fn hull_volume(points: &[Vec<f64>]) -> f64 {
    match ConvexHull::new(points) {
        Ok(h) => h.volume(),
        Err(_) => 0.0,
    }
}

/// Hull volume after deterministically joggling each coordinate by up to
/// `magnitude` — mirroring qhull's `QJ` option, which the paper's artifact
/// relied on for degenerate suites like TriQ and PPL+2020 (their reported
/// volumes of 1e-14..1e-15 are joggle artifacts of flat point sets).
pub fn hull_volume_joggled(points: &[Vec<f64>], magnitude: f64, seed: u64) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let joggled: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            p.iter()
                .map(|&x| x + rng.gen_range(-magnitude..=magnitude))
                .collect()
        })
        .collect();
    hull_volume(&joggled)
}

fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Greedily selects `d + 1` affinely independent points (indices), or `None`
/// if the set is degenerate.
fn initial_simplex(pts: &[Vec<f64>], dim: usize) -> Option<Vec<usize>> {
    let mut chosen = vec![0usize];
    // Orthonormal basis of the current affine span (directions from pts[0]).
    let mut basis: Vec<Vec<f64>> = Vec::new();
    while chosen.len() < dim + 1 {
        // Pick the point with maximum residual distance from the span.
        let mut best: Option<(usize, f64, Vec<f64>)> = None;
        for (i, p) in pts.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            let mut v: Vec<f64> = p.iter().zip(&pts[chosen[0]]).map(|(a, b)| a - b).collect();
            for b in &basis {
                let proj = dot(&v, b);
                for (vi, bi) in v.iter_mut().zip(b) {
                    *vi -= proj * bi;
                }
            }
            let norm = dot(&v, &v).sqrt();
            if best.as_ref().is_none_or(|(_, n, _)| norm > *n) {
                best = Some((i, norm, v));
            }
        }
        let (i, norm, mut v) = best?;
        if norm < 1e-7 {
            return None; // degenerate
        }
        for vi in &mut v {
            *vi /= norm;
        }
        basis.push(v);
        chosen.push(i);
    }
    Some(chosen)
}

/// Builds a facet from `d` vertex indices, orienting the normal away from
/// `interior`. Returns `None` for degenerate (zero-area) facets.
fn make_facet(pts: &[Vec<f64>], vertices: Vec<usize>, interior: &[f64]) -> Option<Facet> {
    let d = interior.len();
    debug_assert_eq!(vertices.len(), d);
    // Normal via cofactor expansion: rows are v_k - v_0 for k = 1..d-1; the
    // normal's i-th component is the signed minor obtained by deleting
    // column i.
    let rows: Vec<Vec<f64>> = vertices[1..]
        .iter()
        .map(|&k| {
            pts[k]
                .iter()
                .zip(&pts[vertices[0]])
                .map(|(a, b)| a - b)
                .collect()
        })
        .collect();
    let mut normal = vec![0.0; d];
    for (i, ni) in normal.iter_mut().enumerate() {
        let minor: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .filter(|&(c, _)| c != i)
                    .map(|(_, &v)| v)
                    .collect()
            })
            .collect();
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        *ni = sign * determinant(&minor);
    }
    let norm = dot(&normal, &normal).sqrt();
    if norm < 1e-12 {
        return None;
    }
    for ni in &mut normal {
        *ni /= norm;
    }
    let mut offset = dot(&normal, &pts[vertices[0]]);
    if dot(&normal, interior) > offset {
        for ni in &mut normal {
            *ni = -*ni;
        }
        offset = -offset;
    }
    Some(Facet {
        vertices,
        normal,
        offset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube_corners(d: usize) -> Vec<Vec<f64>> {
        (0..1usize << d)
            .map(|m| {
                (0..d)
                    .map(|i| if m >> i & 1 == 1 { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn square_volume() {
        let hull = ConvexHull::new(&cube_corners(2)).unwrap();
        assert!((hull.volume() - 1.0).abs() < 1e-10);
        assert_eq!(hull.facets.len(), 4);
    }

    #[test]
    fn cube_volumes_up_to_6d() {
        for d in 2..=6 {
            let hull = ConvexHull::new(&cube_corners(d)).unwrap();
            assert!(
                (hull.volume() - 1.0).abs() < 1e-8,
                "d={d} vol={}",
                hull.volume()
            );
        }
    }

    #[test]
    fn simplex_volume_matches_one_over_d_factorial() {
        for d in 2..=6 {
            let mut pts = vec![vec![0.0; d]];
            for i in 0..d {
                let mut e = vec![0.0; d];
                e[i] = 1.0;
                pts.push(e);
            }
            let hull = ConvexHull::new(&pts).unwrap();
            let expect: f64 = 1.0 / (1..=d).map(|k| k as f64).product::<f64>();
            assert!((hull.volume() - expect).abs() < 1e-10, "d={d}");
        }
    }

    #[test]
    fn cross_polytope_volume() {
        // conv{+-e_i}: volume 2^d / d!.
        for d in 2..=5 {
            let mut pts = Vec::new();
            for i in 0..d {
                let mut plus = vec![0.0; d];
                plus[i] = 1.0;
                let mut minus = vec![0.0; d];
                minus[i] = -1.0;
                pts.push(plus);
                pts.push(minus);
            }
            let hull = ConvexHull::new(&pts).unwrap();
            let expect = 2f64.powi(d as i32) / (1..=d).map(|k| k as f64).product::<f64>();
            assert!(
                (hull.volume() - expect).abs() < 1e-8,
                "d={d} vol={}",
                hull.volume()
            );
        }
    }

    #[test]
    fn interior_points_do_not_change_volume() {
        let mut pts = cube_corners(3);
        pts.push(vec![0.5, 0.5, 0.5]);
        pts.push(vec![0.25, 0.5, 0.75]);
        let hull = ConvexHull::new(&pts).unwrap();
        assert!((hull.volume() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn duplicate_points_are_deduplicated() {
        let mut pts = cube_corners(2);
        pts.extend(cube_corners(2));
        let hull = ConvexHull::new(&pts).unwrap();
        assert!((hull.volume() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn degenerate_set_is_detected() {
        // All points on the x-axis in 2-D.
        let pts = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![2.0, 0.0]];
        assert_eq!(ConvexHull::new(&pts).unwrap_err(), HullError::Degenerate);
        let two = vec![vec![0.0, 0.0], vec![1.0, 0.0]];
        assert_eq!(ConvexHull::new(&two).unwrap_err(), HullError::TooFewPoints);
        let pts = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![3.0, 0.0],
        ];
        assert_eq!(ConvexHull::new(&pts).unwrap_err(), HullError::Degenerate);
        assert_eq!(hull_volume(&pts), 0.0);
    }

    #[test]
    fn contains_classifies_points() {
        let hull = ConvexHull::new(&cube_corners(3)).unwrap();
        assert!(hull.contains(&[0.5, 0.5, 0.5]));
        assert!(hull.contains(&[0.0, 0.0, 0.0]));
        assert!(!hull.contains(&[1.2, 0.5, 0.5]));
    }

    #[test]
    fn joggled_volume_of_flat_set_is_tiny_but_positive() {
        // A flat 3-D set: zero exact volume, tiny joggled volume (like the
        // paper's 1e-14-scale TriQ/PPL+2020 rows).
        let pts = vec![
            vec![0.0, 0.0, 0.5],
            vec![1.0, 0.0, 0.5],
            vec![0.0, 1.0, 0.5],
            vec![1.0, 1.0, 0.5],
        ];
        assert_eq!(hull_volume(&pts), 0.0);
        let v = hull_volume_joggled(&pts, 1e-4, 42);
        assert!(v > 0.0 && v < 1e-3, "v={v}");
    }

    #[test]
    fn shifted_and_scaled_cube() {
        let pts: Vec<Vec<f64>> = cube_corners(3)
            .into_iter()
            .map(|p| p.into_iter().map(|x| 2.0 * x - 5.0).collect())
            .collect();
        let hull = ConvexHull::new(&pts).unwrap();
        assert!((hull.volume() - 8.0).abs() < 1e-8);
    }

    #[test]
    fn random_points_volume_leq_bounding_cube() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let hull = ConvexHull::new(&pts).unwrap();
        let v = hull.volume();
        assert!(v > 0.0 && v < 1.0, "v={v}");
        // Every input point must be contained.
        for p in &pts {
            assert!(hull.contains(p));
        }
    }
}
