//! Uniform spatial hash grid for radius-bounded neighbor queries.
//!
//! Unit-disk adjacency, SINR gain tables and the conflict-pair enumeration
//! of the anytime scheduler all ask the same question — *which points lie
//! within distance `r` of this one?* — and at 10k–100k nodes the all-pairs
//! answer is the dominant cost. [`CellGrid`] buckets points into square
//! cells of side `cell ≥ r` so a query only scans the 3×3 cell block
//! around the probe: with points spread over an area `A`, expected cost is
//! `O(9 · n · cell² / A)` per query instead of `O(n)`, making whole-graph
//! construction near-linear at constant density.
//!
//! The grid stores point *indices* into the caller's slice, so the same
//! grid serves a full deployment or an arbitrary subset (e.g. the current
//! candidate-sender list).

use crate::Point;
use std::collections::HashMap;

/// A spatial hash over a fixed point set, keyed on square cells.
#[derive(Clone, Debug)]
pub struct CellGrid {
    /// Cell side length (≥ the largest query radius this grid serves).
    cell: f64,
    /// Cell coordinates → indices of the points inside the cell.
    cells: HashMap<(i64, i64), Vec<u32>>,
}

impl CellGrid {
    /// Buckets `points` into cells of side `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite.
    pub fn build(points: &[Point], cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell side must be positive and finite, got {cell}"
        );
        let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            cells.entry(Self::key(p, cell)).or_default().push(i as u32);
        }
        CellGrid { cell, cells }
    }

    /// Builds a grid over a subset of `points`, keeping the *original*
    /// indices — queries return positions in `points`, not in `subset`.
    pub fn build_subset(points: &[Point], subset: &[u32], cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell side must be positive and finite, got {cell}"
        );
        let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for &i in subset {
            let p = &points[i as usize];
            cells.entry(Self::key(p, cell)).or_default().push(i);
        }
        CellGrid { cell, cells }
    }

    #[inline]
    fn key(p: &Point, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// The cell side length the grid was built with.
    #[inline]
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// Calls `f` with the index of every stored point in the 3×3 cell
    /// block around `probe` — a superset of the points within distance
    /// `cell` of it. Callers apply their own exact distance test.
    #[inline]
    pub fn for_each_near<F: FnMut(u32)>(&self, probe: &Point, mut f: F) {
        let (cx, cy) = Self::key(probe, self.cell);
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &i in bucket {
                        f(i);
                    }
                }
            }
        }
    }

    /// Indices of stored points within distance `radius` of `points[i]`,
    /// excluding `i` itself, in ascending index order. `radius` must be
    /// ≤ the grid's cell side for the scan to be exhaustive.
    ///
    /// A convenience wrapper over [`CellGrid::for_each_near`] for callers
    /// that want materialized, sorted neighbor lists.
    pub fn neighbors_within(&self, points: &[Point], i: u32, radius: f64) -> Vec<u32> {
        debug_assert!(radius <= self.cell + 1e-9);
        let p = points[i as usize];
        let r2 = radius * radius;
        let mut out = Vec::new();
        self.for_each_near(&p, |j| {
            if j != i && points[j as usize].dist2(&p) <= r2 {
                out.push(j);
            }
        });
        out.sort_unstable();
        out
    }

    /// Enumerates every unordered pair `(i, j)`, `i < j`, of stored points
    /// within distance `radius` of each other. `radius` must be ≤ the cell
    /// side. Each qualifying pair is reported exactly once.
    pub fn for_each_pair_within<F: FnMut(u32, u32)>(
        &self,
        points: &[Point],
        radius: f64,
        mut f: F,
    ) {
        debug_assert!(radius <= self.cell + 1e-9);
        let r2 = radius * radius;
        for (&(cx, cy), bucket) in &self.cells {
            // Within the home cell: strictly ordered index pairs.
            for (a, &i) in bucket.iter().enumerate() {
                let pi = points[i as usize];
                for &j in &bucket[a + 1..] {
                    if pi.dist2(&points[j as usize]) <= r2 {
                        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                        f(lo, hi);
                    }
                }
            }
            // Across cells: scan a forward half-plane of the 8 neighbors so
            // each cell pair is visited from exactly one side.
            for (dx, dy) in [(1, 0), (1, 1), (0, 1), (-1, 1)] {
                if let Some(other) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &i in bucket {
                        let pi = points[i as usize];
                        for &j in other {
                            if pi.dist2(&points[j as usize]) <= r2 {
                                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                                f(lo, hi);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter(n: usize, seed: u64) -> Vec<Point> {
        // Small LCG so the test needs no RNG dependency.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect()
    }

    fn brute_pairs(points: &[Point], r: f64) -> Vec<(u32, u32)> {
        let r2 = r * r;
        let mut out = Vec::new();
        for i in 0..points.len() {
            for j in i + 1..points.len() {
                if points[i].dist2(&points[j]) <= r2 {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn pairs_match_brute_force() {
        for seed in 0..4 {
            let pts = scatter(300, seed + 1);
            for r in [3.0, 10.0, 37.5] {
                let grid = CellGrid::build(&pts, r);
                let mut got = Vec::new();
                grid.for_each_pair_within(&pts, r, |i, j| got.push((i, j)));
                got.sort_unstable();
                assert_eq!(got, brute_pairs(&pts, r), "seed {seed} r {r}");
            }
        }
    }

    #[test]
    fn neighbors_match_brute_force() {
        let pts = scatter(200, 9);
        let r = 12.0;
        let grid = CellGrid::build(&pts, r);
        for i in 0..pts.len() as u32 {
            let got = grid.neighbors_within(&pts, i, r);
            let want: Vec<u32> = (0..pts.len() as u32)
                .filter(|&j| j != i && pts[j as usize].dist2(&pts[i as usize]) <= r * r)
                .collect();
            assert_eq!(got, want, "node {i}");
        }
    }

    #[test]
    fn subset_grid_keeps_original_indices() {
        let pts = scatter(100, 3);
        let subset: Vec<u32> = (0..100).filter(|i| i % 3 == 0).collect();
        let grid = CellGrid::build_subset(&pts, &subset, 15.0);
        let mut got = Vec::new();
        grid.for_each_pair_within(&pts, 15.0, |i, j| got.push((i, j)));
        got.sort_unstable();
        let want: Vec<(u32, u32)> = brute_pairs(&pts, 15.0)
            .into_iter()
            .filter(|&(i, j)| i % 3 == 0 && j % 3 == 0)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let pts = vec![
            Point::new(-0.5, -0.5),
            Point::new(0.5, 0.5),
            Point::new(-10.0, -10.0),
        ];
        let grid = CellGrid::build(&pts, 2.0);
        let mut got = Vec::new();
        grid.for_each_pair_within(&pts, 2.0, |i, j| got.push((i, j)));
        assert_eq!(got, vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_cell_panics() {
        CellGrid::build(&[], 0.0);
    }
}
