//! Property tests for hull, quadrant and angular-gap invariants.

use proptest::prelude::*;
use wsn_geom::{convex_hull, max_angular_gap, polygon_area, Point, Quadrant};

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0f64..50.0, 0.0f64..50.0).prop_map(|(x, y)| Point::new(x, y)),
        3..60,
    )
}

/// `true` when `p` lies inside or on the convex polygon `hull` (CCW order).
fn inside_hull(points: &[Point], hull: &[usize], p: &Point) -> bool {
    if hull.len() < 3 {
        return true; // degenerate hulls impose no constraint here
    }
    (0..hull.len()).all(|k| {
        let a = &points[hull[k]];
        let b = &points[hull[(k + 1) % hull.len()]];
        Point::cross(a, b, p) >= -1e-9
    })
}

proptest! {
    #[test]
    fn hull_contains_all_points(pts in arb_points()) {
        let hull = convex_hull(&pts);
        for p in &pts {
            prop_assert!(inside_hull(&pts, &hull, p), "point {p:?} outside hull");
        }
    }

    #[test]
    fn hull_is_convex_and_ccw(pts in arb_points()) {
        let hull = convex_hull(&pts);
        if hull.len() >= 3 {
            prop_assert!(polygon_area(&pts, &hull) > 0.0);
            for k in 0..hull.len() {
                let a = &pts[hull[k]];
                let b = &pts[hull[(k + 1) % hull.len()]];
                let c = &pts[hull[(k + 2) % hull.len()]];
                prop_assert!(Point::cross(a, b, c) > 0.0, "non-strict turn at hull vertex {k}");
            }
        }
    }

    #[test]
    fn hull_invariant_under_shuffle(pts in arb_points()) {
        let hull_a: std::collections::BTreeSet<_> =
            convex_hull(&pts).into_iter().map(|i| (pts[i].x.to_bits(), pts[i].y.to_bits())).collect();
        let mut rev = pts.clone();
        rev.reverse();
        let hull_b: std::collections::BTreeSet<_> =
            convex_hull(&rev).into_iter().map(|i| (rev[i].x.to_bits(), rev[i].y.to_bits())).collect();
        prop_assert_eq!(hull_a, hull_b);
    }

    #[test]
    fn every_distinct_point_in_exactly_one_quadrant(
        (ox, oy) in (0.0f64..50.0, 0.0f64..50.0),
        (px, py) in (0.0f64..50.0, 0.0f64..50.0),
    ) {
        let o = Point::new(ox, oy);
        let p = Point::new(px, py);
        let q = Quadrant::of(&o, &p);
        if p == o {
            prop_assert_eq!(q, None);
        } else {
            let memberships = Quadrant::ALL.iter().filter(|&&c| Some(c) == q).count();
            prop_assert_eq!(memberships, 1);
        }
    }

    #[test]
    fn gaps_sum_to_full_circle(pts in arb_points()) {
        // The max gap is at least TAU / k for k neighbors.
        let o = Point::new(25.0, 25.0);
        let neighbors: Vec<Point> = pts.into_iter().filter(|p| *p != o).collect();
        let gap = max_angular_gap(&o, &neighbors);
        prop_assert!(gap > 0.0);
        prop_assert!(gap <= std::f64::consts::TAU + 1e-12);
        if !neighbors.is_empty() {
            prop_assert!(gap >= std::f64::consts::TAU / neighbors.len() as f64 - 1e-9);
        }
    }
}
