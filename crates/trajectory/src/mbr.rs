//! Minimum bounding rectangles and the `MinDist` primitives.
//!
//! DITA's indexes never compare raw trajectories during filtering: the global
//! index stores one MBR per partition for first and last points (§4.2.2), the
//! trie's internal nodes store MBRs of indexing points (§4.2.3), and the
//! verification step uses τ-extended MBRs (`EMBR`, Lemma 5.4). All of those
//! reduce to the point-to-rectangle and rectangle-to-rectangle minimum
//! distances implemented here.

use crate::point::Point;
use std::fmt;

/// An axis-aligned minimum bounding rectangle.
///
/// Invariant: `min.x <= max.x && min.y <= max.y` for every constructed value.
/// An empty MBR (no contained points yet) is represented by [`Mbr::EMPTY`],
/// which has inverted infinite bounds and acts as the identity for
/// [`Mbr::union`] / [`Mbr::extend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbr {
    /// Bottom-left corner.
    pub min: Point,
    /// Top-right corner.
    pub max: Point,
}

impl Mbr {
    /// The empty rectangle: identity for union, contains nothing.
    pub const EMPTY: Mbr = Mbr {
        min: Point {
            x: f64::INFINITY,
            y: f64::INFINITY,
        },
        max: Point {
            x: f64::NEG_INFINITY,
            y: f64::NEG_INFINITY,
        },
    };

    /// Creates an MBR from two corner points (in any order).
    pub fn new(a: Point, b: Point) -> Self {
        Mbr {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// The degenerate MBR containing exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Mbr { min: p, max: p }
    }

    /// The MBR of a point sequence; [`Mbr::EMPTY`] for an empty iterator.
    pub fn from_points<'a, I: IntoIterator<Item = &'a Point>>(points: I) -> Self {
        let mut mbr = Mbr::EMPTY;
        for p in points {
            mbr.extend(p);
        }
        mbr
    }

    /// Returns `true` if the rectangle contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Grows the rectangle to include `p`.
    #[inline]
    pub fn extend(&mut self, p: &Point) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// The smallest rectangle covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Mbr) -> Mbr {
        Mbr {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// Returns the rectangle whose borders are pushed outward by `delta`.
    ///
    /// This is the paper's `EMBR_{Q,τ}` (§5.3.3(1)): extending a trajectory
    /// MBR by the threshold τ before testing coverage.
    #[inline]
    pub fn expanded(&self, delta: f64) -> Mbr {
        debug_assert!(delta >= 0.0);
        if self.is_empty() {
            return *self;
        }
        Mbr {
            min: Point::new(self.min.x - delta, self.min.y - delta),
            max: Point::new(self.max.x + delta, self.max.y + delta),
        }
    }

    /// Returns `true` if `p` lies inside or on the border.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` if `other` lies fully inside `self`.
    #[inline]
    pub fn covers(&self, other: &Mbr) -> bool {
        if other.is_empty() {
            return true;
        }
        !self.is_empty()
            && self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// Returns `true` if the two rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Mbr) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// `MinDist(q, MBR)`: minimum Euclidean distance from a point to the
    /// rectangle; zero when the point is inside (§5.3.1).
    #[inline]
    pub fn min_dist_point(&self, p: &Point) -> f64 {
        self.min_dist_point_sq(p).sqrt()
    }

    /// Squared version of [`Mbr::min_dist_point`].
    #[inline]
    pub fn min_dist_point_sq(&self, p: &Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Minimum distance between two rectangles; zero when they intersect.
    #[inline]
    pub fn min_dist_mbr(&self, other: &Mbr) -> f64 {
        self.min_dist_mbr_sq(other).sqrt()
    }

    /// Squared version of [`Mbr::min_dist_mbr`].
    #[inline]
    pub fn min_dist_mbr_sq(&self, other: &Mbr) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.min.x - other.max.x)
            .max(0.0)
            .max(other.min.x - self.max.x);
        let dy = (self.min.y - other.max.y)
            .max(0.0)
            .max(other.min.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Rectangle area (zero for degenerate or empty rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (self.max.x - self.min.x) * (self.max.y - self.min.y)
    }

    /// Half-perimeter (the classic R-tree "margin" metric).
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (self.max.x - self.min.x) + (self.max.y - self.min.y)
    }

    /// Center of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }
}

impl fmt::Display for Mbr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbr(x0: f64, y0: f64, x1: f64, y1: f64) -> Mbr {
        Mbr::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn new_normalizes_corners() {
        let m = Mbr::new(Point::new(3.0, 1.0), Point::new(1.0, 4.0));
        assert_eq!(m.min, Point::new(1.0, 1.0));
        assert_eq!(m.max, Point::new(3.0, 4.0));
    }

    #[test]
    fn empty_is_identity_for_union_and_extend() {
        let m = mbr(0.0, 0.0, 2.0, 2.0);
        assert_eq!(Mbr::EMPTY.union(&m), m);
        assert_eq!(m.union(&Mbr::EMPTY), m);
        let mut e = Mbr::EMPTY;
        e.extend(&Point::new(1.0, 1.0));
        assert_eq!(e, Mbr::from_point(Point::new(1.0, 1.0)));
        assert!(Mbr::EMPTY.is_empty());
        assert!(!m.is_empty());
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 0.0),
            Point::new(3.0, 3.0),
        ];
        let m = Mbr::from_points(pts.iter());
        for p in &pts {
            assert!(m.contains_point(p));
        }
        assert_eq!(m.min, Point::new(-2.0, 0.0));
        assert_eq!(m.max, Point::new(3.0, 5.0));
    }

    #[test]
    fn min_dist_point_inside_is_zero() {
        let m = mbr(0.0, 0.0, 4.0, 4.0);
        assert_eq!(m.min_dist_point(&Point::new(2.0, 2.0)), 0.0);
        assert_eq!(m.min_dist_point(&Point::new(0.0, 0.0)), 0.0); // on corner
        assert_eq!(m.min_dist_point(&Point::new(4.0, 2.0)), 0.0); // on side
    }

    #[test]
    fn min_dist_point_outside_side_and_corner() {
        let m = mbr(0.0, 0.0, 4.0, 4.0);
        // Directly right of the rectangle: distance to the side.
        assert_eq!(m.min_dist_point(&Point::new(6.0, 2.0)), 2.0);
        // Diagonal from the corner.
        let d = m.min_dist_point(&Point::new(7.0, 8.0));
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_dist_mbr_zero_when_intersecting() {
        let a = mbr(0.0, 0.0, 4.0, 4.0);
        let b = mbr(3.0, 3.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert_eq!(a.min_dist_mbr(&b), 0.0);
    }

    #[test]
    fn min_dist_mbr_separated() {
        let a = mbr(0.0, 0.0, 1.0, 1.0);
        let b = mbr(4.0, 5.0, 6.0, 7.0);
        assert!(!a.intersects(&b));
        assert_eq!(a.min_dist_mbr(&b), 5.0); // dx=3, dy=4
    }

    #[test]
    fn expanded_covers_original() {
        let m = mbr(1.0, 1.0, 2.0, 3.0);
        let e = m.expanded(0.5);
        assert!(e.covers(&m));
        assert_eq!(e.min, Point::new(0.5, 0.5));
        assert_eq!(e.max, Point::new(2.5, 3.5));
    }

    #[test]
    fn covers_and_intersects_edge_cases() {
        let a = mbr(0.0, 0.0, 4.0, 4.0);
        assert!(a.covers(&a));
        assert!(a.covers(&Mbr::EMPTY));
        assert!(!Mbr::EMPTY.covers(&a));
        // Touching at a single border point still intersects.
        let b = mbr(4.0, 4.0, 5.0, 5.0);
        assert!(a.intersects(&b));
        assert!(!a.covers(&b));
    }

    #[test]
    fn area_margin_center() {
        let m = mbr(0.0, 0.0, 2.0, 3.0);
        assert_eq!(m.area(), 6.0);
        assert_eq!(m.margin(), 5.0);
        assert_eq!(m.center(), Point::new(1.0, 1.5));
        assert_eq!(Mbr::EMPTY.area(), 0.0);
    }
}
