//! Axis-aligned bounding boxes.

use sim_math::Vec3;

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Default for Aabb {
    fn default() -> Self {
        Aabb::empty()
    }
}

impl Aabb {
    /// An empty (inverted) box that unions correctly with any point.
    pub fn empty() -> Aabb {
        Aabb { min: Vec3::splat(f64::INFINITY), max: Vec3::splat(f64::NEG_INFINITY) }
    }

    /// A box from explicit corners.
    ///
    /// # Panics
    ///
    /// Panics if any component of `min` exceeds the corresponding component of `max`.
    pub fn new(min: Vec3, max: Vec3) -> Aabb {
        assert!(min.x <= max.x && min.y <= max.y && min.z <= max.z, "inverted AABB");
        Aabb { min, max }
    }

    /// The tightest box containing all `points`.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Aabb {
        let mut aabb = Aabb::empty();
        for p in points {
            aabb.expand(p);
        }
        aabb
    }

    /// A box centred at `center` with half-extents `half`.
    pub fn from_center_half_extents(center: Vec3, half: Vec3) -> Aabb {
        Aabb { min: center - half, max: center + half }
    }

    /// Whether the box contains no points.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Expands the box to include a point.
    pub fn expand(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Grows the box by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Aabb {
        Aabb { min: self.min - Vec3::splat(margin), max: self.max + Vec3::splat(margin) }
    }

    /// Box center.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Box half-extents.
    pub fn half_extents(&self) -> Vec3 {
        (self.max - self.min) * 0.5
    }

    /// Radius of the bounding sphere centred at [`Aabb::center`].
    pub fn bounding_radius(&self) -> f64 {
        self.half_extents().length()
    }

    /// Whether the point is inside (inclusive).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Whether two boxes overlap (touching counts as overlap).
    pub fn intersects(&self, other: &Aabb) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// The point of the box closest to `p`.
    pub fn closest_point(&self, p: Vec3) -> Vec3 {
        Vec3::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
            p.z.clamp(self.min.z, self.max.z),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_unions_correctly() {
        let mut b = Aabb::empty();
        assert!(b.is_empty());
        b.expand(Vec3::new(1.0, 2.0, 3.0));
        assert!(!b.is_empty());
        assert_eq!(b.min, b.max);
    }

    #[test]
    fn intersection_and_containment() {
        let a = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        let b = Aabb::new(Vec3::splat(1.0), Vec3::splat(3.0));
        let c = Aabb::new(Vec3::splat(5.0), Vec3::splat(6.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains(Vec3::splat(1.5)));
        assert!(!a.contains(Vec3::splat(2.5)));
        assert!(!a.intersects(&Aabb::empty()));
    }

    #[test]
    fn closest_point_clamps() {
        let a = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert_eq!(a.closest_point(Vec3::new(5.0, 0.5, -3.0)), Vec3::new(1.0, 0.5, 0.0));
    }

    #[test]
    fn inflate_and_radius() {
        let a = Aabb::from_center_half_extents(Vec3::ZERO, Vec3::splat(1.0));
        assert!((a.bounding_radius() - 3f64.sqrt()).abs() < 1e-12);
        let big = a.inflated(1.0);
        assert_eq!(big.half_extents(), Vec3::splat(2.0));
    }

    #[test]
    #[should_panic]
    fn inverted_new_rejected() {
        let _ = Aabb::new(Vec3::splat(1.0), Vec3::ZERO);
    }
}
