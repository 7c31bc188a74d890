//! 2D and 3D vector types.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// A two-dimensional vector of `f64` components.
///
/// Used for screen-space coordinates, terrain grid coordinates, and planar
/// (plan-view) geometry such as the support polygon of the crane outriggers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: f64,
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a new vector from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec2) -> f64 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// Z component of the 3D cross product of the two vectors embedded in the plane.
    pub fn perp_dot(self, rhs: Vec2) -> f64 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (cheaper than [`Vec2::length`]).
    pub fn length_squared(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    pub fn distance(self, rhs: Vec2) -> f64 {
        (self - rhs).length()
    }

    /// Returns the vector scaled to unit length, or `None` if it is (nearly) zero.
    pub fn normalized(self) -> Option<Vec2> {
        let len = self.length();
        if len <= crate::EPSILON {
            None
        } else {
            Some(self / len)
        }
    }

    /// Rotates the vector counter-clockwise by `angle` radians.
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }
}

/// A three-dimensional vector of `f64` components.
///
/// The workspace convention is a right-handed coordinate system with **Y up**:
/// `x` east, `y` up, `z` south. Ground-plane logic therefore works on `(x, z)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// The all-ones vector.
    pub const ONE: Vec3 = Vec3 { x: 1.0, y: 1.0, z: 1.0 };

    /// Creates a new vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Unit vector along +X.
    pub const fn unit_x() -> Self {
        Vec3::new(1.0, 0.0, 0.0)
    }

    /// Unit vector along +Y (up).
    pub const fn unit_y() -> Self {
        Vec3::new(0.0, 1.0, 0.0)
    }

    /// Unit vector along +Z.
    pub const fn unit_z() -> Self {
        Vec3::new(0.0, 0.0, 1.0)
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length.
    pub fn length_squared(self) -> f64 {
        self.dot(self)
    }

    /// Distance between two points.
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).length()
    }

    /// Squared distance between two points.
    pub fn distance_squared(self, rhs: Vec3) -> f64 {
        (self - rhs).length_squared()
    }

    /// Returns the vector scaled to unit length, or `None` if it is (nearly) zero.
    pub fn normalized(self) -> Option<Vec3> {
        let len = self.length();
        if len <= crate::EPSILON {
            None
        } else {
            Some(self / len)
        }
    }

    /// Returns the vector scaled to unit length, falling back to `fallback` for
    /// a (nearly) zero vector.
    pub fn normalized_or(self, fallback: Vec3) -> Vec3 {
        self.normalized().unwrap_or(fallback)
    }

    /// Component-wise multiplication.
    pub fn component_mul(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x * rhs.x, self.y * rhs.y, self.z * rhs.z)
    }

    /// Component-wise minimum.
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// The largest component.
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// Linear interpolation from `self` to `rhs` by `t` (not clamped).
    pub fn lerp(self, rhs: Vec3, t: f64) -> Vec3 {
        self + (rhs - self) * t
    }

    /// Projects `self` onto `onto`. Returns the zero vector when `onto` is zero.
    pub fn project_onto(self, onto: Vec3) -> Vec3 {
        let d = onto.length_squared();
        if d <= crate::EPSILON {
            Vec3::ZERO
        } else {
            onto * (self.dot(onto) / d)
        }
    }

    /// Horizontal (ground-plane) projection, i.e. the vector with the Y component zeroed.
    pub fn horizontal(self) -> Vec3 {
        Vec3::new(self.x, 0.0, self.z)
    }

    /// The `(x, z)` ground-plane coordinates as a [`Vec2`].
    pub fn xz(self) -> Vec2 {
        Vec2::new(self.x, self.z)
    }

    /// Returns true when every component is finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

macro_rules! impl_vec_ops {
    ($ty:ident { $($f:ident),+ }) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty { $ty { $($f: self.$f + rhs.$f),+ } }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) { $(self.$f += rhs.$f;)+ }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty { $ty { $($f: self.$f - rhs.$f),+ } }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) { $(self.$f -= rhs.$f;)+ }
        }
        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty { $ty { $($f: self.$f * rhs),+ } }
        }
        impl Mul<$ty> for f64 {
            type Output = $ty;
            fn mul(self, rhs: $ty) -> $ty { rhs * self }
        }
        impl MulAssign<f64> for $ty {
            fn mul_assign(&mut self, rhs: f64) { $(self.$f *= rhs;)+ }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty { $ty { $($f: self.$f / rhs),+ } }
        }
        impl DivAssign<f64> for $ty {
            fn div_assign(&mut self, rhs: f64) { $(self.$f /= rhs;)+ }
        }
        impl Neg for $ty {
            type Output = $ty;
            fn neg(self) -> $ty { $ty { $($f: -self.$f),+ } }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                iter.fold($ty::default(), |acc, v| acc + v)
            }
        }
    };
}

impl_vec_ops!(Vec2 { x, y });
impl_vec_ops!(Vec3 { x, y, z });

impl Index<usize> for Vec3 {
    type Output = f64;

    /// Indexes the vector components as `0 => x`, `1 => y`, `2 => z`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    fn index(&self, index: usize) -> &f64 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(v: [f64; 3]) -> Self {
        Vec3::new(v[0], v[1], v[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl From<[f64; 2]> for Vec2 {
    fn from(v: [f64; 2]) -> Self {
        Vec2::new(v[0], v[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    #[test]
    fn cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        let c = a.cross(b);
        assert!(approx_eq(c.dot(a), 0.0, 1e-9));
        assert!(approx_eq(c.dot(b), 0.0, 1e-9));
    }

    #[test]
    fn unit_vectors_cross_correctly() {
        assert_eq!(Vec3::unit_x().cross(Vec3::unit_y()), Vec3::unit_z());
        assert_eq!(Vec3::unit_y().cross(Vec3::unit_z()), Vec3::unit_x());
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec3::ZERO.normalized().is_none());
        assert_eq!(Vec3::ZERO.normalized_or(Vec3::unit_y()), Vec3::unit_y());
    }

    #[test]
    fn projection_recovers_component() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        let p = v.project_onto(Vec3::unit_x());
        assert!(approx_eq(p.x, 3.0, 1e-12));
        assert!(approx_eq(p.y, 0.0, 1e-12));
    }

    #[test]
    fn vec2_rotation_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!(approx_eq(v.x, 0.0, 1e-12));
        assert!(approx_eq(v.y, 1.0, 1e-12));
    }

    #[test]
    fn indexing_matches_fields() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[0], 7.0);
        assert_eq!(v[1], 8.0);
        assert_eq!(v[2], 9.0);
    }

    fn arb_vec3() -> impl Strategy<Value = Vec3> {
        (-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        #[test]
        fn prop_normalized_has_unit_length(v in arb_vec3()) {
            if let Some(n) = v.normalized() {
                prop_assert!((n.length() - 1.0).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_dot_symmetric(a in arb_vec3(), b in arb_vec3()) {
            prop_assert!((a.dot(b) - b.dot(a)).abs() < 1e-6);
        }

        #[test]
        fn prop_triangle_inequality(a in arb_vec3(), b in arb_vec3()) {
            prop_assert!((a + b).length() <= a.length() + b.length() + 1e-9);
        }

        #[test]
        fn prop_lerp_endpoints(a in arb_vec3(), b in arb_vec3()) {
            prop_assert!(a.lerp(b, 0.0).distance(a) < 1e-9);
            prop_assert!(a.lerp(b, 1.0).distance(b) < 1e-9);
        }
    }
}
