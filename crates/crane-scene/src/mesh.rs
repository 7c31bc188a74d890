//! Triangle meshes.

use sim_math::{Transform, Vec3};

use crate::bounds::Aabb;

/// An RGB color with 8-bit channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Color {
    pub r: u8,
    pub g: u8,
    pub b: u8,
}

impl Color {
    /// Creates a color from channels.
    pub const fn new(r: u8, g: u8, b: u8) -> Color {
        Color { r, g, b }
    }

    /// A medium gray.
    pub const GRAY: Color = Color::new(128, 128, 128);
    /// Construction-site yellow (crane body).
    pub const CRANE_YELLOW: Color = Color::new(230, 180, 30);
    /// Ground brown.
    pub const GROUND: Color = Color::new(140, 110, 70);
    /// Safety red (bars, alarms).
    pub const SAFETY_RED: Color = Color::new(200, 40, 40);
    /// Sky blue.
    pub const SKY: Color = Color::new(120, 170, 230);
    /// Concrete.
    pub const CONCRETE: Color = Color::new(180, 180, 175);

    /// Scales the brightness of the color by `f` in `[0, 1]`.
    pub fn scaled(self, f: f64) -> Color {
        let f = f.clamp(0.0, 1.0);
        Color::new(
            (self.r as f64 * f).round() as u8,
            (self.g as f64 * f).round() as u8,
            (self.b as f64 * f).round() as u8,
        )
    }
}

/// A triangle mesh with one flat color.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Mesh {
    /// Vertex positions.
    pub vertices: Vec<Vec3>,
    /// Triangles as triplets of vertex indices (counter-clockwise front faces).
    pub triangles: Vec<[u32; 3]>,
    /// Flat color of the mesh.
    pub color: Color,
}

impl Mesh {
    /// Creates an empty mesh with a color.
    pub fn new(color: Color) -> Mesh {
        Mesh { vertices: Vec::new(), triangles: Vec::new(), color }
    }

    /// Number of triangles (the "polygons" of the paper's §4 budget).
    pub fn polygon_count(&self) -> usize {
        self.triangles.len()
    }

    /// Adds a vertex and returns its index.
    pub fn push_vertex(&mut self, v: Vec3) -> u32 {
        self.vertices.push(v);
        (self.vertices.len() - 1) as u32
    }

    /// Adds a triangle from vertex indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn push_triangle(&mut self, a: u32, b: u32, c: u32) {
        let n = self.vertices.len() as u32;
        assert!(a < n && b < n && c < n, "triangle index out of range");
        self.triangles.push([a, b, c]);
    }

    /// The world-space corners of triangle `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn triangle(&self, i: usize) -> [Vec3; 3] {
        let [a, b, c] = self.triangles[i];
        [self.vertices[a as usize], self.vertices[b as usize], self.vertices[c as usize]]
    }

    /// The geometric normal of triangle `i` (unit length; +Y for degenerate triangles).
    pub fn triangle_normal(&self, i: usize) -> Vec3 {
        let [a, b, c] = self.triangle(i);
        (b - a).cross(c - a).normalized_or(Vec3::unit_y())
    }

    /// Axis-aligned bounding box of the mesh (empty box for an empty mesh).
    pub fn aabb(&self) -> Aabb {
        Aabb::from_points(self.vertices.iter().copied())
    }

    /// Returns a copy of the mesh with every vertex transformed.
    pub fn transformed(&self, transform: &Transform) -> Mesh {
        Mesh {
            vertices: self.vertices.iter().map(|v| transform.apply(*v)).collect(),
            triangles: self.triangles.clone(),
            color: self.color,
        }
    }

    /// Appends another mesh (its color is discarded in favour of `self`'s).
    pub fn merge(&mut self, other: &Mesh) {
        let base = self.vertices.len() as u32;
        self.vertices.extend_from_slice(&other.vertices);
        self.triangles
            .extend(other.triangles.iter().map(|[a, b, c]| [a + base, b + base, c + base]));
    }

    /// Total surface area of the mesh.
    pub fn surface_area(&self) -> f64 {
        (0..self.triangles.len())
            .map(|i| {
                let [a, b, c] = self.triangle(i);
                (b - a).cross(c - a).length() * 0.5
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_triangle() -> Mesh {
        let mut m = Mesh::new(Color::GRAY);
        let a = m.push_vertex(Vec3::ZERO);
        let b = m.push_vertex(Vec3::unit_x());
        let c = m.push_vertex(Vec3::unit_z());
        m.push_triangle(a, b, c);
        m
    }

    #[test]
    fn polygon_count_and_area() {
        let m = unit_triangle();
        assert_eq!(m.polygon_count(), 1);
        assert!((m.surface_area() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normal_is_unit_and_perpendicular() {
        let m = unit_triangle();
        let n = m.triangle_normal(0);
        assert!((n.length() - 1.0).abs() < 1e-12);
        assert!(n.dot(Vec3::unit_x()).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn out_of_range_triangle_rejected() {
        let mut m = Mesh::new(Color::GRAY);
        m.push_vertex(Vec3::ZERO);
        m.push_triangle(0, 1, 2);
    }

    #[test]
    fn merge_offsets_indices() {
        let mut a = unit_triangle();
        let b = unit_triangle();
        a.merge(&b);
        assert_eq!(a.polygon_count(), 2);
        assert_eq!(a.triangles[1], [3, 4, 5]);
        assert_eq!(a.vertices.len(), 6);
    }

    #[test]
    fn transform_moves_bounds() {
        let m = unit_triangle();
        let moved = m.transformed(&Transform::from_translation(Vec3::new(10.0, 0.0, 0.0)));
        let aabb = moved.aabb();
        assert!((aabb.min.x - 10.0).abs() < 1e-12);
        assert!((aabb.max.x - 11.0).abs() < 1e-12);
    }

    #[test]
    fn color_scaling_clamps() {
        let c = Color::new(100, 200, 50).scaled(0.5);
        assert_eq!(c, Color::new(50, 100, 25));
        assert_eq!(Color::new(10, 10, 10).scaled(2.0), Color::new(10, 10, 10));
    }
}
