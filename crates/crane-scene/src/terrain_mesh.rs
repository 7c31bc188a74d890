//! Terrain mesh generation from a height function.

use sim_math::Vec3;

use crate::mesh::{Color, Mesh};

/// Builds a terrain mesh over the rectangle `size_x` by `size_z` centred at
/// `(center_x, center_z)`, sampling `height(x, z)` at `(nx + 1) * (nz + 1)`
/// grid points.
///
/// # Panics
///
/// Panics if `nx` or `nz` is zero or an extent is not positive.
#[allow(
    clippy::too_many_arguments,
    reason = "the centre, extents and cell counts are plain numbers named at the one call site"
)]
pub fn heightfield_mesh<F>(
    center_x: f64,
    center_z: f64,
    size_x: f64,
    size_z: f64,
    nx: u32,
    nz: u32,
    color: Color,
    height: F,
) -> Mesh
where
    F: Fn(f64, f64) -> f64,
{
    assert!(size_x > 0.0 && size_z > 0.0, "terrain extents must be positive");
    assert!(nx > 0 && nz > 0, "terrain must have at least one cell per axis");
    let mut m = Mesh::new(color);
    for iz in 0..=nz {
        for ix in 0..=nx {
            let x = center_x - size_x / 2.0 + size_x * ix as f64 / nx as f64;
            let z = center_z - size_z / 2.0 + size_z * iz as f64 / nz as f64;
            m.push_vertex(Vec3::new(x, height(x, z), z));
        }
    }
    let stride = nx + 1;
    for iz in 0..nz {
        for ix in 0..nx {
            let a = iz * stride + ix;
            let b = a + 1;
            let c = a + stride;
            let d = c + 1;
            m.push_triangle(a, b, d);
            m.push_triangle(a, d, c);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_heightfield_matches_plane() {
        let m = heightfield_mesh(0.0, 0.0, 10.0, 10.0, 4, 4, Color::GROUND, |_, _| 0.0);
        assert_eq!(m.polygon_count(), 32);
        assert!((m.surface_area() - 100.0).abs() < 1e-9);
        assert!(m.vertices.iter().all(|v| v.y == 0.0));
    }

    #[test]
    fn heights_follow_function() {
        let m =
            heightfield_mesh(0.0, 0.0, 20.0, 20.0, 10, 10, Color::GROUND, |x, z| 0.1 * x + 0.2 * z);
        for v in &m.vertices {
            assert!((v.y - (0.1 * v.x + 0.2 * v.z)).abs() < 1e-12);
        }
    }

    #[test]
    fn hills_increase_surface_area() {
        let flat = heightfield_mesh(0.0, 0.0, 50.0, 50.0, 20, 20, Color::GROUND, |_, _| 0.0);
        let hilly = heightfield_mesh(0.0, 0.0, 50.0, 50.0, 20, 20, Color::GROUND, |x, z| {
            2.0 * (x * 0.3).sin() * (z * 0.3).cos()
        });
        assert!(hilly.surface_area() > flat.surface_area());
    }

    #[test]
    #[should_panic]
    fn zero_cells_rejected() {
        let _ = heightfield_mesh(0.0, 0.0, 1.0, 1.0, 0, 4, Color::GROUND, |_, _| 0.0);
    }
}
