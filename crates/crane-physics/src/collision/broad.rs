//! Uniform-grid broad phase over the ground plane.

use std::collections::BTreeMap;

use crane_scene::bounds::Aabb;

/// A uniform grid over the XZ plane mapping cells to obstacle indices.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialGrid {
    cell_size: f64,
    cells: BTreeMap<(i64, i64), Vec<usize>>,
}

impl SpatialGrid {
    /// Builds a grid from the obstacle bounds.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive.
    pub fn build(cell_size: f64, bounds: &[Aabb]) -> SpatialGrid {
        assert!(cell_size > 0.0, "cell size must be positive");
        let mut cells: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
        for (index, aabb) in bounds.iter().enumerate() {
            if aabb.is_empty() {
                continue;
            }
            for cell in Self::cells_overlapping(cell_size, aabb) {
                cells.entry(cell).or_default().push(index);
            }
        }
        SpatialGrid { cell_size, cells }
    }

    fn cells_overlapping(cell_size: f64, aabb: &Aabb) -> Vec<(i64, i64)> {
        let min_x = (aabb.min.x / cell_size).floor() as i64;
        let max_x = (aabb.max.x / cell_size).floor() as i64;
        let min_z = (aabb.min.z / cell_size).floor() as i64;
        let max_z = (aabb.max.z / cell_size).floor() as i64;
        let mut cells = Vec::new();
        for cx in min_x..=max_x {
            for cz in min_z..=max_z {
                cells.push((cx, cz));
            }
        }
        cells
    }

    /// Obstacle indices whose bounds may overlap the query box (sorted, deduplicated).
    pub fn candidates(&self, query: &Aabb) -> Vec<usize> {
        if query.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for cell in Self::cells_overlapping(self.cell_size, query) {
            if let Some(indices) = self.cells.get(&cell) {
                out.extend_from_slice(indices);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of non-empty cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_math::Vec3;

    fn grid_of_blocks() -> (SpatialGrid, Vec<Aabb>) {
        let bounds: Vec<Aabb> = (0..100)
            .map(|i| {
                let x = (i % 10) as f64 * 10.0;
                let z = (i / 10) as f64 * 10.0;
                Aabb::from_center_half_extents(Vec3::new(x, 1.0, z), Vec3::splat(1.0))
            })
            .collect();
        (SpatialGrid::build(10.0, &bounds), bounds)
    }

    #[test]
    fn candidates_contain_every_true_overlap() {
        let (grid, bounds) = grid_of_blocks();
        let query = Aabb::from_center_half_extents(Vec3::new(25.0, 1.0, 35.0), Vec3::splat(8.0));
        let candidates = grid.candidates(&query);
        for (i, b) in bounds.iter().enumerate() {
            if b.intersects(&query) {
                assert!(candidates.contains(&i), "missed true overlap {i}");
            }
        }
        assert!(candidates.len() < bounds.len(), "grid did not prune anything");
    }

    #[test]
    fn empty_query_yields_no_candidates() {
        let (grid, _) = grid_of_blocks();
        assert!(grid.candidates(&Aabb::empty()).is_empty());
        assert!(grid.occupied_cells() > 0);
    }

    #[test]
    fn large_objects_span_multiple_cells() {
        let big =
            Aabb::from_center_half_extents(Vec3::new(0.0, 0.0, 0.0), Vec3::new(25.0, 1.0, 25.0));
        let grid = SpatialGrid::build(10.0, &[big]);
        assert!(grid.occupied_cells() >= 25);
        let probe = Aabb::from_center_half_extents(Vec3::new(20.0, 0.0, -20.0), Vec3::splat(1.0));
        assert_eq!(grid.candidates(&probe), vec![0]);
    }

    #[test]
    #[should_panic]
    fn zero_cell_size_rejected() {
        let _ = SpatialGrid::build(0.0, &[]);
    }
}
