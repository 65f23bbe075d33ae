//! The fire mesh: grid + fuel map + terrain.

use crate::{FireError, FuelCategory, FuelModel, Result};
use wildfire_grid::{Field2, Grid2};

/// Per-node fuel assignment: a small palette of [`FuelModel`]s plus one
/// palette index per grid node. Heterogeneous landscapes (grass plains with
/// timber stands, fuel breaks) are expressed by painting indices.
#[derive(Debug, Clone)]
pub struct FuelMap {
    palette: Vec<FuelModel>,
    index: Vec<u8>,
    grid: Grid2,
}

impl FuelMap {
    /// Uniform fuel everywhere.
    pub fn uniform(grid: Grid2, fuel: FuelModel) -> Self {
        FuelMap {
            palette: vec![fuel],
            index: vec![0; grid.len()],
            grid,
        }
    }

    /// Uniform fuel from a standard category.
    pub fn uniform_category(grid: Grid2, cat: FuelCategory) -> Self {
        Self::uniform(grid, FuelModel::for_category(cat))
    }

    /// Adds a fuel model to the palette, returning its index.
    ///
    /// # Errors
    /// [`FireError::BadFuelIndex`] with the index the entry would get when
    /// the palette already holds 256 entries (indices are `u8`).
    pub fn add_fuel(&mut self, fuel: FuelModel) -> Result<u8> {
        let idx = self.palette.len();
        let idx = u8::try_from(idx).map_err(|_| FireError::BadFuelIndex(idx))?;
        self.palette.push(fuel);
        Ok(idx)
    }

    /// Paints the rectangle of nodes `[x0, x1] × [y0, y1]` (world
    /// coordinates) with palette entry `idx`.
    ///
    /// # Errors
    /// [`FireError::BadFuelIndex`] when `idx` is not in the palette.
    pub fn paint_rect(&mut self, x0: f64, y0: f64, x1: f64, y1: f64, idx: u8) -> Result<()> {
        if idx as usize >= self.palette.len() {
            return Err(FireError::BadFuelIndex(idx as usize));
        }
        for iy in 0..self.grid.ny {
            for ix in 0..self.grid.nx {
                let (x, y) = self.grid.world(ix, iy);
                if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
                    self.index[self.grid.idx(ix, iy)] = idx;
                }
            }
        }
        Ok(())
    }

    /// The fuel model at node `(ix, iy)`.
    #[inline]
    pub fn at(&self, ix: usize, iy: usize) -> &FuelModel {
        &self.palette[self.index[self.grid.idx(ix, iy)] as usize]
    }

    /// The grid this map is painted on.
    pub fn grid(&self) -> Grid2 {
        self.grid
    }

    /// The palette of fuel models.
    pub fn palette(&self) -> &[FuelModel] {
        &self.palette
    }

    /// The per-node palette indices, row-major in `x` (one `u8` per grid
    /// node). Every value is a valid index into [`FuelMap::palette`]; the
    /// fused level-set kernel streams this plane next to its flattened
    /// coefficient array.
    #[inline]
    pub fn indices(&self) -> &[u8] {
        &self.index
    }
}

/// Static description of the fire domain: grid, fuels, terrain height.
#[derive(Debug, Clone)]
pub struct FireMesh {
    /// The fire grid (typically much finer than the atmosphere's, §2.3).
    pub grid: Grid2,
    /// Fuel assignment.
    pub fuel: FuelMap,
    /// Terrain height `z` (m) at the nodes; its gradient enters the spread
    /// law through `d·∇z·n⃗`.
    pub terrain: Field2,
}

impl FireMesh {
    /// Flat terrain with uniform fuel of the given category.
    pub fn flat(grid: Grid2, cat: FuelCategory) -> Self {
        FireMesh {
            grid,
            fuel: FuelMap::uniform_category(grid, cat),
            terrain: Field2::zeros(grid),
        }
    }

    /// Builder with explicit fuel map and terrain.
    ///
    /// # Errors
    /// [`FireError::GridMismatch`] when the pieces live on different grids.
    pub fn new(grid: Grid2, fuel: FuelMap, terrain: Field2) -> Result<Self> {
        if fuel.grid() != grid || terrain.grid() != grid {
            return Err(FireError::GridMismatch("fire mesh assembly"));
        }
        Ok(FireMesh {
            grid,
            fuel,
            terrain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_map_returns_same_fuel() {
        let g = Grid2::new(5, 5, 1.0, 1.0).unwrap();
        let map = FuelMap::uniform_category(g, FuelCategory::ShortGrass);
        assert_eq!(map.at(0, 0), map.at(4, 4));
        assert_eq!(map.at(2, 2).category, Some(FuelCategory::ShortGrass));
    }

    #[test]
    fn paint_rect_changes_region_only() {
        let g = Grid2::new(10, 10, 1.0, 1.0).unwrap();
        let mut map = FuelMap::uniform_category(g, FuelCategory::ShortGrass);
        let heavy = map
            .add_fuel(FuelModel::for_category(FuelCategory::HeavySlash))
            .unwrap();
        map.paint_rect(5.0, 5.0, 9.0, 9.0, heavy).unwrap();
        assert_eq!(map.at(7, 7).category, Some(FuelCategory::HeavySlash));
        assert_eq!(map.at(2, 2).category, Some(FuelCategory::ShortGrass));
    }

    #[test]
    fn paint_rejects_bad_index() {
        let g = Grid2::new(4, 4, 1.0, 1.0).unwrap();
        let mut map = FuelMap::uniform_category(g, FuelCategory::Brush);
        assert!(matches!(
            map.paint_rect(0.0, 0.0, 1.0, 1.0, 7),
            Err(FireError::BadFuelIndex(7))
        ));
    }

    #[test]
    fn add_fuel_rejects_a_full_palette() {
        let g = Grid2::new(4, 4, 1.0, 1.0).unwrap();
        let mut map = FuelMap::uniform_category(g, FuelCategory::Brush);
        for expected in 1..=255u8 {
            let idx = map.add_fuel(FuelModel::for_category(FuelCategory::ShortGrass));
            assert_eq!(idx, Ok(expected));
        }
        assert_eq!(
            map.add_fuel(FuelModel::for_category(FuelCategory::ShortGrass)),
            Err(FireError::BadFuelIndex(256))
        );
        assert_eq!(map.palette().len(), 256);
    }

    #[test]
    fn mesh_assembly_checks_grids() {
        let g = Grid2::new(4, 4, 1.0, 1.0).unwrap();
        let g2 = Grid2::new(5, 4, 1.0, 1.0).unwrap();
        let map = FuelMap::uniform_category(g, FuelCategory::Brush);
        assert!(FireMesh::new(g, map.clone(), Field2::zeros(g2)).is_err());
        assert!(FireMesh::new(g, map, Field2::zeros(g)).is_ok());
    }
}
