//! The airborne camera model.
//!
//! A nadir-looking pinhole camera at altitude `h` above the domain center —
//! the paper's reference geometry ("as it would be observed with RIT's WASP
//! airborne infrared camera system flying about 3000 m above ground"). Each
//! pixel maps to a ground footprint; rays run from the camera position to
//! the ground point.

/// Nadir pinhole camera over a rectangular ground footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Altitude above ground (m).
    pub altitude: f64,
    /// Ground footprint: lower-left corner (m, world coordinates).
    pub footprint_origin: (f64, f64),
    /// Ground footprint size (m).
    pub footprint_size: (f64, f64),
    /// Image resolution (pixels).
    pub pixels: (usize, usize),
}

impl Camera {
    /// Camera covering exactly the rectangle `[x0, x0+w] × [y0, y0+h]`.
    pub fn over_footprint(
        altitude: f64,
        origin: (f64, f64),
        size: (f64, f64),
        pixels: (usize, usize),
    ) -> Camera {
        Camera {
            altitude,
            footprint_origin: origin,
            footprint_size: size,
            pixels,
        }
    }

    /// World position of the camera (above the footprint center).
    pub fn position(&self) -> (f64, f64, f64) {
        (
            self.footprint_origin.0 + 0.5 * self.footprint_size.0,
            self.footprint_origin.1 + 0.5 * self.footprint_size.1,
            self.altitude,
        )
    }

    /// Ground-point world coordinates of pixel `(px, py)` (pixel centers).
    pub(crate) fn pixel_ground_point(&self, px: usize, py: usize) -> (f64, f64) {
        let fx = (px as f64 + 0.5) / self.pixels.0 as f64;
        let fy = (py as f64 + 0.5) / self.pixels.1 as f64;
        (
            self.footprint_origin.0 + fx * self.footprint_size.0,
            self.footprint_origin.1 + fy * self.footprint_size.1,
        )
    }

    /// Unit direction from the camera to the ground point of a pixel.
    pub(crate) fn ray_direction(&self, px: usize, py: usize) -> (f64, f64, f64) {
        let (gx, gy) = self.pixel_ground_point(px, py);
        let (cx, cy, cz) = self.position();
        let dx = gx - cx;
        let dy = gy - cy;
        let dz = -cz;
        let n = (dx * dx + dy * dy + dz * dz).sqrt();
        (dx / n, dy / n, dz / n)
    }

    /// Path length (m) from the camera to the ground point of a pixel.
    pub(crate) fn path_length(&self, px: usize, py: usize) -> f64 {
        let (gx, gy) = self.pixel_ground_point(px, py);
        let (cx, cy, cz) = self.position();
        ((gx - cx).powi(2) + (gy - cy).powi(2) + cz * cz).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Camera {
        Camera::over_footprint(3000.0, (100.0, 200.0), (400.0, 400.0), (128, 128))
    }

    #[test]
    fn position_over_center() {
        let c = cam();
        assert_eq!(c.position(), (300.0, 400.0, 3000.0));
    }

    #[test]
    fn pixel_corners_map_to_footprint() {
        let c = cam();
        let (x0, y0) = c.pixel_ground_point(0, 0);
        let (x1, y1) = c.pixel_ground_point(127, 127);
        assert!(x0 > 100.0 && x0 < 105.0);
        assert!(y0 > 200.0 && y0 < 205.0);
        assert!(x1 < 500.0 && x1 > 495.0);
        assert!(y1 < 600.0 && y1 > 595.0);
    }

    #[test]
    fn gsd_matches_footprint() {
        let c = cam();
        // Ground sample distance: the spacing of adjacent pixel centers.
        let (x0, y0) = c.pixel_ground_point(0, 0);
        let (x1, y1) = c.pixel_ground_point(1, 1);
        assert!((x1 - x0 - 3.125).abs() < 1e-12);
        assert!((y1 - y0 - 3.125).abs() < 1e-12);
    }

    #[test]
    fn rays_point_downward_and_normalize() {
        let c = cam();
        for &(px, py) in &[(0usize, 0usize), (64, 64), (127, 0)] {
            let (dx, dy, dz) = c.ray_direction(px, py);
            assert!(dz < 0.0);
            let n = (dx * dx + dy * dy + dz * dz).sqrt();
            assert!((n - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn nadir_path_is_altitude_oblique_longer() {
        let c = cam();
        let nadir = c.path_length(64, 64);
        let corner = c.path_length(0, 0);
        assert!((nadir - 3000.0).abs() < 3.0);
        assert!(corner > nadir);
    }
}
