//! Radiance images: storage, statistics, brightness temperature, PGM export.

use crate::radiance::brightness_temperature;
use crate::{Result, SceneError};
use std::io::Write;
use std::path::Path;

/// A rendered band-radiance image (W·m⁻²·sr⁻¹ per pixel).
#[derive(Debug, Clone, PartialEq)]
pub struct SceneImage {
    /// Pixels in x (columns).
    pub width: usize,
    /// Pixels in y (rows).
    pub height: usize,
    /// Row-major radiance values.
    pub data: Vec<f64>,
    /// Sensor band (m).
    pub band: (f64, f64),
}

/// An empty 0×0 image — a placeholder for workspace buffers that are
/// re-targeted with [`SceneImage::resize`] before first use (allocates
/// nothing until then).
impl Default for SceneImage {
    fn default() -> Self {
        SceneImage {
            width: 0,
            height: 0,
            data: Vec::new(),
            band: (0.0, 0.0),
        }
    }
}

impl SceneImage {
    /// Blank image.
    ///
    /// # Errors
    /// [`SceneError::EmptyImage`] for zero dimensions.
    pub fn new(width: usize, height: usize, band: (f64, f64)) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(SceneError::EmptyImage);
        }
        Ok(SceneImage {
            width,
            height,
            data: vec![0.0; width * height],
            band,
        })
    }

    /// Re-targets the image to `width × height` in `band` and zeroes every
    /// pixel, reusing the existing storage when the capacity suffices — the
    /// image analogue of `Field2::resize_zeroed`, for renderers that reuse
    /// one output buffer across frames.
    ///
    /// # Errors
    /// [`SceneError::EmptyImage`] for zero dimensions.
    pub fn resize(&mut self, width: usize, height: usize, band: (f64, f64)) -> Result<()> {
        if width == 0 || height == 0 {
            return Err(SceneError::EmptyImage);
        }
        self.width = width;
        self.height = height;
        self.band = band;
        self.data.clear();
        self.data.resize(width * height, 0.0);
        Ok(())
    }

    /// Pixel accessor.
    #[inline]
    pub fn get(&self, px: usize, py: usize) -> f64 {
        self.data[py * self.width + px]
    }

    /// Pixel mutator.
    #[inline]
    pub fn set(&mut self, px: usize, py: usize, v: f64) {
        self.data[py * self.width + px] = v;
    }

    /// Minimum and maximum radiance.
    pub fn min_max(&self) -> (f64, f64) {
        self.data
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    }

    /// Mean radiance.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Converts the whole image to brightness temperatures (K).
    pub fn to_brightness_temperature(&self) -> Vec<f64> {
        self.data
            .iter()
            .map(|&l| brightness_temperature(self.band.0, self.band.1, l, 200.0, 2000.0))
            .collect()
    }

    /// Writes the image as an 8-bit binary PGM, log-scaled between the
    /// image's own min/max radiance (the log scale preserves the visual
    /// structure of the enormous fire/background contrast).
    ///
    /// # Errors
    /// I/O failures.
    pub fn write_pgm(&self, path: &Path) -> Result<()> {
        let (lo, hi) = self.min_max();
        let lo = lo.max(1e-12);
        let hi = hi.max(lo * (1.0 + 1e-9));
        let log_lo = lo.ln();
        let log_hi = hi.ln();
        let mut bytes = Vec::with_capacity(self.data.len());
        for &v in &self.data {
            let t = ((v.max(lo).ln() - log_lo) / (log_hi - log_lo)).clamp(0.0, 1.0);
            bytes.push((t * 255.0).round() as u8);
        }
        let mut f = std::fs::File::create(path).map_err(|e| SceneError::Io(e.to_string()))?;
        write!(f, "P5\n{} {}\n255\n", self.width, self.height)
            .map_err(|e| SceneError::Io(e.to_string()))?;
        f.write_all(&bytes)
            .map_err(|e| SceneError::Io(e.to_string()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radiance::band_radiance;

    #[test]
    fn construction_and_accessors() {
        let mut img = SceneImage::new(4, 3, (3e-6, 5e-6)).unwrap();
        img.set(2, 1, 7.5);
        assert_eq!(img.get(2, 1), 7.5);
        assert_eq!(img.get(0, 0), 0.0);
        assert!(SceneImage::new(0, 3, (3e-6, 5e-6)).is_err());
    }

    #[test]
    fn brightness_temperature_roundtrip_through_image() {
        let mut img = SceneImage::new(2, 2, (3e-6, 5e-6)).unwrap();
        img.set(0, 0, band_radiance(3e-6, 5e-6, 400.0));
        let t = img.to_brightness_temperature()[0];
        assert!((t - 400.0).abs() < 0.01, "recovered {t}");
    }

    #[test]
    fn pgm_writes_valid_header() {
        let mut img = SceneImage::new(8, 6, (3e-6, 5e-6)).unwrap();
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = (i + 1) as f64;
        }
        let dir = std::env::temp_dir().join("wildfire_scene_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.pgm");
        img.write_pgm(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P5\n8 6\n255\n"));
        assert_eq!(bytes.len(), b"P5\n8 6\n255\n".len() + 48);
        std::fs::remove_file(&path).ok();
    }
}
