//! A z-buffered RGB framebuffer.

use crane_scene::mesh::Color;
use sim_math::Fnv1a;

/// A color + depth framebuffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    color: Vec<Color>,
    depth: Vec<f32>,
}

impl Framebuffer {
    /// Creates a framebuffer of the given size, cleared to black.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Framebuffer {
        assert!(width > 0 && height > 0, "framebuffer dimensions must be positive");
        Framebuffer {
            width,
            height,
            color: vec![Color::new(0, 0, 0); width * height],
            depth: vec![f32::INFINITY; width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Clears color to `clear_color` and depth to infinity.
    pub fn clear(&mut self, clear_color: Color) {
        self.color.fill(clear_color);
        self.depth.fill(f32::INFINITY);
    }

    /// Writes a pixel if it passes the depth test. Returns `true` if written.
    pub fn set_pixel(&mut self, x: usize, y: usize, depth: f32, color: Color) -> bool {
        if x >= self.width || y >= self.height {
            return false;
        }
        let index = y * self.width + x;
        if depth < self.depth[index] {
            self.depth[index] = depth;
            self.color[index] = color;
            true
        } else {
            false
        }
    }

    /// Reads a pixel's color.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn pixel(&self, x: usize, y: usize) -> Color {
        assert!(x < self.width && y < self.height, "pixel out of range");
        self.color[y * self.width + x]
    }

    /// Number of pixels whose color differs from `background` (a cheap measure
    /// of how much of the frame was covered by geometry).
    pub fn covered_pixels(&self, background: Color) -> usize {
        self.color.iter().filter(|c| **c != background).count()
    }

    /// Encodes the color buffer as a binary PPM image (P6).
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for c in &self.color {
            out.extend_from_slice(&[c.r, c.g, c.b]);
        }
        out
    }

    /// A stable FNV-1a checksum of the RGB contents (dimensions included), used
    /// by the golden-image tests instead of eyeballing PPM screenshots.
    pub fn checksum(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.write_u64(self.width as u64);
        hash.write_u64(self.height as u64);
        for c in &self.color {
            hash.write_u8(c.r);
            hash.write_u8(c.g);
            hash.write_u8(c.b);
        }
        hash.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads a pixel's depth.
    fn pixel_depth(fb: &Framebuffer, x: usize, y: usize) -> f32 {
        fb.depth[y * fb.width + x]
    }

    #[test]
    fn depth_test_keeps_the_nearest_fragment() {
        let mut fb = Framebuffer::new(4, 4);
        assert!(fb.set_pixel(1, 1, 5.0, Color::new(10, 0, 0)));
        assert!(!fb.set_pixel(1, 1, 9.0, Color::new(0, 10, 0)), "farther fragment must lose");
        assert!(fb.set_pixel(1, 1, 2.0, Color::new(0, 0, 10)));
        assert_eq!(fb.pixel(1, 1), Color::new(0, 0, 10));
        assert_eq!(pixel_depth(&fb, 1, 1), 2.0);
    }

    #[test]
    fn out_of_range_writes_are_ignored() {
        let mut fb = Framebuffer::new(2, 2);
        assert!(!fb.set_pixel(5, 0, 1.0, Color::new(1, 2, 3)));
    }

    #[test]
    fn clear_resets_color_and_depth() {
        let mut fb = Framebuffer::new(2, 2);
        fb.set_pixel(0, 0, 1.0, Color::new(9, 9, 9));
        fb.clear(Color::SKY);
        assert_eq!(fb.pixel(0, 0), Color::SKY);
        assert_eq!(pixel_depth(&fb, 0, 0), f32::INFINITY);
        assert_eq!(fb.covered_pixels(Color::SKY), 0);
    }

    #[test]
    fn ppm_has_correct_header_and_size() {
        let fb = Framebuffer::new(3, 2);
        let ppm = fb.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 3 * 2 * 3);
    }

    #[test]
    #[should_panic]
    fn zero_size_rejected() {
        let _ = Framebuffer::new(0, 10);
    }

    #[test]
    fn checksum_is_content_sensitive_and_stable() {
        let mut a = Framebuffer::new(4, 4);
        let mut b = Framebuffer::new(4, 4);
        assert_eq!(a.checksum(), b.checksum());
        a.set_pixel(2, 2, 1.0, Color::new(7, 8, 9));
        assert_ne!(a.checksum(), b.checksum());
        b.set_pixel(2, 2, 1.0, Color::new(7, 8, 9));
        assert_eq!(a.checksum(), b.checksum());
        // Same contents, different geometry: still distinct.
        assert_ne!(Framebuffer::new(2, 8).checksum(), Framebuffer::new(8, 2).checksum());
    }
}
