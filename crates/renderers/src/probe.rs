//! Probe-resolution workload estimation for one-shot traces.
//!
//! [`Renderer::trace`](crate::Renderer::trace) describes a frame without
//! producing its image — figure harnesses trace the full benchmark
//! resolution (1280×720 for Unbounded-360), where rendering every pixel
//! just to count work would cost as much as the render. Instead each
//! pipeline renders at a capped *probe* resolution, counts its work
//! exactly, and scales the resolution-proportional quantities by the
//! pixel ratio — per-primitive quantities (vertex projection, splat setup)
//! stay exact.
//!
//! Streamed frames never probe: [`Renderer::render_traced`](crate::Renderer::render_traced)
//! traces each frame from the counts of its own render, through the same
//! trace builder with [`Probe::exact`] (pixel scale 1). At or below
//! [`MAX_PROBE_AXIS`] the probe *is* the frame, so both traces are equal.
//!
//! Above the cap the probe is an estimate, and the frame's own counts are
//! the more exact figure. Measured as `(probe - exact) / exact` in
//! `total_cost().total_ops()` on the parity test scene (`tests/render_parity.rs`),
//! the gap at 256² / 512² is:
//!
//! | Pipeline | 256² | 512² | Bound asserted |
//! |---|---|---|---|
//! | gaussian | +24.2% | +131.8% | ±140% |
//! | mesh | +4.8% | +16.6% | ±20% |
//! | MixRT | +0.28% | +1.17% | ±2% |
//! | hash grid | +0.16% | −0.17% | ±0.5% |
//! | MLP | −0.03% | −0.03% | ±0.5% |
//! | low-rank | 0.00% | 0.00% | ±0.5% |
//!
//! The raster and splat pipelines overestimate: every triangle bounding
//! box and splat footprint rounds up to whole pixels and 16-pixel
//! patches, that per-primitive margin is a larger share of a small probe,
//! and scaling by the pixel ratio multiplies it.

use uni_geometry::Camera;

/// Maximum probe pixels along the longer image axis.
pub const MAX_PROBE_AXIS: u32 = 192;

/// A probe plan: the reduced camera plus the pixel scale factor back to the
/// full frame.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Camera at probe resolution (same pose and field of view).
    pub camera: Camera,
    /// `full_pixels / probe_pixels` — the factor for resolution-
    /// proportional counts.
    pub pixel_scale: f64,
}

impl Probe {
    /// The frame itself: counts come from a full-resolution render and
    /// need no scaling.
    pub fn exact(camera: &Camera) -> Self {
        Self {
            camera: *camera,
            pixel_scale: 1.0,
        }
    }

    /// Plans a probe for `camera`, preserving aspect ratio.
    pub fn plan(camera: &Camera) -> Self {
        let long_axis = camera.width.max(camera.height);
        if long_axis <= MAX_PROBE_AXIS {
            return Self::exact(camera);
        }
        let shrink = long_axis as f64 / MAX_PROBE_AXIS as f64;
        let w = ((camera.width as f64 / shrink).round() as u32).max(8);
        let h = ((camera.height as f64 / shrink).round() as u32).max(8);
        let probe_cam = camera.with_resolution(w, h);
        let full_px = camera.pixel_count() as f64;
        let probe_px = probe_cam.pixel_count() as f64;
        Self {
            camera: probe_cam,
            pixel_scale: full_px / probe_px,
        }
    }

    /// Scales a resolution-proportional count up to the full frame.
    #[inline]
    pub fn scale(&self, probe_count: u64) -> u64 {
        (probe_count as f64 * self.pixel_scale).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uni_geometry::Vec3;

    fn cam(w: u32, h: u32) -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, Vec3::Y, 1.0, w, h)
    }

    #[test]
    fn small_cameras_pass_through() {
        let p = Probe::plan(&cam(160, 120));
        assert_eq!(p.camera.width, 160);
        assert_eq!(p.pixel_scale, 1.0);
        assert_eq!(p.scale(1000), 1000);
    }

    #[test]
    fn large_cameras_shrink_preserving_aspect() {
        let p = Probe::plan(&cam(1280, 720));
        assert_eq!(p.camera.width, MAX_PROBE_AXIS);
        let aspect_full = 1280.0 / 720.0;
        let aspect_probe = p.camera.width as f64 / p.camera.height as f64;
        assert!((aspect_full - aspect_probe).abs() < 0.05);
        // Scale factor recovers full pixel count.
        let recovered = p.scale(p.camera.pixel_count());
        let full = 1280 * 720;
        let full_f = f64::from(full);
        assert!((recovered as f64 - full_f).abs() / full_f < 0.01);
    }

    #[test]
    fn probe_camera_keeps_pose() {
        let original = cam(1920, 1080);
        let p = Probe::plan(&original);
        assert_eq!(p.camera.eye, original.eye);
        assert!((p.camera.fov_y - original.fov_y).abs() < 1e-6);
    }
}
