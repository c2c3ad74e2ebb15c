//! Pinhole camera: pose + intrinsics, pixel→ray generation, world→clip/screen
//! projection.
//!
//! The camera is the input to every "rendering engine" in the paper
//! (Sec. II): volume-rendering pipelines consume [`Camera::primary_ray`];
//! rasterization pipelines consume [`Camera::view_proj`] /
//! [`Camera::project_to_screen`].

use crate::mat::Mat4;
use crate::ray::Ray;
use crate::vec::{Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// A pinhole camera with a perspective projection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    /// Camera position in world space.
    pub eye: Vec3,
    /// World → view transform.
    pub view: Mat4,
    /// View → clip transform.
    pub proj: Mat4,
    /// Full vertical field of view, radians.
    pub fov_y: f32,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Near clip distance.
    pub near: f32,
    /// Far clip distance.
    pub far: f32,
}

impl Camera {
    /// Creates a camera looking from `eye` toward `target`.
    ///
    /// `fov_y` is the full vertical field of view in radians.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3, fov_y: f32, width: u32, height: u32) -> Self {
        let near = 0.05;
        let far = 1000.0;
        let aspect = width as f32 / height as f32;
        Self {
            eye,
            view: Mat4::look_at_rh(eye, target, up),
            proj: Mat4::perspective_rh(fov_y, aspect, near, far),
            fov_y,
            width,
            height,
            near,
            far,
        }
    }

    /// Returns a copy with different clip distances.
    pub fn with_clip(mut self, near: f32, far: f32) -> Self {
        self.near = near;
        self.far = far;
        let aspect = self.width as f32 / self.height as f32;
        self.proj = Mat4::perspective_rh(self.fov_y, aspect, near, far);
        self
    }

    /// Returns a copy rendering at a different resolution (same pose/fov).
    pub fn with_resolution(mut self, width: u32, height: u32) -> Self {
        self.width = width;
        self.height = height;
        let aspect = width as f32 / height as f32;
        self.proj = Mat4::perspective_rh(self.fov_y, aspect, self.near, self.far);
        self
    }

    /// Combined world → clip transform.
    #[inline]
    pub fn view_proj(&self) -> Mat4 {
        self.proj * self.view
    }

    /// Number of pixels in a frame.
    #[inline]
    pub fn pixel_count(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// The world-space forward direction (unit).
    pub fn forward(&self) -> Vec3 {
        // Third row of the view matrix is -forward.
        let r = self.view.row(2);
        -Vec3::new(r.x, r.y, r.z).normalized()
    }

    /// Generates the primary ray through pixel coordinates `(px, py)`.
    ///
    /// Pixel centers are at half-integer coordinates: pass `(x + 0.5,
    /// y + 0.5)` to shoot through the center of pixel `(x, y)`. `py` grows
    /// downward (raster convention). Per-pixel loops build one
    /// [`RayGenerator`] instead; this is `self.ray_generator().ray(px, py)`.
    pub fn primary_ray(&self, px: f32, py: f32) -> Ray {
        self.ray_generator().ray(px, py)
    }

    /// The per-camera part of [`Camera::primary_ray`] (aspect, `tan` of
    /// the half field of view, inverse view), computed once.
    pub fn ray_generator(&self) -> RayGenerator {
        RayGenerator {
            eye: self.eye,
            width: self.width as f32,
            height: self.height as f32,
            aspect: self.width as f32 / self.height as f32,
            // uni-lint: allow(R12, once per band and camera, not per pixel — the per-pixel loops call RayGenerator::ray, which has no libm call)
            tan_half: (self.fov_y * 0.5).tan(),
            inv_view: self.view.inverse_rigid(),
        }
    }

    /// Projects a world point to screen coordinates plus NDC depth.
    ///
    /// Returns `(screen_xy, ndc_depth, view_depth)`; `None` when the point
    /// is behind the near plane. `view_depth` is the positive distance along
    /// the camera forward axis, the quantity the Z-buffer's "Min. Hold"
    /// reduction compares (Fig. 2).
    pub fn project_to_screen(&self, world: Vec3) -> Option<(Vec2, f32, f32)> {
        let view_p = self.view.transform_point(world);
        let view_depth = -view_p.z;
        if view_depth <= self.near {
            return None;
        }
        let clip = self.proj.mul_vec4(view_p.extend(1.0));
        let ndc = clip.project();
        let sx = (ndc.x + 1.0) * 0.5 * self.width as f32;
        let sy = (1.0 - ndc.y) * 0.5 * self.height as f32;
        Some((Vec2::new(sx, sy), ndc.z, view_depth))
    }

    /// The world-space size of one pixel at distance `depth` from the eye.
    ///
    /// Used by the splatting step to convert a Gaussian's world-space extent
    /// into a screen footprint.
    pub fn pixel_footprint(&self, depth: f32) -> f32 {
        let world_height = 2.0 * depth * (self.fov_y * 0.5).tan();
        world_height / self.height as f32
    }
}

/// Primary rays of one [`Camera`], with the per-camera setup hoisted out
/// of the per-pixel loop. [`RayGenerator::ray`] is bit-identical to
/// [`Camera::primary_ray`], which delegates to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayGenerator {
    eye: Vec3,
    width: f32,
    height: f32,
    aspect: f32,
    tan_half: f32,
    inv_view: Mat4,
}

impl RayGenerator {
    /// The primary ray through pixel coordinates `(px, py)` (see
    /// [`Camera::primary_ray`]).
    #[inline]
    pub fn ray(&self, px: f32, py: f32) -> Ray {
        let ndc_x = 2.0 * px / self.width - 1.0;
        let ndc_y = 1.0 - 2.0 * py / self.height;
        // Direction in view space (camera looks down -Z).
        let dir_view = Vec3::new(
            ndc_x * self.aspect * self.tan_half,
            ndc_y * self.tan_half,
            -1.0,
        );
        let dir_world = self.inv_view.transform_vector(dir_view).normalized();
        Ray::new_unnormalized(self.eye, dir_world)
    }

    /// Focal length in pixels, `height / (2·tan(fov_y / 2))`: the scale
    /// of the perspective Jacobian that splat projection applies.
    #[inline]
    pub fn focal_px(&self) -> f32 {
        self.height / (2.0 * self.tan_half)
    }
}

/// An orbit of cameras around a target — the camera trajectory used by the
/// dataset catalogs' test views.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Orbit {
    /// Orbit center (look-at target).
    pub target: Vec3,
    /// Orbit radius.
    pub radius: f32,
    /// Camera height above the target.
    pub height: f32,
    /// Vertical field of view, radians.
    pub fov_y: f32,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height_px: u32,
}

impl Orbit {
    /// Camera at angular position `theta` (radians) on the orbit.
    pub fn camera_at(&self, theta: f32) -> Camera {
        let eye = self.target
            + Vec3::new(
                self.radius * theta.cos(),
                self.height,
                self.radius * theta.sin(),
            );
        Camera::look_at(
            eye,
            self.target,
            Vec3::Y,
            self.fov_y,
            self.width,
            self.height_px,
        )
    }

    /// `n` evenly spaced cameras around the full orbit.
    pub fn cameras(&self, n: usize) -> Vec<Camera> {
        (0..n)
            .map(|i| self.camera_at(i as f32 / n as f32 * std::f32::consts::TAU))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_camera() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::ZERO,
            Vec3::Y,
            60f32.to_radians(),
            640,
            480,
        )
    }

    #[test]
    fn center_pixel_ray_points_forward() {
        let cam = test_camera();
        let ray = cam.primary_ray(320.0, 240.0);
        assert!((ray.origin - cam.eye).length() < 1e-6);
        assert!(ray.direction.dot(Vec3::new(0.0, 0.0, -1.0)) > 0.9999);
    }

    #[test]
    fn forward_matches_look_direction() {
        let cam = Camera::look_at(Vec3::new(3.0, 1.0, 3.0), Vec3::ZERO, Vec3::Y, 1.0, 64, 64);
        let expected = (Vec3::ZERO - Vec3::new(3.0, 1.0, 3.0)).normalized();
        assert!((cam.forward() - expected).length() < 1e-5);
    }

    #[test]
    fn project_center_of_view_lands_at_screen_center() {
        let cam = test_camera();
        let (screen, _ndc, depth) = cam.project_to_screen(Vec3::ZERO).expect("in view");
        assert!((screen.x - 320.0).abs() < 1e-2);
        assert!((screen.y - 240.0).abs() < 1e-2);
        assert!((depth - 5.0).abs() < 1e-5);
    }

    #[test]
    fn points_behind_camera_do_not_project() {
        let cam = test_camera();
        assert!(cam.project_to_screen(Vec3::new(0.0, 0.0, 10.0)).is_none());
    }

    #[test]
    fn ray_and_projection_are_inverse() {
        let cam = test_camera();
        let world = Vec3::new(0.7, -0.3, 1.0);
        let (screen, ..) = cam.project_to_screen(world).expect("in view");
        let ray = cam.primary_ray(screen.x, screen.y);
        // The ray through the projected pixel must pass near the point.
        let t = (world - ray.origin).dot(ray.direction);
        let closest = ray.at(t);
        assert!(
            (closest - world).length() < 1e-3,
            "closest {closest:?} vs {world:?}"
        );
    }

    #[test]
    fn pixel_footprint_grows_linearly_with_depth() {
        let cam = test_camera();
        let f1 = cam.pixel_footprint(1.0);
        let f2 = cam.pixel_footprint(2.0);
        assert!((f2 / f1 - 2.0).abs() < 1e-5);
    }

    #[test]
    fn orbit_cameras_keep_target_centered() {
        let orbit = Orbit {
            target: Vec3::new(1.0, 0.0, -2.0),
            radius: 4.0,
            height: 1.5,
            fov_y: 1.0,
            width: 320,
            height_px: 240,
        };
        for cam in orbit.cameras(8) {
            let (screen, ..) = cam.project_to_screen(orbit.target).expect("target visible");
            assert!((screen.x - 160.0).abs() < 0.5, "{screen:?}");
            assert!((screen.y - 120.0).abs() < 0.5, "{screen:?}");
        }
    }

    #[test]
    fn with_resolution_preserves_field_of_view() {
        let cam = test_camera().with_resolution(1280, 720);
        assert_eq!(cam.width, 1280);
        let ray_lo = test_camera().primary_ray(0.0, 240.0);
        let ray_hi = cam.primary_ray(0.0, 360.0);
        // Left edge at vertical center: same horizontal angle iff aspect
        // matches; aspects differ (4:3 vs 16:9) so directions must differ.
        assert!((ray_lo.direction - ray_hi.direction).length() > 1e-3);
    }

    proptest! {
        /// Every pixel's primary ray re-projects onto that pixel.
        #[test]
        fn prop_ray_projects_back_to_pixel(
            px in 1f32..639.0,
            py in 1f32..479.0,
            t in 0.5f32..50.0,
        ) {
            let cam = test_camera();
            let ray = cam.primary_ray(px, py);
            let world = ray.at(t);
            let (screen, ..) = cam.project_to_screen(world).expect("in front");
            prop_assert!((screen.x - px).abs() < 0.05, "{} vs {px}", screen.x);
            prop_assert!((screen.y - py).abs() < 0.05, "{} vs {py}", screen.y);
        }
    }
}
