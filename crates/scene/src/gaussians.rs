//! 3D Gaussian clouds — the dominant scene representation of
//! 3D-Gaussian-based pipelines (Sec. II-E).
//!
//! Each Gaussian stores (1) its centroid, (2) covariance as scale +
//! rotation quaternion, (3) opacity, and (4) spherical-harmonic color
//! coefficients. The projection helper produces the 2D screen-space conic
//! the splatting step evaluates per pixel.

use serde::{Deserialize, Serialize};
use uni_geometry::{fmath, sh, Aabb, Camera, Mat3, Rgb, Vec2, Vec3, Vec4};

/// One 3D Gaussian primitive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gaussian {
    /// Centroid in world space.
    pub mean: Vec3,
    /// Per-axis standard deviations (before rotation).
    pub scale: Vec3,
    /// Rotation as a unit quaternion `(x, y, z, w)`.
    pub rotation: Vec4,
    /// Opacity in `[0, 1]`.
    pub opacity: f32,
    /// SH coefficients per color channel, `[r..., g..., b...]`,
    /// `coeffs_per_channel` each.
    pub sh_coeffs: Vec<f32>,
}

impl Gaussian {
    /// World-space covariance `R S Sᵀ Rᵀ`.
    pub fn covariance(&self) -> Mat3 {
        let r = Mat3::from_quaternion(self.rotation);
        let s = Mat3::from_diagonal(self.scale.mul_elem(self.scale));
        let rs = r * s;
        rs * r.transpose()
    }

    /// Evaluates view-dependent color toward `view_dir` (unit, pointing
    /// from camera to Gaussian) — the SH-as-GEMM step of Fig. 6.
    ///
    /// The basis is evaluated once and dotted against all three channel
    /// coefficient blocks (the per-frame SH pass touches every visible
    /// splat, so the 3× basis reuse matters).
    pub fn color(&self, view_dir: Vec3, coeffs_per_channel: usize) -> Rgb {
        let n = coeffs_per_channel.min(16);
        debug_assert_eq!(self.sh_coeffs.len(), 3 * coeffs_per_channel);
        let mut basis = [0f32; 16];
        sh::eval_basis(view_dir, &mut basis[..n]);
        let dot = |c: &[f32]| -> f32 { c[..n].iter().zip(&basis[..n]).map(|(c, b)| c * b).sum() };
        // SH DC convention of 3DGS: color = 0.5 + C0 * dc (+ higher bands).
        let r = dot(&self.sh_coeffs[..coeffs_per_channel]);
        let g = dot(&self.sh_coeffs[coeffs_per_channel..2 * coeffs_per_channel]);
        let b = dot(&self.sh_coeffs[2 * coeffs_per_channel..]);
        Rgb::new(r + 0.5, g + 0.5, b + 0.5).saturate()
    }
}

/// A 2D projected splat: screen-space conic plus footprint radius.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProjectedSplat {
    /// Screen-space center in pixels.
    pub center: Vec2,
    /// View-space depth (positive; the sort key of the Sorting micro-op).
    pub depth: f32,
    /// Inverse 2D covariance `(a, b, c)` for `a dx² + 2 b dx dy + c dy²`.
    pub conic: (f32, f32, f32),
    /// Conservative footprint radius in pixels (3σ).
    pub radius: f32,
    /// Opacity after projection.
    pub opacity: f32,
    /// Index back into the cloud.
    pub index: u32,
}

impl ProjectedSplat {
    /// Gaussian falloff weight at pixel offset `(dx, dy)` from the center,
    /// on the owned [`fmath::exp`] every splat path shares.
    #[inline]
    pub fn falloff(&self, dx: f32, dy: f32) -> f32 {
        let (a, b, c) = self.conic;
        let power = -0.5 * (a * dx * dx + c * dy * dy) - b * dx * dy;
        if power > 0.0 {
            0.0
        } else {
            fmath::exp(power)
        }
    }
}

/// A cloud of 3D Gaussians.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GaussianCloud {
    /// The Gaussians.
    pub gaussians: Vec<Gaussian>,
    /// SH degree (0..=3); `(degree+1)²` coefficients per channel.
    pub sh_degree: u8,
}

impl GaussianCloud {
    /// Bytes per Gaussian as streamed by the splatting micro-op
    /// (mean 12 + scale 12 + quat 16 + opacity 4 + SH 3×16×4 = 236,
    /// padded to 240 — matching the ~248 B/splat PLY records of 3DGS).
    pub const BYTES_PER_GAUSSIAN: u32 = 240;

    /// Creates an empty cloud with the given SH degree.
    pub fn new(sh_degree: u8) -> Self {
        assert!(sh_degree <= 3, "sh degree must be <= 3");
        Self {
            gaussians: Vec::new(),
            sh_degree,
        }
    }

    /// SH coefficients per channel.
    pub fn coeffs_per_channel(&self) -> usize {
        sh::coeff_count(self.sh_degree)
    }

    /// Number of Gaussians.
    pub fn len(&self) -> usize {
        self.gaussians.len()
    }

    /// Whether the cloud is empty.
    pub fn is_empty(&self) -> bool {
        self.gaussians.is_empty()
    }

    /// Bounding box of all means padded by their 3σ extents.
    pub fn bounds(&self) -> Aabb {
        self.gaussians.iter().fold(Aabb::EMPTY, |acc, g| {
            let r = g.scale.max_component() * 3.0;
            acc.union(&Aabb::new(g.mean - Vec3::splat(r), g.mean + Vec3::splat(r)))
        })
    }

    /// Storage bytes in the point-cloud (PLY-like) format of Sec. II-E.
    pub fn storage_bytes(&self) -> u64 {
        let floats = 3 + 3 + 4 + 1 + 3 * self.coeffs_per_channel() as u64;
        self.gaussians.len() as u64 * floats * 4
    }

    /// Projects one Gaussian through the frame's camera (EWA-style local
    /// affine approximation); the splatting step of Fig. 6.
    ///
    /// Returns `None` when the Gaussian is behind the near plane or its
    /// projected opacity falls below `alpha_threshold` (the paper's
    /// pre-defined threshold that bypasses low-density Gaussians).
    pub fn project(
        &self,
        index: u32,
        projector: &SplatProjector<'_>,
        alpha_threshold: f32,
    ) -> Option<ProjectedSplat> {
        let g = &self.gaussians[index as usize];
        let (center, _ndc_z, depth) = projector.camera.project_to_screen(g.mean)?;
        if g.opacity < alpha_threshold {
            return None;
        }
        // Local affine: world covariance -> camera -> screen. The Jacobian
        // of the perspective projection at the mean scales by f/z.
        //
        // The conjugations are fused: Σ = R·diag(s²)·Rᵀ is expanded into
        // its six unique entries, and only the top-left 2×2 of V·Σ·Vᵀ is
        // formed — projection runs once per Gaussian per frame, so this
        // replaces five full 3×3 matrix products on the hot path.
        let rm = Mat3::from_quaternion(g.rotation);
        let s2 = g.scale.mul_elem(g.scale);
        let (r0, r1, r2) = (rm.cols[0], rm.cols[1], rm.cols[2]);
        let sxx = s2.x * r0.x * r0.x + s2.y * r1.x * r1.x + s2.z * r2.x * r2.x;
        let syy = s2.x * r0.y * r0.y + s2.y * r1.y * r1.y + s2.z * r2.y * r2.y;
        let szz = s2.x * r0.z * r0.z + s2.y * r1.z * r1.z + s2.z * r2.z * r2.z;
        let sxy = s2.x * r0.x * r0.y + s2.y * r1.x * r1.y + s2.z * r2.x * r2.y;
        let sxz = s2.x * r0.x * r0.z + s2.y * r1.x * r1.z + s2.z * r2.x * r2.z;
        let syz = s2.x * r0.y * r0.z + s2.y * r1.y * r1.z + s2.z * r2.y * r2.z;
        let (v0, v1) = (projector.v0, projector.v1);
        let sv0 = Vec3::new(
            sxx * v0.x + sxy * v0.y + sxz * v0.z,
            sxy * v0.x + syy * v0.y + syz * v0.z,
            sxz * v0.x + syz * v0.y + szz * v0.z,
        );
        let sv1 = Vec3::new(
            sxx * v1.x + sxy * v1.y + sxz * v1.z,
            sxy * v1.x + syy * v1.y + syz * v1.z,
            sxz * v1.x + syz * v1.y + szz * v1.z,
        );
        let jz = projector.focal_px / depth;
        // 2D covariance: top-left 2x2 of cov_cam scaled by (f/z)², plus the
        // 0.3px antialias floor used by 3DGS.
        let a = v0.dot(sv0) * jz * jz + 0.3;
        let b = v1.dot(sv0) * jz * jz;
        let c = v1.dot(sv1) * jz * jz + 0.3;
        let det = a * c - b * b;
        if det <= 1e-9 {
            return None;
        }
        let inv_det = 1.0 / det;
        let conic = (c * inv_det, -b * inv_det, a * inv_det);
        let mid = 0.5 * (a + c);
        let lambda_max = mid + ((mid * mid - det).max(0.0)).sqrt();
        let radius = (3.0 * lambda_max.sqrt()).ceil();
        Some(ProjectedSplat {
            center,
            depth,
            conic,
            radius,
            opacity: g.opacity,
            index,
        })
    }
}

/// The per-frame camera constants of [`GaussianCloud::project`], set up
/// once per frame instead of once per splat (the splat-side sibling of
/// [`uni_geometry::RayGenerator`]).
#[derive(Debug, Clone, Copy)]
pub struct SplatProjector<'a> {
    camera: &'a Camera,
    /// Rows 0 and 1 of the view rotation (world -> camera axes).
    v0: Vec3,
    v1: Vec3,
    /// Focal length in pixels, from the camera's ray generator.
    focal_px: f32,
}

impl<'a> SplatProjector<'a> {
    /// Sets up the projection constants of `camera`.
    pub fn new(camera: &'a Camera) -> Self {
        let v = &camera.view.cols;
        Self {
            camera,
            v0: Vec3::new(v[0].x, v[1].x, v[2].x),
            v1: Vec3::new(v[0].y, v[1].y, v[2].y),
            focal_px: camera.ray_generator().focal_px(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_gaussian(mean: Vec3, sigma: f32) -> Gaussian {
        let n = sh::coeff_count(1);
        Gaussian {
            mean,
            scale: Vec3::splat(sigma),
            rotation: Vec4::new(0.0, 0.0, 0.0, 1.0),
            opacity: 0.8,
            sh_coeffs: vec![0.0; 3 * n],
        }
    }

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
    fn isotropic_covariance_is_diagonal() {
        let g = unit_gaussian(Vec3::ZERO, 0.5);
        let c = g.covariance();
        assert!((c.cols[0].x - 0.25).abs() < 1e-5);
        assert!((c.cols[1].y - 0.25).abs() < 1e-5);
        assert!(c.cols[0].y.abs() < 1e-6);
    }

    #[test]
    fn rotated_anisotropic_covariance_has_off_diagonals() {
        let half = std::f32::consts::FRAC_PI_4 * 0.5;
        let g = Gaussian {
            mean: Vec3::ZERO,
            scale: Vec3::new(1.0, 0.1, 0.1),
            rotation: Vec4::new(0.0, 0.0, half.sin(), half.cos()),
            opacity: 1.0,
            sh_coeffs: vec![0.0; 3],
        };
        let c = g.covariance();
        assert!(c.cols[0].y.abs() > 0.1, "45° rotation couples x and y");
        // Covariance must stay symmetric.
        assert!((c.cols[0].y - c.cols[1].x).abs() < 1e-5);
    }

    #[test]
    fn sh_dc_color_is_direction_independent() {
        let n = sh::coeff_count(0);
        let mut g = unit_gaussian(Vec3::ZERO, 1.0);
        g.sh_coeffs = vec![0.9, 0.1, -0.4]; // One DC coeff per channel.
        let _ = n;
        let c1 = g.color(Vec3::Z, 1);
        let c2 = g.color(Vec3::X, 1);
        assert_eq!(c1, c2);
        assert!(c1.r > c1.g, "positive red DC lifts red above 0.5 base");
    }

    #[test]
    fn projection_centers_on_screen() {
        let cloud = GaussianCloud {
            gaussians: vec![unit_gaussian(Vec3::ZERO, 0.1)],
            sh_degree: 1,
        };
        let s = cloud
            .project(0, &SplatProjector::new(&test_camera()), 0.01)
            .expect("visible");
        assert!((s.center.x - 320.0).abs() < 0.5);
        assert!((s.center.y - 240.0).abs() < 0.5);
        assert!((s.depth - 5.0).abs() < 1e-3);
        assert!(s.radius >= 1.0);
    }

    #[test]
    fn behind_camera_is_culled() {
        let cloud = GaussianCloud {
            gaussians: vec![unit_gaussian(Vec3::new(0.0, 0.0, 10.0), 0.1)],
            sh_degree: 1,
        };
        assert!(cloud
            .project(0, &SplatProjector::new(&test_camera()), 0.01)
            .is_none());
    }

    #[test]
    fn low_opacity_is_thresholded() {
        let mut g = unit_gaussian(Vec3::ZERO, 0.1);
        g.opacity = 0.001;
        let cloud = GaussianCloud {
            gaussians: vec![g],
            sh_degree: 1,
        };
        assert!(cloud
            .project(0, &SplatProjector::new(&test_camera()), 0.01)
            .is_none());
    }

    #[test]
    fn closer_gaussians_project_larger() {
        let cloud = GaussianCloud {
            gaussians: vec![
                unit_gaussian(Vec3::new(0.0, 0.0, 2.0), 0.2), // 3 m away
                unit_gaussian(Vec3::new(0.0, 0.0, -5.0), 0.2), // 10 m away
            ],
            sh_degree: 1,
        };
        let near = cloud
            .project(0, &SplatProjector::new(&test_camera()), 0.01)
            .expect("near");
        let far = cloud
            .project(1, &SplatProjector::new(&test_camera()), 0.01)
            .expect("far");
        assert!(near.radius > far.radius);
        assert!(near.depth < far.depth);
    }

    #[test]
    fn falloff_peaks_at_center_and_decays() {
        let cloud = GaussianCloud {
            gaussians: vec![unit_gaussian(Vec3::ZERO, 0.3)],
            sh_degree: 1,
        };
        let s = cloud
            .project(0, &SplatProjector::new(&test_camera()), 0.01)
            .expect("visible");
        let at_center = s.falloff(0.0, 0.0);
        let off = s.falloff(s.radius * 0.8, 0.0);
        assert!((at_center - 1.0).abs() < 1e-5);
        assert!(off < at_center);
        assert!(s.falloff(s.radius * 3.0, 0.0) < 0.01);
    }

    #[test]
    fn storage_bytes_match_record_size() {
        let mut cloud = GaussianCloud::new(3);
        cloud.gaussians.push(Gaussian {
            mean: Vec3::ZERO,
            scale: Vec3::ONE,
            rotation: Vec4::new(0.0, 0.0, 0.0, 1.0),
            opacity: 1.0,
            sh_coeffs: vec![0.0; 3 * 16],
        });
        // 3+3+4+1+48 floats = 59 * 4 = 236 bytes.
        assert_eq!(cloud.storage_bytes(), 236);
    }

    #[test]
    fn bounds_cover_three_sigma() {
        let cloud = GaussianCloud {
            gaussians: vec![unit_gaussian(Vec3::ZERO, 1.0)],
            sh_degree: 1,
        };
        let b = cloud.bounds();
        assert!(b.contains(Vec3::splat(2.9)));
        assert!(!b.contains(Vec3::splat(3.1)));
    }
}
