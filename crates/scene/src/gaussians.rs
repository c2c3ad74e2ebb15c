//! 3D Gaussian clouds — the dominant scene representation of
//! 3D-Gaussian-based pipelines (Sec. II-E).
//!
//! Each Gaussian stores (1) its centroid, (2) covariance as scale +
//! rotation quaternion, (3) opacity, and (4) spherical-harmonic color
//! coefficients. Projection produces the 2D screen-space conic the
//! splatting step evaluates per pixel, and the splat's view-dependent
//! color.
//!
//! # Layout
//!
//! A [`GaussianCloud`] stores its splats as columns of lane groups: group
//! `g` holds splats `8g..8g + 8`, one [`F32x8`] lane per splat, in each
//! of the mean, scale, rotation, opacity and `ln(opacity)` columns and
//! in the world-covariance column, whose six unique entries of
//! `R·diag(s²)·Rᵀ` are baked once at [`GaussianCloud::push`] with the
//! expressions projection used to form per frame. Group `g`'s SH block
//! holds `3n` vectors, channel-major: vector `c·n + k` carries
//! coefficient `k` of channel `c` for the group's eight splats. The last
//! group's unused lanes stay zero. [`Gaussian`] is the per-splat value
//! that [`GaussianCloud::push`] takes and [`GaussianCloud::get`] returns.
//!
//! One branch-free per-splat kernel projects a splat and evaluates its
//! SH color. [`GaussianCloud::project`] and [`GaussianCloud::color`] run
//! it on one splat, the scalar reference; [`GaussianCloud::project_x8`]
//! runs the inlined kernel per lane over a group, so every lane equals
//! the scalar results bit for bit whether or not the backend vectorizes
//! (the contract of [`uni_geometry::fmath`]'s wide functions).

use serde::{Deserialize, Serialize};
use uni_geometry::{fmath, sh, Aabb, Camera, F32x8, Mat3, Mat4, Rgb, Vec2, Vec3, Vec4};

/// Floats in the largest SH block: three channels of 16 degree-3
/// coefficients.
pub const MAX_SH_FLOATS: usize = 3 * 16;

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
    /// `coeffs_per_channel` each; the floats after the `3 ·
    /// coeffs_per_channel` in use are zero.
    pub sh_coeffs: [f32; MAX_SH_FLOATS],
}

impl Gaussian {
    /// Evaluates view-dependent color toward `view_dir` (unit, pointing
    /// from camera to Gaussian) — the SH-as-GEMM step of Fig. 6, on the
    /// SH kernel [`GaussianCloud::color`] runs.
    pub fn color(&self, view_dir: Vec3, coeffs_per_channel: usize) -> Rgb {
        sh_rgb(view_dir, coeffs_per_channel, |j| self.sh_coeffs[j])
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
    /// `ln(opacity)`, baked with the cloud (the blending stage's
    /// log-space alpha cutoff reads it).
    pub ln_opacity: f32,
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

/// A cloud of 3D Gaussians, stored as lane-group columns (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GaussianCloud {
    /// SH degree (0..=3); `(degree+1)²` coefficients per channel.
    sh_degree: u8,
    /// Number of Gaussians.
    len: usize,
    means: Vec<[F32x8; 3]>,
    scales: Vec<[F32x8; 3]>,
    rotations: Vec<[F32x8; 4]>,
    opacities: Vec<F32x8>,
    ln_opacities: Vec<F32x8>,
    /// World covariance `[xx, yy, zz, xy, xz, yz]`.
    covs: Vec<[F32x8; 6]>,
    /// `3 · coeffs_per_channel` vectors per group, channel-major.
    sh: Vec<F32x8>,
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
            sh_degree,
            ..Self::default()
        }
    }

    /// SH degree (0..=3).
    pub fn sh_degree(&self) -> u8 {
        self.sh_degree
    }

    /// SH coefficients per channel.
    pub fn coeffs_per_channel(&self) -> usize {
        sh::coeff_count(self.sh_degree)
    }

    /// Number of Gaussians.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cloud is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 8-splat lane groups ([`GaussianCloud::project_x8`]'s
    /// `group` runs below it).
    pub fn groups(&self) -> usize {
        self.means.len()
    }

    /// Reserves exactly the groups `additional` more Gaussians need, so
    /// a bake of known size leaves no spare capacity behind.
    pub fn reserve(&mut self, additional: usize) {
        let groups = (self.len + additional).div_ceil(8) - self.means.len();
        self.means.reserve_exact(groups);
        self.scales.reserve_exact(groups);
        self.rotations.reserve_exact(groups);
        self.opacities.reserve_exact(groups);
        self.ln_opacities.reserve_exact(groups);
        self.covs.reserve_exact(groups);
        self.sh
            .reserve_exact(groups * 3 * self.coeffs_per_channel());
    }

    /// Appends one Gaussian, baking its `ln(opacity)` and world
    /// covariance.
    pub fn push(&mut self, g: Gaussian) {
        let n = self.coeffs_per_channel();
        let (group, l) = (self.len / 8, self.len % 8);
        if l == 0 {
            self.means.push([F32x8::ZERO; 3]);
            self.scales.push([F32x8::ZERO; 3]);
            self.rotations.push([F32x8::ZERO; 4]);
            self.opacities.push(F32x8::ZERO);
            self.ln_opacities.push(F32x8::ZERO);
            self.covs.push([F32x8::ZERO; 6]);
            self.sh.resize(self.sh.len() + 3 * n, F32x8::ZERO);
        }
        let set = |col: &mut [F32x8], values: &[f32]| {
            for (v, &x) in col.iter_mut().zip(values) {
                v.0[l] = x;
            }
        };
        set(&mut self.means[group], &g.mean.to_array());
        set(&mut self.scales[group], &g.scale.to_array());
        set(&mut self.rotations[group], &g.rotation.to_array());
        self.opacities[group].0[l] = g.opacity;
        self.ln_opacities[group].0[l] = g.opacity.ln();
        set(
            &mut self.covs[group],
            &world_covariance(g.scale, g.rotation),
        );
        set(&mut self.sh[group * 3 * n..], &g.sh_coeffs[..3 * n]);
        self.len += 1;
    }

    /// Gaussian `i`, gathered from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Gaussian {
        assert!(i < self.len, "gaussian {i} out of {}", self.len);
        let n = self.coeffs_per_channel();
        let (group, l) = (i / 8, i % 8);
        let lane = |col: &[F32x8], k: usize| col[k].0[l];
        let mut sh_coeffs = [0f32; MAX_SH_FLOATS];
        for (j, c) in sh_coeffs[..3 * n].iter_mut().enumerate() {
            *c = lane(&self.sh[group * 3 * n..], j);
        }
        let (m, s, r) = (
            &self.means[group],
            &self.scales[group],
            &self.rotations[group],
        );
        Gaussian {
            mean: Vec3::new(lane(m, 0), lane(m, 1), lane(m, 2)),
            scale: Vec3::new(lane(s, 0), lane(s, 1), lane(s, 2)),
            rotation: Vec4::new(lane(r, 0), lane(r, 1), lane(r, 2), lane(r, 3)),
            opacity: self.opacities[group].0[l],
            sh_coeffs,
        }
    }

    /// The Gaussians in order, gathered from the columns.
    pub fn iter(&self) -> impl Iterator<Item = Gaussian> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Bounding box of all means padded by their 3σ extents.
    pub fn bounds(&self) -> Aabb {
        self.iter().fold(Aabb::EMPTY, |acc, g| {
            let r = g.scale.max_component() * 3.0;
            acc.union(&Aabb::new(g.mean - Vec3::splat(r), g.mean + Vec3::splat(r)))
        })
    }

    /// Storage bytes in the point-cloud (PLY-like) format of Sec. II-E.
    pub fn storage_bytes(&self) -> u64 {
        let floats = 3 + 3 + 4 + 1 + 3 * self.coeffs_per_channel() as u64;
        self.len as u64 * floats * 4
    }

    /// Projects one Gaussian through the frame's camera (EWA-style local
    /// affine approximation); the splatting step of Fig. 6. The scalar
    /// reference of [`GaussianCloud::project_x8`].
    ///
    /// Returns `None` when the Gaussian is behind the near plane, its
    /// opacity falls below `alpha_threshold` (the paper's pre-defined
    /// threshold that bypasses low-density Gaussians), or its 2D
    /// covariance is degenerate.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn project(
        &self,
        index: u32,
        projector: &SplatProjector,
        alpha_threshold: f32,
    ) -> Option<ProjectedSplat> {
        let i = index as usize;
        assert!(i < self.len, "gaussian {i} out of {}", self.len);
        let (group, l) = (i / 8, i % 8);
        let (m, cov) = (&self.means[group], &self.covs[group]);
        let s = project_kernel(
            projector,
            Vec3::new(m[0].0[l], m[1].0[l], m[2].0[l]),
            cov.map(|c| c.0[l]),
            self.opacities[group].0[l],
            alpha_threshold,
        );
        s.visible.then_some(ProjectedSplat {
            center: s.center,
            depth: s.depth,
            conic: s.conic,
            radius: s.radius,
            opacity: self.opacities[group].0[l],
            ln_opacity: self.ln_opacities[group].0[l],
            index,
        })
    }

    /// Gaussian `index`'s SH color seen from the projector's eye: the
    /// scalar reference of [`GaussianCloud::project_x8`]'s colors.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn color(&self, index: u32, projector: &SplatProjector) -> Rgb {
        let i = index as usize;
        assert!(i < self.len, "gaussian {i} out of {}", self.len);
        let n = self.coeffs_per_channel();
        let (group, l) = (i / 8, i % 8);
        let m = &self.means[group];
        let sh = &self.sh[group * 3 * n..(group + 1) * 3 * n];
        color_kernel(
            projector.eye,
            Vec3::new(m[0].0[l], m[1].0[l], m[2].0[l]),
            n,
            |j| sh[j].0[l],
        )
    }

    /// Projects and colors lane group `group` (splats `8·group..8·group
    /// + 8`): lane `l` equals [`GaussianCloud::project`] and
    /// [`GaussianCloud::color`] of splat `8·group + l` bit for bit. Lanes
    /// past `len()` are never visible.
    ///
    /// # Panics
    ///
    /// Panics if `group >= groups()`.
    pub fn project_x8(
        &self,
        group: usize,
        projector: &SplatProjector,
        alpha_threshold: f32,
    ) -> SplatLanes {
        match self.coeffs_per_channel() {
            1 => self.project_lanes::<1>(group, projector, alpha_threshold),
            4 => self.project_lanes::<4>(group, projector, alpha_threshold),
            9 => self.project_lanes::<9>(group, projector, alpha_threshold),
            _ => self.project_lanes::<16>(group, projector, alpha_threshold),
        }
    }

    /// [`GaussianCloud::project_x8`] for `N` SH coefficients per channel:
    /// the scalar kernel per lane, one lane per splat.
    // uni-lint: hot
    #[inline(always)]
    fn project_lanes<const N: usize>(
        &self,
        group: usize,
        projector: &SplatProjector,
        alpha_threshold: f32,
    ) -> SplatLanes {
        let (m, cov, opacity) = (&self.means[group], &self.covs[group], self.opacities[group]);
        let sh = &self.sh[group * 3 * N..(group + 1) * 3 * N];
        let mut out = SplatLanes {
            first: group * 8,
            opacity,
            ln_opacity: self.ln_opacities[group],
            ..SplatLanes::default()
        };
        let live = self.len - group * 8;
        // The lane reads stay spelled out: through `array::map`, LLVM
        // keeps this loop scalar.
        for l in 0..8 {
            let mean = Vec3::new(m[0].0[l], m[1].0[l], m[2].0[l]);
            let s = project_kernel(
                projector,
                mean,
                [
                    cov[0].0[l],
                    cov[1].0[l],
                    cov[2].0[l],
                    cov[3].0[l],
                    cov[4].0[l],
                    cov[5].0[l],
                ],
                opacity.0[l],
                alpha_threshold,
            );
            let rgb = color_kernel(projector.eye, mean, N, |j| sh[j].0[l]);
            out.center_x.0[l] = s.center.x;
            out.center_y.0[l] = s.center.y;
            out.depth.0[l] = s.depth;
            out.conic_a.0[l] = s.conic.0;
            out.conic_b.0[l] = s.conic.1;
            out.conic_c.0[l] = s.conic.2;
            out.radius.0[l] = s.radius;
            out.r.0[l] = rgb.r;
            out.g.0[l] = rgb.g;
            out.b.0[l] = rgb.b;
            out.visible[l] = s.visible & (l < live);
        }
        out
    }
}

/// One lane group's projected splats and colors, from
/// [`GaussianCloud::project_x8`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SplatLanes {
    /// Cloud index of lane 0.
    first: usize,
    center_x: F32x8,
    center_y: F32x8,
    depth: F32x8,
    conic_a: F32x8,
    conic_b: F32x8,
    conic_c: F32x8,
    radius: F32x8,
    opacity: F32x8,
    ln_opacity: F32x8,
    r: F32x8,
    g: F32x8,
    b: F32x8,
    visible: [bool; 8],
}

impl SplatLanes {
    /// Lane `l`'s projected splat and color, `None` when it is culled
    /// (what [`GaussianCloud::project`] returns for that splat).
    #[inline]
    pub fn splat(&self, l: usize) -> Option<(ProjectedSplat, Rgb)> {
        self.visible[l].then(|| {
            let s = ProjectedSplat {
                center: Vec2::new(self.center_x.0[l], self.center_y.0[l]),
                depth: self.depth.0[l],
                conic: (self.conic_a.0[l], self.conic_b.0[l], self.conic_c.0[l]),
                radius: self.radius.0[l],
                opacity: self.opacity.0[l],
                ln_opacity: self.ln_opacity.0[l],
                index: (self.first + l) as u32,
            };
            (s, self.color(l))
        })
    }

    /// Lane `l`'s SH color, defined for culled lanes too (what
    /// [`GaussianCloud::color`] returns for that splat).
    #[inline]
    pub fn color(&self, l: usize) -> Rgb {
        Rgb::new(self.r.0[l], self.g.0[l], self.b.0[l])
    }
}

/// The six unique entries `[xx, yy, zz, xy, xz, yz]` of the world
/// covariance `R·diag(s²)·Rᵀ`, expanded entry by entry (no 3×3 matrix
/// products), in the expressions and rounding order splat projection has
/// always used.
fn world_covariance(scale: Vec3, rotation: Vec4) -> [f32; 6] {
    let rm = Mat3::from_quaternion(rotation);
    let s2 = scale.mul_elem(scale);
    let (r0, r1, r2) = (rm.cols[0], rm.cols[1], rm.cols[2]);
    [
        s2.x * r0.x * r0.x + s2.y * r1.x * r1.x + s2.z * r2.x * r2.x,
        s2.x * r0.y * r0.y + s2.y * r1.y * r1.y + s2.z * r2.y * r2.y,
        s2.x * r0.z * r0.z + s2.y * r1.z * r1.z + s2.z * r2.z * r2.z,
        s2.x * r0.x * r0.y + s2.y * r1.x * r1.y + s2.z * r2.x * r2.y,
        s2.x * r0.x * r0.z + s2.y * r1.x * r1.z + s2.z * r2.x * r2.z,
        s2.x * r0.y * r0.z + s2.y * r1.y * r1.z + s2.z * r2.y * r2.z,
    ]
}

/// One splat's projection, computed whether or not the splat survives.
#[derive(Debug, Clone, Copy)]
struct Projection {
    center: Vec2,
    depth: f32,
    conic: (f32, f32, f32),
    radius: f32,
    visible: bool,
}

/// The projection half of the per-splat kernel: local affine camera ->
/// screen of the baked world covariance (only the top-left 2×2 of
/// `V·Σ·Vᵀ` is formed), plus the culls. Branch-free: every value is
/// computed and `visible` carries the three culls.
// The culls are negated comparisons on purpose: see `visible`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn project_kernel(
    p: &SplatProjector,
    mean: Vec3,
    cov: [f32; 6],
    opacity: f32,
    alpha_threshold: f32,
) -> Projection {
    // Camera::project_to_screen, with its near-plane test moved into
    // `visible`.
    let view_p = p.view.transform_point(mean);
    let depth = -view_p.z;
    let ndc = p.proj.mul_vec4(view_p.extend(1.0)).project();
    let center = Vec2::new(
        (ndc.x + 1.0) * 0.5 * p.width,
        (1.0 - ndc.y) * 0.5 * p.height,
    );
    let [sxx, syy, szz, sxy, sxz, syz] = cov;
    let (v0, v1) = (p.v0, p.v1);
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
    // The Jacobian of the perspective projection at the mean scales by
    // f/z. 2D covariance: top-left 2x2 of cov_cam scaled by (f/z)², plus
    // the 0.3px antialias floor used by 3DGS.
    let jz = p.focal_px / depth;
    let a = v0.dot(sv0) * jz * jz + 0.3;
    let b = v1.dot(sv0) * jz * jz;
    let c = v1.dot(sv1) * jz * jz + 0.3;
    let det = a * c - b * b;
    let inv_det = 1.0 / det;
    let mid = 0.5 * (a + c);
    let lambda_max = mid + ((mid * mid - det).max(0.0)).sqrt();
    Projection {
        center,
        depth,
        conic: (c * inv_det, -b * inv_det, a * inv_det),
        radius: (3.0 * lambda_max.sqrt()).ceil(),
        // The culls, negated as written so that a NaN compares as it did
        // in the early returns they replace.
        visible: !(depth <= p.near) & !(opacity < alpha_threshold) & !(det <= 1e-9),
    }
}

/// The color half of the per-splat kernel: the SH color toward the splat
/// from `eye`. `coeff(j)` reads the splat's SH float `j`.
#[inline(always)]
fn color_kernel(eye: Vec3, mean: Vec3, n: usize, coeff: impl Fn(usize) -> f32) -> Rgb {
    // Vec3::normalized with its branch as a select.
    let d = mean - eye;
    let len = d.length();
    let ok = len.is_finite() & (len > 0.0);
    let q = d / len;
    let pick = |v: f32| if ok { v } else { 0.0 };
    sh_rgb(Vec3::new(pick(q.x), pick(q.y), pick(q.z)), n, coeff)
}

/// SH color toward unit `dir` from `n` coefficients per channel: the
/// basis is evaluated once and dotted against the three channel blocks.
#[inline(always)]
fn sh_rgb(dir: Vec3, n: usize, coeff: impl Fn(usize) -> f32) -> Rgb {
    let basis = sh::basis(dir);
    // Each channel's dot runs left to right from `-0.0`, the fold
    // `Iterator::sum` runs.
    let mut dot = [-0.0f32; 3];
    for (k, b) in basis.iter().enumerate().take(n) {
        for (c, acc) in dot.iter_mut().enumerate() {
            *acc += coeff(c * n + k) * b;
        }
    }
    // SH DC convention of 3DGS: color = 0.5 + C0 * dc (+ higher bands).
    Rgb::new(dot[0] + 0.5, dot[1] + 0.5, dot[2] + 0.5).saturate()
}

/// The per-frame camera constants of splat projection, set up once per
/// frame instead of once per splat (the splat-side sibling of
/// [`uni_geometry::RayGenerator`]).
#[derive(Debug, Clone, Copy)]
pub struct SplatProjector {
    eye: Vec3,
    view: Mat4,
    proj: Mat4,
    near: f32,
    /// Image size in pixels.
    width: f32,
    height: f32,
    /// Rows 0 and 1 of the view rotation (world -> camera axes).
    v0: Vec3,
    v1: Vec3,
    /// Focal length in pixels, from the camera's ray generator.
    focal_px: f32,
}

impl SplatProjector {
    /// Sets up the projection constants of `camera`.
    pub fn new(camera: &Camera) -> Self {
        let v = &camera.view.cols;
        Self {
            eye: camera.eye,
            view: camera.view,
            proj: camera.proj,
            near: camera.near,
            width: camera.width as f32,
            height: camera.height as f32,
            v0: Vec3::new(v[0].x, v[1].x, v[2].x),
            v1: Vec3::new(v[0].y, v[1].y, v[2].y),
            focal_px: camera.ray_generator().focal_px(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SceneSpec;

    fn unit_gaussian(mean: Vec3, sigma: f32) -> Gaussian {
        Gaussian {
            mean,
            scale: Vec3::splat(sigma),
            rotation: Vec4::new(0.0, 0.0, 0.0, 1.0),
            opacity: 0.8,
            sh_coeffs: [0.0; MAX_SH_FLOATS],
        }
    }

    fn cloud_of(sh_degree: u8, gaussians: impl IntoIterator<Item = Gaussian>) -> GaussianCloud {
        let mut cloud = GaussianCloud::new(sh_degree);
        for g in gaussians {
            cloud.push(g);
        }
        cloud
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

    fn project_one(g: Gaussian) -> Option<ProjectedSplat> {
        cloud_of(1, [g]).project(0, &SplatProjector::new(&test_camera()), 0.01)
    }

    #[test]
    fn isotropic_covariance_is_diagonal() {
        let [xx, yy, zz, xy, xz, yz] =
            world_covariance(Vec3::splat(0.5), Vec4::new(0.0, 0.0, 0.0, 1.0));
        for d in [xx, yy, zz] {
            assert!((d - 0.25).abs() < 1e-5);
        }
        for o in [xy, xz, yz] {
            assert!(o.abs() < 1e-6);
        }
    }

    #[test]
    fn rotated_anisotropic_covariance_has_off_diagonals() {
        let half = std::f32::consts::FRAC_PI_4 * 0.5;
        let [_, _, _, xy, xz, yz] = world_covariance(
            Vec3::new(1.0, 0.1, 0.1),
            Vec4::new(0.0, 0.0, half.sin(), half.cos()),
        );
        assert!(xy.abs() > 0.1, "45° rotation couples x and y");
        assert!(xz.abs() < 1e-6 && yz.abs() < 1e-6, "z stays decoupled");
    }

    #[test]
    fn sh_dc_color_is_direction_independent() {
        let mut g = unit_gaussian(Vec3::ZERO, 1.0);
        g.sh_coeffs[..3].copy_from_slice(&[0.9, 0.1, -0.4]); // One DC coeff per channel.
        let c1 = g.color(Vec3::Z, 1);
        let c2 = g.color(Vec3::X, 1);
        assert_eq!(c1, c2);
        assert!(c1.r > c1.g, "positive red DC lifts red above 0.5 base");
    }

    #[test]
    fn push_and_get_round_trip_across_groups() {
        for degree in [0, 1, 3] {
            let n = sh::coeff_count(degree);
            let gaussians: Vec<Gaussian> = (0..11)
                .map(|i| {
                    let f = i as f32;
                    let mut g = unit_gaussian(Vec3::new(f, -f, 0.5 * f), 0.1 + 0.01 * f);
                    g.rotation = Vec4::new(0.1 * f, 0.0, 0.2, 1.0).normalized();
                    g.opacity = 0.05 * f;
                    for (j, c) in g.sh_coeffs[..3 * n].iter_mut().enumerate() {
                        *c = f - j as f32;
                    }
                    g
                })
                .collect();
            let cloud = cloud_of(degree, gaussians.iter().cloned());
            assert_eq!(cloud.len(), 11);
            assert_eq!(cloud.groups(), 2);
            assert!(cloud.iter().eq(gaussians), "degree {degree}");
        }
    }

    #[test]
    fn projection_centers_on_screen() {
        let s = project_one(unit_gaussian(Vec3::ZERO, 0.1)).expect("visible");
        assert!((s.center.x - 320.0).abs() < 0.5);
        assert!((s.center.y - 240.0).abs() < 0.5);
        assert!((s.depth - 5.0).abs() < 1e-3);
        assert!(s.radius >= 1.0);
    }

    #[test]
    fn behind_camera_is_culled() {
        assert!(project_one(unit_gaussian(Vec3::new(0.0, 0.0, 10.0), 0.1)).is_none());
    }

    #[test]
    fn low_opacity_is_thresholded() {
        let mut g = unit_gaussian(Vec3::ZERO, 0.1);
        g.opacity = 0.001;
        assert!(project_one(g).is_none());
    }

    #[test]
    fn closer_gaussians_project_larger() {
        let cloud = cloud_of(
            1,
            [
                unit_gaussian(Vec3::new(0.0, 0.0, 2.0), 0.2), // 3 m away
                unit_gaussian(Vec3::new(0.0, 0.0, -5.0), 0.2), // 10 m away
            ],
        );
        let projector = SplatProjector::new(&test_camera());
        let near = cloud.project(0, &projector, 0.01).expect("near");
        let far = cloud.project(1, &projector, 0.01).expect("far");
        assert!(near.radius > far.radius);
        assert!(near.depth < far.depth);
    }

    #[test]
    fn falloff_peaks_at_center_and_decays() {
        let s = project_one(unit_gaussian(Vec3::ZERO, 0.3)).expect("visible");
        let at_center = s.falloff(0.0, 0.0);
        let off = s.falloff(s.radius * 0.8, 0.0);
        assert!((at_center - 1.0).abs() < 1e-5);
        assert!(off < at_center);
        assert!(s.falloff(s.radius * 3.0, 0.0) < 0.01);
    }

    #[test]
    fn storage_bytes_match_record_size() {
        let mut g = unit_gaussian(Vec3::ZERO, 1.0);
        g.opacity = 1.0;
        // 3+3+4+1+48 floats = 59 * 4 = 236 bytes.
        assert_eq!(cloud_of(3, [g]).storage_bytes(), 236);
    }

    #[test]
    fn bounds_cover_three_sigma() {
        let b = cloud_of(1, [unit_gaussian(Vec3::ZERO, 1.0)]).bounds();
        assert!(b.contains(Vec3::splat(2.9)));
        assert!(!b.contains(Vec3::splat(3.1)));
    }

    const THRESHOLD: f32 = 1.0 / 255.0;

    /// The bits of everything a projected splat carries.
    fn splat_bits(s: &ProjectedSplat) -> [u32; 10] {
        [
            s.center.x.to_bits(),
            s.center.y.to_bits(),
            s.depth.to_bits(),
            s.conic.0.to_bits(),
            s.conic.1.to_bits(),
            s.conic.2.to_bits(),
            s.radius.to_bits(),
            s.opacity.to_bits(),
            s.ln_opacity.to_bits(),
            s.index,
        ]
    }

    fn rgb_bits(c: Rgb) -> [u32; 3] {
        [c.r.to_bits(), c.g.to_bits(), c.b.to_bits()]
    }

    /// Checks every lane of every group against scalar `project` +
    /// `color`, bit for bit, and that lanes past the end stay culled, even
    /// at a zero threshold that lets their zero opacity through. Returns
    /// the number of visible splats.
    fn assert_lanes_match_scalar(cloud: &GaussianCloud, camera: &Camera, what: &str) -> usize {
        let p = SplatProjector::new(camera);
        assert_eq!(cloud.groups(), cloud.len().div_ceil(8), "{what}");
        let mut visible = 0;
        for group in 0..cloud.groups() {
            let lanes = cloud.project_x8(group, &p, THRESHOLD);
            let unthresholded = cloud.project_x8(group, &p, 0.0);
            for l in 0..8 {
                let i = group * 8 + l;
                if i >= cloud.len() {
                    assert!(lanes.splat(l).is_none(), "{what}: padding lane {i}");
                    assert!(unthresholded.splat(l).is_none(), "{what}: padding lane {i}");
                    continue;
                }
                let (want, got) = (cloud.project(i as u32, &p, THRESHOLD), lanes.splat(l));
                assert_eq!(
                    rgb_bits(lanes.color(l)),
                    rgb_bits(cloud.color(i as u32, &p)),
                    "{what}: color of splat {i}"
                );
                match (got, want) {
                    (None, None) => {}
                    (Some((g, rgb)), Some(w)) => {
                        assert_eq!(splat_bits(&g), splat_bits(&w), "{what}: splat {i}");
                        assert_eq!(rgb_bits(rgb), rgb_bits(lanes.color(l)));
                        visible += 1;
                    }
                    (got, want) => panic!("{what}: splat {i} lane {got:?} vs scalar {want:?}"),
                }
            }
        }
        visible
    }

    /// Projection and color as written before the cloud stored columns:
    /// a per-splat `Mat3` from the quaternion, `Camera::project_to_screen`
    /// with early returns, `Vec3::normalized`, `sh::eval_basis` and a
    /// summed dot. Pins the baked covariance and the kernel to those bits.
    fn seed_project(g: &Gaussian, camera: &Camera, n: usize) -> (Option<[u32; 7]>, [u32; 3]) {
        let dir = (g.mean - camera.eye).normalized();
        let mut basis = [0f32; 16];
        sh::eval_basis(dir, &mut basis[..n]);
        let dot = |c: &[f32]| -> f32 { c[..n].iter().zip(&basis[..n]).map(|(c, b)| c * b).sum() };
        let (r, gr, b) = (
            dot(&g.sh_coeffs[..n]),
            dot(&g.sh_coeffs[n..2 * n]),
            dot(&g.sh_coeffs[2 * n..3 * n]),
        );
        let rgb = rgb_bits(Rgb::new(r + 0.5, gr + 0.5, b + 0.5).saturate());
        let splat = (|| {
            let (center, _, depth) = camera.project_to_screen(g.mean)?;
            if g.opacity < THRESHOLD {
                return None;
            }
            let rm = Mat3::from_quaternion(g.rotation);
            let s2 = g.scale.mul_elem(g.scale);
            let (r0, r1, r2) = (rm.cols[0], rm.cols[1], rm.cols[2]);
            let sxx = s2.x * r0.x * r0.x + s2.y * r1.x * r1.x + s2.z * r2.x * r2.x;
            let syy = s2.x * r0.y * r0.y + s2.y * r1.y * r1.y + s2.z * r2.y * r2.y;
            let szz = s2.x * r0.z * r0.z + s2.y * r1.z * r1.z + s2.z * r2.z * r2.z;
            let sxy = s2.x * r0.x * r0.y + s2.y * r1.x * r1.y + s2.z * r2.x * r2.y;
            let sxz = s2.x * r0.x * r0.z + s2.y * r1.x * r1.z + s2.z * r2.x * r2.z;
            let syz = s2.x * r0.y * r0.z + s2.y * r1.y * r1.z + s2.z * r2.y * r2.z;
            let v = &camera.view.cols;
            let v0 = Vec3::new(v[0].x, v[1].x, v[2].x);
            let v1 = Vec3::new(v[0].y, v[1].y, v[2].y);
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
            let jz = camera.ray_generator().focal_px() / depth;
            let a = v0.dot(sv0) * jz * jz + 0.3;
            let b = v1.dot(sv0) * jz * jz;
            let c = v1.dot(sv1) * jz * jz + 0.3;
            let det = a * c - b * b;
            if det <= 1e-9 {
                return None;
            }
            let inv_det = 1.0 / det;
            let mid = 0.5 * (a + c);
            let lambda_max = mid + ((mid * mid - det).max(0.0)).sqrt();
            let radius = (3.0 * lambda_max.sqrt()).ceil();
            Some(
                [
                    center.x,
                    center.y,
                    depth,
                    c * inv_det,
                    -b * inv_det,
                    a * inv_det,
                    radius,
                ]
                .map(f32::to_bits),
            )
        })();
        (splat, rgb)
    }

    /// Every lane of `project_x8` equals scalar `project` + `color` bit
    /// for bit on the baked `loadbench-fleet-0` scene at several orbit
    /// views, and scalar projection equals the pre-column expressions.
    #[test]
    fn lanes_match_scalar_projection_and_color_on_a_baked_scene() {
        let scene = SceneSpec::demo("loadbench-fleet-0", 4100)
            .with_detail(0.03)
            .bake();
        let cloud = scene.gaussians();
        assert!(cloud.len() > 1000, "{}", cloud.len());
        let n = cloud.coeffs_per_channel();
        let orbit = scene.spec().orbit(96, 96);
        for theta in [0.0f32, 0.9, 2.2, 3.5, 4.8] {
            let camera = orbit.camera_at(theta);
            let visible = assert_lanes_match_scalar(cloud, &camera, &format!("view {theta}"));
            assert!(visible > 100, "view {theta}: {visible} visible");
            let p = SplatProjector::new(&camera);
            for (i, g) in cloud.iter().enumerate() {
                let (splat, rgb) = seed_project(&g, &camera, n);
                let s = cloud.project(i as u32, &p, THRESHOLD);
                let s = s.map(|s| splat_bits(&s)[..7].try_into().unwrap());
                assert_eq!(s, splat, "view {theta}: splat {i}");
                assert_eq!(
                    rgb_bits(cloud.color(i as u32, &p)),
                    rgb,
                    "view {theta}: color {i}"
                );
            }
        }
    }

    /// A deterministic cloud of `len` splats scattered around the test
    /// camera's target, some behind it and some below the threshold.
    fn random_cloud(len: usize, sh_degree: u8, seed: u64) -> GaussianCloud {
        let mut state = seed | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut cloud = GaussianCloud::new(sh_degree);
        for _ in 0..len {
            let mut g = unit_gaussian(Vec3::ZERO, 0.0);
            g.mean = Vec3::new(
                4.0 * unit() - 2.0,
                3.0 * unit() - 1.5,
                9.0 * unit() - 3.0, // Up to 6: one in nine sits behind the eye.
            );
            g.scale = Vec3::new(0.5 * unit(), 0.3 * unit(), 0.05 * unit());
            g.rotation = Vec4::new(unit() - 0.5, unit() - 0.5, unit() - 0.5, unit() - 0.5);
            g.opacity = unit().powi(3);
            for c in &mut g.sh_coeffs[..3 * sh::coeff_count(sh_degree)] {
                *c = 2.0 * unit() - 1.0;
            }
            cloud.push(g);
        }
        cloud
    }

    #[test]
    fn lanes_match_scalar_at_every_cloud_length() {
        let camera = test_camera();
        for (len, degree) in [(0, 3), (1, 3), (7, 0), (8, 1), (9, 2), (2049, 3)] {
            let cloud = random_cloud(len, degree, 0x5EED + len as u64);
            assert_eq!(cloud.len(), len);
            let visible = assert_lanes_match_scalar(&cloud, &camera, &format!("len {len}"));
            if len == 2049 {
                assert!(visible > 1000 && visible < len, "{visible} visible");
            }
        }
    }

    /// The culls and the zero view direction, each checked to take the
    /// path it names, in lanes next to visible splats.
    #[test]
    fn lanes_match_scalar_on_culled_and_degenerate_splats() {
        let camera = test_camera();
        let eye = camera.eye;
        let visible = unit_gaussian(Vec3::new(0.3, -0.2, 0.0), 0.2);
        let mut behind_near = visible.clone();
        behind_near.mean = Vec3::new(0.0, 0.0, eye.z - 0.5 * camera.near);
        let mut at_eye = visible.clone();
        at_eye.mean = eye;
        at_eye.sh_coeffs[..3].copy_from_slice(&[0.4, -0.2, 0.1]);
        let mut faint = visible.clone();
        faint.opacity = 0.5 * THRESHOLD;
        // A huge needle along the screen diagonal: the 2D covariance's
        // determinant cancels to zero or below.
        let mut needle = visible.clone();
        needle.scale = Vec3::new(1e4, 0.0, 0.0);
        let half = std::f32::consts::FRAC_PI_8;
        needle.rotation = Vec4::new(0.0, 0.0, half.sin(), half.cos());
        let cloud = cloud_of(
            3,
            [
                visible.clone(),
                behind_near.clone(),
                at_eye.clone(),
                faint.clone(),
                needle.clone(),
                visible,
            ],
        );
        let p = SplatProjector::new(&camera);
        let depth = |g: &Gaussian| -camera.view.transform_point(g.mean).z;
        assert!(depth(&behind_near) > 0.0 && depth(&behind_near) <= camera.near);
        assert_eq!((at_eye.mean - eye).normalized(), Vec3::ZERO);
        assert_ne!(
            cloud.color(2, &p),
            cloud.color(0, &p),
            "zero direction keeps DC only"
        );
        assert!(depth(&needle) > camera.near && needle.opacity >= THRESHOLD);
        for (i, culled) in [(1, true), (2, true), (3, true), (4, true), (5, false)] {
            assert_eq!(
                cloud.project(i, &p, THRESHOLD).is_none(),
                culled,
                "splat {i}"
            );
        }
        assert_eq!(assert_lanes_match_scalar(&cloud, &camera, "edges"), 2);
    }
}
