//! The analytic density + appearance field every representation is baked
//! from.
//!
//! The paper evaluates on captured datasets with *trained* checkpoints per
//! pipeline. We cannot ship those, so each procedural scene defines a smooth
//! signed-distance-based field — density and view-dependent color at any 3D
//! point — and every representation (mesh, MLP grid, tri-plane, hash grid,
//! Gaussians) is *baked* against this single ground truth. All five
//! pipelines therefore render the same underlying content, exactly like the
//! five checkpoints of one captured scene do in the paper.

use serde::{Deserialize, Serialize};
use uni_geometry::{Aabb, Rgb, Vec3};

/// A primitive shape contributing to the field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Shape {
    /// Sphere with center and radius.
    Sphere {
        /// Center.
        center: Vec3,
        /// Radius.
        radius: f32,
    },
    /// Axis-aligned box.
    Box {
        /// Center.
        center: Vec3,
        /// Half-extents per axis.
        half: Vec3,
    },
    /// Horizontal ground plane `y = level` (solid below).
    Ground {
        /// Height of the plane.
        level: f32,
    },
    /// Vertical capped cylinder.
    Cylinder {
        /// Center of the axis segment.
        center: Vec3,
        /// Radius.
        radius: f32,
        /// Half height.
        half_height: f32,
    },
}

impl Shape {
    /// Signed distance from `p` to the shape surface (negative inside).
    pub fn sdf(&self, p: Vec3) -> f32 {
        match *self {
            Shape::Sphere { center, radius } => (p - center).length() - radius,
            Shape::Box { center, half } => {
                let q = (p - center).abs() - half;
                let outside = q.max_elem(Vec3::ZERO).length();
                let inside = q.max_component().min(0.0);
                outside + inside
            }
            Shape::Ground { level } => p.y - level,
            Shape::Cylinder {
                center,
                radius,
                half_height,
            } => {
                let d = p - center;
                let radial = Vec3::new(d.x, 0.0, d.z).length() - radius;
                let axial = d.y.abs() - half_height;
                let outside = Vec3::new(radial.max(0.0), axial.max(0.0), 0.0).length();
                let inside = radial.max(axial).min(0.0);
                outside + inside
            }
        }
    }

    /// A conservative bounding box of the `iso = 0` surface.
    pub fn bounds(&self) -> Aabb {
        match *self {
            Shape::Sphere { center, radius } => {
                Aabb::new(center - Vec3::splat(radius), center + Vec3::splat(radius))
            }
            Shape::Box { center, half } => Aabb::new(center - half, center + half),
            Shape::Ground { level } => Aabb::new(
                Vec3::new(-50.0, level - 0.5, -50.0),
                Vec3::new(50.0, level, 50.0),
            ),
            Shape::Cylinder {
                center,
                radius,
                half_height,
            } => Aabb::new(
                center - Vec3::new(radius, half_height, radius),
                center + Vec3::new(radius, half_height, radius),
            ),
        }
    }
}

/// One colored primitive of the analytic field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FieldPrimitive {
    /// Geometry.
    pub shape: Shape,
    /// Base albedo.
    pub albedo: Rgb,
    /// Specular tint strength in `[0, 1]` — drives view-dependent color,
    /// the content SH coefficients and deferred MLPs must capture.
    pub specular: f32,
}

/// The analytic density + appearance field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyticField {
    primitives: Vec<FieldPrimitive>,
    /// Density falloff sharpness (1 / world-space shell width).
    sharpness: f32,
    /// Peak volumetric density inside surfaces.
    peak_density: f32,
    background: Rgb,
}

/// A field sample: density plus view-dependent radiance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FieldSample {
    /// Volumetric density (1/m).
    pub density: f32,
    /// Emitted radiance toward the query direction.
    pub color: Rgb,
}

/// View-independent surface attributes at a point — what the baking passes
/// write into textures, grids, and Gaussian DC terms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurfaceAttrs {
    /// Pre-lit diffuse color (albedo under the fixed key light).
    pub diffuse: Rgb,
    /// Specular tint strength of the nearest primitive.
    pub specular: f32,
    /// Surface normal (SDF gradient).
    pub normal: Vec3,
}

/// The fixed key-light direction shared by shading and baked targets.
pub const LIGHT_DIR: Vec3 = Vec3::new(0.45, 0.8, 0.35);

/// The peak volumetric density inside surfaces (1/m); baked density
/// channels are normalized by this value.
pub const PEAK_DENSITY: f32 = 40.0;

impl AnalyticField {
    /// Creates a field over the given primitives.
    pub fn new(primitives: Vec<FieldPrimitive>) -> Self {
        Self {
            primitives,
            sharpness: 24.0,
            peak_density: PEAK_DENSITY,
            background: Rgb::new(0.62, 0.75, 0.93),
        }
    }

    /// View-independent surface attributes at `p` (diffuse shading, specular
    /// strength, and normal). Returns background-colored attributes when the
    /// field is empty.
    pub fn attributes(&self, p: Vec3) -> SurfaceAttrs {
        self.attributes_and_density(p).0
    }

    /// [`AnalyticField::attributes`] and [`AnalyticField::density`] at `p`
    /// from one SDF pass.
    ///
    /// Hoisting contract: the density goes through the same expressions as
    /// [`AnalyticField::density`], and the attributes through the same
    /// view-independent shading terms as [`AnalyticField::sample`], in the
    /// same order, so the pair equals `(attributes(p), density(p))` bit
    /// for bit.
    pub(crate) fn attributes_and_density(&self, p: Vec3) -> (SurfaceAttrs, f32) {
        let (d, idx) = self.sdf(p);
        let density = self.density_at_distance(d);
        if self.primitives.is_empty() {
            let attrs = SurfaceAttrs {
                diffuse: self.background,
                specular: 0.0,
                normal: Vec3::Y,
            };
            return (attrs, density);
        }
        let lit = self.lit(p, idx);
        let attrs = SurfaceAttrs {
            diffuse: lit.ambient_diffuse.saturate(),
            specular: lit.prim.specular,
            normal: lit.normal,
        };
        (attrs, density)
    }

    /// The view-independent shading of `p`, whose nearest primitive is
    /// `idx`: the primitive, its normal, and albedo under ambient plus
    /// the key light's diffuse term.
    fn lit(&self, p: Vec3, idx: usize) -> Lit<'_> {
        let prim = &self.primitives[idx];
        let normal = self.normal(p);
        let diffuse = normal.dot(LIGHT_DIR.normalized()).max(0.0);
        Lit {
            prim,
            normal,
            ambient_diffuse: prim.albedo * (0.35 + 0.65 * diffuse),
        }
    }

    /// The peak density constant used to normalize baked density channels.
    pub fn peak_density(&self) -> f32 {
        self.peak_density
    }

    /// The primitives composing the field.
    pub fn primitives(&self) -> &[FieldPrimitive] {
        &self.primitives
    }

    /// Background (sky) color for escaped rays.
    pub fn background(&self) -> Rgb {
        self.background
    }

    /// Overrides the background color.
    pub fn with_background(mut self, c: Rgb) -> Self {
        self.background = c;
        self
    }

    /// The tight bounds of all solid content (excluding the infinite
    /// ground extent beyond ±50).
    pub fn content_bounds(&self) -> Aabb {
        let mut b = self
            .primitives
            .iter()
            .fold(Aabb::EMPTY, |acc, p| acc.union(&p.shape.bounds()));
        if b.is_empty() {
            b = Aabb::cube(1.0);
        }
        b
    }

    /// Signed distance to the nearest surface and the index of the nearest
    /// primitive.
    pub fn sdf(&self, p: Vec3) -> (f32, usize) {
        let mut best = (f32::INFINITY, 0usize);
        for (i, prim) in self.primitives.iter().enumerate() {
            let d = prim.shape.sdf(p);
            if d < best.0 {
                best = (d, i);
            }
        }
        best
    }

    /// Surface normal by central differences of the SDF.
    pub fn normal(&self, p: Vec3) -> Vec3 {
        const H: f32 = 1e-3;
        let d = |q: Vec3| self.sdf(q).0;
        Vec3::new(
            d(p + Vec3::X * H) - d(p - Vec3::X * H),
            d(p + Vec3::Y * H) - d(p - Vec3::Y * H),
            d(p + Vec3::Z * H) - d(p - Vec3::Z * H),
        )
        .normalized()
    }

    /// Volumetric density at `p` (soft shell around the SDF zero set).
    pub fn density(&self, p: Vec3) -> f32 {
        self.density_at_distance(self.sdf(p).0)
    }

    /// Density at signed distance `d` from the nearest surface.
    fn density_at_distance(&self, d: f32) -> f32 {
        // Logistic falloff: ~peak inside, ~0 one shell-width outside.
        self.peak_density / (1.0 + (d * self.sharpness).exp())
    }

    /// Samples density and view-dependent radiance at `p` looking along
    /// `view_dir` (pointing *away* from the camera).
    pub fn sample(&self, p: Vec3, view_dir: Vec3) -> FieldSample {
        let mut color = [self.background];
        let density = self.sample_views(p, &[view_dir], &mut color);
        FieldSample {
            density,
            color: color[0],
        }
    }

    /// Shades `p` once for many views: writes the radiance toward each
    /// `view_dirs[i]` into `colors[i]` and returns the density.
    ///
    /// Hoisting contract: the SDF, density, nearest primitive, normal and
    /// diffuse term are computed once for all views, by the same
    /// expressions in the same order as [`AnalyticField::sample`] (which
    /// delegates here), so every color equals `sample(p, view_dirs[i])`
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `colors` and `view_dirs` differ in length.
    pub(crate) fn sample_views(&self, p: Vec3, view_dirs: &[Vec3], colors: &mut [Rgb]) -> f32 {
        assert_eq!(view_dirs.len(), colors.len(), "one color per view");
        let (d, idx) = self.sdf(p);
        let density = self.density_at_distance(d);
        if density < 1e-4 || self.primitives.is_empty() {
            colors.fill(self.background);
            return density;
        }
        // Fixed key light plus ambient; Blinn-style specular lobe driven by
        // the primitive's specular tint gives genuine view dependence.
        let lit = self.lit(p, idx);
        let light_dir = LIGHT_DIR.normalized();
        for (color, &view_dir) in colors.iter_mut().zip(view_dirs) {
            let half = (light_dir - view_dir).normalized();
            let spec = lit.normal.dot(half).max(0.0).powi(16) * lit.prim.specular;
            *color = (lit.ambient_diffuse + Rgb::WHITE * spec).saturate();
        }
        density
    }
}

/// The view-independent shading terms at one point (see
/// [`AnalyticField::sample_views`]).
struct Lit<'a> {
    prim: &'a FieldPrimitive,
    normal: Vec3,
    ambient_diffuse: Rgb,
}

#[cfg(test)]
mod tests {
    use super::*;
    use uni_geometry::sampling::XorShift64;

    fn two_sphere_field() -> AnalyticField {
        AnalyticField::new(vec![
            FieldPrimitive {
                shape: Shape::Sphere {
                    center: Vec3::ZERO,
                    radius: 1.0,
                },
                albedo: Rgb::new(0.8, 0.2, 0.2),
                specular: 0.5,
            },
            FieldPrimitive {
                shape: Shape::Sphere {
                    center: Vec3::new(3.0, 0.0, 0.0),
                    radius: 0.5,
                },
                albedo: Rgb::new(0.2, 0.8, 0.2),
                specular: 0.0,
            },
        ])
    }

    /// Every shape kind, so the parity tests cross each SDF branch.
    fn mixed_field() -> AnalyticField {
        let prim = |shape, albedo, specular| FieldPrimitive {
            shape,
            albedo,
            specular,
        };
        AnalyticField::new(vec![
            prim(Shape::Ground { level: -1.0 }, Rgb::new(0.4, 0.5, 0.3), 0.1),
            prim(
                Shape::Box {
                    center: Vec3::new(-1.5, 0.0, 0.5),
                    half: Vec3::new(0.6, 0.9, 0.4),
                },
                Rgb::new(0.7, 0.6, 0.2),
                0.8,
            ),
            prim(
                Shape::Cylinder {
                    center: Vec3::new(1.2, -0.2, -0.8),
                    radius: 0.5,
                    half_height: 0.8,
                },
                Rgb::new(0.2, 0.3, 0.9),
                0.4,
            ),
            prim(
                Shape::Sphere {
                    center: Vec3::new(0.0, 0.6, 0.0),
                    radius: 0.7,
                },
                Rgb::new(0.9, 0.1, 0.1),
                1.0,
            ),
        ])
    }

    /// Seeded points: a third near the shapes, the rest far outside them
    /// (where density drops below the shading cutoff).
    fn parity_points(rng: &mut XorShift64) -> Vec<Vec3> {
        (0..300)
            .map(|i| {
                let r = if i % 3 == 0 { 2.5 } else { 60.0 };
                Vec3::new(
                    rng.range_f32(-r, r),
                    rng.range_f32(-r, r),
                    rng.range_f32(-r, r),
                )
            })
            .collect()
    }

    fn rgb_bits(c: Rgb) -> [u32; 3] {
        [c.r.to_bits(), c.g.to_bits(), c.b.to_bits()]
    }

    fn vec_bits(v: Vec3) -> [u32; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    #[test]
    fn sample_views_matches_sample_bit_for_bit() {
        let mut rng = XorShift64::new(0x5EED);
        for field in [
            two_sphere_field(),
            mixed_field(),
            AnalyticField::new(vec![]),
        ] {
            let (mut shaded, mut cut_off) = (0, 0);
            for p in parity_points(&mut rng) {
                let dirs: Vec<Vec3> = (0..7)
                    .map(|_| {
                        Vec3::new(
                            rng.range_f32(-1.0, 1.0),
                            rng.range_f32(-1.0, 1.0),
                            rng.range_f32(-1.0, 1.0),
                        )
                        .normalized()
                    })
                    .collect();
                let mut colors = vec![Rgb::BLACK; dirs.len()];
                let density = field.sample_views(p, &dirs, &mut colors);
                for (&d, &color) in dirs.iter().zip(&colors) {
                    let one = field.sample(p, d);
                    assert_eq!(density.to_bits(), one.density.to_bits(), "{p:?}");
                    assert_eq!(rgb_bits(color), rgb_bits(one.color), "{p:?} {d:?}");
                }
                if density < 1e-4 {
                    cut_off += 1;
                } else {
                    shaded += 1;
                }
            }
            assert!(cut_off > 0, "far points exercise the density cutoff");
            if !field.primitives().is_empty() {
                assert!(shaded > 0, "near points exercise shading");
            }
        }
    }

    #[test]
    fn attributes_and_density_match_the_separate_calls_bit_for_bit() {
        let mut rng = XorShift64::new(0xA77E);
        for field in [
            two_sphere_field(),
            mixed_field(),
            AnalyticField::new(vec![]),
        ] {
            for p in parity_points(&mut rng) {
                let (attrs, density) = field.attributes_and_density(p);
                let alone = field.attributes(p);
                assert_eq!(density.to_bits(), field.density(p).to_bits(), "{p:?}");
                assert_eq!(rgb_bits(attrs.diffuse), rgb_bits(alone.diffuse), "{p:?}");
                assert_eq!(attrs.specular.to_bits(), alone.specular.to_bits());
                assert_eq!(vec_bits(attrs.normal), vec_bits(alone.normal), "{p:?}");
            }
        }
    }

    #[test]
    fn sphere_sdf_signs() {
        let s = Shape::Sphere {
            center: Vec3::ZERO,
            radius: 1.0,
        };
        assert!(s.sdf(Vec3::ZERO) < 0.0);
        assert!((s.sdf(Vec3::X) - 0.0).abs() < 1e-6);
        assert!((s.sdf(Vec3::X * 3.0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn box_sdf_is_zero_on_faces_negative_inside() {
        let b = Shape::Box {
            center: Vec3::ZERO,
            half: Vec3::new(1.0, 2.0, 3.0),
        };
        assert!(b.sdf(Vec3::ZERO) < 0.0);
        assert!(b.sdf(Vec3::new(1.0, 0.0, 0.0)).abs() < 1e-6);
        assert!((b.sdf(Vec3::new(2.0, 0.0, 0.0)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cylinder_sdf_radial_and_axial() {
        let c = Shape::Cylinder {
            center: Vec3::ZERO,
            radius: 1.0,
            half_height: 2.0,
        };
        assert!(c.sdf(Vec3::ZERO) < 0.0);
        assert!(c.sdf(Vec3::new(1.0, 0.0, 0.0)).abs() < 1e-6);
        assert!((c.sdf(Vec3::new(0.0, 3.0, 0.0)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ground_sdf_is_height() {
        let g = Shape::Ground { level: -1.0 };
        assert!((g.sdf(Vec3::ZERO) - 1.0).abs() < 1e-6);
        assert!(g.sdf(Vec3::new(0.0, -2.0, 0.0)) < 0.0);
    }

    #[test]
    fn density_high_inside_low_outside() {
        let f = two_sphere_field();
        assert!(f.density(Vec3::ZERO) > 30.0);
        assert!(f.density(Vec3::new(0.0, 10.0, 0.0)) < 0.01);
    }

    #[test]
    fn density_transitions_smoothly_across_surface() {
        let f = two_sphere_field();
        let inside = f.density(Vec3::X * 0.9);
        let surface = f.density(Vec3::X * 1.0);
        let outside = f.density(Vec3::X * 1.1);
        assert!(inside > surface && surface > outside);
        assert!((surface - 20.0).abs() < 1.0, "half peak at surface");
    }

    #[test]
    fn nearest_primitive_colors_the_sample() {
        let f = two_sphere_field();
        let near_red = f.sample(Vec3::new(0.95, 0.0, 0.0), Vec3::Z);
        let near_green = f.sample(Vec3::new(3.0, 0.0, 0.45), Vec3::Z);
        assert!(near_red.color.r > near_red.color.g);
        assert!(near_green.color.g > near_green.color.r);
    }

    #[test]
    fn specular_component_is_view_dependent() {
        let f = two_sphere_field();
        let p = Vec3::new(0.35, 0.75, 0.35).normalized() * 0.99;
        // Looking along the reflection direction vs. away from it.
        let toward = f.sample(p, (-Vec3::new(0.45, 0.8, 0.35)).normalized());
        let away = f.sample(p, Vec3::new(0.45, 0.8, 0.35).normalized());
        assert!(toward.color.luminance() > away.color.luminance());
    }

    #[test]
    fn normal_points_outward_on_sphere() {
        let f = two_sphere_field();
        let p = Vec3::new(0.0, 1.0, 0.0);
        let n = f.normal(p);
        assert!((n - Vec3::Y).length() < 1e-2, "{n:?}");
    }

    #[test]
    fn content_bounds_cover_all_primitives() {
        let f = two_sphere_field();
        let b = f.content_bounds();
        assert!(b.contains(Vec3::new(-1.0, 0.0, 0.0)));
        assert!(b.contains(Vec3::new(3.5, 0.0, 0.0)));
    }

    #[test]
    fn empty_field_renders_background() {
        let f = AnalyticField::new(vec![]);
        let s = f.sample(Vec3::ZERO, Vec3::Z);
        assert_eq!(s.color, f.background());
        assert!(!f.content_bounds().is_empty());
    }
}
