//! Procedural scene specifications.
//!
//! A [`SceneSpec`] deterministically generates an [`AnalyticField`] (the
//! scene content) plus the sizing of every representation it will be baked
//! into. Dataset catalogs (`datasets` module) are collections of specs whose
//! representation sizes mirror the published checkpoints of the paper's
//! benchmark scenes.

use crate::field::{AnalyticField, FieldPrimitive, Shape};
use crate::hashgrid::HashGridConfig;
use crate::triplane::TriplaneConfig;
use serde::{Deserialize, Serialize};
use uni_geometry::camera::Orbit;
use uni_geometry::sampling::XorShift64;
use uni_geometry::{Rgb, Vec3};

/// The content flavor of a procedural scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SceneFlavor {
    /// A free-standing object cluster (NeRF-Synthetic style).
    Object,
    /// A bounded room with walls and furniture (Unbounded-360 indoor).
    Indoor,
    /// An open scene with ground and scattered content (Unbounded-360
    /// outdoor).
    Outdoor,
}

/// Sizing of every baked representation.
///
/// Counts here are *full-scale*; [`SceneSpec::with_detail`] scales them for
/// fast tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReprParams {
    /// Target triangle count of the baked mesh.
    pub target_triangles: u32,
    /// Texture atlas resolution (texels per axis).
    pub texture_resolution: u32,
    /// Texture feature channels.
    pub texture_channels: u32,
    /// Number of 3D Gaussians.
    pub gaussian_count: u32,
    /// Hash grid configuration.
    pub hash: HashGridConfig,
    /// Low-rank decomposed grid configuration.
    pub triplane: TriplaneConfig,
    /// KiloNeRF macro-grid resolution (cells per axis).
    pub kilonerf_grid: u32,
    /// Hidden width of the KiloNeRF tiny MLPs.
    pub mlp_hidden: u32,
    /// Number of distinct trained tiny MLPs (cells share by locality).
    pub mlp_count: u32,
    /// Volume-rendering samples per ray (grid pipelines).
    pub samples_per_ray: u32,
    /// Samples per ray for the MLP-based pipeline (KiloNeRF marches far
    /// denser than grid pipelines because it lacks a learned importance
    /// sampler: 384 coarse+fine samples in the reference implementation).
    pub mlp_samples_per_ray: u32,
    /// Adam steps per trained network during baking.
    pub train_steps: u32,
}

impl ReprParams {
    /// Full-scale defaults for an object-scale scene (NeRF-Synthetic-like).
    pub fn object_scale() -> Self {
        Self {
            target_triangles: 150_000,
            texture_resolution: 2048,
            texture_channels: 8,
            gaussian_count: 300_000,
            hash: HashGridConfig {
                max_resolution: 1024,
                log2_table_size: 17, // Object scenes need smaller tables.
                ..HashGridConfig::default()
            },
            triplane: TriplaneConfig {
                plane_resolution: 1024,
                grid_resolution: 96,
                channels: 8,
            },
            kilonerf_grid: 16,
            mlp_hidden: 32,
            mlp_count: 16,
            samples_per_ray: 48,
            mlp_samples_per_ray: 192,
            train_steps: 250,
        }
    }

    /// Full-scale defaults for an unbounded scene (Mip-NeRF-360-like).
    pub fn unbounded_scale() -> Self {
        Self {
            target_triangles: 400_000,
            texture_resolution: 4096,
            texture_channels: 8,
            gaussian_count: 2_400_000,
            hash: HashGridConfig::default(),
            triplane: TriplaneConfig::default(),
            kilonerf_grid: 24,
            mlp_hidden: 32,
            mlp_count: 24,
            samples_per_ray: 64,
            mlp_samples_per_ray: 384,
            train_steps: 250,
        }
    }
}

/// A deterministic procedural scene specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneSpec {
    /// Scene name (used in reports).
    pub name: String,
    /// RNG seed; the same seed always yields the same scene.
    pub seed: u64,
    /// Content flavor.
    pub flavor: SceneFlavor,
    /// Number of procedural objects placed.
    pub object_count: u32,
    /// Scene extent in meters (content radius).
    pub extent: f32,
    /// Detail factor in `(0, 1]` scaling representation sizes.
    pub detail: f32,
    /// Representation sizing at `detail == 1.0`.
    pub repr: ReprParams,
}

impl SceneSpec {
    /// A small object-flavor demo scene.
    pub fn demo(name: impl Into<String>, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            flavor: SceneFlavor::Object,
            object_count: 6,
            extent: 1.6,
            detail: 1.0,
            repr: ReprParams::object_scale(),
        }
    }

    /// Creates a spec with a specific flavor and sizing.
    pub fn with_flavor(mut self, flavor: SceneFlavor) -> Self {
        self.flavor = flavor;
        if matches!(flavor, SceneFlavor::Outdoor) {
            self.extent = self.extent.max(8.0);
        }
        self
    }

    /// Scales every representation size by `detail` (clamped to
    /// `[0.01, 1]`). Tests use small detail for fast baking; the figure
    /// harnesses bake at `uni_bench::HARNESS_DETAIL` (0.12), and the
    /// serving benchmark at 0.12 and 0.03.
    pub fn with_detail(mut self, detail: f32) -> Self {
        self.detail = detail.clamp(0.01, 1.0);
        self
    }

    /// Effective (detail-scaled) representation parameters.
    pub fn scaled_repr(&self) -> ReprParams {
        let d = f64::from(self.detail);
        let lin = |v: u32, min: u32| ((f64::from(v) * d).round() as u32).max(min);
        // Areas/volumes scale by sqrt/cbrt so linear feature density follows
        // the detail factor perceptually.
        let sqrt = |v: u32, min: u32| ((f64::from(v) * d.sqrt()).round() as u32).max(min);
        let r = self.repr;
        ReprParams {
            target_triangles: lin(r.target_triangles, 64),
            texture_resolution: sqrt(r.texture_resolution, 32),
            texture_channels: r.texture_channels,
            gaussian_count: lin(r.gaussian_count, 128),
            hash: HashGridConfig {
                levels: r
                    .hash
                    .levels
                    .min(4.max((f64::from(r.hash.levels) * d.max(0.25)) as u32)),
                features_per_entry: r.hash.features_per_entry,
                log2_table_size: r
                    .hash
                    .log2_table_size
                    .min(10.max((f64::from(r.hash.log2_table_size) * (0.5 + 0.5 * d)) as u32)),
                base_resolution: r.hash.base_resolution,
                max_resolution: sqrt(r.hash.max_resolution, 32),
            },
            triplane: TriplaneConfig {
                plane_resolution: sqrt(r.triplane.plane_resolution, 32),
                grid_resolution: sqrt(r.triplane.grid_resolution, 8),
                channels: r.triplane.channels,
            },
            kilonerf_grid: sqrt(r.kilonerf_grid, 4),
            mlp_hidden: r.mlp_hidden,
            mlp_count: lin(r.mlp_count, 2),
            samples_per_ray: sqrt(r.samples_per_ray, 8),
            mlp_samples_per_ray: sqrt(r.mlp_samples_per_ray, 12),
            train_steps: lin(r.train_steps, 16),
        }
    }

    /// Generates the analytic field for this spec (deterministic in
    /// `seed`).
    pub fn build_field(&self) -> AnalyticField {
        let mut rng = XorShift64::new(self.seed.wrapping_mul(0x9E37).wrapping_add(17));
        let mut prims = Vec::new();
        let palette = [
            Rgb::new(0.82, 0.26, 0.22),
            Rgb::new(0.24, 0.62, 0.85),
            Rgb::new(0.32, 0.72, 0.34),
            Rgb::new(0.91, 0.73, 0.25),
            Rgb::new(0.67, 0.42, 0.78),
            Rgb::new(0.88, 0.52, 0.30),
            Rgb::new(0.55, 0.77, 0.72),
        ];
        let pick_color = |rng: &mut XorShift64| palette[rng.next_usize(palette.len())];

        match self.flavor {
            SceneFlavor::Object => { /* no ground */ }
            SceneFlavor::Indoor => {
                prims.push(FieldPrimitive {
                    shape: Shape::Ground { level: 0.0 },
                    albedo: Rgb::new(0.45, 0.40, 0.36),
                    specular: 0.05,
                });
                // Two walls hint at the room (kept thin boxes).
                let e = self.extent;
                prims.push(FieldPrimitive {
                    shape: Shape::Box {
                        center: Vec3::new(0.0, e * 0.4, -e),
                        half: Vec3::new(e, e * 0.4, 0.05),
                    },
                    albedo: Rgb::new(0.75, 0.73, 0.68),
                    specular: 0.02,
                });
                prims.push(FieldPrimitive {
                    shape: Shape::Box {
                        center: Vec3::new(-e, e * 0.4, 0.0),
                        half: Vec3::new(0.05, e * 0.4, e),
                    },
                    albedo: Rgb::new(0.70, 0.72, 0.75),
                    specular: 0.02,
                });
            }
            SceneFlavor::Outdoor => {
                prims.push(FieldPrimitive {
                    shape: Shape::Ground { level: 0.0 },
                    albedo: Rgb::new(0.34, 0.47, 0.26),
                    specular: 0.0,
                });
            }
        }

        let placement_radius = match self.flavor {
            SceneFlavor::Object => self.extent * 0.6,
            SceneFlavor::Indoor => self.extent * 0.7,
            SceneFlavor::Outdoor => self.extent * 0.8,
        };
        for i in 0..self.object_count {
            let angle = rng.range_f32(0.0, std::f32::consts::TAU);
            let radius = rng.range_f32(0.15, 1.0) * placement_radius;
            let size = rng.range_f32(0.12, 0.4)
                * match self.flavor {
                    SceneFlavor::Object => self.extent * 0.6,
                    _ => self.extent * 0.25,
                };
            let ground = !matches!(self.flavor, SceneFlavor::Object);
            let y = if ground {
                size
            } else {
                rng.range_f32(-0.4, 0.4) * self.extent * 0.5
            };
            let center = Vec3::new(angle.cos() * radius, y, angle.sin() * radius);
            let albedo = pick_color(&mut rng);
            let specular = rng.range_f32(0.0, 0.7);
            let shape = match (i + rng.next_usize(3) as u32) % 3 {
                0 => Shape::Sphere {
                    center,
                    radius: size,
                },
                1 => Shape::Box {
                    center,
                    half: Vec3::new(
                        size * rng.range_f32(0.6, 1.2),
                        size * rng.range_f32(0.6, 1.4),
                        size * rng.range_f32(0.6, 1.2),
                    ),
                },
                _ => Shape::Cylinder {
                    center,
                    radius: size * 0.7,
                    half_height: size * rng.range_f32(0.8, 1.6),
                },
            };
            prims.push(FieldPrimitive {
                shape,
                albedo,
                specular,
            });
        }
        let field = AnalyticField::new(prims);
        match self.flavor {
            SceneFlavor::Indoor => field.with_background(Rgb::new(0.25, 0.24, 0.26)),
            _ => field,
        }
    }

    /// The camera orbit used for test views of this scene.
    pub fn orbit(&self, width: u32, height: u32) -> Orbit {
        let (radius, cam_height, target_y) = match self.flavor {
            SceneFlavor::Object => (self.extent * 1.7, self.extent * 0.6, 0.0),
            SceneFlavor::Indoor => (self.extent * 1.2, self.extent * 0.55, self.extent * 0.25),
            SceneFlavor::Outdoor => (self.extent * 1.1, self.extent * 0.45, self.extent * 0.12),
        };
        Orbit {
            target: Vec3::new(0.0, target_y, 0.0),
            radius,
            height: cam_height,
            fov_y: 55f32.to_radians(),
            width,
            height_px: height,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_generation_is_deterministic() {
        let spec = SceneSpec::demo("a", 7);
        let f1 = spec.build_field();
        let f2 = spec.build_field();
        assert_eq!(f1.primitives().len(), f2.primitives().len());
        assert_eq!(f1.primitives()[0].albedo, f2.primitives()[0].albedo);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SceneSpec::demo("a", 1).build_field();
        let b = SceneSpec::demo("b", 2).build_field();
        // Extremely unlikely to coincide: compare first primitive SDF at a
        // probe point.
        let p = Vec3::new(0.3, 0.2, 0.1);
        assert_ne!(a.sdf(p), b.sdf(p));
    }

    #[test]
    fn object_flavor_has_no_ground() {
        let f = SceneSpec::demo("a", 3).build_field();
        assert!(f
            .primitives()
            .iter()
            .all(|p| !matches!(p.shape, Shape::Ground { .. })));
    }

    #[test]
    fn outdoor_flavor_has_ground_and_larger_extent() {
        let spec = SceneSpec::demo("o", 3).with_flavor(SceneFlavor::Outdoor);
        assert!(spec.extent >= 8.0);
        let f = spec.build_field();
        assert!(f
            .primitives()
            .iter()
            .any(|p| matches!(p.shape, Shape::Ground { .. })));
    }

    #[test]
    fn detail_scales_counts_down() {
        let full = SceneSpec::demo("a", 1).scaled_repr();
        let tiny = SceneSpec::demo("a", 1).with_detail(0.05).scaled_repr();
        assert!(tiny.target_triangles < full.target_triangles);
        assert!(tiny.gaussian_count < full.gaussian_count);
        assert!(tiny.texture_resolution < full.texture_resolution);
        assert!(tiny.train_steps < full.train_steps);
        assert!(tiny.target_triangles >= 64, "floors hold");
    }

    #[test]
    fn detail_one_is_identity_for_linear_counts() {
        let spec = SceneSpec::demo("a", 1);
        let r = spec.scaled_repr();
        assert_eq!(r.target_triangles, spec.repr.target_triangles);
        assert_eq!(r.gaussian_count, spec.repr.gaussian_count);
    }

    #[test]
    fn detail_is_clamped() {
        let spec = SceneSpec::demo("a", 1).with_detail(7.0);
        assert_eq!(spec.detail, 1.0);
        let spec = SceneSpec::demo("a", 1).with_detail(-1.0);
        assert!(spec.detail > 0.0);
    }

    #[test]
    fn orbit_sees_the_content() {
        let spec = SceneSpec::demo("a", 5);
        let orbit = spec.orbit(320, 240);
        let cam = orbit.camera_at(1.0);
        // The orbit target must project to the screen center region.
        let (screen, ..) = cam.project_to_screen(orbit.target).expect("visible");
        assert!((screen.x - 160.0).abs() < 1.0);
    }

    #[test]
    fn object_count_controls_primitives() {
        let few = SceneSpec {
            object_count: 2,
            ..SceneSpec::demo("a", 9)
        }
        .build_field();
        let many = SceneSpec {
            object_count: 12,
            ..SceneSpec::demo("a", 9)
        }
        .build_field();
        assert_eq!(many.primitives().len() - few.primitives().len(), 10);
    }
}
