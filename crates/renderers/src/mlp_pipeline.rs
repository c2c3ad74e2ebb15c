//! The MLP-based rendering pipeline (Sec. II-B, Fig. 3): ray casting → MLP
//! → blending.
//!
//! Follows KiloNeRF's structure (the accuracy/efficiency representative the
//! paper benchmarks): a coarse cell grid of tiny MLPs with occupancy
//! skipping, composited by volume rendering. The optional *Pixel-Reuse*
//! mode models MetaVRain's ~20× computation cut from reusing pixels across
//! nearby frames (Tab. IV's extra row); the paper does not enable it by
//! default because it assumes slow camera motion.

use crate::blending::RayAccumulator;
use crate::probe::Probe;
use crate::Renderer;
use uni_geometry::sampling::XorShift64;
use uni_geometry::{Camera, Image, Rgb, StratifiedSampler};
use uni_microops::{Invocation, Pipeline, Trace, Workload};
use uni_scene::BakedScene;

/// Compute reduction factor of MetaVRain-style Pixel-Reuse (Sec. VII-B:
/// "reducing the computation by ∼20×").
pub const PIXEL_REUSE_FACTOR: u64 = 20;

/// The MLP-based (volume rendering) pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MlpPipeline {
    /// Enables MetaVRain-style Pixel-Reuse in the emitted workload.
    pub pixel_reuse: bool,
}

impl MlpPipeline {
    /// Enables Pixel-Reuse (Tab. IV's "w/ Pixel-Reuse" row).
    pub fn with_pixel_reuse(mut self) -> Self {
        self.pixel_reuse = true;
        self
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct VolumeStats {
    rays: u64,
    rays_in_bounds: u64,
    samples_tested: u64,
    samples_occupied: u64,
}

impl VolumeStats {
    fn merge(&mut self, o: VolumeStats) {
        self.rays += o.rays;
        self.rays_in_bounds += o.rays_in_bounds;
        self.samples_tested += o.samples_tested;
        self.samples_occupied += o.samples_occupied;
    }
}

impl MlpPipeline {
    /// Renders the scanlines starting at row `y0` into `chunk` (whole
    /// rows, row-major), using the caller's ray scratch arena. The band
    /// loop for the parallel path and, over the full image, the scalar
    /// reference.
    // uni-lint: hot
    fn render_rows(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        y0: u32,
        chunk: &mut [Rgb],
        rs: &mut crate::scratch::RayScratch,
    ) -> VolumeStats {
        let field_bg = scene.field().background();
        let bounds = scene.kilonerf().bounds();
        let samples_per_ray = scene.spec().scaled_repr().mlp_samples_per_ray as usize;
        let sampler = StratifiedSampler::new(samples_per_ray);
        let mut rng = XorShift64::new(0xC0FFEE);
        let width = camera.width as usize;
        let rows = chunk.len() / width.max(1);
        let mut stats = VolumeStats::default();
        let rays = camera.ray_generator();
        let crate::scratch::RayScratch { ts, kilo, .. } = rs;
        for dy in 0..rows {
            let y = y0 + dy as u32;
            let row = &mut chunk[dy * width..(dy + 1) * width];
            for x in 0..camera.width {
                stats.rays += 1;
                let ray = rays.ray(x as f32 + 0.5, y as f32 + 0.5);
                let Some((t0, t1)) = bounds.intersect_ray(&ray, camera.near, camera.far) else {
                    continue;
                };
                stats.rays_in_bounds += 1;
                let mut acc = RayAccumulator::new();
                sampler.sample_into(t0, t1, &mut rng, ts);
                let dt = (t1 - t0) / samples_per_ray.max(1) as f32;
                for &t in ts.iter() {
                    if acc.saturated() {
                        break;
                    }
                    stats.samples_tested += 1;
                    // Occupancy skip: empty cells never reach an MLP.
                    if let Some(s) = scene.kilonerf().query_scratch(ray.at(t), kilo) {
                        stats.samples_occupied += 1;
                        if s.density > 1e-3 {
                            acc.add_density_sample(s.color, s.density, dt);
                        }
                    }
                }
                row[x as usize] = acc.finish(field_bg);
            }
        }
        stats
    }

    fn render_internal(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        target: &mut Image,
    ) -> VolumeStats {
        let field_bg = scene.field().background();
        target.resize(camera.width, camera.height, field_bg);
        let width = camera.width as usize;
        let band_len = crate::scratch::BAND_ROWS as usize * width;
        uni_parallel::par_bands_fold(
            target.pixels_mut(),
            band_len,
            VolumeStats::default(),
            |band, chunk| {
                crate::scratch::with_ray_scratch(|rs| {
                    self.render_rows(
                        scene,
                        camera,
                        band as u32 * crate::scratch::BAND_ROWS,
                        chunk,
                        rs,
                    )
                })
            },
            |mut acc, s| {
                acc.merge(s);
                acc
            },
        )
    }

    /// The seed-era scalar reference path: single-threaded, allocating a
    /// fresh sample vector per ray and fresh MLP activations per query.
    /// Parity baseline and the "before" side of `benches/render_hot.rs`.
    pub fn render_scalar(&self, scene: &BakedScene, camera: &Camera) -> Image {
        let field_bg = scene.field().background();
        let mut img = Image::new(camera.width, camera.height, field_bg);
        let bounds = scene.kilonerf().bounds();
        let samples_per_ray = scene.spec().scaled_repr().mlp_samples_per_ray as usize;
        let sampler = StratifiedSampler::new(samples_per_ray);
        let mut rng = XorShift64::new(0xC0FFEE);
        for y in 0..camera.height {
            for x in 0..camera.width {
                let ray = camera.primary_ray(x as f32 + 0.5, y as f32 + 0.5);
                let Some((t0, t1)) = bounds.intersect_ray(&ray, camera.near, camera.far) else {
                    continue;
                };
                let mut acc = RayAccumulator::new();
                let ts = sampler.sample(t0, t1, &mut rng);
                let dt = (t1 - t0) / samples_per_ray.max(1) as f32;
                for &t in &ts {
                    if acc.saturated() {
                        break;
                    }
                    if let Some(s) = scene.kilonerf().query(ray.at(t)) {
                        if s.density > 1e-3 {
                            acc.add_density_sample(s.color, s.density, dt);
                        }
                    }
                }
                img.set(x, y, acc.finish(field_bg));
            }
        }
        img
    }

    /// The pipeline's one trace builder: turns a render's sample counts
    /// into the frame's micro-operator trace. `probe` scales the
    /// resolution-proportional counts from the rendered camera up to
    /// `camera` (identity for [`Renderer::render_traced`]).
    fn trace_from(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        stats: &VolumeStats,
        probe: &Probe,
    ) -> Trace {
        let mut trace = Trace::new(Pipeline::Mlp, camera.width, camera.height);

        let repr = &scene.spec().repr; // Full-scale constants.
        let scaled = scene.spec().scaled_repr();
        let reuse = if self.pixel_reuse {
            PIXEL_REUSE_FACTOR
        } else {
            1
        };

        // Occupancy fraction measured on the probe transfers to full scale
        // (same field content); sample counts rescale from the probe's
        // (possibly detail-reduced) samples-per-ray to the full value.
        let sample_ratio =
            f64::from(repr.mlp_samples_per_ray) / f64::from(scaled.mlp_samples_per_ray.max(1));
        let occupied = (probe.scale(stats.samples_occupied) as f64 * sample_ratio) as u64 / reuse;

        // The tiny-MLP complement at full scale: every occupied cell owns a
        // network whose weights stream through the FF scratchpads.
        let occupancy = scene.kilonerf().occupancy();
        let full_cells = u64::from(repr.kilonerf_grid).pow(3);
        let occupied_cells = (occupancy * full_cells as f64).ceil() as u64;
        let encoding = scene.kilonerf().encoding();

        // Layer shapes come from the baked tiny MLPs so render and trace
        // describe the same networks.
        let layers = scene.kilonerf().mlps()[0].layers();
        for (i, layer) in layers.iter().enumerate() {
            let mut inv = Invocation::new(
                format!("tiny-mlp layer {i}"),
                Workload::Gemm {
                    batch: occupied.max(1),
                    in_dim: layer.in_dim() as u32,
                    out_dim: layer.out_dim() as u32,
                    weight_bytes: layer.param_count() as u64 * 2 * occupied_cells,
                },
            );
            if i == 0 {
                // Positional encoding: sin/cos SFU ops per sample.
                inv = inv.with_sfu_ops(encoding.sfu_ops_per_point() * occupied.max(1));
            }
            trace.push(inv);
        }

        // Blending: one exp + weighted accumulate per composited sample.
        trace.push(
            Invocation::new(
                "blending",
                Workload::Gemm {
                    batch: occupied.max(1),
                    in_dim: 1,
                    out_dim: 4,
                    weight_bytes: 0,
                },
            )
            .with_sfu_ops(occupied.max(1)),
        );
        trace
    }
}

impl Renderer for MlpPipeline {
    fn pipeline(&self) -> Pipeline {
        Pipeline::Mlp
    }

    fn render_into(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) {
        self.render_internal(scene, camera, target);
    }

    fn render_traced(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) -> Trace {
        let stats = self.render_internal(scene, camera, target);
        self.trace_from(scene, camera, &stats, &Probe::exact(camera))
    }

    fn trace(&self, scene: &BakedScene, camera: &Camera) -> Trace {
        let probe = Probe::plan(camera);
        let stats = self.render_internal(scene, &probe.camera, &mut Image::empty());
        self.trace_from(scene, camera, &stats, &probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use uni_microops::MicroOp;

    #[test]
    fn renders_the_trained_content() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 48, 36);
        let img = MlpPipeline::default().render(scene, &camera);
        let bg = scene.field().background();
        let non_bg = img
            .pixels()
            .iter()
            .filter(|p| (p.r - bg.r).abs() + (p.g - bg.g).abs() + (p.b - bg.b).abs() > 0.05)
            .count();
        assert!(non_bg > 30, "{non_bg} non-background pixels");
    }

    #[test]
    fn trace_is_gemm_only() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = MlpPipeline::default().trace(scene, &camera);
        assert_eq!(trace.micro_ops_used(), vec![MicroOp::Gemm]);
        // No reconfiguration needed within a pure-GEMM pipeline.
        assert_eq!(trace.reconfiguration_count(), 0);
    }

    #[test]
    fn positional_encoding_contributes_sfu_ops() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 320, 240);
        let trace = MlpPipeline::default().trace(scene, &camera);
        let total = trace.total_cost();
        assert!(total.sfu_ops > 0, "PE + blending exp are SFU work");
    }

    #[test]
    fn pixel_reuse_cuts_compute_about_twenty_fold() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let base = MlpPipeline::default().trace(scene, &camera).total_cost();
        let reuse = MlpPipeline::default()
            .with_pixel_reuse()
            .trace(scene, &camera)
            .total_cost();
        let ratio = base.fp_macs as f64 / reuse.fp_macs.max(1) as f64;
        assert!(
            (10.0..=25.0).contains(&ratio),
            "~20x compute reduction, got {ratio:.1}x"
        );
    }

    #[test]
    fn occupancy_skip_reduces_mlp_evaluations() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 64, 48);
        let stats = MlpPipeline::default().render_internal(scene, &camera, &mut Image::empty());
        assert!(stats.samples_tested > 0);
        assert!(
            stats.samples_occupied < stats.samples_tested,
            "empty space must be skipped: {} occupied of {}",
            stats.samples_occupied,
            stats.samples_tested
        );
        assert!(stats.rays_in_bounds <= stats.rays);
    }

    #[test]
    fn trace_weight_traffic_covers_occupied_cells() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 320, 240);
        let trace = MlpPipeline::default().trace(scene, &camera);
        let first = &trace.invocations()[0];
        if let Workload::Gemm { weight_bytes, .. } = first.workload() {
            assert!(*weight_bytes > 0, "weights stream per occupied cell");
        } else {
            panic!("expected GEMM");
        }
    }
}
