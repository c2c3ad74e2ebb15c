//! The low-rank-decomposed-grid-based rendering pipeline (Sec. II-C,
//! Fig. 4): ray casting → low-rank decomposed indexing → MLP → blending.
//!
//! Follows MeRF's structure: tri-plane + low-res-grid features are
//! aggregated per sample, diffuse color and density are decoded directly,
//! and a small *deferred* MLP adds view-dependent color once per pixel.

use crate::blending::RayAccumulator;
use crate::probe::Probe;
use crate::{emit_mlp_layers, Renderer};
use uni_geometry::sampling::XorShift64;
use uni_geometry::{Camera, Image, Rgb, StratifiedSampler};
use uni_microops::{Dims, IndexFunction, Invocation, Pipeline, Trace, Workload};
use uni_scene::{BakedScene, PEAK_DENSITY};

/// The low-rank-decomposed-grid (volume rendering) pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LowRankPipeline {}

#[derive(Debug, Clone, Copy, Default)]
struct LowRankStats {
    rays: u64,
    rays_in_bounds: u64,
    samples_tested: u64,
    samples_contributing: u64,
    pixels_deferred: u64,
}

impl LowRankStats {
    fn merge(&mut self, o: LowRankStats) {
        self.rays += o.rays;
        self.rays_in_bounds += o.rays_in_bounds;
        self.samples_tested += o.samples_tested;
        self.samples_contributing += o.samples_contributing;
        self.pixels_deferred += o.pixels_deferred;
    }
}

impl LowRankPipeline {
    /// Renders the scanlines starting at row `y0` into `chunk` (whole
    /// rows, row-major), using the caller's ray scratch arena.
    // uni-lint: hot
    fn render_rows(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        y0: u32,
        chunk: &mut [Rgb],
        rs: &mut crate::scratch::RayScratch,
    ) -> LowRankStats {
        let bg = scene.field().background();
        let tp = scene.triplane();
        let bounds = tp.bounds();
        let channels = tp.config().channels as usize;
        let samples_per_ray = scene.spec().scaled_repr().samples_per_ray as usize;
        let sampler = StratifiedSampler::new(samples_per_ray);
        let mut rng = XorShift64::new(0xDECAF);
        let width = camera.width as usize;
        let rows = chunk.len() / width.max(1);
        let mut stats = LowRankStats::default();
        let rays = camera.ray_generator();
        {
            let crate::scratch::RayScratch { ts, feats, mlp, .. } = rs;
            feats.clear();
            feats.resize(channels, 0.0);
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
                    // Deferred view-dependence features accumulate alongside
                    // color, weighted by the same compositing weights.
                    let mut spec_feats = [0f32; 4];
                    sampler.sample_into(t0, t1, &mut rng, ts);
                    let dt = (t1 - t0) / samples_per_ray.max(1) as f32;
                    for &t in ts.iter() {
                        if acc.saturated() {
                            break;
                        }
                        stats.samples_tested += 1;
                        tp.fetch(ray.at(t), feats);
                        let density = feats[0].max(0.0) * PEAK_DENSITY;
                        if density < 1e-2 {
                            continue;
                        }
                        stats.samples_contributing += 1;
                        let diffuse = Rgb::new(
                            feats[1].clamp(0.0, 1.0),
                            feats[2].clamp(0.0, 1.0),
                            feats[3].clamp(0.0, 1.0),
                        );
                        let t_before = acc.transmittance();
                        acc.add_density_sample(diffuse, density, dt);
                        let weight = t_before - acc.transmittance();
                        for (sf, &f) in spec_feats.iter_mut().zip(&feats[4..8]) {
                            *sf += weight * f;
                        }
                    }
                    let mut color = acc.finish_premultiplied().0;
                    let alpha = 1.0 - acc.transmittance();
                    if alpha > 1e-3 {
                        stats.pixels_deferred += 1;
                        let spec = scene.deferred_mlp().forward_scratch(
                            &[
                                spec_feats[0],
                                spec_feats[1],
                                spec_feats[2],
                                spec_feats[3],
                                ray.direction.x,
                                ray.direction.y,
                                ray.direction.z,
                            ],
                            mlp,
                        );
                        color = Rgb::new(color.r + spec[0], color.g + spec[1], color.b + spec[2]);
                    }
                    row[x as usize] = (color + bg * acc.transmittance()).saturate();
                }
            }
        }
        stats
    }

    fn render_internal(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        target: &mut Image,
    ) -> LowRankStats {
        let bg = scene.field().background();
        target.resize(camera.width, camera.height, bg);
        let width = camera.width as usize;
        let band_len = crate::scratch::BAND_ROWS as usize * width;
        uni_parallel::par_bands_fold(
            target.pixels_mut(),
            band_len,
            LowRankStats::default(),
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
    /// fresh sample vector per ray and fresh deferred-MLP activations per
    /// covered pixel, fetching features with the per-channel
    /// [`uni_scene::Triplane::fetch_scalar`] loops and decoding with the
    /// scalar row-dot kernel. Parity baseline and the "before" side of
    /// `benches/render_hot.rs`.
    pub fn render_scalar(&self, scene: &BakedScene, camera: &Camera) -> Image {
        let bg = scene.field().background();
        let mut img = Image::new(camera.width, camera.height, bg);
        let tp = scene.triplane();
        let bounds = tp.bounds();
        let channels = tp.config().channels as usize;
        let samples_per_ray = scene.spec().scaled_repr().samples_per_ray as usize;
        let sampler = StratifiedSampler::new(samples_per_ray);
        let mut rng = XorShift64::new(0xDECAF);
        let mut feats = vec![0f32; channels];
        for y in 0..camera.height {
            for x in 0..camera.width {
                let ray = camera.primary_ray(x as f32 + 0.5, y as f32 + 0.5);
                let Some((t0, t1)) = bounds.intersect_ray(&ray, camera.near, camera.far) else {
                    continue;
                };
                let mut acc = RayAccumulator::new();
                let mut spec_feats = [0f32; 4];
                let ts = sampler.sample(t0, t1, &mut rng);
                let dt = (t1 - t0) / samples_per_ray.max(1) as f32;
                for &t in &ts {
                    if acc.saturated() {
                        break;
                    }
                    tp.fetch_scalar(ray.at(t), &mut feats);
                    let density = feats[0].max(0.0) * PEAK_DENSITY;
                    if density < 1e-2 {
                        continue;
                    }
                    let diffuse = Rgb::new(
                        feats[1].clamp(0.0, 1.0),
                        feats[2].clamp(0.0, 1.0),
                        feats[3].clamp(0.0, 1.0),
                    );
                    let t_before = acc.transmittance();
                    acc.add_density_sample(diffuse, density, dt);
                    let weight = t_before - acc.transmittance();
                    for (sf, &f) in spec_feats.iter_mut().zip(&feats[4..8]) {
                        *sf += weight * f;
                    }
                }
                let mut color = acc.finish_premultiplied().0;
                let alpha = 1.0 - acc.transmittance();
                if alpha > 1e-3 {
                    let spec = scene.deferred_mlp().forward_scalar(&[
                        spec_feats[0],
                        spec_feats[1],
                        spec_feats[2],
                        spec_feats[3],
                        ray.direction.x,
                        ray.direction.y,
                        ray.direction.z,
                    ]);
                    color = Rgb::new(color.r + spec[0], color.g + spec[1], color.b + spec[2]);
                }
                img.set(x, y, (color + bg * acc.transmittance()).saturate());
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
        stats: &LowRankStats,
        probe: &Probe,
    ) -> Trace {
        let mut trace = Trace::new(Pipeline::LowRankGrid, camera.width, camera.height);

        let repr = &scene.spec().repr;
        let scaled = scene.spec().scaled_repr();
        let sample_ratio =
            f64::from(repr.samples_per_ray) / f64::from(scaled.samples_per_ray.max(1));
        let points = (probe.scale(stats.samples_tested) as f64 * sample_ratio) as u64;
        let contributing = (probe.scale(stats.samples_contributing) as f64 * sample_ratio) as u64;
        let channels = repr.triplane.channels;
        let plane_bytes =
            3 * u64::from(repr.triplane.plane_resolution).pow(2) * u64::from(channels);
        let grid_bytes = u64::from(repr.triplane.grid_resolution).pow(3) * u64::from(channels);

        // (1) Per-plane bilinear indexing: 3 planes per sample (the
        // per-PE-line interpolation of Fig. 12).
        trace.push(Invocation::new(
            "plane indexing",
            Workload::GridIndex {
                points: points.max(1),
                levels: 3,
                corners: 4,
                feature_dim: channels,
                table_bytes: plane_bytes,
                function: IndexFunction::LinearIndexing,
                dims: Dims::D2,
                decomposed: true,
            },
        ));

        // (2) Low-res 3D grid, trilinear, aggregated across PE lines.
        trace.push(Invocation::new(
            "grid indexing",
            Workload::GridIndex {
                points: points.max(1),
                levels: 1,
                corners: 8,
                feature_dim: channels,
                table_bytes: grid_bytes,
                function: IndexFunction::LinearIndexing,
                dims: Dims::D3,
                decomposed: true,
            },
        ));

        // (3) Deferred view-dependence MLP, once per covered pixel.
        let deferred = probe.scale(stats.pixels_deferred).max(1);
        emit_mlp_layers(
            &mut trace,
            "deferred mlp",
            scene.deferred_mlp(),
            deferred,
            0,
        );

        // (4) Blending with one exp per contributing sample.
        trace.push(
            Invocation::new(
                "blending",
                Workload::Gemm {
                    batch: contributing.max(1),
                    in_dim: 1,
                    out_dim: 8, // RGB + the 4 deferred features + alpha.
                    weight_bytes: 0,
                },
            )
            .with_sfu_ops(contributing.max(1)),
        );
        trace
    }
}

impl Renderer for LowRankPipeline {
    fn pipeline(&self) -> Pipeline {
        Pipeline::LowRankGrid
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
    fn renders_content() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 48, 36);
        let img = LowRankPipeline::default().render(scene, &camera);
        let bg = scene.field().background();
        let non_bg = img
            .pixels()
            .iter()
            .filter(|p| (p.r - bg.r).abs() + (p.g - bg.g).abs() + (p.b - bg.b).abs() > 0.05)
            .count();
        assert!(non_bg > 30, "{non_bg} non-background pixels");
    }

    #[test]
    fn trace_uses_decomposed_grid_indexing() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = LowRankPipeline::default().trace(scene, &camera);
        let stats = trace.stats();
        assert!(stats.invocations_of(MicroOp::DecomposedGridIndexing) >= 2);
        assert!(stats.invocations_of(MicroOp::Gemm) >= 3);
        assert_eq!(stats.invocations_of(MicroOp::CombinedGridIndexing), 0);
        assert_eq!(stats.invocations_of(MicroOp::Sorting), 0);
    }

    #[test]
    fn plane_and_grid_indexing_have_correct_shapes() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 320, 240);
        let trace = LowRankPipeline::default().trace(scene, &camera);
        let plane = trace
            .iter()
            .find(|i| i.stage() == "plane indexing")
            .expect("plane stage");
        if let Workload::GridIndex {
            levels,
            corners,
            dims,
            decomposed,
            ..
        } = plane.workload()
        {
            assert_eq!(*levels, 3, "three projection planes");
            assert_eq!(*corners, 4, "bilinear");
            assert_eq!(*dims, Dims::D2);
            assert!(decomposed);
        } else {
            panic!("expected grid index");
        }
        let grid = trace
            .iter()
            .find(|i| i.stage() == "grid indexing")
            .expect("grid stage");
        if let Workload::GridIndex { corners, dims, .. } = grid.workload() {
            assert_eq!(*corners, 8, "trilinear");
            assert_eq!(*dims, Dims::D3);
        } else {
            panic!("expected grid index");
        }
    }

    #[test]
    fn deferred_mlp_runs_per_pixel_not_per_sample() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = LowRankPipeline::default().trace(scene, &camera);
        let plane_points = match trace.invocations()[0].workload() {
            Workload::GridIndex { points, .. } => *points,
            _ => panic!(),
        };
        let deferred_batch = trace
            .iter()
            .find(|i| i.stage().starts_with("deferred mlp"))
            .map(|i| match i.workload() {
                Workload::Gemm { batch, .. } => *batch,
                _ => panic!(),
            })
            .expect("deferred stage");
        assert!(
            deferred_batch * 4 < plane_points,
            "deferred ({deferred_batch}) runs far less often than sampling ({plane_points})"
        );
    }
}
