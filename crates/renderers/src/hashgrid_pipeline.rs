//! The hash-grid-based rendering pipeline (Sec. II-D, Fig. 5): ray casting
//! → hash indexing → MLP → blending.
//!
//! Follows Instant-NGP's structure: multi-level hash features fetched per
//! sample, a small decoder MLP producing density and color, and an
//! occupancy-style skip (samples whose fetched density channels are empty
//! never reach the decoder).

use crate::blending::RayAccumulator;
use crate::march::{march_and_shade, MarchStats, VolumeShading};
use crate::probe::Probe;
use crate::scratch::ShadeScratch;
use crate::{emit_hash_decoder, Renderer};
use uni_geometry::sampling::XorShift64;
use uni_geometry::{Aabb, Camera, Image, Rgb, StratifiedSampler, Vec3};
use uni_microops::{Dims, IndexFunction, Invocation, Pipeline, Trace, Workload};
use uni_scene::{BakedScene, PEAK_DENSITY};

/// The hash-grid (volume rendering) pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HashGridPipeline {}

/// Per sample, the occupancy probe gates the hash fetch and the decoder.
impl VolumeShading for HashGridPipeline {
    type RayState = ();
    const SEED: u64 = 0xFEED;

    fn bounds(&self, scene: &BakedScene) -> Aabb {
        scene.hashgrid().bounds()
    }

    fn samples_per_ray(&self, scene: &BakedScene) -> u32 {
        scene.spec().scaled_repr().samples_per_ray
    }

    fn feature_dim(&self, scene: &BakedScene) -> usize {
        scene.hashgrid().config().feature_dim() as usize
    }

    // uni-lint: hot
    #[inline]
    fn shade(
        &self,
        scene: &BakedScene,
        p: Vec3,
        dt: f32,
        acc: &mut RayAccumulator,
        _: &mut (),
        scratch: &mut ShadeScratch,
    ) -> bool {
        let grid = scene.hashgrid();
        // Occupancy gate *before* the hash fetch (Instant-NGP consults its
        // occupancy grid first): the finest dense (collision-free) level is
        // the proxy — where it reads ~zero density, neither the fetch nor
        // the decoder run.
        if grid.density_probe(p) < 2e-2 {
            return false;
        }
        let ShadeScratch { feats, mlp, .. } = scratch;
        grid.fetch(p, feats);
        let out = scene.hash_decoder().forward_scratch(feats, mlp);
        let density = out[0].max(0.0) * PEAK_DENSITY;
        if density < 1e-2 {
            return true;
        }
        let color = Rgb::new(out[1], out[2], out[3]).saturate();
        acc.add_density_sample(color, density, dt);
        true
    }
}

impl HashGridPipeline {
    /// The seed-era scalar reference path: single-threaded, allocating a
    /// fresh sample vector per ray and fresh decoder activations per
    /// sample, probing and fetching through the uncached per-call
    /// `ln`/`exp` grid math and the scalar row-dot decoder kernel.
    /// Parity baseline and the "before" side of `benches/render_hot.rs`.
    pub fn render_scalar(&self, scene: &BakedScene, camera: &Camera) -> Image {
        let bg = scene.field().background();
        let mut img = Image::new(camera.width, camera.height, bg);
        let grid = scene.hashgrid();
        let decoder = scene.hash_decoder();
        let bounds = grid.bounds();
        let cfg = *grid.config();
        let samples_per_ray = scene.spec().scaled_repr().samples_per_ray as usize;
        let sampler = StratifiedSampler::new(samples_per_ray);
        let mut rng = XorShift64::new(0xFEED);
        let mut feats = vec![0f32; cfg.feature_dim() as usize];
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
                    if grid.density_probe_scalar(ray.at(t)) < 2e-2 {
                        continue;
                    }
                    grid.fetch_scalar(ray.at(t), &mut feats);
                    let out = decoder.forward_scalar(&feats);
                    let density = out[0].max(0.0) * PEAK_DENSITY;
                    if density < 1e-2 {
                        continue;
                    }
                    let color = Rgb::new(
                        out[1].clamp(0.0, 1.0),
                        out[2].clamp(0.0, 1.0),
                        out[3].clamp(0.0, 1.0),
                    );
                    acc.add_density_sample(color, density, dt);
                }
                img.set(x, y, acc.finish(bg));
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
        stats: &MarchStats,
        probe: &Probe,
    ) -> Trace {
        let mut trace = Trace::new(Pipeline::HashGrid, camera.width, camera.height);

        let repr = &scene.spec().repr;
        let scaled = scene.spec().scaled_repr();
        let sample_ratio =
            f64::from(repr.samples_per_ray) / f64::from(scaled.samples_per_ray.max(1));
        let marched = (probe.scale(stats.samples_marched) as f64 * sample_ratio) as u64;
        let fetched = (probe.scale(stats.samples_gated) as f64 * sample_ratio) as u64;

        // (1) Occupancy probe on the finest dense level (one level, one
        // channel) for every marched sample.
        let dense_res = u64::from(
            repr.hash
                .level_resolution(repr.hash.levels.saturating_sub(4))
                + 1,
        );
        trace.push(Invocation::new(
            "occupancy probe",
            Workload::GridIndex {
                points: marched.max(1),
                levels: 1,
                corners: 8,
                feature_dim: 1,
                table_bytes: (dense_res.pow(3) * 2).min(repr.hash.table_size() * 2),
                function: IndexFunction::LinearIndexing,
                dims: Dims::D3,
                decomposed: false,
            },
        ));

        // (2) Hash indexing over the full-scale multi-level grid, only for
        // samples surviving the occupancy gate.
        trace.push(Invocation::new(
            "hash indexing",
            Workload::GridIndex {
                points: fetched.max(1),
                levels: repr.hash.levels,
                corners: 8,
                feature_dim: repr.hash.features_per_entry,
                table_bytes: repr.hash.storage_bytes(),
                function: IndexFunction::RandomHash,
                dims: Dims::D3,
                decomposed: false,
            },
        ));

        // (3) Decoder MLP at full feature width on the same samples.
        emit_hash_decoder(
            &mut trace,
            "decoder",
            repr.hash.feature_dim(),
            fetched.max(1),
        );

        // (4) Blending.
        trace.push(
            Invocation::new(
                "blending",
                Workload::Gemm {
                    batch: fetched.max(1),
                    in_dim: 1,
                    out_dim: 4,
                    weight_bytes: 0,
                },
            )
            .with_sfu_ops(fetched.max(1)),
        );
        trace
    }
}

impl Renderer for HashGridPipeline {
    fn pipeline(&self) -> Pipeline {
        Pipeline::HashGrid
    }

    fn render_into(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) {
        march_and_shade(scene, camera, target, self);
    }

    fn render_traced(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) -> Trace {
        let stats = march_and_shade(scene, camera, target, self);
        self.trace_from(scene, camera, &stats, &Probe::exact(camera))
    }

    fn trace(&self, scene: &BakedScene, camera: &Camera) -> Trace {
        let probe = Probe::plan(camera);
        let stats = march_and_shade(scene, &probe.camera, &mut Image::empty(), self);
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
        let img = HashGridPipeline::default().render(scene, &camera);
        let bg = scene.field().background();
        let non_bg = img
            .pixels()
            .iter()
            .filter(|p| (p.r - bg.r).abs() + (p.g - bg.g).abs() + (p.b - bg.b).abs() > 0.05)
            .count();
        assert!(non_bg > 30, "{non_bg} non-background pixels");
    }

    #[test]
    fn trace_uses_random_hash_combined_indexing() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = HashGridPipeline::default().trace(scene, &camera);
        let hash = trace
            .iter()
            .find(|i| i.stage() == "hash indexing")
            .expect("hash stage");
        assert_eq!(hash.op(), MicroOp::CombinedGridIndexing);
        if let Workload::GridIndex {
            function,
            corners,
            levels,
            dims,
            ..
        } = hash.workload()
        {
            assert_eq!(*function, IndexFunction::RandomHash);
            assert_eq!(*corners, 8, "trilinear over nearest vertices");
            assert_eq!(*levels, scene.spec().repr.hash.levels);
            assert_eq!(*dims, Dims::D3);
        } else {
            panic!("expected grid index");
        }
    }

    #[test]
    fn occupancy_skip_gates_the_fetch() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 64, 48);
        let stats = march_and_shade(
            scene,
            &camera,
            &mut Image::empty(),
            &HashGridPipeline::default(),
        );
        assert!(stats.samples_marched > 0);
        assert!(stats.samples_gated > 0, "some samples survive the gate");
        assert!(
            stats.samples_gated < stats.samples_marched,
            "fetch only on occupied samples: {} of {}",
            stats.samples_gated,
            stats.samples_marched
        );
    }

    #[test]
    fn trace_micro_op_sequence() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = HashGridPipeline::default().trace(scene, &camera);
        assert_eq!(
            trace.micro_ops_used(),
            vec![MicroOp::CombinedGridIndexing, MicroOp::Gemm]
        );
        assert_eq!(trace.reconfiguration_count(), 1);
    }

    #[test]
    fn hash_table_traffic_is_bounded_by_table_size() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 1280, 720);
        let trace = HashGridPipeline::default().trace(scene, &camera);
        let cost = trace
            .iter()
            .find(|i| i.stage() == "hash indexing")
            .expect("hash stage")
            .cost();
        let table = scene.spec().repr.hash.storage_bytes();
        assert!(
            cost.dram_read_bytes <= table + cost.items * 12 + 1,
            "unique-byte bound holds"
        );
    }
}
