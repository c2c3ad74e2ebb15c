//! The hybrid MixRT-style pipeline (Sec. VII-C): mesh rasterization for
//! geometry + a hash-grid color field for appearance.
//!
//! MixRT [51] combines the mesh pipeline's fast geometry resolution with
//! the hash-grid pipeline's compact view-dependent appearance: the
//! rasterizer finds the surface point per pixel, then a single hash-grid
//! fetch + decoder MLP evaluation shades it (no per-ray marching). This is
//! the pipeline that crosses the most micro-operator families per frame —
//! the stress test for the accelerator's reconfigurability.

use crate::mesh_pipeline::{
    push_raster_stages, rasterize_and_shade, rasterize_into, rasterize_scalar, PixelHitPublic,
    RasterStats,
};
use crate::probe::Probe;
use crate::{emit_hash_decoder, Renderer};
use uni_geometry::{Camera, Image, Rgb};
use uni_microops::{Dims, IndexFunction, Invocation, Pipeline, Trace, Workload};
use uni_scene::{BakedScene, PEAK_DENSITY};

/// The hybrid mesh + hash-grid pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MixRtPipeline {}

impl MixRtPipeline {
    /// Surface-shades rows `[y0, y0 + rows)` from the hit buffer: one
    /// hash fetch + decoder evaluation per covered pixel, using the
    /// caller's ray scratch arena.
    fn shade_rows(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        hits: &[Option<PixelHitPublic>],
        y0: u32,
        chunk: &mut [Rgb],
        rs: &mut crate::scratch::RayScratch,
    ) {
        let bg = scene.field().background();
        let grid = scene.hashgrid();
        let decoder = scene.hash_decoder();
        let mesh = scene.mesh();
        let width = camera.width as usize;
        let rows = chunk.len() / width.max(1);
        {
            let crate::scratch::RayScratch { feats, mlp, .. } = rs;
            feats.clear();
            feats.resize(grid.config().feature_dim() as usize, 0.0);
            for dy in 0..rows {
                let y = y0 + dy as u32;
                let row = &mut chunk[dy * width..(dy + 1) * width];
                for x in 0..camera.width {
                    let Some(hit) = hits[(y * camera.width + x) as usize] else {
                        continue;
                    };
                    // Surface point from the rasterizer's barycentrics.
                    let [a, b, c] = mesh.triangle(hit.triangle as usize);
                    let (w0, w1, w2) = hit.bary;
                    let p = a * w0 + b * w1 + c * w2;
                    grid.fetch(p, feats);
                    let out = decoder.forward_scratch(feats, mlp);
                    // The decoded density gates surface confidence; color
                    // comes from the field decode.
                    let density = out[0].max(0.0) * PEAK_DENSITY;
                    let color = Rgb::new(
                        out[1].clamp(0.0, 1.0),
                        out[2].clamp(0.0, 1.0),
                        out[3].clamp(0.0, 1.0),
                    );
                    let confidence = (density / 8.0).clamp(0.0, 1.0);
                    row[x as usize] = bg.lerp(color, confidence);
                }
            }
        }
    }

    /// Single-threaded whole-frame reference path (parity/bench baseline).
    pub fn render_scalar(&self, scene: &BakedScene, camera: &Camera) -> Image {
        let (hits, _) = rasterize_scalar(scene.mesh(), camera);
        let mut img = Image::new(camera.width, camera.height, scene.field().background());
        crate::scratch::with_ray_scratch(|rs| {
            self.shade_rows(scene, camera, &hits, 0, img.pixels_mut(), rs);
        });
        img
    }

    /// Rasterizes and surface-shades one frame through this thread's
    /// raster scratch, returning the rasterizer's work counts.
    fn render_internal(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        target: &mut Image,
    ) -> RasterStats {
        rasterize_and_shade(scene, camera, target, |hits, y0, chunk, rs| {
            self.shade_rows(scene, camera, hits, y0, chunk, rs);
        })
    }

    /// The pipeline's one trace builder: turns a rasterization's counts
    /// into the frame's micro-operator trace. `probe` scales the
    /// resolution-proportional counts from the rasterized camera up to
    /// `camera` (identity for [`Renderer::render_traced`]).
    fn trace_from(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        stats: &RasterStats,
        probe: &Probe,
    ) -> Trace {
        let mut trace = Trace::new(Pipeline::HybridMixRt, camera.width, camera.height);
        let covered = push_raster_stages(&mut trace, scene, camera, stats, probe);
        let repr = &scene.spec().repr;

        // (3) One hash fetch per covered pixel (MixRT stores a reduced
        // color field — half the full hash budget, since surface shading
        // needs appearance only).
        trace.push(Invocation::new(
            "surface hash indexing",
            Workload::GridIndex {
                points: covered.max(1),
                levels: repr.hash.levels,
                corners: 8,
                feature_dim: repr.hash.features_per_entry,
                table_bytes: repr.hash.storage_bytes() / 2,
                function: IndexFunction::RandomHash,
                dims: Dims::D3,
                decomposed: false,
            },
        ));

        // (4) Decoder MLP per covered pixel.
        emit_hash_decoder(
            &mut trace,
            "surface decoder",
            repr.hash.feature_dim(),
            covered.max(1),
        );
        trace
    }
}

impl Renderer for MixRtPipeline {
    fn pipeline(&self) -> Pipeline {
        Pipeline::HybridMixRt
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
        let stats = crate::scratch::with_raster_scratch(|rs| {
            rasterize_into(scene.mesh(), &probe.camera, rs)
        });
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
        let camera = testutil::camera(scene, 64, 48);
        let img = MixRtPipeline::default().render(scene, &camera);
        let bg = scene.field().background();
        let non_bg = img
            .pixels()
            .iter()
            .filter(|p| (p.r - bg.r).abs() + (p.g - bg.g).abs() + (p.b - bg.b).abs() > 0.05)
            .count();
        assert!(non_bg > 100, "{non_bg} non-background pixels");
    }

    #[test]
    fn hybrid_trace_crosses_three_op_families() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = MixRtPipeline::default().trace(scene, &camera);
        let ops = trace.micro_ops_used();
        assert!(ops.contains(&MicroOp::Gemm));
        assert!(ops.contains(&MicroOp::GeometricProcessing));
        assert!(ops.contains(&MicroOp::CombinedGridIndexing));
        assert!(trace.reconfiguration_count() >= 3);
    }

    #[test]
    fn no_per_ray_marching_single_fetch_per_pixel() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let hybrid = MixRtPipeline::default().trace(scene, &camera);
        let hash_points = hybrid
            .iter()
            .find(|i| i.stage() == "surface hash indexing")
            .map(|i| match i.workload() {
                Workload::GridIndex { points, .. } => *points,
                _ => panic!(),
            })
            .expect("hash stage");
        // At most one fetch per pixel — versus samples-per-ray fetches in
        // the pure hash-grid pipeline.
        assert!(hash_points <= camera.pixel_count());
    }

    #[test]
    fn hybrid_is_cheaper_than_pure_hash_grid() {
        use crate::hashgrid_pipeline::HashGridPipeline;
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let hybrid = MixRtPipeline::default().trace(scene, &camera).total_cost();
        let hash = HashGridPipeline::default()
            .trace(scene, &camera)
            .total_cost();
        assert!(
            hybrid.fp_macs < hash.fp_macs,
            "one fetch/pixel beats marching: {} vs {}",
            hybrid.fp_macs,
            hash.fp_macs
        );
    }
}
