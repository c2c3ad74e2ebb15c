//! The mesh-based rendering pipeline (Sec. II-A, Fig. 2): space conversion →
//! rasterization → texture indexing → MLP.
//!
//! Follows MobileNeRF's structure: a baked triangle mesh with a feature
//! texture atlas, rasterized with a Z-buffer, shaded by a small deferred
//! MLP for view-dependent color.

use crate::binning::BinRect;
use crate::probe::Probe;
use crate::{emit_mlp_layers, Renderer};
use uni_geometry::{Camera, Image, Rgb, Vec2, Vec3};
use uni_microops::{Dims, IndexFunction, Invocation, Pipeline, PrimitiveKind, Trace, Workload};
use uni_scene::{BakedScene, TriangleMesh};

/// The mesh-based (rasterization) pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshPipeline {
    /// Rasterizer processing tile size in pixels (PE pixel-region size in
    /// the Geometric Processing dataflow, Fig. 10).
    pub tile_size: u32,
}

impl Default for MeshPipeline {
    fn default() -> Self {
        Self { tile_size: 16 }
    }
}

/// Exact work counts from one rasterization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RasterStats {
    pub vertices_projected: u64,
    pub triangles_streamed: u64,
    pub candidate_pairs: u64,
    pub zbuffer_updates: u64,
    pub covered_pixels: u64,
}

impl RasterStats {
    fn merge(&mut self, o: RasterStats) {
        self.vertices_projected += o.vertices_projected;
        self.triangles_streamed += o.triangles_streamed;
        self.candidate_pairs += o.candidate_pairs;
        self.zbuffer_updates += o.zbuffer_updates;
        self.covered_pixels += o.covered_pixels;
    }
}

/// One triangle's screen-space set-up: its projected corners (screen
/// position, view depth) and its clamped bounding box, the PE pre-load
/// region of Fig. 10.
#[derive(Debug, Clone, Copy)]
struct TriSetup {
    a: (Vec2, f32),
    b: (Vec2, f32),
    c: (Vec2, f32),
    min_x: usize,
    max_x: usize,
    min_y: usize,
    max_y: usize,
}

impl TriSetup {
    /// Sets up triangle `t` on a `w × h` frame. `None` when the near
    /// plane clips a corner or the bounding box misses the frame.
    #[inline]
    fn new(
        mesh: &TriangleMesh,
        projected: &[Option<(Vec2, f32)>],
        t: usize,
        w: usize,
        h: usize,
    ) -> Option<Self> {
        if w == 0 || h == 0 {
            return None;
        }
        let i = t * 3;
        let a = projected[mesh.indices[i] as usize]?;
        let b = projected[mesh.indices[i + 1] as usize]?;
        let c = projected[mesh.indices[i + 2] as usize]?;
        let min_x = a.0.x.min(b.0.x).min(c.0.x).floor().max(0.0) as usize;
        let max_x = (a.0.x.max(b.0.x).max(c.0.x).ceil() as usize).min(w - 1);
        let min_y = a.0.y.min(b.0.y).min(c.0.y).floor().max(0.0) as usize;
        let max_y = (a.0.y.max(b.0.y).max(c.0.y).ceil() as usize).min(h - 1);
        (min_x <= max_x && min_y <= max_y).then_some(Self {
            a,
            b,
            c,
            min_x,
            max_x,
            min_y,
            max_y,
        })
    }
}

/// Rasterizes triangles `tris` (ascending indices) into the Z-buffer
/// band of rows `[y0, y0 + rows)` (`rows × width` slots).
///
/// The banded pass hands each band only its own bin of triangles (the
/// ones whose bounding box reaches it); the scalar pass hands the one
/// whole-frame band every triangle. Either way each pixel sees its
/// triangles in index order through the same per-pixel expressions, so
/// hits and counts match bit for bit. `triangles_streamed` is
/// attributed to the band owning the triangle's clamped top row, so the
/// banded counts sum to the scalar pass exactly.
fn rasterize_rows(
    mesh: &TriangleMesh,
    projected: &[Option<(Vec2, f32)>],
    tris: impl Iterator<Item = u32>,
    w: usize,
    h: usize,
    y0: usize,
    band: &mut [Option<PixelHitPublic>],
) -> RasterStats {
    let rows = band.len() / w.max(1);
    let band_end = y0 + rows; // exclusive
    let mut stats = RasterStats::default();
    for t in tris {
        let Some(TriSetup {
            a,
            b,
            c,
            min_x,
            max_x,
            min_y,
            max_y,
        }) = TriSetup::new(mesh, projected, t as usize, w, h)
        else {
            continue;
        };
        if (y0..band_end).contains(&min_y) {
            stats.triangles_streamed += 1;
        }
        let ab = b.0 - a.0;
        let ac = c.0 - a.0;
        let area = ab.cross(ac);
        if area.abs() < 1e-9 {
            continue;
        }
        let inv_area = 1.0 / area;
        for py in min_y.max(y0)..=max_y.min(band_end - 1) {
            for px in min_x..=max_x {
                stats.candidate_pairs += 1;
                let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
                let ap = p - a.0;
                // Edge functions via 2D cross products (Fig. 10's ALU
                // vector mode).
                let w1 = ap.cross(ac) * inv_area;
                let w2 = ab.cross(ap) * inv_area;
                let w0 = 1.0 - w1 - w2;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let depth = w0 * a.1 + w1 * b.1 + w2 * c.1;
                let slot = &mut band[(py - y0) * w + px];
                // Min. Hold: keep the nearest primitive.
                if slot.is_none_or(|hit| depth < hit.depth) {
                    *slot = Some(PixelHitPublic {
                        triangle: t,
                        bary: (w0, w1, w2),
                        depth,
                    });
                    stats.zbuffer_updates += 1;
                }
            }
        }
    }
    stats.covered_pixels = band.iter().filter(|s| s.is_some()).count() as u64;
    stats
}

/// Rasterizes the mesh into a per-pixel hit buffer with exact work
/// counts. Each frame projects every vertex once, bins every triangle
/// once into the [`BAND_ROWS`](crate::scratch::BAND_ROWS)-row bands its
/// bounding box reaches (stable, so each bin lists its triangles in
/// index order), then rasterizes the bands in parallel, each walking
/// only its own bin. A band sets its triangles up again from the
/// projected corners, so the scratch keeps 4 bytes per triangle, not a
/// set-up record. Writes into caller-owned buffers: `rs.zbuf` holds the
/// hit buffer on return, and it, the projected-vertex cache, the spans
/// and the bins reuse their capacity across frames.
pub(crate) fn rasterize_into(
    mesh: &TriangleMesh,
    camera: &Camera,
    rs: &mut crate::scratch::RasterScratch,
) -> RasterStats {
    let (w, h) = (camera.width as usize, camera.height as usize);
    let crate::scratch::RasterScratch {
        zbuf,
        projected,
        spans,
        bins,
    } = rs;
    zbuf.clear();
    zbuf.resize(w * h, None);

    // Space conversion: project every vertex once, shared by all bands.
    projected.clear();
    projected.extend(
        mesh.positions
            .iter()
            .map(|&p| camera.project_to_screen(p).map(|(s, _, d)| (s, d))),
    );

    // Set up every triangle once for binning: its band span, packed
    // `first << 16 | last` (`u32::MAX`: culled), then bin by band.
    let band_rows = crate::scratch::BAND_ROWS as usize;
    let projected = &*projected;
    spans.clear();
    spans.extend((0..mesh.triangle_count()).map(|t| {
        TriSetup::new(mesh, projected, t, w, h).map_or(u32::MAX, |s| {
            ((s.min_y / band_rows) as u32) << 16 | (s.max_y / band_rows) as u32
        })
    }));
    let spans = &*spans;
    bins.build(
        h.div_ceil(band_rows),
        1,
        0..spans.len() as u32,
        |t| match spans[t as usize] {
            u32::MAX => BinRect::EMPTY,
            s => BinRect::rows(s >> 16, s & 0xFFFF),
        },
    );
    let bins = &*bins;
    uni_parallel::par_bands_fold(
        zbuf,
        band_rows * w,
        RasterStats {
            vertices_projected: mesh.vertex_count() as u64,
            ..RasterStats::default()
        },
        |band, chunk| {
            let tris = bins.bin(band).iter().copied();
            rasterize_rows(mesh, projected, tris, w, h, band * band_rows, chunk)
        },
        |mut acc, s| {
            acc.merge(s);
            acc
        },
    )
}

/// Single-threaded whole-frame rasterization (parity/bench baseline for
/// the binned, banded pass above): one band, every triangle.
pub(crate) fn rasterize_scalar(
    mesh: &TriangleMesh,
    camera: &Camera,
) -> (Vec<Option<PixelHitPublic>>, RasterStats) {
    let (w, h) = (camera.width as usize, camera.height as usize);
    let mut zbuf: Vec<Option<PixelHitPublic>> = vec![None; w * h];
    let projected: Vec<Option<(Vec2, f32)>> = mesh
        .positions
        .iter()
        .map(|&p| camera.project_to_screen(p).map(|(s, _, d)| (s, d)))
        .collect();
    let tris = 0..mesh.triangle_count() as u32;
    let mut stats = rasterize_rows(mesh, &projected, tris, w, h, 0, &mut zbuf);
    stats.vertices_projected = mesh.vertex_count() as u64;
    (zbuf, stats)
}

/// The frame path of every rasterizing pipeline (mesh, MixRT): rasterizes
/// the mesh through this thread's raster scratch, then shades the hit
/// buffer in parallel bands — `shade_rows(hits, y0, rows, ray_scratch)`
/// fills the whole rows starting at `y0`. Returns the rasterizer's work
/// counts.
pub(crate) fn rasterize_and_shade(
    scene: &BakedScene,
    camera: &Camera,
    target: &mut Image,
    shade_rows: impl Fn(&[Option<PixelHitPublic>], u32, &mut [Rgb], &mut crate::scratch::RayScratch)
        + Sync,
) -> RasterStats {
    target.resize(camera.width, camera.height, scene.field().background());
    let band_rows = crate::scratch::BAND_ROWS;
    crate::scratch::with_raster_scratch(|raster| {
        let stats = rasterize_into(scene.mesh(), camera, raster);
        let hits = &raster.zbuf;
        uni_parallel::par_bands(
            target.pixels_mut(),
            band_rows as usize * camera.width as usize,
            |band, chunk| {
                crate::scratch::with_ray_scratch(|rs| {
                    shade_rows(hits, band as u32 * band_rows, chunk, rs);
                });
            },
        );
        stats
    })
}

/// Emits the geometry stages every rasterizing pipeline (mesh, MixRT)
/// opens its trace with: (1) space conversion and (2) rasterization.
/// Returns the covered-pixel count scaled to `camera` — the batch of the
/// per-pixel stages that follow.
pub(crate) fn push_raster_stages(
    trace: &mut Trace,
    scene: &BakedScene,
    camera: &Camera,
    stats: &RasterStats,
    probe: &Probe,
) -> u64 {
    // Full-scale workload constants come from the spec (the baked
    // representation may be detail-scaled for tests); coverage ratios
    // come from the rasterization.
    let full_tris = u64::from(scene.spec().repr.target_triangles);
    let baked_tris = scene.mesh().triangle_count().max(1) as u64;
    let tri_ratio = full_tris as f64 / baked_tris as f64;
    let verts = (stats.vertices_projected as f64 * tri_ratio) as u64;
    let streamed = (stats.triangles_streamed as f64 * tri_ratio) as u64;

    // (1) Space conversion: 4×4 view-projection per vertex (GEMM).
    trace.push(Invocation::new(
        "space conversion",
        Workload::Gemm {
            batch: verts,
            in_dim: 4,
            out_dim: 4,
            weight_bytes: 32,
        },
    ));

    // (2) Rasterization (Geometric Processing). Candidate pairs are
    // resolution-driven (bounding-box coverage), not triangle-count
    // driven, so a probe measurement scales by pixels only.
    trace.push(Invocation::new(
        "rasterization",
        Workload::Geometric {
            kind: PrimitiveKind::Triangle,
            primitives: streamed,
            candidate_pairs: probe.scale(stats.candidate_pairs),
            hits: probe.scale(stats.zbuffer_updates),
            prim_bytes: TriangleMesh::BYTES_PER_TRIANGLE,
            output_pixels: camera.pixel_count(),
        },
    ));
    probe.scale(stats.covered_pixels)
}

/// A rasterization hit exposed to sibling pipelines (the hybrid pipeline
/// reuses the rasterizer).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PixelHitPublic {
    pub triangle: u32,
    pub bary: (f32, f32, f32),
    pub depth: f32,
}

impl MeshPipeline {
    /// Deferred-shades rows `[y0, y0 + rows)` from the hit buffer, using
    /// the caller's ray scratch arena.
    fn shade_rows(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        hits: &[Option<PixelHitPublic>],
        y0: u32,
        chunk: &mut [Rgb],
        rs: &mut crate::scratch::RayScratch,
    ) {
        let tex = scene.texture();
        let mesh = scene.mesh();
        let width = camera.width as usize;
        let rows = chunk.len() / width.max(1);
        let rays = camera.ray_generator();
        {
            let crate::scratch::RayScratch { feats, mlp, .. } = rs;
            feats.clear();
            feats.resize(tex.channels() as usize, 0.0);
            for dy in 0..rows {
                let y = y0 + dy as u32;
                let row = &mut chunk[dy * width..(dy + 1) * width];
                for x in 0..camera.width {
                    let Some(hit) = hits[(y * camera.width + x) as usize] else {
                        continue;
                    };
                    let [ua, ub, uc] = mesh.triangle_uvs(hit.triangle as usize);
                    let (w0, w1, w2) = hit.bary;
                    let uv = ua * w0 + ub * w1 + uc * w2;
                    tex.sample_bilinear(uv, feats);
                    let diffuse = Rgb::new(feats[0], feats[1], feats[2]);
                    let s = feats[3];
                    let n = Vec3::new(feats[4], feats[5], feats[6]);
                    let view = rays.ray(x as f32 + 0.5, y as f32 + 0.5).direction;
                    let spec = scene.deferred_mlp().forward_scratch(
                        &[s * n.x, s * n.y, s * n.z, s, view.x, view.y, view.z],
                        mlp,
                    );
                    row[x as usize] = Rgb::new(
                        diffuse.r + spec[0],
                        diffuse.g + spec[1],
                        diffuse.b + spec[2],
                    )
                    .saturate();
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

    /// Rasterizes and deferred-shades one frame through this thread's
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
        let mut trace = Trace::new(Pipeline::Mesh, camera.width, camera.height);
        let covered = push_raster_stages(&mut trace, scene, camera, stats, probe);

        // (3) Texture indexing (Combined Grid Indexing, bilinear).
        // MobileNeRF-style bakes fetch *two* deferred-feature textures per
        // pixel from a multi-slab atlas (3 slabs counted in the table).
        let repr = &scene.spec().repr;
        let texture_bytes =
            u64::from(repr.texture_resolution).pow(2) * u64::from(repr.texture_channels) * 3;
        trace.push(Invocation::new(
            "texture indexing",
            Workload::GridIndex {
                points: covered * 2,
                levels: 1,
                corners: 4,
                feature_dim: repr.texture_channels,
                table_bytes: texture_bytes,
                function: IndexFunction::LinearIndexing,
                dims: Dims::D2,
                decomposed: false,
            },
        ));

        // (4) Deferred shading MLP per covered pixel.
        emit_mlp_layers(&mut trace, "shading mlp", scene.deferred_mlp(), covered, 0);
        trace
    }
}

impl Renderer for MeshPipeline {
    fn pipeline(&self) -> Pipeline {
        Pipeline::Mesh
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
    fn renders_content_against_background() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 64, 48);
        let img = MeshPipeline::default().render(scene, &camera);
        // The orbit looks at the object cluster: some pixels differ from
        // the background.
        let bg = scene.field().background();
        let non_bg = img
            .pixels()
            .iter()
            .filter(|p| (p.r - bg.r).abs() + (p.g - bg.g).abs() + (p.b - bg.b).abs() > 0.05)
            .count();
        assert!(non_bg > 100, "{non_bg} non-background pixels");
    }

    #[test]
    fn raster_stats_count_consistently() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 96, 64);
        let mut rs = crate::scratch::RasterScratch::default();
        let stats = rasterize_into(scene.mesh(), &camera, &mut rs);
        assert_eq!(
            stats.covered_pixels,
            rs.zbuf.iter().filter(|h| h.is_some()).count() as u64
        );
        assert!(stats.candidate_pairs >= stats.zbuffer_updates);
        assert!(stats.zbuffer_updates >= stats.covered_pixels);
        assert!(stats.triangles_streamed > 0);
    }

    /// The binned, banded rasterizer reproduces the whole-frame scalar
    /// pass bit for bit — hit buffer and all five counts — on heights on
    /// and off the 16-row band grid, with triangles crossing band edges
    /// and corners clipped by the near plane, at one worker and at four.
    #[test]
    fn binned_raster_matches_scalar_bit_for_bit() {
        let scene = testutil::scene();
        let mesh = scene.mesh();
        let mut crossed = false;
        for (w, h) in [(96, 40), (33, 17), (64, 48)] {
            let orbit = testutil::camera(scene, w, h);
            // A near plane through the middle of the content clips the
            // corners of the triangles straddling it.
            let near = (scene.bounds().center() - orbit.eye).length();
            for camera in [orbit, orbit.with_clip(near, near * 10.0)] {
                let (want, want_stats) = rasterize_scalar(mesh, &camera);
                for workers in [1, 4] {
                    let prev = uni_parallel::set_worker_count(Some(workers));
                    let mut rs = crate::scratch::RasterScratch::default();
                    let stats = rasterize_into(mesh, &camera, &mut rs);
                    uni_parallel::set_worker_count(prev);
                    let tag = format!("{w}x{h}, near {}, {workers} workers", camera.near);
                    assert_eq!(stats, want_stats, "{tag}");
                    assert!(stats.triangles_streamed > 0, "{tag}");
                    let bits = |hit: &Option<PixelHitPublic>| {
                        hit.map(|h| {
                            let (w0, w1, w2) = h.bary;
                            let b = [w0.to_bits(), w1.to_bits(), w2.to_bits(), h.depth.to_bits()];
                            (h.triangle, b)
                        })
                    };
                    assert!(
                        rs.zbuf.iter().map(bits).eq(want.iter().map(bits)),
                        "{tag}: hit buffers differ"
                    );
                    // The cases exercise what binning must get right:
                    // triangles in more than one band's bin, and clipped
                    // corners.
                    let binned: usize = (0..rs.bins.n_bins()).map(|b| rs.bins.bin(b).len()).sum();
                    let distinct = rs.spans.iter().filter(|&&s| s != u32::MAX).count();
                    crossed |= binned > distinct;
                    if camera.near > orbit.near {
                        assert!(
                            rs.projected.iter().any(Option::is_none),
                            "{tag}: nothing clipped"
                        );
                    }
                }
            }
        }
        assert!(crossed, "no triangle crossed a band edge");
    }

    #[test]
    fn zbuffer_keeps_nearest_surface() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 64, 48);
        let mut rs = crate::scratch::RasterScratch::default();
        rasterize_into(scene.mesh(), &camera, &mut rs);
        for hit in rs.zbuf.into_iter().flatten() {
            assert!(hit.depth > 0.0, "depths are positive view distances");
        }
    }

    #[test]
    fn trace_contains_the_four_steps_in_order() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = MeshPipeline::default().trace(scene, &camera);
        let ops = trace.micro_ops_used();
        assert_eq!(
            ops,
            vec![
                MicroOp::Gemm,
                MicroOp::GeometricProcessing,
                MicroOp::CombinedGridIndexing,
            ]
        );
        assert_eq!(trace.pipeline(), Pipeline::Mesh);
        assert_eq!(trace.width(), 640);
        // No sorting in mesh pipelines.
        assert_eq!(trace.stats().invocations_of(MicroOp::Sorting), 0);
    }

    #[test]
    fn trace_scales_with_resolution() {
        let scene = testutil::scene();
        let small = MeshPipeline::default().trace(scene, &testutil::camera(scene, 320, 240));
        let large = MeshPipeline::default().trace(scene, &testutil::camera(scene, 1280, 960));
        let s = small.stats().cost_of(MicroOp::GeometricProcessing);
        let l = large.stats().cost_of(MicroOp::GeometricProcessing);
        let ratio = l.int_macs as f64 / s.int_macs.max(1) as f64;
        assert!(
            ratio > 4.0 && ratio < 40.0,
            "16x pixels -> more raster work (got {ratio:.1}x)"
        );
    }

    #[test]
    fn trace_uses_full_scale_triangle_counts() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = MeshPipeline::default().trace(scene, &camera);
        let raster = trace
            .iter()
            .find(|i| i.stage() == "rasterization")
            .expect("raster stage");
        if let Workload::Geometric { primitives, .. } = raster.workload() {
            // The spec's full-scale triangle count is 150k; the baked test
            // scene has far fewer, but the trace reports full scale.
            assert!(
                *primitives > 10_000,
                "full-scale primitives, got {primitives}"
            );
        } else {
            panic!("expected geometric workload");
        }
    }
}
