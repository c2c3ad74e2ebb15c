//! The 3D-Gaussian-based rendering pipeline (Sec. II-E, Fig. 6): space
//! conversion → splatting → sorting → MLP → blending.
//!
//! Follows 3DGS: Gaussians are projected to screen-space conics
//! (splatting), assigned to 16×16-pixel patches, depth-sorted *per patch*
//! (so the sorting cost is amortized across the patch's pixels — the
//! observation the paper's Sorting dataflow exploits), colored by SH
//! evaluation (the "MLP" step: a vector-matrix product), and alpha-blended
//! front to back.
//!
//! # Hot-path layout
//!
//! The production path ([`Renderer::render`]) is SoA and allocation-free in
//! steady state, and touches each splat once per stage:
//!
//! 1. projection + SH evaluation run eight splats at a time on the
//!    cloud's lane-group columns ([`GaussianCloud::project_x8`], one
//!    per-frame [`SplatProjector`]; every lane equals the scalar
//!    [`GaussianCloud::project`] and [`GaussianCloud::color`] bit for
//!    bit), band-parallel across splats (`uni_parallel::par_indices` over
//!    [`PROJ_BAND_SPLATS`]-sized bands, each compacting its visible lanes
//!    in splat order into per-band scratch reused across frames), then
//!    concatenate in band order — bit-identical to a serial pass. Each
//!    visible splat leaves its depth key, its tile rectangle, and one
//!    packed blending record (center, conic, opacity, RGB, and the
//!    half-extents of its alpha-threshold ellipse, from a log-space
//!    cutoff on the cloud's baked `ln(opacity)`, so no per-splat libm
//!    call remains);
//! 2. [`bin_tiles_by_depth`] sorts the visible splats by depth (a stable
//!    LSD counting sort, one [`Bins::build`] pass per 16-bit key digit),
//!    then bins them into their tiles in that order with the same stable
//!    kernel, so every tile's list comes out depth-sorted, ties in splat
//!    order — the order the seed's per-patch comparison sorts produced;
//! 3. blending processes whole rows of tiles as parallel bands
//!    (`uni_parallel::par_bands`; bands write disjoint image rows). Each
//!    tile is walked splat-major in depth order, straight from the
//!    frame's records: a splat visits only the rows and the 8-pixel
//!    chunks its alpha ellipse's box reaches, and tests and blends a
//!    chunk's eight pixels as lanes ([`RayAccumulatorX8`], the scalar
//!    [`fmath::exp`] per lane). A per-row count of pixels still below
//!    saturation skips rows that have saturated, and the tile's walk ends
//!    when every row has, since a saturated pixel never blends again.
//!    Every pixel still sees its splats in depth order.
//!
//! All buffers live in per-thread scratch arenas reused across frames.
//! The seed-era scalar path is kept as [`GaussianPipeline::render_scalar`]
//! — the parity baseline for tests and the speedup baseline for
//! `benches/render_hot.rs`. The two paths make bit-identical per-sample
//! decisions: both weigh a pair with [`ProjectedSplat::falloff`]'s
//! expression on the one owned [`fmath::exp`] and reject it when
//! `alpha < 1/255`, and the SoA path only leaves out pixels outside the
//! box of the ellipse `power >= ln(1/255) - ln(opacity) - margin`, which
//! that test would also reject after the `exp`. Their pixels and work
//! counts are equal.

use crate::binning::{BinRect, Bins};
use crate::blending::{RayAccumulator, RayAccumulatorX8};
use crate::probe::Probe;
use crate::Renderer;
use std::cell::RefCell;
use uni_geometry::{fmath, Camera, Image, Rgb};
use uni_microops::{Invocation, Pipeline, PrimitiveKind, Trace, Workload};
use uni_scene::{BakedScene, GaussianCloud, ProjectedSplat, SplatProjector};

/// Alpha below which a (splat, pixel) contribution is discarded (the 3DGS
/// 1/255 threshold).
const MIN_ALPHA: f32 = 1.0 / 255.0;

/// `ln(MIN_ALPHA)`, rounded to `f32`.
const LN_MIN_ALPHA: f32 = -5.541_264;

/// Log-space safety margin of the cutoff
/// `LN_MIN_ALPHA - ln(opacity) - LN_ALPHA_MARGIN` whose ellipse bounds
/// the pixels a splat can reach. The baked libm `ln`, the rounding of
/// [`LN_MIN_ALPHA`], the split of `ln(a/b)` into `ln a - ln b` and
/// [`fmath::exp`] each err by about 1e-6 or less, so 0.01 in log space
/// conservatively covers them all: every pixel outside the ellipse would
/// also fail the seed's post-`exp` `alpha < 1/255` test.
const LN_ALPHA_MARGIN: f32 = 0.01;

/// The 3D-Gaussian (splat rasterization) pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianPipeline {
    /// Patch size in pixels (16 in 3DGS).
    pub patch_size: u32,
    /// Opacity threshold below which splats are bypassed.
    pub alpha_threshold: f32,
}

impl Default for GaussianPipeline {
    fn default() -> Self {
        Self {
            patch_size: 16,
            alpha_threshold: 1.0 / 255.0,
        }
    }
}

/// Maps a depth to a `u32` key whose unsigned order equals
/// [`f32::total_cmp`] order — the key the depth sort runs on.
#[inline]
pub fn depth_key(depth: f32) -> u32 {
    let b = depth.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Orders splats by depth and lists them per tile: a stable LSD counting
/// sort of `keys` (one [`Bins::build`] pass per 16-bit digit, low digit
/// first), then a stable binning of the depth-ordered splats into the
/// tiles `tile_span` covers, on a grid `tiles_x` tiles wide.
///
/// Every tile's list therefore holds its splats ordered by depth key,
/// ties in splat order — what the seed's per-tile stable
/// `sort_by(total_cmp)` over splat-ordered bins produced, the property
/// `tests/render_parity.rs` checks. `sort` is scratch; `tiles` holds the
/// result.
pub fn bin_tiles_by_depth(
    keys: &[u32],
    n_tiles: usize,
    tiles_x: u32,
    tile_span: impl Fn(u32) -> BinRect,
    sort: &mut Bins,
    tiles: &mut Bins,
) {
    const DIGITS: usize = 1 << 16;
    let n = keys.len() as u32;
    tiles.build(DIGITS, 1, 0..n, |i| BinRect::one(keys[i as usize] & 0xFFFF));
    sort.build(DIGITS, 1, tiles.ids().iter().copied(), |i| {
        BinRect::one(keys[i as usize] >> 16)
    });
    tiles.build(n_tiles, tiles_x, sort.ids().iter().copied(), tile_span);
}

/// The tiles a splat footprint covers, mirroring the seed binning rules
/// exactly (floor/ceil clamps, off-screen rejection). Empty when the
/// splat lands on no tile.
#[inline]
fn tile_range(cx: f32, cy: f32, radius: f32, ps: u32, tiles_x: u32, tiles_y: u32) -> BinRect {
    if cx + radius < 0.0 || cy + radius < 0.0 {
        return BinRect::EMPTY;
    }
    BinRect {
        x0: ((cx - radius).floor().max(0.0) as u32) / ps,
        x1: (((cx + radius).ceil().max(0.0) as u32) / ps).min(tiles_x - 1),
        y0: ((cy - radius).floor().max(0.0) as u32) / ps,
        y1: (((cy + radius).ceil().max(0.0) as u32) / ps).min(tiles_y - 1),
    }
}

/// Exact work counts of one splat render.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SplatStats {
    gaussians_streamed: u64,
    visible_splats: u64,
    patch_pairs: u64,
    patches_nonempty: u64,
    candidate_pairs: u64,
    blended_pairs: u64,
}

/// Number of Gaussians one projection band covers, a multiple of the
/// cloud's 8-splat lane groups. Projection + SH evaluation parallelize
/// across bands of splats (`uni_parallel::par_indices`); band results
/// concatenate in band order, so the global layout is identical to a
/// serial pass.
const PROJ_BAND_SPLATS: usize = 2048;

/// One visible splat packed for blending: everything the tile walk
/// reads of it, in one record.
#[derive(Debug, Clone, Copy, Default)]
struct SplatRecord {
    x: f32,
    y: f32,
    conic_a: f32,
    conic_b: f32,
    conic_c: f32,
    opacity: f32,
    r: f32,
    g: f32,
    b: f32,
    /// Horizontal and vertical half-extents of the ellipse
    /// `{ power >= ln_cut }`, outside which every pixel is below the
    /// alpha threshold; `ln_cut = ln(MIN_ALPHA) - ln(opacity) - margin`.
    dx_max: f32,
    dy_max: f32,
}

/// The frame's visible splats: the two columns binning reads (depth key
/// and tile rectangle), plus one blending record per splat. Used both
/// for the per-band projection scratch and for the frame's concatenated
/// splats.
#[derive(Debug, Default)]
struct ProjCols {
    /// [`depth_key`] of each splat's depth.
    keys: Vec<u32>,
    /// The tiles each splat's footprint covers (empty: none).
    rects: Vec<BinRect>,
    recs: Vec<SplatRecord>,
}

impl ProjCols {
    fn clear(&mut self) {
        self.keys.clear();
        self.rects.clear();
        self.recs.clear();
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Appends one projected splat, deriving the extent of its
    /// alpha-threshold ellipse from the log-space cutoff.
    fn push_splat(&mut self, s: &ProjectedSplat, color: Rgb, tiles: BinRect) {
        self.keys.push(depth_key(s.depth));
        self.rects.push(tiles);
        let cut = LN_MIN_ALPHA - s.ln_opacity - LN_ALPHA_MARGIN;
        // The set { power >= cut } is an ellipse; its half-extents are
        // sqrt(-2·c·cut / det) across and sqrt(-2·a·cut / det) down,
        // det = a·c - b² (the conic is positive definite, so det > 0).
        let (a, b, c) = s.conic;
        let det = a * c - b * b;
        let half_extent = |q: f32| ((-2.0 * q * cut / det.max(1e-12)).max(0.0)).sqrt();
        self.recs.push(SplatRecord {
            x: s.center.x,
            y: s.center.y,
            conic_a: a,
            conic_b: b,
            conic_c: c,
            opacity: s.opacity,
            r: color.r,
            g: color.g,
            b: color.b,
            dx_max: half_extent(c),
            dy_max: half_extent(a),
        });
    }

    /// Concatenates `other` onto `self` (band-order gather).
    fn append(&mut self, other: &ProjCols) {
        self.keys.extend_from_slice(&other.keys);
        self.rects.extend_from_slice(&other.rects);
        self.recs.extend_from_slice(&other.recs);
    }
}

/// Frame-lifetime SoA buffers, kept in a per-thread scratch arena so
/// steady-state rendering never touches the allocator.
#[derive(Debug, Default)]
struct FrameScratch {
    /// The frame's visible splats, in splat order.
    cols: ProjCols,
    /// Per-band projection scratch (each projection worker locks its own
    /// band slot; bands are claimed exclusively, so locks never contend).
    proj: Vec<std::sync::Mutex<ProjCols>>,
    /// Depth-sort scratch and the per-tile splat lists in depth order.
    sort: Bins,
    tiles: Bins,
    // Per-band tile walk scratch (each band worker locks its own slot;
    // bands are claimed exclusively, so locks never contend).
    bands: Vec<std::sync::Mutex<TileScratch>>,
}

/// Compositing state of the tile being walked, reused from tile to tile.
/// Pixels sit in 8-lane chunks: pixel `px0 + 8·h + l` of tile row `r` is
/// lane `l` of chunk `r · chunks + h`, where `chunks` is the tile width
/// in chunks. Lanes past the tile's right edge never blend.
#[derive(Debug, Default)]
struct TileScratch {
    /// Per-pixel compositing state.
    accs: Vec<RayAccumulatorX8>,
    /// Per pixel, the tile-list position of the last splat it blended.
    last_blend: Vec<[u32; 8]>,
    /// Per tile row, its pixels still below saturation.
    row_live: Vec<u32>,
}

/// The pixels of one tile: columns `px0..px1`, image rows `y0..y0 + rows`.
#[derive(Debug, Clone, Copy)]
struct TileRect {
    px0: u32,
    px1: u32,
    y0: usize,
    rows: usize,
}

thread_local! {
    static SCRATCH: RefCell<FrameScratch> = RefCell::new(FrameScratch::default());
}

impl GaussianPipeline {
    fn render_internal(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        target: &mut Image,
    ) -> SplatStats {
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            self.render_soa(scene, camera, &mut scratch, target)
        })
    }

    // uni-lint: hot
    #[allow(clippy::too_many_lines)]
    fn render_soa(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        scratch: &mut FrameScratch,
        target: &mut Image,
    ) -> SplatStats {
        let bg = scene.field().background();
        target.resize(camera.width, camera.height, bg);
        let cloud = scene.gaussians();
        let mut stats = SplatStats {
            gaussians_streamed: cloud.len() as u64,
            ..SplatStats::default()
        };

        let FrameScratch {
            cols,
            proj,
            sort,
            tiles,
            bands,
        } = scratch;

        // (1) Space conversion + splatting: project every Gaussian,
        // evaluating its SH color and finding its tiles once per frame
        // (the "MLP" step). Bands of splats project in parallel into
        // per-band scratch; concatenating the bands in order reproduces
        // the serial pass bit for bit (per-splat math is untouched and
        // compaction order is preserved).
        let ps = self.patch_size;
        let tiles_x = camera.width.div_ceil(ps);
        let tiles_y = camera.height.div_ceil(ps);
        let n_tiles = (tiles_x * tiles_y) as usize;
        let n_proj_bands = cloud.len().div_ceil(PROJ_BAND_SPLATS);
        if proj.len() < n_proj_bands {
            proj.resize_with(n_proj_bands, Default::default);
        }
        {
            let proj = &*proj;
            let projector = SplatProjector::new(camera);
            uni_parallel::par_indices(n_proj_bands, |b| {
                let mut pb = proj[b].lock().expect("projection band scratch poisoned");
                pb.clear();
                let groups =
                    b * PROJ_BAND_SPLATS / 8..((b + 1) * PROJ_BAND_SPLATS / 8).min(cloud.groups());
                for group in groups {
                    let lanes = cloud.project_x8(group, &projector, self.alpha_threshold);
                    for l in 0..8 {
                        if let Some((s, color)) = lanes.splat(l) {
                            let tiles =
                                tile_range(s.center.x, s.center.y, s.radius, ps, tiles_x, tiles_y);
                            pb.push_splat(&s, color, tiles);
                        }
                    }
                }
            });
        }
        cols.clear();
        for cell in proj.iter().take(n_proj_bands) {
            cols.append(&cell.lock().expect("projection band scratch poisoned"));
        }
        stats.visible_splats = cols.len() as u64;
        let ProjCols { keys, rects, recs } = cols;

        // (2)+(3) Depth sort, then tile binning in depth order: every
        // tile's list comes out depth-sorted.
        bin_tiles_by_depth(keys, n_tiles, tiles_x, |i| rects[i as usize], sort, tiles);
        stats.patch_pairs = tiles.ids().len() as u64;
        stats.patches_nonempty = (0..n_tiles).filter(|&t| !tiles.bin(t).is_empty()).count() as u64;

        // (4)+(5) Per-tile front-to-back blending, a row of tiles per
        // band. Bands own disjoint row ranges of the image.
        if bands.len() < tiles_y as usize {
            bands.resize_with(tiles_y as usize, Default::default);
        }
        let width = camera.width as usize;
        let band_len = (ps as usize) * width;
        // Reborrow as shared so the band closures (which run on worker
        // threads) can read them.
        let (recs, tiles, bands) = (&*recs, &*tiles, &*bands);

        let (candidate_pairs, blended_pairs) = uni_parallel::par_bands_fold(
            target.pixels_mut(),
            band_len,
            (0u64, 0u64),
            |band_ty, chunk| {
                let rows = chunk.len() / width;
                let mut candidate = 0u64;
                let mut blended = 0u64;
                let mut tile_scratch = bands[band_ty].lock().expect("band scratch poisoned");
                let ts = &mut *tile_scratch;
                for tx in 0..tiles_x {
                    let ids = tiles.bin(band_ty * tiles_x as usize + tx as usize);
                    if ids.is_empty() {
                        continue;
                    }
                    let tile = TileRect {
                        px0: tx * ps,
                        px1: ((tx + 1) * ps).min(camera.width),
                        y0: band_ty * ps as usize,
                        rows,
                    };
                    blended += walk_tile(recs, ids, tile, ts);

                    // Candidate-pair accounting matches the seed loop: it
                    // examined every splat up to (and including) the one
                    // that saturated the ray, or all of them. Skipped
                    // pairs never blend, so the saturation point is
                    // unchanged by the culling or the early end.
                    let px_count = (tile.px1 - tile.px0) as usize;
                    let chunks = px_count.div_ceil(8);
                    for row in 0..rows {
                        let out = &mut chunk[row * width + tile.px0 as usize..][..px_count];
                        for (pi, px) in out.iter_mut().enumerate() {
                            let (k, l) = (row * chunks + pi / 8, pi % 8);
                            let acc = &ts.accs[k];
                            candidate += if acc.saturated(l) {
                                u64::from(ts.last_blend[k][l]) + 1
                            } else {
                                ids.len() as u64
                            };
                            *px = acc.finish(l, bg);
                        }
                    }
                }
                (candidate, blended)
            },
            |acc, (c, b)| (acc.0 + c, acc.1 + b),
        );
        stats.candidate_pairs += candidate_pairs;
        stats.blended_pairs += blended_pairs;
        stats
    }

    /// The seed-era scalar reference path: AoS splats, per-patch `Vec`
    /// bins, and per-patch stable comparison sorts (by
    /// [`f32::total_cmp`]).
    ///
    /// Kept as the parity baseline for the SoA + binned + parallel
    /// path and as the "before" side of `benches/render_hot.rs`. Produces
    /// the same image as [`Renderer::render`] (see
    /// `tests/render_parity.rs`).
    pub fn render_scalar(&self, scene: &BakedScene, camera: &Camera) -> Image {
        self.render_scalar_counted(scene, camera).0
    }

    /// [`GaussianPipeline::render_scalar`] with the seed loop's work
    /// counts, the reference for the SoA path's [`SplatStats`].
    fn render_scalar_counted(&self, scene: &BakedScene, camera: &Camera) -> (Image, SplatStats) {
        let bg = scene.field().background();
        let mut img = Image::new(camera.width, camera.height, bg);
        let cloud = scene.gaussians();
        let mut stats = SplatStats {
            gaussians_streamed: cloud.len() as u64,
            ..SplatStats::default()
        };

        // (1) Space conversion + splatting: project every Gaussian.
        let projector = SplatProjector::new(camera);
        let mut splats: Vec<ProjectedSplat> = Vec::new();
        for i in 0..cloud.len() {
            if let Some(s) = cloud.project(i as u32, &projector, self.alpha_threshold) {
                splats.push(s);
            }
        }
        stats.visible_splats = splats.len() as u64;

        // SH color per visible splat, once per frame (the "MLP" step).
        let colors: Vec<Rgb> = splats
            .iter()
            .map(|s| cloud.color(s.index, &projector))
            .collect();

        // (2) Patch assignment.
        let ps = self.patch_size;
        let tiles_x = camera.width.div_ceil(ps);
        let tiles_y = camera.height.div_ceil(ps);
        // uni-lint: allow(R1, seed-faithful scalar baseline — keeps the seed's nested-bin allocation pattern so BENCH_render speedups measure against the real seed cost)
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); (tiles_x * tiles_y) as usize];
        for (si, s) in splats.iter().enumerate() {
            let r = tile_range(s.center.x, s.center.y, s.radius, ps, tiles_x, tiles_y);
            for ty in r.y0..=r.y1 {
                for tx in r.x0..=r.x1 {
                    bins[(ty * tiles_x + tx) as usize].push(si as u32);
                }
            }
        }

        // (3) Per-patch sort + (5) per-pixel front-to-back blending.
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let bin = &bins[(ty * tiles_x + tx) as usize];
                if bin.is_empty() {
                    continue;
                }
                stats.patch_pairs += bin.len() as u64;
                stats.patches_nonempty += 1;
                let mut patch_splats: Vec<ProjectedSplat> =
                    bin.iter().map(|&i| splats[i as usize]).collect();
                let color_of: Vec<Rgb> = bin.iter().map(|&i| colors[i as usize]).collect();
                // Stable sort by depth (matching the hardware's merge-sort
                // dataflow of Fig. 13).
                let mut order: Vec<usize> = (0..patch_splats.len()).collect();
                order.sort_by(|&a, &b| patch_splats[a].depth.total_cmp(&patch_splats[b].depth));
                patch_splats = order.iter().map(|&i| patch_splats[i]).collect();
                let sorted_colors: Vec<Rgb> = order.iter().map(|&i| color_of[i]).collect();

                for py in (ty * ps)..((ty + 1) * ps).min(camera.height) {
                    for px in (tx * ps)..((tx + 1) * ps).min(camera.width) {
                        let mut acc = RayAccumulator::new();
                        for (s, &c) in patch_splats.iter().zip(&sorted_colors) {
                            if acc.saturated() {
                                break;
                            }
                            stats.candidate_pairs += 1;
                            let dx = px as f32 + 0.5 - s.center.x;
                            let dy = py as f32 + 0.5 - s.center.y;
                            let alpha = s.opacity * s.falloff(dx, dy);
                            if alpha < MIN_ALPHA {
                                continue;
                            }
                            stats.blended_pairs += 1;
                            acc.add_alpha_sample(c, alpha);
                        }
                        img.set(px, py, acc.finish(bg));
                    }
                }
            }
        }
        (img, stats)
    }

    /// The pipeline's one trace builder: turns a render's splat counts
    /// into the frame's micro-operator trace. `probe` scales the
    /// resolution-proportional counts from the rendered camera up to
    /// `camera` (identity for [`Renderer::render_traced`]).
    fn trace_from(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        stats: &SplatStats,
        probe: &Probe,
    ) -> Trace {
        let mut trace = Trace::new(Pipeline::Gaussian3d, camera.width, camera.height);

        let repr = &scene.spec().repr;
        let full_count = u64::from(repr.gaussian_count);
        debug_assert_eq!(stats.gaussians_streamed as usize, scene.gaussians().len());
        let baked_count = stats.gaussians_streamed.max(1);
        let count_ratio = full_count as f64 / baked_count as f64;
        let visible = (stats.visible_splats as f64 * count_ratio) as u64;

        // (1)+(2) Space conversion & splatting (Geometric Processing).
        // Candidate pairs are resolution-driven (patch lists × pixels);
        // per-splat footprints shrink as counts grow, so the probe's
        // pair count scales by pixels only.
        trace.push(Invocation::new(
            "space conversion & splatting",
            Workload::Geometric {
                kind: PrimitiveKind::GaussianSplat,
                primitives: full_count,
                candidate_pairs: probe.scale(stats.candidate_pairs),
                hits: probe.scale(stats.blended_pairs),
                prim_bytes: GaussianCloud::BYTES_PER_GAUSSIAN,
                output_pixels: camera.pixel_count(),
            },
        ));

        // (3) Per-patch depth sorting. Total (splat, patch) pairs are
        // resolution-driven like candidate pairs (footprint area × count is
        // conserved as counts grow), so the probe's pair total scales by
        // pixels; keys-per-patch follows from the scaled patch count.
        let total_keys = probe.scale(stats.patch_pairs).max(1);
        let patches = probe.scale(stats.patches_nonempty).max(1);
        trace.push(Invocation::new(
            "depth sorting",
            Workload::Sort {
                patches,
                keys_per_patch: (total_keys as f64 / patches as f64).max(1.0),
                entry_bytes: 8, // Depth key + splat id.
            },
        ));

        // (4) SH color evaluation as a vector-matrix product per visible
        // splat (the paper's "MLP" step for 3DGS).
        trace.push(Invocation::new(
            "sh color (mlp)",
            Workload::Gemm {
                batch: visible.max(1),
                in_dim: 16,
                out_dim: 3,
                weight_bytes: 0, // SH coefficients stream with the splats.
            },
        ));

        // (5) Blending of surviving (splat, pixel) pairs.
        trace.push(Invocation::new(
            "blending",
            Workload::Gemm {
                batch: probe.scale(stats.blended_pairs).max(1),
                in_dim: 1,
                out_dim: 4,
                weight_bytes: 0,
            },
        ));
        trace
    }
}

/// Blends one tile's depth-ordered splats (`ids` into `recs`) into fresh
/// per-pixel state in `ts`, splat-major, and returns the blended pairs.
///
/// Each splat visits only the rows and the 8-pixel chunks that the box
/// of its `{ power >= ln_cut }` ellipse reaches; pixels outside are
/// provably below the alpha threshold, and pixels inside take the seed's
/// exact pair test. A row whose pixels have all saturated is skipped,
/// and the walk ends when every row has. Every pixel still receives its
/// samples in depth order, so compositing — including early saturation —
/// matches the seed's pixel-major walk exactly, and `ts.last_blend`
/// records where each pixel saturated.
// uni-lint: hot
fn walk_tile(recs: &[SplatRecord], ids: &[u32], tile: TileRect, ts: &mut TileScratch) -> u64 {
    let TileRect { px0, px1, y0, rows } = tile;
    let px_count = (px1 - px0) as usize;
    let chunks = px_count.div_ceil(8);
    ts.accs.clear();
    ts.accs.resize(rows * chunks, RayAccumulatorX8::new());
    ts.last_blend.clear();
    ts.last_blend.resize(rows * chunks, [0; 8]);
    ts.row_live.clear();
    ts.row_live.resize(rows, px_count as u32);
    let mut live_rows = rows;
    let mut blended = 0u64;
    'splats: for (j, &id) in ids.iter().enumerate() {
        let s = &recs[id as usize];
        // Pixel centers (at px + 0.5) within the ellipse's box, widened
        // 1e-3 px for float safety. Float casts saturate, so negative
        // bounds clamp to zero.
        let (rx, ry) = (s.dx_max + 1e-3, s.dy_max + 1e-3);
        let lo = (s.y - ry - 0.5 - y0 as f32).ceil().max(0.0);
        let hi = (s.y + ry - 0.5 - y0 as f32).floor();
        let x_lo = ((s.x - rx - 0.5).ceil().max(px0 as f32) as u32).max(px0);
        let x_hi = (s.x + rx - 0.5).floor();
        if hi < lo || lo >= rows as f32 || x_hi < x_lo as f32 {
            continue;
        }
        let (r0, r1) = (lo as usize, (hi as usize).min(rows - 1));
        // A box starting right of the tile leaves `h0 > h1`, or one chunk
        // whose pixels all take the exact test.
        let h0 = (x_lo - px0) / 8;
        let h1 = ((x_hi as u32).min(px1 - 1) - px0) / 8;
        for r in r0..=r1 {
            if ts.row_live[r] == 0 {
                continue;
            }
            let dy = (y0 + r) as f32 + 0.5 - s.y;
            for h in h0..=h1 {
                let k = r * chunks + h as usize;
                let (n_blended, n_saturated) = blend_chunk(
                    s,
                    dy,
                    px0 + 8 * h,
                    px1,
                    j as u32,
                    &mut ts.accs[k],
                    &mut ts.last_blend[k],
                );
                blended += u64::from(n_blended);
                ts.row_live[r] -= n_saturated;
                if n_saturated > 0 && ts.row_live[r] == 0 {
                    live_rows -= 1;
                    if live_rows == 0 {
                        break 'splats;
                    }
                }
            }
        }
    }
    blended
}

/// Tests splat `s` (tile-list position `j`) against the eight pixels
/// from column `x0` of the row at offset `dy` from its center, and
/// blends it into the pixels that pass; returns how many it blended and
/// how many it saturated. Per pixel this is the seed's pair test on the
/// same expressions: skip a saturated pixel, weigh by
/// [`ProjectedSplat::falloff`] (its `exp` evaluated for every lane, then
/// selected), skip `alpha < MIN_ALPHA`. Columns at or past `px1` are off
/// the tile and never blend. Branch-free per lane, so the lanes
/// vectorize.
#[inline(always)]
fn blend_chunk(
    s: &SplatRecord,
    dy: f32,
    x0: u32,
    px1: u32,
    j: u32,
    acc: &mut RayAccumulatorX8,
    last_blend: &mut [u32; 8],
) -> (u32, u32) {
    // `c·dy·dy` keeps the seed's left-to-right product order, and the
    // `b·dx·dy` pairing stays per pixel, so `power` is bit-identical to
    // ProjectedSplat::falloff's.
    let c_dyy = s.conic_c * dy * dy;
    let color = Rgb::new(s.r, s.g, s.b);
    // Work on copies, so the lane loop runs on registers.
    let (mut lanes, mut last) = (*acc, *last_blend);
    let (mut n_blended, mut n_saturated) = (0, 0);
    for (l, slot) in last.iter_mut().enumerate() {
        let px = x0 + l as u32;
        let dx = px as f32 + 0.5 - s.x;
        let power = -0.5 * (s.conic_a * dx * dx + c_dyy) - s.conic_b * dx * dy;
        let e = fmath::exp(power);
        let falloff = if power > 0.0 { 0.0 } else { e };
        let alpha = s.opacity * falloff;
        let below_threshold = alpha < MIN_ALPHA;
        let blend = (px < px1) & !lanes.saturated(l) & !below_threshold;
        let saturated = lanes.add_alpha_sample(l, color, alpha, blend);
        *slot = if blend { j } else { *slot };
        n_blended += u32::from(blend);
        n_saturated += u32::from(blend & saturated);
    }
    (*acc, *last_blend) = (lanes, last);
    (n_blended, n_saturated)
}

impl Renderer for GaussianPipeline {
    fn pipeline(&self) -> Pipeline {
        Pipeline::Gaussian3d
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
        let camera = testutil::camera(scene, 64, 48);
        let img = GaussianPipeline::default().render(scene, &camera);
        let bg = scene.field().background();
        let non_bg = img
            .pixels()
            .iter()
            .filter(|p| (p.r - bg.r).abs() + (p.g - bg.g).abs() + (p.b - bg.b).abs() > 0.05)
            .count();
        assert!(non_bg > 100, "{non_bg} non-background pixels");
    }

    #[test]
    fn soa_path_matches_scalar_reference() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 96, 72);
        let pipeline = GaussianPipeline::default();
        let soa = pipeline.render(scene, &camera);
        let scalar = pipeline.render_scalar(scene, &camera);
        for (a, b) in soa.pixels().iter().zip(scalar.pixels()) {
            assert!(
                (a.r - b.r).abs() < 1e-5 && (a.g - b.g).abs() < 1e-5 && (a.b - b.b).abs() < 1e-5,
                "SoA {a} vs scalar {b}"
            );
        }
    }

    /// The SoA path skips a tile row once every pixel in it saturates
    /// and ends the tile's walk once every row has; pixels and all six
    /// counts still equal the seed loop's, at one worker and at four, on
    /// frames where most of the seed's candidate pairs sit behind
    /// saturated pixels.
    #[test]
    fn soa_path_matches_scalar_counts_when_rows_saturate_early() {
        let scene = testutil::scene();
        let pipeline = GaussianPipeline::default();
        for (w, h) in [(96, 72), (64, 40)] {
            let camera = testutil::camera(scene, w, h);
            let (want, want_stats) = pipeline.render_scalar_counted(scene, &camera);
            // Without saturation every pixel of a tile would examine the
            // tile's whole list; require a quarter of those pairs cut.
            pipeline.render_internal(scene, &camera, &mut Image::empty());
            let unsaturated: u64 = SCRATCH.with(|cell| {
                let tiles = &cell.borrow().tiles;
                let ps = pipeline.patch_size;
                let tiles_x = w.div_ceil(ps);
                (0..tiles.n_bins() as u32)
                    .map(|t| {
                        let (x0, y0) = (t % tiles_x * ps, t / tiles_x * ps);
                        let pixels = ((x0 + ps).min(w) - x0) * ((y0 + ps).min(h) - y0);
                        tiles.bin(t as usize).len() as u64 * u64::from(pixels)
                    })
                    .sum()
            });
            assert!(
                want_stats.candidate_pairs * 4 < unsaturated * 3,
                "{w}x{h}: too little saturation to exercise the early end \
                 ({} of {unsaturated} pairs)",
                want_stats.candidate_pairs
            );
            for workers in [1, 4] {
                let prev = uni_parallel::set_worker_count(Some(workers));
                let mut img = Image::empty();
                let stats = pipeline.render_internal(scene, &camera, &mut img);
                uni_parallel::set_worker_count(prev);
                assert_eq!(stats, want_stats, "{w}x{h}, {workers} workers");
                assert_eq!(img, want, "{w}x{h}, {workers} workers");
            }
        }
    }

    /// The cutoff's constant is `ln(1/255)` to well inside the margin.
    #[test]
    fn ln_min_alpha_is_the_log_of_min_alpha() {
        assert!((LN_MIN_ALPHA - MIN_ALPHA.ln()).abs() <= 1e-6);
        assert!(LN_ALPHA_MARGIN > 1e3 * (LN_MIN_ALPHA - MIN_ALPHA.ln()).abs().max(1e-6));
    }

    #[test]
    fn depth_key_orders_like_total_cmp() {
        let depths = [
            0.0f32,
            -0.0,
            1.5,
            1.5000001,
            1e-30,
            3e4,
            f32::MIN_POSITIVE,
            -2.5,
        ];
        for &a in &depths {
            for &b in &depths {
                assert_eq!(
                    depth_key(a).cmp(&depth_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn trace_contains_all_five_steps() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = GaussianPipeline::default().trace(scene, &camera);
        assert_eq!(
            trace.micro_ops_used(),
            vec![
                MicroOp::GeometricProcessing,
                MicroOp::Sorting,
                MicroOp::Gemm,
            ]
        );
        // Splatting -> sorting -> SH -> blending crosses op families twice.
        assert_eq!(trace.reconfiguration_count(), 2);
    }

    #[test]
    fn splat_stats_are_consistent() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 96, 64);
        let stats =
            GaussianPipeline::default().render_internal(scene, &camera, &mut Image::empty());
        assert!(stats.visible_splats > 0);
        assert!(stats.visible_splats <= stats.gaussians_streamed);
        assert!(stats.blended_pairs <= stats.candidate_pairs);
        assert!(stats.patches_nonempty > 0);
    }

    #[test]
    fn sorting_keys_scale_with_gaussian_count() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = GaussianPipeline::default().trace(scene, &camera);
        let sort = trace
            .iter()
            .find(|i| i.stage() == "depth sorting")
            .expect("sorting stage");
        if let Workload::Sort { keys_per_patch, .. } = sort.workload() {
            // Full-scale count is 300k vs a tiny baked cloud, so per-patch
            // lists must be large.
            assert!(*keys_per_patch > 10.0, "got {keys_per_patch}");
        } else {
            panic!("expected sort workload");
        }
    }

    #[test]
    fn patch_amortization_keeps_sort_cost_below_per_pixel_sorting() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = GaussianPipeline::default().trace(scene, &camera);
        let stats = trace.stats();
        let sort_cost = stats.cost_of(MicroOp::Sorting);
        // Patch-based sorting touches far fewer keys than per-pixel
        // sorting would (256 pixels share one sort).
        let per_pixel_keys = camera.pixel_count() * 100;
        assert!(sort_cost.items < per_pixel_keys);
    }

    #[test]
    fn front_splats_occlude_back_splats() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 64, 48);
        // Rendering twice is deterministic.
        let a = GaussianPipeline::default().render(scene, &camera);
        let b = GaussianPipeline::default().render(scene, &camera);
        assert_eq!(a, b);
    }
}
