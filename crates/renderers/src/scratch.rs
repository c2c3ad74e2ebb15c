//! Per-thread scratch arenas for the scanline pipelines.
//!
//! Every volume/raster pipeline needs the same small set of per-ray
//! buffers: stratified sample distances, a fetched-feature vector, MLP
//! forward activations, and (for KiloNeRF) an encoding buffer. Band
//! workers borrow them from a thread-local arena, so the steady-state
//! per-pixel loops never touch the allocator and parallel bands get
//! disjoint buffers for free.
//!
//! The thread-local is consulted only at the *band boundary* (one
//! [`with_ray_scratch`] call per band closure); everything below it —
//! `render_rows` / `shade_rows` and the per-ray loops — takes the
//! [`RayScratch`] as an explicit `&mut` parameter, so the data path is
//! visible in the signatures and callers with their own arenas (tests,
//! future batching layers) can bypass the thread-local entirely.

use std::cell::RefCell;
use uni_scene::{KiloNerfScratch, MlpScratch};

/// Number of image rows a parallel band covers in the scanline pipelines.
/// 16 matches the PE pixel-region tiling of the Geometric Processing
/// dataflow (Fig. 10) and the 3DGS patch height.
pub(crate) const BAND_ROWS: u32 = 16;

/// Reusable per-ray buffers.
#[derive(Debug, Default)]
pub(crate) struct RayScratch {
    /// Stratified sample distances along the current ray.
    pub ts: Vec<f32>,
    /// Fetched feature vector (hash grid, tri-plane, texture).
    pub feats: Vec<f32>,
    /// Decoder / deferred MLP activations.
    pub mlp: MlpScratch,
    /// KiloNeRF query buffers.
    pub kilo: KiloNerfScratch,
}

/// Reusable whole-frame rasterization buffers (mesh + hybrid pipelines).
///
/// Consulted once per frame on the orchestrating thread (not per band),
/// so the Z-buffer, the projected-vertex cache and the band bins stop
/// being per-frame allocations once their capacities settle.
#[derive(Debug, Default)]
pub(crate) struct RasterScratch {
    /// Per-pixel nearest-hit buffer, row-major.
    pub zbuf: Vec<Option<crate::mesh_pipeline::PixelHitPublic>>,
    /// Per-vertex projected screen position + depth.
    pub projected: Vec<Option<(uni_geometry::Vec2, f32)>>,
    /// Per-triangle band span, packed `first << 16 | last`.
    pub spans: Vec<u32>,
    /// Per-band triangle id lists.
    pub bins: crate::binning::Bins,
}

thread_local! {
    static RAY: RefCell<RayScratch> = RefCell::new(RayScratch::default());
    static RASTER: RefCell<RasterScratch> = RefCell::new(RasterScratch::default());
}

/// Runs `f` with this thread's ray scratch.
pub(crate) fn with_ray_scratch<R>(f: impl FnOnce(&mut RayScratch) -> R) -> R {
    RAY.with(|cell| f(&mut cell.borrow_mut()))
}

/// Runs `f` with this thread's rasterization scratch.
pub(crate) fn with_raster_scratch<R>(f: impl FnOnce(&mut RasterScratch) -> R) -> R {
    RASTER.with(|cell| f(&mut cell.borrow_mut()))
}
