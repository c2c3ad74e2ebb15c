//! The volume pipelines' one frame loop (Sec. II, Figs. 3–5): ray
//! casting → per-sample shading → blending.
//!
//! The MLP, low-rank and hash-grid pipelines run the same chain and
//! differ only in how a sample is fetched and decoded. [`march_and_shade`]
//! owns everything they share: the band fan-out, each band's jitter
//! generator, ray generation, the bounds clip, stratified sampling, the
//! saturation stop and the work counts. Each pipeline supplies only a
//! [`VolumeShading`]. This is the ray-marching sibling of
//! [`rasterize_and_shade`](crate::mesh_pipeline::rasterize_and_shade).

use crate::blending::RayAccumulator;
use crate::scratch::{with_ray_scratch, RayScratch, ShadeScratch, BAND_ROWS};
use uni_geometry::sampling::XorShift64;
use uni_geometry::{Aabb, Camera, Image, Ray, Rgb, StratifiedSampler, Vec3};
use uni_scene::BakedScene;

/// Exact work counts of one marched frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MarchStats {
    /// Primary rays, one per pixel.
    pub rays: u64,
    /// Rays whose clip against the pipeline's bounds is non-empty.
    pub rays_in_bounds: u64,
    /// Samples the march reached before each ray saturated.
    pub samples_marched: u64,
    /// Reached samples that passed the pipeline's gate.
    pub samples_gated: u64,
    /// Pixels whose finish ran a per-pixel deferred stage.
    pub pixels_deferred: u64,
}

impl MarchStats {
    fn merge(self, o: MarchStats) -> MarchStats {
        MarchStats {
            rays: self.rays + o.rays,
            rays_in_bounds: self.rays_in_bounds + o.rays_in_bounds,
            samples_marched: self.samples_marched + o.samples_marched,
            samples_gated: self.samples_gated + o.samples_gated,
            pixels_deferred: self.pixels_deferred + o.pixels_deferred,
        }
    }
}

/// What a volume pipeline supplies to [`march_and_shade`]: its volume,
/// its sampling, and the shading of one sample and of one pixel.
pub(crate) trait VolumeShading: Sync {
    /// State one ray carries from its samples to its pixel's finish.
    type RayState: Default;
    /// Seed of every band's stratified-jitter generator.
    const SEED: u64;

    /// The volume rays are clipped against.
    fn bounds(&self, scene: &BakedScene) -> Aabb;

    /// Stratified samples per in-bounds ray.
    fn samples_per_ray(&self, scene: &BakedScene) -> u32;

    /// Length of the feature vector a band's scratch holds.
    fn feature_dim(&self, _scene: &BakedScene) -> usize {
        0
    }

    /// Shades the sample at `p`, a segment `dt` long, into `acc`.
    /// Returns whether the sample passed the pipeline's gate.
    fn shade(
        &self,
        scene: &BakedScene,
        p: Vec3,
        dt: f32,
        acc: &mut RayAccumulator,
        state: &mut Self::RayState,
        scratch: &mut ShadeScratch,
    ) -> bool;

    /// Resolves an in-bounds ray's pixel against `bg`. Returns the pixel
    /// and whether a per-pixel deferred stage ran.
    #[inline]
    fn finish(
        &self,
        _scene: &BakedScene,
        _ray: &Ray,
        acc: RayAccumulator,
        _state: &Self::RayState,
        bg: Rgb,
        _scratch: &mut ShadeScratch,
    ) -> (Rgb, bool) {
        (acc.finish(bg), false)
    }
}

/// Renders one volume frame into `target` (resized to the camera, rays
/// that miss the bounds left at the background) and returns its work
/// counts. Bands of [`BAND_ROWS`] rows run in parallel, each with a
/// fresh jitter generator seeded from [`VolumeShading::SEED`], and their
/// counts merge in band order, so pixels and counts are the same at any
/// worker count.
pub(crate) fn march_and_shade<S: VolumeShading>(
    scene: &BakedScene,
    camera: &Camera,
    target: &mut Image,
    shading: &S,
) -> MarchStats {
    target.resize(camera.width, camera.height, scene.field().background());
    uni_parallel::par_bands_fold(
        target.pixels_mut(),
        BAND_ROWS as usize * camera.width as usize,
        MarchStats::default(),
        |band, chunk| {
            with_ray_scratch(|rs| {
                march_rows(shading, scene, camera, band as u32 * BAND_ROWS, chunk, rs)
            })
        },
        MarchStats::merge,
    )
}

/// Marches the scanlines starting at row `y0` into `chunk` (whole rows,
/// row-major), using the caller's ray scratch arena.
// uni-lint: hot
fn march_rows<S: VolumeShading>(
    shading: &S,
    scene: &BakedScene,
    camera: &Camera,
    y0: u32,
    chunk: &mut [Rgb],
    rs: &mut RayScratch,
) -> MarchStats {
    let bg = scene.field().background();
    let bounds = shading.bounds(scene);
    let samples_per_ray = shading.samples_per_ray(scene) as usize;
    let sampler = StratifiedSampler::new(samples_per_ray);
    let mut rng = XorShift64::new(S::SEED);
    let rays = camera.ray_generator();
    let width = camera.width.max(1) as usize;
    let mut stats = MarchStats::default();
    let RayScratch { ts, shade } = rs;
    shade.feats.clear();
    shade.feats.resize(shading.feature_dim(scene), 0.0);
    for (dy, row) in chunk.chunks_exact_mut(width).enumerate() {
        let y = y0 + dy as u32;
        for (x, pixel) in row.iter_mut().enumerate() {
            stats.rays += 1;
            let ray = rays.ray(x as f32 + 0.5, y as f32 + 0.5);
            let Some((t0, t1)) = bounds.intersect_ray(&ray, camera.near, camera.far) else {
                continue;
            };
            stats.rays_in_bounds += 1;
            let mut acc = RayAccumulator::new();
            let mut state = S::RayState::default();
            sampler.sample_into(t0, t1, &mut rng, ts);
            let dt = (t1 - t0) / samples_per_ray.max(1) as f32;
            for &t in ts.iter() {
                if acc.saturated() {
                    break;
                }
                stats.samples_marched += 1;
                if shading.shade(scene, ray.at(t), dt, &mut acc, &mut state, shade) {
                    stats.samples_gated += 1;
                }
            }
            let (color, deferred) = shading.finish(scene, &ray, acc, &state, bg, shade);
            stats.pixels_deferred += u64::from(deferred);
            *pixel = color;
        }
    }
    stats
}
