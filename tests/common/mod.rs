//! Helpers shared across the integration-test binaries.
//!
//! Not every binary uses every helper, hence the `dead_code` allowances.

pub mod alloc;

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use uni_render::prelude::{
    BakedScene, CameraPath, GaussianPipeline, HashGridPipeline, Image, LowRankPipeline,
    MeshPipeline, MixRtPipeline, MlpPipeline, Renderer,
};

/// Serialization point for tests that mutate the process-wide
/// `UNI_RENDER_THREADS` variable (or render while another test might).
#[allow(dead_code)]
pub fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` under a pinned worker count (caller holds [`env_lock`]).
///
/// Pins through [`uni_render::parallel::set_worker_count`] — so
/// `worker_count()` stays off the allocator inside `f`, which the
/// steady-state allocation harness measures — and mirrors the pin into
/// `UNI_RENDER_THREADS` for anything that re-reads the environment.
#[allow(dead_code)]
pub fn with_threads<R>(threads: &str, f: impl FnOnce() -> R) -> R {
    std::env::set_var("UNI_RENDER_THREADS", threads);
    let prev = uni_render::parallel::set_worker_count(threads.trim().parse().ok());
    let result = f();
    uni_render::parallel::set_worker_count(prev);
    std::env::remove_var("UNI_RENDER_THREADS");
    result
}

/// The six pipelines by dense index — the shared session-mix generator
/// of the serving test harnesses.
#[allow(dead_code)]
pub fn renderer(index: usize) -> Box<dyn Renderer + Send> {
    match index {
        0 => Box::new(MeshPipeline::default()),
        1 => Box::new(MlpPipeline::default()),
        2 => Box::new(LowRankPipeline::default()),
        3 => Box::new(HashGridPipeline::default()),
        4 => Box::new(GaussianPipeline::default()),
        _ => Box::new(MixRtPipeline::default()),
    }
}

/// Session resolutions the generated serving mixes cycle through.
#[allow(dead_code)]
pub const RESOLUTIONS: [(u32, u32); 3] = [(16, 12), (24, 16), (32, 24)];

/// FNV-1a over the raw little-endian f32 pixel bytes — equal hashes mean
/// bit-identical frames. Both the serving determinism property test and
/// the golden-frame harness pin output through this one definition, so
/// "bit-identical" cannot drift between them.
#[allow(dead_code)]
pub fn fnv1a_image(image: &Image) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for px in image.pixels() {
        for channel in [px.r, px.g, px.b] {
            for byte in channel.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// The serving determinism oracle: per-frame [`fnv1a_image`] hashes of
/// `renderer` drawing every camera of `path` with
/// `Renderer::render_into`, into one reused image. No engine code runs,
/// so a served stream that matches it carries exactly the renderer's
/// own bits.
#[allow(dead_code)]
pub fn render_into_hashes(
    scene: &BakedScene,
    renderer: &dyn Renderer,
    path: &CameraPath,
) -> Vec<u64> {
    let mut image = Image::empty();
    path.iter()
        .map(|camera| {
            renderer.render_into(scene, &camera, &mut image);
            fnv1a_image(&image)
        })
        .collect()
}
