//! Reference software implementations of the neural rendering pipelines.
//!
//! Each pipeline of Sec. II is implemented end to end over the baked scene
//! representations of [`uni_scene`], following the steps of Figs. 2-6:
//!
//! | Pipeline | Steps (paper figure) |
//! |---|---|
//! | [`MeshPipeline`] | space conversion → rasterization → texture indexing → MLP (Fig. 2) |
//! | [`MlpPipeline`] | ray casting → MLP → blending (Fig. 3) |
//! | [`LowRankPipeline`] | ray casting → low-rank decomposed indexing → MLP → blending (Fig. 4) |
//! | [`HashGridPipeline`] | ray casting → hash indexing → MLP → blending (Fig. 5) |
//! | [`GaussianPipeline`] | space conversion → splatting → sorting → MLP → blending (Fig. 6) |
//! | [`MixRtPipeline`] | mesh rasterization + hash-grid color field (Sec. VII-C, MixRT) |
//!
//! Every pipeline implements [`Renderer`]: it can `render` an image *and*
//! `trace` the frame's decomposition into the five common micro-operators of
//! Sec. IV — the trace drives the Uni-Render accelerator simulator and
//! every baseline device model. `render_traced` does both from one render.

pub mod binning;
pub mod blending;
pub mod gaussian_pipeline;
pub mod hashgrid_pipeline;
pub mod hybrid_pipeline;
pub mod lowrank_pipeline;
pub mod mesh_pipeline;
pub mod mlp_pipeline;
pub mod probe;
pub mod reference;
pub(crate) mod scratch;

pub use gaussian_pipeline::GaussianPipeline;
pub use hashgrid_pipeline::HashGridPipeline;
pub use hybrid_pipeline::MixRtPipeline;
pub use lowrank_pipeline::LowRankPipeline;
pub use mesh_pipeline::MeshPipeline;
pub use mlp_pipeline::MlpPipeline;
pub use reference::render_reference;

use uni_geometry::{Camera, Image};
use uni_microops::{Pipeline, Trace};
use uni_scene::BakedScene;

/// A neural rendering pipeline: renders images and decomposes frames into
/// micro-operator traces.
///
/// The rendering entry point is [`Renderer::render_into`]: it writes one
/// frame into a *caller-owned* target, resizing it to the camera's
/// resolution while reusing its allocation. Frame loops (the
/// `uni-engine` sessions, the benches) therefore allocate one framebuffer
/// up front and render every subsequent frame allocation-free.
/// [`Renderer::render`] is a convenience wrapper for one-shot callers.
///
/// A frame's trace is a decomposition of *that* frame: every render
/// counts its own work (rays, samples, splat pairs, raster coverage), and
/// one trace builder per pipeline turns those counts into micro-operator
/// invocations. Streamed frames call [`Renderer::render_traced`], which
/// renders once and traces from the frame's own counts. One-shot callers
/// that want only the trace call [`Renderer::trace`], which gathers the
/// counts from a capped-resolution [`probe`] render instead.
pub trait Renderer {
    /// Which pipeline family this renderer implements.
    fn pipeline(&self) -> Pipeline;

    /// Renders one frame into `target`, resizing it to `camera.width ×
    /// camera.height` (reusing its allocation) and overwriting every
    /// pixel. Steady-state frame loops allocate nothing once the target's
    /// capacity has grown to the frame size.
    fn render_into(&self, scene: &BakedScene, camera: &Camera, target: &mut Image);

    /// Renders one frame into a freshly allocated image. Convenience
    /// wrapper over [`Renderer::render_into`].
    fn render(&self, scene: &BakedScene, camera: &Camera) -> Image {
        let mut img = Image::empty();
        self.render_into(scene, camera, &mut img);
        img
    }

    /// Renders one frame into `target` exactly like
    /// [`Renderer::render_into`] and returns its micro-operator trace
    /// (Sec. IV), built from the work counts of this very render.
    ///
    /// The frame is rendered once; the counts are exact at any
    /// resolution. At or below [`probe::MAX_PROBE_AXIS`] pixels the
    /// result equals [`Renderer::trace`] for the same camera.
    fn render_traced(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) -> Trace;

    /// Decomposes one frame into its micro-operator trace (Sec. IV)
    /// without producing the image — for figure harnesses and batch
    /// replay.
    ///
    /// Workload counts are gathered by rendering at a capped probe
    /// resolution and scaling resolution-dependent quantities — see
    /// [`probe`].
    fn trace(&self, scene: &BakedScene, camera: &Camera) -> Trace;
}

/// Constructs every typical pipeline (Tab. I order) with default settings.
pub fn typical_renderers() -> Vec<Box<dyn Renderer>> {
    vec![
        Box::new(MeshPipeline::default()),
        Box::new(MlpPipeline::default()),
        Box::new(LowRankPipeline::default()),
        Box::new(HashGridPipeline::default()),
        Box::new(GaussianPipeline::default()),
    ]
}

/// Constructs all six pipelines including the MixRT hybrid.
pub fn all_renderers() -> Vec<Box<dyn Renderer>> {
    let mut v = typical_renderers();
    v.push(Box::new(MixRtPipeline::default()));
    v
}

/// Emits one GEMM invocation per MLP layer, attaching `sfu_per_row` special
/// function ops (activations / encodings) to each row of the first layer.
pub(crate) fn emit_mlp_layers(
    trace: &mut Trace,
    stage: &str,
    mlp: &uni_scene::Mlp,
    batch: u64,
    sfu_per_row: u64,
) {
    use uni_microops::{Invocation, Workload};
    for (i, layer) in mlp.layers().iter().enumerate() {
        let weight_bytes = layer.param_count() as u64 * 2;
        let mut inv = Invocation::new(
            format!("{stage} layer {i}"),
            Workload::Gemm {
                batch,
                in_dim: layer.in_dim() as u32,
                out_dim: layer.out_dim() as u32,
                weight_bytes,
            },
        );
        let mut sfu = if i == 0 { sfu_per_row * batch } else { 0 };
        if layer.activation().uses_sfu() {
            sfu += batch * layer.out_dim() as u64;
        }
        if sfu > 0 {
            inv = inv.with_sfu_ops(sfu);
        }
        trace.push(inv);
    }
}

/// Emits the hash-grid decoder MLP at full feature width (`in_dim` → 64
/// → 64 → 4, BF16 weights) as one GEMM invocation per layer over `batch`
/// rows — shared by the hash-grid and MixRT pipelines.
pub(crate) fn emit_hash_decoder(trace: &mut Trace, stage: &str, in_dim: u32, batch: u64) {
    use uni_microops::{Invocation, Workload};
    let layer_dims: [(u32, u32); 3] = [(in_dim, 64), (64, 64), (64, 4)];
    for (i, (ind, outd)) in layer_dims.into_iter().enumerate() {
        let params = u64::from(ind) * u64::from(outd) + u64::from(outd);
        trace.push(Invocation::new(
            format!("{stage} layer {i}"),
            Workload::Gemm {
                batch,
                in_dim: ind,
                out_dim: outd,
                weight_bytes: params * 2,
            },
        ));
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::OnceLock;
    use uni_scene::{BakedScene, SceneSpec};

    /// A shared tiny baked scene for renderer tests.
    pub fn scene() -> &'static BakedScene {
        static SCENE: OnceLock<BakedScene> = OnceLock::new();
        SCENE.get_or_init(|| {
            SceneSpec::demo("renderer-test", 21)
                .with_detail(0.03)
                .bake()
        })
    }

    /// A default test camera on the scene's orbit.
    pub fn camera(scene: &BakedScene, width: u32, height: u32) -> uni_geometry::Camera {
        scene.spec().orbit(width, height).camera_at(0.7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_functions_cover_all_pipelines() {
        let typical = typical_renderers();
        assert_eq!(typical.len(), 5);
        let pipelines: Vec<Pipeline> = typical.iter().map(|r| r.pipeline()).collect();
        assert_eq!(pipelines, Pipeline::TYPICAL.to_vec());
        let all = all_renderers();
        assert_eq!(all.len(), 6);
        assert_eq!(all[5].pipeline(), Pipeline::HybridMixRt);
    }
}
