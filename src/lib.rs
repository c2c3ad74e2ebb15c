//! # Uni-Render
//!
//! A from-scratch reproduction of **"Uni-Render: A Unified Accelerator for
//! Real-Time Rendering Across Diverse Neural Renderers"** (HPCA 2025).
//!
//! The workspace implements, in pure Rust:
//!
//! - the five typical neural rendering pipelines the paper unifies (mesh,
//!   MLP, low-rank-decomposed-grid, hash-grid, 3D-Gaussian) plus the MixRT
//!   hybrid, as reference software renderers ([`renderers`]);
//! - the micro-operator abstraction of Sec. IV — five common micro-operators,
//!   each an indexing task plus a reduction task ([`microops`]);
//! - the Uni-Render accelerator itself as a cycle-level simulator with the
//!   reconfigurable PE array, Mode 1/Mode 2 data networks, per-micro-operator
//!   dataflows, and a 28 nm energy/area model ([`accel`]);
//! - calibrated models of every baseline device and accelerator the paper
//!   benchmarks against ([`baselines`]);
//! - scene representations, procedural scene baking, and dataset catalogs
//!   ([`scene`], [`geometry`]).
//!
//! This facade crate re-exports the member crates and offers a [`prelude`].
//!
//! # Quickstart: stream a camera path
//!
//! Rendering is frame-stream-first: a [`engine::RenderSession`] owns a
//! baked scene, a renderer, a reusable framebuffer pool, and a camera
//! path, and yields one [`engine::FrameReport`] per frame — the rendered
//! image plus the frame's micro-operator trace and simulated accelerator
//! report. Each frame is rendered once: `Renderer::render_traced` writes
//! the image and traces it from that render's own work counts, in the
//! session and in every [`engine::RenderServer`] lane alike. Recycling
//! each frame's buffer keeps the stream allocation-free after the first
//! frame; the end-of-stream summary reports throughput and the
//! reconfigurations amortized across frame boundaries.
//!
//! ```
//! use uni_render::prelude::*;
//!
//! // Bake a small procedural scene into all five representations.
//! let spec = SceneSpec::demo("quickstart", 42).with_detail(0.25);
//! let scene = spec.bake();
//!
//! // Stream a 4-frame orbit through the hash-grid pipeline, simulating
//! // every frame on the Uni-Render accelerator.
//! let path = CameraPath::orbit(spec.orbit(64, 48), 4);
//! let mut session = RenderSession::new(scene, Box::new(HashGridPipeline::default()), path)
//!     .with_accelerator(Accelerator::new(AcceleratorConfig::paper()));
//! while let Some(frame) = session.next_frame() {
//!     assert_eq!(frame.image.width(), 64);
//!     assert!(frame.sim.as_ref().expect("simulated").fps() > 0.0);
//!     session.recycle(frame.image); // reuse the framebuffer
//! }
//! let summary = session.summary();
//! assert_eq!(summary.frames, 4);
//! assert_eq!(summary.framebuffer_allocations, 1);
//! assert!(summary.mean_fps() > 0.0);
//! ```
//!
//! One-shot rendering is still available: `renderer.render(&scene,
//! &camera)` allocates a frame, `renderer.render_into(&scene, &camera,
//! &mut image)` writes into a caller-owned target, and
//! `renderer.trace(&scene, &camera)` traces a frame without its image
//! (from a capped probe render above 192 px; see [`renderers::probe`]).

pub use uni_baselines as baselines;
pub use uni_core as accel;
pub use uni_engine as engine;
pub use uni_geometry as geometry;
pub use uni_microops as microops;
pub use uni_parallel as parallel;
pub use uni_renderers as renderers;
pub use uni_scene as scene;

/// Commonly used items across the workspace.
pub mod prelude {
    pub use uni_baselines::{all_baselines, commercial_devices, dedicated_accelerators, Device};
    pub use uni_core::{Accelerator, AcceleratorConfig, ReplayScratch, SimReport};
    pub use uni_engine::{
        AdmissionControl, AdmitDecision, CameraPath, CostAware, DegradePolicy, EarliestDeadline,
        FleetAdmitDecision, FleetCacheStats, FleetFrame, FleetHandle, FleetSessionRequest,
        FleetSummary, FramePool, FrameReport, LoadView, PolicyContext, Priority, RenderServer,
        RenderSession, RoundRobin, SceneCache, SceneCacheConfig, SceneKey, SchedulePolicy,
        ServedFrame, ServerFleet, ServerSummary, SessionHandle, SessionRequest, SessionStats,
        SessionView, ShardSummary, StreamSummary, SwitchCostModel, WeightedFair,
    };
    pub use uni_geometry::{Aabb, Camera, Image, Mat4, Orbit, Ray, Rgb, Vec2, Vec3, Vec4};
    pub use uni_microops::{MicroOp, Pipeline, Trace};
    pub use uni_renderers::{
        GaussianPipeline, HashGridPipeline, LowRankPipeline, MeshPipeline, MixRtPipeline,
        MlpPipeline, Renderer,
    };
    pub use uni_scene::{BakedScene, SceneSpec};
}
