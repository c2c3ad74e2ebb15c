//! # uni-engine — frame-stream rendering on top of the pipelines
//!
//! Uni-Render's headline claim is *cross-frame* efficiency: the
//! reconfigurable accelerator amortizes PE-array mode switches across
//! consecutive frames of a camera path. This crate supplies the frame-
//! stream surface that claim needs:
//!
//! - [`CameraPath`] — finite, frame-indexed camera trajectories (orbit
//!   sweeps, pose lerps, explicit waypoints);
//! - [`FramePool`] — reusable render targets with an allocation counter,
//!   so steady-state streaming allocates nothing after the first frame;
//! - [`RenderSession`] — owns a baked scene, a renderer, a framebuffer
//!   pool, and a path; yields a [`FrameReport`] per frame (image +
//!   micro-op trace + simulated [`uni_core::SimReport`]), reusing one
//!   [`uni_core::ReplayScratch`] across the stream and counting the
//!   reconfigurations amortized at frame boundaries
//!   ([`StreamSummary`]);
//! - [`RenderServer`] — the multi-session serving layer: one immutable
//!   `Arc`-shared baked scene, N concurrent camera streams
//!   ([`SessionRequest`]s, pipelines mixing freely), frames scheduled
//!   across persistent worker lanes by a pluggable deterministic
//!   [`SchedulePolicy`] ([`RoundRobin`] — the original contract —
//!   [`WeightedFair`], [`Priority`], each with a switch-coalescing
//!   variant). Sessions are addressed by typed [`SessionHandle`]s and
//!   may be [admitted](RenderServer::admit) or
//!   [closed](RenderServer::close) *mid-serve* at deterministic tick
//!   boundaries. Delivery and accounting follow the deterministic
//!   schedule order, so every served frame is bit-identical to the same
//!   frame from a standalone session, while the [`ServerSummary`]
//!   exposes the cross-session reconfigurations the shared accelerator
//!   pays at scheduled-frame boundaries.
//!
//! Rendering goes through the caller-owned-target entry points of
//! `uni_renderers`: with an accelerator attached, sessions and server
//! lanes call `Renderer::render_traced`, which renders each frame once
//! and traces it from that render's own work counts; image-only streams
//! call `Renderer::render_into`.

pub mod fleet;
pub mod path;
pub mod pool;
pub mod scene_cache;
pub mod sched;
pub mod server;
pub mod session;

pub use fleet::{
    FleetAdmitDecision, FleetFrame, FleetHandle, FleetSessionRequest, PolicyFactory,
    RendererFactory, ServerFleet,
};
pub use path::CameraPath;
pub use pool::FramePool;
pub use scene_cache::{SceneCache, SceneCacheConfig, SceneKey};
pub use sched::{
    CostAware, EarliestDeadline, LoadView, PolicyContext, Priority, RoundRobin, SchedulePolicy,
    SessionHandle, SessionView, WeightedFair,
};
pub use server::{
    AdmissionControl, AdmitDecision, DegradePolicy, RenderServer, ServedFrame, SessionRequest,
    DEFAULT_LOOKAHEAD,
};
pub use session::{FrameReport, RenderSession, StreamSummary};
// The serving summaries live in `uni_microops::serve`; re-export them so
// engine consumers get the whole serving surface from one crate.
pub use uni_microops::{
    percentile, FleetCacheStats, FleetSummary, ServerSummary, SessionStats, ShardSummary,
    SwitchCostModel,
};
