//! Streaming render sessions: a scene + renderer + camera path driven
//! frame by frame through reusable render targets and (optionally) the
//! Uni-Render accelerator simulator.
//!
//! A [`RenderSession`] is the frame-stream surface the paper's
//! cross-frame claims live on: consecutive frames of a camera path reuse
//! the framebuffer pool (zero steady-state allocations), reuse one
//! [`ReplayScratch`] for trace replay, and amortize PE-array
//! reconfigurations across the stream — the session tracks both the
//! switches *inside* each frame and the ones *at frame boundaries*,
//! where a stream whose frames end and start in the same micro-operator
//! family pays nothing.
//!
//! Each frame is rendered, traced, and replayed in one serial step on
//! the calling thread. That keeps the session an independent reference:
//! the server and fleet determinism suites compare served frames against
//! it bit for bit. With an accelerator attached the frame is rendered
//! once, through `Renderer::render_traced`, and traced from that
//! render's own work counts; without one, `Renderer::render_into`
//! renders the image alone.

use crate::path::CameraPath;
use crate::pool::FramePool;
use std::sync::Arc;
use uni_core::{Accelerator, ReplayScratch, SimReport};
use uni_geometry::{Camera, Image};
use uni_microops::{BoundaryMeter, Trace};
use uni_renderers::Renderer;
use uni_scene::BakedScene;

/// Everything one streamed frame produced.
#[derive(Debug)]
pub struct FrameReport {
    /// Frame position on the camera path.
    pub index: usize,
    /// The camera the frame was rendered from.
    pub camera: Camera,
    /// The rendered frame. Hand it back via [`RenderSession::recycle`]
    /// to keep the stream allocation-free.
    pub image: Image,
    /// The frame's micro-operator trace (when the session simulates).
    pub trace: Option<Trace>,
    /// The simulated accelerator report (when the session simulates).
    pub sim: Option<SimReport>,
    /// Whether entering this frame required a PE-array mode switch from
    /// the previous frame's final micro-operator family. `false` for the
    /// first frame and whenever the boundary families match — the
    /// cross-frame amortization the stream exists to measure.
    pub boundary_reconfiguration: bool,
}

/// Aggregate statistics over the frames a session has streamed so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Frames streamed.
    pub frames: usize,
    /// Total simulated cycles across the stream, including the
    /// reconfiguration windows paid at frame boundaries.
    pub total_cycles: u64,
    /// Total simulated seconds across the stream, including the
    /// reconfiguration windows paid at frame boundaries.
    pub total_seconds: f64,
    /// Reconfigurations *inside* frames (micro-op family switches while
    /// walking each trace).
    pub in_frame_reconfigurations: u64,
    /// Reconfigurations *at* frame boundaries (previous frame ended in a
    /// different family than the next begins).
    pub boundary_reconfigurations: u64,
    /// Frame boundaries that needed no switch — the reconfigurations the
    /// stream amortized away versus treating every frame as cold.
    pub boundary_switches_avoided: u64,
    /// Fresh framebuffer allocations the session's pool performed.
    pub framebuffer_allocations: u64,
    /// Median simulated per-frame latency (seconds: execution plus the
    /// boundary reconfiguration entering the frame), nearest-rank over
    /// the delivered frames; `0.0` until a simulated frame streams.
    pub latency_p50: f64,
    /// 99th-percentile simulated per-frame latency (nearest-rank);
    /// `0.0` until a simulated frame streams. Computed by the same
    /// shared [`uni_microops::percentile`] as the server summaries.
    pub latency_p99: f64,
}

impl StreamSummary {
    /// Simulated throughput over the stream (frames per simulated
    /// second). `0.0` when nothing has been simulated (no accelerator
    /// attached, or no frames streamed yet).
    pub fn mean_fps(&self) -> f64 {
        if self.total_seconds > 0.0 {
            self.frames as f64 / self.total_seconds
        } else {
            0.0
        }
    }

    /// All reconfigurations the stream paid: in-frame plus boundary.
    pub fn total_reconfigurations(&self) -> u64 {
        self.in_frame_reconfigurations + self.boundary_reconfigurations
    }

    /// Reconfigurations per frame, amortized across the whole stream.
    pub fn reconfigurations_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_reconfigurations() as f64 / self.frames as f64
        }
    }
}

/// A streaming render session over one scene, renderer, and camera path.
///
/// The scene is held behind an [`Arc`], so many sessions (and the
/// multi-session [`crate::RenderServer`]) can stream over **one** baked
/// scene without per-session copies — pass an `Arc<BakedScene>` to share,
/// or a plain [`BakedScene`] to let the session own it.
///
/// Every frame is rendered, traced, and replayed on the calling thread,
/// in path order, so a recycled stream holds exactly one framebuffer.
pub struct RenderSession {
    scene: Arc<BakedScene>,
    renderer: Box<dyn Renderer>,
    path: CameraPath,
    pool: FramePool,
    accel: Option<Accelerator>,
    replay: ReplayScratch,
    cursor: usize,
    boundary: BoundaryMeter,
    frames_done: usize,
    total_cycles: u64,
    total_seconds: f64,
    in_frame_reconfigs: u64,
    /// Per delivered frame: the sim-seconds charged to it, in delivery
    /// order — the population the summary's latency percentiles are
    /// computed over.
    latencies: Vec<f64>,
}

impl RenderSession {
    /// Creates a session that renders images only (no simulation).
    ///
    /// `scene` accepts either an owned [`BakedScene`] or an
    /// `Arc<BakedScene>` shared with other sessions.
    pub fn new(
        scene: impl Into<Arc<BakedScene>>,
        renderer: Box<dyn Renderer>,
        path: CameraPath,
    ) -> Self {
        Self {
            scene: scene.into(),
            renderer,
            path,
            pool: FramePool::new(),
            accel: None,
            replay: ReplayScratch::default(),
            cursor: 0,
            boundary: BoundaryMeter::new(),
            frames_done: 0,
            total_cycles: 0,
            total_seconds: 0.0,
            in_frame_reconfigs: 0,
            latencies: Vec::new(),
        }
    }

    /// Additionally traces every frame and simulates it on `accel`,
    /// reusing one [`ReplayScratch`] across the stream.
    pub fn with_accelerator(mut self, accel: Accelerator) -> Self {
        self.accel = Some(accel);
        self
    }

    /// The scene being rendered.
    pub fn scene(&self) -> &BakedScene {
        &self.scene
    }

    /// A shared handle to the scene (no copy) — hand it to further
    /// sessions or a [`crate::RenderServer`] serving the same scene.
    pub fn shared_scene(&self) -> Arc<BakedScene> {
        Arc::clone(&self.scene)
    }

    /// The renderer driving the stream.
    pub fn renderer(&self) -> &dyn Renderer {
        self.renderer.as_ref()
    }

    /// The camera path being walked.
    pub fn path(&self) -> &CameraPath {
        &self.path
    }

    /// The session's framebuffer pool.
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// Frames not yet streamed.
    pub fn remaining(&self) -> usize {
        self.path.len() - self.cursor
    }

    /// Returns a consumed frame's buffer to the pool so the next
    /// [`RenderSession::next_frame`] reuses its allocation.
    pub fn recycle(&mut self, frame: Image) {
        self.pool.release(frame);
    }

    /// Renders (and, with an accelerator, traces + simulates) the next
    /// frame of the path. Returns `None` once the path is exhausted.
    pub fn next_frame(&mut self) -> Option<FrameReport> {
        if self.cursor >= self.path.len() {
            return None;
        }
        let index = self.cursor;
        self.cursor += 1;
        let camera = self.path.camera(index);
        // Rendering resizes and overwrites the target, so the
        // acquired buffer arrives untouched (one full-frame fill per
        // frame, not two). `acquire_for` also counts the reallocation a
        // mid-stream resolution growth is about to pay.
        let mut image = self.pool.acquire_for(camera.width, camera.height);

        let mut trace_out = None;
        let mut sim_out = None;
        let mut boundary = false;
        if let Some(accel) = &self.accel {
            let trace = self
                .renderer
                .render_traced(&self.scene, &camera, &mut image);
            let sim = accel.simulate_with_scratch(&trace, &mut self.replay);
            let cfg = *accel.config();
            boundary = self.account_frame(&cfg, &trace, &sim);
            trace_out = Some(trace);
            sim_out = Some(sim);
        } else {
            self.renderer.render_into(&self.scene, &camera, &mut image);
        }
        self.frames_done += 1;
        Some(FrameReport {
            index,
            camera,
            image,
            trace: trace_out,
            sim: sim_out,
            boundary_reconfiguration: boundary,
        })
    }

    /// Charges one delivered frame to the stream totals (boundary
    /// switch, in-frame reconfigurations, cycles, seconds) and returns
    /// whether entering it paid a boundary reconfiguration. Boundaries
    /// are metered by the server's pipeline-aware rule; one renderer
    /// never crosses pipelines, so only the seam's micro-operator
    /// families decide.
    fn account_frame(
        &mut self,
        cfg: &uni_core::AcceleratorConfig,
        trace: &Trace,
        sim: &SimReport,
    ) -> bool {
        let mut boundary = false;
        let mut frame_seconds = sim.seconds;
        if self
            .boundary
            .observe_for(self.renderer.pipeline(), trace.first_op(), trace.last_op())
        {
            boundary = true;
            // Per-frame simulation charges only in-frame switches
            // (a frame's first op is free), so the stream pays the
            // boundary switch here — keeping the time accounting
            // consistent with total_reconfigurations().
            self.total_cycles += cfg.reconfig_cycles;
            self.total_seconds += cfg.cycles_to_seconds(cfg.reconfig_cycles);
            frame_seconds += cfg.cycles_to_seconds(cfg.reconfig_cycles);
        }
        self.in_frame_reconfigs += sim.reconfigurations;
        self.total_cycles += sim.cycles;
        self.total_seconds += sim.seconds;
        self.latencies.push(frame_seconds);
        boundary
    }

    /// Statistics over the frames streamed so far.
    pub fn summary(&self) -> StreamSummary {
        let (latency_p50, latency_p99) = if self.latencies.is_empty() {
            (0.0, 0.0)
        } else {
            let mut sorted = self.latencies.clone();
            sorted.sort_by(f64::total_cmp);
            (
                uni_microops::percentile(&sorted, 50.0),
                uni_microops::percentile(&sorted, 99.0),
            )
        };
        StreamSummary {
            frames: self.frames_done,
            total_cycles: self.total_cycles,
            total_seconds: self.total_seconds,
            in_frame_reconfigurations: self.in_frame_reconfigs,
            boundary_reconfigurations: self.boundary.switches(),
            boundary_switches_avoided: self.boundary.avoided(),
            framebuffer_allocations: self.pool.allocations(),
            latency_p50,
            latency_p99,
        }
    }

    /// Batch replay: traces *every* frame of the path (one-shot
    /// `Renderer::trace`, no images) and simulates the whole batch
    /// through [`Accelerator::simulate_many`] (parallel workers, one
    /// [`ReplayScratch`] per worker). Independent of the streaming
    /// cursor. Returns `None` without an accelerator.
    pub fn replay_path(&self) -> Option<Vec<SimReport>> {
        let accel = self.accel.as_ref()?;
        let traces: Vec<Trace> = self
            .path
            .iter()
            .map(|camera| self.renderer.trace(&self.scene, &camera))
            .collect();
        Some(accel.simulate_many(&traces))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uni_core::AcceleratorConfig;
    use uni_renderers::MeshPipeline;
    use uni_scene::SceneSpec;

    fn session(frames: usize) -> RenderSession {
        let spec = SceneSpec::demo("engine-test", 9).with_detail(0.03);
        let scene = spec.bake();
        let path = CameraPath::orbit(spec.orbit(48, 32), frames);
        RenderSession::new(scene, Box::new(MeshPipeline::default()), path)
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
    }

    #[test]
    fn streams_every_frame_then_ends() {
        let mut s = session(3);
        let mut seen = 0;
        while let Some(frame) = s.next_frame() {
            assert_eq!(frame.index, seen);
            assert_eq!(frame.image.width(), 48);
            assert!(frame.sim.as_ref().expect("simulated").fps() > 0.0);
            seen += 1;
            s.recycle(frame.image);
        }
        assert_eq!(seen, 3);
        assert_eq!(s.remaining(), 0);
        assert!(s.next_frame().is_none());
        let summary = s.summary();
        assert_eq!(summary.frames, 3);
        assert!(summary.total_cycles > 0);
        assert!(summary.mean_fps() > 0.0);
    }

    #[test]
    fn recycling_keeps_the_stream_allocation_free() {
        let mut s = session(4);
        let mut ptr = None;
        while let Some(frame) = s.next_frame() {
            let p = frame.image.pixels().as_ptr();
            if let Some(prev) = ptr {
                assert_eq!(p, prev, "framebuffer reused across frames");
            }
            ptr = Some(p);
            s.recycle(frame.image);
        }
        assert_eq!(s.summary().framebuffer_allocations, 1);
    }

    #[test]
    fn boundary_accounting_covers_every_gap() {
        let mut s = session(4);
        while let Some(frame) = s.next_frame() {
            s.recycle(frame.image);
        }
        let summary = s.summary();
        // 4 frames -> 3 boundaries, each either amortized or a switch.
        assert_eq!(
            summary.boundary_reconfigurations + summary.boundary_switches_avoided,
            3
        );
        // Same pipeline every frame: boundaries cost at most one switch
        // each, so amortized per-frame switches are bounded by the
        // per-frame trace switches + 1.
        assert!(summary.reconfigurations_per_frame() >= 0.0);
    }

    #[test]
    fn replay_path_matches_streamed_reports() {
        let mut s = session(2);
        let batch = s.replay_path().expect("has accelerator");
        assert_eq!(batch.len(), 2);
        let first = s.next_frame().expect("frame 0");
        assert_eq!(
            first.sim.expect("simulated").cycles,
            batch[0].cycles,
            "streamed and batched replay agree"
        );
    }
}
