//! Streaming render sessions: a scene + renderer + camera path driven
//! frame by frame through reusable render targets and (optionally) the
//! Uni-Render accelerator simulator.
//!
//! A [`RenderSession`] is a one-session [`RenderServer`]: a 1-lane
//! server (inline, so frames render on the calling thread, one in
//! flight) with a single admitted stream. Rendering, tracing, replay,
//! boundary metering, and every counter in the session's
//! [`SessionStats`] come from the server's one delivery path. The
//! stream reuses its framebuffer pool (zero steady-state allocations)
//! and one [`uni_core::ReplayScratch`], and amortizes PE-array
//! reconfigurations across frames: a stream whose frames end and start
//! in the same micro-operator family pays nothing at the boundary.

use crate::path::CameraPath;
use crate::sched::SessionHandle;
use crate::server::{RenderServer, SessionRequest};
use std::sync::Arc;
use uni_core::{Accelerator, SimReport};
use uni_geometry::{Camera, Image};
use uni_microops::{SessionStats, Trace};
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

/// A streaming render session over one scene, renderer, and camera path.
///
/// The scene is held behind an [`Arc`], so many sessions (and
/// multi-session [`RenderServer`]s) can stream over **one** baked scene
/// without per-session copies — pass an `Arc<BakedScene>` to share, or
/// a plain [`BakedScene`] to let the session own it.
pub struct RenderSession {
    server: RenderServer,
    handle: SessionHandle,
}

impl RenderSession {
    /// Creates a session that renders images only (no simulation).
    ///
    /// `scene` accepts either an owned [`BakedScene`] or an
    /// `Arc<BakedScene>` shared with other sessions.
    pub fn new(
        scene: impl Into<Arc<BakedScene>>,
        renderer: Box<dyn Renderer + Send>,
        path: CameraPath,
    ) -> Self {
        let mut server = RenderServer::new(scene).with_lanes(1);
        let handle = server.admit(SessionRequest::new(renderer, path));
        Self { server, handle }
    }

    /// Additionally traces every frame and simulates it on `accel`.
    pub fn with_accelerator(mut self, accel: Accelerator) -> Self {
        self.server = self.server.with_accelerator(accel);
        self
    }

    /// Frames not yet streamed.
    pub fn remaining(&self) -> usize {
        self.server.remaining()
    }

    /// Returns a consumed frame's buffer to the pool so the next
    /// [`RenderSession::next_frame`] reuses its allocation. The final
    /// frame's buffer is dropped: no later frame could reuse it.
    pub fn recycle(&mut self, frame: Image) {
        self.server.recycle(self.handle.id(), frame);
    }

    /// Renders (and, with an accelerator, traces + simulates) the next
    /// frame of the path. Returns `None` once the path is exhausted.
    pub fn next_frame(&mut self) -> Option<FrameReport> {
        self.server.next_frame().map(|frame| frame.report)
    }

    /// Statistics over the frames streamed so far.
    pub fn summary(&self) -> SessionStats {
        self.server
            .session_stats(self.handle)
            .expect("a session's own handle is always known")
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
        assert!(summary.cycles > 0);
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
        assert!(summary.reconfigurations_per_frame() >= 0.0);
    }
}
