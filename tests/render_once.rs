//! Every served frame is rendered once. With an accelerator attached,
//! `RenderServer` lanes (a `RenderSession` is a one-lane server) call
//! `render_traced`, which renders the frame and traces it from that
//! render's own work counts — never `render_into` followed by a second,
//! probe-rendering `trace()`.
//!
//! A counting wrapper delegates to a real pipeline and counts every
//! entry point; the served frame, trace, and sim streams must equal the
//! unwrapped renderer's.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use uni_render::prelude::*;

fn scene() -> &'static Arc<BakedScene> {
    static SCENE: OnceLock<Arc<BakedScene>> = OnceLock::new();
    SCENE.get_or_init(|| Arc::new(SceneSpec::demo("render-once", 5).with_detail(0.03).bake()))
}

fn path(pipeline: usize) -> CameraPath {
    CameraPath::orbit(scene().spec().orbit(24, 16), 3 + pipeline % 2)
}

fn accel() -> Accelerator {
    Accelerator::new(AcceleratorConfig::paper())
}

/// Calls per entry point. Relaxed: plain statistics, read after the
/// stream has drained.
#[derive(Debug, Default)]
struct Calls {
    render_into: AtomicUsize,
    render_traced: AtomicUsize,
    trace: AtomicUsize,
}

impl Calls {
    fn get(&self) -> (usize, usize, usize) {
        (
            self.render_into.load(Ordering::Relaxed),
            self.render_traced.load(Ordering::Relaxed),
            self.trace.load(Ordering::Relaxed),
        )
    }
}

/// Delegates every call to `inner` and counts it.
struct Counting {
    inner: Box<dyn Renderer + Send>,
    calls: Arc<Calls>,
}

impl Renderer for Counting {
    fn pipeline(&self) -> Pipeline {
        self.inner.pipeline()
    }

    fn render_into(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) {
        self.calls.render_into.fetch_add(1, Ordering::Relaxed);
        self.inner.render_into(scene, camera, target);
    }

    fn render_traced(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) -> Trace {
        self.calls.render_traced.fetch_add(1, Ordering::Relaxed);
        self.inner.render_traced(scene, camera, target)
    }

    fn trace(&self, scene: &BakedScene, camera: &Camera) -> Trace {
        self.calls.trace.fetch_add(1, Ordering::Relaxed);
        self.inner.trace(scene, camera)
    }
}

fn counting(pipeline: usize, calls: &Arc<Calls>) -> Box<dyn Renderer + Send> {
    Box::new(Counting {
        inner: common::renderer(pipeline),
        calls: Arc::clone(calls),
    })
}

/// One delivered frame, reduced to what the stream must reproduce.
type Delivered = (usize, usize, u64, Option<Trace>, Option<SimReport>);

fn delivered(session: usize, report: &FrameReport) -> Delivered {
    (
        session,
        report.index,
        common::fnv1a_image(&report.image),
        report.trace.clone(),
        report.sim.clone(),
    )
}

fn stream_session(renderer: Box<dyn Renderer + Send>, pipeline: usize) -> Vec<Delivered> {
    let mut session =
        RenderSession::new(Arc::clone(scene()), renderer, path(pipeline)).with_accelerator(accel());
    let mut out = Vec::new();
    while let Some(frame) = session.next_frame() {
        out.push(delivered(pipeline, &frame));
        session.recycle(frame.image);
    }
    out
}

#[test]
fn accelerator_session_renders_each_frame_once() {
    for pipeline in 0..6 {
        let calls = Arc::new(Calls::default());
        let counted = stream_session(counting(pipeline, &calls), pipeline);
        let frames = path(pipeline).len();
        assert_eq!(counted.len(), frames);
        assert_eq!(
            calls.get(),
            (0, frames, 0),
            "pipeline {pipeline}: (render_into, render_traced, trace) calls"
        );
        assert_eq!(
            counted,
            stream_session(common::renderer(pipeline), pipeline),
            "pipeline {pipeline}: frame, trace and sim streams"
        );
    }
}

fn serve(renderers: Vec<Box<dyn Renderer + Send>>) -> Vec<Delivered> {
    let mut server = RenderServer::new(Arc::clone(scene()))
        .with_accelerator(accel())
        .with_lanes(2);
    for (pipeline, renderer) in renderers.into_iter().enumerate() {
        server.admit(SessionRequest::new(renderer, path(pipeline)));
    }
    let mut out = Vec::new();
    while let Some(frame) = server.next_frame() {
        out.push(delivered(frame.session, &frame.report));
        server.recycle(frame.session, frame.report.image);
    }
    out
}

#[test]
fn two_lane_server_renders_each_frame_once() {
    let calls: Vec<Arc<Calls>> = (0..6).map(|_| Arc::new(Calls::default())).collect();
    let counted = serve((0..6).map(|p| counting(p, &calls[p])).collect());
    for (pipeline, calls) in calls.iter().enumerate() {
        let frames = counted.iter().filter(|f| f.0 == pipeline).count();
        assert_eq!(frames, path(pipeline).len());
        assert_eq!(
            calls.get(),
            (0, frames, 0),
            "pipeline {pipeline}: (render_into, render_traced, trace) calls"
        );
    }
    assert_eq!(
        counted,
        serve((0..6).map(common::renderer).collect()),
        "frame, trace and sim streams"
    );
}
