//! Integration tests for the frame-stream engine: sessions over orbit /
//! lerp camera paths must reuse the framebuffer pool (stable pointer and
//! capacity after frame 1), report per-frame simulated performance, and
//! account reconfigurations amortized across the stream.

use std::sync::OnceLock;
use uni_render::prelude::*;

fn scene() -> &'static BakedScene {
    static SCENE: OnceLock<BakedScene> = OnceLock::new();
    SCENE.get_or_init(|| SceneSpec::demo("stream", 123).with_detail(0.03).bake())
}

fn orbit_path(frames: usize, w: u32, h: u32) -> CameraPath {
    CameraPath::orbit(scene().spec().orbit(w, h), frames)
}

/// A 4-frame orbit stream reuses the framebuffer: the pixel pointer and
/// capacity are stable across every frame after the first, and the pool
/// performs exactly one allocation.
#[test]
fn four_frame_orbit_stream_reuses_the_framebuffer() {
    let path = orbit_path(4, 64, 48);
    let mut session =
        RenderSession::new(scene().clone(), Box::new(GaussianPipeline::default()), path);
    let mut ptr_cap = None;
    let mut frames = 0;
    while let Some(frame) = session.next_frame() {
        assert_eq!((frame.image.width(), frame.image.height()), (64, 48));
        let here = (frame.image.pixels().as_ptr(), frame.image.capacity());
        if let Some(prev) = ptr_cap {
            assert_eq!(here, prev, "frame {}: pointer/capacity stable", frame.index);
        }
        ptr_cap = Some(here);
        frames += 1;
        session.recycle(frame.image);
    }
    assert_eq!(frames, 4);
    assert_eq!(session.summary().framebuffer_allocations, 1);
}

/// Attaching an accelerator keeps the single-buffer contract: a recycled
/// simulated stream hands back the same framebuffer every frame, and the
/// pool allocates exactly once.
#[test]
fn accelerator_session_streams_on_one_framebuffer() {
    let path = orbit_path(5, 48, 32);
    let mut session = RenderSession::new(scene().clone(), Box::new(MeshPipeline::default()), path)
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()));
    let mut ptr = None;
    let mut frames = 0;
    while let Some(frame) = session.next_frame() {
        assert!(frame.sim.is_some(), "frame {} simulated", frame.index);
        let here = frame.image.pixels().as_ptr();
        if let Some(prev) = ptr {
            assert_eq!(here, prev, "frame {}: framebuffer reused", frame.index);
        }
        ptr = Some(here);
        frames += 1;
        session.recycle(frame.image);
    }
    assert_eq!(frames, 5);
    assert_eq!(session.summary().framebuffer_allocations, 1);
}

/// With an accelerator attached, every frame carries a trace and a
/// simulated report, and the stream summary aggregates them.
#[test]
fn simulated_stream_reports_per_frame_fps_and_amortized_reconfigurations() {
    let path = orbit_path(5, 48, 32);
    let mut session =
        RenderSession::new(scene().clone(), Box::new(GaussianPipeline::default()), path)
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()));
    let mut per_frame_reconfigs = 0;
    while let Some(frame) = session.next_frame() {
        let sim = frame.sim.as_ref().expect("simulated");
        assert!(sim.fps() > 0.0, "frame {} has a simulated fps", frame.index);
        assert!(frame.trace.is_some());
        per_frame_reconfigs += sim.reconfigurations;
        session.recycle(frame.image);
    }
    let summary = session.summary();
    assert_eq!(summary.frames, 5);
    assert_eq!(summary.in_frame_reconfigurations, per_frame_reconfigs);
    // 5 frames -> 4 boundaries, each either a switch or amortized away.
    assert_eq!(
        summary.boundary_reconfigurations + summary.boundary_switches_avoided,
        4
    );
    assert!(summary.mean_fps() > 0.0);
    assert!(summary.cycles > 0);
    // Amortized switches per frame can never exceed per-frame switches
    // plus one boundary each.
    assert!(summary.reconfigurations_per_frame() <= (per_frame_reconfigs as f64 / 5.0) + 1.0);
}

/// The same pipeline streamed frame to frame starts and ends each frame
/// in the same micro-op family, so a homogeneous stream amortizes every
/// boundary it can: boundary accounting must be deterministic across
/// runs.
#[test]
fn homogeneous_stream_boundary_accounting_is_deterministic() {
    let run = || {
        let mut session = RenderSession::new(
            scene().clone(),
            Box::new(HashGridPipeline::default()),
            orbit_path(3, 48, 32),
        )
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()));
        while let Some(frame) = session.next_frame() {
            session.recycle(frame.image);
        }
        let s = session.summary();
        (
            s.boundary_reconfigurations,
            s.boundary_switches_avoided,
            s.in_frame_reconfigurations,
        )
    };
    assert_eq!(run(), run());
}

/// Batch replay through `Accelerator::simulate_many` of one-shot
/// `Renderer::trace`s agrees with the streamed per-frame replay.
#[test]
fn batch_replay_matches_streamed_replay() {
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let path = orbit_path(3, 48, 32);
    let traces: Vec<Trace> = path
        .iter()
        .map(|camera| MeshPipeline::default().trace(scene(), &camera))
        .collect();
    let batch = accel.simulate_many(&traces);
    let mut session = RenderSession::new(scene().clone(), Box::new(MeshPipeline::default()), path)
        .with_accelerator(accel);
    assert_eq!(batch.len(), 3);
    let mut i = 0;
    while let Some(frame) = session.next_frame() {
        assert_eq!(
            frame.sim.as_ref().expect("simulated").cycles,
            batch[i].cycles,
            "frame {i}"
        );
        i += 1;
        session.recycle(frame.image);
    }
}

/// A stream whose resolution shrinks and then grows back stays on one
/// allocation (capacity is retained), while growing *past* the pooled
/// capacity mid-stream reallocates exactly once — and is counted.
#[test]
fn mid_stream_resolution_growth_is_counted_exactly_once() {
    let orbit = scene().spec().orbit(32, 24);
    let cam = |w: u32, h: u32, angle: f32| orbit.camera_at(angle).with_resolution(w, h);
    // 32x24 -> shrink to 16x12 -> grow back (free) -> grow past capacity.
    let path = CameraPath::waypoints(vec![
        cam(32, 24, 0.0),
        cam(16, 12, 0.3),
        cam(32, 24, 0.6),
        cam(64, 48, 0.9),
        cam(64, 48, 1.2),
    ]);
    let mut session = RenderSession::new(scene().clone(), Box::new(MeshPipeline::default()), path);
    let mut allocs_per_frame = Vec::new();
    while let Some(frame) = session.next_frame() {
        let camera = frame.camera;
        assert_eq!(
            (frame.image.width(), frame.image.height()),
            (camera.width, camera.height),
            "frame {} rendered at its camera's resolution",
            frame.index
        );
        allocs_per_frame.push(session.summary().framebuffer_allocations);
        session.recycle(frame.image);
    }
    // One cold allocation, free shrink-then-grow, then exactly one
    // counted reallocation when 64x48 exceeds the 32x24 capacity.
    assert_eq!(allocs_per_frame, vec![1, 1, 1, 2, 2]);
}

/// A lerp path streams frames whose cameras move from one pose to the
/// other; the session renders every one at the path resolution.
#[test]
fn lerp_path_streams_between_poses() {
    let orbit = scene().spec().orbit(40, 30);
    let path = CameraPath::lerp(orbit.camera_at(0.0), orbit.camera_at(1.2), 4);
    let mut session = RenderSession::new(scene().clone(), Box::new(MeshPipeline::default()), path);
    let first = session.next_frame().expect("frame 0");
    let eye0 = first.camera.eye;
    session.recycle(first.image);
    let mut last_eye = eye0;
    while let Some(frame) = session.next_frame() {
        last_eye = frame.camera.eye;
        session.recycle(frame.image);
    }
    assert!((eye0 - orbit.camera_at(0.0).eye).length() < 1e-6);
    assert!((last_eye - orbit.camera_at(1.2).eye).length() < 1e-6);
}
