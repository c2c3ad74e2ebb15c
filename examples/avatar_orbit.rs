//! AR/VR avatar generation scenario (Fig. 1 motivation), streamed: an
//! object-scale "avatar" rendered along a full 24-frame camera orbit
//! through a [`RenderSession`] — the frame-stream API that exercises the
//! accelerator's cross-frame reconfiguration amortization.
//!
//! Each session owns a reusable framebuffer pool; recycling every
//! frame's buffer keeps the stream allocation-free after frame 1 (the
//! example asserts it). Per frame it reports the simulated Uni-Render
//! FPS next to a mobile SoC running the same trace; per stream it
//! reports the reconfiguration count amortized across all frames.
//!
//! ```sh
//! cargo run --release --example avatar_orbit
//! ```

use uni_render::baselines::{snapdragon_8gen2, Device};
use uni_render::prelude::*;
use uni_render::scene::SceneFlavor;

const FRAMES: usize = 24;

fn main() {
    // An "avatar": a dense object cluster at arm's-length scale.
    let spec = SceneSpec {
        object_count: 10,
        extent: 1.2,
        ..SceneSpec::demo("avatar", 2026)
    }
    .with_flavor(SceneFlavor::Object)
    .with_detail(0.08);
    println!("Baking the avatar scene...");
    let scene = spec.bake();
    let phone = snapdragon_8gen2();

    // The two pipelines AR/VR avatar applications actually choose
    // between: 3D Gaussians (quality) and mesh (toolchain compatibility).
    for renderer in [
        Box::new(GaussianPipeline::default()) as Box<dyn Renderer + Send>,
        Box::new(MeshPipeline::default()) as Box<dyn Renderer + Send>,
    ] {
        println!(
            "\n=== {} pipeline, {FRAMES}-frame streamed orbit @512x512 ===",
            renderer.pipeline()
        );
        let path = CameraPath::orbit(spec.orbit(512, 512), FRAMES);
        let mut session = RenderSession::new(scene.clone(), renderer, path)
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()));

        let mut phone_seconds = 0.0;
        let mut framebuffer = None;
        while let Some(frame) = session.next_frame() {
            let sim = frame.sim.as_ref().expect("session simulates");
            let trace = frame.trace.as_ref().expect("session traces");
            let phone_report = phone.execute(trace).expect("phones run everything");
            phone_seconds += phone_report.seconds;
            println!(
                "  frame {:>2}: ours {:>8.1} FPS ({:>5.2} W) | 8Gen2 {:>7.1} FPS | \
                 reconfigs {} (boundary switch: {})",
                frame.index,
                sim.fps(),
                sim.power_w(),
                phone_report.fps(),
                sim.reconfigurations,
                if frame.boundary_reconfiguration {
                    "yes"
                } else {
                    "no"
                },
            );
            // Steady-state reuse proof: the pool hands the same buffer back
            // every frame once it has been recycled.
            let ptr = frame.image.pixels().as_ptr();
            if let Some(prev) = framebuffer {
                assert_eq!(ptr, prev, "framebuffer must be reused across frames");
            }
            framebuffer = Some(ptr);
            session.recycle(frame.image);
        }

        let summary = session.summary();
        assert_eq!(summary.frames, FRAMES);
        assert_eq!(
            summary.framebuffer_allocations, 1,
            "zero steady-state framebuffer allocations after frame 1"
        );
        // Both sides are frames / total-seconds, so the ratio compares
        // like with like.
        let (ours, theirs) = (summary.mean_fps(), FRAMES as f64 / phone_seconds);
        println!(
            "  stream: {} frames, mean {ours:.1} FPS vs phone {theirs:.1} FPS \
             -> {:.1}x speedup; immersive >30 FPS on-device: {}",
            summary.frames,
            ours / theirs,
            if ours > 30.0 { "yes" } else { "no" },
        );
        println!(
            "  reconfiguration: {} total ({} in-frame + {} at boundaries), \
             {:.2}/frame amortized; {} boundary switches avoided by streaming",
            summary.total_reconfigurations(),
            summary.in_frame_reconfigurations,
            summary.boundary_reconfigurations,
            summary.reconfigurations_per_frame(),
            summary.boundary_switches_avoided,
        );
        println!(
            "  framebuffer: 1 allocation for {} frames (pool reuse)",
            summary.frames
        );
    }
}
