//! Multi-user serving scenario: one Uni-Render accelerator, one baked
//! scene, four concurrent "users" — each its own camera orbit,
//! resolution, pipeline choice, and fair-share weight — served through a
//! [`RenderServer`] under the [`WeightedFair`] scheduling policy, with
//! session churn mid-serve: a fifth user is **admitted** while frames
//! are streaming and one of the original users is **closed** early.
//!
//! The server shares the scene behind an `Arc` (no per-user copies) and
//! schedules whichever backlogged user has consumed the least simulated
//! accelerator time per unit weight — so sim-time shares track weights
//! while users stay backlogged. Crossing renderers at a schedule
//! boundary charges a PE-array reconfiguration; admission and close take
//! effect at deterministic tick boundaries, so the whole served stream
//! is bit-reproducible at any `UNI_RENDER_THREADS`.
//!
//! Carol additionally streams under a **sim-time deadline**
//! (`SessionRequest::deadline_hz`): every frame of hers is due on a
//! fixed period of the accelerator's simulated clock, and the server
//! counts misses and worst slack per session regardless of the policy —
//! the example prints her deadline report at the end.
//!
//! Delivery is deterministic: the example proves it by re-rendering one
//! user's stream directly with `Renderer::render_into`, outside the
//! server, and asserting every frame is bit-identical.
//!
//! ```sh
//! cargo run --release --example multi_user_orbit
//! ```

use std::sync::Arc;
use uni_render::prelude::*;
use uni_render::scene::SceneFlavor;

const FRAMES: usize = 6;

/// Carol's per-frame deadline rate on the *simulated* clock (frames per
/// sim-second): a 30 FPS latency budget for her hash-grid stream.
const CAROL_DEADLINE_HZ: f64 = 30.0;

/// Display name, pipeline, resolution, orbit start angle, and
/// fair-share weight of a user.
type User = (&'static str, Box<dyn Renderer + Send>, (u32, u32), f32, u32);

/// The four initial users. Bob carries twice alice's weight, dave four
/// times — the fair-share policy will mirror those ratios in sim-time.
fn users() -> Vec<User> {
    vec![
        (
            "alice (gaussian)",
            Box::new(GaussianPipeline::default()),
            (256, 192),
            0.0,
            1,
        ),
        (
            "bob (mesh)",
            Box::new(MeshPipeline::default()),
            (320, 240),
            1.3,
            2,
        ),
        (
            "carol (hash-grid)",
            Box::new(HashGridPipeline::default()),
            (192, 144),
            2.6,
            1,
        ),
        (
            "dave (mlp)",
            Box::new(MlpPipeline::default()),
            (128, 96),
            3.9,
            4,
        ),
    ]
}

/// The late joiner, admitted mid-serve.
fn late_user() -> User {
    (
        "erin (low-rank)",
        Box::new(LowRankPipeline::default()),
        (160, 120),
        5.2,
        2,
    )
}

fn path_for(spec: &SceneSpec, resolution: (u32, u32), start: f32) -> CameraPath {
    CameraPath::orbit_arc(spec.orbit(resolution.0, resolution.1), start, 2.0, FRAMES)
}

fn main() {
    let spec = SceneSpec {
        object_count: 10,
        extent: 1.2,
        ..SceneSpec::demo("multi-user", 2026)
    }
    .with_flavor(SceneFlavor::Object)
    .with_detail(0.08);
    println!("Baking the shared scene once...");
    let scene = Arc::new(spec.bake());

    let mut server = RenderServer::new(Arc::clone(&scene))
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
        .with_policy(WeightedFair::new());
    let mut names = Vec::new();
    let mut handles = Vec::new();
    for (name, renderer, resolution, start, weight) in users() {
        let mut request = SessionRequest::new(renderer, path_for(&spec, resolution, start))
            .weight(weight)
            .label(name);
        let deadline_bound = name.starts_with("carol");
        if deadline_bound {
            request = request.deadline_hz(CAROL_DEADLINE_HZ);
        }
        let handle = server.admit(request);
        names.push(name);
        handles.push(handle);
        println!(
            "  {handle}: {name} @{}x{} (weight {weight}){}",
            resolution.0,
            resolution.1,
            if deadline_bound {
                format!(" [deadline {CAROL_DEADLINE_HZ} Hz sim]")
            } else {
                String::new()
            }
        );
    }

    // Determinism proof runs alongside serving: alice's served frames
    // must be bit-identical to her renderer drawing the same path
    // directly.
    let (_, alice_renderer, alice_res, alice_start, _) = users().remove(0);
    let alice_path = path_for(&spec, alice_res, alice_start);
    let mut reference = Image::empty();
    let mut checked = 0;

    println!(
        "\nServing {} frames under '{}' with mid-serve churn...",
        server.remaining(),
        server.policy_name()
    );
    let mut delivered = 0usize;
    while let Some(frame) = server.next_frame() {
        delivered += 1;
        let sim = frame.report.sim.as_ref().expect("server simulates");
        println!(
            "  {:<18} frame {}: {:>8.1} FPS ({:>5.2} W){}",
            names[frame.session],
            frame.report.index,
            sim.fps(),
            sim.power_w(),
            if frame.report.boundary_reconfiguration {
                "  [reconfigured]"
            } else {
                ""
            },
        );
        if frame.session == 0 {
            let camera = alice_path.camera(frame.report.index);
            alice_renderer.render_into(&scene, &camera, &mut reference);
            assert_eq!(
                frame.report.image.pixels(),
                reference.pixels(),
                "served frame {} must be bit-identical to the renderer's own",
                frame.report.index
            );
            checked += 1;
        }
        server.recycle(frame.session, frame.report.image);

        // Churn, keyed to delivered-frame counts (deterministic at any
        // thread count): erin joins after 4 frames, bob leaves after 8.
        if delivered == 4 {
            let (name, renderer, resolution, start, weight) = late_user();
            let handle = server.admit(
                SessionRequest::new(renderer, path_for(&spec, resolution, start))
                    .weight(weight)
                    .label(name),
            );
            names.push(name);
            handles.push(handle);
            println!("  >> admitted {handle}: {name} (weight {weight}) mid-serve");
        }
        if delivered == 8 {
            assert!(server.close(handles[1]), "bob's session accepts the close");
            println!("  >> closed {}: {} leaves early", handles[1], names[1]);
        }
    }

    let summary = server.summary();
    assert!(summary.is_consistent());
    assert_eq!(summary.policy, "weighted_fair");
    assert_eq!(summary.admissions, 1);
    assert_eq!(summary.closes, 1);
    println!("\nPer-user streams (weighted fair shares of accelerator sim-time):");
    for stats in &summary.per_session {
        assert_eq!(
            stats.framebuffer_allocations, 1,
            "each user keeps one framebuffer for its whole stream"
        );
        println!(
            "  {:<18} weight {} | {} frames | sim-time share {:>5.1}% | {} boundary reconfigs{}",
            names[stats.session],
            stats.weight,
            stats.frames,
            100.0 * summary.sim_time_share(stats.session),
            stats.boundary_reconfigurations,
            if stats.closed_early {
                " | closed early"
            } else {
                ""
            },
        );
    }
    let bob = summary.session(handles[1].id()).expect("bob served");
    assert!(bob.closed_early, "bob's tail was cancelled");
    assert!(bob.frames < FRAMES, "bob left before his path finished");
    let erin = summary
        .session(handles[4].id())
        .expect("erin admitted mid-serve");
    assert_eq!(erin.frames, FRAMES, "the late joiner is served fully");
    let carol = summary.session(handles[2].id()).expect("carol served");
    assert_eq!(carol.deadline_hz, Some(CAROL_DEADLINE_HZ));
    let carol_worst = carol
        .worst_slack
        .expect("deadline accounting engaged for carol");
    assert_eq!(
        summary.deadline_misses, carol.deadline_misses,
        "carol is the only deadline-bound user"
    );
    println!(
        "\nDeadline report ({}): {} of {} frames missed ({:.0}% miss rate), \
         worst slack {:+.2} ms sim, p50/p99 frame latency {:.2}/{:.2} ms sim",
        names[carol.session],
        carol.deadline_misses,
        carol.frames,
        100.0 * summary.deadline_miss_rate(),
        1e3 * carol_worst,
        1e3 * carol.latency_p50,
        1e3 * carol.latency_p99,
    );
    println!(
        "\nSchedule: {} frames, sim {:.1} FPS aggregate, {:.2} reconfigs/frame \
         ({} at boundaries, {} avoided), {} admission / {} close mid-serve",
        summary.scheduled_frames,
        summary.mean_fps(),
        summary.reconfigurations_per_frame(),
        summary.boundary_reconfigurations,
        summary.boundary_switches_avoided,
        summary.admissions,
        summary.closes,
    );

    assert_eq!(checked, FRAMES);
    println!(
        "\nDeterminism check: {checked}/{FRAMES} served frames bit-identical to \
         the renderer's own render_into."
    );
}
