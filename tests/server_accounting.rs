//! Accounting contract of the multi-session server: aggregate
//! [`ServerSummary`] reconfiguration counts equal the sum implied by the
//! interleaved round-robin schedule, per-session counters sum to the
//! aggregates, and each session's framebuffer pool allocates exactly
//! once for its whole stream.

use std::sync::{Arc, OnceLock};
use uni_render::microops::{BoundaryMeter, SwitchCostModel};
use uni_render::prelude::*;

fn scene() -> Arc<BakedScene> {
    static SCENE: OnceLock<Arc<BakedScene>> = OnceLock::new();
    Arc::clone(SCENE.get_or_init(|| {
        Arc::new(
            SceneSpec::demo("serve-accounting", 31)
                .with_detail(0.03)
                .bake(),
        )
    }))
}

fn orbit_path(session: usize, frames: usize, w: u32, h: u32) -> CameraPath {
    let orbit = scene().spec().orbit(w, h);
    CameraPath::orbit_arc(orbit, 0.9 * session as f32, 2.4, frames)
}

fn server_with(
    sessions: Vec<(Box<dyn Renderer + Send>, CameraPath)>,
    lanes: usize,
) -> RenderServer {
    let mut server = RenderServer::new(scene())
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
        .with_lanes(lanes);
    for (renderer, path) in sessions {
        server.admit(SessionRequest::new(renderer, path));
    }
    server
}

/// Replays the server's round-robin schedule by hand over the same frame
/// traces and returns the boundary switches/avoidances it implies.
fn expected_boundaries(sessions: &[(Box<dyn Renderer + Send>, CameraPath)]) -> (u64, u64) {
    let scene = scene();
    let mut cursors = vec![0usize; sessions.len()];
    let mut meter = BoundaryMeter::new();
    loop {
        let mut advanced = false;
        for (sid, (renderer, path)) in sessions.iter().enumerate() {
            if cursors[sid] < path.len() {
                let trace = renderer.trace(&scene, &path.camera(cursors[sid]));
                meter.observe_for(renderer.pipeline(), trace.first_op(), trace.last_op());
                cursors[sid] += 1;
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
    }
    (meter.switches(), meter.avoided())
}

/// Two sessions alternating *different* pipelines: every scheduled-frame
/// boundary where the outgoing and incoming micro-op families differ
/// pays a reconfiguration. Gaussian frames open in geometric processing
/// and hash-grid frames in combined grid indexing, while both close in
/// GEMM — so alternating them reconfigures on every frame after the
/// first: the cross-renderer switching cost the paper models.
#[test]
fn alternating_pipelines_reconfigure_every_scheduled_frame() {
    let make = || -> Vec<(Box<dyn Renderer + Send>, CameraPath)> {
        vec![
            (
                Box::new(GaussianPipeline::default()),
                orbit_path(0, 3, 24, 16),
            ),
            (
                Box::new(HashGridPipeline::default()),
                orbit_path(1, 3, 24, 16),
            ),
        ]
    };

    // Precondition: the two pipelines genuinely start/end in different
    // families (otherwise this test would assert nothing).
    let gauss_trace =
        GaussianPipeline::default().trace(&scene(), &orbit_path(0, 3, 24, 16).camera(0));
    let hash_trace =
        HashGridPipeline::default().trace(&scene(), &orbit_path(1, 3, 24, 16).camera(0));
    assert_ne!(gauss_trace.last_op(), hash_trace.first_op());
    assert_ne!(hash_trace.last_op(), gauss_trace.first_op());

    let (expected_switches, expected_avoided) = expected_boundaries(&make());
    let summary = server_with(make(), 2).run();

    assert_eq!(summary.scheduled_frames, 6);
    assert_eq!(summary.boundary_reconfigurations, expected_switches);
    assert_eq!(summary.boundary_switches_avoided, expected_avoided);
    // Alternating mismatched families: every boundary is a switch.
    assert_eq!(summary.boundary_reconfigurations, 5);
    assert_eq!(summary.boundary_switches_avoided, 0);
}

/// Sessions running the *same* pipeline only pay the boundary switches a
/// single homogeneous stream would: interleaving them adds nothing.
#[test]
fn same_pipeline_sessions_pay_only_homogeneous_boundaries() {
    let make = || -> Vec<(Box<dyn Renderer + Send>, CameraPath)> {
        vec![
            (
                Box::new(HashGridPipeline::default()),
                orbit_path(0, 2, 24, 16),
            ),
            (
                Box::new(HashGridPipeline::default()),
                orbit_path(1, 2, 20, 14),
            ),
            (
                Box::new(HashGridPipeline::default()),
                orbit_path(2, 2, 16, 12),
            ),
        ]
    };
    let (expected_switches, expected_avoided) = expected_boundaries(&make());
    let summary = server_with(make(), 2).run();
    assert_eq!(summary.scheduled_frames, 6);
    assert_eq!(summary.boundary_reconfigurations, expected_switches);
    assert_eq!(summary.boundary_switches_avoided, expected_avoided);

    // A homogeneous mix pays exactly what one merged stream of the same
    // pipeline pays per boundary: frame traces share their first/last
    // families, so either every boundary switches or none does.
    let single = HashGridPipeline::default().trace(&scene(), &orbit_path(0, 2, 24, 16).camera(0));
    if single.first_op() == single.last_op() {
        assert_eq!(summary.boundary_reconfigurations, 0);
        assert_eq!(summary.boundary_switches_avoided, 5);
    } else {
        assert_eq!(summary.boundary_reconfigurations, 5);
        assert_eq!(summary.boundary_switches_avoided, 0);
    }
}

/// A manual pipeline-aware replay of the round-robin schedule agrees
/// with the server's boundary counts, and the meter records the ordered
/// pipeline pair of **every** real boundary — amortized same-renderer
/// boundaries included — because switch-cost estimation consumes both
/// outcomes.
#[test]
fn pipeline_aware_replay_agrees_and_records_every_boundary_pair() {
    let scene = scene();
    let replay = |sessions: &[(Box<dyn Renderer + Send>, CameraPath)]| {
        let mut aware = BoundaryMeter::new();
        let mut model = SwitchCostModel::seeded(1.0);
        let mut events = Vec::new();
        let mut cursors = vec![0usize; sessions.len()];
        loop {
            let mut advanced = false;
            for (sid, (renderer, path)) in sessions.iter().enumerate() {
                if cursors[sid] < path.len() {
                    let trace = renderer.trace(&scene, &path.camera(cursors[sid]));
                    aware.observe_for(renderer.pipeline(), trace.first_op(), trace.last_op());
                    if let Some(event) = aware.last_boundary() {
                        model.observe(event.from, event.to, if event.switched { 1.0 } else { 0.0 });
                        events.push(event);
                    }
                    cursors[sid] += 1;
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
        }
        (aware, model, events)
    };

    // Pinned mix 1: three same-pipeline sessions. The replay agrees with
    // the server on the counts, and every boundary — paid or amortized —
    // carries its (hashgrid, hashgrid) pair into the history.
    let homogeneous = || -> Vec<(Box<dyn Renderer + Send>, CameraPath)> {
        (0..3)
            .map(|s| {
                (
                    Box::new(HashGridPipeline::default()) as Box<dyn Renderer + Send>,
                    orbit_path(s, 2, 24, 16),
                )
            })
            .collect()
    };
    let (aware, model, events) = replay(&homogeneous());
    let served = server_with(homogeneous(), 2).run();
    assert_eq!(served.boundary_reconfigurations, aware.switches());
    assert_eq!(served.boundary_switches_avoided, aware.avoided());
    assert_eq!(events.len(), 5, "every boundary after the first records");
    for event in &events {
        assert_eq!(event.from, Pipeline::HashGrid);
        assert_eq!(event.to, Pipeline::HashGrid);
    }
    // The cost model learned the diagonal from history: free if the
    // boundaries amortized, one unit if they all paid.
    let learned = model.estimate(Pipeline::HashGrid, Pipeline::HashGrid);
    if aware.switches() == 0 {
        assert_eq!(learned, 0.0, "amortized history teaches a free diagonal");
    } else {
        assert!(learned > 0.0, "paying history teaches a costly diagonal");
    }
    assert_eq!(
        model.observations(Pipeline::HashGrid, Pipeline::HashGrid),
        5
    );

    // Pinned mix 2: alternating gaussian/hashgrid. Every boundary
    // crosses pipelines, and the history alternates the two ordered
    // pairs, all switched.
    let alternating: Vec<(Box<dyn Renderer + Send>, CameraPath)> = vec![
        (
            Box::new(GaussianPipeline::default()),
            orbit_path(0, 3, 24, 16),
        ),
        (
            Box::new(HashGridPipeline::default()),
            orbit_path(1, 3, 24, 16),
        ),
    ];
    let (aware, model, events) = replay(&alternating);
    assert_eq!((aware.switches(), aware.avoided()), (5, 0));
    assert_eq!(events.len(), 5);
    for (i, event) in events.iter().enumerate() {
        assert!(event.switched, "alternating mismatched families all pay");
        let (from, to) = if i % 2 == 0 {
            (Pipeline::Gaussian3d, Pipeline::HashGrid)
        } else {
            (Pipeline::HashGrid, Pipeline::Gaussian3d)
        };
        assert_eq!((event.from, event.to), (from, to));
    }
    assert!(model.estimate(Pipeline::Gaussian3d, Pipeline::HashGrid) > 0.0);
    assert!(model.estimate(Pipeline::HashGrid, Pipeline::Gaussian3d) > 0.0);
}

/// Aggregate counters are the sums of the per-session ones, and the
/// in-frame reconfigurations equal the sum of every delivered frame's
/// simulated count.
#[test]
fn aggregates_equal_sums_over_the_interleaved_schedule() {
    let mut server = server_with(
        vec![
            (Box::new(MeshPipeline::default()), orbit_path(0, 3, 24, 16)),
            (Box::new(MlpPipeline::default()), orbit_path(1, 2, 16, 12)),
            (
                Box::new(GaussianPipeline::default()),
                orbit_path(2, 3, 20, 14),
            ),
        ],
        2,
    );
    let mut in_frame = 0u64;
    let mut boundary = 0u64;
    let mut sim_cycles = 0u64;
    while let Some(frame) = server.next_frame() {
        let sim = frame.report.sim.as_ref().expect("server simulates");
        in_frame += sim.reconfigurations;
        sim_cycles += sim.cycles;
        if frame.report.boundary_reconfiguration {
            boundary += 1;
        }
        server.recycle(frame.session, frame.report.image);
    }
    let summary = server.summary();
    assert!(summary.is_consistent(), "aggregates must sum per-session");
    assert_eq!(summary.in_frame_reconfigurations, in_frame);
    assert_eq!(summary.boundary_reconfigurations, boundary);
    assert_eq!(
        summary.total_cycles,
        sim_cycles + boundary * AcceleratorConfig::paper().reconfig_cycles,
        "schedule cycles = per-frame simulation + charged boundary switches"
    );
    assert_eq!(summary.total_reconfigurations(), in_frame + boundary);
}

/// Every session's pool performs exactly one framebuffer allocation for
/// its whole stream, independent of the mix's resolutions.
#[test]
fn per_session_framebuffer_allocations_stay_at_one() {
    let summary = server_with(
        vec![
            (Box::new(MeshPipeline::default()), orbit_path(0, 4, 40, 28)),
            (Box::new(MlpPipeline::default()), orbit_path(1, 4, 16, 12)),
            (
                Box::new(HashGridPipeline::default()),
                orbit_path(2, 4, 32, 24),
            ),
            (
                Box::new(GaussianPipeline::default()),
                orbit_path(3, 4, 24, 16),
            ),
        ],
        3,
    )
    .run();
    assert_eq!(summary.scheduled_frames, 16);
    for stats in &summary.per_session {
        assert_eq!(
            stats.framebuffer_allocations, 1,
            "session {}: one allocation for a {}-frame stream",
            stats.session, stats.frames
        );
        assert_eq!(stats.frames, 4);
    }
}
