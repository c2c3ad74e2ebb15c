//! Accounting contract of the multi-session server: aggregate
//! [`ServerSummary`] reconfiguration counts equal the sum implied by the
//! interleaved round-robin schedule, per-session counters sum to the
//! aggregates, and each session's framebuffer pool allocates exactly
//! once for its whole stream. Under random churn the server's drain and
//! remaining-frame answers agree with a small reference model after
//! every call, so no session retires while it still has work.

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

/// SplitMix64: the churn model test's seeded op generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What the churn model knows of one admitted session: its path length,
/// the frames it has seen delivered, and whether a caller close of it
/// was accepted.
struct ModelSession {
    handle: SessionHandle,
    len: usize,
    delivered: usize,
    close_accepted: bool,
}

/// The reference the churn test checks the server against. Its own
/// records (path lengths, delivered frames, accepted closes) plus the
/// settled per-session stats (frames skipped, close applied) determine
/// whether each session can still produce frames. With one lane nothing
/// is in flight between calls, so every answer is exact; with more lanes
/// a closed session may still have one frame in flight, and the model
/// checks bounds instead.
struct ChurnModel {
    sessions: Vec<ModelSession>,
    exact: bool,
}

/// A session's settled facts, as the model sees them.
struct Settled {
    /// Every frame of the path is delivered or skipped.
    exhausted: bool,
    /// Exhausted, or a close has applied: no frame will be dispatched.
    done: bool,
    /// Frames the server's `remaining()` still counts for the session,
    /// less any frame in flight.
    remaining: usize,
}

impl Settled {
    /// Reads `model`'s facts off its records and the server's `stats`.
    fn of(model: &ModelSession, stats: &SessionStats) -> Self {
        let skipped = stats.frames_skipped as usize;
        assert_eq!(stats.frames, model.delivered, "{}", model.handle);
        assert!(model.delivered + skipped <= model.len, "{}", model.handle);
        let exhausted = model.delivered + skipped == model.len;
        Self {
            exhausted,
            done: exhausted || stats.closed_early,
            remaining: if stats.closed_early {
                skipped
            } else {
                model.len - model.delivered
            },
        }
    }
}

impl ChurnModel {
    /// Admits a random tiny session: 1–4 frames at 8×8 on one of three
    /// pipelines, always late, sometimes late, never late or best-effort,
    /// at priority 0 or 1.
    fn admit(&mut self, server: &mut RenderServer, rng: &mut SplitMix) {
        let id = self.sessions.len();
        let len = 1 + rng.below(4);
        let renderer: Box<dyn Renderer + Send> = match rng.below(3) {
            0 => Box::new(HashGridPipeline::default()),
            1 => Box::new(LowRankPipeline::default()),
            _ => Box::new(MeshPipeline::default()),
        };
        let mut request = SessionRequest::new(renderer, orbit_path(id, len, 8, 8));
        if let Some(hz) = [Some(1.0e7), Some(2.0e4), Some(1.0e3), None][rng.below(4)] {
            request = request.deadline_hz(hz);
        }
        let handle = server.admit(request.priority(rng.below(2) as u8));
        self.sessions.push(ModelSession {
            handle,
            len,
            delivered: 0,
            close_accepted: false,
        });
    }

    /// Checks the summary's consistency and the server's `remaining`,
    /// `is_drained` and `session_drained` answers against the model.
    fn check(&self, server: &RenderServer, step: usize) {
        let summary = server.summary();
        assert!(summary.is_consistent(), "step {step}: {summary:?}");
        assert_eq!(summary.per_session.len(), self.sessions.len());
        let (mut remaining, mut in_flight_room) = (0, 0);
        let (mut all_done, mut all_exhausted) = (true, true);
        for (model, stats) in self.sessions.iter().zip(&summary.per_session) {
            let settled = Settled::of(model, stats);
            let drained = server.session_drained(model.handle);
            if self.exact {
                assert_eq!(drained, settled.done, "step {step}: {}", model.handle);
            } else {
                assert!(!drained || settled.done, "step {step}: {}", model.handle);
                assert!(
                    drained || !settled.exhausted,
                    "step {step}: {}",
                    model.handle
                );
            }
            remaining += settled.remaining;
            if stats.closed_early && !settled.exhausted {
                in_flight_room += 1;
            }
            all_done &= settled.done;
            all_exhausted &= settled.exhausted;
        }
        let got = server.remaining();
        if self.exact {
            assert_eq!(got, remaining, "step {step}: remaining()");
            assert_eq!(server.is_drained(), all_done, "step {step}: is_drained()");
        } else {
            assert!(
                (remaining..=remaining + in_flight_room).contains(&got),
                "step {step}: remaining() {got} outside {remaining}..={}",
                remaining + in_flight_room
            );
            assert!(!server.is_drained() || all_done, "step {step}");
            assert!(server.is_drained() || !all_exhausted, "step {step}");
        }
    }
}

/// Random operations a churn run makes before draining the server.
const CHURN_OPS: usize = 300;

/// One seeded churn run on `lanes` lanes: tiny deadline-bound and
/// best-effort sessions admitted before and during serving, caller
/// closes (of staged sessions right after their admission, of the
/// session just delivered — racing its path's end — and of random
/// ones), deliveries, and recycles of held frames in random order. With
/// `degrade`, a degradation policy stages shifts, skips and sheds. The
/// ops depend only on the seed and the delivered stream, so every lane
/// count makes the same calls. Returns the delivered
/// `(session, index)` stream and the final per-session stats.
fn churn_run(
    seed: u64,
    lanes: usize,
    lookahead: usize,
    degrade: bool,
) -> (Vec<(usize, usize)>, Vec<SessionStats>) {
    let mut rng = SplitMix(seed);
    let mut server = RenderServer::new(scene())
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
        .with_lanes(lanes)
        .with_lookahead(lookahead);
    if degrade {
        server = server.with_degradation(
            DegradePolicy::new()
                .max_resolution_shift(1)
                .degrade_after_misses(1)
                .recover_after_meets(1)
                .skip_when_late_periods(1.0)
                .shed_after_misses(1),
        );
    }
    let mut model = ChurnModel {
        sessions: Vec::new(),
        exact: lanes == 1,
    };
    let mut held: Vec<(usize, Image)> = Vec::new();
    let mut stream = Vec::new();
    for _ in 0..3 {
        model.admit(&mut server, &mut rng);
    }
    model.check(&server, 0);
    for step in 1.. {
        let op = if step <= CHURN_OPS { rng.below(20) } else { 19 };
        match op {
            0..=3 => {
                model.admit(&mut server, &mut rng);
                // A quarter of the mid-serve admissions are closed while
                // still staged, before they ever join the schedule.
                if rng.below(4) == 0 {
                    let target = model.sessions.len() - 1;
                    close_checked(&mut server, &mut model, target);
                }
            }
            4 | 5 => {
                let target = match stream.last() {
                    Some(&(session, _)) if op == 4 => session,
                    _ => rng.below(model.sessions.len()),
                };
                close_checked(&mut server, &mut model, target);
            }
            6 | 7 if !held.is_empty() => {
                let (session, image) = held.swap_remove(rng.below(held.len()));
                let accepted = server.recycle(session, image);
                let model_session = &model.sessions[session];
                let stats = server
                    .session_stats(model_session.handle)
                    .expect("admitted");
                let done = Settled::of(model_session, &stats).done;
                if model.exact {
                    assert_eq!(
                        accepted, !done,
                        "step {step}: recycle into session {session}"
                    );
                } else {
                    assert!(
                        !accepted || !done,
                        "step {step}: recycle into session {session}"
                    );
                }
            }
            _ => match server.next_frame() {
                Some(frame) => {
                    let model_session = &mut model.sessions[frame.session];
                    assert!(frame.report.index < model_session.len);
                    model_session.delivered += 1;
                    stream.push((frame.session, frame.report.index));
                    if rng.below(2) == 0 {
                        held.push((frame.session, frame.report.image));
                    } else {
                        server.recycle(frame.session, frame.report.image);
                    }
                }
                None if step > CHURN_OPS => break,
                None => {}
            },
        }
        model.check(&server, step);
    }
    assert!(server.is_drained());
    for model_session in &model.sessions {
        assert!(server.session_drained(model_session.handle));
    }
    let frames_skipped = server.summary().frames_skipped as usize;
    assert_eq!(
        server.remaining(),
        frames_skipped,
        "only skips stay counted"
    );
    (stream, server.summary().per_session)
}

/// Closes session `target` and checks the answer against the model: a
/// close is accepted only while no close is staged or applied and the
/// path has frames left to schedule.
fn close_checked(server: &mut RenderServer, model: &mut ChurnModel, target: usize) {
    let handle = model.sessions[target].handle;
    let stats = server.session_stats(handle).expect("admitted");
    let settled = Settled::of(&model.sessions[target], &stats);
    let open = !model.sessions[target].close_accepted && !stats.shed && !settled.exhausted;
    let accepted = server.close(handle);
    if model.exact {
        assert_eq!(accepted, open, "close of {handle}");
    } else {
        assert!(!accepted || open, "close of {handle}");
    }
    model.sessions[target].close_accepted |= accepted;
}

/// Random churn never retires a session early: after every call the
/// summary is consistent and `remaining`, `is_drained` and
/// `session_drained` agree with the reference model, and the delivered
/// stream and per-session stats are identical with 1 lane and with 4.
///
/// Two shapes: a dispatch window of 3, so with 4 lanes a closed or
/// exhausted session often still has a frame in flight when another is
/// delivered; and degradation under a window of 1, so shifts, skips and
/// sheds get staged near sessions' ends. Degradation decisions read
/// whether earlier staged changes have applied, which depends on how
/// far lanes ran ahead once the window exceeds 1, so the two are not
/// combined. Pool allocation counts are left out of the comparison:
/// when a held frame comes back relative to its session's next dispatch
/// also depends on lane progress.
#[test]
fn churn_agrees_with_the_reference_model_at_any_lane_count() {
    let mut shed = 0;
    for (lookahead, degrade) in [(3, false), (1, true)] {
        for seed in [3, 17, 2024] {
            let (stream_1, mut stats_1) = churn_run(seed, 1, lookahead, degrade);
            let (stream_4, mut stats_4) = churn_run(seed, 4, lookahead, degrade);
            let case = format!("seed {seed}, lookahead {lookahead}, degrade {degrade}");
            assert_eq!(stream_1, stream_4, "{case}: delivered streams");
            for stats in stats_1.iter_mut().chain(&mut stats_4) {
                stats.framebuffer_allocations = 0;
            }
            assert_eq!(stats_1, stats_4, "{case}: per-session stats");
            assert!(stats_1.iter().any(|s| s.closed_early), "{case}: closes");
            if degrade {
                assert!(
                    stats_1.iter().any(|s| s.frames_skipped > 0)
                        && stats_1.iter().any(|s| s.degraded_frames > 0),
                    "{case}: the run must stage skips and shifts"
                );
            }
            shed += stats_1.iter().filter(|s| s.shed).count();
        }
    }
    assert!(shed > 0, "some run must shed a session");
}
