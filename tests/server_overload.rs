//! The overload contract of [`RenderServer`]: saying *no* — and serving
//! worse — must not cost determinism.
//!
//! - The [`AdmitDecision`] stream, the served frame stream (hashes,
//!   resolution shifts, slack), and the summary are **bit-identical** at
//!   `UNI_RENDER_THREADS ∈ {1, 4}` even when the load forces refusals,
//!   queued admissions, resolution degradation, frame skips, and
//!   shedding — every one of those is a schedule-order decision, never
//!   a lane-timing one;
//! - skip accounting equals a **manual replay** of the delivered
//!   schedule: per session, the path indices missing from the delivered
//!   stream are exactly the frames the skip counter claims;
//! - a crafted hopeless mix exercises all three [`AdmitDecision`]
//!   variants, and refused requests leave no trace in the summary;
//! - offered sixteen deadline-bound 96×96 sessions, admission control
//!   keeps the admitted ones under a 5% deadline miss rate (release
//!   only).
//!
//! Every test mutates the process-wide `UNI_RENDER_THREADS` variable, so
//! they all serialize on one lock.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use uni_render::prelude::*;

mod common;
use common::{env_lock, fnv1a_image as frame_hash, renderer, with_threads, RESOLUTIONS};

fn scene() -> Arc<BakedScene> {
    static SCENE: OnceLock<Arc<BakedScene>> = OnceLock::new();
    Arc::clone(SCENE.get_or_init(|| {
        Arc::new(
            SceneSpec::demo("serve-overload", 83)
                .with_detail(0.03)
                .bake(),
        )
    }))
}

/// One offered session: pipeline choice, frame count, resolution, and a
/// deadline period expressed in multiples of the workload's mean frame
/// cost (`None` = best-effort).
#[derive(Debug, Clone, Copy)]
struct Mix {
    pipeline: usize,
    frames: usize,
    resolution: (u32, u32),
    period_frames: Option<f64>,
}

fn path_for(session: usize, mix: Mix) -> CameraPath {
    let (w, h) = mix.resolution;
    let orbit = scene().spec().orbit(w, h);
    CameraPath::orbit_arc(orbit, 0.9 * session as f32, 2.0, mix.frames)
}

/// Mean simulated seconds of one frame, measured by a calibration serve
/// with no deadlines. Deterministic and thread-invariant, so every
/// thread count derives identical admission priors from it.
fn mean_frame_seconds(mixes: &[Mix]) -> f64 {
    let mut server = RenderServer::new(scene())
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
        .with_lanes(2);
    for (id, &mix) in mixes.iter().enumerate() {
        server.admit(SessionRequest::new(
            renderer(mix.pipeline),
            path_for(id, mix),
        ));
    }
    let summary = server.run();
    summary.total_seconds / summary.scheduled_frames.max(1) as f64
}

fn request_for(id: usize, mix: Mix, frame_seconds: f64) -> SessionRequest {
    let mut request = SessionRequest::new(renderer(mix.pipeline), path_for(id, mix))
        .weight(1 + (id % 3) as u32)
        .priority((id % 2) as u8);
    if let Some(periods) = mix.period_frames {
        request = request.deadline_hz(1.0 / (periods * frame_seconds).max(f64::MIN_POSITIVE));
    }
    request
}

/// An [`AdmitDecision`] flattened to bit-comparable integers:
/// `(variant, handle id or MAX, activation slot or slack bits)`.
fn decision_key(decision: &AdmitDecision) -> (u8, usize, u64) {
    match decision {
        AdmitDecision::Admitted(handle) => (0, handle.id(), 0),
        AdmitDecision::Queued {
            handle,
            activates_at,
        } => (1, handle.id(), *activates_at as u64),
        AdmitDecision::Refused { predicted_slack } => (2, usize::MAX, predicted_slack.to_bits()),
    }
}

/// Decision stream, delivered stream (session, index, frame hash,
/// resolution shift, slack bits), and final summary of one overloaded
/// serve.
type OverloadRun = (
    Vec<(u8, usize, u64)>,
    Vec<(usize, usize, u64, u32, u64)>,
    ServerSummary,
);

/// Offers every mix through [`RenderServer::try_admit`] against a tight
/// admission controller, serves whatever got in under degradation, and
/// records every externally observable artifact of the run.
fn overload_served(mixes: &[Mix], frame_seconds: f64, lanes: usize) -> OverloadRun {
    let mut server = RenderServer::new(scene())
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
        .with_policy(EarliestDeadline::new())
        .with_lanes(lanes)
        .with_admission_control(
            AdmissionControl::new()
                .frame_cost_prior(frame_seconds)
                .max_queued(2),
        )
        .with_degradation(
            DegradePolicy::new()
                .degrade_after_misses(1)
                .recover_after_meets(2)
                .skip_when_late_periods(1.0)
                .shed_after_misses(5),
        );
    let mut decisions = Vec::new();
    for (id, &mix) in mixes.iter().enumerate() {
        decisions.push(decision_key(&server.try_admit(request_for(
            id,
            mix,
            frame_seconds,
        ))));
    }
    let mut stream = Vec::new();
    let mut late_offer = mixes.len();
    while let Some(frame) = server.next_frame() {
        stream.push((
            frame.session,
            frame.report.index,
            frame_hash(&frame.report.image),
            frame.resolution_shift,
            frame.deadline_slack.map_or(u64::MAX, f64::to_bits),
        ));
        server.recycle(frame.session, frame.report.image);
        // One mid-serve offer at a fixed delivery slot: admission must
        // stay a schedule-order decision even while lanes are hot.
        if stream.len() == 3 && late_offer == mixes.len() {
            let mix = Mix {
                pipeline: 4,
                frames: 2,
                resolution: RESOLUTIONS[0],
                period_frames: Some(1.0),
            };
            decisions.push(decision_key(&server.try_admit(request_for(
                late_offer,
                mix,
                frame_seconds,
            ))));
            late_offer += 1;
        }
    }
    (decisions, stream, server.summary())
}

fn mixes_from(raw: &[(usize, usize, usize, usize)]) -> Vec<Mix> {
    raw.iter()
        .map(|&(pipeline, frames, res, periods)| Mix {
            pipeline,
            frames,
            resolution: RESOLUTIONS[res],
            // periods 0 = best-effort; 1..5 = deadline periods from a
            // hopeless single frame cost to a roomy four of them.
            period_frames: match periods {
                0 => None,
                p => Some(p as f64),
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// Refused, queued, and degraded streams are bit-identical across
    /// thread counts: the whole overload response — who got in, who
    /// waited, who was dropped, which frames shrank or were skipped —
    /// is a pure function of the schedule.
    #[test]
    fn overload_response_is_bit_deterministic_across_thread_counts(
        raw in proptest::collection::vec((0usize..6, 2usize..5, 0usize..3, 0usize..5), 4..8),
    ) {
        let _guard = env_lock();
        let mixes = mixes_from(&raw);
        let frame_seconds = with_threads("1", || mean_frame_seconds(&mixes));

        let reference = with_threads("1", || overload_served(&mixes, frame_seconds, 1));
        let wide = with_threads("4", || overload_served(&mixes, frame_seconds, 4));
        prop_assert!(reference == wide, "overload response is thread-variant");

        let (decisions, stream, summary) = &reference;
        prop_assert!(summary.is_consistent());
        // The decision stream reconciles with the summary counters.
        let refused = decisions.iter().filter(|d| d.0 == 2).count() as u64;
        let queued = decisions.iter().filter(|d| d.0 == 1).count() as u64;
        prop_assert_eq!(summary.refusals, refused);
        prop_assert_eq!(summary.queued_admissions, queued);
        // Refused requests leave no session behind.
        prop_assert_eq!(
            summary.per_session.len(),
            decisions.len() - refused as usize
        );
        // Delivered + skipped + shed-cancelled covers every admitted
        // session's path exactly.
        for stats in &summary.per_session {
            let delivered = stream.iter().filter(|f| f.0 == stats.session).count();
            prop_assert_eq!(delivered, stats.frames);
        }
    }
}

/// Skip accounting equals a manual replay of the delivered schedule:
/// the path indices a session never delivered are exactly the frames
/// its skip counter claims, per session and in aggregate.
#[test]
fn skip_accounting_matches_a_manual_replay_of_the_delivered_schedule() {
    let _guard = env_lock();
    // Four sessions under a deadline of ~1.3 frame costs each: with four
    // streams sharing the schedule every period is hopeless, so the
    // degradation controller must skip (and shrink) to catch up. High
    // shed threshold keeps every session live to the end of its path.
    let mixes: Vec<Mix> = (0..4)
        .map(|id| Mix {
            pipeline: id + 1,
            frames: 6,
            resolution: RESOLUTIONS[id % 2],
            period_frames: Some(1.3),
        })
        .collect();
    let frame_seconds = with_threads("1", || mean_frame_seconds(&mixes));
    let (stream, summary) = with_threads("1", || {
        let mut server = RenderServer::new(scene())
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
            .with_policy(EarliestDeadline::new())
            .with_lanes(2)
            .with_degradation(
                DegradePolicy::new()
                    .degrade_after_misses(1)
                    .skip_when_late_periods(0.5)
                    .shed_after_misses(u32::MAX),
            );
        for (id, &mix) in mixes.iter().enumerate() {
            server.admit(request_for(id, mix, frame_seconds));
        }
        let mut stream = Vec::new();
        while let Some(frame) = server.next_frame() {
            stream.push((frame.session, frame.report.index, frame.resolution_shift));
            server.recycle(frame.session, frame.report.image);
        }
        (stream, server.summary())
    });
    assert!(summary.is_consistent());
    assert!(
        summary.frames_skipped > 0,
        "a hopeless mix must skip frames (skipped {}, misses {})",
        summary.frames_skipped,
        summary.deadline_misses
    );
    assert!(
        summary.degraded_frames > 0,
        "a hopeless mix must deliver degraded frames"
    );
    assert_eq!(summary.shed_sessions, 0, "shedding was disabled");
    for (id, mix) in mixes.iter().enumerate() {
        let stats = &summary.per_session[id];
        let delivered: Vec<usize> = stream.iter().filter(|f| f.0 == id).map(|f| f.1).collect();
        // Replay: delivered indices are a strictly increasing
        // subsequence of the path; the holes are the skips.
        assert!(
            delivered.windows(2).all(|w| w[0] < w[1]),
            "session {id} delivered out of path order"
        );
        assert_eq!(delivered.len(), stats.frames);
        assert_eq!(
            stats.frames as u64 + stats.frames_skipped,
            mix.frames as u64,
            "session {id}: every path frame is delivered or an accounted skip"
        );
        let holes = (0..mix.frames).filter(|i| !delivered.contains(i)).count() as u64;
        assert_eq!(
            holes, stats.frames_skipped,
            "session {id}: skip counter disagrees with the delivered stream's holes"
        );
        assert!(!stats.closed_early, "no session was closed or shed");
    }
    let skipped: u64 = summary.per_session.iter().map(|s| s.frames_skipped).sum();
    assert_eq!(skipped, summary.frames_skipped);
}

/// A crafted hopeless mix drives all three [`AdmitDecision`] variants:
/// early requests are admitted, the next ones queue behind the drain,
/// and once the queue is full the rest are refused with a negative
/// predicted slack. Queued sessions still deliver every frame.
#[test]
fn a_hopeless_mix_exercises_admission_queueing_and_refusal() {
    let _guard = env_lock();
    let mixes: Vec<Mix> = (0..8)
        .map(|id| Mix {
            pipeline: id % 6,
            frames: 3,
            resolution: RESOLUTIONS[0],
            period_frames: Some(1.2),
        })
        .collect();
    let frame_seconds = with_threads("1", || mean_frame_seconds(&mixes));
    let (decisions, stream, summary) =
        with_threads("1", || overload_served(&mixes, frame_seconds, 2));
    assert!(summary.is_consistent());
    let kinds: Vec<u8> = decisions.iter().map(|d| d.0).collect();
    assert!(kinds.contains(&0), "no request was admitted: {kinds:?}");
    assert!(kinds.contains(&1), "no request was queued: {kinds:?}");
    assert!(kinds.contains(&2), "no request was refused: {kinds:?}");
    assert_eq!(
        summary.queued_admissions as usize,
        kinds.iter().filter(|&&k| k == 1).count()
    );
    assert_eq!(
        summary.refusals as usize,
        kinds.iter().filter(|&&k| k == 2).count()
    );
    // Queued sessions activate and serve: every queued handle shows up
    // in the delivered stream unless it was shed first.
    for decision in decisions.iter().filter(|d| d.0 == 1) {
        let session = decision.1;
        let stats = &summary.per_session[session];
        let delivered = stream.iter().filter(|f| f.0 == session).count();
        assert_eq!(delivered, stats.frames);
        assert!(
            stats.frames > 0 || stats.shed,
            "queued session {session} neither served nor was shed"
        );
    }
    // Refused slack is the predicted overrun: strictly negative.
    for decision in decisions.iter().filter(|d| d.0 == 2) {
        let slack = f64::from_bits(decision.2);
        assert!(
            slack < 0.0,
            "refusal carried non-negative predicted slack {slack}"
        );
    }
}

/// The admission contract: offered far more deadline-bound load than
/// the budget fits, the controller turns enough of it away that the
/// sessions it *does* admit miss fewer than 5% of their deadlines.
///
/// Sixteen 8-frame 96×96 sessions over the gaussian/mesh/hashgrid/mlp
/// mix, every one bound to a period of six calibrated mean frame times,
/// are offered through `try_admit` (headroom 1.1, queue depth 2) and
/// served under EDF with default degradation. Pinned at 96²: smaller
/// frames miss more (the same shape at 48² or 24×16 misses 8 or 32 of
/// 56 admitted frames). Release only: the 96² frames take minutes in a
/// debug build.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "renders 96x96 overload sessions; run with --release"
)]
fn admitted_sessions_miss_under_five_percent_of_deadlines() {
    let _guard = env_lock();
    let mixes: Vec<Mix> = [4usize, 0, 3, 1]
        .iter()
        .cycle()
        .take(16)
        .map(|&pipeline| Mix {
            pipeline,
            frames: 8,
            resolution: (96, 96),
            period_frames: Some(6.0),
        })
        .collect();
    let summary = with_threads("1", || {
        let frame_seconds = mean_frame_seconds(&mixes[..4]);
        let mut server = RenderServer::new(scene())
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
            .with_policy(EarliestDeadline::new())
            .with_admission_control(
                AdmissionControl::new()
                    .frame_cost_prior(frame_seconds)
                    .headroom(1.1)
                    .max_queued(2),
            )
            .with_degradation(DegradePolicy::new());
        for (id, &mix) in mixes.iter().enumerate() {
            let _ = server.try_admit(request_for(id, mix, frame_seconds));
        }
        server.run()
    });
    assert!(summary.is_consistent());
    assert!(
        summary.scheduled_frames > 0,
        "admission refused the whole offer"
    );
    assert!(
        summary.deadline_miss_rate() < 0.05,
        "admitted sessions missed {} of {} deadline-bound frames ({} of {} sessions admitted)",
        summary.deadline_misses,
        summary.scheduled_frames,
        summary.per_session.len(),
        mixes.len()
    );
}
