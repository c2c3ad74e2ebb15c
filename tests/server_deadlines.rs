//! The deadline contract of [`RenderServer`] scheduling:
//!
//! - [`EarliestDeadline`] served streams are a **bit-identical
//!   permutation** of the round-robin stream (each session's frames
//!   arrive complete, in path order, matching the renderer's own
//!   `render_into` output) and **thread-invariant** at
//!   `UNI_RENDER_THREADS ∈ {1, 4}` — and so are [`CostAware`] streams;
//! - EDF never misses a deadline round-robin meets on the same
//!   workload (deadlines are sim-time facts, so this is a property of
//!   the schedule, not of lane timing);
//! - per-session miss counts and worst slack equal a **manual replay**
//!   of the delivered schedule;
//! - mid-serve churn under the deadline-aware policies stays
//!   bit-deterministic across thread counts.
//!
//! Every test mutates the process-wide `UNI_RENDER_THREADS` variable, so
//! they all serialize on one lock.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use uni_render::prelude::*;

mod common;
use common::{
    env_lock, fnv1a_image as frame_hash, render_into_hashes, renderer, with_threads, RESOLUTIONS,
};

/// Delivery order, per-session frame hashes, per-frame delivered slack
/// (delivery order), and final summary of one served run.
type ServedRun = (
    Vec<(usize, usize)>,
    Vec<Vec<u64>>,
    Vec<(usize, usize, Option<f64>)>,
    ServerSummary,
);

fn scene() -> Arc<BakedScene> {
    static SCENE: OnceLock<Arc<BakedScene>> = OnceLock::new();
    Arc::clone(SCENE.get_or_init(|| {
        Arc::new(
            SceneSpec::demo("serve-deadlines", 77)
                .with_detail(0.03)
                .bake(),
        )
    }))
}

/// One generated session: pipeline choice, frame count, resolution, and
/// a deadline period expressed as a multiple of the workload's mean
/// per-round sim time (`None` = best-effort).
#[derive(Debug, Clone, Copy)]
struct Mix {
    pipeline: usize,
    frames: usize,
    resolution: (u32, u32),
    deadline_scale: Option<f64>,
}

fn path_for(session: usize, mix: Mix) -> CameraPath {
    let (w, h) = mix.resolution;
    let orbit = scene().spec().orbit(w, h);
    CameraPath::orbit_arc(orbit, 0.7 * session as f32, 2.2, mix.frames)
}

/// Mean simulated seconds of one *round* of the mix (one frame of every
/// session), measured by a calibration serve under round-robin with no
/// deadlines. Deterministic and thread-invariant, so every policy and
/// thread count derives identical deadline rates from it.
fn mean_round_seconds(mixes: &[Mix]) -> f64 {
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
    let frames = summary.scheduled_frames.max(1);
    summary.total_seconds / frames as f64 * mixes.len() as f64
}

/// The deadline rate (frames per sim-second) a mix entry implies:
/// `deadline_scale` stretches the mean round time into the session's
/// per-frame period.
fn deadline_hz_for(mix: Mix, round_seconds: f64) -> Option<f64> {
    mix.deadline_scale
        .map(|scale| 1.0 / (scale * round_seconds).max(f64::MIN_POSITIVE))
}

fn request_for(id: usize, mix: Mix, round_seconds: f64) -> SessionRequest {
    let mut request = SessionRequest::new(renderer(mix.pipeline), path_for(id, mix))
        .weight(1 + (id % 3) as u32)
        .priority((id % 2) as u8);
    if let Some(hz) = deadline_hz_for(mix, round_seconds) {
        request = request.deadline_hz(hz);
    }
    request
}

/// Serves every session through one server under `policy`.
fn served(
    mixes: &[Mix],
    policy: Box<dyn SchedulePolicy>,
    lanes: usize,
    round_seconds: f64,
) -> ServedRun {
    let mut server = RenderServer::new(scene())
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
        .with_policy(policy)
        .with_lanes(lanes);
    for (id, &mix) in mixes.iter().enumerate() {
        server.admit(request_for(id, mix, round_seconds));
    }
    let mut order = Vec::new();
    let mut slacks = Vec::new();
    let mut hashes: Vec<Vec<u64>> = mixes.iter().map(|m| Vec::with_capacity(m.frames)).collect();
    while let Some(frame) = server.next_frame() {
        assert_eq!(
            hashes[frame.session].len(),
            frame.report.index,
            "frames of one session arrive in path order"
        );
        order.push((frame.session, frame.report.index));
        slacks.push((frame.session, frame.report.index, frame.deadline_slack));
        hashes[frame.session].push(frame_hash(&frame.report.image));
        server.recycle(frame.session, frame.report.image);
    }
    (order, hashes, slacks, server.summary())
}

fn mixes_from(raw: &[(usize, usize, usize, usize)]) -> Vec<Mix> {
    raw.iter()
        .map(|&(pipeline, frames, res, scale)| Mix {
            pipeline,
            frames,
            resolution: RESOLUTIONS[res],
            // scale 0 = best-effort; 1..4 = deadline periods from a
            // tight one round to a loose three rounds.
            deadline_scale: match scale {
                0 => None,
                s => Some(s as f64),
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn deadline_policies_serve_bit_identical_permutations_of_round_robin(
        raw in proptest::collection::vec((0usize..6, 1usize..3, 0usize..3, 0usize..4), 1..5),
    ) {
        let _guard = env_lock();
        let mixes = mixes_from(&raw);
        let total: usize = mixes.iter().map(|m| m.frames).sum();
        let solo: Vec<Vec<u64>> = mixes
            .iter()
            .enumerate()
            .map(|(id, &mix)| {
                render_into_hashes(&scene(), &*renderer(mix.pipeline), &path_for(id, mix))
            })
            .collect();
        let round_seconds = with_threads("1", || mean_round_seconds(&mixes));

        type Factory = fn() -> Box<dyn SchedulePolicy>;
        fn edf() -> Box<dyn SchedulePolicy> {
            Box::new(EarliestDeadline::new())
        }
        fn cost_aware() -> Box<dyn SchedulePolicy> {
            Box::new(CostAware::new())
        }
        let factories: [(&str, Factory); 2] =
            [("earliest_deadline", edf), ("cost_aware", cost_aware)];
        for (name, fresh) in factories {
            let mut reference: Option<ServedRun> = None;
            for threads in ["1", "4"] {
                let run = with_threads(threads, || served(&mixes, fresh(), 4, round_seconds));
                let (order, hashes, _, summary) = &run;
                // Permutation of the round-robin stream with
                // bit-identical frames: every session's stream is
                // complete, in path order, matching the renderer.
                prop_assert!(hashes == &solo, "policy {} altered frames", name);
                prop_assert_eq!(order.len(), total);
                prop_assert!(summary.is_consistent());
                prop_assert_eq!(summary.scheduled_frames, total);
                prop_assert_eq!(&summary.policy, name);
                // Thread count changes nothing: schedule, images, slack
                // stream, miss accounting.
                if let Some(reference) = &reference {
                    prop_assert!(reference == &run, "policy {} is thread-variant", name);
                } else {
                    reference = Some(run);
                }
            }
        }
    }

    /// EDF dominance: on the same workload, EDF never misses a deadline
    /// the deadline-blind round-robin schedule meets. (Misses are
    /// schedule-order sim-time facts, so this is exactly a statement
    /// about the two schedules.)
    ///
    /// Non-preemptive EDF with order-dependent reconfiguration costs is
    /// not *provably* dominant on arbitrary workloads — this pins the
    /// property over the generated mixes, which the vendored proptest
    /// seeds deterministically from the test name, so the cases are
    /// fixed run over run (no CI flake surface). If a renderer-cost
    /// change surfaces a counterexample mix, that is signal about the
    /// schedule, not noise: inspect it before loosening the assertion.
    #[test]
    fn edf_never_misses_a_deadline_round_robin_meets(
        raw in proptest::collection::vec((0usize..6, 1usize..4, 0usize..3, 1usize..4), 2..5),
    ) {
        let _guard = env_lock();
        let mixes = mixes_from(&raw);
        let round_seconds = with_threads("1", || mean_round_seconds(&mixes));
        let (rr, edf) = with_threads("1", || {
            let rr = served(&mixes, Box::new(RoundRobin::new()), 2, round_seconds);
            let edf = served(
                &mixes,
                Box::new(EarliestDeadline::new()),
                2,
                round_seconds,
            );
            (rr, edf)
        });
        let met = |slacks: &[(usize, usize, Option<f64>)]| -> Vec<(usize, usize)> {
            slacks
                .iter()
                .filter(|(_, _, s)| s.is_some_and(|s| s >= 0.0))
                .map(|&(session, index, _)| (session, index))
                .collect()
        };
        let rr_met = met(&rr.2);
        let edf_met = met(&edf.2);
        for frame in &rr_met {
            prop_assert!(
                edf_met.contains(frame),
                "EDF missed {:?}, which round-robin met (rr misses {}, edf misses {})",
                frame,
                rr.3.deadline_misses,
                edf.3.deadline_misses
            );
        }
        // Dominance in aggregate follows from the per-frame subset.
        prop_assert!(edf.3.deadline_misses <= rr.3.deadline_misses);
    }
}

/// Per-session miss counts and worst slack equal a manual replay of the
/// delivered schedule: accumulate each delivered frame's charged sim
/// seconds (boundary reconfiguration plus simulated execution) in
/// delivery order and compare completion times against the periodic
/// deadlines.
#[test]
fn miss_accounting_equals_a_manual_schedule_replay() {
    let _guard = env_lock();
    with_threads("1", || {
        let mixes: Vec<Mix> = [(4usize, 1usize), (0, 2), (3, 1), (1, 0)]
            .iter()
            .map(|&(pipeline, scale)| Mix {
                pipeline,
                frames: 4,
                resolution: (24, 16),
                deadline_scale: (scale > 0).then_some(scale as f64),
            })
            .collect();
        let round_seconds = mean_round_seconds(&mixes);
        let periods: Vec<Option<f64>> = mixes
            .iter()
            .map(|&m| deadline_hz_for(m, round_seconds).map(f64::recip))
            .collect();

        let mut server = RenderServer::new(scene())
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
            .with_policy(EarliestDeadline::new())
            .with_lanes(2);
        for (id, &mix) in mixes.iter().enumerate() {
            server.admit(request_for(id, mix, round_seconds));
        }

        let reconfig_seconds = {
            let cfg = AcceleratorConfig::paper();
            cfg.cycles_to_seconds(cfg.reconfig_cycles)
        };
        let mut now = 0.0f64;
        let mut misses = vec![0u64; mixes.len()];
        let mut worst: Vec<Option<f64>> = vec![None; mixes.len()];
        let mut served_slacks = Vec::new();
        while let Some(frame) = server.next_frame() {
            // Replay the schedule's clock by hand from the delivered
            // facts: the boundary charge (if the frame reconfigured)
            // plus the frame's simulated seconds.
            if frame.report.boundary_reconfiguration {
                now += reconfig_seconds;
            }
            now += frame.report.sim.as_ref().expect("server simulates").seconds;
            if let Some(period) = periods[frame.session] {
                let due = (frame.report.index as f64 + 1.0) * period;
                let slack = due - now;
                if slack < 0.0 {
                    misses[frame.session] += 1;
                }
                worst[frame.session] = Some(match worst[frame.session] {
                    Some(w) => slack.min(w),
                    None => slack,
                });
                served_slacks.push((frame.session, slack));
                assert_eq!(
                    frame.deadline_slack,
                    Some(slack),
                    "delivered slack must equal the replayed clock"
                );
            } else {
                assert_eq!(
                    frame.deadline_slack, None,
                    "best-effort frames have no slack"
                );
            }
            server.recycle(frame.session, frame.report.image);
        }

        let summary = server.summary();
        assert!(summary.is_consistent());
        assert!(!served_slacks.is_empty());
        let mut total = 0;
        for stats in &summary.per_session {
            assert_eq!(
                stats.deadline_misses, misses[stats.session],
                "session {} miss count must equal the manual replay",
                stats.session
            );
            assert_eq!(
                stats.worst_slack, worst[stats.session],
                "session {} worst slack must equal the manual replay",
                stats.session
            );
            assert_eq!(
                stats.deadline_hz.is_some(),
                periods[stats.session].is_some(),
                "deadline rate survives into the stats"
            );
            // Latency percentiles exist exactly when frames were
            // simulated, and the tail cannot undercut the median.
            assert!(stats.latency_p50 > 0.0);
            assert!(stats.latency_p99 >= stats.latency_p50);
            total += stats.deadline_misses;
        }
        assert_eq!(summary.deadline_misses, total);
        let bound_frames: usize = summary
            .per_session
            .iter()
            .filter(|s| s.deadline_hz.is_some())
            .map(|s| s.frames)
            .sum();
        assert!((summary.deadline_miss_rate() - total as f64 / bound_frames as f64).abs() < 1e-12);
        assert_eq!(
            summary.worst_slack(),
            worst.iter().filter_map(|w| *w).min_by(f64::total_cmp),
            "aggregate worst slack is the per-session minimum"
        );
        assert!(summary.p99_sim_latency() > 0.0);
    });
}

/// Mid-serve admission and early close keep the served stream —
/// including every frame's delivered slack, bit for bit — identical
/// across thread counts. A session admitted mid-serve anchors its
/// deadline clock at the delivered sim-time its first frame starts
/// service (a delivery-order fact). The `RoundRobin` case is the
/// regression for the dispatch-time anchoring bug: under an
/// unbounded-in-flight policy the dispatch loop runs ahead of delivery
/// by up to the lane count, so reading the sim clock when the
/// activation slot is *dispatched* (instead of when the session first
/// *delivers*) produced lane-dependent epochs and thread-variant slack.
#[test]
fn deadline_churn_is_bit_deterministic_across_thread_counts() {
    let _guard = env_lock();
    let mixes: Vec<Mix> = (0..3)
        .map(|id| Mix {
            pipeline: id,
            frames: 5,
            resolution: (24, 16),
            deadline_scale: (id == 1).then_some(2.0),
        })
        .collect();
    let round_seconds = with_threads("1", || mean_round_seconds(&mixes));
    let churn = |threads: &str, lanes: usize, fresh: fn() -> Box<dyn SchedulePolicy>| {
        with_threads(threads, || {
            let mut server = RenderServer::new(scene())
                .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
                .with_policy(fresh())
                .with_lanes(lanes);
            let mut handles = Vec::new();
            for (id, &mix) in mixes.iter().enumerate() {
                handles.push(server.admit(request_for(id, mix, round_seconds)));
            }
            let late_mix = Mix {
                pipeline: 3,
                frames: 3,
                resolution: (16, 12),
                deadline_scale: Some(1.5),
            };
            let mut stream = Vec::new();
            let mut late = None;
            while let Some(frame) = server.next_frame() {
                stream.push((
                    frame.session,
                    frame.report.index,
                    frame_hash(&frame.report.image),
                    frame.deadline_slack.map(f64::to_bits),
                ));
                server.recycle(frame.session, frame.report.image);
                if stream.len() == 3 {
                    late = Some(server.admit(request_for(3, late_mix, round_seconds)));
                }
                if stream.len() == 6 {
                    assert!(server.close(handles[2]), "open session closes");
                }
            }
            let late = late.expect("admitted mid-serve");
            let summary = server.summary();
            assert!(summary.is_consistent());
            assert_eq!(summary.admissions, 1);
            assert_eq!(summary.closes, 1);
            assert_eq!(
                summary.per_session[late.id()].frames,
                late_mix.frames,
                "late session served fully"
            );
            assert!(
                summary.per_session[late.id()].worst_slack.is_some(),
                "late session's deadline clock engaged at first delivery"
            );
            (stream, summary)
        })
    };
    for fresh in [
        (|| Box::new(EarliestDeadline::new()) as Box<dyn SchedulePolicy>) as fn() -> _,
        (|| Box::new(CostAware::new()) as Box<dyn SchedulePolicy>) as fn() -> _,
        // Unbounded in-flight: with several lanes the dispatch loop runs
        // ahead of delivery, the case that catches dispatch-anchored
        // deadline epochs.
        (|| Box::new(RoundRobin::new()) as Box<dyn SchedulePolicy>) as fn() -> _,
    ] {
        assert_eq!(
            churn("1", 1, fresh),
            churn("4", 4, fresh),
            "churn timing must be lane- and thread-invariant"
        );
    }
}
