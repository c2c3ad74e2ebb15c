//! The scheduler-policy contract of [`RenderServer`]:
//!
//! - every built-in policy's served-frame stream is a **permutation** of
//!   the round-robin stream with **bit-identical** frames (each session's
//!   frames arrive complete, in path order, matching its renderer's own
//!   `render_into` output);
//! - schedules, streams, and summaries are **thread-invariant** at
//!   `UNI_RENDER_THREADS ∈ {1, 4}`;
//! - [`WeightedFair`] equalizes per-weight sim-time credit within one
//!   frame's cost while sessions stay backlogged;
//! - [`Priority`] is strict across levels and round-robin within one;
//! - `coalesce_switches` pays strictly fewer boundary reconfigurations
//!   than interleaved round-robin on a mixed-pipeline workload;
//! - mid-serve [`RenderServer::admit`] / [`RenderServer::close`] keep the
//!   stream bit-deterministic across thread counts.
//!
//! Every test mutates the process-wide `UNI_RENDER_THREADS` variable (or
//! renders while another test might), so they all serialize on one lock.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use uni_render::prelude::*;

mod common;
use common::{
    env_lock, fnv1a_image as frame_hash, render_into_hashes, renderer, with_threads, RESOLUTIONS,
};

/// Delivery order, per-session frame hashes, and final summary of one
/// served run.
type ServedRun = (Vec<(usize, usize)>, Vec<Vec<u64>>, ServerSummary);

/// A fresh-instance constructor for one scheduling policy.
type PolicyFactory = fn() -> Box<dyn SchedulePolicy>;

fn scene() -> Arc<BakedScene> {
    static SCENE: OnceLock<Arc<BakedScene>> = OnceLock::new();
    Arc::clone(SCENE.get_or_init(|| {
        Arc::new(
            SceneSpec::demo("serve-policies", 55)
                .with_detail(0.03)
                .bake(),
        )
    }))
}

/// One generated session: pipeline choice, frame count, resolution.
#[derive(Debug, Clone, Copy)]
struct Mix {
    pipeline: usize,
    frames: usize,
    resolution: (u32, u32),
}

fn path_for(session: usize, mix: Mix) -> CameraPath {
    let (w, h) = mix.resolution;
    let orbit = scene().spec().orbit(w, h);
    CameraPath::orbit_arc(orbit, 0.6 * session as f32, 2.0, mix.frames)
}

/// Deterministic per-session scheduling attributes so every policy has
/// something nontrivial to decide over.
fn request_for(id: usize, mix: Mix) -> SessionRequest {
    SessionRequest::new(renderer(mix.pipeline), path_for(id, mix))
        .weight(1 + (id % 3) as u32)
        .priority((id % 2) as u8)
}

/// Serves every session through one server under `policy`: the delivery
/// order, per-session frame hashes (indexed like the mix),
/// and the end-of-run summary.
fn served(mixes: &[Mix], policy: Box<dyn SchedulePolicy>, lanes: usize) -> ServedRun {
    let mut server = RenderServer::new(scene())
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
        .with_policy(policy)
        .with_lanes(lanes);
    for (id, &mix) in mixes.iter().enumerate() {
        server.admit(request_for(id, mix));
    }
    let mut order = Vec::new();
    let mut hashes: Vec<Vec<u64>> = mixes.iter().map(|m| Vec::with_capacity(m.frames)).collect();
    while let Some(frame) = server.next_frame() {
        assert_eq!(
            hashes[frame.session].len(),
            frame.report.index,
            "frames of one session arrive in path order"
        );
        order.push((frame.session, frame.report.index));
        hashes[frame.session].push(frame_hash(&frame.report.image));
        server.recycle(frame.session, frame.report.image);
    }
    (order, hashes, server.summary())
}

/// One factory per built-in policy (fresh instance per serve, since a
/// server consumes its policy); the name is taken from an instance so
/// the pair can never drift out of sync.
fn policies() -> Vec<(&'static str, PolicyFactory)> {
    fn rr() -> Box<dyn SchedulePolicy> {
        Box::new(RoundRobin::new())
    }
    fn rr_coalesced() -> Box<dyn SchedulePolicy> {
        Box::new(RoundRobin::new().coalesce_switches(true))
    }
    fn wf() -> Box<dyn SchedulePolicy> {
        Box::new(WeightedFair::new())
    }
    fn prio() -> Box<dyn SchedulePolicy> {
        Box::new(Priority::new())
    }
    let factories: [PolicyFactory; 4] = [rr, rr_coalesced, wf, prio];
    factories.iter().map(|&f| (f().name(), f)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn every_policy_serves_a_bit_identical_permutation_of_round_robin(
        raw in proptest::collection::vec((0usize..6, 1usize..3, 0usize..3), 1..5),
    ) {
        let _guard = env_lock();
        let mixes: Vec<Mix> = raw
            .iter()
            .map(|&(pipeline, frames, res)| Mix {
                pipeline,
                frames,
                resolution: RESOLUTIONS[res],
            })
            .collect();
        let total: usize = mixes.iter().map(|m| m.frames).sum();
        let solo: Vec<Vec<u64>> = mixes
            .iter()
            .enumerate()
            .map(|(id, &mix)| {
                render_into_hashes(&scene(), &*renderer(mix.pipeline), &path_for(id, mix))
            })
            .collect();

        for (name, fresh) in policies() {
            let mut reference: Option<ServedRun> = None;
            for threads in ["1", "4"] {
                let run = with_threads(threads, || served(&mixes, fresh(), 4));
                let (order, hashes, summary) = &run;
                // Permutation of the round-robin stream with bit-identical
                // frames: every session's stream is complete, in path
                // order, and matches the renderer's own frames exactly.
                prop_assert!(hashes == &solo, "policy {} altered frames", name);
                prop_assert_eq!(order.len(), total);
                prop_assert!(summary.is_consistent());
                prop_assert_eq!(summary.scheduled_frames, total);
                prop_assert_eq!(&summary.policy, name);
                // Thread count changes nothing: schedule, images, stats.
                if let Some(reference) = &reference {
                    prop_assert!(reference == &run, "policy {} is thread-variant", name);
                } else {
                    reference = Some(run);
                }
            }
        }
    }
}

/// WeightedFair equalizes accumulated sim-time per unit weight: while
/// every session stays backlogged, any two sessions' credits differ by
/// at most one frame's sim cost, so sim-time shares track weights.
#[test]
fn weighted_fair_shares_follow_weights_within_one_frame() {
    let _guard = env_lock();
    with_threads("1", || {
        let weights = [1u32, 2, 3];
        let mut server = RenderServer::new(scene())
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
            .with_policy(WeightedFair::new())
            .with_lanes(2);
        for (id, &w) in weights.iter().enumerate() {
            let mix = Mix {
                pipeline: 0,
                frames: 20,
                resolution: (24, 16),
            };
            server.admit(SessionRequest::new(renderer(mix.pipeline), path_for(id, mix)).weight(w));
        }
        // Stop mid-stream while everyone is still backlogged: complete
        // runs are bounded by path lengths, not by the policy.
        let mut max_frame_seconds: f64 = 0.0;
        for _ in 0..12 {
            let frame = server.next_frame().expect("backlogged");
            let sim = frame.report.sim.as_ref().expect("simulated");
            max_frame_seconds = max_frame_seconds.max(sim.seconds);
            server.recycle(frame.session, frame.report.image);
        }
        let summary = server.summary();
        assert_eq!(summary.policy, "weighted_fair");
        let seconds: Vec<f64> = summary.per_session.iter().map(|s| s.seconds).collect();
        for i in 0..weights.len() {
            for j in 0..weights.len() {
                let credit_i = seconds[i] / f64::from(weights[i]);
                let credit_j = seconds[j] / f64::from(weights[j]);
                assert!(
                    (credit_i - credit_j).abs() <= max_frame_seconds + 1e-12,
                    "sessions {i} and {j}: credits {credit_i:.6e} vs {credit_j:.6e} \
                     drift beyond one frame ({max_frame_seconds:.6e})"
                );
            }
        }
        // Shares therefore track weights: the heaviest session consumed
        // the most sim-time, the lightest the least.
        assert!(summary.sim_time_share(2) > summary.sim_time_share(1));
        assert!(summary.sim_time_share(1) > summary.sim_time_share(0));
        let shares = summary.sim_time_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    });
}

/// Priority is strict across levels (all higher-level frames first) and
/// round-robin inside a level.
#[test]
fn priority_serves_levels_strictly_with_round_robin_inside() {
    let _guard = env_lock();
    with_threads("1", || {
        let mut server = RenderServer::new(scene())
            .with_policy(Priority::new())
            .with_lanes(2);
        let mix = |frames| Mix {
            pipeline: 0,
            frames,
            resolution: (16, 12),
        };
        server.admit(SessionRequest::new(renderer(0), path_for(0, mix(3))).priority(0));
        server.admit(SessionRequest::new(renderer(1), path_for(1, mix(2))).priority(5));
        server.admit(SessionRequest::new(renderer(2), path_for(2, mix(2))).priority(5));
        let mut order = Vec::new();
        while let Some(frame) = server.next_frame() {
            order.push((frame.session, frame.report.index));
            server.recycle(frame.session, frame.report.image);
        }
        assert_eq!(
            order,
            vec![(1, 0), (2, 0), (1, 1), (2, 1), (0, 0), (0, 1), (0, 2)],
            "level 5 round-robins to completion before level 0 runs"
        );
    });
}

/// Batching same-pipeline frames amortizes boundary reconfigurations:
/// on a 4-session mixed-pipeline workload the coalesced schedule pays
/// strictly fewer switches than interleaved round-robin, while serving
/// the exact same frames.
#[test]
fn coalescing_pays_strictly_fewer_reconfigurations_than_round_robin() {
    let _guard = env_lock();
    with_threads("1", || {
        // Four sessions, four distinct pipelines — the worst case for an
        // interleaved schedule (gaussian/hashgrid/mesh boundaries all
        // switch families).
        let mixes: Vec<Mix> = [4usize, 0, 3, 1]
            .iter()
            .map(|&pipeline| Mix {
                pipeline,
                frames: 3,
                resolution: (24, 16),
            })
            .collect();
        let (_, rr_hashes, rr) = served(&mixes, Box::new(RoundRobin::new()), 2);
        let (_, co_hashes, co) = served(
            &mixes,
            Box::new(RoundRobin::new().coalesce_switches(true)),
            2,
        );
        assert_eq!(rr_hashes, co_hashes, "coalescing must not change frames");
        assert!(
            co.boundary_reconfigurations < rr.boundary_reconfigurations,
            "coalesced {} vs round-robin {} boundary switches",
            co.boundary_reconfigurations,
            rr.boundary_reconfigurations
        );
        assert!(co.reconfigurations_per_frame() < rr.reconfigurations_per_frame());
    });
}

/// Cost-aware coalescing against the fixed `coalesce_switches` knob on
/// the pinned 4-session mixed-pipeline workload: it pays **no more**
/// reconfigurations per frame, and it **never worsens the worst slack**
/// of a deadline-bound session — because it batches by urgency order and
/// breaks a batch whenever the learned switch saving stops covering the
/// induced slack loss. (The permutation/thread-invariance proptests for
/// `CostAware` and `EarliestDeadline` live in `tests/server_deadlines.rs`.)
#[test]
fn cost_aware_coalescing_never_pays_more_switches_nor_worse_slack() {
    let _guard = env_lock();
    with_threads("1", || {
        // The coalescing worst case again — four sessions, four distinct
        // pipelines — with a deadline-bound session buried at id 2, where
        // the id-ordered fixed coalescer serves it late.
        let mixes: Vec<Mix> = [4usize, 0, 3, 1]
            .iter()
            .map(|&pipeline| Mix {
                pipeline,
                frames: 3,
                resolution: (24, 16),
            })
            .collect();
        // Deadline loose enough that batch scheduling can meet it (the
        // whole workload is 12 frames), tight enough that *when* the
        // session is served moves its slack: one period per round of the
        // total sim time, measured by a calibration serve.
        let total_seconds = served(&mixes, Box::new(RoundRobin::new()), 2)
            .2
            .total_seconds;
        let deadline_hz = mixes.len() as f64 * mixes[0].frames as f64 / (2.0 * total_seconds);
        let serve_with_deadline = |policy: Box<dyn SchedulePolicy>| {
            let mut server = RenderServer::new(scene())
                .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
                .with_policy(policy)
                .with_lanes(2);
            for (id, &mix) in mixes.iter().enumerate() {
                let mut request = request_for(id, mix);
                if id == 2 {
                    request = request.deadline_hz(deadline_hz);
                }
                server.admit(request);
            }
            let mut hashes: Vec<Vec<u64>> =
                mixes.iter().map(|m| Vec::with_capacity(m.frames)).collect();
            while let Some(frame) = server.next_frame() {
                hashes[frame.session].push(frame_hash(&frame.report.image));
                server.recycle(frame.session, frame.report.image);
            }
            (hashes, server.summary())
        };
        let (co_hashes, co) =
            serve_with_deadline(Box::new(RoundRobin::new().coalesce_switches(true)));
        let (ca_hashes, ca) = serve_with_deadline(Box::new(CostAware::new()));
        assert_eq!(ca.policy, "cost_aware");
        assert_eq!(
            co_hashes, ca_hashes,
            "cost awareness must not change the frames"
        );
        assert!(
            ca.reconfigurations_per_frame() <= co.reconfigurations_per_frame(),
            "cost-aware pays {} reconfigs/frame vs fixed coalescer {}",
            ca.reconfigurations_per_frame(),
            co.reconfigurations_per_frame()
        );
        let co_worst = co.worst_slack().expect("deadline session served");
        let ca_worst = ca.worst_slack().expect("deadline session served");
        assert!(
            ca_worst >= co_worst,
            "cost-aware worst slack {ca_worst:.6e} must not fall below the \
             fixed coalescer's {co_worst:.6e}"
        );
        // On this mix urgency ordering actually *improves* the deadline
        // session's worst slack — the win the serve bench pins.
        assert!(
            ca_worst > co_worst,
            "urgency-ordered batches should serve the deadline session \
             earlier ({ca_worst:.6e} vs {co_worst:.6e})"
        );
        assert_eq!(ca.deadline_misses, 0, "the loose deadline is met");
    });
}

/// Mid-serve admission and early close keep the served stream
/// bit-identical across thread counts, and admitted sessions' frames
/// match their renderer's own frames exactly.
#[test]
fn mid_serve_churn_is_bit_deterministic_across_thread_counts() {
    let _guard = env_lock();
    let churn = |threads: &str| {
        with_threads(threads, || {
            let mixes: Vec<Mix> = (0..3)
                .map(|id| Mix {
                    pipeline: id,
                    frames: 6,
                    resolution: (24, 16),
                })
                .collect();
            let late_mix = Mix {
                pipeline: 3,
                frames: 3,
                resolution: (16, 12),
            };
            let mut server = RenderServer::new(scene())
                .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
                .with_policy(WeightedFair::new())
                .with_lanes(4);
            let mut handles = Vec::new();
            for (id, &mix) in mixes.iter().enumerate() {
                handles.push(server.admit(request_for(id, mix)));
            }
            let mut stream = Vec::new();
            let mut late = None;
            while let Some(frame) = server.next_frame() {
                stream.push((
                    frame.session,
                    frame.report.index,
                    frame_hash(&frame.report.image),
                ));
                server.recycle(frame.session, frame.report.image);
                if stream.len() == 3 {
                    late = Some(
                        server.admit(
                            SessionRequest::new(renderer(late_mix.pipeline), path_for(3, late_mix))
                                .weight(2)
                                .label("late joiner"),
                        ),
                    );
                }
                if stream.len() == 6 {
                    assert!(server.close(handles[1]), "open session closes");
                }
            }
            let late = late.expect("admitted mid-serve");
            let summary = server.summary();
            assert!(summary.is_consistent());
            assert_eq!(summary.admissions, 1);
            assert_eq!(summary.closes, 1);
            assert!(summary.per_session[1].closed_early);
            assert!(summary.per_session[1].frames < 6, "close cancelled frames");
            assert_eq!(
                summary.per_session[late.id()].frames,
                late_mix.frames,
                "late session served fully"
            );
            // The late session's frames are bit-identical to its
            // renderer drawing the same path directly.
            let solo_hashes = render_into_hashes(
                &scene(),
                &*renderer(late_mix.pipeline),
                &path_for(3, late_mix),
            );
            let served_late: Vec<u64> = stream
                .iter()
                .filter(|(s, _, _)| *s == late.id())
                .map(|&(_, _, h)| h)
                .collect();
            assert_eq!(served_late, solo_hashes);
            (stream, summary)
        })
    };
    assert_eq!(
        churn("1"),
        churn("4"),
        "churn timing must be lane-invariant"
    );
}

/// Closing a still-*staged* session (admitted mid-serve, activation slot
/// not yet reached) cancels the pending activation outright: the session
/// serves zero frames, leaves no ghost slot in the sim-time shares, and
/// the rest of the stream is bit-identical to a run that never saw the
/// churn — at any thread count.
#[test]
fn close_of_a_staged_session_cancels_its_activation() {
    let _guard = env_lock();
    let mixes: Vec<Mix> = (0..2)
        .map(|id| Mix {
            pipeline: id,
            frames: 5,
            resolution: (24, 16),
        })
        .collect();
    let ghost_mix = Mix {
        pipeline: 4,
        frames: 4,
        resolution: (16, 12),
    };
    let serve = |threads: &str, churn: bool| {
        with_threads(threads, || {
            let mut server = RenderServer::new(scene())
                .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
                .with_policy(WeightedFair::new())
                .with_lanes(4);
            for (id, &mix) in mixes.iter().enumerate() {
                server.admit(request_for(id, mix));
            }
            let mut stream = Vec::new();
            let mut ghost = None;
            while let Some(frame) = server.next_frame() {
                stream.push((
                    frame.session,
                    frame.report.index,
                    frame_hash(&frame.report.image),
                ));
                server.recycle(frame.session, frame.report.image);
                if churn && stream.len() == 2 {
                    // Admit and close in the same delivery: the close
                    // lands while the admission is still staged.
                    let handle = server.admit(
                        SessionRequest::new(renderer(ghost_mix.pipeline), path_for(2, ghost_mix))
                            .label("ghost"),
                    );
                    assert!(server.close(handle), "staged session accepts a close");
                    ghost = Some(handle);
                }
            }
            let summary = server.summary();
            assert!(summary.is_consistent());
            if let Some(ghost) = ghost {
                let stats = server.session_stats(ghost).expect("ghost stats");
                assert_eq!(stats.frames, 0, "cancelled activation serves nothing");
                assert!(stats.closed_early);
                assert_eq!(stats.seconds, 0.0, "no sim time charged to the ghost");
                assert_eq!(
                    summary.sim_time_share(ghost.id()),
                    0.0,
                    "no ghost slot skews the shares"
                );
                let live_shares: f64 = summary.sim_time_shares().iter().sum();
                assert!(
                    (live_shares - 1.0).abs() < 1e-9,
                    "shares still sum to 1 over the real sessions"
                );
            }
            (stream, summary.total_seconds.to_bits())
        })
    };
    let (churned_1, seconds_1) = serve("1", true);
    let (churned_4, seconds_4) = serve("4", true);
    assert_eq!(churned_1, churned_4, "cancelled churn is lane-invariant");
    assert_eq!(seconds_1, seconds_4);
    let (clean, _) = serve("1", false);
    assert_eq!(
        churned_1, clean,
        "an admit+close round trip on a staged session must leave the \
         served stream untouched"
    );
}
