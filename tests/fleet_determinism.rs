//! The fleet determinism contract: sharding, routing, and live
//! migration are *invisible* in the delivered bits.
//!
//! 1. Every session a [`ServerFleet`] serves delivers frames
//!    bit-identical to its renderer drawing the same path on a
//!    standalone bake of the same scene through `render_into` — at
//!    `UNI_RENDER_THREADS` 1 and 4 — and the [`FleetSummary`] is
//!    consistent and thread-invariant.
//! 2. A mid-serve [`ServerFleet::migrate`] yields a bit-identical
//!    permutation of the unmigrated stream: per-session delivery stays
//!    in path order with the exact standalone bits, only the
//!    cross-session interleaving changes. A session closed while its
//!    migration is staged cancels cleanly — the target shard never
//!    learns the session existed (no ghost slot in `sim_time_share`,
//!    the same regression shape PR 8 pinned for queued admits).
//!
//! Every test takes `common::env_lock` because they pin the
//! process-wide worker count.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use uni_render::prelude::*;

mod common;
use common::{
    env_lock, fnv1a_image as frame_hash, render_into_hashes, renderer, with_threads, RESOLUTIONS,
};

const DETAIL: f32 = 0.02;

/// The scene roster: up to four distinct scenes. The last two share a
/// bake seed but not a name — distinct [`SceneKey`]s over bit-identical
/// content, which is what makes a migration between them a pure
/// permutation.
fn spec(index: usize) -> SceneSpec {
    match index {
        0 => SceneSpec::demo("fleet-det-a", 901).with_detail(DETAIL),
        1 => SceneSpec::demo("fleet-det-b", 902).with_detail(DETAIL),
        2 => SceneSpec::demo("fleet-det-c", 903).with_detail(DETAIL),
        _ => SceneSpec::demo("fleet-det-c-twin", 903).with_detail(DETAIL),
    }
}

/// Standalone reference bakes, one per roster slot, baked once.
fn baked(index: usize) -> Arc<BakedScene> {
    static SCENES: OnceLock<Vec<Arc<BakedScene>>> = OnceLock::new();
    Arc::clone(&SCENES.get_or_init(|| (0..4).map(|i| Arc::new(spec(i).bake())).collect())[index])
}

/// One generated session: scene, pipeline, frame count, resolution.
#[derive(Debug, Clone, Copy)]
struct Mix {
    scene: usize,
    pipeline: usize,
    frames: usize,
    resolution: (u32, u32),
}

/// Each session orbits from its own start angle, deterministically per
/// fleet session id.
fn path_for(session: usize, mix: Mix) -> CameraPath {
    let (w, h) = mix.resolution;
    let orbit = spec(mix.scene).orbit(w, h);
    CameraPath::orbit_arc(orbit, 0.7 * session as f32, 2.0, mix.frames)
}

fn request_for(session: usize, mix: Mix) -> FleetSessionRequest {
    let pipeline = mix.pipeline;
    FleetSessionRequest::new(move || renderer(pipeline), path_for(session, mix))
}

/// The oracle: each session's renderer drawing its path on a standalone
/// bake through `render_into` — per-session, per-frame hashes.
fn oracle_hashes(mixes: &[Mix]) -> Vec<Vec<u64>> {
    mixes
        .iter()
        .enumerate()
        .map(|(id, &mix)| {
            render_into_hashes(
                &baked(mix.scene),
                &*renderer(mix.pipeline),
                &path_for(id, mix),
            )
        })
        .collect()
}

fn fleet() -> ServerFleet {
    ServerFleet::new(SceneCacheConfig::default())
        .with_accelerator_config(AcceleratorConfig::paper())
        .with_lanes(4)
}

/// Serves every session through a fleet (one shard per scene): hashes
/// indexed per session in path order, plus the end-of-run summary.
fn fleet_hashes(mixes: &[Mix]) -> (Vec<Vec<u64>>, FleetSummary) {
    let mut fleet = fleet();
    for (id, &mix) in mixes.iter().enumerate() {
        let handle = fleet.admit(&spec(mix.scene), request_for(id, mix));
        assert_eq!(handle.id(), id, "fleet handles are dense");
    }
    let mut hashes: Vec<Vec<u64>> = mixes.iter().map(|m| Vec::with_capacity(m.frames)).collect();
    while let Some(frame) = fleet.next_frame() {
        let id = frame.handle.id();
        assert_eq!(
            hashes[id].len(),
            frame.path_index,
            "frames of one session arrive in path order"
        );
        hashes[id].push(frame_hash(&frame.frame.report.image));
        fleet.recycle(frame.handle, frame.frame.report.image);
    }
    (hashes, fleet.summary())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn fleet_streams_are_bit_identical_to_standalone_sessions(
        scene_count in 2usize..5,
        raw in proptest::collection::vec((0usize..6, 1usize..3, 0usize..3, 0usize..8), 1..9),
    ) {
        let _guard = env_lock();
        let mixes: Vec<Mix> = raw
            .iter()
            .map(|&(pipeline, frames, res, scene)| Mix {
                scene: scene % scene_count,
                pipeline,
                frames,
                resolution: RESOLUTIONS[res],
            })
            .collect();
        let solo = oracle_hashes(&mixes);
        let total: usize = mixes.iter().map(|m| m.frames).sum();

        let mut reference: Option<(Vec<Vec<u64>>, FleetSummary)> = None;
        for threads in ["1", "4"] {
            let (served, summary) = with_threads(threads, || fleet_hashes(&mixes));
            prop_assert_eq!(&served, &solo);
            prop_assert!(summary.is_consistent());
            prop_assert_eq!(summary.delivered_frames, total);
            prop_assert_eq!(summary.cache.evictions, 0);
            // The worker count may not change a single delivered bit or
            // accounting fact.
            if let Some((ref_hashes, ref_summary)) = &reference {
                prop_assert_eq!(ref_hashes, &served);
                prop_assert_eq!(ref_summary, &summary);
            } else {
                reference = Some((served, summary));
            }
        }
    }
}

/// Serves `mixes`, migrating `victim` from roster slot 2 to its twin
/// (slot 3) after `migrate_after` delivered fleet frames. Returns
/// per-session hashes (in original path-index order) and the summary.
fn fleet_hashes_with_migration(
    mixes: &[Mix],
    victim: usize,
    migrate_after: usize,
    cancel: bool,
) -> (Vec<Vec<u64>>, FleetSummary) {
    let mut fleet = fleet().with_lookahead(2);
    let mut handles = Vec::with_capacity(mixes.len());
    for (id, &mix) in mixes.iter().enumerate() {
        handles.push(fleet.admit(&spec(mix.scene), request_for(id, mix)));
    }
    let mut hashes: Vec<Vec<u64>> = mixes.iter().map(|m| Vec::with_capacity(m.frames)).collect();
    let mut staged = false;
    let pump = |fleet: &mut ServerFleet, hashes: &mut Vec<Vec<u64>>| -> bool {
        let Some(frame) = fleet.next_frame() else {
            return false;
        };
        let id = frame.handle.id();
        assert_eq!(
            hashes[id].len(),
            frame.path_index,
            "path order survives migration"
        );
        hashes[id].push(frame_hash(&frame.frame.report.image));
        fleet.recycle(frame.handle, frame.frame.report.image);
        true
    };
    for _ in 0..migrate_after {
        if !pump(&mut fleet, &mut hashes) {
            break;
        }
    }
    if fleet.migrate(handles[victim], &spec(3)) {
        staged = true;
        if cancel {
            assert!(
                fleet.close(handles[victim]),
                "closing a staged migration cancels it"
            );
        }
    }
    while pump(&mut fleet, &mut hashes) {}
    let summary = fleet.summary();
    if staged {
        assert_eq!(summary.migrations, 1);
        if cancel {
            assert_eq!(summary.migrations_cancelled, 1);
        } else {
            assert_eq!(
                summary.migrations_completed + summary.migrations_refused,
                1,
                "a staged migration resolves"
            );
        }
    }
    (hashes, summary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn migration_churn_is_a_bit_identical_permutation(
        raw in proptest::collection::vec((0usize..6, 4usize..7, 0usize..3), 1..5),
        victim_pick in 0usize..8,
        migrate_after in 1usize..4,
    ) {
        let _guard = env_lock();
        // Every session lives on roster slot 2 so any of them can
        // migrate to the twin scene (slot 3) — bit-identical content
        // under a different scene key.
        let mixes: Vec<Mix> = raw
            .iter()
            .map(|&(pipeline, frames, res)| Mix {
                scene: 2,
                pipeline,
                frames,
                resolution: RESOLUTIONS[res],
            })
            .collect();
        let victim = victim_pick % mixes.len();
        let solo = oracle_hashes(&mixes);

        let mut reference: Option<(Vec<Vec<u64>>, FleetSummary)> = None;
        for threads in ["1", "4"] {
            let (served, summary) = with_threads(threads, || {
                fleet_hashes_with_migration(&mixes, victim, migrate_after, false)
            });
            // Per-session streams carry the standalone bits in path
            // order; the migration only permutes the fleet interleaving.
            prop_assert_eq!(&served, &solo);
            prop_assert!(summary.is_consistent());
            if let Some((ref_hashes, ref_summary)) = &reference {
                prop_assert_eq!(ref_hashes, &served);
                prop_assert_eq!(ref_summary, &summary);
            } else {
                reference = Some((served, summary));
            }
        }
    }
}

#[test]
fn mid_serve_migration_hands_off_a_real_suffix() {
    let _guard = env_lock();
    with_threads("1", || {
        let mixes = [Mix {
            scene: 2,
            pipeline: 0,
            frames: 8,
            resolution: RESOLUTIONS[0],
        }];
        let solo = oracle_hashes(&mixes);
        let (served, summary) = fleet_hashes_with_migration(&mixes, 0, 2, false);
        assert_eq!(served, solo, "handed-off stream is bit-identical");
        assert!(summary.is_consistent());
        assert_eq!(summary.migrations, 1);
        assert_eq!(summary.migrations_completed, 1);
        // The hand-off was real: the twin shard delivered a non-empty
        // suffix, the source the complementary prefix — together the
        // whole path.
        let source = &summary.shards[0];
        let target = &summary.shards[1];
        assert_eq!(target.scene, SceneKey::of(&spec(3)).as_str());
        assert!(
            target.scheduled_frames() > 0,
            "suffix re-admitted on target"
        );
        assert!(source.scheduled_frames() > 0, "prefix delivered on source");
        assert_eq!(source.scheduled_frames() + target.scheduled_frames(), 8);
        // Admission spanned shards through try_admit: the target shard
        // admitted exactly one session.
        assert_eq!(target.sessions().count(), 1);
    });
}

#[test]
fn closing_a_staged_migration_cancels_without_a_ghost_slot() {
    let _guard = env_lock();
    with_threads("1", || {
        let mixes = [
            Mix {
                scene: 2,
                pipeline: 0,
                frames: 8,
                resolution: RESOLUTIONS[0],
            },
            Mix {
                scene: 2,
                pipeline: 1,
                frames: 4,
                resolution: RESOLUTIONS[1],
            },
        ];
        let (served, summary) = fleet_hashes_with_migration(&mixes, 0, 2, true);
        assert!(summary.is_consistent());
        assert_eq!(summary.migrations, 1);
        assert_eq!(summary.migrations_cancelled, 1);
        assert_eq!(summary.migrations_completed, 0);
        // The close (staged by migrate) truncated the victim's stream;
        // the survivor delivered everything.
        assert!(served[0].len() < 8, "victim closed early");
        assert_eq!(served[1].len(), 4, "survivor unaffected");
        // No ghost slot: the target shard never learned the session
        // existed — no server generation, no per-session row, so no
        // entry in any sim_time_share either. Fleet-wide, exactly the
        // two admitted sessions have accounting rows.
        let target = &summary.shards[1];
        assert_eq!(target.scene, SceneKey::of(&spec(3)).as_str());
        assert_eq!(target.generations(), 0, "cancelled suffix never admitted");
        assert_eq!(target.sessions().count(), 0);
        assert_eq!(summary.session_count(), 2);
    });
}
