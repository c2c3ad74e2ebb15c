//! The scene-cache contract: eviction is a *schedule* fact.
//!
//! The fleet's cache evicts by least-recently-delivered fleet slot —
//! never wall clock — so (1) replaying the same admission/drain
//! sequence reproduces the same evictions, bakes, and bits at any
//! worker count; (2) an evicted scene rebakes bit-identically (baking
//! is seeded purely from the spec), so evict-then-rebake round-trips
//! the served stream exactly; (3) every cache counter is predictable
//! by a manual replay of the routing decisions; and (4) admission
//! control keeps deadlines whether or not the cache must evict.
//!
//! Every test takes `common::env_lock` because they pin the
//! process-wide worker count.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use uni_render::prelude::*;

mod common;
use common::{env_lock, fnv1a_image as frame_hash, render_into_hashes, renderer, with_threads};

const DETAIL: f32 = 0.02;
const CAPACITY: usize = 2;
const FRAMES_PER_WAVE: usize = 2;

/// Three distinct scenes over a capacity-2 cache: the third admission
/// must evict.
fn spec(scene: usize) -> SceneSpec {
    match scene {
        0 => SceneSpec::demo("fleet-cache-a", 711).with_detail(DETAIL),
        1 => SceneSpec::demo("fleet-cache-b", 712).with_detail(DETAIL),
        _ => SceneSpec::demo("fleet-cache-c", 713).with_detail(DETAIL),
    }
}

fn key(scene: usize) -> SceneKey {
    SceneKey::of(&spec(scene))
}

/// Resident bytes per scene, baked once — the model's bake-cost table.
fn scene_bytes(scene: usize) -> u64 {
    static BYTES: OnceLock<Vec<u64>> = OnceLock::new();
    BYTES.get_or_init(|| (0..3).map(|i| spec(i).bake().resident_bytes()).collect())[scene]
}

/// Each scene's wave always walks the same path, so a rebaked scene's
/// wave is comparable bit-for-bit with its first wave.
fn path(scene: usize) -> CameraPath {
    let orbit = spec(scene).orbit(16, 12);
    CameraPath::orbit_arc(orbit, 0.4 * scene as f32, 2.0, FRAMES_PER_WAVE)
}

fn request(scene: usize) -> FleetSessionRequest {
    FleetSessionRequest::new(move || renderer(scene), path(scene))
}

fn fleet() -> ServerFleet {
    ServerFleet::new(SceneCacheConfig {
        max_resident: CAPACITY,
        max_bytes: None,
    })
    .with_accelerator_config(AcceleratorConfig::paper())
    .with_lanes(2)
}

/// One wave: admit a session on `scene`, drain the fleet, return the
/// wave's delivered frame hashes (in path order).
fn run_wave(fleet: &mut ServerFleet, scene: usize) -> Vec<u64> {
    let handle = fleet.admit(&spec(scene), request(scene));
    let mut hashes = Vec::with_capacity(FRAMES_PER_WAVE);
    while let Some(frame) = fleet.next_frame() {
        assert_eq!(frame.handle, handle, "waves drain before the next admits");
        assert_eq!(frame.path_index, hashes.len());
        hashes.push(frame_hash(&frame.frame.report.image));
        fleet.recycle(frame.handle, frame.frame.report.image);
    }
    assert_eq!(hashes.len(), FRAMES_PER_WAVE);
    hashes
}

/// Runs a wave schedule on a fresh fleet: per-wave hashes + summary.
fn run_schedule(waves: &[usize]) -> (Vec<Vec<u64>>, FleetSummary) {
    let mut fleet = fleet();
    let hashes = waves.iter().map(|&s| run_wave(&mut fleet, s)).collect();
    (hashes, fleet.summary())
}

#[test]
fn eviction_is_a_pure_function_of_the_delivered_schedule() {
    let _guard = env_lock();
    // Capacity 2, scenes 0..3: wave 2 evicts scene 0 (least-recently-
    // delivered), the final wave rebakes scene 0 and evicts scene 1.
    let waves = [0usize, 1, 2, 0];
    let (hashes, summary) = with_threads("1", || run_schedule(&waves));
    let (replay_hashes, replay_summary) = with_threads("1", || run_schedule(&waves));
    assert_eq!(hashes, replay_hashes, "same schedule, same bits");
    assert_eq!(summary, replay_summary, "same schedule, same accounting");
    let (t4_hashes, t4_summary) = with_threads("4", || run_schedule(&waves));
    assert_eq!(hashes, t4_hashes, "worker count cannot move an eviction");
    assert_eq!(summary, t4_summary);

    assert!(summary.is_consistent());
    assert_eq!(summary.cache.bakes, 4);
    assert_eq!(summary.cache.rebakes, 1);
    assert_eq!(summary.cache.evictions, 2);
    assert_eq!(summary.cache.hits, 0);
    assert_eq!(summary.cache.resident_scenes, CAPACITY);
    // The evicted-and-rebaked scene served both its waves identically.
    assert_eq!(hashes[0], hashes[3], "rebake round-trips the stream");
    // Scene 0's shard served two residency generations, one session each.
    assert_eq!(summary.shards[0].generations(), 2);
    assert_eq!(summary.shards[0].sessions().count(), 2);
}

#[test]
fn evict_then_rebake_round_trips_bit_identically() {
    let _guard = env_lock();
    with_threads("1", || {
        // Standalone reference for scene 0's wave.
        let reference = render_into_hashes(&spec(0).bake(), &*renderer(0), &path(0));

        let mut fleet = fleet();
        let first = run_wave(&mut fleet, 0);
        run_wave(&mut fleet, 1);
        run_wave(&mut fleet, 2);
        assert_eq!(fleet.cache_stats().evictions, 1, "scene 0 evicted");
        let again = run_wave(&mut fleet, 0);
        let stats = fleet.cache_stats();
        assert_eq!(stats.rebakes, 1, "scene 0 rebaked");
        assert_eq!(first, reference, "first residency serves standalone bits");
        assert_eq!(again, reference, "rebaked residency serves the same bits");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn bake_accounting_matches_a_manual_replay_of_routing_decisions(
        waves in proptest::collection::vec(0usize..3, 1..8),
    ) {
        let _guard = env_lock();
        let (stats, summary) = with_threads("1", || {
            let mut fleet = fleet();
            for &s in &waves {
                run_wave(&mut fleet, s);
            }
            (fleet.cache_stats(), fleet.summary())
        });

        // Manual replay: the cache contract, restated from the wave
        // schedule alone. Recency is the fleet's delivered-slot clock
        // (admits and deliveries both refresh it); eviction takes the
        // least-recently-delivered unpinned resident, ties by key order;
        // during an admission only the scene being admitted is pinned
        // (every previous wave has drained).
        let mut resident: BTreeMap<usize, u64> = BTreeMap::new();
        let mut ever: BTreeSet<usize> = BTreeSet::new();
        let mut expect = FleetCacheStats::default();
        let mut slot = 0u64;
        for &s in &waves {
            if resident.contains_key(&s) {
                expect.hits += 1;
            } else {
                expect.bakes += 1;
                expect.baked_bytes += scene_bytes(s);
                if !ever.insert(s) {
                    expect.rebakes += 1;
                }
                while resident.len() >= CAPACITY {
                    let victim = resident
                        .iter()
                        .map(|(&scene, &last)| (last, key(scene), scene))
                        .min()
                        .expect("a resident exists")
                        .2;
                    resident.remove(&victim);
                    expect.evictions += 1;
                }
            }
            resident.insert(s, slot);
            for _ in 0..FRAMES_PER_WAVE {
                slot += 1;
                resident.insert(s, slot);
            }
        }
        expect.resident_scenes = resident.len();
        expect.resident_bytes = resident.keys().map(|&s| scene_bytes(s)).sum();

        prop_assert_eq!(stats, expect);
        prop_assert!(summary.is_consistent());
        prop_assert_eq!(summary.delivered_frames, waves.len() * FRAMES_PER_WAVE);
        prop_assert_eq!(summary.delivered_frames, slot as usize);
    }
}

/// Waves over scenes `[0, 1, 2, 0]`, each offering two deadline-bound
/// 4-frame 24×16 sessions through `try_admit` and draining before the
/// next. `frame_seconds` (the calibrated mean frame sim-time) primes
/// the admission prior and sets a period of four frames; `None` is the
/// deadline-free calibration pass.
fn admitted_waves(capacity: usize, frame_seconds: Option<f64>) -> FleetSummary {
    let mut fleet = ServerFleet::new(SceneCacheConfig {
        max_resident: capacity,
        max_bytes: None,
    })
    .with_accelerator_config(AcceleratorConfig::paper())
    .with_policy_factory(|| Box::new(EarliestDeadline::new()))
    .with_lanes(2);
    if let Some(prior) = frame_seconds {
        fleet = fleet.with_admission_control(AdmissionControl::new().frame_cost_prior(prior));
    }
    for (wave, &scene) in [0usize, 1, 2, 0].iter().enumerate() {
        for session in 2 * wave..2 * wave + 2 {
            // The gaussian/mesh/hashgrid/mlp mix.
            let pipeline = [4, 0, 3, 1][session % 4];
            let orbit = spec(scene).orbit(24, 16);
            let mut request = FleetSessionRequest::new(
                move || renderer(pipeline),
                CameraPath::orbit_arc(orbit, 0.4 * session as f32, 1.6, 4),
            );
            if let Some(seconds) = frame_seconds {
                request = request.deadline_hz(1.0 / (4.0 * seconds));
            }
            let _ = fleet.try_admit(&spec(scene), request);
        }
        fleet.run();
    }
    fleet.summary()
}

/// Admission holds under eviction pressure: with every scene resident
/// nothing is evicted; one slot short, the third scene evicts and the
/// revisit rebakes. Either way the sessions admission let in miss fewer
/// than 5% of their deadlines.
#[test]
fn admitted_sessions_keep_their_deadlines_under_eviction_pressure() {
    let _guard = env_lock();
    with_threads("1", || {
        let calibration = admitted_waves(3, None);
        let seconds: f64 = calibration
            .shards
            .iter()
            .flat_map(|shard| shard.servers.iter())
            .map(|server| server.total_seconds)
            .sum();
        let frame_seconds = seconds / calibration.delivered_frames.max(1) as f64;
        for capacity in [3, 2] {
            let summary = admitted_waves(capacity, Some(frame_seconds));
            assert!(summary.is_consistent());
            if capacity < 3 {
                assert!(
                    summary.cache.evictions > 0,
                    "capacity {capacity} must evict"
                );
                assert!(summary.cache.rebakes > 0, "the revisit must rebake");
            } else {
                assert_eq!(summary.cache.evictions, 0, "full capacity never evicts");
            }
            assert!(summary.delivered_frames > 0, "admission refused every wave");
            assert!(
                summary.deadline_miss_rate() < 0.05,
                "capacity {capacity}: admitted sessions missed {} of {} frames",
                summary.deadline_misses,
                summary.delivered_frames
            );
        }
    });
}
