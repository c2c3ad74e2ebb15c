//! Machine-checks the zero-steady-state-allocation contract that
//! `README.md` promises and R7 of `uni-lint` enforces lexically: after a
//! short warmup (scratch arenas grown, framebuffer pooled), an image-only
//! [`RenderSession`] streams frames without touching the global
//! allocator. A counting `#[global_allocator]` measures every
//! `next_frame` + `recycle` cycle, per pipeline.
//!
//! At `UNI_RENDER_THREADS=1` the contract is absolute: zero allocation
//! events per steady-state frame. One worker renders on the test's own
//! thread there, so those tests read the allocator's per-thread meters,
//! which the harness's other threads cannot disturb. An accelerator-
//! attached session allocates its trace and sim report per frame, a
//! fixed amount whatever the resolution. At higher thread counts the band
//! fan-out spawns scoped workers each frame — those allocate (thread
//! state, job cells) a small, resolution-independent amount, so there
//! the contract is a per-frame *bound* of O(workers): a per-ray or
//! per-pixel allocation leak blows it by orders of magnitude. CI runs
//! this file at `UNI_RENDER_THREADS=1` and `4`.

mod common;

use common::alloc::CountingAlloc;
use std::sync::{Arc, OnceLock};
use uni_render::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Frames rendered before measurement starts: enough for the framebuffer
/// pool, thread-local scratch arenas, and accounting state to reach
/// their steady-state footprint.
const WARMUP_FRAMES: usize = 3;
/// Steady-state frames measured after warmup.
const MEASURED_FRAMES: usize = 6;

const PIPELINES: [&str; 6] = ["mesh", "mlp", "lowrank", "hashgrid", "gaussian", "mixrt"];

fn scene() -> &'static Arc<BakedScene> {
    static SCENE: OnceLock<Arc<BakedScene>> = OnceLock::new();
    SCENE.get_or_init(|| Arc::new(SceneSpec::demo("steady", 77).with_detail(0.03).bake()))
}

/// Streams `session` to the end of its path and returns how far `meter`
/// advanced inside each `next_frame` + `recycle` cycle.
fn per_frame(mut session: RenderSession, meter: impl Fn() -> u64) -> Vec<u64> {
    let mut counts = Vec::with_capacity(session.remaining());
    while session.remaining() > 0 {
        let before = meter();
        let frame = session.next_frame().expect("path not exhausted");
        session.recycle(frame.image);
        counts.push(meter() - before);
    }
    counts
}

/// Streams one image-only session and returns the allocation events
/// `meter` counted inside each `next_frame` + `recycle` cycle.
fn frame_alloc_counts(pipeline: usize, meter: impl Fn() -> u64) -> Vec<u64> {
    let path = CameraPath::orbit(
        scene().spec().orbit(32, 24),
        WARMUP_FRAMES + MEASURED_FRAMES,
    );
    let session = RenderSession::new(Arc::clone(scene()), common::renderer(pipeline), path);
    per_frame(session, meter)
}

/// The per-frame counts after warmup, with context on failure.
fn steady(counts: &[u64]) -> &[u64] {
    &counts[WARMUP_FRAMES..]
}

#[test]
fn steady_state_frames_do_not_allocate_single_threaded() {
    let _guard = common::env_lock();
    common::with_threads("1", || {
        let all: Vec<(&str, Vec<u64>)> = PIPELINES
            .iter()
            .enumerate()
            // One worker renders on this thread: its own meter sees
            // every frame allocation and none of the test harness's.
            .map(|(i, name)| {
                (
                    *name,
                    frame_alloc_counts(i, common::alloc::thread_allocations),
                )
            })
            .collect();
        for (name, counts) in &all {
            assert!(
                steady(counts).iter().all(|&c| c == 0),
                "{name}: expected zero steady-state allocations per frame \
                 at UNI_RENDER_THREADS=1, got {counts:?} \
                 (first {WARMUP_FRAMES} are warmup); all pipelines: {all:?}"
            );
        }
    });
}

#[test]
fn steady_state_frames_allocate_bounded_multi_threaded() {
    // 32 allocation events per worker per frame comfortably covers two
    // band fan-outs (scoped spawn machinery + result cells) while
    // sitting orders of magnitude below any per-ray or per-pixel leak
    // (the 32×24 frames here trace ~768 primary rays).
    const PER_WORKER_BUDGET: u64 = 32;
    let workers = 4u64;
    let _guard = common::env_lock();
    common::with_threads("4", || {
        for (i, name) in PIPELINES.iter().enumerate() {
            let counts = frame_alloc_counts(i, || ALLOC.allocations());
            assert!(
                steady(&counts)
                    .iter()
                    .all(|&c| c <= PER_WORKER_BUDGET * workers),
                "{name}: steady-state per-frame allocations must stay \
                 O(workers) at UNI_RENDER_THREADS=4 — budget {} — got \
                 {counts:?} (first {WARMUP_FRAMES} are warmup)",
                PER_WORKER_BUDGET * workers
            );
        }
    });
}

/// An accelerator-attached session renders each frame once and traces it
/// from that render's own counts, through the reused scratch arenas. Its
/// per-frame allocations are the trace and the sim report, whose sizes
/// depend on the pipeline's stage list, never on the resolution: the
/// steady-state bytes per frame are identical at 32×24 and 128×96.
#[test]
fn traced_frames_allocate_the_same_bytes_at_any_resolution() {
    // Two laps over the same two orbit poses; the second lap is measured.
    // Revisiting poses means scene data a kernel packs on first touch
    // (KiloNeRF's per-cell MLP panels) is packed already, so only
    // per-frame work is measured. The loop is short because 128×96
    // volume frames are slow in debug builds.
    const POSES: usize = 2;
    let bytes = |pipeline: usize, w: u32, h: u32| {
        let orbit = CameraPath::orbit(scene().spec().orbit(w, h), POSES);
        let path = CameraPath::waypoints((0..2 * POSES).map(|i| orbit.camera(i % POSES)).collect());
        let session = RenderSession::new(Arc::clone(scene()), common::renderer(pipeline), path)
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()));
        per_frame(session, common::alloc::thread_bytes_allocated)
    };
    let _guard = common::env_lock();
    common::with_threads("1", || {
        for (i, name) in PIPELINES.iter().enumerate() {
            let small = bytes(i, 32, 24);
            let large = bytes(i, 128, 96);
            assert_eq!(
                small[POSES..],
                large[POSES..],
                "{name}: steady-state bytes per traced frame must not depend on \
                 resolution — 32x24 {small:?} vs 128x96 {large:?} \
                 (the first {POSES} are warmup)"
            );
        }
    });
}

/// The framebuffer itself is pooled: the whole measured stream reuses
/// one allocation per session as long as frames are recycled.
#[test]
fn framebuffer_pool_reuses_one_allocation() {
    let _guard = common::env_lock();
    common::with_threads("1", || {
        let path = CameraPath::orbit(scene().spec().orbit(32, 24), 5);
        let mut session = RenderSession::new(Arc::clone(scene()), common::renderer(0), path);
        while let Some(frame) = session.next_frame() {
            session.recycle(frame.image);
        }
        assert_eq!(session.pool().allocations(), 1);
    });
}
