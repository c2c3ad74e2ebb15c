//! Machine-checks the zero-steady-state-allocation contract that
//! `README.md` promises and R7 of `uni-lint` enforces lexically: after a
//! short warmup (scratch arenas grown, framebuffer pooled), an image-only
//! [`RenderSession`] streams frames without touching the global
//! allocator, and so does a mixed-pipeline [`RenderServer`] tick. A
//! counting `#[global_allocator]` measures every `next_frame` +
//! `recycle` cycle, per pipeline.
//!
//! At `UNI_RENDER_THREADS=1` the contract is absolute: zero allocation
//! events per steady-state frame. One worker renders on the test's own
//! thread there, so those tests read the allocator's per-thread meters,
//! which the harness's other threads cannot disturb. An accelerator-
//! attached session allocates its trace and sim report per frame, a
//! fixed amount whatever the resolution. At higher thread counts each
//! band fan-out allocates its job cells and result vector, and a pool
//! helper grows its scratch arenas the first time it runs a pipeline's
//! band — a small, resolution-independent amount, so there the contract
//! is a per-frame *bound* of O(workers): a per-ray or per-pixel
//! allocation leak blows it by orders of magnitude. CI runs this file at
//! `UNI_RENDER_THREADS=1` and `4`.
//!
//! A soak test also meters freed bytes: sessions the server has retired
//! must leave almost nothing live on the heap.

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

/// Calls `step` until it reports the stream ended and returns how far
/// `meter` advanced inside each call.
fn per_step(mut step: impl FnMut() -> bool, meter: impl Fn() -> u64) -> Vec<u64> {
    let mut counts = Vec::new();
    loop {
        let before = meter();
        if !step() {
            return counts;
        }
        counts.push(meter() - before);
    }
}

/// Streams `session` to the end of its path and returns how far `meter`
/// advanced inside each `next_frame` + `recycle` cycle.
fn per_frame(mut session: RenderSession, meter: impl Fn() -> u64) -> Vec<u64> {
    per_step(
        || match session.next_frame() {
            Some(frame) => {
                session.recycle(frame.image);
                true
            }
            None => false,
        },
        meter,
    )
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

/// Serves two image-only sessions on different pipelines (mesh, MLP)
/// through one 1-lane server and returns the allocation events `meter`
/// counted per round-robin round: one frame of each session, delivered
/// and recycled.
fn server_alloc_counts(meter: impl Fn() -> u64) -> Vec<u64> {
    let mut server = RenderServer::new(Arc::clone(scene())).with_lanes(1);
    for pipeline in [0, 1] {
        let path = CameraPath::orbit(
            scene().spec().orbit(32, 24),
            WARMUP_FRAMES + MEASURED_FRAMES,
        );
        server.admit(SessionRequest::new(common::renderer(pipeline), path));
    }
    per_step(
        || {
            (0..2).all(|_| match server.next_frame() {
                Some(frame) => {
                    server.recycle(frame.session, frame.report.image);
                    true
                }
                None => false,
            })
        },
        meter,
    )
}

/// The per-frame counts after warmup, with context on failure.
fn steady(counts: &[u64]) -> &[u64] {
    &counts[WARMUP_FRAMES..]
}

#[test]
fn steady_state_frames_do_not_allocate_single_threaded() {
    let _guard = common::env_lock();
    common::with_threads("1", || {
        let mut all: Vec<(&str, Vec<u64>)> = PIPELINES
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
        all.push((
            "server mesh+mlp",
            server_alloc_counts(common::alloc::thread_allocations),
        ));
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
    // Measured steady-state maximum: 9 events per frame (mesh and MixRT,
    // the frame where the pool helper first grows its scratch arenas;
    // 2–5 on every other frame). The budget of 16 leaves room for a
    // second helper's first-use growth (4 events) in the same frame,
    // and sits orders of magnitude below any per-ray or per-pixel leak
    // (the 32×24 frames here trace ~768 primary rays).
    const PER_WORKER_BUDGET: u64 = 4;
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
        assert_eq!(session.summary().framebuffer_allocations, 1);
    });
}

/// Sessions the soak test churns through one server after its warmup.
const SOAK_SESSIONS: usize = 10_000;

/// A retired session keeps only its settled stats. The soak churns 10⁴
/// sessions through a 1-lane server next to one long-lived 8×8 anchor
/// stream: each delivers one 32×32 frame, takes that frame's buffer
/// back into its pool and is closed, as a client hanging up after its
/// first frame would do. The live heap grows by less than 2 KiB per
/// session, far below the 12 KiB the pooled 32×32 buffer alone would
/// cost if kept: renderer, path, frame pool, replay scratch and latency
/// samples are all released at retirement.
#[test]
fn retired_sessions_release_their_state() {
    const BUDGET_PER_SESSION: i64 = 2048;
    const WARMUP_SESSIONS: usize = 16;
    let live = || {
        common::alloc::thread_bytes_allocated() as i64 - common::alloc::thread_bytes_freed() as i64
    };
    let _guard = common::env_lock();
    common::with_threads("1", || {
        let mut server = RenderServer::new(Arc::clone(scene()))
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
            .with_lanes(1)
            .with_lookahead(1);
        // Round-robin alternates the anchor with the churned session, so
        // a close lands before the churned session's second frame.
        let anchor_frames = 2 * (WARMUP_SESSIONS + SOAK_SESSIONS) + 2;
        let anchor = CameraPath::orbit(scene().spec().orbit(8, 8), anchor_frames);
        let anchor = server.admit(SessionRequest::new(common::renderer(0), anchor));
        let mut serve_one = || {
            let path = CameraPath::orbit(scene().spec().orbit(32, 32), 2);
            let handle = server.admit(SessionRequest::new(common::renderer(0), path));
            loop {
                let frame = server.next_frame().expect("the anchor is still streaming");
                let session = frame.session;
                assert!(server.recycle(session, frame.report.image));
                if session == handle.id() {
                    assert!(server.close(handle));
                    return;
                }
            }
        };
        (0..WARMUP_SESSIONS).for_each(|_| serve_one());
        // The lane runs inline on this thread, so its meters see every
        // allocation and release the churn makes.
        let before = live();
        (0..SOAK_SESSIONS).for_each(|_| serve_one());
        let per_session = (live() - before) / SOAK_SESSIONS as i64;
        assert!(
            per_session < BUDGET_PER_SESSION,
            "live heap grew {per_session} bytes per retired session \
             (budget {BUDGET_PER_SESSION})"
        );
        assert!(server.close(anchor));
        let summary = server.run();
        assert!(summary.is_consistent() && server.is_drained());
        assert_eq!(
            summary.per_session.len(),
            1 + WARMUP_SESSIONS + SOAK_SESSIONS
        );
        assert!(summary.per_session[1..].iter().all(|s| s.frames == 1
            && s.closed_early
            && s.framebuffer_allocations == 1
            && s.latency_p50 > 0.0));
    });
}
