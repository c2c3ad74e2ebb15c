//! The serving determinism contract: every frame a [`RenderServer`]
//! delivers is **bit-identical** to the same frame rendered directly by
//! its renderer (`Renderer::render_into`, no engine code), for any mix
//! of sessions (pipelines and resolutions varying freely) and for any
//! thread count.
//!
//! Scheduler order is part of the public contract (strict round-robin
//! over session ids), so the summaries must be identical across thread
//! counts too — worker lanes may only overlap execution, never change
//! results.
//!
//! This file holds a single `#[test]` because it mutates the process-wide
//! `UNI_RENDER_THREADS` variable; a sibling test running concurrently in
//! the same binary would race on it.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use uni_render::prelude::*;

mod common;
use common::{fnv1a_image as frame_hash, render_into_hashes, renderer};

fn scene() -> Arc<BakedScene> {
    static SCENE: OnceLock<Arc<BakedScene>> = OnceLock::new();
    Arc::clone(SCENE.get_or_init(|| {
        Arc::new(
            SceneSpec::demo("serve-determinism", 77)
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

const RESOLUTIONS: [(u32, u32); 4] = [(16, 12), (24, 16), (32, 24), (40, 28)];

/// Each session orbits from its own start angle so the mixes exercise
/// genuinely different cameras, deterministically per session id.
fn path_for(session: usize, mix: Mix) -> CameraPath {
    let (w, h) = mix.resolution;
    let orbit = scene().spec().orbit(w, h);
    CameraPath::orbit_arc(orbit, 0.7 * session as f32, 2.0, mix.frames)
}

/// Serves every session through one server: hashes indexed the same way,
/// plus the end-of-run summary.
fn served_hashes(mixes: &[Mix], lanes: usize) -> (Vec<Vec<u64>>, ServerSummary) {
    let mut server = RenderServer::new(scene())
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
        .with_lanes(lanes);
    for (id, &mix) in mixes.iter().enumerate() {
        server.admit(SessionRequest::new(
            renderer(mix.pipeline),
            path_for(id, mix),
        ));
    }
    let mut hashes: Vec<Vec<u64>> = mixes.iter().map(|m| Vec::with_capacity(m.frames)).collect();
    while let Some(frame) = server.next_frame() {
        assert_eq!(
            hashes[frame.session].len(),
            frame.report.index,
            "frames of one session arrive in path order"
        );
        hashes[frame.session].push(frame_hash(&frame.report.image));
        server.recycle(frame.session, frame.report.image);
    }
    (hashes, server.summary())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn served_frames_are_bit_identical_to_standalone_sessions(
        raw in proptest::collection::vec((0usize..6, 1usize..3, 0usize..4), 1..9),
    ) {
        let mixes: Vec<Mix> = raw
            .iter()
            .map(|&(pipeline, frames, res)| Mix {
                pipeline,
                frames,
                resolution: RESOLUTIONS[res],
            })
            .collect();

        let mut reference: Option<(Vec<Vec<u64>>, ServerSummary)> = None;
        for threads in ["1", "4"] {
            std::env::set_var("UNI_RENDER_THREADS", threads);
            let solo: Vec<Vec<u64>> = mixes
                .iter()
                .enumerate()
                .map(|(id, &mix)| {
                    render_into_hashes(&scene(), &*renderer(mix.pipeline), &path_for(id, mix))
                })
                .collect();
            let (served, summary) = served_hashes(&mixes, 4);
            prop_assert_eq!(&served, &solo);
            prop_assert!(summary.is_consistent());
            prop_assert_eq!(
                summary.scheduled_frames,
                mixes.iter().map(|m| m.frames).sum::<usize>()
            );
            // Thread count must change nothing: images, schedule, accounting.
            if let Some((ref_hashes, ref_summary)) = &reference {
                prop_assert_eq!(ref_hashes, &served);
                prop_assert_eq!(ref_summary, &summary);
            } else {
                reference = Some((served, summary));
            }
        }
        std::env::remove_var("UNI_RENDER_THREADS");
    }
}
