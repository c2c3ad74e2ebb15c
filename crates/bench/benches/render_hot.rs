//! Frame-render hot-path benchmark: scalar seed path vs. the SoA +
//! binned + band-parallel path, per pipeline.
//!
//! Runs as a criterion harness (`cargo bench --bench render_hot`) and
//! emits machine-readable results to `BENCH_render.json` at the
//! workspace root so the perf trajectory is tracked PR-over-PR:
//!
//! ```json
//! { "pipelines": [ { "pipeline": "gaussian", "scalar_ms": ...,
//!   "scalar_iqr_ms": ..., "optimized_1t_ms": ..., "optimized_1t_iqr_ms": ...,
//!   "optimized_ms": ..., "optimized_iqr_ms": ..., "speedup": ... }, ... ] }
//! ```
//!
//! Each `_ms` column is the median over the harness's timed batches and
//! each `_iqr_ms` the interquartile range of those batches, so a
//! column's noise sits next to it; `speedup` is a ratio of medians. A
//! pipeline's three columns run interleaved, batch by batch.
//!
//! The scene is the default synthetic demo scene at harness detail; the
//! camera renders 256×256 frames. "scalar" is each pipeline's
//! `render_scalar` (the seed-era algorithm kept as the parity baseline);
//! "optimized" is the production `Renderer::render` path, timed pinned
//! to one worker (`optimized_1t_ms`) and at the host's worker count
//! (`optimized_ms`, `threads` in the record).

use criterion::{black_box, Criterion};
use uni_bench::HARNESS_DETAIL;
use uni_geometry::{Camera, Image};
use uni_scene::{BakedScene, SceneSpec};

use uni_renderers::{
    GaussianPipeline, HashGridPipeline, LowRankPipeline, MeshPipeline, MixRtPipeline, MlpPipeline,
    Renderer,
};

/// One pipeline's two paths: the seed-era scalar render and the
/// production renderer.
type Paths = (
    &'static str,
    fn(&BakedScene, &Camera) -> Image,
    Box<dyn Renderer>,
);

/// Pipelines recorded but not held to `speedup >= 1.0`: their binned
/// rasterizer sets up each triangle once to bin it and again in its
/// band's walk, so at one worker it still costs a little more than the
/// scalar path's single walk (mesh 12.0–12.7 ms against 10.1–11.3 at
/// 256² on a 2-core host), and the gate would fail on 1-core hosts.
const NOT_YET_GATED: [&str; 2] = ["mesh", "mixrt"];

fn main() {
    let scene = SceneSpec::demo("render-hot", 2024)
        .with_detail(HARNESS_DETAIL)
        .bake();
    let camera = scene.orbit().camera_at(0.8).with_resolution(256, 256);
    let threads = uni_parallel::worker_count();

    let pipelines: [Paths; 6] = [
        (
            "gaussian",
            |s, c| GaussianPipeline::default().render_scalar(s, c),
            Box::new(GaussianPipeline::default()),
        ),
        (
            "mesh",
            |s, c| MeshPipeline::default().render_scalar(s, c),
            Box::new(MeshPipeline::default()),
        ),
        (
            "hashgrid",
            |s, c| HashGridPipeline::default().render_scalar(s, c),
            Box::new(HashGridPipeline::default()),
        ),
        (
            "mlp",
            |s, c| MlpPipeline::default().render_scalar(s, c),
            Box::new(MlpPipeline::default()),
        ),
        (
            "lowrank",
            |s, c| LowRankPipeline::default().render_scalar(s, c),
            Box::new(LowRankPipeline::default()),
        ),
        (
            "mixrt",
            |s, c| MixRtPipeline::default().render_scalar(s, c),
            Box::new(MixRtPipeline::default()),
        ),
    ];

    // The three columns of a pipeline are timed batch by batch in turn,
    // so a busy stretch of a shared host spreads over all of them (and
    // over `speedup`) instead of landing on one column.
    let mut criterion = Criterion::default();
    for (name, scalar, renderer) in &pipelines {
        let mut scalar_frame = || {
            black_box(scalar(black_box(&scene), black_box(&camera)));
        };
        let mut optimized_1t_frame = || {
            let prev = uni_parallel::set_worker_count(Some(1));
            black_box(renderer.render(black_box(&scene), black_box(&camera)));
            uni_parallel::set_worker_count(prev);
        };
        let mut optimized_frame = || {
            black_box(renderer.render(black_box(&scene), black_box(&camera)));
        };
        criterion.bench_interleaved(
            "render_hot",
            &mut [
                (format!("{name}/scalar"), &mut scalar_frame),
                (format!("{name}/optimized_1t"), &mut optimized_1t_frame),
                (format!("{name}/optimized"), &mut optimized_frame),
            ],
        );
    }

    // Pair up the harness's measurements into the machine-readable record:
    // (median, interquartile range) in ms.
    let ms_of = |id: String| -> (f64, f64) {
        criterion
            .measurements()
            .iter()
            .find(|m| m.id == id)
            .map(|m| (m.secs_per_iter * 1e3, m.iqr() * 1e3))
            .expect("benchmark ran")
    };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"render_hot\",\n");
    json.push_str("  \"resolution\": [256, 256],\n");
    json.push_str(&format!("  \"scene_detail\": {HARNESS_DETAIL},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"batches\": {},\n", criterion::BATCHES));
    json.push_str(
        "  \"note\": \"speedup = seed-era scalar path / production path (SoA, stable \
         binning, band-parallel) at `threads` workers, as a ratio of medians over `batches` \
         timed batches run interleaved with the other two columns (each *_iqr_ms is that \
         column's interquartile range); both paths use the owned uni_geometry::fmath transcendentals; optimized_1t_ms is the \
         same path pinned to one worker, so optimized_1t_ms / optimized_ms is its thread \
         scaling\",\n",
    );
    json.push_str("  \"pipelines\": [\n");
    for (i, (pipeline, _, _)) in pipelines.iter().enumerate() {
        let (scalar_ms, scalar_iqr_ms) = ms_of(format!("render_hot/{pipeline}/scalar"));
        let (optimized_1t_ms, optimized_1t_iqr_ms) =
            ms_of(format!("render_hot/{pipeline}/optimized_1t"));
        let (optimized_ms, optimized_iqr_ms) = ms_of(format!("render_hot/{pipeline}/optimized"));
        let speedup = scalar_ms / optimized_ms.max(1e-9);
        println!("render_hot/{pipeline}: speedup {speedup:.2}x");
        assert!(
            speedup >= 1.0 || NOT_YET_GATED.contains(pipeline),
            "render_hot/{pipeline}: optimized path regressed below the scalar \
             seed ({speedup:.3}x) — the production kernels must never lose to \
             the baseline they are measured against"
        );
        json.push_str(&format!(
            "    {{ \"pipeline\": \"{pipeline}\", \"scalar_ms\": {scalar_ms:.4}, \
             \"scalar_iqr_ms\": {scalar_iqr_ms:.4}, \
             \"optimized_1t_ms\": {optimized_1t_ms:.4}, \
             \"optimized_1t_iqr_ms\": {optimized_1t_iqr_ms:.4}, \
             \"optimized_ms\": {optimized_ms:.4}, \
             \"optimized_iqr_ms\": {optimized_iqr_ms:.4}, \"speedup\": {speedup:.3} }}{}\n",
            if i + 1 == pipelines.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_render.json");
    std::fs::write(out, &json).expect("write BENCH_render.json");
    println!("wrote {out}");
}
