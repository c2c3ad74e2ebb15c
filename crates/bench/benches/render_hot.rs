//! Frame-render hot-path benchmark: scalar seed path vs. the SoA +
//! counting-sort + band-parallel path, per pipeline.
//!
//! Runs as a criterion harness (`cargo bench --bench render_hot`) and
//! emits machine-readable results to `BENCH_render.json` at the
//! workspace root so the perf trajectory is tracked PR-over-PR:
//!
//! ```json
//! { "pipelines": [ { "pipeline": "gaussian", "scalar_ms": ...,
//!   "optimized_ms": ..., "speedup": ... }, ... ] }
//! ```
//!
//! The scene is the default synthetic demo scene at harness detail; the
//! camera renders 256×256 frames. "scalar" is each pipeline's
//! `render_scalar` (the seed-era algorithm kept as the parity baseline);
//! "optimized" is the production `Renderer::render` path.

use criterion::{black_box, Criterion};
use uni_bench::HARNESS_DETAIL;
use uni_scene::SceneSpec;

use uni_renderers::{GaussianPipeline, HashGridPipeline, LowRankPipeline, MlpPipeline, Renderer};

const PIPELINES: [&str; 4] = ["gaussian", "hashgrid", "mlp", "lowrank"];

fn main() {
    let scene = SceneSpec::demo("render-hot", 2024)
        .with_detail(HARNESS_DETAIL)
        .bake();
    let camera = scene.orbit().camera_at(0.8).with_resolution(256, 256);
    let threads = uni_parallel::worker_count();

    let gaussian = GaussianPipeline::default();
    let hashgrid = HashGridPipeline::default();
    let mlp = MlpPipeline::default();
    let lowrank = LowRankPipeline::default();

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("render_hot");
    group
        .bench_function("gaussian/scalar", |b| {
            b.iter(|| gaussian.render_scalar(black_box(&scene), black_box(&camera)));
        })
        .bench_function("gaussian/optimized", |b| {
            b.iter(|| gaussian.render(black_box(&scene), black_box(&camera)));
        })
        .bench_function("hashgrid/scalar", |b| {
            b.iter(|| hashgrid.render_scalar(black_box(&scene), black_box(&camera)));
        })
        .bench_function("hashgrid/optimized", |b| {
            b.iter(|| hashgrid.render(black_box(&scene), black_box(&camera)));
        })
        .bench_function("mlp/scalar", |b| {
            b.iter(|| mlp.render_scalar(black_box(&scene), black_box(&camera)));
        })
        .bench_function("mlp/optimized", |b| {
            b.iter(|| mlp.render(black_box(&scene), black_box(&camera)));
        })
        .bench_function("lowrank/scalar", |b| {
            b.iter(|| lowrank.render_scalar(black_box(&scene), black_box(&camera)));
        })
        .bench_function("lowrank/optimized", |b| {
            b.iter(|| lowrank.render(black_box(&scene), black_box(&camera)));
        });
    group.finish();

    // Pair up the harness's measurements into the machine-readable record.
    let ms_of = |id: String| -> f64 {
        criterion
            .measurements()
            .iter()
            .find(|m| m.id == id)
            .map(|m| m.secs_per_iter * 1e3)
            .expect("benchmark ran")
    };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"render_hot\",\n");
    json.push_str("  \"resolution\": [256, 256],\n");
    json.push_str(&format!("  \"scene_detail\": {HARNESS_DETAIL},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(
        "  \"note\": \"speedup = seed-era scalar path / SoA+counting-sort+band-parallel path, \
         measured back to back on this host; bands scale near-linearly with cores, so \
         multi-core hosts multiply the optimized side by roughly the worker count\",\n",
    );
    json.push_str("  \"pipelines\": [\n");
    for (i, pipeline) in PIPELINES.iter().enumerate() {
        let scalar_ms = ms_of(format!("render_hot/{pipeline}/scalar"));
        let optimized_ms = ms_of(format!("render_hot/{pipeline}/optimized"));
        let speedup = scalar_ms / optimized_ms.max(1e-9);
        println!("render_hot/{pipeline}: speedup {speedup:.2}x");
        assert!(
            speedup >= 1.0,
            "render_hot/{pipeline}: optimized path regressed below the scalar \
             seed ({speedup:.3}x) — the production kernels must never lose to \
             the baseline they are measured against"
        );
        json.push_str(&format!(
            "    {{ \"pipeline\": \"{pipeline}\", \"scalar_ms\": {scalar_ms:.4}, \
             \"optimized_ms\": {optimized_ms:.4}, \"speedup\": {speedup:.3} }}{}\n",
            if i + 1 == PIPELINES.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_render.json");
    std::fs::write(out, &json).expect("write BENCH_render.json");
    println!("wrote {out}");
}
