//! Parity tests for the render hot-path overhaul: the SoA + binned +
//! band-parallel production paths must reproduce the
//! seed-era scalar reference within 1e-5 per channel for all six
//! pipelines, the reusable-target entry point `render_into` must be
//! bit-identical to `render` (it *is* the same path, writing into a
//! caller-owned buffer), `render_traced` must write the same pixels and
//! trace the frame exactly like `trace()` up to the probe cap, the
//! depth sort + stable tile binning must list every tile exactly like
//! the per-tile comparison sort it replaced, and the wide corner-blend
//! kernels must match plain per-channel loops bit for bit.

use proptest::prelude::*;
use std::sync::OnceLock;
use uni_render::geometry::interp::{blend_bilinear, blend_trilinear, Blend};
use uni_render::geometry::sampling::XorShift64;
use uni_render::prelude::*;
use uni_render::renderers::binning::{BinRect, Bins};
use uni_render::renderers::gaussian_pipeline::{bin_tiles_by_depth, depth_key};
use uni_render::scene::nn::Layer;
use uni_render::scene::Activation;

fn scene() -> &'static BakedScene {
    static SCENE: OnceLock<BakedScene> = OnceLock::new();
    SCENE.get_or_init(|| SceneSpec::demo("parity", 77).with_detail(0.03).bake())
}

fn camera() -> Camera {
    scene().orbit().camera_at(0.8).with_resolution(96, 72)
}

/// The six pipelines, named.
fn all_pipelines() -> Vec<(Box<dyn Renderer>, &'static str)> {
    vec![
        (Box::new(MeshPipeline::default()), "mesh"),
        (Box::new(MlpPipeline::default()), "mlp"),
        (Box::new(LowRankPipeline::default()), "lowrank"),
        (Box::new(HashGridPipeline::default()), "hashgrid"),
        (Box::new(GaussianPipeline::default()), "gaussian"),
        (Box::new(MixRtPipeline::default()), "mixrt"),
    ]
}

#[track_caller]
fn assert_images_close(optimized: &Image, scalar: &Image, pipeline: &str) {
    assert_eq!(
        (optimized.width(), optimized.height()),
        (scalar.width(), scalar.height()),
        "{pipeline}: dimensions"
    );
    for (i, (a, b)) in optimized.pixels().iter().zip(scalar.pixels()).enumerate() {
        assert!(
            (a.r - b.r).abs() < 1e-5 && (a.g - b.g).abs() < 1e-5 && (a.b - b.b).abs() < 1e-5,
            "{pipeline}: pixel {i} diverged: optimized {a} vs scalar {b}"
        );
    }
}

#[test]
fn gaussian_soa_counting_sort_path_matches_scalar() {
    let p = GaussianPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "gaussian",
    );
}

#[test]
fn hashgrid_band_path_matches_scalar() {
    let p = HashGridPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "hashgrid",
    );
}

#[test]
fn mlp_band_path_matches_scalar() {
    let p = MlpPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "mlp",
    );
}

#[test]
fn lowrank_band_path_matches_scalar() {
    let p = LowRankPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "lowrank",
    );
}

#[test]
fn mesh_band_raster_matches_scalar() {
    let p = MeshPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "mesh",
    );
}

#[test]
fn hybrid_band_path_matches_scalar() {
    let p = MixRtPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "hybrid",
    );
}

/// `render_into` writes the same pixels as `render` for every pipeline
/// (bit-identical — both run the same production path), into a target
/// whose allocation is reused across frames, and stays within 1e-5 of
/// the seed-era scalar reference.
#[test]
fn render_into_matches_render_and_scalar_for_all_pipelines() {
    let renderers = all_pipelines();
    // One shared target across all pipelines: render_into must fully
    // overwrite whatever the previous pipeline left behind.
    let mut target = Image::new(8, 8, Rgb::WHITE);
    for (renderer, name) in &renderers {
        let fresh = renderer.render(scene(), &camera());
        renderer.render_into(scene(), &camera(), &mut target);
        assert_eq!(
            (target.width(), target.height()),
            (fresh.width(), fresh.height()),
            "{name}: target resized to the camera resolution"
        );
        assert_eq!(
            target.pixels(),
            fresh.pixels(),
            "{name}: render_into must be bit-identical to render"
        );
    }
    // Scalar agreement through the reused target, same 1e-5 budget as
    // the per-pipeline parity tests above.
    for (renderer, name) in &renderers {
        renderer.render_into(scene(), &camera(), &mut target);
        let scalar = match *name {
            "mesh" => MeshPipeline::default().render_scalar(scene(), &camera()),
            "mlp" => MlpPipeline::default().render_scalar(scene(), &camera()),
            "lowrank" => LowRankPipeline::default().render_scalar(scene(), &camera()),
            "hashgrid" => HashGridPipeline::default().render_scalar(scene(), &camera()),
            "gaussian" => GaussianPipeline::default().render_scalar(scene(), &camera()),
            _ => MixRtPipeline::default().render_scalar(scene(), &camera()),
        };
        assert_images_close(&target, &scalar, name);
    }
}

/// Rendering repeatedly into one target reuses its allocation: after the
/// first frame at a resolution, no pixel-buffer reallocation occurs.
#[test]
fn render_into_reuses_the_target_allocation() {
    let renderer = MeshPipeline::default();
    let mut target = Image::empty();
    renderer.render_into(scene(), &camera(), &mut target);
    let cap = target.capacity();
    let ptr = target.pixels().as_ptr();
    for _ in 0..3 {
        renderer.render_into(scene(), &camera(), &mut target);
        assert_eq!(target.capacity(), cap, "capacity stable across frames");
        assert_eq!(target.pixels().as_ptr(), ptr, "buffer pointer stable");
    }
}

proptest! {
    /// Depth-sorting the splats and binning them into tiles in that order
    /// lists every tile exactly like the seed's per-patch stable
    /// comparison sort: the splats whose footprint covers the tile, by
    /// `f32::total_cmp` on depth, ties in original (splat) order.
    #[test]
    fn prop_depth_ordered_tile_bins_match_comparison_sort(
        splats in proptest::collection::vec((0u32..8, 0u32..3, 0u32..8, 0u32..3, 0u32..512), 0..300),
    ) {
        let (tiles_x, tiles_y) = (8u32, 8u32);
        let rects: Vec<BinRect> = splats
            .iter()
            .map(|&(x0, w, y0, h, _)| BinRect {
                x0,
                x1: (x0 + w).min(tiles_x - 1),
                y0,
                y1: (y0 + h).min(tiles_y - 1),
            })
            .collect();
        // Quantized depths provoke plenty of exact ties; negative values
        // exercise the total_cmp key mapping.
        let depths: Vec<f32> = splats.iter().map(|s| s.4 as f32 * 0.25 - 40.0).collect();
        let keys: Vec<u32> = depths.iter().map(|&d| depth_key(d)).collect();

        let (mut sort, mut tiles) = (Bins::default(), Bins::default());
        bin_tiles_by_depth(
            &keys,
            (tiles_x * tiles_y) as usize,
            tiles_x,
            |i| rects[i as usize],
            &mut sort,
            &mut tiles,
        );
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                // Reference: the seed's push-ordered bin, stably sorted.
                let mut reference: Vec<u32> = (0..splats.len() as u32)
                    .filter(|&i| {
                        let r = rects[i as usize];
                        (r.x0..=r.x1).contains(&tx) && (r.y0..=r.y1).contains(&ty)
                    })
                    .collect();
                reference.sort_by(|&a, &b| depths[a as usize].total_cmp(&depths[b as usize]));
                prop_assert_eq!(tiles.bin((ty * tiles_x + tx) as usize), &reference[..]);
            }
        }
    }

    /// The depth key is a strictly order-preserving embedding of
    /// `f32::total_cmp`.
    #[test]
    fn prop_depth_key_orders_like_total_cmp(a in -1000f32..1000.0, b in -1000f32..1000.0) {
        prop_assert_eq!(depth_key(a).cmp(&depth_key(b)), a.total_cmp(&b));
    }

    /// The wide (8-output panel) gemm microkernel agrees with the
    /// seed-era scalar row dot within 1e-5 for arbitrary layer shapes —
    /// crucially including widths that are *not* multiples of the 8-lane
    /// panel, where the kernel's tail masking and odd-`in_dim` remainder
    /// column both engage — and is bit-stable across repeated runs (the
    /// reduction order is fixed, so two evaluations of the same layer on
    /// the same input produce identical bits).
    #[test]
    fn prop_wide_gemm_matches_scalar_dot_for_random_shapes(
        in_dim in 1usize..48,
        out_dim in 1usize..48,
        act in 0u8..3,
        seed in 1u64..1_000_000,
    ) {
        let activation = match act {
            0 => Activation::Linear,
            1 => Activation::Relu,
            _ => Activation::Sigmoid,
        };
        let mut rng = XorShift64::new(seed);
        let layer = Layer::random(in_dim, out_dim, activation, &mut rng);
        let x: Vec<f32> = (0..in_dim).map(|_| rng.next_f32() * 4.0 - 2.0).collect();

        let mut wide = vec![0.0f32; out_dim];
        let mut scalar = vec![0.0f32; out_dim];
        layer.forward_into(&x, &mut wide);
        layer.forward_into_scalar(&x, &mut scalar);
        for (o, (a, b)) in wide.iter().zip(&scalar).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-5,
                "({in_dim}x{out_dim}) output {o}: wide {a} vs scalar {b}"
            );
        }

        let mut again = vec![0.0f32; out_dim];
        layer.forward_into(&x, &mut again);
        let first: Vec<u32> = wide.iter().map(|v| v.to_bits()).collect();
        let second: Vec<u32> = again.iter().map(|v| v.to_bits()).collect();
        // Bit-stability across repeated runs of the wide kernel.
        prop_assert_eq!(first, second);
    }
}

/// A draw that is `-0.0` or `0.0` half the time, so `-0.0` products,
/// zero weights and signed-zero starts are common.
fn signed_zero_or(rng: &mut XorShift64, lo: f32, hi: f32) -> f32 {
    match rng.next_usize(4) {
        0 => -0.0,
        1 => 0.0,
        _ => rng.range_f32(lo, hi),
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

    /// The wide corner-blend kernels match plain per-channel loops bit for
    /// bit at every channel count 1..=20 (`F32x8` chunks, an `F32x4`
    /// chunk and a scalar tail in every combination), in both
    /// [`Blend`] modes: `blend_bilinear` matches the seed's
    /// `*o += corners.map(t[c] * w).sum::<f32>()` and `blend_trilinear`
    /// the seed's corner-by-corner `*o += w * t[c]`, from `out` or from
    /// `out.fill(0.0)`. Signed zeros in corners, weights and `out` make a
    /// changed order of operations or a changed zero start show.
    #[test]
    fn prop_corner_blend_kernels_match_per_channel_loops(
        channels in 1usize..=20,
        seed in 1u64..1_000_000,
        all_products_negative_zero in 0u8..4,
    ) {
        // In a quarter of the cases every weight is zero and every feature
        // is negative or `-0.0`, so every product is `-0.0` and only the
        // zero start decides the sign of a `FromZero` result.
        let zeroed = all_products_negative_zero == 0;
        let mut rng = XorShift64::new(seed);
        // Ten entries of `channels` features; the corners pick among them
        // (repeats allowed, as at clamped grid edges).
        let table: Vec<f32> = (0..10 * channels)
            .map(|_| {
                if zeroed {
                    -rng.range_f32(0.0, 2.0)
                } else {
                    signed_zero_or(&mut rng, -2.0, 2.0)
                }
            })
            .collect();
        let entries: [usize; 8] = std::array::from_fn(|_| rng.next_usize(10));
        let w: [f32; 8] = std::array::from_fn(|_| {
            if zeroed {
                0.0
            } else {
                signed_zero_or(&mut rng, -1.0, 1.0)
            }
        });
        let start: Vec<f32> = (0..channels)
            .map(|_| signed_zero_or(&mut rng, -2.0, 2.0))
            .collect();
        let corner = |k: usize| &table[entries[k] * channels..(entries[k] + 1) * channels];

        for blend in [Blend::Accumulate, Blend::FromZero] {
            let mut scalar = start.clone();
            if blend == Blend::FromZero {
                scalar.fill(0.0);
            }
            let (quad, w4) = ([0, 1, 2, 3].map(corner), [w[0], w[1], w[2], w[3]]);
            for (c, o) in scalar.iter_mut().enumerate() {
                *o += quad.iter().zip(&w4).map(|(t, wi)| t[c] * wi).sum::<f32>();
            }
            let mut wide = start.clone();
            let e4 = [entries[0], entries[1], entries[2], entries[3]];
            blend_bilinear(&mut wide, &table, e4, w4, blend);
            for (c, (a, b)) in wide.iter().zip(&scalar).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "bilinear {blend:?}, {channels} channels, channel {c}: wide {a:?} vs loop {b:?}"
                );
            }

            let mut scalar = start.clone();
            if blend == Blend::FromZero {
                scalar.fill(0.0);
            }
            for (k, &wk) in w.iter().enumerate() {
                for (o, &v) in scalar.iter_mut().zip(corner(k)) {
                    *o += wk * v;
                }
            }
            let mut wide = start.clone();
            blend_trilinear(&mut wide, &table, entries, w, blend);
            for (c, (a, b)) in wide.iter().zip(&scalar).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "trilinear {blend:?}, {channels} channels, channel {c}: wide {a:?} vs loop {b:?}"
                );
            }
        }
    }
}

/// At or below the probe cap the probe *is* the frame: `render_traced`
/// writes exactly the pixels of `render_into` and returns a trace equal
/// to the one-shot `trace()`, for every pipeline.
#[test]
fn render_traced_matches_render_into_and_trace_up_to_the_probe_cap() {
    let mut traced = Image::empty();
    let mut plain = Image::empty();
    for (w, h) in [(64, 48), (96, 96), (192, 128)] {
        let camera = scene().orbit().camera_at(0.8).with_resolution(w, h);
        for (renderer, name) in &all_pipelines() {
            let trace = renderer.render_traced(scene(), &camera, &mut traced);
            renderer.render_into(scene(), &camera, &mut plain);
            assert_eq!(
                traced.pixels(),
                plain.pixels(),
                "{name} {w}x{h}: render_traced must write render_into's pixels"
            );
            assert_eq!(
                trace,
                renderer.trace(scene(), &camera),
                "{name} {w}x{h}: the frame's own trace must equal trace()"
            );
        }
    }
}

/// Above the probe cap, one-shot `trace()` estimates the frame from a
/// probe render while `render_traced` counts the frame itself. The
/// relative gap in total arithmetic ops, `(probe - exact) / exact`, at
/// 256² and 512² stays within the per-pipeline bounds documented in
/// `uni_renderers::probe`. Release only: a 512² MLP frame takes minutes
/// in a debug build.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "renders 512x512 volume frames; run with --release"
)]
fn probe_trace_gap_above_the_cap_stays_within_the_documented_bound() {
    let mut target = Image::empty();
    for side in [256, 512] {
        let camera = scene().orbit().camera_at(0.8).with_resolution(side, side);
        for (renderer, name) in &all_pipelines() {
            let exact = renderer
                .render_traced(scene(), &camera, &mut target)
                .total_cost()
                .total_ops() as f64;
            let probed = renderer.trace(scene(), &camera).total_cost().total_ops() as f64;
            let gap = (probed - exact) / exact;
            let bound = match *name {
                "gaussian" => 1.4,
                "mesh" => 0.2,
                "mixrt" => 0.02,
                _ => 0.005,
            };
            assert!(
                gap.abs() <= bound,
                "{name} {side}x{side}: probe trace off by {gap:+.4} of the exact ops, bound {bound}"
            );
        }
    }
}
