//! Golden-frame regression harness: one 64×64 frame per pipeline,
//! FNV-1a-hashed over the raw f32 pixel buffer and pinned against
//! checked-in constants. Future perf PRs cannot silently change renderer
//! output — a hash mismatch here means the *image bytes* changed, not
//! just timing.
//!
//! Band parallelism is bit-exact by construction, so these hashes are
//! independent of `UNI_RENDER_THREADS`. If an intentional rendering
//! change lands, regenerate the constants with:
//!
//! ```sh
//! UNI_RENDER_BLESS=1 cargo test --test golden_frames -- --nocapture
//! ```
//!
//! and paste the printed `GOLDEN` table into this file.

use uni_render::prelude::*;
use uni_render::scene::{Mlp, PlaneAxis, Texture2d};

mod common;
use common::fnv1a_image as fnv1a;

/// Scene and camera every golden frame uses. Fixed forever — changing
/// either invalidates the constants.
const GOLDEN_SEED: u64 = 424242;
const GOLDEN_DETAIL: f32 = 0.05;
const GOLDEN_ANGLE: f32 = 0.8;
const GOLDEN_RES: (u32, u32) = (64, 64);

/// Checked-in frame hashes, in `all_renderers()` (Tab. I + hybrid) order.
///
/// Re-blessed once when the MLP forward pass moved to the 8-wide packed
/// gemm microkernel: its fixed panel-reduction order reassociates the
/// dot-product sums, which shifts training (and therefore every baked
/// MLP-bearing representation) by float-rounding amounts. The gaussian
/// frame — no MLP anywhere in its bake or render — was unchanged,
/// pinning the blast radius to exactly the reassociated kernel.
///
/// Re-blessed once more when every per-sample transcendental moved from
/// libm to `uni_geometry::fmath` (the encoding's sin/cos, blending's
/// exp, the sigmoid). The mlp, lowrank and hashgrid frames moved by
/// float-rounding amounts; mesh, gaussian and mixrt kept their hashes.
/// `GOLDEN_BAKE` (KiloNeRF trains on encoded inputs) and the three
/// served-stream hashes moved with them.
const GOLDEN: [(&str, u64); 6] = [
    ("mesh", 0x50aeef21408d5d1d),
    ("mlp", 0x625fa15623f65059),
    ("lowrank", 0x4c90842b87c53b68),
    ("hashgrid", 0x854286a6292ae70f),
    ("gaussian", 0x3daad2f67e9fd6e7),
    ("mixrt", 0x70dfaa914076b3bb),
];

/// Checked-in hash of a whole *served schedule* under the [`Priority`]
/// policy: FNV-1a folded over every delivered `(session, index,
/// frame-hash)` triple in delivery order. Pins both the policy's
/// schedule (strict levels, round-robin within) and the frames it
/// delivers; re-bless together with `GOLDEN`.
const GOLDEN_PRIORITY_STREAM: u64 = 0x8420d1ccbe38d4b9;

/// Checked-in hash of a served schedule under the [`EarliestDeadline`]
/// policy (same folding as `GOLDEN_PRIORITY_STREAM`): pins the EDF
/// order over three sessions with staggered sim-time deadline rates —
/// tightest first, best-effort last — and the frames it delivers.
/// Deadlines are sim-time facts, so the hash is thread-invariant;
/// re-bless together with `GOLDEN`.
const GOLDEN_EDF_STREAM: u64 = 0x626a6b5991a8a2d5;

/// Checked-in hash of a whole *fleet* schedule under eviction pressure:
/// three scenes over a `max_resident = scenes - 1` cache, admitted in
/// waves so the third scene's bake evicts the least-recently-delivered
/// resident and the final wave rebakes it. Folds every delivered
/// `(fleet-session, path-index, frame-hash)` triple in delivery order —
/// pins the routing interleave, the eviction point, and the frames a
/// rebaked scene serves. Thread-invariant like every other golden;
/// re-bless together with `GOLDEN`.
const GOLDEN_FLEET_STREAM: u64 = 0x4b0506d554fd579b;

/// Checked-in hash of the golden spec's *baked data*: FNV-1a over the
/// bits of every representation [`bake_hash`] folds — the mesh, texture,
/// Gaussian cloud, hash grid and its decoder, tri-plane, deferred MLP and
/// KiloNeRF grid — in a fixed order. The frame goldens only see what one
/// 64×64 view of each pipeline happens to read; this pins every baked
/// value, so a bake-side change that keeps the frames can still not move
/// a bit unnoticed. Re-bless together with `GOLDEN`.
const GOLDEN_BAKE: u64 = 0x70d3664d0b0943fe;

fn golden_frames() -> Vec<(String, u64)> {
    let spec = SceneSpec::demo("golden", GOLDEN_SEED).with_detail(GOLDEN_DETAIL);
    let scene = spec.bake();
    let camera = spec
        .orbit(GOLDEN_RES.0, GOLDEN_RES.1)
        .camera_at(GOLDEN_ANGLE);
    uni_render::renderers::all_renderers()
        .iter()
        .map(|renderer| {
            let image = renderer.render(&scene, &camera);
            assert_eq!((image.width(), image.height()), GOLDEN_RES);
            (renderer.pipeline().to_string(), fnv1a(&image))
        })
        .collect()
}

/// The camera path every golden served-stream session walks.
fn golden_path(spec: &SceneSpec) -> CameraPath {
    CameraPath::orbit_arc(spec.orbit(GOLDEN_RES.0, GOLDEN_RES.1), GOLDEN_ANGLE, 1.5, 2)
}

/// Drains a configured server and folds every delivered `(session,
/// index, frame-hash)` triple into one FNV-1a hash, in delivery order —
/// the encoding every golden served-stream constant pins.
fn served_stream_hash(mut server: RenderServer) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |value: u64| {
        for byte in value.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    while let Some(frame) = server.next_frame() {
        fold(frame.session as u64);
        fold(frame.report.index as u64);
        fold(fnv1a(&frame.report.image));
        server.recycle(frame.session, frame.report.image);
    }
    h
}

/// Serves the golden scene under the `Priority` policy — three sessions
/// at three levels, two frames each — and folds the delivery stream into
/// one hash.
fn priority_stream_hash() -> u64 {
    let spec = SceneSpec::demo("golden", GOLDEN_SEED).with_detail(GOLDEN_DETAIL);
    let scene = spec.bake();
    let mut server = RenderServer::new(scene)
        .with_policy(Priority::new())
        .with_lanes(2);
    let sessions: [(Box<dyn Renderer + Send>, u8); 3] = [
        (Box::new(MeshPipeline::default()), 1),
        (Box::new(HashGridPipeline::default()), 2),
        (Box::new(GaussianPipeline::default()), 0),
    ];
    for (renderer, priority) in sessions {
        server.admit(SessionRequest::new(renderer, golden_path(&spec)).priority(priority));
    }
    served_stream_hash(server)
}

/// Serves the golden scene under the `EarliestDeadline` policy — a
/// tight-deadline mesh stream, a looser hash-grid stream, and a
/// best-effort gaussian stream, two frames each — and folds the
/// delivery stream into one hash. The deadline rates are fixed
/// constants on the sim-time axis (the accelerator is the paper
/// config), so the schedule is as pinned as the frames.
fn edf_stream_hash() -> u64 {
    let spec = SceneSpec::demo("golden", GOLDEN_SEED).with_detail(GOLDEN_DETAIL);
    let scene = spec.bake();
    let mut server = RenderServer::new(scene)
        .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
        .with_policy(EarliestDeadline::new())
        .with_lanes(2);
    let sessions: [(Box<dyn Renderer + Send>, Option<f64>); 3] = [
        (Box::new(MeshPipeline::default()), Some(480.0)),
        (Box::new(HashGridPipeline::default()), Some(120.0)),
        (Box::new(GaussianPipeline::default()), None),
    ];
    for (renderer, deadline_hz) in sessions {
        let mut request = SessionRequest::new(renderer, golden_path(&spec));
        if let Some(hz) = deadline_hz {
            request = request.deadline_hz(hz);
        }
        server.admit(request);
    }
    served_stream_hash(server)
}

/// The golden fleet scene roster: the golden scene plus two siblings.
fn fleet_scene(index: usize) -> SceneSpec {
    let name = ["golden", "golden-b", "golden-c"][index];
    SceneSpec::demo(name, GOLDEN_SEED + index as u64).with_detail(GOLDEN_DETAIL)
}

/// Serves three scenes through a capacity-2 fleet in three waves —
/// mesh on scene 0 and hash-grid on scene 1 together, then gaussian on
/// scene 2 (evicting the least-recently-delivered resident), then mesh
/// on scene 0 again (rebaking it) — and folds the delivery stream into
/// one hash.
fn fleet_stream_hash() -> u64 {
    let mut fleet = ServerFleet::new(SceneCacheConfig {
        max_resident: 2,
        max_bytes: None,
    })
    .with_accelerator_config(AcceleratorConfig::paper())
    .with_lanes(2);
    let mut triples: Vec<(u64, u64, u64)> = Vec::new();
    let drain = |fleet: &mut ServerFleet, out: &mut Vec<(u64, u64, u64)>| {
        while let Some(frame) = fleet.next_frame() {
            out.push((
                frame.handle.id() as u64,
                frame.path_index as u64,
                fnv1a(&frame.frame.report.image),
            ));
            fleet.recycle(frame.handle, frame.frame.report.image);
        }
    };
    // (scene, pipeline index per `common::renderer`): mesh on scene 0
    // and hash-grid on scene 1 together, gaussian on scene 2, mesh back
    // on scene 0.
    let waves: [&[(usize, usize)]; 3] = [&[(0, 0), (1, 3)], &[(2, 4)], &[(0, 0)]];
    for wave in waves {
        for &(scene, pipeline) in wave {
            let spec = fleet_scene(scene);
            let path = golden_path(&spec);
            fleet.admit(
                &spec,
                FleetSessionRequest::new(move || common::renderer(pipeline), path),
            );
        }
        drain(&mut fleet, &mut triples);
    }
    let stats = fleet.cache_stats();
    assert!(stats.evictions >= 1, "the third scene must evict");
    assert!(stats.rebakes >= 1, "the final wave must rebake");
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (session, index, frame) in triples {
        for value in [session, index, frame] {
            for byte in value.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// FNV-1a folded over 32-bit words: each value contributes its
/// little-endian bytes, lengths and dimensions included, so reshaped data
/// with equal contents still hashes differently.
struct BakeHasher(u64);

impl BakeHasher {
    fn word(&mut self, value: u32) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn len(&mut self, len: usize) {
        self.word(u32::try_from(len).expect("golden bake buffers fit u32"));
    }

    fn floats(&mut self, values: &[f32]) {
        self.len(values.len());
        for v in values {
            self.word(v.to_bits());
        }
    }

    fn vec3s(&mut self, values: &[Vec3]) {
        self.len(values.len());
        for v in values {
            self.floats(&[v.x, v.y, v.z]);
        }
    }

    fn texture(&mut self, tex: &Texture2d) {
        self.word(tex.width());
        self.word(tex.height());
        self.word(tex.channels());
        self.floats(tex.data());
    }

    /// What `Layer`'s `PartialEq` compares — weights, biases, activation
    /// — and not the lazily packed panel cache derived from them.
    fn mlp(&mut self, mlp: &Mlp) {
        self.len(mlp.layers().len());
        for layer in mlp.layers() {
            self.len(layer.in_dim());
            self.len(layer.out_dim());
            self.floats(layer.weights().as_slice());
            self.floats(layer.biases());
            self.word(layer.activation() as u32);
        }
    }
}

/// Folds every baked representation of `scene` into one hash.
fn bake_hash(scene: &BakedScene) -> u64 {
    let mut h = BakeHasher(0xCBF2_9CE4_8422_2325);
    let b = scene.bounds();
    h.vec3s(&[b.min, b.max]);

    let mesh = scene.mesh();
    h.vec3s(&mesh.positions);
    h.len(mesh.uvs.len());
    for uv in &mesh.uvs {
        h.floats(&[uv.x, uv.y]);
    }
    h.len(mesh.indices.len());
    for &i in &mesh.indices {
        h.word(i);
    }

    h.texture(scene.texture());

    let cloud = scene.gaussians();
    h.word(u32::from(cloud.sh_degree()));
    h.len(cloud.len());
    for g in cloud.iter() {
        h.vec3s(&[g.mean, g.scale]);
        h.floats(&[g.rotation.x, g.rotation.y, g.rotation.z, g.rotation.w]);
        h.floats(&[g.opacity]);
        h.floats(&g.sh_coeffs);
    }

    let grid = scene.hashgrid();
    let c = grid.config();
    for v in [
        c.levels,
        c.features_per_entry,
        c.base_resolution,
        c.max_resolution,
    ] {
        h.word(v);
    }
    h.floats(grid.tables());
    h.mlp(scene.hash_decoder());

    let tp = scene.triplane();
    let c = tp.config();
    for v in [c.plane_resolution, c.grid_resolution, c.channels] {
        h.word(v);
    }
    for axis in PlaneAxis::ALL {
        h.texture(tp.plane(axis));
    }
    h.floats(tp.grid());

    h.mlp(scene.deferred_mlp());

    let kn = scene.kilonerf();
    h.word(kn.resolution());
    h.len(kn.assignment().len());
    for &a in kn.assignment() {
        h.word(a);
    }
    h.len(kn.mlps().len());
    for mlp in kn.mlps() {
        h.mlp(mlp);
    }
    h.0
}

#[test]
fn golden_scene_bakes_to_its_golden_hash() {
    let scene = SceneSpec::demo("golden", GOLDEN_SEED)
        .with_detail(GOLDEN_DETAIL)
        .bake();
    let actual = bake_hash(&scene);
    if std::env::var("UNI_RENDER_BLESS").is_ok_and(|v| v == "1") {
        println!("const GOLDEN_BAKE: u64 = {actual:#018x};");
        return;
    }
    assert_eq!(
        actual, GOLDEN_BAKE,
        "baked scene data changed — if intentional, re-bless with \
         UNI_RENDER_BLESS=1 cargo test --test golden_frames -- --nocapture"
    );
}

#[test]
fn fleet_schedule_matches_its_golden_stream_hash() {
    let actual = fleet_stream_hash();
    if std::env::var("UNI_RENDER_BLESS").is_ok_and(|v| v == "1") {
        println!("const GOLDEN_FLEET_STREAM: u64 = {actual:#018x};");
        return;
    }
    assert_eq!(
        actual, GOLDEN_FLEET_STREAM,
        "fleet served stream changed (routing, eviction point, or frames) — \
         if intentional, re-bless with UNI_RENDER_BLESS=1 cargo test --test \
         golden_frames -- --nocapture"
    );
}

#[test]
fn earliest_deadline_schedule_matches_its_golden_stream_hash() {
    let actual = edf_stream_hash();
    if std::env::var("UNI_RENDER_BLESS").is_ok_and(|v| v == "1") {
        println!("const GOLDEN_EDF_STREAM: u64 = {actual:#018x};");
        return;
    }
    assert_eq!(
        actual, GOLDEN_EDF_STREAM,
        "EarliestDeadline served stream changed (schedule or frames) — if \
         intentional, re-bless with UNI_RENDER_BLESS=1 cargo test --test \
         golden_frames -- --nocapture"
    );
}

#[test]
fn priority_schedule_matches_its_golden_stream_hash() {
    let actual = priority_stream_hash();
    if std::env::var("UNI_RENDER_BLESS").is_ok_and(|v| v == "1") {
        println!("const GOLDEN_PRIORITY_STREAM: u64 = {actual:#018x};");
        return;
    }
    assert_eq!(
        actual, GOLDEN_PRIORITY_STREAM,
        "Priority-policy served stream changed (schedule or frames) — if \
         intentional, re-bless with UNI_RENDER_BLESS=1 cargo test --test \
         golden_frames -- --nocapture"
    );
}

#[test]
fn every_pipeline_matches_its_golden_frame_hash() {
    let rendered = golden_frames();
    if std::env::var("UNI_RENDER_BLESS").is_ok_and(|v| v == "1") {
        println!("const GOLDEN: [(&str, u64); 6] = [");
        for ((name, _), (_, hash)) in GOLDEN.iter().zip(&rendered) {
            println!("    (\"{name}\", {hash:#018x}),");
        }
        println!("];");
        return;
    }
    for ((name, expected), (pipeline, actual)) in GOLDEN.iter().zip(&rendered) {
        assert_eq!(
            actual, expected,
            "{pipeline} ({name}) 64x64 frame hash changed — if intentional, \
             re-bless with UNI_RENDER_BLESS=1 cargo test --test golden_frames -- --nocapture"
        );
    }
}
