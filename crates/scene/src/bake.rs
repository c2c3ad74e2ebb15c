//! Baking: turning a [`SceneSpec`]'s analytic field into every scene
//! representation the five pipelines consume.
//!
//! The paper's scenes exist as five trained checkpoints per capture
//! (MobileNeRF mesh+texture, KiloNeRF MLP grid, MeRF planes+grid,
//! Instant-NGP hash tables, 3DGS point cloud). Baking is our substitute for
//! training against captured photos: each representation is fitted against
//! the *same* analytic field — tessellation for meshes, SH projection for
//! Gaussians, vertex writes for grids, and genuine Adam training for every
//! MLP component.

use crate::field::{AnalyticField, LIGHT_DIR, PEAK_DENSITY};
use crate::gaussians::{Gaussian, GaussianCloud, MAX_SH_FLOATS};
use crate::hashgrid::HashGrid;
use crate::kilonerf::KiloNerfGrid;
use crate::mesh::{Texture2d, TriangleMesh};
use crate::nn::{Activation, AdamTrainer, Mlp};
use crate::synthetic::SceneSpec;
use crate::triplane::{PlaneAxis, Triplane};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use uni_geometry::camera::Orbit;
use uni_geometry::sampling::XorShift64;
use uni_geometry::{sh, Aabb, FlatMat, Rgb, Vec2, Vec3};

/// Number of feature channels baked everywhere:
/// `[diffuse r, g, b, specular, nx, ny, nz, occupancy]`.
pub const FEATURE_CHANNELS: u32 = 8;

/// A fully baked scene: the analytic field plus all five representations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BakedScene {
    spec: SceneSpec,
    field: AnalyticField,
    bounds: Aabb,
    mesh: TriangleMesh,
    texture: Texture2d,
    gaussians: GaussianCloud,
    hashgrid: HashGrid,
    hash_decoder: Mlp,
    triplane: Triplane,
    deferred_mlp: Mlp,
    kilonerf: KiloNerfGrid,
}

impl SceneSpec {
    /// Bakes the spec into all five representations.
    ///
    /// Deterministic in the spec's seed. Cost scales with
    /// [`SceneSpec::with_detail`]; tests should use small detail factors.
    /// The figure harnesses bake at `uni_bench::HARNESS_DETAIL` (0.12), and
    /// the serving benchmark at 0.12 and 0.03.
    pub fn bake(&self) -> BakedScene {
        let field = self.build_field();
        let repr = self.scaled_repr();
        let mut rng = XorShift64::new(self.seed.wrapping_mul(0xA5A5).wrapping_add(3));

        let bounds = field.content_bounds().padded(0.25);
        let mesh = tessellate(&field, bounds, repr.target_triangles);
        let texture = bake_texture(&mesh, &field, repr.texture_resolution);
        let gaussians = bake_gaussians(&mesh, &field, repr.gaussian_count, 3, &mut rng);
        let hashgrid = bake_hashgrid(&mesh, &field, repr.hash, bounds, &mut rng);
        let hash_decoder = train_hash_decoder(&hashgrid, &field, &mesh, repr.train_steps, &mut rng);
        let triplane = bake_triplane(&mesh, &field, repr.triplane, bounds, &mut rng);
        let deferred_mlp = train_deferred_mlp(repr.train_steps, &mut rng);
        let kilonerf = KiloNerfGrid::bake(
            &field,
            bounds,
            repr.kilonerf_grid,
            repr.mlp_count,
            repr.mlp_hidden,
            repr.train_steps,
            &mut rng,
        );

        BakedScene {
            spec: self.clone(),
            field,
            bounds,
            mesh,
            texture,
            gaussians,
            hashgrid,
            hash_decoder,
            triplane,
            deferred_mlp,
            kilonerf,
        }
    }
}

impl BakedScene {
    /// The originating spec.
    pub fn spec(&self) -> &SceneSpec {
        &self.spec
    }

    /// The ground-truth analytic field.
    pub fn field(&self) -> &AnalyticField {
        &self.field
    }

    /// The padded content bounds all grids are defined over.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The baked triangle mesh.
    pub fn mesh(&self) -> &TriangleMesh {
        &self.mesh
    }

    /// The baked texture atlas (8 feature channels).
    pub fn texture(&self) -> &Texture2d {
        &self.texture
    }

    /// The baked Gaussian cloud.
    pub fn gaussians(&self) -> &GaussianCloud {
        &self.gaussians
    }

    /// The baked multi-level hash grid.
    pub fn hashgrid(&self) -> &HashGrid {
        &self.hashgrid
    }

    /// The trained hash-feature decoder MLP (`L×F → [σ, r, g, b]`).
    pub fn hash_decoder(&self) -> &Mlp {
        &self.hash_decoder
    }

    /// The baked low-rank decomposed grid.
    pub fn triplane(&self) -> &Triplane {
        &self.triplane
    }

    /// The trained deferred shading MLP
    /// (`[s·n, s, view] → specular RGB`), shared by the mesh, low-rank, and
    /// hybrid pipelines.
    pub fn deferred_mlp(&self) -> &Mlp {
        &self.deferred_mlp
    }

    /// The baked KiloNeRF grid of tiny MLPs.
    pub fn kilonerf(&self) -> &KiloNerfGrid {
        &self.kilonerf
    }

    /// Total bytes this baked scene keeps resident across every
    /// representation — the unit a capacity-bounded scene cache budgets
    /// and the bake-cost account charges. Deterministic for a given
    /// spec: baking is seeded purely from [`SceneSpec::seed`], so the
    /// same spec always bakes to the same resident size.
    pub fn resident_bytes(&self) -> u64 {
        self.mesh.storage_bytes()
            + self.texture.storage_bytes()
            + self.gaussians.storage_bytes()
            + self.hashgrid.config().storage_bytes()
            + self.hash_decoder.weight_bytes()
            + self.triplane.config().storage_bytes()
            + self.deferred_mlp.weight_bytes()
            + self.kilonerf.storage_bytes()
    }

    /// The default test-view orbit at a dataset-appropriate resolution.
    pub fn orbit(&self) -> Orbit {
        use crate::synthetic::SceneFlavor;
        let (w, h) = match self.spec.flavor {
            SceneFlavor::Object => (800, 800),
            _ => (1280, 720),
        };
        self.spec.orbit(w, h)
    }
}

/// Tessellates every field primitive into one mesh with atlas-packed UVs.
fn tessellate(field: &AnalyticField, bounds: Aabb, target_triangles: u32) -> TriangleMesh {
    use crate::field::Shape;
    let prims = field.primitives();
    if prims.is_empty() {
        return TriangleMesh::new();
    }
    // Budget triangles proportional to surface area.
    let ground_extent = (bounds.extent().x.max(bounds.extent().z) * 0.75).max(1.0);
    let area = |s: &Shape| -> f32 {
        match *s {
            Shape::Sphere { radius, .. } => 4.0 * std::f32::consts::PI * radius * radius,
            Shape::Box { half, .. } => 8.0 * (half.x * half.y + half.y * half.z + half.x * half.z),
            Shape::Ground { .. } => (2.0 * ground_extent).powi(2),
            Shape::Cylinder {
                radius,
                half_height,
                ..
            } => {
                2.0 * std::f32::consts::PI * radius * (2.0 * half_height)
                    + 2.0 * std::f32::consts::PI * radius * radius
            }
        }
    };
    let total_area: f32 = prims.iter().map(|p| area(&p.shape)).sum();
    let tiles = (prims.len() as f32).sqrt().ceil() as u32;
    let mut mesh = TriangleMesh::new();
    for (i, prim) in prims.iter().enumerate() {
        let budget = ((target_triangles as f32) * area(&prim.shape) / total_area).max(8.0) as u32;
        let mut part = match prim.shape {
            Shape::Sphere { center, radius } => {
                let rings = ((budget as f32 / 4.0).sqrt().round() as u32).max(3);
                TriangleMesh::uv_sphere(center, radius, rings, rings * 2)
            }
            Shape::Box { center, half } => {
                let sub = ((budget as f32 / 12.0).sqrt().round() as u32).max(1);
                TriangleMesh::cuboid(center, half, sub)
            }
            Shape::Ground { level } => {
                let cells = ((budget as f32 / 2.0).sqrt().round() as u32).max(2);
                TriangleMesh::ground_plane(level, ground_extent, cells)
            }
            Shape::Cylinder {
                center,
                radius,
                half_height,
            } => {
                let segs = (budget / 4).max(6);
                TriangleMesh::cylinder(center, radius, half_height, segs)
            }
        };
        // Atlas tile remap with a small margin against tile bleeding.
        let tile_x = (i as u32 % tiles) as f32;
        let tile_y = (i as u32 / tiles) as f32;
        let inv = 1.0 / tiles as f32;
        for uv in &mut part.uvs {
            let margin = 0.02;
            let u = uv.x.clamp(0.0, 1.0) * (1.0 - 2.0 * margin) + margin;
            let v = uv.y.clamp(0.0, 1.0) * (1.0 - 2.0 * margin) + margin;
            *uv = Vec2::new((tile_x + u) * inv, (tile_y + v) * inv);
        }
        mesh.append(&part);
    }
    mesh
}

/// Writes one feature record at a surface point.
fn surface_features(field: &AnalyticField, p: Vec3) -> [f32; FEATURE_CHANNELS as usize] {
    let a = field.attributes(p);
    [
        a.diffuse.r,
        a.diffuse.g,
        a.diffuse.b,
        a.specular,
        a.normal.x,
        a.normal.y,
        a.normal.z,
        1.0,
    ]
}

/// Bakes the texture atlas by forward-splatting triangle samples.
///
/// Each sample overwrites its texel, so only the last sample to land on
/// a texel decides its value. The first pass finds that sample for every
/// texel; the second shades only those, once each.
fn bake_texture(mesh: &TriangleMesh, field: &AnalyticField, resolution: u32) -> Texture2d {
    let mut tex = Texture2d::new(resolution, resolution, FEATURE_CHANNELS);
    if mesh.triangle_count() == 0 {
        return tex;
    }
    let res = resolution as f32;
    let mut last_sample: Vec<Option<Vec3>> = vec![None; (resolution * resolution) as usize];
    for t in 0..mesh.triangle_count() {
        let [a, b, c] = mesh.triangle(t);
        let [ua, ub, uc] = mesh.triangle_uvs(t);
        // Sample density: ~2 samples per covered texel.
        let uv_area = ((ub - ua).cross(uc - ua)).abs() * 0.5 * res * res;
        let samples = (uv_area * 2.0).ceil().clamp(1.0, 4096.0) as u32;
        for s in 0..samples {
            // Deterministic low-discrepancy barycentrics.
            let r1 = ((s as f32 + 0.5) / samples as f32).fract();
            let r2 = ((s as f32) * 0.618_034 + 0.37).fract();
            let su = r1.sqrt();
            let (w0, w1, w2) = (1.0 - su, su * (1.0 - r2), su * r2);
            let p = a * w0 + b * w1 + c * w2;
            let uv = ua * w0 + ub * w1 + uc * w2;
            let x = ((uv.x * res) as u32).min(resolution - 1);
            let y = ((uv.y * res) as u32).min(resolution - 1);
            last_sample[(y * resolution + x) as usize] = Some(p);
        }
    }
    for (i, p) in last_sample.into_iter().enumerate() {
        if let Some(p) = p {
            let i = i as u32;
            tex.set_texel(i % resolution, i / resolution, &surface_features(field, p));
        }
    }
    dilate(&mut tex);
    tex
}

/// One dilation pass: fills unoccupied texels (channel 7 == 0) from any
/// occupied 4-neighbor, so bilinear fetches near seams stay meaningful.
fn dilate(tex: &mut Texture2d) {
    let (w, h, c) = (tex.width(), tex.height(), tex.channels() as usize);
    let texel = |x: u32, y: u32| (y * w + x) as usize * c;
    let mut snapshot = Vec::with_capacity(tex.data().len());
    for _ in 0..2 {
        snapshot.clear();
        snapshot.extend_from_slice(tex.data());
        for y in 0..h {
            for x in 0..w {
                if snapshot[texel(x, y) + c - 1] > 0.0 {
                    continue;
                }
                let neighbors = [
                    (x.wrapping_sub(1), y),
                    (x + 1, y),
                    (x, y.wrapping_sub(1)),
                    (x, y + 1),
                ];
                for (nx, ny) in neighbors {
                    if nx < w && ny < h && snapshot[texel(nx, ny) + c - 1] > 0.0 {
                        let i = texel(nx, ny);
                        tex.set_texel(x, y, &snapshot[i..i + c]);
                        break;
                    }
                }
            }
        }
    }
}

/// Samples a point uniformly over the mesh surface: returns
/// `(point, normal)`. `areas` must hold the cumulative triangle areas.
fn sample_surface(mesh: &TriangleMesh, areas: &[f32], rng: &mut XorShift64) -> (Vec3, Vec3) {
    let total = *areas.last().expect("nonempty mesh");
    let target = rng.next_f32() * total;
    let t = areas.partition_point(|&a| a < target).min(areas.len() - 1);
    let [a, b, c] = mesh.triangle(t);
    let (r1, r2) = (rng.next_f32(), rng.next_f32());
    let su = r1.sqrt();
    let (w0, w1, w2) = (1.0 - su, su * (1.0 - r2), su * r2);
    (a * w0 + b * w1 + c * w2, mesh.triangle_normal(t))
}

fn cumulative_areas(mesh: &TriangleMesh) -> Vec<f32> {
    let mut acc = 0.0;
    (0..mesh.triangle_count())
        .map(|t| {
            acc += mesh.triangle_area(t);
            acc
        })
        .collect()
}

/// Quaternion rotating +Z onto `dir` (unit).
fn quat_from_z_to(dir: Vec3) -> uni_geometry::Vec4 {
    let z = Vec3::Z;
    let d = z.dot(dir);
    if d > 0.9999 {
        return uni_geometry::Vec4::new(0.0, 0.0, 0.0, 1.0);
    }
    if d < -0.9999 {
        return uni_geometry::Vec4::new(1.0, 0.0, 0.0, 0.0); // 180° about X.
    }
    let axis = z.cross(dir).normalized();
    let angle = d.clamp(-1.0, 1.0).acos();
    let (s, c) = (angle * 0.5).sin_cos();
    uni_geometry::Vec4::new(axis.x * s, axis.y * s, axis.z * s, c)
}

/// Bakes the Gaussian cloud: surface sampling + SH projection of the
/// field's view-dependent radiance.
fn bake_gaussians(
    mesh: &TriangleMesh,
    field: &AnalyticField,
    count: u32,
    sh_degree: u8,
    rng: &mut XorShift64,
) -> GaussianCloud {
    let mut cloud = GaussianCloud::new(sh_degree);
    if mesh.triangle_count() == 0 || count == 0 {
        return cloud;
    }
    let areas = cumulative_areas(mesh);
    let total_area = *areas.last().expect("nonempty");
    let spacing = (total_area / count as f32).sqrt();
    let n_coeffs = cloud.coeffs_per_channel();
    cloud.reserve(count as usize);

    // Deterministic projection directions (spherical Fibonacci).
    let n_dirs = 32usize;
    let dirs: Vec<Vec3> = (0..n_dirs)
        .map(|i| {
            let golden = std::f32::consts::PI * (3.0 - 5f32.sqrt());
            let y = 1.0 - 2.0 * (i as f32 + 0.5) / n_dirs as f32;
            let r = (1.0 - y * y).max(0.0).sqrt();
            let phi = golden * i as f32;
            Vec3::new(r * phi.cos(), y, r * phi.sin())
        })
        .collect();
    let mut bases = FlatMat::zeros(n_dirs, n_coeffs);
    for (i, d) in dirs.iter().enumerate() {
        sh::eval_basis(*d, bases.row_mut(i));
    }
    let w = 4.0 * std::f32::consts::PI / n_dirs as f32;
    let mut colors = vec![Rgb::BLACK; n_dirs];

    for _ in 0..count {
        let (p, normal) = sample_surface(mesh, &areas, rng);
        field.sample_views(p, &dirs, &mut colors);
        // SH-project radiance: c_i = (4π/N) Σ_d (L(d) - 0.5) b_i(d).
        let mut coeffs = [0f32; MAX_SH_FLOATS];
        for (d, color) in colors.iter().enumerate() {
            let basis = bases.row(d);
            for i in 0..n_coeffs {
                coeffs[i] += (color.r - 0.5) * basis[i] * w;
                coeffs[n_coeffs + i] += (color.g - 0.5) * basis[i] * w;
                coeffs[2 * n_coeffs + i] += (color.b - 0.5) * basis[i] * w;
            }
        }
        cloud.push(Gaussian {
            mean: p,
            scale: Vec3::new(spacing * 0.9, spacing * 0.9, spacing * 0.15),
            rotation: quat_from_z_to(normal),
            opacity: 0.85,
            sh_coeffs: coeffs,
        });
    }
    cloud
}

/// Marks a [`bake_hashgrid`] table slot that no first-visited vertex
/// claimed. Vertex coordinates never reach `u32::MAX`.
const UNCLAIMED: [u32; 3] = [u32::MAX; 3];

/// Bakes the multi-level hash grid from surface + volume samples, writing
/// field attributes at touched vertices.
///
/// Each vertex write overwrites its whole table slot, and a hashed level
/// maps many vertices to one slot, so only the last first-visited vertex
/// to land on a slot decides its value. The draw pass consumes the RNG
/// and the first-visit set in sampling order and keeps, per slot, the
/// latest first-visited vertex (a revisit never re-claims a slot). The
/// shade pass then evaluates the field once for each claimed slot. The
/// per-slot record costs `levels × table_size × 12` bytes.
fn bake_hashgrid(
    mesh: &TriangleMesh,
    field: &AnalyticField,
    config: crate::hashgrid::HashGridConfig,
    bounds: Aabb,
    rng: &mut XorShift64,
) -> HashGrid {
    let mut grid = HashGrid::new(config, bounds);
    if mesh.triangle_count() == 0 {
        return grid;
    }
    let areas = cumulative_areas(mesh);
    let samples = (mesh.triangle_count() as u32 * 3).clamp(1_024, 400_000);
    // About 40% of corner visits are first visits; room for half of them
    // means the set never rehashes.
    let corner_visits = samples as usize * config.levels as usize * 8;
    let mut seen: HashSet<(u32, u32, u32, u32), BuildHasherDefault<VertexHasher>> =
        HashSet::with_capacity_and_hasher(corner_visits / 2, Default::default());
    let table_size = config.table_size() as usize;
    let mut last_vertex = vec![UNCLAIMED; config.levels as usize * table_size];
    let shell = bounds.diagonal() * 0.01;

    for s in 0..samples {
        // 85% surface-biased (jittered off the surface), 15% uniform volume.
        let p = if s % 7 == 0 {
            bounds.denormalize_point(Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
        } else {
            let (p, n) = sample_surface(mesh, &areas, rng);
            p + n * rng.range_f32(-shell, shell)
        };
        let u = bounds.normalize_point(p).clamp(0.0, 1.0);
        for l in 0..config.levels {
            let res = config.level_resolution(l) + 1;
            let cx = uni_geometry::interp::cell_coord(u.x, res);
            let cy = uni_geometry::interp::cell_coord(u.y, res);
            let cz = uni_geometry::interp::cell_coord(u.z, res);
            for corner in 0..8u32 {
                let x = cx.base as u32 + (corner & 1);
                let y = cy.base as u32 + ((corner >> 1) & 1);
                let z = cz.base as u32 + ((corner >> 2) & 1);
                if seen.insert((l, x, y, z)) {
                    last_vertex[l as usize * table_size + grid.slot(l, x, y, z)] = [x, y, z];
                }
            }
        }
    }

    for (l, level) in (0..config.levels).zip(last_vertex.chunks_exact(table_size)) {
        let res = config.level_resolution(l) + 1;
        for &[x, y, z] in level.iter().filter(|&&v| v != UNCLAIMED) {
            let vw = bounds.denormalize_point(Vec3::new(
                x as f32 / (res - 1) as f32,
                y as f32 / (res - 1) as f32,
                z as f32 / (res - 1) as f32,
            ));
            let (a, density) = field.attributes_and_density(vw);
            let density = density / PEAK_DENSITY;
            grid.write_vertex(
                l,
                x,
                y,
                z,
                &[density, a.diffuse.r, a.diffuse.g, a.diffuse.b],
            );
        }
    }
    grid
}

/// A multiply-rotate (FxHash-style) hasher for [`bake_hashgrid`]'s vertex
/// set, far cheaper than the default SipHash on its 4×`u32` keys. The set
/// is only probed, never iterated, so the hash function cannot change
/// what the bake writes; its keys are grid coordinates the bake computes,
/// never outside input, so SipHash's collision resistance buys nothing.
#[derive(Default)]
struct VertexHasher(u64);

impl VertexHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for VertexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Trains the hash-feature decoder MLP (`L×F → [σ/peak, r, g, b]`).
fn train_hash_decoder(
    grid: &HashGrid,
    field: &AnalyticField,
    mesh: &TriangleMesh,
    steps: u32,
    rng: &mut XorShift64,
) -> Mlp {
    let in_dim = grid.config().feature_dim() as usize;
    let mut mlp = Mlp::new(
        &[in_dim, 64, 64, 4],
        Activation::Relu,
        Activation::Linear,
        rng,
    );
    if mesh.triangle_count() == 0 {
        return mlp;
    }
    let areas = cumulative_areas(mesh);
    let bounds = grid.bounds();
    let shell = bounds.diagonal() * 0.015;
    let mut trainer = AdamTrainer::new(&mlp, 3e-3);
    let mut feats = vec![0f32; in_dim];
    let batch = 48;
    let mut inputs = FlatMat::with_row_capacity(batch, in_dim);
    let mut targets = FlatMat::with_row_capacity(batch, 4);
    for _ in 0..steps {
        inputs.clear_rows();
        targets.clear_rows();
        for b in 0..batch {
            let p = if b % 5 == 0 {
                bounds.denormalize_point(Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
            } else {
                let (p, n) = sample_surface(mesh, &areas, rng);
                p + n * rng.range_f32(-shell, shell)
            };
            grid.fetch(p, &mut feats);
            let (a, density) = field.attributes_and_density(p);
            inputs.push_row(&feats);
            targets.push_row(&[
                density / PEAK_DENSITY,
                a.diffuse.r,
                a.diffuse.g,
                a.diffuse.b,
            ]);
        }
        trainer.train_step(&mut mlp, &inputs, &targets);
    }
    mlp
}

/// Bakes the low-rank decomposed grid: dense low-res 3D grid from direct
/// sampling, planes from surface-sample splatting.
fn bake_triplane(
    mesh: &TriangleMesh,
    field: &AnalyticField,
    config: crate::triplane::TriplaneConfig,
    bounds: Aabb,
    rng: &mut XorShift64,
) -> Triplane {
    let mut tp = Triplane::new(config, bounds);
    let c = config.channels as usize;
    assert!(c >= 8, "triplane bake expects >= 8 channels");

    // Grid half: direct field sampling at vertices (weight 0.5).
    let r = config.grid_resolution;
    let mut v = vec![0f32; c];
    for z in 0..r {
        for y in 0..r {
            for x in 0..r {
                let p = bounds.denormalize_point(Vec3::new(
                    x as f32 / (r - 1).max(1) as f32,
                    y as f32 / (r - 1).max(1) as f32,
                    z as f32 / (r - 1).max(1) as f32,
                ));
                let (a, density) = field.attributes_and_density(p);
                let density = density / PEAK_DENSITY;
                v.fill(0.0);
                v[0] = 0.5 * density;
                v[1] = 0.5 * a.diffuse.r;
                v[2] = 0.5 * a.diffuse.g;
                v[3] = 0.5 * a.diffuse.b;
                v[4] = 0.5 * a.specular * a.normal.x;
                v[5] = 0.5 * a.specular * a.normal.y;
                v[6] = 0.5 * a.specular * a.normal.z;
                v[7] = 0.5 * a.specular;
                tp.write_grid_vertex(x, y, z, &v);
            }
        }
    }

    // Plane halves: splat surface samples onto each projection (weight 0.5
    // split across the three planes).
    if mesh.triangle_count() > 0 {
        let areas = cumulative_areas(mesh);
        let res = config.plane_resolution;
        let samples = (u64::from(res) * u64::from(res) / 2).clamp(1_024, 2_000_000) as u32;
        for _ in 0..samples {
            let (p, _) = sample_surface(mesh, &areas, rng);
            let u = bounds.normalize_point(p).clamp(0.0, 1.0);
            let (a, density) = field.attributes_and_density(p);
            let density = density / PEAK_DENSITY;
            v.fill(0.0);
            let third = 0.5 / 3.0;
            v[0] = third * density;
            v[1] = third * a.diffuse.r;
            v[2] = third * a.diffuse.g;
            v[3] = third * a.diffuse.b;
            v[4] = third * a.specular * a.normal.x;
            v[5] = third * a.specular * a.normal.y;
            v[6] = third * a.specular * a.normal.z;
            v[7] = third * a.specular;
            for axis in PlaneAxis::ALL {
                let uv = axis.project(u);
                let x = ((uv.x * res as f32) as u32).min(res - 1);
                let y = ((uv.y * res as f32) as u32).min(res - 1);
                tp.plane_mut(axis).set_texel(x, y, &v);
            }
        }
    }
    tp
}

/// Trains the deferred shading MLP against the analytic Blinn specular
/// model: input `[s·nx, s·ny, s·nz, s, view_xyz]` → specular RGB.
fn train_deferred_mlp(steps: u32, rng: &mut XorShift64) -> Mlp {
    let mut mlp = Mlp::new(&[7, 16, 16, 3], Activation::Relu, Activation::Linear, rng);
    let light = LIGHT_DIR.normalized();
    let mut trainer = AdamTrainer::new(&mlp, 4e-3);
    let batch = 64;
    let mut inputs = FlatMat::with_row_capacity(batch, 7);
    let mut targets = FlatMat::with_row_capacity(batch, 3);
    for _ in 0..steps.max(32) {
        inputs.clear_rows();
        targets.clear_rows();
        for _ in 0..batch {
            let n = Vec3::new(
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
            )
            .normalized();
            let view = Vec3::new(
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
            )
            .normalized();
            let s = rng.next_f32();
            let half = (light - view).normalized();
            let spec = n.dot(half).max(0.0).powi(16) * s;
            inputs.push_row(&[s * n.x, s * n.y, s * n.z, s, view.x, view.y, view.z]);
            targets.push_row(&[spec, spec, spec]);
        }
        trainer.train_step(&mut mlp, &inputs, &targets);
    }
    mlp
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One shared tiny baked scene for all tests in this module (baking is
    /// the expensive part).
    fn scene() -> &'static BakedScene {
        static SCENE: OnceLock<BakedScene> = OnceLock::new();
        SCENE.get_or_init(|| SceneSpec::demo("bake-test", 11).with_detail(0.03).bake())
    }

    #[test]
    fn bake_produces_all_representations() {
        let s = scene();
        assert!(s.mesh().triangle_count() > 50);
        assert!(!s.gaussians().is_empty());
        assert!(s.kilonerf().occupied_cells() > 0);
        assert_eq!(s.texture().channels(), FEATURE_CHANNELS);
    }

    #[test]
    fn mesh_fits_bounds() {
        let s = scene();
        let mb = s.mesh().bounds();
        let sb = s.bounds().padded(1e-3);
        assert!(
            sb.contains(mb.min) && sb.contains(mb.max),
            "{mb:?} vs {sb:?}"
        );
    }

    #[test]
    fn texture_has_occupied_texels_with_colors() {
        let s = scene();
        let tex = s.texture();
        let mut occupied = 0;
        for y in 0..tex.height() {
            for x in 0..tex.width() {
                if tex.texel(x, y)[7] > 0.0 {
                    occupied += 1;
                }
            }
        }
        let frac = occupied as f64 / (tex.width() * tex.height()) as f64;
        assert!(frac > 0.2, "texture mostly occupied after dilation: {frac}");
    }

    #[test]
    fn gaussians_sit_on_surfaces() {
        let s = scene();
        let mut near_surface = 0;
        for g in s.gaussians().iter() {
            let (d, _) = s.field().sdf(g.mean);
            if d.abs() < 0.1 {
                near_surface += 1;
            }
        }
        let frac = near_surface as f64 / s.gaussians().len() as f64;
        assert!(frac > 0.9, "gaussians on surfaces: {frac}");
    }

    #[test]
    fn gaussian_dc_color_matches_field_diffuse_roughly() {
        let s = scene();
        let n = s.gaussians().coeffs_per_channel();
        let mut total_err = 0.0f64;
        let count = s.gaussians().len().min(50);
        for g in s.gaussians().iter().take(count) {
            let view = Vec3::new(0.3, -0.2, 0.9).normalized();
            let predicted = g.color(view, n);
            let actual = s.field().sample(g.mean, view).color;
            total_err += f64::from((predicted.r - actual.r).abs())
                + f64::from((predicted.g - actual.g).abs())
                + f64::from((predicted.b - actual.b).abs());
        }
        let mean_err = total_err / (count as f64 * 3.0);
        assert!(mean_err < 0.2, "SH projection tracks radiance: {mean_err}");
    }

    #[test]
    fn hashgrid_decodes_density_inside_objects() {
        let s = scene();
        // Find a surface point from the mesh.
        let [a, b, c] = s.mesh().triangle(0);
        let p = (a + b + c) / 3.0;
        let mut feats = vec![0f32; s.hashgrid().config().feature_dim() as usize];
        s.hashgrid().fetch(p, &mut feats);
        assert!(
            feats.iter().any(|&f| f.abs() > 1e-3),
            "baked features nonzero near surface"
        );
        let out = s.hash_decoder().forward(&feats);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn triplane_density_tracks_field() {
        let s = scene();
        let [a, b, c] = s.mesh().triangle(0);
        let on_surface = (a + b + c) / 3.0;
        let far = s.bounds().max - Vec3::splat(1e-3);
        let mut f_on = vec![0f32; 8];
        let mut f_far = vec![0f32; 8];
        s.triplane().fetch(on_surface, &mut f_on);
        s.triplane().fetch(far, &mut f_far);
        assert!(
            f_on[0] > f_far[0],
            "density channel higher on surface: {} vs {}",
            f_on[0],
            f_far[0]
        );
    }

    #[test]
    fn deferred_mlp_predicts_zero_spec_for_zero_strength() {
        let s = scene();
        let out = s
            .deferred_mlp()
            .forward(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        for v in out {
            assert!(v.abs() < 0.15, "no specular without strength: {v}");
        }
    }

    #[test]
    fn bake_is_deterministic() {
        let a = SceneSpec::demo("det", 3).with_detail(0.02).bake();
        let b = SceneSpec::demo("det", 3).with_detail(0.02).bake();
        assert_eq!(a.mesh().triangle_count(), b.mesh().triangle_count());
        assert_eq!(a.gaussians().len(), b.gaussians().len());
        assert_eq!(a.gaussians().get(0), b.gaussians().get(0));
    }

    /// Reference for [`bake_hashgrid`]: the same draws, but every
    /// first-visited vertex is shaded and written at once, so later
    /// vertices overwrite earlier ones slot by slot. Returns the grid
    /// and the number of vertices it shaded.
    fn shade_at_first_visit(
        mesh: &TriangleMesh,
        field: &AnalyticField,
        config: crate::hashgrid::HashGridConfig,
        bounds: Aabb,
        rng: &mut XorShift64,
    ) -> (HashGrid, usize) {
        let mut grid = HashGrid::new(config, bounds);
        let areas = cumulative_areas(mesh);
        let samples = (mesh.triangle_count() as u32 * 3).clamp(1_024, 400_000);
        let mut seen = HashSet::new();
        let mut shaded = 0;
        let shell = bounds.diagonal() * 0.01;
        for s in 0..samples {
            let p = if s % 7 == 0 {
                bounds.denormalize_point(Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
            } else {
                let (p, n) = sample_surface(mesh, &areas, rng);
                p + n * rng.range_f32(-shell, shell)
            };
            let u = bounds.normalize_point(p).clamp(0.0, 1.0);
            for l in 0..config.levels {
                let res = config.level_resolution(l) + 1;
                let cx = uni_geometry::interp::cell_coord(u.x, res);
                let cy = uni_geometry::interp::cell_coord(u.y, res);
                let cz = uni_geometry::interp::cell_coord(u.z, res);
                for corner in 0..8u32 {
                    let x = cx.base as u32 + (corner & 1);
                    let y = cy.base as u32 + ((corner >> 1) & 1);
                    let z = cz.base as u32 + ((corner >> 2) & 1);
                    if !seen.insert((l, x, y, z)) {
                        continue;
                    }
                    let vw = bounds.denormalize_point(Vec3::new(
                        x as f32 / (res - 1) as f32,
                        y as f32 / (res - 1) as f32,
                        z as f32 / (res - 1) as f32,
                    ));
                    let (a, density) = field.attributes_and_density(vw);
                    let features = [
                        density / PEAK_DENSITY,
                        a.diffuse.r,
                        a.diffuse.g,
                        a.diffuse.b,
                    ];
                    grid.write_vertex(l, x, y, z, &features);
                    shaded += 1;
                }
            }
        }
        (grid, shaded)
    }

    #[test]
    fn hashgrid_bake_matches_shading_at_first_visit() {
        let spec = SceneSpec::demo("hash-ref", 5).with_detail(0.02);
        let field = spec.build_field();
        let bounds = field.content_bounds().padded(0.25);
        let mesh = tessellate(&field, bounds, spec.scaled_repr().target_triangles);
        let all_hashed = crate::hashgrid::HashGridConfig {
            levels: 4,
            features_per_entry: 4,
            log2_table_size: 10,
            base_resolution: 16,
            max_resolution: 64,
        };
        let tiny = crate::hashgrid::HashGridConfig::tiny();
        assert!(tiny.level_is_dense(1) && !tiny.level_is_dense(2));
        assert!(!all_hashed.level_is_dense(0));
        for config in [tiny, all_hashed] {
            let mut rng = XorShift64::new(41);
            let baked = bake_hashgrid(&mesh, &field, config, bounds, &mut rng);
            let mut ref_rng = XorShift64::new(41);
            let (reference, shaded) =
                shade_at_first_visit(&mesh, &field, config, bounds, &mut ref_rng);
            let slots = reference.tables().len() / config.features_per_entry as usize;
            assert!(shaded > slots, "slots are overwritten: {shaded} shades");
            let bits = |g: &HashGrid| g.tables().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&baked), bits(&reference), "{config:?}");
            assert_eq!(rng.next_u64(), ref_rng.next_u64(), "same RNG draws");
        }
    }

    #[test]
    fn quat_from_z_handles_all_directions() {
        for dir in [
            Vec3::Z,
            -Vec3::Z,
            Vec3::X,
            Vec3::Y,
            Vec3::new(0.5, -0.5, 0.7).normalized(),
        ] {
            let q = quat_from_z_to(dir);
            let m = uni_geometry::Mat3::from_quaternion(q);
            let rotated = m.mul_vec3(Vec3::Z);
            assert!((rotated - dir).length() < 1e-4, "{dir:?} -> {rotated:?}");
        }
    }
}
