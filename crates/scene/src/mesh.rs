//! Indexed triangle meshes and 2D feature texture maps — the dominant scene
//! representation of mesh-based pipelines (Sec. II-A).
//!
//! Meshes store (1) vertex coordinates and (2) vertex indices per triangle;
//! appearance lives in 2D texture maps addressed through per-vertex UVs,
//! matching MobileNeRF-style baked representations.

use serde::{Deserialize, Serialize};
use uni_geometry::interp::{self, Blend};
use uni_geometry::{Aabb, Vec2, Vec3};

/// A 2D feature texture: `width × height` texels of `channels` floats.
///
/// Channel count beyond 3 carries the learned features MobileNeRF-style
/// pipelines feed to their deferred MLP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Texture2d {
    width: u32,
    height: u32,
    channels: u32,
    data: Vec<f32>,
}

impl Texture2d {
    /// Creates a zero-filled texture.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(width: u32, height: u32, channels: u32) -> Self {
        assert!(
            width > 0 && height > 0 && channels > 0,
            "texture dims must be positive"
        );
        Self {
            width,
            height,
            channels,
            data: vec![0.0; (width * height * channels) as usize],
        }
    }

    /// Texture width in texels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Texture height in texels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Feature channels per texel.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Total bytes when stored as 8-bit quantized texels (the on-disk /
    /// DRAM format mesh pipelines use).
    pub fn storage_bytes(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height) * u64::from(self.channels)
    }

    fn texel_index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        ((y * self.width + x) * self.channels) as usize
    }

    /// Writes all channels of texel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds coordinates or channel-count mismatch.
    pub fn set_texel(&mut self, x: u32, y: u32, values: &[f32]) {
        assert!(x < self.width && y < self.height, "texel out of bounds");
        assert_eq!(values.len() as u32, self.channels, "channel count mismatch");
        let i = self.texel_index(x, y);
        self.data[i..i + values.len()].copy_from_slice(values);
    }

    /// Every texel's channels, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Reads all channels of texel `(x, y)`.
    pub fn texel(&self, x: u32, y: u32) -> &[f32] {
        let i = self.texel_index(x.min(self.width - 1), y.min(self.height - 1));
        &self.data[i..i + self.channels as usize]
    }

    /// Bilinear fetch at UV coordinates in `[0, 1]²` — the texture-indexing
    /// step of Fig. 2. Fills `out` (length = channels).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the channel count.
    pub fn sample_bilinear(&self, uv: Vec2, out: &mut [f32]) {
        assert_eq!(out.len() as u32, self.channels, "output width mismatch");
        let (entries, w) = self.bilinear_corners(uv);
        // `-0.0` is the additive identity: adding the corner sum onto it
        // writes that sum's exact bits.
        out.fill(-0.0);
        interp::blend_bilinear(out, &self.data, entries, w, Blend::Accumulate);
    }

    /// The four texel entries (indices into [`Texture2d::data`] in units
    /// of `channels`) and bilinear weights around `uv`.
    pub(crate) fn bilinear_corners(&self, uv: Vec2) -> ([usize; 4], [f32; 4]) {
        let cx = interp::cell_coord(uv.x, self.width.max(2));
        let cy = interp::cell_coord(uv.y, self.height.max(2));
        let w = interp::bilinear_weights(cx.frac, cy.frac);
        (self.corner_entries(cx.base as u32, cy.base as u32), w)
    }

    /// The entries of texels `(x0, y0)`, `(x0 + 1, y0)`, `(x0, y0 + 1)`
    /// and `(x0 + 1, y0 + 1)`, clamped like [`Texture2d::texel`], in
    /// [`interp::bilinear_weights`] order.
    pub(crate) fn corner_entries(&self, x0: u32, y0: u32) -> [usize; 4] {
        let (x1, y1) = ((x0 + 1).min(self.width - 1), (y0 + 1).min(self.height - 1));
        let (x0, y0) = (x0.min(self.width - 1), y0.min(self.height - 1));
        let (r0, r1) = ((y0 * self.width) as usize, (y1 * self.width) as usize);
        [
            r0 + x0 as usize,
            r0 + x1 as usize,
            r1 + x0 as usize,
            r1 + x1 as usize,
        ]
    }
}

/// An indexed triangle mesh with UVs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TriangleMesh {
    /// Vertex positions.
    pub positions: Vec<Vec3>,
    /// Per-vertex texture coordinates.
    pub uvs: Vec<Vec2>,
    /// Triangle vertex indices, three per triangle.
    pub indices: Vec<u32>,
}

impl TriangleMesh {
    /// Creates an empty mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triangles.
    pub fn triangle_count(&self) -> usize {
        self.indices.len() / 3
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.positions.len()
    }

    /// The three corner positions of triangle `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn triangle(&self, t: usize) -> [Vec3; 3] {
        let i = t * 3;
        [
            self.positions[self.indices[i] as usize],
            self.positions[self.indices[i + 1] as usize],
            self.positions[self.indices[i + 2] as usize],
        ]
    }

    /// The three corner UVs of triangle `t`.
    pub fn triangle_uvs(&self, t: usize) -> [Vec2; 3] {
        let i = t * 3;
        [
            self.uvs[self.indices[i] as usize],
            self.uvs[self.indices[i + 1] as usize],
            self.uvs[self.indices[i + 2] as usize],
        ]
    }

    /// Geometric normal of triangle `t` (right-handed winding).
    pub fn triangle_normal(&self, t: usize) -> Vec3 {
        let [a, b, c] = self.triangle(t);
        (b - a).cross(c - a).normalized()
    }

    /// Surface area of triangle `t`.
    pub fn triangle_area(&self, t: usize) -> f32 {
        let [a, b, c] = self.triangle(t);
        (b - a).cross(c - a).length() * 0.5
    }

    /// Bounding box of all vertices.
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(self.positions.iter().copied())
    }

    /// Appends another mesh (indices are re-based).
    pub fn append(&mut self, other: &TriangleMesh) {
        let base = self.positions.len() as u32;
        self.positions.extend_from_slice(&other.positions);
        self.uvs.extend_from_slice(&other.uvs);
        self.indices.extend(other.indices.iter().map(|i| i + base));
    }

    /// Bytes per triangle record as streamed by the rasterizer's Geometric
    /// Processing micro-op: 3 vertices × (xyz + uv) × 4 B ≈ 60 B, padded to
    /// 64 for alignment.
    pub const BYTES_PER_TRIANGLE: u32 = 64;

    /// Storage bytes of the geometry (positions f32, uvs f16, u32 indices).
    pub fn storage_bytes(&self) -> u64 {
        self.positions.len() as u64 * 12 + self.uvs.len() as u64 * 4 + self.indices.len() as u64 * 4
    }

    /// Builds a UV sphere.
    pub fn uv_sphere(center: Vec3, radius: f32, rings: u32, segments: u32) -> Self {
        assert!(
            rings >= 2 && segments >= 3,
            "sphere needs >=2 rings, >=3 segments"
        );
        let mut mesh = Self::new();
        for r in 0..=rings {
            let v = r as f32 / rings as f32;
            let theta = v * std::f32::consts::PI;
            for s in 0..=segments {
                let u = s as f32 / segments as f32;
                let phi = u * std::f32::consts::TAU;
                let dir = Vec3::new(
                    theta.sin() * phi.cos(),
                    theta.cos(),
                    theta.sin() * phi.sin(),
                );
                mesh.positions.push(center + dir * radius);
                mesh.uvs.push(Vec2::new(u, v));
            }
        }
        let stride = segments + 1;
        for r in 0..rings {
            for s in 0..segments {
                let i0 = r * stride + s;
                let i1 = i0 + 1;
                let i2 = i0 + stride;
                let i3 = i2 + 1;
                mesh.indices.extend_from_slice(&[i0, i1, i2, i1, i3, i2]);
            }
        }
        mesh
    }

    /// Builds an axis-aligned box with per-face UVs; `subdiv` splits each
    /// face into `subdiv × subdiv` quads.
    pub fn cuboid(center: Vec3, half: Vec3, subdiv: u32) -> Self {
        assert!(subdiv >= 1);
        let mut mesh = Self::new();
        // (normal axis, sign) for the six faces.
        let faces: [(usize, f32); 6] = [
            (0, 1.0),
            (0, -1.0),
            (1, 1.0),
            (1, -1.0),
            (2, 1.0),
            (2, -1.0),
        ];
        for (axis, sign) in faces {
            let (ua, va) = match axis {
                0 => (1, 2),
                1 => (0, 2),
                _ => (0, 1),
            };
            let base = mesh.positions.len() as u32;
            for j in 0..=subdiv {
                for i in 0..=subdiv {
                    let fu = i as f32 / subdiv as f32;
                    let fv = j as f32 / subdiv as f32;
                    let mut p = [0f32; 3];
                    p[axis] = sign * half[axis];
                    p[ua] = (fu * 2.0 - 1.0) * half[ua];
                    p[va] = (fv * 2.0 - 1.0) * half[va];
                    mesh.positions.push(center + Vec3::new(p[0], p[1], p[2]));
                    mesh.uvs.push(Vec2::new(fu, fv));
                }
            }
            let stride = subdiv + 1;
            for j in 0..subdiv {
                for i in 0..subdiv {
                    let i0 = base + j * stride + i;
                    let i1 = i0 + 1;
                    let i2 = i0 + stride;
                    let i3 = i2 + 1;
                    if sign > 0.0 {
                        mesh.indices.extend_from_slice(&[i0, i1, i2, i1, i3, i2]);
                    } else {
                        mesh.indices.extend_from_slice(&[i0, i2, i1, i1, i2, i3]);
                    }
                }
            }
        }
        mesh
    }

    /// Builds a horizontal ground plane grid at height `level` spanning
    /// `[-extent, extent]²` with `cells × cells` quads.
    pub fn ground_plane(level: f32, extent: f32, cells: u32) -> Self {
        assert!(cells >= 1);
        let mut mesh = Self::new();
        for j in 0..=cells {
            for i in 0..=cells {
                let fu = i as f32 / cells as f32;
                let fv = j as f32 / cells as f32;
                mesh.positions.push(Vec3::new(
                    (fu * 2.0 - 1.0) * extent,
                    level,
                    (fv * 2.0 - 1.0) * extent,
                ));
                mesh.uvs.push(Vec2::new(fu, fv));
            }
        }
        let stride = cells + 1;
        for j in 0..cells {
            for i in 0..cells {
                let i0 = j * stride + i;
                let i1 = i0 + 1;
                let i2 = i0 + stride;
                let i3 = i2 + 1;
                mesh.indices.extend_from_slice(&[i0, i1, i2, i1, i3, i2]);
            }
        }
        mesh
    }

    /// Builds a capped vertical cylinder.
    pub fn cylinder(center: Vec3, radius: f32, half_height: f32, segments: u32) -> Self {
        assert!(segments >= 3);
        let mut mesh = Self::new();
        // Side wall.
        for ring in 0..2 {
            let y = if ring == 0 { -half_height } else { half_height };
            for s in 0..=segments {
                let u = s as f32 / segments as f32;
                let phi = u * std::f32::consts::TAU;
                mesh.positions
                    .push(center + Vec3::new(phi.cos() * radius, y, phi.sin() * radius));
                mesh.uvs.push(Vec2::new(u, ring as f32));
            }
        }
        let stride = segments + 1;
        for s in 0..segments {
            let i0 = s;
            let i1 = s + 1;
            let i2 = s + stride;
            let i3 = i2 + 1;
            mesh.indices.extend_from_slice(&[i0, i2, i1, i1, i2, i3]);
        }
        // Caps (fan around center vertices).
        for (cap, y) in [(0u32, -half_height), (1u32, half_height)] {
            let center_idx = mesh.positions.len() as u32;
            mesh.positions.push(center + Vec3::new(0.0, y, 0.0));
            mesh.uvs.push(Vec2::new(0.5, 0.5));
            let ring_base = mesh.positions.len() as u32;
            for s in 0..=segments {
                let phi = s as f32 / segments as f32 * std::f32::consts::TAU;
                mesh.positions
                    .push(center + Vec3::new(phi.cos() * radius, y, phi.sin() * radius));
                mesh.uvs
                    .push(Vec2::new(0.5 + phi.cos() * 0.5, 0.5 + phi.sin() * 0.5));
            }
            for s in 0..segments {
                let a = ring_base + s;
                let b = ring_base + s + 1;
                if cap == 1 {
                    mesh.indices.extend_from_slice(&[center_idx, a, b]);
                } else {
                    mesh.indices.extend_from_slice(&[center_idx, b, a]);
                }
            }
        }
        mesh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn texture_set_get_round_trip() {
        let mut t = Texture2d::new(4, 4, 3);
        t.set_texel(1, 2, &[0.1, 0.2, 0.3]);
        assert_eq!(t.texel(1, 2), &[0.1, 0.2, 0.3]);
        assert_eq!(t.texel(0, 0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn texture_bilinear_interpolates_between_texels() {
        let mut t = Texture2d::new(2, 2, 1);
        t.set_texel(0, 0, &[0.0]);
        t.set_texel(1, 0, &[1.0]);
        t.set_texel(0, 1, &[0.0]);
        t.set_texel(1, 1, &[1.0]);
        let mut out = [0f32];
        t.sample_bilinear(Vec2::new(0.5, 0.5), &mut out);
        assert!((out[0] - 0.5).abs() < 1e-5);
        t.sample_bilinear(Vec2::new(0.0, 0.0), &mut out);
        assert!(out[0].abs() < 1e-5);
        t.sample_bilinear(Vec2::new(1.0, 1.0), &mut out);
        assert!((out[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "texel out of bounds")]
    fn texture_set_out_of_bounds_panics() {
        let mut t = Texture2d::new(2, 2, 1);
        t.set_texel(2, 0, &[1.0]);
    }

    #[test]
    fn sphere_vertices_lie_on_radius() {
        let m = TriangleMesh::uv_sphere(Vec3::new(1.0, 2.0, 3.0), 2.0, 8, 12);
        for p in &m.positions {
            let r = (*p - Vec3::new(1.0, 2.0, 3.0)).length();
            assert!((r - 2.0).abs() < 1e-4, "{r}");
        }
        assert_eq!(m.triangle_count(), (8 * 12 * 2) as usize);
    }

    #[test]
    fn sphere_normals_point_outward_mostly() {
        let m = TriangleMesh::uv_sphere(Vec3::ZERO, 1.0, 12, 16);
        let mut outward = 0usize;
        let mut total = 0usize;
        let mean_area: f32 = (0..m.triangle_count())
            .map(|t| m.triangle_area(t))
            .sum::<f32>()
            / m.triangle_count() as f32;
        for t in 0..m.triangle_count() {
            if m.triangle_area(t) < mean_area * 0.05 {
                continue; // Degenerate pole slivers have unstable normals.
            }
            let n = m.triangle_normal(t);
            let [a, b, c] = m.triangle(t);
            let centroid = (a + b + c) / 3.0;
            total += 1;
            if n.dot(centroid.normalized()) > 0.0 {
                outward += 1;
            }
        }
        assert!(outward == total, "{outward}/{total} triangles outward");
    }

    #[test]
    fn cuboid_bounds_match_half_extents() {
        let m = TriangleMesh::cuboid(Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0), 2);
        let b = m.bounds();
        assert!((b.min - Vec3::new(-1.0, -2.0, -3.0)).length() < 1e-5);
        assert!((b.max - Vec3::new(1.0, 2.0, 3.0)).length() < 1e-5);
        assert_eq!(m.triangle_count(), 6 * 2 * 2 * 2);
    }

    #[test]
    fn cuboid_total_area_matches_analytic() {
        let (hx, hy, hz) = (1.0f32, 0.5, 2.0);
        let m = TriangleMesh::cuboid(Vec3::ZERO, Vec3::new(hx, hy, hz), 3);
        let area: f32 = (0..m.triangle_count()).map(|t| m.triangle_area(t)).sum();
        let analytic = 8.0 * (hx * hy + hy * hz + hx * hz);
        assert!((area - analytic).abs() < 1e-3, "{area} vs {analytic}");
    }

    #[test]
    fn ground_plane_is_flat() {
        let m = TriangleMesh::ground_plane(-1.5, 10.0, 4);
        assert!(m.positions.iter().all(|p| (p.y + 1.5).abs() < 1e-6));
        assert_eq!(m.triangle_count(), 32);
    }

    #[test]
    fn cylinder_wall_vertices_on_radius() {
        let m = TriangleMesh::cylinder(Vec3::ZERO, 1.5, 2.0, 16);
        // Wall vertices (the first 2*(segments+1)) lie on the radius.
        for p in m.positions.iter().take(2 * 17) {
            let r = Vec3::new(p.x, 0.0, p.z).length();
            assert!((r - 1.5).abs() < 1e-4);
        }
    }

    #[test]
    fn append_rebases_indices() {
        let mut a = TriangleMesh::uv_sphere(Vec3::ZERO, 1.0, 2, 3);
        let b = TriangleMesh::uv_sphere(Vec3::X * 5.0, 1.0, 2, 3);
        let tris_before = a.triangle_count();
        a.append(&b);
        assert_eq!(a.triangle_count(), tris_before * 2);
        let max_index = *a.indices.iter().max().expect("nonempty") as usize;
        assert!(max_index < a.vertex_count());
    }

    #[test]
    fn storage_bytes_positive_for_nonempty() {
        let m = TriangleMesh::uv_sphere(Vec3::ZERO, 1.0, 4, 6);
        assert!(m.storage_bytes() > 0);
        let t = Texture2d::new(16, 16, 8);
        assert_eq!(t.storage_bytes(), 16 * 16 * 8);
    }

    proptest! {
        /// Bilinear sampling never exceeds the texel value range.
        #[test]
        fn prop_bilinear_within_bounds(u in 0f32..=1.0, v in 0f32..=1.0, seed in 0u64..100) {
            let mut rng = uni_geometry::sampling::XorShift64::new(seed + 1);
            let mut t = Texture2d::new(4, 4, 1);
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for y in 0..4 {
                for x in 0..4 {
                    let val = rng.next_f32();
                    lo = lo.min(val);
                    hi = hi.max(val);
                    t.set_texel(x, y, &[val]);
                }
            }
            let mut out = [0f32];
            t.sample_bilinear(Vec2::new(u, v), &mut out);
            prop_assert!(out[0] >= lo - 1e-5 && out[0] <= hi + 1e-5);
        }
    }
}
