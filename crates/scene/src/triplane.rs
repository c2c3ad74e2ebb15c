//! Low-rank decomposed grids (MeRF/TensoRF style) — the dominant scene
//! representation of low-rank-decomposed-grid-based pipelines (Sec. II-C).
//!
//! A 3D feature volume is factored into three dense 2D planes (xy, xz, yz
//! projections) plus a low-resolution dense 3D grid; querying a point
//! bilinearly interpolates each plane, trilinearly interpolates the grid,
//! and aggregates across the four sources. The aggregation across planes is
//! what the Decomposed Grid Indexing dataflow's fully-activated reduction
//! network performs (Fig. 12).

use crate::mesh::Texture2d;
use serde::{Deserialize, Serialize};
use uni_geometry::interp::{self, Blend};
use uni_geometry::{Aabb, Vec2, Vec3};

/// Configuration of a low-rank decomposed grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriplaneConfig {
    /// Resolution of each 2D feature plane (texels per axis).
    pub plane_resolution: u32,
    /// Resolution of the low-res 3D grid (vertices per axis).
    pub grid_resolution: u32,
    /// Feature channels (shared by planes and grid).
    pub channels: u32,
}

impl Default for TriplaneConfig {
    /// MeRF-like defaults: 2048² planes + 128³ grid with 8 channels
    /// (density + diffuse RGB + 4 view-dependence features).
    fn default() -> Self {
        Self {
            plane_resolution: 2048,
            grid_resolution: 128,
            channels: 8,
        }
    }
}

impl TriplaneConfig {
    /// A small configuration for tests.
    pub fn tiny() -> Self {
        Self {
            plane_resolution: 32,
            grid_resolution: 8,
            channels: 8,
        }
    }

    /// Storage bytes: three planes + dense grid, 8-bit quantized channels
    /// (the MeRF on-disk format).
    pub fn storage_bytes(&self) -> u64 {
        let plane = u64::from(self.plane_resolution).pow(2) * u64::from(self.channels);
        let grid = u64::from(self.grid_resolution).pow(3) * u64::from(self.channels);
        3 * plane + grid
    }
}

/// The three axis-aligned projection planes, in fetch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlaneAxis {
    /// The xy plane (z projected out).
    Xy,
    /// The xz plane (y projected out).
    Xz,
    /// The yz plane (x projected out).
    Yz,
}

impl PlaneAxis {
    /// All three planes.
    pub const ALL: [PlaneAxis; 3] = [PlaneAxis::Xy, PlaneAxis::Xz, PlaneAxis::Yz];

    /// Projects normalized 3D coordinates onto this plane.
    pub fn project(self, u: Vec3) -> Vec2 {
        match self {
            PlaneAxis::Xy => Vec2::new(u.x, u.y),
            PlaneAxis::Xz => Vec2::new(u.x, u.z),
            PlaneAxis::Yz => Vec2::new(u.y, u.z),
        }
    }
}

/// A low-rank decomposed feature grid over a bounded domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Triplane {
    config: TriplaneConfig,
    bounds: Aabb,
    planes: [Texture2d; 3],
    /// Dense low-res grid, `r³ × channels`, x-fastest.
    grid: Vec<f32>,
}

impl Triplane {
    /// Creates a zero-initialized decomposed grid over `bounds`.
    pub fn new(config: TriplaneConfig, bounds: Aabb) -> Self {
        let planes = [
            Texture2d::new(
                config.plane_resolution,
                config.plane_resolution,
                config.channels,
            ),
            Texture2d::new(
                config.plane_resolution,
                config.plane_resolution,
                config.channels,
            ),
            Texture2d::new(
                config.plane_resolution,
                config.plane_resolution,
                config.channels,
            ),
        ];
        let r = config.grid_resolution as usize;
        Self {
            config,
            bounds,
            planes,
            grid: vec![0.0; r * r * r * config.channels as usize],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TriplaneConfig {
        &self.config
    }

    /// The bounded domain.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Mutable access to one projection plane (baking).
    pub fn plane_mut(&mut self, axis: PlaneAxis) -> &mut Texture2d {
        &mut self.planes[axis as usize]
    }

    /// One projection plane.
    pub fn plane(&self, axis: PlaneAxis) -> &Texture2d {
        &self.planes[axis as usize]
    }

    /// The low-res grid's vertex features, `x`-fastest.
    pub fn grid(&self) -> &[f32] {
        &self.grid
    }

    /// Writes the low-res grid vertex `(x, y, z)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates or channel mismatch.
    pub fn write_grid_vertex(&mut self, x: u32, y: u32, z: u32, features: &[f32]) {
        let r = self.config.grid_resolution;
        assert!(x < r && y < r && z < r, "grid vertex out of range");
        let c = self.config.channels as usize;
        assert_eq!(features.len(), c, "channel mismatch");
        let idx = (((z * r + y) * r + x) as usize) * c;
        self.grid[idx..idx + c].copy_from_slice(features);
    }

    /// Fetches aggregated features for a world-space point: the low-rank
    /// decomposed indexing step of Fig. 4. Per-plane bilinear features and
    /// the trilinear grid features are summed channel-wise (MeRF-style
    /// additive aggregation). Fills `out` (length = channels).
    ///
    /// All three planes share `plane_resolution`, so each axis's plane
    /// cell coordinate is computed once and serves the two planes that
    /// keep that axis. The 3 × 4 plane corners and the 8 grid corners
    /// blend through the wide [`interp::blend_bilinear`] and
    /// [`interp::blend_trilinear`] kernels, in the seed's per-channel order,
    /// so the result is bit-identical to [`Triplane::fetch_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the channel count.
    // uni-lint: hot
    pub fn fetch(&self, world: Vec3, out: &mut [f32]) {
        let c = self.config.channels as usize;
        assert_eq!(out.len(), c, "output width mismatch");
        let u = self.bounds.normalize_point(world).clamp(0.0, 1.0);
        let pres = self.config.plane_resolution.max(2);
        debug_assert!(
            self.planes
                .iter()
                .all(|p| p.width().max(2) == pres && p.height().max(2) == pres),
            "planes must keep the configured resolution"
        );
        let px = interp::cell_coord(u.x, pres);
        let py = interp::cell_coord(u.y, pres);
        let pz = interp::cell_coord(u.z, pres);
        // `PlaneAxis::ALL` order; each pair is the plane's (u, v) axes. The
        // first plane's chain starts at zero, as after `out.fill(0.0)`.
        let mut blend = Blend::FromZero;
        for (plane, (cu, cv)) in self.planes.iter().zip([(px, py), (px, pz), (py, pz)]) {
            let entries = plane.corner_entries(cu.base as u32, cv.base as u32);
            let w = interp::bilinear_weights(cu.frac, cv.frac);
            interp::blend_bilinear(out, plane.data(), entries, w, blend);
            blend = Blend::Accumulate;
        }
        let (entries, w) = self.grid_corners(u);
        interp::blend_trilinear(out, &self.grid, entries, w, Blend::Accumulate);
    }

    /// Seed-era fetch: per-plane cell coordinates and one channel at a
    /// time — the baseline `render_scalar` measures against.
    /// Bit-identical to [`Triplane::fetch`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the channel count.
    pub fn fetch_scalar(&self, world: Vec3, out: &mut [f32]) {
        let c = self.config.channels as usize;
        assert_eq!(out.len(), c, "output width mismatch");
        let u = self.bounds.normalize_point(world).clamp(0.0, 1.0);
        out.fill(0.0);
        for axis in PlaneAxis::ALL {
            let plane = &self.planes[axis as usize];
            let (entries, w) = plane.bilinear_corners(axis.project(u));
            let corners = entries.map(|e| &plane.data()[e * c..(e + 1) * c]);
            for (ch, o) in out.iter_mut().enumerate() {
                *o += corners
                    .iter()
                    .zip(&w)
                    .map(|(t, wi)| t[ch] * wi)
                    .sum::<f32>();
            }
        }
        let (entries, w) = self.grid_corners(u);
        for (&e, &wc) in entries.iter().zip(&w) {
            for (o, &v) in out.iter_mut().zip(&self.grid[e * c..(e + 1) * c]) {
                *o += wc * v;
            }
        }
    }

    /// The entries (indices into the grid in units of `channels`) of the
    /// 8 low-res grid vertices around normalized point `u`, clamped to
    /// the grid, and their weights, in [`interp::trilinear_weights`]
    /// order.
    fn grid_corners(&self, u: Vec3) -> ([usize; 8], [f32; 8]) {
        let r = self.config.grid_resolution;
        let cx = interp::cell_coord(u.x, r);
        let cy = interp::cell_coord(u.y, r);
        let cz = interp::cell_coord(u.z, r);
        let w = interp::trilinear_weights(cx.frac, cy.frac, cz.frac);
        let axis = |c: interp::CellCoord| {
            let b = c.base as u32;
            [b.min(r - 1), (b + 1).min(r - 1)]
        };
        let ([x0, x1], [y0, y1], [z0, z1]) = (axis(cx), axis(cy), axis(cz));
        let entry = |x: u32, y: u32, z: u32| ((z * r + y) * r + x) as usize;
        let entries = [
            entry(x0, y0, z0),
            entry(x1, y0, z0),
            entry(x0, y1, z0),
            entry(x1, y1, z0),
            entry(x0, y0, z1),
            entry(x1, y0, z1),
            entry(x0, y1, z1),
            entry(x1, y1, z1),
        ];
        (entries, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Triplane {
        Triplane::new(TriplaneConfig::tiny(), Aabb::cube(1.0))
    }

    #[test]
    fn plane_projection_axes() {
        let u = Vec3::new(0.1, 0.2, 0.3);
        assert_eq!(PlaneAxis::Xy.project(u), Vec2::new(0.1, 0.2));
        assert_eq!(PlaneAxis::Xz.project(u), Vec2::new(0.1, 0.3));
        assert_eq!(PlaneAxis::Yz.project(u), Vec2::new(0.2, 0.3));
    }

    #[test]
    fn fetch_on_empty_grid_is_zero() {
        let t = tiny();
        let mut out = vec![1.0; 8];
        t.fetch(Vec3::ZERO, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fetch_sums_plane_contributions() {
        let mut t = tiny();
        let res = t.config().plane_resolution;
        // Constant 1.0 in channel 0 of the xy plane; 2.0 in channel 0 of yz.
        for y in 0..res {
            for x in 0..res {
                let mut v = vec![0.0; 8];
                v[0] = 1.0;
                t.plane_mut(PlaneAxis::Xy).set_texel(x, y, &v);
                v[0] = 2.0;
                t.plane_mut(PlaneAxis::Yz).set_texel(x, y, &v);
            }
        }
        let mut out = vec![0.0; 8];
        t.fetch(Vec3::new(0.3, -0.4, 0.5), &mut out);
        assert!(
            (out[0] - 3.0).abs() < 1e-4,
            "1 + 2 aggregated, got {}",
            out[0]
        );
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn grid_contribution_is_trilinear() {
        let mut t = tiny();
        let r = t.config().grid_resolution;
        for z in 0..r {
            for y in 0..r {
                for x in 0..r {
                    let mut v = vec![0.0; 8];
                    // Linear ramp along x in channel 2.
                    v[2] = x as f32 / (r - 1) as f32;
                    t.write_grid_vertex(x, y, z, &v);
                }
            }
        }
        let mut out = vec![0.0; 8];
        // World x = 0 maps to normalized 0.5 on the cube(1) domain.
        t.fetch(Vec3::new(0.0, 0.0, 0.0), &mut out);
        assert!((out[2] - 0.5).abs() < 0.1, "{}", out[2]);
        t.fetch(Vec3::new(1.0, 0.0, 0.0), &mut out);
        assert!((out[2] - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn grid_write_out_of_range_panics() {
        let mut t = tiny();
        t.write_grid_vertex(100, 0, 0, &[0.0; 8]);
    }

    #[test]
    fn storage_matches_merf_scale() {
        let mb = TriplaneConfig::default().storage_bytes() as f64 / 1e6;
        // Tab. I lists <= 160 MB for low-rank-decomposed-grid pipelines.
        assert!(mb > 80.0 && mb <= 160.0, "{mb} MB");
    }

    /// A decomposed grid whose planes and grid hold seeded values in
    /// `[-1, 1)`, with every seventh value `-0.0` and every eleventh `0.0`.
    fn filled(config: TriplaneConfig) -> Triplane {
        let mut t = Triplane::new(config, Aabb::cube(1.0));
        let mut rng = uni_geometry::sampling::XorShift64::new(0x7121);
        let mut k = 0u32;
        let mut next = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| {
                    k += 1;
                    let v = rng.range_f32(-1.0, 1.0);
                    match (k % 7, k % 11) {
                        (0, _) => -0.0,
                        (_, 0) => 0.0,
                        _ => v,
                    }
                })
                .collect()
        };
        let (pr, gr, c) = (
            config.plane_resolution,
            config.grid_resolution,
            config.channels as usize,
        );
        for axis in PlaneAxis::ALL {
            for y in 0..pr {
                for x in 0..pr {
                    t.plane_mut(axis).set_texel(x, y, &next(c));
                }
            }
        }
        for z in 0..gr {
            for y in 0..gr {
                for x in 0..gr {
                    t.write_grid_vertex(x, y, z, &next(c));
                }
            }
        }
        t
    }

    /// The wide fetch is bit-identical to the seed-era per-channel loops:
    /// at seeded interior points, at plane- and grid-cell edges, on the
    /// domain faces and clamped outside it, for 8 channels (one `F32x8`
    /// chunk), 12 (`F32x8` + `F32x4`) and 15 (plus a scalar tail).
    #[test]
    fn fetch_matches_scalar_bit_for_bit() {
        for channels in [8, 12, 15] {
            let config = TriplaneConfig {
                plane_resolution: 16,
                grid_resolution: 5,
                channels,
            };
            let t = filled(config);
            let mut points = vec![
                Vec3::splat(50.0),
                Vec3::splat(-50.0),
                Vec3::new(3.0, -0.2, -7.5),
                Vec3::splat(1.0),
                Vec3::splat(-1.0),
            ];
            // Cell edges: normalized k / (res - 1) on each axis's lattice.
            for res in [config.plane_resolution, config.grid_resolution] {
                for k in 0..res {
                    let e = -1.0 + 2.0 * k as f32 / (res - 1) as f32;
                    points.push(Vec3::new(e, 0.3, -0.6));
                    points.push(Vec3::new(-0.45, e, e));
                }
            }
            let mut rng = uni_geometry::sampling::XorShift64::new(0x1f7);
            for _ in 0..200 {
                points.push(Vec3::new(
                    rng.range_f32(-1.2, 1.2),
                    rng.range_f32(-1.2, 1.2),
                    rng.range_f32(-1.2, 1.2),
                ));
            }
            let mut wide = vec![0.0f32; channels as usize];
            let mut scalar = vec![0.0f32; channels as usize];
            for p in points {
                t.fetch(p, &mut wide);
                t.fetch_scalar(p, &mut scalar);
                for (ch, (a, b)) in wide.iter().zip(&scalar).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{channels} channels, channel {ch} at {p:?}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_clamps() {
        let t = tiny();
        let mut out = vec![0.0; 8];
        t.fetch(Vec3::splat(50.0), &mut out);
        t.fetch(Vec3::splat(-50.0), &mut out);
    }
}
