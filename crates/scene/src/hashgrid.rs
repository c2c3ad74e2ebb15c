//! Multi-level hash grids (Instant-NGP style) — the dominant scene
//! representation of hash-grid-based pipelines (Sec. II-D).
//!
//! A set of multi-level 3D grids is stored in 1D hash-table format; vertex
//! coordinates map to table slots through a fixed spatial hash, collisions
//! allowed. Coarse levels whose dense vertex count fits in the table are
//! indexed *linearly* instead — which is exactly why Tab. II lists both
//! `Random Hash` and `Linear Indexing` as index functions of the Combined
//! Grid Indexing micro-operator.

use serde::{Deserialize, Serialize};
use uni_geometry::interp::{self, Blend};
use uni_geometry::{Aabb, Vec3};

/// The Instant-NGP hash primes.
const PRIMES: [u64; 3] = [1, 2_654_435_761, 805_459_861];

/// Precomputed per-level indexing metadata.
///
/// `level_resolution` costs an `ln`/`exp` pair per call; the seed paid it
/// (plus the dense test, another pair) for each of 8 corners on each of
/// `L` levels on *every* fetch. The values depend only on the config, so
/// they are computed once in [`HashGrid::new`] and read here ever after —
/// bit-identical to the seed's per-call math.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct LevelMeta {
    /// Vertices per axis: `level_resolution(l) + 1` (also the linear
    /// stride base of dense levels).
    verts: u32,
    /// Whether the level is indexed linearly (dense) or hashed.
    dense: bool,
    /// This level's segment in the flat feature buffer:
    /// `tables[start..start + len]`.
    start: usize,
    len: usize,
}

/// Configuration of a multi-level hash grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashGridConfig {
    /// Number of resolution levels (`L`).
    pub levels: u32,
    /// Feature channels per table entry (`F`).
    pub features_per_entry: u32,
    /// Log2 of the per-level table size (`T = 2^log2_table_size`).
    pub log2_table_size: u32,
    /// Coarsest grid resolution (vertices per axis).
    pub base_resolution: u32,
    /// Finest grid resolution (vertices per axis).
    pub max_resolution: u32,
}

impl Default for HashGridConfig {
    /// The canonical Instant-NGP configuration (L=16, T=2^19, base 16,
    /// max 2048), with F=4 — we store `[density, r, g, b]` per entry so the
    /// baked grid carries full appearance (the F=2→4 delta is documented in
    /// DESIGN.md).
    fn default() -> Self {
        Self {
            levels: 16,
            features_per_entry: 4,
            log2_table_size: 19,
            base_resolution: 16,
            max_resolution: 2048,
        }
    }
}

impl HashGridConfig {
    /// A small configuration for tests (fast to bake and query).
    pub fn tiny() -> Self {
        Self {
            levels: 4,
            features_per_entry: 4,
            log2_table_size: 12,
            base_resolution: 4,
            max_resolution: 64,
        }
    }

    /// Table entries per level.
    pub fn table_size(&self) -> u64 {
        1u64 << self.log2_table_size
    }

    /// Vertex resolution of level `l` (geometric growth from base to max).
    pub fn level_resolution(&self, l: u32) -> u32 {
        assert!(l < self.levels, "level out of range");
        if self.levels == 1 {
            return self.base_resolution;
        }
        let b = ((self.max_resolution as f64).ln() - (self.base_resolution as f64).ln())
            / (self.levels - 1) as f64;
        (self.base_resolution as f64 * (b * l as f64).exp()).round() as u32
    }

    /// Whether level `l` fits densely in the table (linear indexing).
    pub fn level_is_dense(&self, l: u32) -> bool {
        let r = self.level_resolution(l) as u64 + 1;
        r * r * r <= self.table_size()
    }

    /// Total feature storage bytes (BF16 entries).
    pub fn storage_bytes(&self) -> u64 {
        let mut total = 0u64;
        for l in 0..self.levels {
            let r = self.level_resolution(l) as u64 + 1;
            let entries = (r * r * r).min(self.table_size());
            total += entries * u64::from(self.features_per_entry) * 2;
        }
        total
    }

    /// Concatenated feature width (`L × F`).
    pub fn feature_dim(&self) -> u32 {
        self.levels * self.features_per_entry
    }
}

/// A multi-level hash grid over a bounded domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HashGrid {
    config: HashGridConfig,
    bounds: Aabb,
    /// Every level's feature table in **one** flat allocation; level `l`
    /// owns the `level_meta[l].start..+len` segment (`table_len × F`
    /// floats each — dense levels use only their `resolution³ × F`
    /// prefix).
    tables: Vec<f32>,
    /// Per-level resolution/stride/indexing metadata, hoisted out of the
    /// fetch and probe hot loops.
    level_meta: Vec<LevelMeta>,
    /// `table_size() - 1`, the hashed-level slot mask.
    hash_mask: u64,
    /// Cached [`HashGrid::finest_dense_level`].
    finest_dense: u32,
}

impl HashGrid {
    /// Creates a zero-initialized grid over `bounds`.
    pub fn new(config: HashGridConfig, bounds: Aabb) -> Self {
        let mut start = 0usize;
        let level_meta: Vec<LevelMeta> = (0..config.levels)
            .map(|l| {
                let verts = config.level_resolution(l) + 1;
                let r = u64::from(verts);
                let entries = (r * r * r).min(config.table_size());
                let len = (entries * u64::from(config.features_per_entry)) as usize;
                let meta = LevelMeta {
                    verts,
                    dense: config.level_is_dense(l),
                    start,
                    len,
                };
                start += len;
                meta
            })
            .collect();
        let tables = vec![0.0; start];
        let finest_dense = (0..config.levels)
            .rev()
            .find(|&l| level_meta[l as usize].dense)
            .unwrap_or(0);
        Self {
            config,
            bounds,
            tables,
            level_meta,
            hash_mask: config.table_size() - 1,
            finest_dense,
        }
    }

    /// The grid configuration.
    pub fn config(&self) -> &HashGridConfig {
        &self.config
    }

    /// The bounded domain.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Every level's feature table, in one flat buffer.
    pub fn tables(&self) -> &[f32] {
        &self.tables
    }

    /// Level `l`'s segment of the flat feature buffer.
    fn table(&self, l: usize) -> &[f32] {
        let m = &self.level_meta[l];
        &self.tables[m.start..m.start + m.len]
    }

    /// Mutable view of level `l`'s segment (baking).
    fn table_mut(&mut self, l: usize) -> &mut [f32] {
        let m = &self.level_meta[l];
        &mut self.tables[m.start..m.start + m.len]
    }

    /// Slot index of vertex `(x, y, z)` at level `l`: linear for dense
    /// levels, spatial hash otherwise.
    // uni-lint: hot
    pub fn slot(&self, l: u32, x: u32, y: u32, z: u32) -> usize {
        let m = self.level_meta[l as usize];
        if m.dense {
            let res = u64::from(m.verts);
            ((u64::from(z) * res + u64::from(y)) * res + u64::from(x)) as usize
        } else {
            let h = u64::from(x).wrapping_mul(PRIMES[0])
                ^ u64::from(y).wrapping_mul(PRIMES[1])
                ^ u64::from(z).wrapping_mul(PRIMES[2]);
            (h & self.hash_mask) as usize
        }
    }

    /// Seed-era slot computation: recomputes the level resolution and
    /// dense test (two `ln`/`exp` pairs) per call, exactly as the seed
    /// did. Kept so the `*_scalar` baselines keep measuring the seed's
    /// per-call cost.
    fn slot_uncached(&self, l: u32, x: u32, y: u32, z: u32) -> usize {
        let res = self.config.level_resolution(l) as u64 + 1;
        if self.config.level_is_dense(l) {
            ((u64::from(z) * res + u64::from(y)) * res + u64::from(x)) as usize
        } else {
            let h = u64::from(x).wrapping_mul(PRIMES[0])
                ^ u64::from(y).wrapping_mul(PRIMES[1])
                ^ u64::from(z).wrapping_mul(PRIMES[2]);
            (h & (self.config.table_size() - 1)) as usize
        }
    }

    /// All 8 corner slots of the cell at `(x0, y0, z0)` on level `l` in
    /// one batch: dense levels are pure stride adds off one linear base,
    /// hashed levels XOR-combine two precomputed products per axis —
    /// corner order matches the trilinear weight order (x fastest).
    #[inline]
    // uni-lint: hot
    fn corner_slots(&self, l: usize, x0: u32, y0: u32, z0: u32) -> [usize; 8] {
        let m = self.level_meta[l];
        if m.dense {
            let v = u64::from(m.verts);
            let base = (u64::from(z0) * v + u64::from(y0)) * v + u64::from(x0);
            [
                base,
                base + 1,
                base + v,
                base + v + 1,
                base + v * v,
                base + v * v + 1,
                base + v * v + v,
                base + v * v + v + 1,
            ]
            .map(|s| s as usize)
        } else {
            let hx = [
                u64::from(x0).wrapping_mul(PRIMES[0]),
                u64::from(x0 + 1).wrapping_mul(PRIMES[0]),
            ];
            let hy = [
                u64::from(y0).wrapping_mul(PRIMES[1]),
                u64::from(y0 + 1).wrapping_mul(PRIMES[1]),
            ];
            let hz = [
                u64::from(z0).wrapping_mul(PRIMES[2]),
                u64::from(z0 + 1).wrapping_mul(PRIMES[2]),
            ];
            let mut slots = [0usize; 8];
            for (c, s) in slots.iter_mut().enumerate() {
                let h = hx[c & 1] ^ hy[(c >> 1) & 1] ^ hz[(c >> 2) & 1];
                *s = (h & self.hash_mask) as usize;
            }
            slots
        }
    }

    /// Writes the features of vertex `(x, y, z)` at level `l` (baking).
    ///
    /// # Panics
    ///
    /// Panics on feature-width mismatch.
    pub fn write_vertex(&mut self, l: u32, x: u32, y: u32, z: u32, features: &[f32]) {
        let f = self.config.features_per_entry as usize;
        assert_eq!(features.len(), f, "feature width mismatch");
        let slot = self.slot(l, x, y, z) * f;
        self.table_mut(l as usize)[slot..slot + f].copy_from_slice(features);
    }

    /// Reads the features of vertex `(x, y, z)` at level `l`.
    pub fn read_vertex(&self, l: u32, x: u32, y: u32, z: u32) -> &[f32] {
        let f = self.config.features_per_entry as usize;
        let slot = self.slot(l, x, y, z) * f;
        &self.table(l as usize)[slot..slot + f]
    }

    /// The finest dense (collision-free) level, used as the occupancy
    /// proxy by fast ray marchers (Instant-NGP keeps an equivalent
    /// occupancy grid next to its hash tables).
    pub fn finest_dense_level(&self) -> u32 {
        self.finest_dense
    }

    /// Cheap occupancy probe: trilinear density (channel 0) of the finest
    /// dense level only — one level instead of `L`, one channel instead of
    /// `F`. Corner slots come in one stride-add batch off the cached
    /// level metadata; the accumulation order matches the seed exactly.
    // uni-lint: hot
    pub fn density_probe(&self, world: Vec3) -> f32 {
        let l = self.finest_dense as usize;
        let u = self.bounds.normalize_point(world).clamp(0.0, 1.0);
        let verts = self.level_meta[l].verts;
        let cx = interp::cell_coord(u.x, verts);
        let cy = interp::cell_coord(u.y, verts);
        let cz = interp::cell_coord(u.z, verts);
        let w = interp::trilinear_weights(cx.frac, cy.frac, cz.frac);
        let slots = self.corner_slots(l, cx.base as u32, cy.base as u32, cz.base as u32);
        let table = self.table(l);
        let f = self.config.features_per_entry as usize;
        let mut acc = 0.0;
        for (&slot, &wc) in slots.iter().zip(&w) {
            acc += wc * table[slot * f];
        }
        acc
    }

    /// Seed-era probe: rediscovers the finest dense level and recomputes
    /// per-corner slots through the uncached `ln`/`exp` path on every
    /// call — the baseline `render_scalar` measures against.
    pub fn density_probe_scalar(&self, world: Vec3) -> f32 {
        let l = (0..self.config.levels)
            .rev()
            .find(|&l| self.config.level_is_dense(l))
            .unwrap_or(0);
        let u = self.bounds.normalize_point(world).clamp(0.0, 1.0);
        let res = self.config.level_resolution(l) + 1;
        let cx = interp::cell_coord(u.x, res);
        let cy = interp::cell_coord(u.y, res);
        let cz = interp::cell_coord(u.z, res);
        let w = interp::trilinear_weights(cx.frac, cy.frac, cz.frac);
        let (x0, y0, z0) = (cx.base as u32, cy.base as u32, cz.base as u32);
        let f = self.config.features_per_entry as usize;
        let mut acc = 0.0;
        for (corner, &wc) in w.iter().enumerate() {
            let x = x0 + (corner as u32 & 1);
            let y = y0 + ((corner as u32 >> 1) & 1);
            let z = z0 + ((corner as u32 >> 2) & 1);
            let slot = self.slot_uncached(l, x, y, z) * f;
            acc += wc * self.table(l as usize)[slot];
        }
        acc
    }

    /// Fetches the concatenated trilinearly-interpolated features for a
    /// world-space point: the hash-indexing step of Fig. 5. Fills `out`
    /// (length `L × F`).
    ///
    /// Per level, the 8 corner slots are computed in one batch from the
    /// cached metadata and the `F` feature channels blend through the
    /// wide [`interp::blend_trilinear`] kernel. Corner order and
    /// per-channel accumulation order are the seed's, so the result is
    /// bit-identical to [`HashGrid::fetch_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != feature_dim()`.
    // uni-lint: hot
    pub fn fetch(&self, world: Vec3, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.config.feature_dim() as usize,
            "output width mismatch"
        );
        let u = self.bounds.normalize_point(world).clamp(0.0, 1.0);
        let f = self.config.features_per_entry as usize;
        for (l, m) in self.level_meta.iter().enumerate() {
            let cx = interp::cell_coord(u.x, m.verts);
            let cy = interp::cell_coord(u.y, m.verts);
            let cz = interp::cell_coord(u.z, m.verts);
            let w = interp::trilinear_weights(cx.frac, cy.frac, cz.frac);
            let slots = self.corner_slots(l, cx.base as u32, cy.base as u32, cz.base as u32);
            let dst = &mut out[l * f..(l + 1) * f];
            interp::blend_trilinear(dst, self.table(l), slots, w, Blend::FromZero);
        }
    }

    /// Seed-era fetch: per-call `ln`/`exp` level resolutions and one
    /// corner at a time — the baseline `render_scalar` measures against.
    /// Bit-identical to [`HashGrid::fetch`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != feature_dim()`.
    pub fn fetch_scalar(&self, world: Vec3, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.config.feature_dim() as usize,
            "output width mismatch"
        );
        let u = self.bounds.normalize_point(world).clamp(0.0, 1.0);
        let f = self.config.features_per_entry as usize;
        for l in 0..self.config.levels {
            let res = self.config.level_resolution(l) + 1;
            let cx = interp::cell_coord(u.x, res);
            let cy = interp::cell_coord(u.y, res);
            let cz = interp::cell_coord(u.z, res);
            let w = interp::trilinear_weights(cx.frac, cy.frac, cz.frac);
            let (x0, y0, z0) = (cx.base as u32, cy.base as u32, cz.base as u32);
            let dst = &mut out[l as usize * f..(l as usize + 1) * f];
            dst.fill(0.0);
            for (corner, &wc) in w.iter().enumerate() {
                let x = x0 + (corner as u32 & 1);
                let y = y0 + ((corner as u32 >> 1) & 1);
                let z = z0 + ((corner as u32 >> 2) & 1);
                let slot = self.slot_uncached(l, x, y, z) * f;
                let feats = &self.table(l as usize)[slot..slot + f];
                for (d, &v) in dst.iter_mut().zip(feats) {
                    *d += wc * v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny_grid() -> HashGrid {
        HashGrid::new(HashGridConfig::tiny(), Aabb::cube(1.0))
    }

    #[test]
    fn level_resolutions_grow_geometrically() {
        let c = HashGridConfig::default();
        assert_eq!(c.level_resolution(0), 16);
        assert_eq!(c.level_resolution(15), 2048);
        for l in 1..c.levels {
            assert!(c.level_resolution(l) >= c.level_resolution(l - 1));
        }
    }

    #[test]
    fn coarse_levels_are_dense_fine_levels_hashed() {
        let c = HashGridConfig::default();
        assert!(c.level_is_dense(0), "16^3 < 2^19");
        assert!(!c.level_is_dense(15), "2048^3 > 2^19");
        // Both index functions of Tab. II are exercised by one grid.
        let dense_count = (0..c.levels).filter(|&l| c.level_is_dense(l)).count();
        assert!(dense_count >= 1 && dense_count < c.levels as usize);
    }

    #[test]
    fn slot_is_in_table_range() {
        let g = tiny_grid();
        for l in 0..g.config().levels {
            let res = g.config().level_resolution(l) + 1;
            for &(x, y, z) in &[(0, 0, 0), (res - 1, res - 1, res - 1), (1, 2, 3)] {
                let s = g.slot(l, x.min(res - 1), y.min(res - 1), z.min(res - 1));
                assert!(s < g.table(l as usize).len() / 4);
            }
        }
    }

    #[test]
    fn write_then_fetch_at_vertex_returns_features() {
        let mut g = tiny_grid();
        // Write identical features to every vertex of level 0 so
        // interpolation is exact regardless of position.
        let res = g.config().level_resolution(0) + 1;
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    g.write_vertex(0, x, y, z, &[1.0, 2.0, 3.0, 4.0]);
                }
            }
        }
        let mut out = vec![0.0; g.config().feature_dim() as usize];
        g.fetch(Vec3::new(0.1, -0.2, 0.4), &mut out);
        assert!((out[0] - 1.0).abs() < 1e-5);
        assert!((out[3] - 4.0).abs() < 1e-5);
        // Other levels stay zero.
        assert_eq!(out[4], 0.0);
    }

    #[test]
    fn fetch_interpolates_between_vertices() {
        let mut g = HashGrid::new(
            HashGridConfig {
                levels: 1,
                features_per_entry: 1,
                log2_table_size: 10,
                base_resolution: 1,
                max_resolution: 1,
            },
            Aabb::new(Vec3::ZERO, Vec3::ONE),
        );
        // Level 0 resolution 1 -> 2 vertices per axis (res+1).
        g.write_vertex(0, 1, 0, 0, &[1.0]);
        let mut out = [0f32];
        g.fetch(Vec3::new(0.5, 0.0, 0.0), &mut out);
        assert!((out[0] - 0.5).abs() < 1e-5, "{}", out[0]);
        g.fetch(Vec3::new(0.25, 0.0, 0.0), &mut out);
        assert!((out[0] - 0.25).abs() < 1e-5);
    }

    #[test]
    fn hash_collisions_share_slots() {
        let c = HashGridConfig {
            levels: 1,
            features_per_entry: 1,
            log2_table_size: 4, // 16 slots, far fewer than vertices.
            base_resolution: 64,
            max_resolution: 64,
        };
        let g = HashGrid::new(c, Aabb::cube(1.0));
        assert!(!c.level_is_dense(0));
        // Pigeonhole: some pair of distinct vertices must collide.
        let mut seen = std::collections::HashMap::new();
        let mut collided = false;
        for x in 0..30u32 {
            let s = g.slot(0, x, 0, 0);
            if seen.insert(s, x).is_some() {
                collided = true;
                break;
            }
        }
        assert!(collided, "16-slot table must collide within 30 vertices");
    }

    #[test]
    fn out_of_bounds_points_clamp() {
        let g = tiny_grid();
        let mut out = vec![0.0; g.config().feature_dim() as usize];
        g.fetch(Vec3::splat(100.0), &mut out); // Must not panic.
        g.fetch(Vec3::splat(-100.0), &mut out);
    }

    #[test]
    fn storage_accounts_dense_levels_smaller() {
        let c = HashGridConfig::default();
        let dense0 = (c.level_resolution(0) as u64 + 1).pow(3);
        assert!(dense0 < c.table_size());
        // Total must be less than L * T * F * 2 because dense levels are
        // stored at their true size.
        assert!(c.storage_bytes() < u64::from(c.levels) * c.table_size() * 4 * 2);
        // Default config lands near the ~110 MB hash-grid storage of Tab. I
        // when combined with the occupancy/scaffold overhead counted in
        // `storage::hash_grid_bytes`.
        let mb = c.storage_bytes() as f64 / 1e6;
        assert!(mb > 30.0 && mb < 120.0, "{mb} MB");
    }

    /// Populates every level of a grid with deterministic junk so parity
    /// tests see non-trivial values on both dense and hashed levels.
    fn filled_grid(config: HashGridConfig) -> HashGrid {
        let mut g = HashGrid::new(config, Aabb::cube(1.0));
        let f = config.features_per_entry as usize;
        for l in 0..config.levels {
            let res = (config.level_resolution(l) + 1).min(9);
            for z in 0..res {
                for y in 0..res {
                    for x in 0..res {
                        let feats: Vec<f32> = (0..f)
                            .map(|c| {
                                ((x * 7 + y * 3 + z * 5 + c as u32 * 11 + l) % 13) as f32 * 0.17
                                    - 0.5
                            })
                            .collect();
                        g.write_vertex(l, x, y, z, &feats);
                    }
                }
            }
        }
        g
    }

    /// The cached-metadata fetch/probe are bit-identical to the seed-era
    /// scalar twins (same corner order, same accumulation chains), on the
    /// default F=4 config (one `F32x4` chunk) and on an F=2 config (the
    /// kernel's scalar tail).
    #[test]
    fn cached_fetch_and_probe_match_scalar_bit_for_bit() {
        for config in [
            HashGridConfig::tiny(),
            HashGridConfig {
                levels: 3,
                features_per_entry: 2,
                log2_table_size: 8,
                base_resolution: 2,
                max_resolution: 32,
            },
        ] {
            let g = filled_grid(config);
            let mut fast = vec![0.0f32; config.feature_dim() as usize];
            let mut slow = vec![0.0f32; config.feature_dim() as usize];
            for p in [
                Vec3::new(0.13, -0.41, 0.77),
                Vec3::new(-0.99, 0.5, 0.01),
                Vec3::splat(0.0),
                Vec3::splat(5.0), // clamped
            ] {
                g.fetch(p, &mut fast);
                g.fetch_scalar(p, &mut slow);
                for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "F={} feature {i} at {p:?}",
                        config.features_per_entry
                    );
                }
                assert_eq!(
                    g.density_probe(p).to_bits(),
                    g.density_probe_scalar(p).to_bits(),
                    "probe at {p:?}"
                );
            }
        }
    }

    /// The cached finest dense level and slot metadata agree with the
    /// uncached config math they were hoisted from.
    #[test]
    fn cached_metadata_matches_config_math() {
        for config in [HashGridConfig::default(), HashGridConfig::tiny()] {
            let g = HashGrid::new(config, Aabb::cube(1.0));
            assert_eq!(
                g.finest_dense_level(),
                (0..config.levels)
                    .rev()
                    .find(|&l| config.level_is_dense(l))
                    .unwrap_or(0)
            );
            for l in 0..config.levels {
                for &(x, y, z) in &[(0u32, 0u32, 0u32), (1, 2, 3), (5, 0, 7)] {
                    assert_eq!(g.slot(l, x, y, z), g.slot_uncached(l, x, y, z), "level {l}");
                }
            }
        }
    }

    proptest! {
        /// Fetched features are convex combinations of written vertex
        /// features, hence bounded by the written range.
        #[test]
        fn prop_fetch_bounded_by_range(px in -1f32..1.0, py in -1f32..1.0, pz in -1f32..1.0) {
            let mut g = tiny_grid();
            let res = g.config().level_resolution(1) + 1;
            for z in 0..res {
                for y in 0..res {
                    for x in 0..res {
                        let v = ((x + y + z) % 5) as f32;
                        g.write_vertex(1, x, y, z, &[v, v, v, v]);
                    }
                }
            }
            let mut out = vec![0.0; g.config().feature_dim() as usize];
            g.fetch(Vec3::new(px, py, pz), &mut out);
            let f = g.config().features_per_entry as usize;
            for &v in &out[f..2 * f] {
                prop_assert!((-1e-4..=4.0001).contains(&v));
            }
        }

        /// Slots are deterministic.
        #[test]
        fn prop_slot_deterministic(x in 0u32..64, y in 0u32..64, z in 0u32..64) {
            let g = tiny_grid();
            let l = g.config().levels - 1;
            prop_assert_eq!(g.slot(l, x, y, z), g.slot(l, x, y, z));
        }
    }
}
