//! KiloNeRF-style grids of tiny MLPs — the dominant scene representation of
//! MLP-based pipelines (Sec. II-B) at the accuracy/efficiency trade-off the
//! paper benchmarks (KiloNeRF [87]).
//!
//! Space is divided into a coarse cell grid; each occupied cell is served by
//! a tiny MLP queried with positionally-encoded local coordinates. Empty
//! cells short-circuit to zero density (the occupancy skip every fast NeRF
//! implementation relies on).

use crate::field::AnalyticField;
use crate::nn::{Activation, AdamTrainer, Mlp, MlpScratch, PositionalEncoding};
use serde::{Deserialize, Serialize};
use uni_geometry::sampling::XorShift64;
use uni_geometry::{Aabb, Rgb, Vec3};

/// Sentinel for unoccupied cells.
const EMPTY: u32 = u32::MAX;

/// A grid of tiny MLPs over a bounded domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KiloNerfGrid {
    bounds: Aabb,
    resolution: u32,
    /// Cell → MLP index (or `EMPTY`), x-fastest.
    assignment: Vec<u32>,
    /// The distinct trained tiny MLPs (cells share by locality).
    mlps: Vec<Mlp>,
    encoding: PositionalEncoding,
    /// Density scale applied to the network's raw density output.
    peak_density: f32,
}

/// A density + color query result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KiloNerfSample {
    /// Volumetric density.
    pub density: f32,
    /// Radiance.
    pub color: Rgb,
}

impl KiloNerfGrid {
    /// Bakes a grid by distilling the analytic field into tiny MLPs.
    ///
    /// `resolution` is cells per axis; `mlp_count` distinct networks are
    /// trained, shared across occupied cells by spatial block; `hidden` is
    /// the tiny-MLP width; `train_steps` Adam steps per network.
    pub fn bake(
        field: &AnalyticField,
        bounds: Aabb,
        resolution: u32,
        mlp_count: u32,
        hidden: u32,
        train_steps: u32,
        rng: &mut XorShift64,
    ) -> Self {
        assert!(resolution >= 1, "grid needs at least one cell");
        assert!(mlp_count >= 1, "need at least one MLP");
        let encoding = PositionalEncoding::new(6);
        let n = resolution as usize;
        let mut assignment = vec![EMPTY; n * n * n];

        // Occupancy: a cell is occupied when the field is dense at its
        // center or any corner (conservative for thin shells).
        let cell_extent = bounds.extent() * (1.0 / resolution as f32);
        let mut occupied_cells = Vec::new();
        for z in 0..resolution {
            for y in 0..resolution {
                for x in 0..resolution {
                    let base =
                        bounds.min + Vec3::new(x as f32, y as f32, z as f32).mul_elem(cell_extent);
                    let mut dense = false;
                    'probe: for pz in 0..3 {
                        for py in 0..3 {
                            for px in 0..3 {
                                let p = base
                                    + Vec3::new(px as f32 * 0.5, py as f32 * 0.5, pz as f32 * 0.5)
                                        .mul_elem(cell_extent);
                                if field.density(p) > 0.5 {
                                    dense = true;
                                    break 'probe;
                                }
                            }
                        }
                    }
                    if dense {
                        occupied_cells.push((x, y, z));
                    }
                }
            }
        }

        // Assign occupied cells to MLPs by coarse spatial block so each
        // network serves a contiguous region (mirrors KiloNeRF locality).
        let blocks_per_axis = (mlp_count as f32).cbrt().ceil() as u32;
        for &(x, y, z) in &occupied_cells {
            let bx = x * blocks_per_axis / resolution;
            let by = y * blocks_per_axis / resolution;
            let bz = z * blocks_per_axis / resolution;
            let block = (bz * blocks_per_axis + by) * blocks_per_axis + bx;
            let idx = block % mlp_count;
            assignment[((z as usize * n) + y as usize) * n + x as usize] = idx;
        }

        // Train each network on samples drawn from its cells.
        let in_dim = encoding.out_dim();
        let h = hidden as usize;
        let mut mlps = Vec::with_capacity(mlp_count as usize);
        let peak = 40.0f32;
        for mlp_idx in 0..mlp_count {
            // KiloNeRF tiny-MLP shape: three hidden layers of `hidden`.
            let mut mlp = Mlp::new(
                &[in_dim, h, h, h, 4],
                Activation::Relu,
                Activation::Linear,
                rng,
            );
            let my_cells: Vec<(u32, u32, u32)> = occupied_cells
                .iter()
                .copied()
                .filter(|&(x, y, z)| {
                    assignment[((z as usize * n) + y as usize) * n + x as usize] == mlp_idx
                })
                .collect();
            if !my_cells.is_empty() {
                let mut trainer = AdamTrainer::new(&mlp, 4e-3);
                let batch = 48;
                let mut inputs = uni_geometry::FlatMat::with_row_capacity(batch, in_dim);
                let mut targets = uni_geometry::FlatMat::with_row_capacity(batch, 4);
                for _ in 0..train_steps {
                    inputs.clear_rows();
                    targets.clear_rows();
                    for _ in 0..batch {
                        let &(x, y, z) = &my_cells[rng.next_usize(my_cells.len())];
                        let local = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
                        let world = bounds.min
                            + (Vec3::new(x as f32, y as f32, z as f32) + local)
                                .mul_elem(cell_extent);
                        let s = field.sample(world, Vec3::Z);
                        inputs.push_row(&encoding.encode(local * 2.0 - Vec3::ONE));
                        targets.push_row(&[s.density / peak, s.color.r, s.color.g, s.color.b]);
                    }
                    trainer.train_step(&mut mlp, &inputs, &targets);
                }
            }
            mlps.push(mlp);
        }

        Self {
            bounds,
            resolution,
            assignment,
            mlps,
            encoding,
            peak_density: peak,
        }
    }

    /// The bounded domain.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Cells per axis.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// The distinct tiny MLPs.
    pub fn mlps(&self) -> &[Mlp] {
        &self.mlps
    }

    /// The positional encoding applied to local coordinates.
    pub fn encoding(&self) -> &PositionalEncoding {
        &self.encoding
    }

    /// Per-cell MLP index (`u32::MAX` marks an empty cell).
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of occupied cells.
    pub fn occupied_cells(&self) -> usize {
        self.assignment.iter().filter(|&&a| a != EMPTY).count()
    }

    /// Fraction of cells occupied.
    pub fn occupancy(&self) -> f64 {
        self.occupied_cells() as f64 / self.assignment.len() as f64
    }

    /// Storage bytes: assignment table + BF16 weights of the full KiloNeRF
    /// complement (every occupied cell conceptually owns a network of this
    /// size; shared training is a baking shortcut, not a storage saving).
    pub fn storage_bytes(&self) -> u64 {
        let per_mlp = self.mlps.first().map_or(0, |m| m.weight_bytes());
        self.assignment.len() as u64 * 4 + self.occupied_cells() as u64 * per_mlp
    }

    /// The MLP index serving `world`, or `None` for empty space.
    pub fn mlp_index_at(&self, world: Vec3) -> Option<u32> {
        self.mlp_index_of(self.bounds.normalize_point(world))
    }

    /// [`KiloNerfGrid::mlp_index_at`] for a point already normalized to
    /// the grid bounds.
    fn mlp_index_of(&self, u: Vec3) -> Option<u32> {
        if !(0.0..1.0 + 1e-6).contains(&u.x)
            || !(0.0..1.0 + 1e-6).contains(&u.y)
            || !(0.0..1.0 + 1e-6).contains(&u.z)
        {
            return None;
        }
        let n = self.resolution;
        let cell = |v: f32| ((v * n as f32) as u32).min(n - 1);
        let (x, y, z) = (cell(u.x), cell(u.y), cell(u.z));
        let a = self.assignment[((z as usize * n as usize) + y as usize) * n as usize + x as usize];
        (a != EMPTY).then_some(a)
    }

    /// Queries density and color at a world point (`None` in empty cells —
    /// the occupancy skip).
    ///
    /// Seed-era reference path: allocates per query and runs the scalar
    /// row-dot MLP kernel, so the `render_scalar` baselines keep
    /// measuring the seed's cost. Hot paths use
    /// [`KiloNerfGrid::query_scratch`], which runs the wide kernel.
    pub fn query(&self, world: Vec3) -> Option<KiloNerfSample> {
        let u = self.bounds.normalize_point(world);
        let mlp_idx = self.mlp_index_of(u)?;
        let local = self.local_coords(u);
        let encoded = self.encoding.encode(local);
        let out = self.mlps[mlp_idx as usize].forward_scalar(&encoded);
        Some(self.sample_from(&out))
    }

    /// Like [`KiloNerfGrid::query`], but encoding and MLP activations go
    /// through caller-owned scratch so per-sample queries never allocate.
    pub fn query_scratch(
        &self,
        world: Vec3,
        scratch: &mut KiloNerfScratch,
    ) -> Option<KiloNerfSample> {
        let u = self.bounds.normalize_point(world);
        let mlp_idx = self.mlp_index_of(u)?;
        let local = self.local_coords(u);
        self.encoding.encode_into(local, &mut scratch.encoded);
        let out = self.mlps[mlp_idx as usize].forward_scratch(&scratch.encoded, &mut scratch.mlp);
        Some(self.sample_from(out))
    }

    /// Cell-local coordinates in `[-1, 1]` for a point normalized to the
    /// grid bounds.
    fn local_coords(&self, u: Vec3) -> Vec3 {
        let n = self.resolution as f32;
        Vec3::new((u.x * n).fract(), (u.y * n).fract(), (u.z * n).fract()) * 2.0 - Vec3::ONE
    }

    /// Density/color from a raw 4-wide network output.
    fn sample_from(&self, out: &[f32]) -> KiloNerfSample {
        KiloNerfSample {
            density: out[0].max(0.0) * self.peak_density,
            color: Rgb::new(
                out[1].clamp(0.0, 1.0),
                out[2].clamp(0.0, 1.0),
                out[3].clamp(0.0, 1.0),
            ),
        }
    }
}

/// Reusable buffers for [`KiloNerfGrid::query_scratch`].
#[derive(Debug, Clone, Default)]
pub struct KiloNerfScratch {
    encoded: Vec<f32>,
    mlp: MlpScratch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{FieldPrimitive, Shape};

    fn small_grid() -> KiloNerfGrid {
        let field = AnalyticField::new(vec![FieldPrimitive {
            shape: Shape::Sphere {
                center: Vec3::ZERO,
                radius: 0.8,
            },
            albedo: Rgb::new(0.9, 0.1, 0.1),
            specular: 0.0,
        }]);
        let mut rng = XorShift64::new(5);
        KiloNerfGrid::bake(&field, Aabb::cube(1.5), 4, 2, 16, 60, &mut rng)
    }

    #[test]
    fn occupancy_is_partial_for_a_sphere() {
        let g = small_grid();
        let occ = g.occupancy();
        assert!(occ > 0.05 && occ < 0.9, "sphere fills some cells: {occ}");
    }

    #[test]
    fn empty_space_short_circuits() {
        let g = small_grid();
        assert!(
            g.query(Vec3::new(1.4, 1.4, 1.4)).is_none(),
            "corner is empty"
        );
        assert!(g.query(Vec3::splat(10.0)).is_none(), "outside bounds");
    }

    #[test]
    fn interior_queries_return_density() {
        let g = small_grid();
        let s = g.query(Vec3::ZERO).expect("center occupied");
        assert!(s.density > 5.0, "trained density at center: {}", s.density);
        assert!(s.color.r >= 0.0 && s.color.r <= 1.0);
    }

    #[test]
    fn training_learns_the_red_sphere() {
        let g = small_grid();
        let s = g.query(Vec3::new(0.0, 0.0, 0.6)).expect("inside sphere");
        assert!(
            s.color.r > s.color.b,
            "red channel should dominate: {:?}",
            s.color
        );
    }

    #[test]
    fn baking_is_deterministic() {
        let a = small_grid();
        let b = small_grid();
        assert_eq!(a.occupied_cells(), b.occupied_cells());
        let (pa, pb) = (
            a.query(Vec3::ZERO).expect("occupied"),
            b.query(Vec3::ZERO).expect("occupied"),
        );
        assert_eq!(pa.density, pb.density);
    }

    #[test]
    fn storage_counts_occupied_cells() {
        let g = small_grid();
        let per_mlp = g.mlps()[0].weight_bytes();
        assert_eq!(
            g.storage_bytes(),
            (4 * 4 * 4) * 4 + g.occupied_cells() as u64 * per_mlp
        );
    }

    #[test]
    fn mlp_index_consistent_within_cell() {
        let g = small_grid();
        let a = g.mlp_index_at(Vec3::new(0.01, 0.01, 0.01));
        let b = g.mlp_index_at(Vec3::new(0.02, 0.02, 0.02));
        assert_eq!(a, b, "same cell, same network");
    }
}
