//! Scene representations for the Uni-Render reproduction.
//!
//! This crate provides everything "scene": the five dominant scene
//! representations of Tab. I (triangle meshes + texture maps, KiloNeRF-style
//! MLP grids, low-rank decomposed tri-plane grids, multi-level hash grids,
//! and 3D Gaussian clouds), a genuine MLP implementation with Adam training,
//! the analytic field used as baking ground truth, procedural scene
//! specifications, dataset catalogs mirroring the paper's benchmarks, and
//! storage accounting.
//!
//! # Example
//!
//! ```
//! use uni_scene::SceneSpec;
//!
//! let scene = SceneSpec::demo("example", 7).with_detail(0.02).bake();
//! assert!(scene.mesh().triangle_count() > 0);
//! assert!(!scene.gaussians().is_empty());
//! assert!(scene.kilonerf().occupied_cells() > 0);
//! ```

pub mod bake;
pub mod datasets;
pub mod field;
pub mod gaussians;
pub mod hashgrid;
pub mod kilonerf;
pub mod mesh;
pub mod nn;
pub mod storage;
pub mod synthetic;
pub mod triplane;

pub use bake::{BakedScene, FEATURE_CHANNELS};
pub use datasets::{nerf_synthetic, unbounded360, unbounded360_indoor, DatasetScene};
pub use field::{AnalyticField, FieldPrimitive, FieldSample, Shape, SurfaceAttrs, PEAK_DENSITY};
pub use gaussians::{
    Gaussian, GaussianCloud, ProjectedSplat, SplatLanes, SplatProjector, MAX_SH_FLOATS,
};
pub use hashgrid::{HashGrid, HashGridConfig};
pub use kilonerf::{KiloNerfGrid, KiloNerfSample, KiloNerfScratch};
pub use mesh::{Texture2d, TriangleMesh};
pub use nn::{Activation, AdamTrainer, Mlp, MlpScratch, PositionalEncoding};
pub use synthetic::{ReprParams, SceneFlavor, SceneSpec};
pub use triplane::{PlaneAxis, Triplane, TriplaneConfig};
