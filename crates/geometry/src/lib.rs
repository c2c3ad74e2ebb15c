//! Geometric math substrate for the Uni-Render reproduction.
//!
//! This crate provides the linear algebra, ray geometry, camera, color,
//! spherical-harmonics, interpolation, and sampling primitives that every
//! neural rendering pipeline in the workspace is built on. It is
//! self-contained (no external math crates) so the whole reproduction can be
//! audited end to end.
//!
//! # Example
//!
//! ```
//! use uni_geometry::{Camera, Vec3};
//!
//! let camera = Camera::look_at(
//!     Vec3::new(0.0, 0.0, 4.0),
//!     Vec3::ZERO,
//!     Vec3::Y,
//!     60f32.to_radians(),
//!     640,
//!     480,
//! );
//! let ray = camera.primary_ray(320.5, 240.5);
//! assert!(ray.direction.dot(Vec3::new(0.0, 0.0, -1.0)) > 0.99);
//! ```

pub mod aabb;
pub mod camera;
pub mod color;
pub mod fmath;
pub mod interp;
pub mod mat;
pub mod ray;
pub mod sampling;
pub mod sh;
pub mod vec;
pub mod wide;

pub use aabb::Aabb;
pub use camera::{Camera, Orbit, RayGenerator};
pub use color::{Image, Rgb, Rgba};
pub use interp::{bilinear_weights, trilinear_weights};
pub use mat::{FlatMat, Mat3, Mat4};
pub use ray::Ray;
pub use sampling::StratifiedSampler;
pub use vec::{Vec2, Vec3, Vec4};
pub use wide::{F32x4, F32x8};
