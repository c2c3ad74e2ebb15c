//! Interpolation helpers: nearest, bilinear, trilinear weights.
//!
//! The grid-indexing micro-operators (Combined/Decomposed Grid Indexing,
//! Tab. II) reduce fetched features with exactly these weights; the hardware
//! reduction network evaluates them as weighted adder trees (Figs. 11-12),
//! so keeping the math here shared guarantees the functional renderer and
//! the accelerator model agree on counts and values. [`blend_bilinear`]
//! and [`blend_trilinear`] are the one wide corner-blend kernel pair every
//! dense feature fetch (tri-plane, texture, hash grid) runs on.

use crate::wide::{F32x4, F32x8};
use serde::{Deserialize, Serialize};

/// A cell coordinate decomposition: integer base index plus fractional part.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellCoord {
    /// Integer lattice coordinate of the lower corner.
    pub base: i64,
    /// Fractional offset in `[0, 1)`.
    pub frac: f32,
}

/// Splits a continuous grid coordinate into `(base, frac)`.
///
/// `resolution` is the number of *vertices* per axis; the continuous
/// coordinate `u` in `[0, 1]` spans `resolution - 1` cells. The base index
/// is clamped so `base + 1` is always a valid vertex, which matches how
/// grid pipelines treat boundary samples.
#[inline]
// uni-lint: hot
pub fn cell_coord(u: f32, resolution: u32) -> CellCoord {
    debug_assert!(resolution >= 2, "grids need at least 2 vertices per axis");
    let scaled = u.clamp(0.0, 1.0) * (resolution - 1) as f32;
    let max_base = (resolution - 2) as i64;
    let base = (scaled.floor() as i64).clamp(0, max_base);
    let frac = (scaled - base as f32).clamp(0.0, 1.0);
    CellCoord { base, frac }
}

/// The 4 bilinear corner weights for fractional offsets `(fx, fy)`.
///
/// Order: `(0,0), (1,0), (0,1), (1,1)` — x varies fastest. The weights
/// always sum to 1.
#[inline]
pub fn bilinear_weights(fx: f32, fy: f32) -> [f32; 4] {
    let gx = 1.0 - fx;
    let gy = 1.0 - fy;
    [gx * gy, fx * gy, gx * fy, fx * fy]
}

/// The 8 trilinear corner weights for fractional offsets `(fx, fy, fz)`.
///
/// Order: z-major over the bilinear order. The weights always sum to 1.
#[inline]
// uni-lint: hot
pub fn trilinear_weights(fx: f32, fy: f32, fz: f32) -> [f32; 8] {
    let b = bilinear_weights(fx, fy);
    let gz = 1.0 - fz;
    [
        b[0] * gz,
        b[1] * gz,
        b[2] * gz,
        b[3] * gz,
        b[0] * fz,
        b[1] * fz,
        b[2] * fz,
        b[3] * fz,
    ]
}

/// Bilinear interpolation of 4 scalar corner values (same order as
/// [`bilinear_weights`]).
#[inline]
pub fn bilerp(c: [f32; 4], fx: f32, fy: f32) -> f32 {
    let w = bilinear_weights(fx, fy);
    c[0] * w[0] + c[1] * w[1] + c[2] * w[2] + c[3] * w[3]
}

/// Trilinear interpolation of 8 scalar corner values (same order as
/// [`trilinear_weights`]).
#[inline]
pub fn trilerp(c: [f32; 8], fx: f32, fy: f32, fz: f32) -> f32 {
    let w = trilinear_weights(fx, fy, fz);
    let mut acc = 0.0;
    for i in 0..8 {
        acc += c[i] * w[i];
    }
    acc
}

/// Where a corner blend's per-channel add chain starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blend {
    /// At `+0.0`: the same bits as `out.fill(0.0)` followed by
    /// [`Blend::Accumulate`], without reading `out`.
    FromZero,
    /// At `out`'s own value: the blend is added onto `out`.
    Accumulate,
}

/// Blends 4 grid corners into `out`: per channel, the corner sum
/// `s = ((t0[c]·w0 + t1[c]·w1) + t2[c]·w2) + t3[c]·w3` is formed first and
/// then added once, `out[c] = start + s` (`start` per [`Blend`]).
///
/// `table` holds `n`-wide feature entries back to back (`n = out.len()`:
/// texels, grid vertices, hash slots), and corner `k` is entry
/// `entries[k]`, in [`bilinear_weights`] order. This is the order of
/// `*o += corners.map(|t| t[c] * w).sum::<f32>()`: an `f32` sum starts at
/// `-0.0`, the additive identity, so starting at the first product gives
/// the same bits. Channels run in [`F32x8`] chunks, then one [`F32x4`],
/// then a scalar tail; every lane op is the scalar op, so the result is
/// bit-identical to a per-channel loop at any channel count.
///
/// # Panics
///
/// Panics if a corner entry lies outside `table`.
#[inline(always)]
// uni-lint: hot
pub fn blend_bilinear(
    out: &mut [f32],
    table: &[f32],
    entries: [usize; 4],
    w: [f32; 4],
    blend: Blend,
) {
    let n = out.len();
    let corner = |k: usize| &table[entries[k] * n..entries[k] * n + n];
    let (a, b, c, d) = (corner(0), corner(1), corner(2), corner(3));
    let from_zero = blend == Blend::FromZero;
    let mut i = 0;
    while i + 8 <= n {
        let s = F32x8::load(&a[i..]) * F32x8::splat(w[0]);
        let s = F32x8::load(&b[i..]).mul_add(F32x8::splat(w[1]), s);
        let s = F32x8::load(&c[i..]).mul_add(F32x8::splat(w[2]), s);
        let s = F32x8::load(&d[i..]).mul_add(F32x8::splat(w[3]), s);
        let start = if from_zero {
            F32x8::ZERO
        } else {
            F32x8::load(&out[i..])
        };
        (start + s).store(&mut out[i..]);
        i += 8;
    }
    if i + 4 <= n {
        let s = F32x4::load(&a[i..]) * F32x4::splat(w[0]);
        let s = F32x4::load(&b[i..]).mul_add(F32x4::splat(w[1]), s);
        let s = F32x4::load(&c[i..]).mul_add(F32x4::splat(w[2]), s);
        let s = F32x4::load(&d[i..]).mul_add(F32x4::splat(w[3]), s);
        let start = if from_zero {
            F32x4::ZERO
        } else {
            F32x4::load(&out[i..])
        };
        (start + s).store(&mut out[i..]);
        i += 4;
    }
    while i < n {
        let start = if from_zero { 0.0 } else { out[i] };
        out[i] = start + (a[i] * w[0] + b[i] * w[1] + c[i] * w[2] + d[i] * w[3]);
        i += 1;
    }
}

/// Blends 8 grid corners into `out` one corner at a time: per channel
/// the add chain starts at `start` (per [`Blend`]) and adds `t_k[c]·w_k`
/// for `k = 0..8` in order.
///
/// `table` and `entries` are as in [`blend_bilinear`], corners in
/// [`trilinear_weights`] order. Each channel keeps the add chain of the
/// per-channel loop `*o += w_k * t_k[c]` it replaces, in the same
/// [`F32x8`] / [`F32x4`] / scalar-tail chunks as [`blend_bilinear`]; the
/// result is bit-identical to that loop at any channel count.
///
/// # Panics
///
/// Panics if a corner entry lies outside `table`.
#[inline(always)]
// uni-lint: hot
pub fn blend_trilinear(
    out: &mut [f32],
    table: &[f32],
    entries: [usize; 8],
    w: [f32; 8],
    blend: Blend,
) {
    let n = out.len();
    let corner = |k: usize| &table[entries[k] * n..entries[k] * n + n];
    let t = [
        corner(0),
        corner(1),
        corner(2),
        corner(3),
        corner(4),
        corner(5),
        corner(6),
        corner(7),
    ];
    let from_zero = blend == Blend::FromZero;
    let mut i = 0;
    while i + 8 <= n {
        let mut acc = if from_zero {
            F32x8::ZERO
        } else {
            F32x8::load(&out[i..])
        };
        for (tk, &wk) in t.iter().zip(&w) {
            acc = F32x8::load(&tk[i..]).mul_add(F32x8::splat(wk), acc);
        }
        acc.store(&mut out[i..]);
        i += 8;
    }
    if i + 4 <= n {
        let mut acc = if from_zero {
            F32x4::ZERO
        } else {
            F32x4::load(&out[i..])
        };
        for (tk, &wk) in t.iter().zip(&w) {
            acc = F32x4::load(&tk[i..]).mul_add(F32x4::splat(wk), acc);
        }
        acc.store(&mut out[i..]);
        i += 4;
    }
    while i < n {
        let mut acc = if from_zero { 0.0 } else { out[i] };
        for (tk, &wk) in t.iter().zip(&w) {
            acc += wk * tk[i];
        }
        out[i] = acc;
        i += 1;
    }
}

/// Nearest-vertex index along one axis.
#[inline]
pub fn nearest_index(u: f32, resolution: u32) -> u32 {
    let scaled = u.clamp(0.0, 1.0) * (resolution - 1) as f32;
    (scaled + 0.5).floor().min((resolution - 1) as f32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cell_coord_interior() {
        let c = cell_coord(0.5, 5); // 4 cells, coordinate 2.0
        assert_eq!(c.base, 2);
        assert!(c.frac.abs() < 1e-6);
    }

    #[test]
    fn cell_coord_clamps_at_upper_boundary() {
        let c = cell_coord(1.0, 8);
        assert_eq!(c.base, 6, "base+1 must be a valid vertex");
        assert!((c.frac - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cell_coord_clamps_below_zero() {
        let c = cell_coord(-0.3, 8);
        assert_eq!(c.base, 0);
        assert_eq!(c.frac, 0.0);
    }

    #[test]
    fn bilinear_corners_are_one_hot() {
        assert_eq!(bilinear_weights(0.0, 0.0), [1.0, 0.0, 0.0, 0.0]);
        assert_eq!(bilinear_weights(1.0, 0.0), [0.0, 1.0, 0.0, 0.0]);
        assert_eq!(bilinear_weights(0.0, 1.0), [0.0, 0.0, 1.0, 0.0]);
        assert_eq!(bilinear_weights(1.0, 1.0), [0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn bilerp_reproduces_linear_function() {
        // f(x, y) = 2x + 3y + 1 sampled at corners.
        let f = |x: f32, y: f32| 2.0 * x + 3.0 * y + 1.0;
        let corners = [f(0.0, 0.0), f(1.0, 0.0), f(0.0, 1.0), f(1.0, 1.0)];
        for &(x, y) in &[(0.25, 0.75), (0.5, 0.5), (0.9, 0.1)] {
            assert!((bilerp(corners, x, y) - f(x, y)).abs() < 1e-5);
        }
    }

    #[test]
    fn trilerp_reproduces_trilinear_function() {
        let f = |x: f32, y: f32, z: f32| 1.0 + x - 2.0 * y + 0.5 * z;
        let mut corners = [0f32; 8];
        for (i, c) in corners.iter_mut().enumerate() {
            let x = (i & 1) as f32;
            let y = ((i >> 1) & 1) as f32;
            let z = ((i >> 2) & 1) as f32;
            *c = f(x, y, z);
        }
        for &(x, y, z) in &[(0.3, 0.6, 0.9), (0.0, 1.0, 0.5)] {
            assert!((trilerp(corners, x, y, z) - f(x, y, z)).abs() < 1e-5);
        }
    }

    #[test]
    fn nearest_index_rounds() {
        assert_eq!(nearest_index(0.0, 4), 0);
        assert_eq!(nearest_index(0.34, 4), 1);
        assert_eq!(nearest_index(1.0, 4), 3);
    }

    proptest! {
        #[test]
        fn prop_bilinear_weights_sum_to_one(fx in 0f32..=1.0, fy in 0f32..=1.0) {
            let s: f32 = bilinear_weights(fx, fy).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
        }

        #[test]
        fn prop_trilinear_weights_sum_to_one(
            fx in 0f32..=1.0, fy in 0f32..=1.0, fz in 0f32..=1.0,
        ) {
            let s: f32 = trilinear_weights(fx, fy, fz).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
        }

        #[test]
        fn prop_weights_nonnegative(fx in 0f32..=1.0, fy in 0f32..=1.0, fz in 0f32..=1.0) {
            for w in trilinear_weights(fx, fy, fz) {
                prop_assert!(w >= -1e-7);
            }
        }

        #[test]
        fn prop_cell_coord_reconstructs(u in 0f32..=1.0, res in 2u32..128) {
            let c = cell_coord(u, res);
            let reconstructed = (c.base as f32 + c.frac) / (res - 1) as f32;
            prop_assert!((reconstructed - u.clamp(0.0, 1.0)).abs() < 1e-4);
            prop_assert!(c.base >= 0 && (c.base as u32) < res - 1);
        }

        #[test]
        fn prop_bilerp_within_corner_bounds(
            c0 in -5f32..5.0, c1 in -5f32..5.0, c2 in -5f32..5.0, c3 in -5f32..5.0,
            fx in 0f32..=1.0, fy in 0f32..=1.0,
        ) {
            let corners = [c0, c1, c2, c3];
            let v = bilerp(corners, fx, fy);
            let lo = corners.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = corners.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4);
        }
    }
}
