//! Real spherical harmonics up to degree 3.
//!
//! 3D-Gaussian pipelines store view-dependent color as SH coefficients and
//! evaluate them per view direction; the paper notes this evaluation "can be
//! executed as the vector-matrix multiplication process of MLPs" (Sec. II-E)
//! and maps it onto the GEMM micro-operator. This module provides the basis
//! evaluation used by both the reference renderer and the workload model.

use crate::vec::Vec3;

/// Number of SH coefficients for a maximum degree (inclusive).
///
/// Degree 3 gives the 16 coefficients per channel used by 3DGS.
#[inline]
pub const fn coeff_count(max_degree: u8) -> usize {
    let l = max_degree as usize + 1;
    l * l
}

// Band constants, standard real-SH normalization.
const C0: f32 = 0.282_094_79;
const C1: f32 = 0.488_602_51;
const C2: [f32; 5] = [
    1.092_548_4,
    -1.092_548_4,
    0.315_391_57,
    -1.092_548_4,
    0.546_274_22,
];
const C3: [f32; 7] = [
    -0.590_043_6,
    2.890_611_4,
    -0.457_045_8,
    0.373_176_33,
    -0.457_045_8,
    1.445_305_7,
    -0.590_043_6,
];

/// Evaluates the real SH basis at unit direction `dir`.
///
/// Fills `out` with the first `out.len()` basis values in the standard
/// `(l, m)` order used by 3DGS implementations. Supports up to 16 values
/// (degree 3).
///
/// # Panics
///
/// Panics if `out.len() > 16`.
pub fn eval_basis(dir: Vec3, out: &mut [f32]) {
    assert!(out.len() <= 16, "sh basis supports degree <= 3 (16 coeffs)");
    out.copy_from_slice(&basis(dir)[..out.len()]);
}

/// All 16 real SH basis values (degrees 0..=3) at unit direction `dir`,
/// in [`eval_basis`]'s order and by its expressions: a lower degree reads
/// a prefix. Inlined and branch-free, so a per-lane caller (the Gaussian
/// cloud's 8-wide projection) vectorizes across lanes.
#[inline(always)]
pub fn basis(dir: Vec3) -> [f32; 16] {
    let Vec3 { x, y, z } = dir;
    let (xx, yy, zz) = (x * x, y * y, z * z);
    let (xy, yz, xz) = (x * y, y * z, x * z);
    [
        C0,
        -C1 * y,
        C1 * z,
        -C1 * x,
        C2[0] * xy,
        C2[1] * yz,
        C2[2] * (2.0 * zz - xx - yy),
        C2[3] * xz,
        C2[4] * (xx - yy),
        C3[0] * y * (3.0 * xx - yy),
        C3[1] * xy * z,
        C3[2] * y * (4.0 * zz - xx - yy),
        C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy),
        C3[4] * x * (4.0 * zz - xx - yy),
        C3[5] * z * (xx - yy),
        C3[6] * x * (xx - 3.0 * yy),
    ]
}

/// Evaluates an SH expansion with per-coefficient scalar weights.
///
/// This is the dot product a PE's MAC array computes when SH color
/// evaluation is mapped to the GEMM micro-operator.
pub fn eval_expansion(dir: Vec3, coeffs: &[f32]) -> f32 {
    let mut basis = [0f32; 16];
    let n = coeffs.len().min(16);
    eval_basis(dir, &mut basis[..n]);
    coeffs[..n]
        .iter()
        .zip(&basis[..n])
        .map(|(c, b)| c * b)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dirs() -> Vec<Vec3> {
        let mut v = vec![Vec3::X, Vec3::Y, Vec3::Z, -Vec3::X, -Vec3::Y, -Vec3::Z];
        for i in 0..16 {
            let a = i as f32 * 0.39;
            let b = i as f32 * 0.17;
            v.push(Vec3::new(a.cos() * b.sin(), b.cos(), a.sin() * b.sin()).normalized());
        }
        v
    }

    #[test]
    fn coeff_counts() {
        assert_eq!(coeff_count(0), 1);
        assert_eq!(coeff_count(1), 4);
        assert_eq!(coeff_count(2), 9);
        assert_eq!(coeff_count(3), 16);
    }

    #[test]
    fn degree_zero_is_constant() {
        for d in dirs() {
            let mut out = [0f32; 1];
            eval_basis(d, &mut out);
            assert!((out[0] - C0).abs() < 1e-6);
        }
    }

    #[test]
    fn degree_one_terms_are_linear_in_direction() {
        let mut out = [0f32; 4];
        eval_basis(Vec3::Z, &mut out);
        assert!((out[2] - C1).abs() < 1e-6);
        assert!(out[1].abs() < 1e-6 && out[3].abs() < 1e-6);
    }

    /// SH basis functions are orthonormal over the sphere: Monte Carlo
    /// integration of `b_i * b_j` should approximate the identity matrix.
    #[test]
    fn basis_is_approximately_orthonormal() {
        let n_theta = 64;
        let n_phi = 128;
        let mut gram = [[0f64; 9]; 9];
        for it in 0..n_theta {
            // Midpoint rule over cos(theta) in [-1, 1] keeps area weights exact.
            let cos_t = -1.0 + (it as f32 + 0.5) * 2.0 / n_theta as f32;
            let sin_t = (1.0 - cos_t * cos_t).max(0.0).sqrt();
            for ip in 0..n_phi {
                let phi = (ip as f32 + 0.5) / n_phi as f32 * std::f32::consts::TAU;
                let d = Vec3::new(sin_t * phi.cos(), sin_t * phi.sin(), cos_t);
                let mut b = [0f32; 9];
                eval_basis(d, &mut b);
                for i in 0..9 {
                    for j in 0..9 {
                        gram[i][j] += f64::from(b[i] * b[j]);
                    }
                }
            }
        }
        let weight = 4.0 * std::f64::consts::PI / (n_theta * n_phi) as f64;
        for (i, row) in gram.iter().enumerate() {
            for (j, &g) in row.iter().enumerate() {
                let v = g * weight;
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (v - expected).abs() < 0.02,
                    "gram[{i}][{j}] = {v}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn expansion_matches_manual_dot() {
        let coeffs: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).sin()).collect();
        let d = Vec3::new(0.3, -0.5, 0.8).normalized();
        let mut basis = [0f32; 16];
        eval_basis(d, &mut basis);
        let manual: f32 = coeffs.iter().zip(&basis).map(|(c, b)| c * b).sum();
        assert!((eval_expansion(d, &coeffs) - manual).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "degree <= 3")]
    fn oversized_basis_panics() {
        let mut out = [0f32; 17];
        eval_basis(Vec3::Z, &mut out);
    }

    proptest! {
        /// Rotating a degree-0 expansion changes nothing; for any direction
        /// the DC term dominates a DC-only expansion.
        #[test]
        fn prop_dc_expansion_is_direction_invariant(
            x in -1f32..1.0, y in -1f32..1.0, z in -1f32..1.0,
        ) {
            prop_assume!(Vec3::new(x, y, z).length() > 0.1);
            let d = Vec3::new(x, y, z).normalized();
            let v = eval_expansion(d, &[2.0]);
            prop_assert!((v - 2.0 * C0).abs() < 1e-6);
        }

        /// Basis values are bounded on the unit sphere.
        #[test]
        fn prop_basis_bounded(x in -1f32..1.0, y in -1f32..1.0, z in -1f32..1.0) {
            prop_assume!(Vec3::new(x, y, z).length() > 0.1);
            let d = Vec3::new(x, y, z).normalized();
            let mut b = [0f32; 16];
            eval_basis(d, &mut b);
            for v in b {
                prop_assert!(v.abs() < 3.0);
            }
        }
    }
}
