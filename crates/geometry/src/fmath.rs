//! Owned transcendentals: one fixed `sin_cos` and one fixed `exp` for
//! every frame path.
//!
//! The accelerator evaluates positional encodings and volume-blending
//! exponentials on the PEs' special function units with one fixed
//! approximation per function. These are the software counterparts, so
//! frame bits no longer depend on which libm variant the host's loader
//! picks for `sinf`/`expf` (glibc resolves both by CPU at load time).
//!
//! Each function comes as a scalar function and an [`F32x8`] one. The
//! wide function runs the inlined scalar function per lane, which uses
//! only explicit IEEE operations and bit operations (no FMA contraction,
//! no reassociation, no float-to-int conversion), so the two agree lane
//! for lane, bit for bit, whether or not the backend vectorizes.
//!
//! Contract against glibc 2.36's libm. The bounds held over every `f32` in
//! the stated ranges (an exhaustive check on an x86-64 host); this
//! module's tests re-check them over dense sweeps:
//!
//! - [`sin_cos`] on `|x| <= 128`: absolute error at most
//!   [`SIN_COS_MAX_ABS_ERR`] (`2^-24`) against libm's `sin` and `cos`.
//!   The sign of zero is kept: `sin(-0.0)` is `-0.0`. NaN and infinities
//!   give NaN. The positional encoding's arguments reach `32π ≈ 100.5`.
//! - [`exp`] on `[EXP_LO, EXP_HI]`: at most [`EXP_MAX_ULP`] ulp from
//!   libm's `exp` (relative error under `1.2e-7`). Below `EXP_LO` it
//!   returns `0.0` (libm returns a subnormal under `1.2e-38` there),
//!   above `EXP_HI` it returns `+inf`, and NaN stays NaN.

use crate::wide::F32x8;

/// Largest absolute difference of [`sin_cos`] from libm on `|x| <= 128`.
pub const SIN_COS_MAX_ABS_ERR: f32 = 1.0 / 16_777_216.0;

/// Largest difference of [`exp`] from libm on `[EXP_LO, EXP_HI]`, in
/// units in the last place.
pub const EXP_MAX_ULP: u32 = 1;

/// Smallest argument [`exp`] evaluates: `ln(f32::MIN_POSITIVE)`, so the
/// result's exponent never drops below the normal range. Below it,
/// `exp` returns `0.0`.
pub const EXP_LO: f32 = -87.336_54;

/// Largest argument [`exp`] evaluates: just under `ln(f32::MAX)`. Above
/// it, `exp` returns `+inf`.
pub const EXP_HI: f32 = 88.722_83;

const SIGN: u32 = 0x8000_0000;

/// [`sin_cos`] on eight lanes; lane `i` of each result equals
/// `sin_cos(x[i])` bit for bit.
#[inline]
pub fn sin_cos_x8(x: F32x8) -> (F32x8, F32x8) {
    let mut s = [0f32; 8];
    let mut c = [0f32; 8];
    let mut i = 0;
    while i < 8 {
        (s[i], c[i]) = sin_cos(x.0[i]);
        i += 1;
    }
    (F32x8(s), F32x8(c))
}

/// [`exp`] on eight lanes; lane `i` equals `exp(x[i])` bit for bit.
#[inline]
pub fn exp_x8(x: F32x8) -> F32x8 {
    let mut r = [0f32; 8];
    let mut i = 0;
    while i < 8 {
        r[i] = exp(x.0[i]);
        i += 1;
    }
    F32x8(r)
}

/// `sin(x)` and `cos(x)` together, sharing one range reduction.
///
/// Cephes-style `sinf`/`cosf`: `|x|` is reduced by an even multiple `j`
/// of π/4 in three parts (the first two products are exact), so the
/// remainder lies in `[-π/4, π/4]`, where degree-7 (sin) and degree-8
/// (cos) polynomials hold. The quadrant `j / 2` then swaps the two
/// polynomials and flips signs, applied as sign-bit XORs so that the
/// sign of zero survives.
#[inline(always)]
pub fn sin_cos(x: f32) -> (f32, f32) {
    const FOPI: f32 = 1.273_239_5; // 4/π
    const DP1: f32 = 0.785_156_25;
    const DP2: f32 = 2.418_756_5e-4;
    const DP3: f32 = 3.774_895e-8;
    // 1.5 · 2^23: adding it rounds to an integer kept in the low mantissa bits.
    const MAGIC: f32 = 12_582_912.0;
    let sign = x.to_bits() & SIGN;
    let ax = f32::from_bits(x.to_bits() & !SIGN);
    // Cephes' `j = ((ax * 4/π) as i32 + 1) & !1`, in float so that it
    // vectorizes: every step is exact for |x| < 2^23 · π/4. NaN and
    // infinities make the remainder NaN.
    let k = ((ax * FOPI).trunc() + 1.0) * 0.5;
    let half_j = k.trunc();
    let y = half_j + half_j;
    let r = ((ax - y * DP1) - y * DP2) - y * DP3;
    let z = r * r;
    let ps = ((-1.951_529_6e-4 * z + 8.332_161e-3) * z + -1.666_665_5e-1) * z * r + r;
    let pc = ((2.443_315_7e-5 * z + -1.388_731_6e-3) * z + 4.166_664_6e-2) * z * z - 0.5 * z + 1.0;
    // The quadrant `j / 2` sits in the low mantissa bits of `half_j + MAGIC`.
    let quadrant = (half_j + MAGIC).to_bits();
    let (s, c) = if quadrant & 1 != 0 {
        (pc, ps)
    } else {
        (ps, pc)
    };
    let s_sign = ((quadrant & 2) << 30) ^ sign;
    let c_sign = (quadrant.wrapping_add(1) & 2) << 30;
    (
        f32::from_bits(s.to_bits() ^ s_sign),
        f32::from_bits(c.to_bits() ^ c_sign),
    )
}

/// `e^x`.
///
/// Cephes-style `expf`: `x = n·ln2 + r` with `n` rounded to nearest by
/// the magic-number trick (adding `1.5·2^23` leaves `n` in the low
/// mantissa bits, no float-to-int conversion), `r` in `[-ln2/2, ln2/2]`
/// by a two-part `ln2`, a degree-5 polynomial for `e^r`, then `2^n` by
/// exponent stuffing. `n` reaches 128 at `EXP_HI`, so `2^n` is applied
/// as two exact halves.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5 · 2^23, as in `sin_cos`.
    const MAGIC: f32 = 12_582_912.0;
    // Compare-and-select clamps, not `max`/`min`: NaN passes through.
    let xc = if x < EXP_LO { EXP_LO } else { x };
    let xc = if xc > EXP_HI { EXP_HI } else { xc };
    let m = xc * LOG2E + MAGIC;
    let n = m - MAGIC;
    let r = (xc - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 5.000_000_3e-1;
    let y = p * r * r + r + 1.0;
    // n ∈ [-126, 128]: each half lies in [-63, 64], so both factors are
    // normal powers of two and `y · 2^a` is exact.
    let n_int = (m.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    let a = n_int >> 1;
    let b = n_int.wrapping_sub(a);
    let pow2 = |k: i32| f32::from_bits((k.wrapping_add(127) << 23) as u32);
    let e = y * pow2(a) * pow2(b);
    let e = if x > EXP_HI { f32::INFINITY } else { e };
    if x < EXP_LO {
        0.0
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense evenly spaced sweep of `[lo, hi]`, endpoints included.
    fn sweep(lo: f32, hi: f32, n: usize) -> impl Iterator<Item = f32> {
        (0..=n).map(move |i| lo + (hi - lo) * (i as f64 / n as f64) as f32)
    }

    /// Points where lane identity is easiest to lose: signed zeros,
    /// subnormals, octant and quadrant boundaries, the clamps, the
    /// extremes and the non-finite values.
    fn edge_cases() -> Vec<f32> {
        let mut v = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            EXP_LO,
            EXP_HI,
            f32::from_bits(EXP_LO.to_bits() + 1),
            f32::from_bits(EXP_LO.to_bits() - 1),
            f32::from_bits(EXP_HI.to_bits() + 1),
            f32::from_bits(EXP_HI.to_bits() - 1),
            -100.0,
            90.0,
            128.0,
            -128.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for k in -163..=163 {
            let b = k as f32 * std::f32::consts::FRAC_PI_4;
            v.extend([b, f32::from_bits(b.to_bits() + 1), -b]);
        }
        v
    }

    #[test]
    fn sin_cos_matches_libm_on_the_encoding_range() {
        let (mut worst_s, mut worst_c) = (0f32, 0f32);
        for x in sweep(-128.0, 128.0, 2_000_000) {
            let (s, c) = sin_cos(x);
            worst_s = worst_s.max((s - x.sin()).abs());
            worst_c = worst_c.max((c - x.cos()).abs());
        }
        assert!(
            worst_s <= SIN_COS_MAX_ABS_ERR && worst_c <= SIN_COS_MAX_ABS_ERR,
            "sin err {worst_s:e}, cos err {worst_c:e}"
        );
    }

    #[test]
    fn exp_matches_libm_on_the_blending_range() {
        let mut worst = 0;
        for x in sweep(EXP_LO, EXP_HI, 2_000_000) {
            worst = worst.max(exp(x).to_bits().abs_diff(x.exp().to_bits()));
        }
        assert!(worst <= EXP_MAX_ULP, "exp is {worst} ulp from libm");
        for x in sweep(-100.0, 90.0, 400_000) {
            let got = exp(x);
            if x < EXP_LO {
                assert_eq!(got.to_bits(), 0, "exp({x}) below the clamp is +0.0");
            } else if x > EXP_HI {
                assert_eq!(got, f32::INFINITY, "exp({x}) above the clamp");
            } else {
                assert!(got.is_finite() && got > 0.0, "exp({x}) = {got}");
            }
        }
    }

    #[test]
    fn exp_edge_values() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(f32::MIN).to_bits(), 0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        // The ends of the evaluated range: no exponent wrap, no overflow.
        let lo = exp(EXP_LO);
        assert!(lo.is_normal() && lo < 1.2e-38, "exp(EXP_LO) = {lo:e}");
        let hi = exp(EXP_HI);
        assert!(hi.is_finite() && hi > 3.4e38, "exp(EXP_HI) = {hi:e}");
    }

    #[test]
    fn sin_cos_edge_values() {
        let (s, c) = sin_cos(-0.0);
        assert_eq!((s.to_bits(), c), ((-0.0f32).to_bits(), 1.0));
        let (s, c) = sin_cos(0.0);
        assert_eq!((s.to_bits(), c), (0, 1.0));
        let tiny = f32::from_bits(1);
        assert_eq!(sin_cos(tiny).0.to_bits(), tiny.to_bits());
        assert_eq!(sin_cos(-tiny).0.to_bits(), (-tiny).to_bits());
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let (s, c) = sin_cos(x);
            assert!(s.is_nan() && c.is_nan(), "sin_cos({x})");
        }
    }

    /// Every lane of the wide functions equals the scalar function bit
    /// for bit, over the sweeps and the edge cases, with each value
    /// visiting every lane position.
    #[test]
    fn wide_lanes_equal_scalar_bit_for_bit() {
        let mut xs = edge_cases();
        xs.extend(sweep(-128.0, 128.0, 20_000));
        xs.extend(sweep(-100.0, 90.0, 20_000));
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        for shift in 0..8 {
            for chunk in xs.chunks(8) {
                let mut lanes = [1.0f32; 8];
                for (k, &x) in chunk.iter().enumerate() {
                    lanes[(k + shift) % 8] = x;
                }
                let (s8, c8) = sin_cos_x8(F32x8(lanes));
                let e8 = exp_x8(F32x8(lanes));
                for (k, &x) in lanes.iter().enumerate() {
                    let (s, c) = sin_cos(x);
                    assert!(same(s8.0[k], s), "sin lane {k} of {x:e}");
                    assert!(same(c8.0[k], c), "cos lane {k} of {x:e}");
                    assert!(same(e8.0[k], exp(x)), "exp lane {k} of {x:e}");
                }
            }
        }
    }
}
