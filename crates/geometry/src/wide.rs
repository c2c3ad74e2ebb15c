//! Fixed-width wide-lane vectors for the render hot kernels.
//!
//! `F32x8` / `F32x4` are plain aligned arrays with fully unrolled
//! lane-wise arithmetic — a shape LLVM reliably lowers to vector
//! instructions (`vmulps`/`vaddps` on x86, NEON on aarch64) without any
//! `std::arch` intrinsics or crates.io dependency. Because every op is
//! exactly the scalar op applied per lane (no FMA contraction, no
//! reassociation), results are bit-identical whether or not the backend
//! vectorizes, on every target. Numeric differences against the seed-era
//! kernels come only from how *callers* restructure their reductions
//! (e.g. the 8-output GEMM panels in `uni_scene::nn`), never from these
//! primitives. The transcendentals on these lanes (`sin_cos`, `exp`)
//! live in [`crate::fmath`], under the same lane-for-lane contract.

/// An 8-lane single-precision vector.
///
/// The 32-byte alignment matches one AVX register / two NEON registers,
/// so panel loads in the GEMM microkernel stay on aligned fast paths.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(align(32))]
pub struct F32x8(pub [f32; 8]);

impl F32x8 {
    /// All lanes zero.
    pub const ZERO: Self = Self([0.0; 8]);

    /// Broadcasts `v` to every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; 8])
    }

    /// Loads the first 8 elements of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` has fewer than 8 elements.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let s = &src[..8];
        Self([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]])
    }

    /// Stores all 8 lanes into the front of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` has fewer than 8 elements.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..8].copy_from_slice(&self.0);
    }

    /// Stores the first `min(dst.len(), 8)` lanes — the tail write of a
    /// panel whose logical width is not a multiple of 8.
    #[inline(always)]
    pub fn store_prefix(self, dst: &mut [f32]) {
        let n = dst.len().min(8);
        dst[..n].copy_from_slice(&self.0[..n]);
    }

    /// Lane-wise `self * a + acc` as an explicit multiply then add (two
    /// rounding steps, exactly like the scalar expression `x * w + acc`)
    /// — deliberately *not* a fused multiply-add, so wide and scalar
    /// evaluations of the same reduction order agree bit-for-bit.
    #[inline(always)]
    pub fn mul_add(self, a: Self, acc: Self) -> Self {
        let mut r = [0f32; 8];
        let mut i = 0;
        while i < 8 {
            r[i] = self.0[i] * a.0[i] + acc.0[i];
            i += 1;
        }
        Self(r)
    }

    /// Lane-wise maximum.
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        let mut r = [0f32; 8];
        let mut i = 0;
        while i < 8 {
            r[i] = self.0[i].max(o.0[i]);
            i += 1;
        }
        Self(r)
    }

    /// Lane-wise rectified linear unit (`max(x, 0)`).
    #[inline(always)]
    pub fn relu(self) -> Self {
        self.max(Self::ZERO)
    }

    /// Applies a scalar function per lane (e.g. the sigmoid activation on
    /// [`crate::fmath::exp`]); an `#[inline(always)]` kernel lets the
    /// backend vectorize the lanes.
    #[inline(always)]
    pub fn map(self, f: impl Fn(f32) -> f32) -> Self {
        let mut r = [0f32; 8];
        let mut i = 0;
        while i < 8 {
            r[i] = f(self.0[i]);
            i += 1;
        }
        Self(r)
    }

    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; 8] {
        self.0
    }
}

impl std::ops::Add for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        let mut r = [0f32; 8];
        let mut i = 0;
        while i < 8 {
            r[i] = self.0[i] + o.0[i];
            i += 1;
        }
        Self(r)
    }
}

impl std::ops::Sub for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        let mut r = [0f32; 8];
        let mut i = 0;
        while i < 8 {
            r[i] = self.0[i] - o.0[i];
            i += 1;
        }
        Self(r)
    }
}

impl std::ops::Mul for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        let mut r = [0f32; 8];
        let mut i = 0;
        while i < 8 {
            r[i] = self.0[i] * o.0[i];
            i += 1;
        }
        Self(r)
    }
}

/// A 4-lane single-precision vector — one hash-grid feature entry
/// (`F = 4`) or one RGBA group.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(align(16))]
pub struct F32x4(pub [f32; 4]);

impl F32x4 {
    /// All lanes zero.
    pub const ZERO: Self = Self([0.0; 4]);

    /// Broadcasts `v` to every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; 4])
    }

    /// Loads the first 4 elements of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` has fewer than 4 elements.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let s = &src[..4];
        Self([s[0], s[1], s[2], s[3]])
    }

    /// Stores all 4 lanes into the front of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` has fewer than 4 elements.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..4].copy_from_slice(&self.0);
    }

    /// Lane-wise `self * a + acc` (separate multiply and add — see
    /// [`F32x8::mul_add`]).
    #[inline(always)]
    pub fn mul_add(self, a: Self, acc: Self) -> Self {
        Self([
            self.0[0] * a.0[0] + acc.0[0],
            self.0[1] * a.0[1] + acc.0[1],
            self.0[2] * a.0[2] + acc.0[2],
            self.0[3] * a.0[3] + acc.0[3],
        ])
    }

    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; 4] {
        self.0
    }
}

impl std::ops::Add for F32x4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Self([
            self.0[0] + o.0[0],
            self.0[1] + o.0[1],
            self.0[2] + o.0[2],
            self.0[3] + o.0[3],
        ])
    }
}

impl std::ops::Mul for F32x4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        Self([
            self.0[0] * o.0[0],
            self.0[1] * o.0[1],
            self.0[2] * o.0[2],
            self.0[3] * o.0[3],
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ops_match_scalar_bit_for_bit() {
        let a = [0.1f32, -2.5, 3.75, 1e-8, -1e8, 7.0, 0.0, -0.0];
        let b = [1.3f32, 0.5, -0.25, 2e7, 3.0, -6.0, 9.0, 4.0];
        let va = F32x8::load(&a);
        let vb = F32x8::load(&b);
        let sum = (va + vb).to_array();
        let prod = (va * vb).to_array();
        let fma = va.mul_add(vb, F32x8::splat(0.5)).to_array();
        for i in 0..8 {
            assert_eq!(sum[i].to_bits(), (a[i] + b[i]).to_bits(), "add lane {i}");
            assert_eq!(prod[i].to_bits(), (a[i] * b[i]).to_bits(), "mul lane {i}");
            assert_eq!(
                fma[i].to_bits(),
                (a[i] * b[i] + 0.5).to_bits(),
                "mul_add lane {i} is an unfused multiply-then-add"
            );
        }
    }

    #[test]
    fn relu_clamps_negative_lanes() {
        let v = F32x8([1.0, -1.0, 0.0, -0.0, 5.5, -5.5, f32::MIN_POSITIVE, -2.0]);
        let r = v.relu().to_array();
        assert_eq!(r, [1.0, 0.0, 0.0, 0.0, 5.5, 0.0, f32::MIN_POSITIVE, 0.0]);
    }

    #[test]
    fn store_prefix_writes_only_the_tail_width() {
        let v = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut dst = [0f32; 3];
        v.store_prefix(&mut dst);
        assert_eq!(dst, [1.0, 2.0, 3.0]);
        let mut full = [0f32; 8];
        v.store_prefix(&mut full);
        assert_eq!(full, v.to_array());
    }

    #[test]
    fn f32x4_matches_scalar() {
        let a = F32x4([1.5, -2.0, 0.25, 8.0]);
        let b = F32x4([2.0, 3.0, -4.0, 0.5]);
        assert_eq!((a + b).to_array(), [3.5, 1.0, -3.75, 8.5]);
        assert_eq!((a * b).to_array(), [3.0, -6.0, -1.0, 4.0]);
        let acc = a.mul_add(b, F32x4::splat(1.0)).to_array();
        assert_eq!(acc, [4.0, -5.0, 0.0, 5.0]);
    }

    #[test]
    fn alignment_is_register_width() {
        assert_eq!(std::mem::align_of::<F32x8>(), 32);
        assert_eq!(std::mem::align_of::<F32x4>(), 16);
    }
}
