//! Volume-rendering blending (Sec. II-B, "Blending").
//!
//! Front-to-back alpha compositing with transmittance tracking, shared by
//! every volume-rendering pipeline and by the 3DGS splat compositor. The
//! per-sample `exp` is an SFU op on the accelerator (here the owned
//! [`fmath::exp`]); the accumulate is the Continuous-pattern reduction of
//! Tab. II.

use uni_geometry::{fmath, F32x8, Rgb};

/// Transmittance below which a ray terminates early (the 1/255 threshold
/// used by 3DGS and fast NeRF implementations).
pub const EARLY_STOP_TRANSMITTANCE: f32 = 0.004;

/// Front-to-back compositing state for one ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayAccumulator {
    color: Rgb,
    transmittance: f32,
    samples: u32,
}

impl Default for RayAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl RayAccumulator {
    /// A fresh ray with full transmittance.
    pub fn new() -> Self {
        Self {
            color: Rgb::BLACK,
            transmittance: 1.0,
            samples: 0,
        }
    }

    /// Remaining transmittance.
    #[inline]
    pub fn transmittance(&self) -> f32 {
        self.transmittance
    }

    /// Number of samples composited so far.
    #[inline]
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Whether further samples can no longer change the result.
    #[inline]
    pub fn saturated(&self) -> bool {
        self.transmittance < EARLY_STOP_TRANSMITTANCE
    }

    /// Composites a volumetric sample with `density` over segment length
    /// `dt`: `alpha = 1 - exp(-density · dt)`.
    #[inline]
    pub fn add_density_sample(&mut self, color: Rgb, density: f32, dt: f32) {
        let alpha = 1.0 - fmath::exp(-density.max(0.0) * dt.max(0.0));
        self.add_alpha_sample(color, alpha);
    }

    /// Composites a sample with explicit alpha (splat compositing).
    #[inline]
    pub fn add_alpha_sample(&mut self, color: Rgb, alpha: f32) {
        let a = alpha.clamp(0.0, 0.999);
        self.color += color * (self.transmittance * a);
        self.transmittance *= 1.0 - a;
        self.samples += 1;
    }

    /// Finishes the ray, compositing the remaining transmittance against
    /// `background`.
    #[inline]
    pub fn finish(self, background: Rgb) -> Rgb {
        (self.color + background * self.transmittance).saturate()
    }

    /// Finishes without a background (returns premultiplied color and
    /// final alpha).
    #[inline]
    pub fn finish_premultiplied(self) -> (Rgb, f32) {
        (self.color, 1.0 - self.transmittance)
    }
}

/// Front-to-back compositing state for eight rays, one per lane: the
/// splat compositor's pixels, eight at a time. Lane `l` evolves exactly
/// as a [`RayAccumulator`] fed the same samples, since every update runs
/// [`RayAccumulator::add_alpha_sample`] on that lane. Lanes keep no
/// sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayAccumulatorX8 {
    r: F32x8,
    g: F32x8,
    b: F32x8,
    transmittance: F32x8,
}

impl Default for RayAccumulatorX8 {
    fn default() -> Self {
        Self::new()
    }
}

impl RayAccumulatorX8 {
    /// Eight fresh rays with full transmittance.
    pub fn new() -> Self {
        let ray = RayAccumulator::new();
        Self {
            r: F32x8::splat(ray.color.r),
            g: F32x8::splat(ray.color.g),
            b: F32x8::splat(ray.color.b),
            transmittance: F32x8::splat(ray.transmittance),
        }
    }

    /// Lane `l` as a single ray.
    #[inline(always)]
    fn ray(&self, l: usize) -> RayAccumulator {
        RayAccumulator {
            color: Rgb::new(self.r.0[l], self.g.0[l], self.b.0[l]),
            transmittance: self.transmittance.0[l],
            samples: 0,
        }
    }

    /// Whether lane `l` can no longer change
    /// ([`RayAccumulator::saturated`]).
    #[inline(always)]
    pub fn saturated(&self, l: usize) -> bool {
        self.transmittance.0[l] < EARLY_STOP_TRANSMITTANCE
    }

    /// Composites a sample of `color` with alpha `alpha` into lane `l`
    /// when `blend` holds ([`RayAccumulator::add_alpha_sample`]), as
    /// selects, so a per-lane loop over it stays branch-free; returns
    /// whether the lane is saturated afterwards.
    #[inline(always)]
    pub fn add_alpha_sample(&mut self, l: usize, color: Rgb, alpha: f32, blend: bool) -> bool {
        let old = self.ray(l);
        let mut new = old;
        new.add_alpha_sample(color, alpha);
        let keep = |new: f32, old: f32| if blend { new } else { old };
        self.r.0[l] = keep(new.color.r, old.color.r);
        self.g.0[l] = keep(new.color.g, old.color.g);
        self.b.0[l] = keep(new.color.b, old.color.b);
        self.transmittance.0[l] = keep(new.transmittance, old.transmittance);
        self.saturated(l)
    }

    /// Finishes lane `l` against `background` ([`RayAccumulator::finish`]).
    #[inline]
    pub fn finish(&self, l: usize, background: Rgb) -> Rgb {
        self.ray(l).finish(background)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ray_shows_background() {
        let acc = RayAccumulator::new();
        let bg = Rgb::new(0.1, 0.2, 0.3);
        assert_eq!(acc.finish(bg), bg);
    }

    #[test]
    fn opaque_sample_hides_background() {
        let mut acc = RayAccumulator::new();
        acc.add_density_sample(Rgb::new(1.0, 0.0, 0.0), 1e6, 1.0);
        let out = acc.finish(Rgb::WHITE);
        assert!((out.r - 1.0).abs() < 1e-3);
        assert!(out.g < 1e-2 && out.b < 1e-2);
    }

    #[test]
    fn zero_density_is_transparent() {
        let mut acc = RayAccumulator::new();
        acc.add_density_sample(Rgb::WHITE, 0.0, 1.0);
        assert_eq!(acc.transmittance(), 1.0);
        assert_eq!(acc.finish(Rgb::BLACK), Rgb::BLACK);
    }

    #[test]
    fn compositing_order_matters() {
        let red = Rgb::new(1.0, 0.0, 0.0);
        let blue = Rgb::new(0.0, 0.0, 1.0);
        let mut front_red = RayAccumulator::new();
        front_red.add_alpha_sample(red, 0.6);
        front_red.add_alpha_sample(blue, 0.6);
        let mut front_blue = RayAccumulator::new();
        front_blue.add_alpha_sample(blue, 0.6);
        front_blue.add_alpha_sample(red, 0.6);
        let a = front_red.finish(Rgb::BLACK);
        let b = front_blue.finish(Rgb::BLACK);
        assert!(a.r > a.b, "red-first keeps red dominant");
        assert!(b.b > b.r, "blue-first keeps blue dominant");
    }

    #[test]
    fn saturation_flag_triggers_after_opaque_samples() {
        let mut acc = RayAccumulator::new();
        assert!(!acc.saturated());
        for _ in 0..10 {
            acc.add_alpha_sample(Rgb::WHITE, 0.6);
        }
        assert!(acc.saturated());
        assert_eq!(acc.samples(), 10);
    }

    /// Splitting one segment into two half-segments composites to the same
    /// result (Beer-Lambert consistency).
    #[test]
    fn density_compositing_is_segment_additive() {
        let c = Rgb::new(0.4, 0.5, 0.6);
        let mut whole = RayAccumulator::new();
        whole.add_density_sample(c, 2.0, 1.0);
        let mut halves = RayAccumulator::new();
        halves.add_density_sample(c, 2.0, 0.5);
        halves.add_density_sample(c, 2.0, 0.5);
        let a = whole.finish(Rgb::BLACK);
        let b = halves.finish(Rgb::BLACK);
        assert!((a.r - b.r).abs() < 1e-5, "{} vs {}", a.r, b.r);
        assert!((whole.transmittance() - halves.transmittance()).abs() < 1e-6);
    }

    #[test]
    fn premultiplied_finish_reports_alpha() {
        let mut acc = RayAccumulator::new();
        acc.add_alpha_sample(Rgb::WHITE, 0.5);
        let (_, alpha) = acc.finish_premultiplied();
        assert!((alpha - 0.5).abs() < 1e-6);
    }

    #[test]
    fn lanes_composite_like_single_rays() {
        let colors = [Rgb::new(0.9, 0.2, 0.1), Rgb::new(0.1, 0.7, 0.3), Rgb::WHITE];
        let mut lanes = RayAccumulatorX8::new();
        let mut rays = [RayAccumulator::new(); 8];
        for (step, &color) in colors.iter().cycle().take(12).enumerate() {
            for (l, ray) in rays.iter_mut().enumerate() {
                let alpha = 0.04 * (l * (1 + step % 5)) as f32;
                let blend = (l + step) % 3 != 0;
                let saturated = lanes.add_alpha_sample(l, color, alpha, blend);
                if blend {
                    ray.add_alpha_sample(color, alpha);
                }
                assert_eq!(saturated, ray.saturated(), "lane {l}");
            }
        }
        let bg = Rgb::new(0.2, 0.3, 0.4);
        for (l, ray) in rays.iter().enumerate() {
            assert_eq!(lanes.finish(l, bg), ray.finish(bg), "lane {l}");
        }
        assert!(lanes.saturated(7) && !lanes.saturated(0));
    }
}
