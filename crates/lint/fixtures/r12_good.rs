//! R12 good twin: the same loop on the owned math, and a libm call that
//! no hot fn reaches (set-up code may use libm).

use uni_geometry::fmath;

// uni-lint: hot
pub fn shade_rows(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = blend(*x) + fmath::sin_cos(*x).0;
    }
}

fn blend(density: f32) -> f32 {
    1.0 - fmath::exp(-density)
}

pub fn setup(fov_y: f32) -> f32 {
    (fov_y * 0.5).tan()
}
