//! R12 fixture: a libm `exp` one call below the hot fn and a libm
//! `sin` inside it — frame bits would follow the host's libm.

// uni-lint: hot
pub fn shade_rows(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = blend(*x) + x.sin();
    }
}

fn blend(density: f32) -> f32 {
    1.0 - (-density).exp()
}
