//! Camera paths: deterministic frame-indexed camera trajectories.
//!
//! A [`CameraPath`] is the *input stream* of a served session:
//! a finite sequence of cameras a renderer walks frame by frame. Paths
//! are defined analytically (orbit sweeps, pose lerps) or as explicit
//! waypoint lists, so any frame can be produced by index without storing
//! the whole sequence.

use uni_geometry::{Camera, Orbit, Vec3};

/// How the path generates its cameras.
#[derive(Debug, Clone)]
enum PathKind {
    /// Sweep of `sweep` radians along an orbit starting at `start`.
    /// Frames are spaced *endpoint-exclusively* (`i / frames`), so a full
    /// `TAU` sweep never duplicates its first view — matching
    /// [`Orbit::cameras`].
    Orbit {
        orbit: Orbit,
        start: f32,
        sweep: f32,
    },
    /// Pose interpolation between two cameras, endpoints inclusive
    /// (boxed to keep the variants size-balanced).
    Lerp(Box<(Camera, Camera)>),
    /// An explicit camera list.
    Waypoints(Vec<Camera>),
}

/// A finite camera trajectory, indexable by frame.
#[derive(Debug, Clone)]
pub struct CameraPath {
    kind: PathKind,
    frames: usize,
}

impl CameraPath {
    /// A full revolution around `orbit` in `frames` evenly spaced views
    /// (endpoint-exclusive, like [`Orbit::cameras`]).
    pub fn orbit(orbit: Orbit, frames: usize) -> Self {
        Self::orbit_arc(orbit, 0.0, std::f32::consts::TAU, frames)
    }

    /// An arc of `sweep` radians along `orbit` starting at angle `start`,
    /// in `frames` evenly spaced views (endpoint-exclusive).
    pub fn orbit_arc(orbit: Orbit, start: f32, sweep: f32, frames: usize) -> Self {
        Self {
            kind: PathKind::Orbit {
                orbit,
                start,
                sweep,
            },
            frames,
        }
    }

    /// A straight-line pose interpolation from `from` to `to` over
    /// `frames` views, endpoints inclusive. Eye positions, forward
    /// directions, the field of view, and the near/far clip planes
    /// interpolate linearly; the resolution comes from `from`.
    /// Degenerate when the two forward directions are exactly opposed
    /// (the lerped direction vanishes).
    pub fn lerp(from: Camera, to: Camera, frames: usize) -> Self {
        Self {
            kind: PathKind::Lerp(Box::new((from, to))),
            frames,
        }
    }

    /// An explicit list of cameras.
    pub fn waypoints(cameras: Vec<Camera>) -> Self {
        let frames = cameras.len();
        Self {
            kind: PathKind::Waypoints(cameras),
            frames,
        }
    }

    /// Number of frames on the path.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether the path holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// The camera for frame `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    pub fn camera(&self, index: usize) -> Camera {
        assert!(
            index < self.frames,
            "frame {index} out of range ({} frames)",
            self.frames
        );
        match &self.kind {
            PathKind::Orbit {
                orbit,
                start,
                sweep,
            } => orbit.camera_at(start + index as f32 / self.frames as f32 * sweep),
            PathKind::Lerp(endpoints) => {
                let (from, to) = endpoints.as_ref();
                let t = if self.frames <= 1 {
                    0.0
                } else {
                    index as f32 / (self.frames - 1) as f32
                };
                let eye = from.eye.lerp(to.eye, t);
                let fwd = from.forward().lerp(to.forward(), t).normalized();
                let lin = |a: f32, b: f32| a * (1.0 - t) + b * t;
                Camera::look_at(
                    eye,
                    eye + fwd,
                    Vec3::Y,
                    lin(from.fov_y, to.fov_y),
                    from.width,
                    from.height,
                )
                .with_clip(lin(from.near, to.near), lin(from.far, to.far))
            }
            PathKind::Waypoints(cams) => cams[index],
        }
    }

    /// Iterates over every camera on the path in frame order.
    pub fn iter(&self) -> impl Iterator<Item = Camera> + '_ {
        (0..self.frames).map(|i| self.camera(i))
    }

    /// The tail of this path from frame `start` (inclusive) to the end,
    /// as an explicit waypoint list.
    ///
    /// Frame `i` of the suffix is **bit-identical** to frame
    /// `start + i` of the original: the cameras are materialized through
    /// the same [`CameraPath::camera`] arithmetic the original path
    /// would use, never re-parameterized — which is what lets a migrated
    /// session resume mid-path on another shard and still deliver the
    /// exact frames the unmigrated session would have. `start >= len()`
    /// yields an empty path.
    pub fn suffix(&self, start: usize) -> Self {
        Self::waypoints((start..self.frames).map(|i| self.camera(i)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orbit() -> Orbit {
        Orbit {
            target: Vec3::ZERO,
            radius: 4.0,
            height: 1.0,
            fov_y: 1.0,
            width: 64,
            height_px: 48,
        }
    }

    #[test]
    fn full_orbit_matches_orbit_cameras() {
        let path = CameraPath::orbit(orbit(), 6);
        let reference = orbit().cameras(6);
        assert_eq!(path.len(), 6);
        for (i, cam) in path.iter().enumerate() {
            assert!((cam.eye - reference[i].eye).length() < 1e-6, "frame {i}");
        }
    }

    #[test]
    fn lerp_path_hits_both_endpoints() {
        let a = Camera::look_at(Vec3::new(4.0, 1.0, 0.0), Vec3::ZERO, Vec3::Y, 1.0, 64, 48)
            .with_clip(0.5, 50.0);
        let b = Camera::look_at(Vec3::new(0.0, 1.0, 4.0), Vec3::ZERO, Vec3::Y, 1.2, 64, 48)
            .with_clip(1.0, 100.0);
        let path = CameraPath::lerp(a, b, 5);
        assert!((path.camera(0).eye - a.eye).length() < 1e-6);
        assert!((path.camera(4).eye - b.eye).length() < 1e-6);
        let mid = path.camera(2);
        assert!((mid.eye - a.eye.lerp(b.eye, 0.5)).length() < 1e-6);
        assert!((mid.fov_y - 1.1).abs() < 1e-6);
        // Clip planes interpolate too (endpoints reproduce the inputs).
        assert!((path.camera(0).near - 0.5).abs() < 1e-6);
        assert!((path.camera(4).far - 100.0).abs() < 1e-6);
        assert!((mid.near - 0.75).abs() < 1e-6);
        assert!((mid.far - 75.0).abs() < 1e-6);
    }

    #[test]
    fn waypoints_round_trip() {
        let cams = orbit().cameras(3);
        let path = CameraPath::waypoints(cams.clone());
        assert_eq!(path.len(), 3);
        assert!((path.camera(2).eye - cams[2].eye).length() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_frame_panics() {
        CameraPath::orbit(orbit(), 2).camera(2);
    }

    #[test]
    fn suffix_reproduces_the_original_frames_bit_for_bit() {
        let path = CameraPath::orbit_arc(orbit(), 0.3, 2.5, 7);
        let tail = path.suffix(3);
        assert_eq!(tail.len(), 4);
        for i in 0..tail.len() {
            // Bit-identical, not approximately equal: the suffix stores
            // the exact cameras the original arithmetic produces.
            assert_eq!(tail.camera(i).eye, path.camera(3 + i).eye, "frame {i}");
            assert_eq!(tail.camera(i).fov_y, path.camera(3 + i).fov_y);
        }
        assert!(path.suffix(7).is_empty());
        assert!(path.suffix(99).is_empty());
    }
}
