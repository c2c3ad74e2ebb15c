//! A pool of reusable framebuffers.
//!
//! Frame streams hand rendered [`Image`]s to their consumer and take
//! recycled ones back; the pool keeps the returned buffers so
//! steady-state streaming performs **zero framebuffer allocations after
//! the first frame** — the allocation counter makes that property
//! testable.

use uni_geometry::Image;

/// A free-list of render targets with an allocation counter.
#[derive(Debug, Default)]
pub struct FramePool {
    free: Vec<Image>,
    allocations: u64,
    peak_pixels: usize,
}

impl FramePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a reusable render target: a pooled buffer when one is
    /// available, otherwise a fresh (counted) empty image. Contents and
    /// dimensions are *unspecified* — the consumer is expected to hand
    /// the target to `Renderer::render_into` (or `render_traced`), whose resize-and-fill is
    /// then the only full-frame write (acquiring does not touch pixels,
    /// so frames are never cleared twice).
    ///
    /// When the upcoming frame's resolution is known, prefer
    /// [`FramePool::acquire_for`], which also counts the reallocation a
    /// too-small pooled buffer is about to pay.
    pub fn acquire(&mut self) -> Image {
        match self.free.pop() {
            Some(img) => img,
            None => {
                self.allocations += 1;
                Image::empty()
            }
        }
    }

    /// Takes a reusable render target for a `width × height` frame.
    ///
    /// Identical to [`FramePool::acquire`] except that a pooled buffer
    /// whose capacity cannot hold the frame is *counted as an
    /// allocation*: the subsequent `Image::resize` will reallocate its
    /// pixel buffer exactly once, and that hidden growth used to escape
    /// the counter. A stream that shrinks and then grows back within
    /// capacity still counts nothing; growing past the pooled capacity
    /// mid-stream counts once and the grown buffer serves every later
    /// frame at that size for free.
    pub fn acquire_for(&mut self, width: u32, height: u32) -> Image {
        let needed = (width as usize) * (height as usize);
        self.peak_pixels = self.peak_pixels.max(needed);
        match self.free.pop() {
            Some(img) => {
                if img.capacity() < needed {
                    self.allocations += 1;
                }
                img
            }
            None => {
                self.allocations += 1;
                Image::empty()
            }
        }
    }

    /// Returns a frame to the pool for reuse.
    pub fn release(&mut self, frame: Image) {
        self.free.push(frame);
    }

    /// Number of *fresh* targets the pool has had to create — stays at
    /// its steady-state value (typically 1) while callers recycle. Each
    /// fresh target grows to frame size once, on its first render.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// The largest frame (in pixels) ever requested through
    /// [`FramePool::acquire_for`]. Lets a caller verify that a stream
    /// served under resolution degradation really rendered smaller
    /// frames (a shrunken request leaves the peak untouched; only
    /// native-size frames raise it).
    pub fn peak_pixels(&self) -> usize {
        self.peak_pixels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uni_geometry::Rgb;

    #[test]
    fn recycled_buffers_are_not_reallocated() {
        let mut pool = FramePool::new();
        let mut a = pool.acquire();
        a.resize(8, 8, Rgb::BLACK);
        assert_eq!(pool.allocations(), 1);
        let ptr = a.pixels().as_ptr();
        pool.release(a);
        let b = pool.acquire();
        assert_eq!(pool.allocations(), 1, "reuse, not a new allocation");
        assert_eq!(b.pixels().as_ptr(), ptr, "same buffer back");
        assert_eq!(b.get(7, 7), Rgb::BLACK, "contents untouched by acquire");
    }

    #[test]
    fn unreturned_frames_force_new_acquisitions() {
        let mut pool = FramePool::new();
        let _a = pool.acquire();
        let _b = pool.acquire();
        assert_eq!(pool.allocations(), 2);
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn growing_past_pooled_capacity_counts_exactly_once() {
        let mut pool = FramePool::new();
        let mut img = pool.acquire_for(8, 8);
        img.resize(8, 8, Rgb::BLACK);
        assert_eq!(pool.allocations(), 1, "first frame is the only cold one");
        pool.release(img);

        // Mid-stream growth: the pooled 8x8 buffer cannot hold 16x16, so
        // the resize it is about to pay is counted — once.
        let mut img = pool.acquire_for(16, 16);
        assert_eq!(pool.allocations(), 2, "growth reallocation counted");
        img.resize(16, 16, Rgb::BLACK);
        let cap = img.capacity();
        pool.release(img);

        // Every later frame at the grown size reuses the grown buffer.
        let img = pool.acquire_for(16, 16);
        assert_eq!(pool.allocations(), 2, "steady state after growth");
        assert_eq!(img.capacity(), cap);
    }

    #[test]
    fn shrink_then_grow_within_capacity_is_free() {
        let mut pool = FramePool::new();
        let mut img = pool.acquire_for(12, 12);
        img.resize(12, 12, Rgb::BLACK);
        pool.release(img);

        // Shrink: capacity is retained by Image::resize...
        let mut img = pool.acquire_for(6, 6);
        img.resize(6, 6, Rgb::BLACK);
        let ptr = img.pixels().as_ptr();
        pool.release(img);

        // ...so growing back to the original size stays allocation-free.
        let mut img = pool.acquire_for(12, 12);
        assert_eq!(pool.allocations(), 1, "shrink-then-grow reuses capacity");
        img.resize(12, 12, Rgb::BLACK);
        assert_eq!(img.pixels().as_ptr(), ptr, "same buffer throughout");
    }
}
