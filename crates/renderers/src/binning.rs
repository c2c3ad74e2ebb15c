//! Stable binning: the one count → prefix → scatter kernel behind every
//! "which primitives touch which region" list in the renderers.
//!
//! The Geometric Processing dataflow (Fig. 10) loads each primitive
//! record only into the PEs whose pixel regions its bounding box
//! touches. [`Bins::build`] is that step in software: given items in
//! some order and the rectangle of bins each one covers, it writes every
//! bin's item ids contiguously, **in item order**. Stability is what
//! lets a binned walk reproduce a whole-list walk bit for bit: a region
//! sees its primitives in the same order either way.
//!
//! Three users share it: the rasterizer's per-band triangle lists
//! (`mesh_pipeline`), and the Gaussian pipeline's depth sort (two
//! single-bin passes over 16-bit key digits — an LSD radix sort is
//! stable binning repeated) and its per-tile splat lists.

/// An inclusive rectangle of bins `[x0, x1] × [y0, y1]` on a grid of
/// `cols` bins per row; bin `(x, y)` is `y * cols + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinRect {
    /// First bin column.
    pub x0: u32,
    /// Last bin column (inclusive).
    pub x1: u32,
    /// First bin row.
    pub y0: u32,
    /// Last bin row (inclusive).
    pub y1: u32,
}

impl BinRect {
    /// A rectangle that covers no bin.
    pub const EMPTY: Self = Self {
        x0: 1,
        x1: 0,
        y0: 1,
        y1: 0,
    };

    /// The single bin `b` of a one-column grid.
    #[inline]
    pub fn one(b: u32) -> Self {
        Self::rows(b, b)
    }

    /// Bins `y0..=y1` of a one-column grid.
    #[inline]
    pub fn rows(y0: u32, y1: u32) -> Self {
        Self {
            x0: 0,
            x1: 0,
            y0,
            y1,
        }
    }
}

/// Per-bin id lists in item order, rebuilt in place every frame.
///
/// Both buffers keep their capacity across builds, so steady-state
/// frames do not touch the allocator.
#[derive(Debug, Default)]
pub struct Bins {
    /// `offsets[b]..offsets[b + 1]` delimits bin `b` in `ids`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Bins {
    /// Rebuilds the bins: every item `i` of `items` lands, in `items`
    /// order, in each bin of `span(i)` ([`BinRect::EMPTY`]: in none).
    ///
    /// `span` is called twice per item (count, then scatter) and must
    /// return the same rectangle both times; its bins must lie inside the
    /// `n_bins` grid of `cols` columns.
    pub fn build<I, S>(&mut self, n_bins: usize, cols: u32, items: I, span: S)
    where
        I: Iterator<Item = u32> + Clone,
        S: Fn(u32) -> BinRect,
    {
        // Count into `offsets[b + 1]`.
        self.offsets.clear();
        self.offsets.resize(n_bins + 1, 0);
        for i in items.clone() {
            let r = span(i);
            for y in r.y0..=r.y1 {
                for x in r.x0..=r.x1 {
                    self.offsets[(y * cols + x) as usize + 1] += 1;
                }
            }
        }
        // Shifted exclusive prefix: `offsets[b + 1]` becomes bin b's
        // first slot, so the scatter below can use it as b's cursor and
        // leaves it at b's end — which is bin b + 1's start.
        let mut running = 0u32;
        for c in &mut self.offsets[1..] {
            let count = *c;
            *c = running;
            running += count;
        }
        self.ids.clear();
        self.ids.resize(running as usize, 0);
        for i in items {
            let r = span(i);
            for y in r.y0..=r.y1 {
                for x in r.x0..=r.x1 {
                    let slot = &mut self.offsets[(y * cols + x) as usize + 1];
                    self.ids[*slot as usize] = i;
                    *slot += 1;
                }
            }
        }
        debug_assert_eq!(self.offsets.last().copied(), Some(running));
    }

    /// Number of bins of the last build.
    pub fn n_bins(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Bin `b`'s item ids, in item order.
    #[inline]
    pub fn bin(&self, b: usize) -> &[u32] {
        &self.ids[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// Every id of every bin, bin after bin.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_keep_item_order_and_cover_each_rect() {
        // Four items on a 3×2 grid, visited in a shuffled order.
        let rects = [
            BinRect {
                x0: 0,
                x1: 1,
                y0: 0,
                y1: 1,
            },
            BinRect::EMPTY,
            BinRect {
                x0: 2,
                x1: 2,
                y0: 1,
                y1: 1,
            },
            BinRect {
                x0: 1,
                x1: 2,
                y0: 0,
                y1: 0,
            },
        ];
        let order = [3u32, 0, 2, 1];
        let mut bins = Bins::default();
        bins.build(6, 3, order.iter().copied(), |i| rects[i as usize]);
        assert_eq!(bins.n_bins(), 6);
        let got: Vec<&[u32]> = (0..6).map(|b| bins.bin(b)).collect();
        assert_eq!(got, [&[0][..], &[3, 0], &[3], &[0], &[0], &[2]]);
        assert_eq!(bins.ids().len(), 7);
    }

    #[test]
    fn single_bin_passes_are_a_stable_counting_sort() {
        let keys = [5u32, 1, 5, 0, 1, 5];
        let mut bins = Bins::default();
        bins.build(6, 1, 0..keys.len() as u32, |i| {
            BinRect::one(keys[i as usize])
        });
        assert_eq!(bins.ids(), [3, 1, 4, 0, 2, 5]);
        assert!(bins.bin(2).is_empty());
    }
}
