//! Dense MLPs with forward, backprop, and Adam training.
//!
//! Neural rendering "learns the physical parameters through gradient
//! descents" (Fig. 1a). This module provides the genuinely neural part of
//! the reproduction: the MLPs used by every pipeline's decode/shading head
//! and the KiloNeRF-style tiny scene MLPs, trainable against the analytic
//! field with Adam.
//!
//! Weights are `f32`; the accelerator executes them as BF16 GEMMs — the
//! workload shape (layer dims, batch) is what the traces carry.
//!
//! All weight blocks, gradient blocks, and training batches live in
//! contiguous row-major [`FlatMat`] buffers, and the hot forward path
//! ([`Mlp::forward_scratch`]) writes into a caller-owned [`MlpScratch`] so
//! per-sample decoding allocates nothing.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use uni_geometry::sampling::XorShift64;
use uni_geometry::{F32x8, FlatMat, Vec3};

/// Activation function applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid (SFU op on the accelerator).
    Sigmoid,
}

impl Activation {
    // uni-lint: hot
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the *activated* output `y`.
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
        }
    }

    /// Whether this activation runs on the PE's special function units.
    pub fn uses_sfu(self) -> bool {
        matches!(self, Activation::Sigmoid)
    }
}

/// Layer weights repacked into 8-output column panels for the wide GEMM
/// microkernel.
///
/// Panel `p` covers outputs `8p..8p+8` and stores, for each input `i`,
/// the eight weights `W[8p + lane][i]` contiguously — so one broadcast
/// of `x[i]` multiplies against one aligned 8-lane load and eight output
/// neurons accumulate per inner-loop step. Outputs past `out_dim` are
/// zero-padded; the tail store masks them off.
#[derive(Debug, Clone, Default)]
struct PackedPanels {
    /// `panels * in_dim * 8` weights, panel-major then input-major.
    weights: Vec<f32>,
    /// Biases padded to `panels * 8`.
    biases: Vec<f32>,
}

impl PackedPanels {
    fn pack(weights: &FlatMat, biases: &[f32]) -> Self {
        let (out_dim, in_dim) = (weights.rows(), weights.cols());
        let panels = out_dim.div_ceil(8);
        // uni-lint: allow(R8, one-time get_or_init panel packing, amortized across every frame — steady_state_alloc confirms 0/frame)
        let mut packed = vec![0.0f32; panels * in_dim * 8];
        for (o, _) in biases.iter().enumerate() {
            let row = weights.row(o);
            let (panel, lane) = (o / 8, o % 8);
            let base = panel * in_dim * 8;
            for (i, &w) in row.iter().enumerate() {
                packed[base + i * 8 + lane] = w;
            }
        }
        // uni-lint: allow(R8, one-time get_or_init bias padding, amortized across every frame — steady_state_alloc confirms 0/frame)
        let mut padded = vec![0.0f32; panels * 8];
        padded[..out_dim].copy_from_slice(biases);
        Self {
            weights: packed,
            biases: padded,
        }
    }
}

/// One dense layer: `y = act(W x + b)` with `W` a row-major
/// `out_dim × in_dim` [`FlatMat`] (row `o` holds the weights into output
/// `o`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Layer {
    weights: FlatMat,
    biases: Vec<f32>,
    activation: Activation,
    /// Lazily packed panel cache for the wide kernel; invalidated by
    /// [`Layer::weights_mut`]. Derived from `weights`/`biases`, so it is
    /// excluded from equality.
    packed: OnceLock<PackedPanels>,
}

impl PartialEq for Layer {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
            && self.biases == other.biases
            && self.activation == other.activation
    }
}

impl Layer {
    /// He-style random initialization.
    pub fn random(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut XorShift64,
    ) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dims must be positive");
        let scale = (2.0 / in_dim as f32).sqrt();
        let weights =
            FlatMat::from_fn(out_dim, in_dim, |_, _| (rng.next_f32() * 2.0 - 1.0) * scale);
        Self {
            weights,
            biases: vec![0.0; out_dim],
            activation,
            packed: OnceLock::new(),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// The activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.biases.len()
    }

    /// The weight block (`out_dim × in_dim`, row-major).
    pub fn weights(&self) -> &FlatMat {
        &self.weights
    }

    /// The bias vector (`out_dim`).
    pub fn biases(&self) -> &[f32] {
        &self.biases
    }

    /// Mutable weight access for constructed (hand-baked) decoders.
    ///
    /// Invalidates the packed panel cache: the next wide forward repacks
    /// from the updated weights.
    pub fn weights_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        self.packed.take();
        (self.weights.as_mut_slice(), &mut self.biases)
    }

    /// Computes the layer into a preallocated slice of width `out_dim`
    /// with the production kernel (8-wide GEMM panels).
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim(), "input width mismatch");
        assert_eq!(out.len(), self.out_dim(), "output width mismatch");
        self.forward_slice_packed(x, out);
    }

    /// Computes the layer with the seed-era scalar row-dot kernel — the
    /// reference the wide kernel is parity-tested against, and the
    /// baseline the `render_scalar` paths keep for honest speedups.
    pub fn forward_into_scalar(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim(), "input width mismatch");
        assert_eq!(out.len(), self.out_dim(), "output width mismatch");
        self.forward_slice_scalar(x, out);
    }

    /// 8-wide GEMM microkernel: eight output neurons accumulate per
    /// inner-loop step from one broadcast input against one packed panel
    /// column, on four independent accumulator registers (the mul→add
    /// chain latency hides behind four in-flight columns per iteration);
    /// the activation is applied vector-wide. The reduction order is
    /// fixed (accumulators combined pairwise once at the end), so
    /// results are bit-stable across runs and across
    /// `UNI_RENDER_THREADS`.
    // uni-lint: hot
    fn forward_slice_packed(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_dim());
        debug_assert_eq!(out.len(), self.out_dim());
        let packed = self
            .packed
            .get_or_init(|| PackedPanels::pack(&self.weights, &self.biases));
        let in_dim = x.len();
        let panels = packed.biases.len() / 8;
        for p in 0..panels {
            let panel = &packed.weights[p * in_dim * 8..(p + 1) * in_dim * 8];
            let mut acc0 = F32x8::ZERO;
            let mut acc1 = F32x8::ZERO;
            let mut acc2 = F32x8::ZERO;
            let mut acc3 = F32x8::ZERO;
            // Zipped chunks keep the input broadcast bounds-check-free,
            // so the loop body is pure vector loads and arithmetic.
            let mut quads = panel.chunks_exact(32);
            let mut inputs = x.chunks_exact(4);
            for (quad, x4) in (&mut quads).zip(&mut inputs) {
                acc0 = F32x8::load(&quad[..8]).mul_add(F32x8::splat(x4[0]), acc0);
                acc1 = F32x8::load(&quad[8..16]).mul_add(F32x8::splat(x4[1]), acc1);
                acc2 = F32x8::load(&quad[16..24]).mul_add(F32x8::splat(x4[2]), acc2);
                acc3 = F32x8::load(&quad[24..32]).mul_add(F32x8::splat(x4[3]), acc3);
            }
            // Up to three tail columns; straight-line reassignments keep
            // the accumulators in registers (no `&mut` through a match).
            let tail = quads.remainder();
            let xt = inputs.remainder();
            if !xt.is_empty() {
                acc0 = F32x8::load(&tail[..8]).mul_add(F32x8::splat(xt[0]), acc0);
            }
            if xt.len() >= 2 {
                acc1 = F32x8::load(&tail[8..16]).mul_add(F32x8::splat(xt[1]), acc1);
            }
            if xt.len() >= 3 {
                acc2 = F32x8::load(&tail[16..24]).mul_add(F32x8::splat(xt[2]), acc2);
            }
            let pre = F32x8::load(&packed.biases[p * 8..]) + ((acc0 + acc1) + (acc2 + acc3));
            let act = match self.activation {
                Activation::Linear => pre,
                Activation::Relu => pre.relu(),
                Activation::Sigmoid => pre.map(|v| 1.0 / (1.0 + (-v).exp())),
            };
            act.store_prefix(&mut out[p * 8..]);
        }
    }

    /// The seed-era kernel: one row-dot per output on four independent
    /// accumulators.
    // uni-lint: hot
    fn forward_slice_scalar(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_dim());
        debug_assert_eq!(out.len(), self.out_dim());
        let head = x.len() & !3;
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = self.weights.row(o);
            let mut acc = [0f32; 4];
            for (r4, x4) in row[..head].chunks_exact(4).zip(x[..head].chunks_exact(4)) {
                acc[0] += r4[0] * x4[0];
                acc[1] += r4[1] * x4[1];
                acc[2] += r4[2] * x4[2];
                acc[3] += r4[3] * x4[3];
            }
            let mut sum = self.biases[o] + ((acc[0] + acc[1]) + (acc[2] + acc[3]));
            for (w, xi) in row[head..].iter().zip(&x[head..]) {
                sum += w * xi;
            }
            *out_v = self.activation.apply(sum);
        }
    }
}

/// Reusable forward-pass buffers for [`Mlp::forward_scratch`].
///
/// The volume pipelines decode features through an MLP once per sample;
/// holding one scratch per worker thread keeps that path allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    cur: Vec<f32>,
    next: Vec<f32>,
}

/// A multi-layer perceptron.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths.
    ///
    /// `dims = [in, h1, ..., out]`; hidden layers use `hidden`, the final
    /// layer uses `output`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new(
        dims: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut XorShift64,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == dims.len() { output } else { hidden };
                Layer::random(w[0], w[1], act, rng)
            })
            .collect();
        Self { layers }
    }

    /// The layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer access for constructed decoders.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Bytes of BF16 weights as stored on the accelerator.
    pub fn weight_bytes(&self) -> u64 {
        self.param_count() as u64 * 2
    }

    /// Forward pass.
    ///
    /// Allocates a fresh output; hot paths should prefer
    /// [`Mlp::forward_scratch`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut scratch = MlpScratch::default();
        self.forward_scratch(x, &mut scratch).to_vec()
    }

    /// Forward pass into caller-owned scratch; returns the output slice.
    ///
    /// Repeated calls reuse the scratch capacity, so steady-state decoding
    /// performs no allocations.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn forward_scratch<'s>(&self, x: &[f32], scratch: &'s mut MlpScratch) -> &'s [f32] {
        assert_eq!(x.len(), self.in_dim(), "input width mismatch");
        scratch.cur.clear();
        scratch.cur.extend_from_slice(x);
        for layer in &self.layers {
            scratch.next.clear();
            scratch.next.resize(layer.out_dim(), 0.0);
            layer.forward_slice_packed(&scratch.cur, &mut scratch.next);
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        &scratch.cur
    }

    /// Forward pass through the seed-era scalar kernel.
    ///
    /// The `render_scalar` reference paths use this so the committed
    /// speedup baselines keep measuring the seed's row-dot code, and the
    /// parity suite compares the wide kernel against it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn forward_scalar(&self, x: &[f32]) -> Vec<f32> {
        let mut scratch = MlpScratch::default();
        self.forward_scratch_scalar(x, &mut scratch).to_vec()
    }

    /// Scalar-kernel twin of [`Mlp::forward_scratch`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn forward_scratch_scalar<'s>(&self, x: &[f32], scratch: &'s mut MlpScratch) -> &'s [f32] {
        assert_eq!(x.len(), self.in_dim(), "input width mismatch");
        scratch.cur.clear();
        scratch.cur.extend_from_slice(x);
        for layer in &self.layers {
            scratch.next.clear();
            scratch.next.resize(layer.out_dim(), 0.0);
            layer.forward_slice_scalar(&scratch.cur, &mut scratch.next);
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        &scratch.cur
    }

    /// Forward pass retaining every layer's activated output (for
    /// backprop) in one contiguous arena. Segment 0 holds the input.
    fn forward_cached_into(&self, x: &[f32], arena: &mut ActivationArena) {
        arena.data.clear();
        arena.offsets.clear();
        arena.offsets.push(0);
        arena.data.extend_from_slice(x);
        arena.offsets.push(arena.data.len());
        for layer in &self.layers {
            let in_start = arena.offsets[arena.offsets.len() - 2];
            let in_end = arena.offsets[arena.offsets.len() - 1];
            arena.data.resize(in_end + layer.out_dim(), 0.0);
            let (head, tail) = arena.data.split_at_mut(in_end);
            layer.forward_slice_packed(&head[in_start..], tail);
            arena.offsets.push(arena.data.len());
        }
    }
}

/// Per-example activations stored as one flat buffer with segment
/// offsets — the allocation-free replacement for the seed's
/// `Vec<Vec<f32>>` activation cache.
#[derive(Debug, Clone, Default)]
struct ActivationArena {
    data: Vec<f32>,
    /// `offsets[i]..offsets[i + 1]` is segment `i`; segment 0 is the
    /// input, segment `i + 1` is layer `i`'s activated output.
    offsets: Vec<usize>,
}

impl ActivationArena {
    fn segment(&self, i: usize) -> &[f32] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Per-layer bias-shaped `f32` segments in **one** flat allocation —
/// the jagged companion to the `FlatMat` weight blocks (layers have
/// different widths, so this is offsets-into-a-buffer rather than a
/// dense matrix; nested `Vec<Vec<f32>>` is barred from the hot crates).
#[derive(Debug, Clone, Default)]
struct LayerSegments {
    data: Vec<f32>,
    /// `offsets[i]..offsets[i + 1]` is layer `i`'s segment.
    offsets: Vec<usize>,
}

impl LayerSegments {
    /// One zeroed segment of `out_dim` floats per layer of `mlp`.
    fn bias_shaped(mlp: &Mlp) -> Self {
        let mut offsets = Vec::with_capacity(mlp.layers.len() + 1);
        offsets.push(0usize);
        for l in &mlp.layers {
            offsets.push(offsets.last().copied().unwrap_or(0) + l.out_dim());
        }
        Self {
            data: vec![0.0; offsets.last().copied().unwrap_or(0)],
            offsets,
        }
    }

    fn seg(&self, i: usize) -> &[f32] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    fn seg_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }
}

/// Per-layer gradients matching an [`Mlp`]'s parameters.
#[derive(Debug, Clone, Default)]
struct Gradients {
    weights: Vec<FlatMat>,
    biases: LayerSegments,
}

impl Gradients {
    fn zeros_like(mlp: &Mlp) -> Self {
        Self {
            weights: mlp
                .layers
                .iter()
                .map(|l| FlatMat::zeros(l.out_dim(), l.in_dim()))
                .collect(),
            biases: LayerSegments::bias_shaped(mlp),
        }
    }

    fn zero(&mut self) {
        for w in &mut self.weights {
            w.fill(0.0);
        }
        self.biases.fill(0.0);
    }
}

/// Adam optimizer state for one MLP.
#[derive(Debug, Clone)]
pub struct AdamTrainer {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    m_w: Vec<FlatMat>,
    v_w: Vec<FlatMat>,
    m_b: LayerSegments,
    v_b: LayerSegments,
    // Reused across steps so steady-state training is allocation-free.
    grads: Gradients,
    arena: ActivationArena,
    delta: Vec<f32>,
    prev_delta: Vec<f32>,
}

impl AdamTrainer {
    /// Creates a trainer for `mlp` with learning rate `lr`.
    pub fn new(mlp: &Mlp, lr: f32) -> Self {
        let weight_shaped = || -> Vec<FlatMat> {
            mlp.layers
                .iter()
                .map(|l| FlatMat::zeros(l.out_dim(), l.in_dim()))
                .collect()
        };
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m_w: weight_shaped(),
            v_w: weight_shaped(),
            m_b: LayerSegments::bias_shaped(mlp),
            v_b: LayerSegments::bias_shaped(mlp),
            grads: Gradients::zeros_like(mlp),
            arena: ActivationArena::default(),
            delta: Vec::new(),
            prev_delta: Vec::new(),
        }
    }

    /// Runs one minibatch step of MSE regression; returns the batch loss.
    ///
    /// `inputs` is `batch × in_dim`, `targets` is `batch × out_dim` (one
    /// example per row).
    ///
    /// # Panics
    ///
    /// Panics if batch sizes differ, the batch is empty, or row widths
    /// mismatch the network dims.
    pub fn train_step(&mut self, mlp: &mut Mlp, inputs: &FlatMat, targets: &FlatMat) -> f32 {
        assert_eq!(inputs.rows(), targets.rows(), "batch size mismatch");
        assert!(inputs.rows() > 0, "empty batch");
        assert_eq!(inputs.cols(), mlp.in_dim(), "input width mismatch");
        assert_eq!(targets.cols(), mlp.out_dim(), "target width mismatch");
        self.grads.zero();
        let mut loss = 0.0f32;
        let inv_n = 1.0 / inputs.rows() as f32;

        for b in 0..inputs.rows() {
            let (x, t) = (inputs.row(b), targets.row(b));
            mlp.forward_cached_into(x, &mut self.arena);
            let y = self.arena.segment(mlp.layers.len());
            // dL/dy for MSE (factor 2 folded into the learning rate
            // convention: L = mean((y - t)^2)).
            self.delta.clear();
            self.delta.extend(y.iter().zip(t).map(|(yi, ti)| {
                let d = yi - ti;
                loss += d * d * inv_n / y.len() as f32;
                2.0 * d * inv_n / y.len() as f32
            }));

            for (li, layer) in mlp.layers.iter().enumerate().rev() {
                let out = self.arena.segment(li + 1);
                let input = self.arena.segment(li);
                // Through the activation.
                for (d, &o) in self.delta.iter_mut().zip(out) {
                    *d *= layer.activation.derivative_from_output(o);
                }
                // Accumulate parameter grads and propagate.
                let gw = &mut self.grads.weights[li];
                let gb = self.grads.biases.seg_mut(li);
                self.prev_delta.clear();
                self.prev_delta.resize(layer.in_dim(), 0.0);
                for (o, gb_o) in gb.iter_mut().enumerate() {
                    let d = self.delta[o];
                    *gb_o += d;
                    let row = layer.weights.row(o);
                    let grow = gw.row_mut(o);
                    for i in 0..layer.in_dim() {
                        grow[i] += d * input[i];
                        self.prev_delta[i] += d * row[i];
                    }
                }
                std::mem::swap(&mut self.delta, &mut self.prev_delta);
            }
        }

        // Adam update.
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for (li, layer) in mlp.layers.iter_mut().enumerate() {
            let (w, b) = layer.weights_mut();
            for (i, wi) in w.iter_mut().enumerate() {
                let g = self.grads.weights[li].as_slice()[i];
                let m = &mut self.m_w[li].as_mut_slice()[i];
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                let v = &mut self.v_w[li].as_mut_slice()[i];
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let m_hat = self.m_w[li].as_slice()[i] / bc1;
                let v_hat = self.v_w[li].as_slice()[i] / bc2;
                *wi -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            let gb = self.grads.biases.seg(li);
            let mb = self.m_b.seg_mut(li);
            let vb = self.v_b.seg_mut(li);
            for (i, bi) in b.iter_mut().enumerate() {
                let g = gb[i];
                let m = &mut mb[i];
                let v = &mut vb[i];
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                *bi -= self.lr * (*m / bc1) / ((*v / bc2).sqrt() + self.eps);
            }
        }
        loss
    }
}

/// NeRF-style sinusoidal positional encoding of a 3D point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PositionalEncoding {
    /// Number of frequency octaves.
    pub num_freqs: u32,
    /// Whether the raw coordinates are included.
    pub include_input: bool,
}

impl PositionalEncoding {
    /// Creates an encoding with `num_freqs` octaves, including the input.
    pub fn new(num_freqs: u32) -> Self {
        Self {
            num_freqs,
            include_input: true,
        }
    }

    /// Output width for a 3D input.
    pub fn out_dim(&self) -> usize {
        (if self.include_input { 3 } else { 0 }) + 6 * self.num_freqs as usize
    }

    /// SFU operations per encoded point (one sin and one cos per axis and
    /// octave).
    pub fn sfu_ops_per_point(&self) -> u64 {
        6 * u64::from(self.num_freqs)
    }

    /// Encodes a point.
    pub fn encode(&self, p: Vec3) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.out_dim());
        self.encode_into(p, &mut out);
        out
    }

    /// Encodes a point into a reused buffer (allocation-free hot path).
    pub fn encode_into(&self, p: Vec3, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.out_dim());
        if self.include_input {
            out.extend_from_slice(&[p.x, p.y, p.z]);
        }
        let mut freq = 1.0f32;
        for _ in 0..self.num_freqs {
            for c in [p.x, p.y, p.z] {
                out.push((c * freq * std::f32::consts::PI).sin());
            }
            for c in [p.x, p.y, p.z] {
                out.push((c * freq * std::f32::consts::PI).cos());
            }
            freq *= 2.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> XorShift64 {
        XorShift64::new(1234)
    }

    fn batch_of(rows: &[&[f32]]) -> FlatMat {
        let mut m = FlatMat::with_row_capacity(rows.len(), rows[0].len());
        for r in rows {
            m.push_row(r);
        }
        m
    }

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&[3, 8, 2], Activation::Relu, Activation::Linear, &mut rng());
        assert_eq!(mlp.in_dim(), 3);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.param_count(), 3 * 8 + 8 + 8 * 2 + 2);
        let y = mlp.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(y.len(), 2);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_scratch_matches_forward_and_reuses_buffers() {
        let mlp = Mlp::new(
            &[3, 16, 4],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng(),
        );
        let mut scratch = MlpScratch::default();
        for i in 0..8 {
            let x = [0.1 * i as f32, -0.2, 0.3];
            let expected = mlp.forward(&x);
            let got = mlp.forward_scratch(&x, &mut scratch);
            assert_eq!(got, expected.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let mlp = Mlp::new(&[3, 2], Activation::Relu, Activation::Linear, &mut rng());
        mlp.forward(&[1.0]);
    }

    #[test]
    fn sigmoid_output_is_bounded() {
        let mlp = Mlp::new(
            &[2, 8, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng(),
        );
        for i in 0..20 {
            let y = mlp.forward(&[i as f32, -(i as f32)]);
            assert!(y[0] > 0.0 && y[0] < 1.0);
        }
    }

    /// Finite-difference gradient check on a tiny network.
    #[test]
    fn backprop_matches_finite_differences() {
        let mut mlp = Mlp::new(
            &[2, 3, 1],
            Activation::Sigmoid,
            Activation::Linear,
            &mut rng(),
        );
        let x = [0.3f32, -0.7];
        let t = [0.25f32];

        // Analytic gradient for one parameter via a training step with SGD
        // semantics: capture the gradient by instrumenting through Adam is
        // messy, so compute loss directly at w±h instead and compare to the
        // parameter delta direction after one very small Adam step.
        let loss_of = |m: &Mlp| {
            let y = m.forward(&x);
            (y[0] - t[0]) * (y[0] - t[0])
        };

        let base_loss = loss_of(&mlp);
        let mut trainer = AdamTrainer::new(&mlp, 1e-3);
        let reported = trainer.train_step(&mut mlp, &batch_of(&[&x]), &batch_of(&[&t]));
        assert!(
            (reported - base_loss).abs() < 1e-4,
            "{reported} vs {base_loss}"
        );
        // One step must reduce the loss for a smooth problem at small lr.
        assert!(loss_of(&mlp) < base_loss);
    }

    #[test]
    fn training_fits_a_smooth_function() {
        let mut r = rng();
        let mut mlp = Mlp::new(
            &[2, 16, 16, 1],
            Activation::Relu,
            Activation::Linear,
            &mut r,
        );
        let mut trainer = AdamTrainer::new(&mlp, 5e-3);
        let f = |x: f32, y: f32| (x * 2.0).sin() * 0.5 + y * y * 0.3;
        let mut first_loss = None;
        let mut last_loss = 0.0;
        let mut inputs = FlatMat::with_row_capacity(32, 2);
        let mut targets = FlatMat::with_row_capacity(32, 1);
        for _ in 0..300 {
            inputs.clear_rows();
            targets.clear_rows();
            for _ in 0..32 {
                let p = [r.range_f32(-1.0, 1.0), r.range_f32(-1.0, 1.0)];
                inputs.push_row(&p);
                targets.push_row(&[f(p[0], p[1])]);
            }
            last_loss = trainer.train_step(&mut mlp, &inputs, &targets);
            first_loss.get_or_insert(last_loss);
        }
        let first = first_loss.expect("ran");
        assert!(
            last_loss < first * 0.2,
            "loss should drop substantially: {first} -> {last_loss}"
        );
        // Spot-check prediction quality.
        let y = mlp.forward(&[0.5, 0.5]);
        assert!(
            (y[0] - f(0.5, 0.5)).abs() < 0.25,
            "{} vs {}",
            y[0],
            f(0.5, 0.5)
        );
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let build = || {
            let mut r = XorShift64::new(99);
            let mut mlp = Mlp::new(&[2, 8, 1], Activation::Relu, Activation::Linear, &mut r);
            let mut tr = AdamTrainer::new(&mlp, 1e-2);
            for _ in 0..10 {
                tr.train_step(&mut mlp, &batch_of(&[&[0.1, 0.2]]), &batch_of(&[&[0.3]]));
            }
            mlp.forward(&[0.5, -0.5])
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn positional_encoding_dims_and_values() {
        let pe = PositionalEncoding::new(4);
        assert_eq!(pe.out_dim(), 3 + 24);
        assert_eq!(pe.sfu_ops_per_point(), 24);
        let e = pe.encode(Vec3::new(0.5, 0.0, -0.5));
        assert_eq!(e.len(), pe.out_dim());
        assert_eq!(e[0], 0.5);
        // sin(0.5 * pi) = 1 at the first octave, x axis.
        assert!((e[3] - 1.0).abs() < 1e-5);
        // cos(0 * pi) = 1 for y axis.
        assert!((e[7] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn weight_bytes_are_two_per_param() {
        let mlp = Mlp::new(&[4, 4], Activation::Relu, Activation::Linear, &mut rng());
        assert_eq!(mlp.weight_bytes(), (4 * 4 + 4) as u64 * 2);
    }

    /// The 8-wide packed kernel agrees with the seed-era row-dot within
    /// 1e-5 and is bit-stable across repeated runs, at widths that are
    /// not multiples of 8 (odd in_dim exercises the broadcast tail, odd
    /// out_dim the masked panel store).
    #[test]
    fn packed_kernel_matches_scalar_for_awkward_shapes() {
        let mut r = rng();
        for &(in_dim, out_dim) in &[
            (1usize, 1usize),
            (3, 7),
            (8, 8),
            (5, 9),
            (39, 16),
            (13, 24),
            (64, 4),
            (17, 31),
        ] {
            for act in [Activation::Linear, Activation::Relu, Activation::Sigmoid] {
                let layer = Layer::random(in_dim, out_dim, act, &mut r);
                let x: Vec<f32> = (0..in_dim).map(|k| (k as f32 * 0.37 - 1.1).sin()).collect();
                let mut wide = vec![0.0f32; out_dim];
                let mut again = vec![0.0f32; out_dim];
                let mut scalar = vec![0.0f32; out_dim];
                layer.forward_slice_packed(&x, &mut wide);
                layer.forward_slice_packed(&x, &mut again);
                layer.forward_slice_scalar(&x, &mut scalar);
                for (o, (w, s)) in wide.iter().zip(&scalar).enumerate() {
                    assert!(
                        (w - s).abs() < 1e-5,
                        "{in_dim}x{out_dim} {act:?} output {o}: wide {w} vs scalar {s}"
                    );
                    assert_eq!(
                        w.to_bits(),
                        again[o].to_bits(),
                        "{in_dim}x{out_dim} {act:?} output {o}: wide kernel must be bit-stable"
                    );
                }
            }
        }
    }

    /// Editing weights through `weights_mut` drops the packed panels, so
    /// the next wide forward sees the new parameters.
    #[test]
    fn weights_mut_invalidates_the_packed_panels() {
        let mut layer = Layer::random(4, 9, Activation::Linear, &mut rng());
        let x = [0.5f32, -1.0, 0.25, 2.0];
        let mut before = vec![0.0f32; 9];
        layer.forward_slice_packed(&x, &mut before);
        {
            let (w, b) = layer.weights_mut();
            for wi in w.iter_mut() {
                *wi += 1.0;
            }
            b[0] = 3.0;
        }
        let mut after = vec![0.0f32; 9];
        let mut expected = vec![0.0f32; 9];
        layer.forward_slice_packed(&x, &mut after);
        layer.forward_slice_scalar(&x, &mut expected);
        assert_ne!(before, after, "stale panels would reproduce the old output");
        for (o, (a, e)) in after.iter().zip(&expected).enumerate() {
            assert!((a - e).abs() < 1e-5, "output {o}: {a} vs {e} after repack");
        }
    }

    /// The scalar twin of `forward_scratch` runs the seed-era kernel end
    /// to end and stays within parity tolerance of the production path.
    #[test]
    fn forward_scratch_scalar_matches_production_within_tolerance() {
        let mlp = Mlp::new(
            &[7, 19, 5],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng(),
        );
        let x: Vec<f32> = (0..7).map(|k| 0.2 * k as f32 - 0.6).collect();
        let mut scratch = MlpScratch::default();
        let prod = mlp.forward_scratch(&x, &mut scratch).to_vec();
        let mut scratch2 = MlpScratch::default();
        let scalar = mlp.forward_scratch_scalar(&x, &mut scratch2).to_vec();
        assert_eq!(scalar, mlp.forward_scalar(&x));
        for (p, s) in prod.iter().zip(&scalar) {
            assert!((p - s).abs() < 1e-5, "{p} vs {s}");
        }
    }
}
