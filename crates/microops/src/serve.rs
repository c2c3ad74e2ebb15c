//! Serving statistics: boundary-switch metering and per-session /
//! aggregate summaries for multi-stream schedules.
//!
//! Uni-Render's accelerator is *one* device: when it serves several frame
//! streams (or several renderers) interleaved, a PE-array reconfiguration
//! is paid whenever two *consecutively scheduled* frames start and end in
//! different micro-operator families — regardless of which stream they
//! belong to. This module carries the device-independent bookkeeping for
//! that claim:
//!
//! - [`BoundaryMeter`] — walks a schedule of frame traces (via their
//!   [`Trace::first_op`] / [`Trace::last_op`] families) and counts the
//!   boundary switches paid vs. amortized away;
//! - [`SessionStats`] — one stream's share of a served schedule;
//! - [`ServerSummary`] — the aggregate over every session a server
//!   scheduled, with the invariant that aggregate counters equal the sum
//!   of the per-session ones.
//!
//! [`Trace::first_op`]: crate::Trace::first_op
//! [`Trace::last_op`]: crate::Trace::last_op

use crate::op::MicroOp;
use crate::pipeline::Pipeline;
use serde::{Deserialize, Serialize};

/// Nearest-rank percentile over an ascending-sorted sample: the value at
/// 1-indexed rank `ceil(p/100 · n)`, with the rank clamped into
/// `[1, n]` so out-of-range `p` (≤ 0 or ≥ 100) degrades to the sample
/// minimum / maximum instead of indexing out of bounds. Deterministic —
/// no interpolation, no ambient state — and shared by every latency
/// summary in the workspace ([`SessionStats::latency_p50`] /
/// [`SessionStats::latency_p99`] and the session-stream percentiles), so
/// the serving stack has exactly one definition of "p99" to trust.
///
/// # Panics
///
/// Panics on an empty sample — a percentile of nothing is a caller bug,
/// not a value.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One pipeline-aware schedule boundary a [`BoundaryMeter`] crossed: the
/// ordered pipeline pair and whether entering `to` reconfigured.
///
/// Recorded by [`BoundaryMeter::observe_for`] for **every** real
/// boundary — paid *and* amortized — because switch-cost estimation
/// ([`crate::SwitchCostModel`]) needs the pair either way: an amortized
/// same-renderer boundary is evidence the pair is cheap, exactly as a
/// paid one is evidence it is expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryEvent {
    /// Pipeline of the previously scheduled (non-empty) frame.
    pub from: Pipeline,
    /// Pipeline of the frame just entered.
    pub to: Pipeline,
    /// Whether entering `to` paid a PE-array reconfiguration.
    pub switched: bool,
}

/// Counts PE-array mode switches across a sequence of scheduled frames.
///
/// Feed it each scheduled frame's pipeline and boundary micro-operator
/// families in schedule order ([`BoundaryMeter::observe_for`]); it
/// reports whether *entering* that frame required a reconfiguration and
/// keeps running totals of switches paid and avoided. The first observed
/// frame is free — there is no previous mode to switch from.
///
/// Empty traces (no invocations, `None` boundary ops) neither pay nor
/// avoid a switch and leave the remembered mode untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryMeter {
    last: Option<MicroOp>,
    /// Pipeline of the most recent non-empty frame.
    last_pipeline: Option<Pipeline>,
    /// The most recent pipeline-aware boundary crossed, pair and verdict
    /// ([`BoundaryMeter::last_boundary`]) — the history switch-cost
    /// estimation consumes.
    last_event: Option<BoundaryEvent>,
    switches: u64,
    avoided: u64,
}

impl BoundaryMeter {
    /// A meter that has observed nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the next scheduled frame's boundary families *and its
    /// pipeline*, returning whether entering it required a
    /// reconfiguration.
    ///
    /// The accelerator is configured per renderer: crossing from one
    /// pipeline family to another at a schedule boundary always pays a
    /// reconfiguration (dataflow and parameter layout change even when
    /// the two traces happen to touch the same micro-operator at the
    /// seam). A boundary between two frames of the *same* pipeline pays
    /// only when the micro-operator families differ — which is exactly
    /// what switch-coalescing schedules amortize by batching
    /// same-pipeline frames. The first observed frame is free; empty
    /// traces neither pay nor avoid and leave both memories untouched.
    pub fn observe_for(
        &mut self,
        pipeline: Pipeline,
        first: Option<MicroOp>,
        last: Option<MicroOp>,
    ) -> bool {
        let switched = match (self.last, first) {
            (Some(prev), Some(first)) => {
                let paid = !(prev == first && self.last_pipeline == Some(pipeline));
                if paid {
                    self.switches += 1;
                } else {
                    self.avoided += 1;
                }
                // Record the boundary with its ordered pipeline pair —
                // amortized same-renderer boundaries included, since the
                // cost model learns from both outcomes.
                self.last_event = self.last_pipeline.map(|from| BoundaryEvent {
                    from,
                    to: pipeline,
                    switched: paid,
                });
                paid
            }
            _ => {
                self.last_event = None;
                false
            }
        };
        if first.is_some() || last.is_some() {
            self.last_pipeline = Some(pipeline);
        }
        self.last = last.or(self.last);
        switched
    }

    /// The most recent pipeline-aware boundary crossed by
    /// [`BoundaryMeter::observe_for`]: its ordered pipeline pair and
    /// whether it reconfigured. `None` when the last observation was not
    /// a real boundary (first frame or empty trace). Feed it to
    /// [`crate::SwitchCostModel::observe`] to learn per-pair switch
    /// costs from the schedule as served.
    pub fn last_boundary(&self) -> Option<BoundaryEvent> {
        self.last_event
    }

    /// The micro-operator family the most recent non-empty frame ended in.
    pub fn last_op(&self) -> Option<MicroOp> {
        self.last
    }

    /// Boundary switches paid so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Boundaries where the families matched (switch amortized away).
    pub fn avoided(&self) -> u64 {
        self.avoided
    }

    /// All boundaries observed between non-empty frames.
    pub fn boundaries(&self) -> u64 {
        self.switches + self.avoided
    }
}

/// One session's (one camera stream's) share of a served schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Server-assigned session id (index in admission order).
    pub session: usize,
    /// The pipeline family this session renders with.
    pub pipeline: Pipeline,
    /// Fair-share weight the session was admitted with (≥ 1; consumed by
    /// weighted-fair scheduling policies).
    pub weight: u32,
    /// Priority level the session was admitted with (higher wins under
    /// priority scheduling policies).
    pub priority: u8,
    /// Optional human-readable label from the session request.
    pub label: Option<String>,
    /// Whether the session was closed early (cancelled before its path
    /// finished); its counters then cover only the delivered prefix.
    pub closed_early: bool,
    /// Per-frame deadline rate the session was admitted with (frames per
    /// simulated second); `None` for best-effort sessions. Deadlines are
    /// **sim-time** facts: frame `i` of the session is due `(i + 1) /
    /// deadline_hz` simulated seconds after the session's deadline epoch
    /// (serve start; for mid-serve admissions, the delivered sim-time at
    /// which the session's first frame starts service).
    pub deadline_hz: Option<f64>,
    /// Delivered frames whose schedule-order completion (cumulative sim
    /// seconds at delivery) exceeded their deadline. Always 0 for
    /// best-effort sessions and on accelerator-less servers (nothing is
    /// simulated, so sim-time never advances).
    pub deadline_misses: u64,
    /// The smallest sim-time slack (deadline minus completion, seconds)
    /// any delivered frame of this session had; negative iff a deadline
    /// was missed. `None` for best-effort sessions or before the first
    /// delivery.
    pub worst_slack: Option<f64>,
    /// Median per-frame sim latency (seconds charged to one delivered
    /// frame: its simulated execution plus any boundary reconfiguration
    /// paid entering it). 0 until something is simulated. The engine's
    /// `RenderServer` computes it from the session's samples while the
    /// session is live and freezes it when the session retires (no frame
    /// left to deliver), releasing the samples.
    pub latency_p50: f64,
    /// 99th-percentile per-frame sim latency (nearest-rank over the
    /// session's delivered frames). 0 until something is simulated.
    /// Frozen at retirement with [`SessionStats::latency_p50`].
    pub latency_p99: f64,
    /// Frames of this session the server has delivered.
    pub frames: usize,
    /// Frames of this session's path the server *skipped* under
    /// overload (explicit frame-skipping degradation): their indices
    /// were consumed without rendering, simulating, or delivering
    /// anything, so they appear in neither [`SessionStats::frames`] nor
    /// the deadline-miss denominator — shed load is accounted here, not
    /// silently dropped.
    pub frames_skipped: u64,
    /// Delivered frames rendered below the path's native resolution
    /// (dynamic resolution-scaling degradation was active when they were
    /// scheduled).
    pub degraded_frames: u64,
    /// The session's resolution downscale shift at the end of the run
    /// (each frame axis is halved `resolution_shift` times; 0 = native
    /// resolution).
    pub resolution_shift: u32,
    /// Whether the server shed this session under overload
    /// (priority-weighted shedding closed it early to protect
    /// higher-priority deadline sessions). Implies
    /// [`SessionStats::closed_early`] once the staged close applies.
    pub shed: bool,
    /// Simulated cycles attributed to this session, including the
    /// boundary reconfigurations charged when its frames were scheduled.
    pub cycles: u64,
    /// Simulated seconds attributed to this session.
    pub seconds: f64,
    /// Mode switches *inside* this session's frame traces.
    pub in_frame_reconfigurations: u64,
    /// Mode switches paid when the accelerator entered this session's
    /// frames from whatever it ran before them in the schedule.
    pub boundary_reconfigurations: u64,
    /// Schedule boundaries into this session's frames that needed no
    /// switch.
    pub boundary_switches_avoided: u64,
    /// Fresh framebuffer allocations this session's pool performed
    /// (stays at 1 for a recycled fixed-resolution stream). Read from
    /// the live pool, and frozen when the engine's `RenderServer`
    /// retires the session and drops the pool.
    pub framebuffer_allocations: u64,
}

impl SessionStats {
    /// A zeroed record for session `session` rendering `pipeline`, with
    /// default scheduling attributes (weight 1, priority 0, no label).
    pub fn new(session: usize, pipeline: Pipeline) -> Self {
        Self {
            session,
            pipeline,
            weight: 1,
            priority: 0,
            label: None,
            closed_early: false,
            deadline_hz: None,
            deadline_misses: 0,
            worst_slack: None,
            latency_p50: 0.0,
            latency_p99: 0.0,
            frames: 0,
            frames_skipped: 0,
            degraded_frames: 0,
            resolution_shift: 0,
            shed: false,
            cycles: 0,
            seconds: 0.0,
            in_frame_reconfigurations: 0,
            boundary_reconfigurations: 0,
            boundary_switches_avoided: 0,
            framebuffer_allocations: 0,
        }
    }

    /// All reconfigurations charged to this session.
    pub fn total_reconfigurations(&self) -> u64 {
        self.in_frame_reconfigurations + self.boundary_reconfigurations
    }

    /// Reconfigurations per delivered frame, amortized over the stream.
    pub fn reconfigurations_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_reconfigurations() as f64 / self.frames as f64
        }
    }

    /// Simulated throughput of this session's frames (frames per
    /// simulated second); 0 when nothing was simulated.
    pub fn mean_fps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.frames as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Aggregate statistics over everything a server scheduled.
///
/// The scalar counters are sums over [`ServerSummary::per_session`]
/// (checked by [`ServerSummary::is_consistent`]); they exist separately
/// so consumers can read schedule-level totals without re-summing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerSummary {
    /// Per-session statistics, in session-id order.
    pub per_session: Vec<SessionStats>,
    /// Machine-readable name of the scheduling policy that produced the
    /// schedule (e.g. `"round_robin"`, `"weighted_fair"`, `"priority"`;
    /// empty when unknown).
    pub policy: String,
    /// Sessions admitted after serving started (mid-serve admission
    /// events — registrations before the first frame don't count).
    pub admissions: u64,
    /// Sessions closed early (cancelled before their paths finished).
    pub closes: u64,
    /// Session requests the admission controller refused outright
    /// (predicted infeasible even after the current load drains). A
    /// refused request never becomes a session: it has no
    /// [`SessionStats`] entry and no share of any counter below.
    pub refusals: u64,
    /// Session requests admitted *queued*: predicted infeasible against
    /// the current load but feasible once part of it drains, so they
    /// were staged to join the schedule at a deterministic later slot
    /// instead of being refused.
    pub queued_admissions: u64,
    /// Frames skipped across all sessions under frame-skipping
    /// degradation (sum of [`SessionStats::frames_skipped`]). Skipped
    /// frames are not delivered and not in
    /// [`ServerSummary::scheduled_frames`].
    pub frames_skipped: u64,
    /// Delivered frames rendered below native resolution, across all
    /// sessions (sum of [`SessionStats::degraded_frames`]).
    pub degraded_frames: u64,
    /// Sessions the server shed under overload (count of
    /// [`SessionStats::shed`]).
    pub shed_sessions: u64,
    /// Deadline misses summed over every deadline-bound session.
    /// Misses are *schedule-order* facts (cumulative sim-time at
    /// delivery vs. the frame's sim-time deadline), never lane-timing
    /// facts — the count is identical at any `UNI_RENDER_THREADS`.
    pub deadline_misses: u64,
    /// Frames delivered across all sessions, in schedule order.
    pub scheduled_frames: usize,
    /// Simulated cycles across the whole schedule.
    pub total_cycles: u64,
    /// Simulated seconds across the whole schedule.
    pub total_seconds: f64,
    /// Mode switches inside frame traces, summed over the schedule.
    pub in_frame_reconfigurations: u64,
    /// Mode switches paid at scheduled-frame boundaries (including the
    /// cross-session ones a standalone stream would never pay).
    pub boundary_reconfigurations: u64,
    /// Scheduled-frame boundaries that needed no switch.
    pub boundary_switches_avoided: u64,
}

impl ServerSummary {
    /// Statistics for one session, if it exists.
    pub fn session(&self, session: usize) -> Option<&SessionStats> {
        self.per_session.iter().find(|s| s.session == session)
    }

    /// All reconfigurations the schedule paid: in-frame plus boundary.
    pub fn total_reconfigurations(&self) -> u64 {
        self.in_frame_reconfigurations + self.boundary_reconfigurations
    }

    /// Reconfigurations per delivered frame, amortized over the schedule.
    pub fn reconfigurations_per_frame(&self) -> f64 {
        if self.scheduled_frames == 0 {
            0.0
        } else {
            self.total_reconfigurations() as f64 / self.scheduled_frames as f64
        }
    }

    /// The fraction of total simulated time consumed by `session`
    /// (including boundary reconfigurations charged to it); 0 when the
    /// session is unknown or nothing was simulated. This is the quantity
    /// fair-share policies equalize per unit weight.
    pub fn sim_time_share(&self, session: usize) -> f64 {
        if self.total_seconds <= 0.0 {
            return 0.0;
        }
        self.session(session)
            .map_or(0.0, |s| s.seconds / self.total_seconds)
    }

    /// Per-session sim-time shares, in `per_session` order (all zeros
    /// when nothing was simulated).
    pub fn sim_time_shares(&self) -> Vec<f64> {
        self.per_session
            .iter()
            .map(|s| {
                if self.total_seconds > 0.0 {
                    s.seconds / self.total_seconds
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Deadline misses per delivered frame of the *deadline-bound*
    /// sessions (best-effort sessions are excluded from the
    /// denominator); 0 when no session carries a deadline.
    pub fn deadline_miss_rate(&self) -> f64 {
        let bound: usize = self
            .per_session
            .iter()
            .filter(|s| s.deadline_hz.is_some())
            .map(|s| s.frames)
            .sum();
        if bound == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / bound as f64
        }
    }

    /// The worst (smallest) sim-time slack any deadline-bound session's
    /// frame was delivered with; `None` when no deadline-bound frame has
    /// been delivered. Negative iff some deadline was missed.
    pub fn worst_slack(&self) -> Option<f64> {
        self.per_session
            .iter()
            .filter_map(|s| s.worst_slack)
            .min_by(f64::total_cmp)
    }

    /// The largest per-session p99 sim latency — the schedule's tail
    /// latency across sessions; 0 when nothing was simulated.
    pub fn p99_sim_latency(&self) -> f64 {
        self.per_session
            .iter()
            .map(|s| s.latency_p99)
            .fold(0.0, f64::max)
    }

    /// The largest per-session p50 (median) sim latency; 0 when nothing
    /// was simulated. Reported next to [`ServerSummary::p99_sim_latency`]
    /// so a tail/median gap is visible where the sample distribution
    /// has one.
    pub fn p50_sim_latency(&self) -> f64 {
        self.per_session
            .iter()
            .map(|s| s.latency_p50)
            .fold(0.0, f64::max)
    }

    /// Simulated schedule throughput (frames per simulated second); 0
    /// when nothing was simulated.
    pub fn mean_fps(&self) -> f64 {
        if self.total_seconds > 0.0 {
            self.scheduled_frames as f64 / self.total_seconds
        } else {
            0.0
        }
    }

    /// Whether every aggregate counter equals the sum of its per-session
    /// counterparts — the invariant a correct server maintains — and the
    /// per-session counters are cross-consistent with their delivered
    /// totals:
    ///
    /// - a session cannot miss more deadlines or degrade more frames
    ///   than it delivered (both are counted at delivery);
    /// - skipped frames and recorded slack only exist for deadline-bound
    ///   sessions;
    /// - a session with misses must have recorded a negative worst
    ///   slack.
    ///
    /// Fleet-level roll-ups ([`crate::FleetSummary`]) inherit this check
    /// per constituent summary, so a shard that double-counts misses is
    /// caught here rather than surviving aggregation.
    pub fn is_consistent(&self) -> bool {
        let frames: usize = self.per_session.iter().map(|s| s.frames).sum();
        let cycles: u64 = self.per_session.iter().map(|s| s.cycles).sum();
        let in_frame: u64 = self
            .per_session
            .iter()
            .map(|s| s.in_frame_reconfigurations)
            .sum();
        let boundary: u64 = self
            .per_session
            .iter()
            .map(|s| s.boundary_reconfigurations)
            .sum();
        let avoided: u64 = self
            .per_session
            .iter()
            .map(|s| s.boundary_switches_avoided)
            .sum();
        let seconds: f64 = self.per_session.iter().map(|s| s.seconds).sum();
        let misses: u64 = self.per_session.iter().map(|s| s.deadline_misses).sum();
        let skipped: u64 = self.per_session.iter().map(|s| s.frames_skipped).sum();
        let degraded: u64 = self.per_session.iter().map(|s| s.degraded_frames).sum();
        let shed = self.per_session.iter().filter(|s| s.shed).count() as u64;
        let cross_consistent = self.per_session.iter().all(|s| {
            s.deadline_misses <= s.frames as u64
                && s.degraded_frames <= s.frames as u64
                && (s.frames_skipped == 0 || s.deadline_hz.is_some())
                && (s.worst_slack.is_none() || s.deadline_hz.is_some())
                && (s.deadline_misses == 0 || s.worst_slack.is_some_and(|w| w < 0.0))
        });
        cross_consistent
            && frames == self.scheduled_frames
            && misses == self.deadline_misses
            && cycles == self.total_cycles
            && in_frame == self.in_frame_reconfigurations
            && boundary == self.boundary_reconfigurations
            && avoided == self.boundary_switches_avoided
            && skipped == self.frames_skipped
            && degraded == self.degraded_frames
            && shed == self.shed_sessions
            && (seconds - self.total_seconds).abs() <= 1e-9 * self.total_seconds.abs().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_switches_and_amortizations() {
        let mut m = BoundaryMeter::new();
        let p = Pipeline::Mesh;
        // First frame is free.
        assert!(!m.observe_for(p, Some(MicroOp::Gemm), Some(MicroOp::Gemm)));
        // Same family: amortized.
        assert!(!m.observe_for(p, Some(MicroOp::Gemm), Some(MicroOp::Sorting)));
        // Sorting -> Gemm: switch.
        assert!(m.observe_for(p, Some(MicroOp::Gemm), Some(MicroOp::Gemm)));
        assert_eq!(m.switches(), 1);
        assert_eq!(m.avoided(), 1);
        assert_eq!(m.boundaries(), 2);
        assert_eq!(m.last_op(), Some(MicroOp::Gemm));
    }

    #[test]
    fn pipeline_aware_meter_charges_renderer_switches() {
        let mut m = BoundaryMeter::new();
        // First frame free.
        assert!(!m.observe_for(Pipeline::Mesh, Some(MicroOp::Gemm), Some(MicroOp::Gemm)));
        // Same pipeline, matching families: amortized.
        assert!(!m.observe_for(Pipeline::Mesh, Some(MicroOp::Gemm), Some(MicroOp::Gemm)));
        // Different pipeline, even with matching families at the seam:
        // the device swaps renderer configuration — charged.
        assert!(m.observe_for(Pipeline::Mlp, Some(MicroOp::Gemm), Some(MicroOp::Gemm)));
        // Same pipeline but mismatched families: still a mode switch.
        assert!(m.observe_for(Pipeline::Mlp, Some(MicroOp::Sorting), Some(MicroOp::Gemm)));
        assert_eq!(m.switches(), 2);
        assert_eq!(m.avoided(), 1);
        // Empty frames leave the pipeline memory untouched too.
        assert!(!m.observe_for(Pipeline::Mesh, None, None));
        assert!(!m.observe_for(Pipeline::Mlp, Some(MicroOp::Gemm), Some(MicroOp::Gemm)));
        assert_eq!(m.avoided(), 2, "mlp -> mlp across the empty frame");
    }

    #[test]
    fn pipeline_aware_boundaries_record_their_pair_either_way() {
        let mut m = BoundaryMeter::new();
        // First frame: no boundary, no event.
        m.observe_for(Pipeline::Mesh, Some(MicroOp::Gemm), Some(MicroOp::Gemm));
        assert_eq!(m.last_boundary(), None);
        // Amortized same-renderer boundary: the pair is recorded too —
        // the cost model needs the cheap evidence as much as the
        // expensive (this history previously went nowhere).
        m.observe_for(Pipeline::Mesh, Some(MicroOp::Gemm), Some(MicroOp::Gemm));
        assert_eq!(
            m.last_boundary(),
            Some(BoundaryEvent {
                from: Pipeline::Mesh,
                to: Pipeline::Mesh,
                switched: false,
            })
        );
        // Paid cross-renderer boundary.
        m.observe_for(Pipeline::Mlp, Some(MicroOp::Gemm), Some(MicroOp::Gemm));
        assert_eq!(
            m.last_boundary(),
            Some(BoundaryEvent {
                from: Pipeline::Mesh,
                to: Pipeline::Mlp,
                switched: true,
            })
        );
        // An empty trace is not a boundary: the event clears but the
        // pipeline memory survives for the next real boundary.
        m.observe_for(Pipeline::Mesh, None, None);
        assert_eq!(m.last_boundary(), None);
        m.observe_for(Pipeline::Mlp, Some(MicroOp::Gemm), Some(MicroOp::Gemm));
        assert_eq!(
            m.last_boundary(),
            Some(BoundaryEvent {
                from: Pipeline::Mlp,
                to: Pipeline::Mlp,
                switched: false,
            })
        );
    }

    #[test]
    fn meter_skips_empty_frames_without_forgetting_the_mode() {
        let mut m = BoundaryMeter::new();
        let p = Pipeline::Gaussian3d;
        m.observe_for(p, Some(MicroOp::Sorting), Some(MicroOp::Sorting));
        // An empty trace neither pays nor avoids, and the mode survives.
        assert!(!m.observe_for(p, None, None));
        assert_eq!(m.boundaries(), 0, "first frame free, empty frame skipped");
        assert_eq!(m.last_op(), Some(MicroOp::Sorting));
        // The remembered mode still drives the next boundary.
        assert!(m.observe_for(p, Some(MicroOp::Gemm), Some(MicroOp::Gemm)));
        assert_eq!(m.boundaries(), 1);
    }

    #[test]
    fn summary_consistency_checks_sums() {
        let mut a = SessionStats::new(0, Pipeline::Mesh);
        a.frames = 2;
        a.cycles = 100;
        a.seconds = 1.0;
        a.boundary_reconfigurations = 1;
        let mut b = SessionStats::new(1, Pipeline::Gaussian3d);
        b.frames = 3;
        b.cycles = 50;
        b.seconds = 0.5;
        b.boundary_switches_avoided = 2;
        let summary = ServerSummary {
            per_session: vec![a, b],
            policy: "round_robin".to_string(),
            admissions: 1,
            closes: 0,
            refusals: 0,
            queued_admissions: 0,
            frames_skipped: 0,
            degraded_frames: 0,
            shed_sessions: 0,
            deadline_misses: 0,
            scheduled_frames: 5,
            total_cycles: 150,
            total_seconds: 1.5,
            in_frame_reconfigurations: 0,
            boundary_reconfigurations: 1,
            boundary_switches_avoided: 2,
        };
        assert!(summary.is_consistent());
        assert_eq!(summary.total_reconfigurations(), 1);
        assert!((summary.reconfigurations_per_frame() - 0.2).abs() < 1e-12);
        assert!((summary.mean_fps() - 5.0 / 1.5).abs() < 1e-12);
        assert_eq!(summary.session(1).unwrap().pipeline, Pipeline::Gaussian3d);
        assert!((summary.sim_time_share(0) - 1.0 / 1.5).abs() < 1e-12);
        assert!((summary.sim_time_share(1) - 0.5 / 1.5).abs() < 1e-12);
        assert_eq!(summary.sim_time_share(9), 0.0, "unknown session");
        let shares = summary.sim_time_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);

        let mut broken = summary.clone();
        broken.total_cycles = 151;
        assert!(!broken.is_consistent());

        // Degradation accounting participates in the same invariant.
        let mut skew = summary.clone();
        skew.frames_skipped = 1;
        assert!(
            !skew.is_consistent(),
            "aggregate skips without session skips"
        );
        let mut skew = summary.clone();
        skew.degraded_frames = 1;
        assert!(!skew.is_consistent());
        let mut skew = summary;
        skew.shed_sessions = 1;
        assert!(!skew.is_consistent(), "shed count disagrees with flags");
    }

    #[test]
    fn summary_consistency_cross_checks_per_session_delivery_totals() {
        // A deadline-bound session whose counters agree with its
        // delivered total.
        let mut s = SessionStats::new(0, Pipeline::Mesh);
        s.frames = 4;
        s.deadline_hz = Some(30.0);
        s.deadline_misses = 1;
        s.worst_slack = Some(-0.25);
        s.frames_skipped = 2;
        s.degraded_frames = 3;
        let summary = ServerSummary {
            per_session: vec![s],
            policy: "edf".to_string(),
            admissions: 1,
            closes: 0,
            refusals: 0,
            queued_admissions: 0,
            frames_skipped: 2,
            degraded_frames: 3,
            shed_sessions: 0,
            deadline_misses: 1,
            scheduled_frames: 4,
            total_cycles: 0,
            total_seconds: 0.0,
            in_frame_reconfigurations: 0,
            boundary_reconfigurations: 0,
            boundary_switches_avoided: 0,
        };
        assert!(summary.is_consistent());

        // More misses than delivered frames: misses are counted at
        // delivery, so this cannot happen in a correct server even
        // though the aggregate sums still match.
        let mut skew = summary.clone();
        skew.per_session[0].deadline_misses = 5;
        skew.deadline_misses = 5;
        assert!(!skew.is_consistent(), "misses exceed delivered frames");

        // More degraded frames than delivered frames.
        let mut skew = summary.clone();
        skew.per_session[0].degraded_frames = 5;
        skew.degraded_frames = 5;
        assert!(!skew.is_consistent(), "degraded exceed delivered frames");

        // Skips on a best-effort session: skipping is deadline-driven.
        let mut skew = summary.clone();
        skew.per_session[0].deadline_hz = None;
        skew.per_session[0].deadline_misses = 0;
        skew.deadline_misses = 0;
        skew.per_session[0].worst_slack = None;
        assert!(!skew.is_consistent(), "skips require a deadline");

        // Misses without a recorded negative worst slack.
        let mut skew = summary.clone();
        skew.per_session[0].worst_slack = Some(0.5);
        assert!(!skew.is_consistent(), "a miss implies negative slack");

        // Recorded slack on a best-effort session.
        let mut skew = summary;
        skew.per_session[0].deadline_hz = None;
        skew.per_session[0].deadline_misses = 0;
        skew.deadline_misses = 0;
        skew.per_session[0].frames_skipped = 0;
        skew.frames_skipped = 0;
        assert!(!skew.is_consistent(), "slack requires a deadline");
    }

    #[test]
    fn percentile_is_nearest_rank_with_distinct_p50_and_p99() {
        // n = 1: every percentile is the only sample.
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // n = 2: p50 takes rank ceil(0.5 * 2) = 1, p99 rank ceil(1.98) = 2.
        assert_eq!(percentile(&[1.0, 9.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 9.0], 99.0), 9.0);
        // n = 3: p50 is the true median (rank 2), p99 the maximum.
        assert_eq!(percentile(&[1.0, 2.0, 30.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 30.0], 99.0), 30.0);
        // n = 100 with a heavy tail: p50 = rank 50, p99 = rank 99 — the
        // tail sample, not the median and not the maximum.
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
        // Out-of-range percentiles clamp to the sample instead of
        // indexing past it.
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample, 150.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_rejects_an_empty_sample() {
        percentile(&[], 50.0);
    }
}
