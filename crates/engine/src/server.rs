//! Multi-session serving: many camera streams sharing one baked scene
//! and one accelerator, scheduled by a pluggable deterministic policy.
//!
//! A [`RenderServer`] is the serving analogue of the paper's premise —
//! one reconfigurable accelerator in front of *diverse* renderers. It
//! owns a single immutable [`BakedScene`] behind an [`Arc`] (no
//! per-session copies), accepts any number of [`SessionRequest`]s (each
//! its own camera path, resolution, pipeline, fair-share weight, and
//! priority — pipelines mix freely across sessions), and schedules their
//! frames across a persistent pool of worker lanes
//! ([`uni_parallel::LanePool`]) in whatever order its
//! [`SchedulePolicy`] dictates — strict [`RoundRobin`](crate::RoundRobin)
//! by default, [`WeightedFair`](crate::WeightedFair) or
//! [`Priority`](crate::Priority) (or any custom policy) by
//! [`RenderServer::with_policy`]. Each session keeps its own
//! [`FramePool`], [`ReplayScratch`], and share of the reconfiguration
//! accounting.
//!
//! Three properties are part of the public contract:
//!
//! 1. **Deterministic schedule.** The schedule is a pure function of the
//!    session mix, the policy, and the sequence of
//!    [`admit`](RenderServer::admit) / [`close`](RenderServer::close)
//!    calls (keyed to delivered-frame counts). Lanes only overlap
//!    *execution*; delivery and accounting follow the schedule, so
//!    results are independent of lane timing and every served frame is
//!    **bit-identical** to the same frame rendered by a standalone
//!    [`crate::RenderSession`], at any `UNI_RENDER_THREADS`.
//! 2. **Cross-session switching is charged.** The accelerator is one
//!    device: whenever two consecutively *scheduled* frames end and
//!    start in different micro-operator families — typically because
//!    neighbouring sessions run different pipelines — the schedule pays
//!    one reconfiguration ([`BoundaryMeter`]). Policies built with
//!    `coalesce_switches` batch same-pipeline frames to amortize exactly
//!    this cost.
//! 3. **Deterministic churn.** Sessions may be admitted and closed
//!    *mid-serve*. Both take effect at a deterministic schedule slot
//!    derived from the delivered-frame count at the time of the call
//!    plus the server's dispatch window — never from how far worker
//!    lanes happen to have run ahead — so churn keeps the served stream
//!    bit-identical across thread counts.

use crate::path::CameraPath;
use crate::pool::FramePool;
use crate::sched::{
    LoadView, PolicyContext, RoundRobin, SchedulePolicy, SessionHandle, SessionView,
};
use crate::session::FrameReport;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use uni_core::{Accelerator, ReplayScratch, SimReport};
use uni_geometry::{Camera, Image};
use uni_microops::{
    percentile, BoundaryMeter, Pipeline, ServerSummary, SessionStats, SwitchCostModel, Trace,
};
use uni_parallel::{LanePool, Ticket};
use uni_renderers::Renderer;
use uni_scene::BakedScene;

/// Default bound on scheduled-but-undelivered frames.
///
/// The dispatch window is `min(lanes, lookahead, policy.max_in_flight())`
/// but mid-serve admissions and closes activate `min(lookahead,
/// policy.max_in_flight())` *delivered* frames after the call — a bound
/// that deliberately excludes the lane count, so churn timing is
/// identical at any `UNI_RENDER_THREADS`. The default sits above
/// typical lane counts so lane parallelism is not throttled; servers
/// expecting frequent churn under an unbounded policy (e.g.
/// round-robin) should lower it via [`RenderServer::with_lookahead`] to
/// tighten admission / close latency (a staged change waits up to this
/// many delivered frames, or until the schedule drains).
pub const DEFAULT_LOOKAHEAD: usize = 32;

/// One camera stream a [`RenderServer`] should serve: a renderer
/// (pipeline choice), a camera path (trajectory *and* resolution), and
/// the scheduling attributes policies consume.
pub struct SessionRequest {
    /// The pipeline rendering this stream. `Send` because frames execute
    /// on worker lanes.
    pub renderer: Box<dyn Renderer + Send>,
    /// The frames to serve, in order.
    pub path: CameraPath,
    weight: u32,
    priority: u8,
    deadline_hz: Option<f64>,
    label: Option<String>,
}

impl SessionRequest {
    /// Bundles a renderer and a path into a request with default
    /// scheduling attributes (weight 1, priority 0, best-effort — no
    /// deadline — and no label).
    pub fn new(renderer: Box<dyn Renderer + Send>, path: CameraPath) -> Self {
        Self {
            renderer,
            path,
            weight: 1,
            priority: 0,
            deadline_hz: None,
            label: None,
        }
    }

    /// Sets the fair-share weight (clamped to ≥ 1). Under
    /// [`WeightedFair`](crate::WeightedFair) a session with weight `w`
    /// receives `w / Σw` of the accelerator's sim-time while backlogged.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the priority level (higher wins). Under
    /// [`Priority`](crate::Priority) scheduling, runnable sessions of a
    /// higher level always go first.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Declares a per-frame deadline rate in frames per *simulated*
    /// second (e.g. `30.0` for a 30 FPS stream): frame `i` of the
    /// session is due `(i + 1) / hz` sim-seconds after the session's
    /// deadline epoch (serve start; for mid-serve admissions, the
    /// delivered sim-time at which the session's first frame starts
    /// service — a delivery-order fact). Consumed by deadline-aware
    /// policies
    /// ([`crate::EarliestDeadline`], [`crate::CostAware`]) and by the
    /// server's miss/slack accounting under *any* policy
    /// ([`SessionStats::deadline_misses`],
    /// [`SessionStats::worst_slack`]). Non-finite or non-positive rates
    /// are ignored (the session stays best-effort).
    ///
    /// Deadlines are **sim-time** facts measured against the schedule's
    /// delivered sim-seconds — never against wall-clock or lane timing —
    /// so miss counts are bit-identical at any `UNI_RENDER_THREADS`.
    pub fn deadline_hz(mut self, hz: f64) -> Self {
        self.deadline_hz = (hz.is_finite() && hz > 0.0).then_some(hz);
        self
    }

    /// Attaches a human-readable label, surfaced in
    /// [`SessionStats::label`].
    pub fn label(mut self, label: &str) -> Self {
        self.label = Some(label.to_string());
        self
    }
}

/// One delivered frame of a served schedule.
#[derive(Debug)]
pub struct ServedFrame {
    /// Which session the frame belongs to (dense id, equal to
    /// [`ServedFrame::handle`]`.id()`).
    pub session: usize,
    /// Typed handle of the owning session — usable with
    /// [`RenderServer::close`] and [`RenderServer::session_stats`].
    pub handle: SessionHandle,
    /// The frame itself. `report.index` is the frame's position on *its
    /// session's* path; `report.boundary_reconfiguration` is true when
    /// the accelerator switched mode entering this frame from the
    /// previously *scheduled* one (possibly another session's). Hand
    /// `report.image` back via [`RenderServer::recycle`].
    pub report: FrameReport,
    /// Sim-time slack this frame was delivered with: its deadline minus
    /// the schedule's cumulative sim-seconds at delivery. Negative means
    /// the deadline was missed (counted in
    /// [`SessionStats::deadline_misses`]). `None` for best-effort
    /// sessions and on accelerator-less servers.
    pub deadline_slack: Option<f64>,
    /// Resolution halvings this frame was rendered at (0 = native; `k`
    /// = each image dimension divided by `2^k`). Non-zero only under an
    /// active [`DegradePolicy`]; such frames count in
    /// [`SessionStats::degraded_frames`].
    pub resolution_shift: u32,
}

/// What a worker lane hands back for one scheduled frame.
struct Rendered {
    camera: Camera,
    image: Image,
    trace: Option<Trace>,
    sim: Option<SimReport>,
}

/// The per-session state a worker lane mutates while rendering, tracing,
/// and replaying one of the session's frames. Guarded by a mutex, but
/// never contended: the scheduler keeps at most one frame of a session
/// in flight.
struct SessionState {
    renderer: Box<dyn Renderer + Send>,
    path: CameraPath,
    pool: FramePool,
    replay: ReplayScratch,
}

/// Scheduler-side bookkeeping for one session.
struct SessionSlot {
    state: Arc<Mutex<SessionState>>,
    /// Pipeline family (cached from the renderer; policies and the
    /// boundary meter consume it without locking the state).
    pipeline: Pipeline,
    /// Total frames on the session's path.
    len: usize,
    /// Frames dispatched to lanes so far.
    scheduled: usize,
    /// Whether a dispatched frame has not been delivered yet (at most
    /// one — the invariant that keeps per-session pools at 1 buffer).
    in_flight: bool,
    /// First schedule slot at which the session participates (staged
    /// mid-serve admissions activate once the schedule reaches it).
    active_from: usize,
    /// Whether the session has joined the schedule.
    active: bool,
    /// Schedule slot at which a staged close takes effect, if any.
    closed_from: Option<usize>,
    /// Whether the close has been applied (no further frames scheduled).
    closed: bool,
    /// Tick of the session's most recently scheduled frame.
    last_scheduled: Option<u64>,
    /// Per-frame deadline period in sim-seconds (`1 / deadline_hz`);
    /// `None` for best-effort sessions.
    period: Option<f64>,
    /// Sim-time the session's deadline clock started: 0 for sessions
    /// admitted before serving; for mid-serve admissions, the cumulative
    /// delivered sim-seconds just before the session's **first delivered
    /// frame** is charged — a delivery-order fact, so deterministic at
    /// any thread or lane count. (Anchoring at dispatch-time activation
    /// instead would read a sim clock that depends on how far lanes ran
    /// ahead.) Meaningless until [`SessionSlot::epoch_anchored`].
    deadline_epoch: f64,
    /// Whether [`SessionSlot::deadline_epoch`] is final. `false` only
    /// for staged mid-serve admissions that have not delivered a frame
    /// yet; their provisional epoch is the current delivered sim-time
    /// (exact for `max_in_flight == 1` policies — the only ones entitled
    /// to read slack — since their next delivery is the decision at
    /// hand).
    epoch_anchored: bool,
    /// Sim-seconds charged to each delivered frame (execution plus the
    /// boundary reconfiguration entering it), in delivery order — the
    /// population the p50/p99 latency stats summarize.
    latencies: Vec<f64>,
    /// Resolution halvings applied to frames dispatched from now on
    /// (0 = native). Changed only by [`SessionSlot::staged_shift`]
    /// activating, so the shift a given schedule slot renders at is
    /// lane-invariant.
    res_shift: u32,
    /// A staged resolution change: `(activation slot, new shift)`,
    /// applied under the same delivered-count rule as staged churn.
    staged_shift: Option<(usize, u32)>,
    /// A staged frame skip: `(activation slot, frames to skip)`.
    staged_skip: Option<(usize, usize)>,
    /// Skips activated but not yet consumed by the dispatcher.
    skips_pending: usize,
    /// Consecutive delivered frames that missed their deadline.
    miss_streak: u32,
    /// Consecutive delivered frames that met their deadline.
    meet_streak: u32,
    stats: SessionStats,
}

impl SessionSlot {
    /// Whether the scheduler may still dispatch frames of this session.
    fn schedulable(&self) -> bool {
        self.active && !self.closed && self.scheduled < self.len
    }

    /// Absolute sim-time deadline of the session's frame `index`
    /// (`None` for best-effort sessions): the deadline epoch plus
    /// `index + 1` periods. `provisional_epoch` (the caller's delivered
    /// sim-time "now") stands in while the real epoch is not anchored
    /// yet.
    fn next_deadline(&self, index: usize, provisional_epoch: f64) -> Option<f64> {
        let epoch = if self.epoch_anchored {
            self.deadline_epoch
        } else {
            provisional_epoch
        };
        self.period.map(|p| epoch + (index as f64 + 1.0) * p)
    }
}

/// What the admission controller decided about one
/// [`SessionRequest`] handed to [`RenderServer::try_admit`].
///
/// Decisions are a pure function of settled (delivered) accounting, the
/// switch-cost model, and the [`AdmissionControl`] knobs — never of lane
/// timing — so the decision stream is bit-identical at any
/// `UNI_RENDER_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmitDecision {
    /// Predicted feasible against the current load: the session joined
    /// the schedule under the normal [`RenderServer::admit`] rules.
    Admitted(SessionHandle),
    /// Predicted infeasible *now* but feasible once part of the current
    /// load drains: the session was staged to join at delivered-frame
    /// slot `activates_at` (a schedule-order estimate of that drain; if
    /// the schedule drains earlier the session joins at the drain point
    /// instead of waiting).
    Queued {
        /// Handle of the queued session.
        handle: SessionHandle,
        /// Delivered-frame slot the session is staged to activate at.
        activates_at: usize,
    },
    /// Predicted infeasible even after the entire current load drains
    /// (or the queue is full): the request was dropped — no session
    /// exists for it.
    Refused {
        /// The predicted per-round slack of the tightest deadline had
        /// the request been admitted against the current load
        /// (negative: by how many sim-seconds a scheduling round would
        /// overrun the period).
        predicted_slack: f64,
    },
}

impl AdmitDecision {
    /// The session handle, unless the request was refused.
    pub fn handle(&self) -> Option<SessionHandle> {
        match self {
            Self::Admitted(handle) => Some(*handle),
            Self::Queued { handle, .. } => Some(*handle),
            Self::Refused { .. } => None,
        }
    }
}

/// Feasibility knobs for [`RenderServer::try_admit`].
///
/// The controller predicts the sim-seconds of one scheduling round over
/// the live sessions plus the candidate — per-session mean frame cost
/// (the [`AdmissionControl::frame_cost_prior`] where a session has no
/// delivered history) plus the [`SwitchCostModel::round_cost`] of the
/// round's pipeline sequence — and admits only if `headroom × round`
/// fits inside every live deadline period and the candidate's own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionControl {
    /// Safety multiplier on the predicted round (≥ 1 reserves margin
    /// for estimation error; clamped to ≥ 0). Default `1.0`.
    pub headroom: f64,
    /// Assumed mean frame cost (sim-seconds) for sessions with no
    /// delivered frames yet — including every candidate. Default `0.0`
    /// (optimistic: unknown sessions are presumed free).
    pub frame_cost_prior: f64,
    /// Most sessions allowed to wait in the queued (staged,
    /// delayed-activation) state at once. Default `1`.
    pub max_queued: usize,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        Self {
            headroom: 1.0,
            frame_cost_prior: 0.0,
            max_queued: 1,
        }
    }
}

impl AdmissionControl {
    /// Default knobs (headroom 1.0, zero prior, queue depth 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the safety multiplier on the predicted round.
    pub fn headroom(mut self, headroom: f64) -> Self {
        self.headroom = if headroom.is_finite() {
            headroom.max(0.0)
        } else {
            1.0
        };
        self
    }

    /// Sets the assumed mean frame cost for history-less sessions.
    pub fn frame_cost_prior(mut self, seconds: f64) -> Self {
        self.frame_cost_prior = if seconds.is_finite() {
            seconds.max(0.0)
        } else {
            0.0
        };
        self
    }

    /// Sets the queued-session bound.
    pub fn max_queued(mut self, max_queued: usize) -> Self {
        self.max_queued = max_queued;
        self
    }
}

/// Graceful-degradation knobs for overload that develops *mid-serve*,
/// consumed by [`RenderServer::with_degradation`].
///
/// All three degraded modes are decided at frame **delivery** (a
/// schedule-order moment) and staged to take effect at the same
/// deterministic slot rule as mid-serve churn (delivered count +
/// dispatch window), so every degraded stream stays bit-identical at any
/// `UNI_RENDER_THREADS`:
///
/// - **Resolution scaling** — after
///   [`DegradePolicy::degrade_after_misses`] consecutive misses a
///   session's frames render at half linear resolution per step (the
///   camera's pixel grid halves; view/projection are untouched, so the
///   frustum is identical and only sampling density drops), up to
///   [`DegradePolicy::max_resolution_shift`] halvings; after
///   [`DegradePolicy::recover_after_meets`] consecutive met deadlines
///   one step is restored.
/// - **Frame skipping** — a frame delivered more than
///   [`DegradePolicy::skip_when_late_periods`] periods late stages one
///   explicit skip: the session's next undispatched frame is dropped
///   (never rendered, never delivered) and accounted in
///   [`SessionStats::frames_skipped`], advancing the session's deadline
///   ladder by one period.
/// - **Shedding** — a session still missing
///   [`DegradePolicy::shed_after_misses`] deadlines in a row at maximum
///   degradation sheds the lowest-(priority, weight) live session
///   (ties: the youngest), staging a close exactly like
///   [`RenderServer::close`] and marking the victim
///   [`SessionStats::shed`]. The last live session is never shed — it
///   degrades but keeps serving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradePolicy {
    /// Most resolution halvings a session can accumulate. Default `2`
    /// (down to quarter linear resolution).
    pub max_resolution_shift: u32,
    /// Consecutive missed deadlines before staging one more halving.
    /// Default `2`.
    pub degrade_after_misses: u32,
    /// Consecutive met deadlines before restoring one halving.
    /// Default `4`.
    pub recover_after_meets: u32,
    /// How many periods late a delivery must be to stage a frame skip.
    /// Default `2.0`.
    pub skip_when_late_periods: f64,
    /// Consecutive misses *at maximum resolution degradation* before
    /// shedding a victim session; `0` disables shedding. Default `6`.
    pub shed_after_misses: u32,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        Self {
            max_resolution_shift: 2,
            degrade_after_misses: 2,
            recover_after_meets: 4,
            skip_when_late_periods: 2.0,
            shed_after_misses: 6,
        }
    }
}

impl DegradePolicy {
    /// Default knobs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the resolution-halving cap (`0` disables scaling).
    pub fn max_resolution_shift(mut self, shift: u32) -> Self {
        self.max_resolution_shift = shift;
        self
    }

    /// Sets the miss streak that triggers one halving (clamped ≥ 1).
    pub fn degrade_after_misses(mut self, misses: u32) -> Self {
        self.degrade_after_misses = misses.max(1);
        self
    }

    /// Sets the meet streak that restores one halving (clamped ≥ 1).
    pub fn recover_after_meets(mut self, meets: u32) -> Self {
        self.recover_after_meets = meets.max(1);
        self
    }

    /// Sets the lateness (in periods) that stages a frame skip;
    /// non-finite disables skipping.
    pub fn skip_when_late_periods(mut self, periods: f64) -> Self {
        self.skip_when_late_periods = periods;
        self
    }

    /// Sets the at-max-degradation miss streak that sheds a victim
    /// (`0` disables shedding).
    pub fn shed_after_misses(mut self, misses: u32) -> Self {
        self.shed_after_misses = misses;
        self
    }
}

/// A frame dispatched to a lane, awaiting in-order delivery.
struct Pending {
    session: usize,
    index: usize,
    /// Resolution halvings the frame was dispatched at.
    res_shift: u32,
    ticket: Ticket<Rendered>,
}

/// A multi-session render server over one shared baked scene.
///
/// See the [module docs](self) for the scheduling and accounting
/// contract. Typical use:
///
/// ```
/// use std::sync::Arc;
/// use uni_engine::{CameraPath, RenderServer, SessionRequest, WeightedFair};
/// use uni_renderers::{MeshPipeline, MlpPipeline};
/// use uni_scene::SceneSpec;
///
/// let spec = SceneSpec::demo("server-doc", 5).with_detail(0.03);
/// let scene = Arc::new(spec.bake());
/// let mut server = RenderServer::new(Arc::clone(&scene))
///     .with_policy(WeightedFair::new());
/// let alice = server.admit(
///     SessionRequest::new(
///         Box::new(MeshPipeline::default()),
///         CameraPath::orbit(spec.orbit(32, 24), 2),
///     )
///     .weight(3)
///     .label("alice"),
/// );
/// let bob = server.admit(SessionRequest::new(
///     Box::new(MlpPipeline::default()),
///     CameraPath::orbit(spec.orbit(16, 12), 2),
/// ));
/// while let Some(frame) = server.next_frame() {
///     let session = frame.session;
///     server.recycle(session, frame.report.image);
/// }
/// assert_eq!(server.summary().scheduled_frames, 4);
/// let stats = server.session_stats(alice).expect("alice served");
/// assert_eq!(stats.weight, 3);
/// assert_eq!(stats.label.as_deref(), Some("alice"));
/// assert_eq!(server.session_stats(bob).expect("bob served").frames, 2);
/// ```
pub struct RenderServer {
    scene: Arc<BakedScene>,
    accel: Option<Arc<Accelerator>>,
    sessions: Vec<SessionSlot>,
    policy: Box<dyn SchedulePolicy>,
    lookahead: usize,
    lanes_requested: usize,
    lane_pool: Option<LanePool>,
    /// Schedule slots assigned so far (the next slot's index).
    ticks: u64,
    /// Session / pipeline scheduled at the previous tick.
    last_session: Option<usize>,
    last_pipeline: Option<Pipeline>,
    pending: VecDeque<Pending>,
    delivered: usize,
    admissions: u64,
    closes: u64,
    boundary: BoundaryMeter,
    /// Learned per-pipeline-pair switch cost estimates, fed from the
    /// boundary meter's history at every delivery; `None` until an
    /// accelerator is attached (no boundaries are charged without one).
    switch_costs: Option<SwitchCostModel>,
    total_cycles: u64,
    total_seconds: f64,
    in_frame_reconfigs: u64,
    deadline_misses: u64,
    /// Feasibility knobs for [`RenderServer::try_admit`]; `None` means
    /// `try_admit` admits unconditionally (like `admit`).
    admission: Option<AdmissionControl>,
    /// Mid-serve degradation knobs; `None` disables every degraded mode.
    degrade: Option<DegradePolicy>,
    refusals: u64,
    queued_admissions: u64,
    frames_skipped: u64,
    degraded_frames: u64,
    shed_sessions: u64,
}

impl RenderServer {
    /// Creates a server over `scene` with no sessions yet, scheduling
    /// strict [`RoundRobin`] (the original contract) until
    /// [`RenderServer::with_policy`] says otherwise.
    ///
    /// `scene` accepts an owned [`BakedScene`] or a shared
    /// `Arc<BakedScene>`; either way every session renders the same
    /// instance.
    pub fn new(scene: impl Into<Arc<BakedScene>>) -> Self {
        Self {
            scene: scene.into(),
            accel: None,
            sessions: Vec::new(),
            policy: Box::new(RoundRobin::new()),
            lookahead: DEFAULT_LOOKAHEAD,
            lanes_requested: uni_parallel::worker_count(),
            lane_pool: None,
            ticks: 0,
            last_session: None,
            last_pipeline: None,
            pending: VecDeque::new(),
            delivered: 0,
            admissions: 0,
            closes: 0,
            boundary: BoundaryMeter::new(),
            switch_costs: None,
            total_cycles: 0,
            total_seconds: 0.0,
            in_frame_reconfigs: 0,
            deadline_misses: 0,
            admission: None,
            degrade: None,
            refusals: 0,
            queued_admissions: 0,
            frames_skipped: 0,
            degraded_frames: 0,
            shed_sessions: 0,
        }
    }

    /// Additionally traces and simulates every served frame on `accel`
    /// (one device shared by all sessions), enabling the reconfiguration,
    /// deadline, and switch-cost accounting. The server's
    /// [`SwitchCostModel`] is seeded from the device's reconfiguration
    /// window (crossing pipelines presumed to cost one window, staying
    /// presumed free) and then learns per-pair costs from the boundaries
    /// the schedule actually pays.
    pub fn with_accelerator(mut self, accel: Accelerator) -> Self {
        let cfg = accel.config();
        let reconfig_seconds = cfg.cycles_to_seconds(cfg.reconfig_cycles);
        self.switch_costs = Some(SwitchCostModel::seeded(reconfig_seconds));
        self.accel = Some(Arc::new(accel));
        self
    }

    /// The server's renderer-switch cost estimator — the same model
    /// policies see via [`PolicyContext::switch_costs`]. `None` until an
    /// accelerator is attached.
    pub fn switch_costs(&self) -> Option<&SwitchCostModel> {
        self.switch_costs.as_ref()
    }

    /// Replaces the scheduling policy (default: [`RoundRobin`]).
    ///
    /// # Panics
    ///
    /// Panics if called after serving has started — the policy is part
    /// of the deterministic schedule and cannot change mid-stream.
    pub fn with_policy(mut self, policy: impl SchedulePolicy + 'static) -> Self {
        assert!(
            self.ticks == 0,
            "scheduling policy must be set before serving starts"
        );
        self.policy = Box::new(policy);
        self
    }

    /// Overrides the worker-lane count (default:
    /// [`uni_parallel::worker_count`]). Requests are clamped to at least
    /// one lane — `with_lanes(0)` serves inline rather than panicking on
    /// first dispatch. Lane count never affects delivered images or
    /// accounting — only execution overlap.
    ///
    /// # Panics
    ///
    /// Panics if called after serving has started.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(
            self.lane_pool.is_none(),
            "lane count must be set before serving starts"
        );
        self.lanes_requested = lanes.max(1);
        self
    }

    /// Overrides the dispatch lookahead (default [`DEFAULT_LOOKAHEAD`];
    /// clamped to ≥ 1): the most frames the server schedules beyond the
    /// delivered prefix, and therefore how many delivered frames pass
    /// before a mid-serve [`admit`](RenderServer::admit) /
    /// [`close`](RenderServer::close) takes effect.
    ///
    /// The lookahead is part of the *deterministic* schedule contract:
    /// derive it from workload shape if you must, never from thread or
    /// core counts, or churn timing will stop being reproducible.
    ///
    /// # Panics
    ///
    /// Panics if called after serving has started.
    pub fn with_lookahead(mut self, lookahead: usize) -> Self {
        assert!(
            self.ticks == 0,
            "lookahead must be set before serving starts"
        );
        self.lookahead = lookahead.max(1);
        self
    }

    /// Enables deadline-aware admission control: subsequent
    /// [`try_admit`](RenderServer::try_admit) calls predict feasibility
    /// against the live load before scheduling a request. Without this,
    /// `try_admit` admits unconditionally, exactly like
    /// [`admit`](RenderServer::admit). May be set at any time — the
    /// knobs shape only future decisions, never the existing schedule.
    pub fn with_admission_control(mut self, control: AdmissionControl) -> Self {
        self.admission = Some(control);
        self
    }

    /// Enables graceful degradation for overload that develops
    /// mid-serve: resolution scaling, frame skipping, and shedding per
    /// `policy` (see [`DegradePolicy`] for the decision rules and the
    /// determinism argument). Only meaningful with an accelerator
    /// attached — without one no deadline accounting exists to react to.
    ///
    /// # Panics
    ///
    /// Panics if called after serving has started — degraded modes are
    /// part of the deterministic schedule.
    pub fn with_degradation(mut self, policy: DegradePolicy) -> Self {
        assert!(
            self.ticks == 0,
            "degradation policy must be set before serving starts"
        );
        self.degrade = Some(policy);
        self
    }

    /// Admits a camera stream and returns its [`SessionHandle`]. Legal
    /// at any time, including **mid-serve**.
    ///
    /// Before the first frame is scheduled, admission is immediate. Once
    /// serving has started, the session is *staged*: it joins the
    /// schedule at a deterministic slot — the current delivered-frame
    /// count plus the dispatch window (`min(lookahead,
    /// policy.max_in_flight())`) — and its first scheduled frame is
    /// charged through the boundary meter like any other schedule entry
    /// (entering it from a different pipeline pays one reconfiguration).
    /// Keying activation to *delivered* frames (never to how far lanes
    /// ran ahead) is what keeps mid-serve admission bit-deterministic at
    /// any thread count. If the schedule drains before the activation
    /// slot is reached, staged sessions join at the drain point instead
    /// of being lost.
    pub fn admit(&mut self, request: SessionRequest) -> SessionHandle {
        let id = self.sessions.len();
        let mid_serve = self.ticks > 0;
        let active_from = if mid_serve {
            self.delivered + self.window_limit()
        } else {
            0
        };
        if mid_serve {
            self.admissions += 1;
        }
        let SessionRequest {
            renderer,
            path,
            weight,
            priority,
            deadline_hz,
            label,
        } = request;
        let pipeline = renderer.pipeline();
        let mut stats = SessionStats::new(id, pipeline);
        stats.weight = weight;
        stats.priority = priority;
        stats.deadline_hz = deadline_hz;
        stats.label = label;
        self.sessions.push(SessionSlot {
            len: path.len(),
            state: Arc::new(Mutex::new(SessionState {
                renderer,
                path,
                pool: FramePool::new(),
                replay: ReplayScratch::default(),
            })),
            pipeline,
            scheduled: 0,
            in_flight: false,
            active_from,
            active: !mid_serve,
            closed_from: None,
            closed: false,
            last_scheduled: None,
            period: deadline_hz.map(f64::recip),
            // Up-front sessions count from sim-time 0; mid-serve
            // admissions anchor when their first frame is delivered
            // (see next_frame) — a delivery-order fact, never a
            // dispatch-progress one.
            deadline_epoch: 0.0,
            epoch_anchored: !mid_serve,
            latencies: Vec::new(),
            res_shift: 0,
            staged_shift: None,
            staged_skip: None,
            skips_pending: 0,
            miss_streak: 0,
            meet_streak: 0,
            stats,
        });
        SessionHandle(id)
    }

    /// Admits a camera stream **subject to admission control**: predicts
    /// whether the request is feasible against the live load and returns
    /// a typed [`AdmitDecision`] instead of unconditionally scheduling.
    /// Without [`RenderServer::with_admission_control`] this is exactly
    /// [`admit`](RenderServer::admit) (always `Admitted`).
    ///
    /// The prediction: one scheduling round over the live sessions plus
    /// the candidate costs the sum of per-session mean frame costs
    /// (settled `seconds / frames`; the configured prior where a session
    /// has no history) plus [`SwitchCostModel::round_cost`] of the
    /// round's pipeline sequence. The request is *admitted* when
    /// `headroom × round` fits inside every live deadline period and the
    /// candidate's own; *queued* (staged with a delayed, deterministic
    /// activation slot) when it becomes feasible after the
    /// shortest-remaining live sessions drain and the queue has room;
    /// *refused* (dropped) otherwise. Every input is a schedule-order
    /// fact, so the decision stream is bit-identical at any thread
    /// count.
    pub fn try_admit(&mut self, request: SessionRequest) -> AdmitDecision {
        let Some(control) = self.admission else {
            return AdmitDecision::Admitted(self.admit(request));
        };
        // Live load: sessions that will still demand frames — active or
        // staged, not closed (and not closing), path not exhausted.
        let live: Vec<usize> = self
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.closed && s.closed_from.is_none() && s.scheduled < s.len)
            .map(|(id, _)| id)
            .collect();
        let candidate_pipeline = request.renderer.pipeline();
        let candidate_period = request
            .deadline_hz
            .filter(|hz| hz.is_finite() && *hz > 0.0)
            .map(f64::recip);
        let mean_cost = |id: usize| {
            let stats = &self.sessions[id].stats;
            if stats.frames > 0 {
                stats.seconds / stats.frames as f64
            } else {
                control.frame_cost_prior
            }
        };
        // Predicted slack of the tightest constraint for one round over
        // `ids` + the candidate; `None` when nothing is deadline-bound.
        let round_slack = |ids: &[usize]| -> Option<f64> {
            let mut round: f64 = ids.iter().map(|&id| mean_cost(id)).sum();
            round += control.frame_cost_prior;
            if let Some(model) = &self.switch_costs {
                let mut pipelines: Vec<Pipeline> =
                    ids.iter().map(|&id| self.sessions[id].pipeline).collect();
                pipelines.push(candidate_pipeline);
                round += model.round_cost(&pipelines);
            }
            let tightest = ids
                .iter()
                .filter_map(|&id| self.sessions[id].period)
                .chain(candidate_period)
                .min_by(f64::total_cmp)?;
            Some(tightest - control.headroom * round)
        };
        let slack_now = round_slack(&live);
        if slack_now.is_none_or(|s| s >= 0.0) {
            return AdmitDecision::Admitted(self.admit(request));
        }
        let predicted_slack = slack_now.expect("checked above");
        // Infeasible now. Peel live sessions in ascending remaining
        // frames (ties: ascending id) until the remainder + candidate
        // fits — the drain the candidate must wait for.
        let mut by_drain = live.clone();
        by_drain.sort_by_key(|&id| {
            let s = &self.sessions[id];
            (s.len - s.scheduled + s.skips_pending, id)
        });
        let queued = self
            .sessions
            .iter()
            .filter(|s| !s.active && s.closed_from.is_none() && !s.closed)
            .count();
        for peeled in 1..=by_drain.len() {
            let rest: Vec<usize> = by_drain[peeled..].to_vec();
            if round_slack(&rest).is_some_and(|s| s < 0.0) {
                continue;
            }
            if queued >= control.max_queued {
                break;
            }
            // Feasible once the `peeled` shortest sessions drain. Under
            // round-robin-style service, the last of them drains after
            // roughly Σ min(remaining_s, r_max) frames across the live
            // set — a schedule-order estimate; an earlier real drain
            // activates the session at the drain point instead.
            let r_max = {
                let s = &self.sessions[by_drain[peeled - 1]];
                s.len - s.scheduled
            };
            let drain_frames: usize = live
                .iter()
                .map(|&id| {
                    let s = &self.sessions[id];
                    (s.len - s.scheduled).min(r_max)
                })
                .sum();
            let activates_at = self.delivered + drain_frames.max(self.window_limit());
            let handle = self.admit(request);
            let slot = &mut self.sessions[handle.0];
            slot.active = false;
            slot.active_from = activates_at;
            slot.epoch_anchored = false;
            self.queued_admissions += 1;
            return AdmitDecision::Queued {
                handle,
                activates_at,
            };
        }
        self.refusals += 1;
        AdmitDecision::Refused { predicted_slack }
    }

    /// Closes a session early: no further frames of it are scheduled
    /// once the close takes effect, at the same deterministic slot rule
    /// as [`admit`](RenderServer::admit) (delivered count + dispatch
    /// window). Frames scheduled before that slot are still delivered
    /// and accounted normally.
    ///
    /// Returns `false` — and stages nothing — when the handle is
    /// unknown, the session is already closed (or has a close staged),
    /// or every frame of its path is already scheduled (nothing left to
    /// cancel).
    pub fn close(&mut self, handle: SessionHandle) -> bool {
        let mid_serve = self.ticks > 0;
        let closed_from = if mid_serve {
            self.delivered + self.window_limit()
        } else {
            0
        };
        let Some(slot) = self.sessions.get_mut(handle.0) else {
            return false;
        };
        if slot.closed || slot.closed_from.is_some() || slot.scheduled >= slot.len {
            return false;
        }
        slot.closed_from = Some(closed_from);
        self.closes += 1;
        true
    }

    /// The scene every session shares.
    pub fn scene(&self) -> &BakedScene {
        &self.scene
    }

    /// A shared handle to the scene (no copy).
    pub fn shared_scene(&self) -> Arc<BakedScene> {
        Arc::clone(&self.scene)
    }

    /// Number of admitted sessions (including staged and closed ones).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Machine-readable name of the active scheduling policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Frames not yet delivered, across all sessions. While a staged
    /// close is pending this is an upper bound (frames it will cancel
    /// are still counted); once applied the count is exact.
    pub fn remaining(&self) -> usize {
        let total: usize = self
            .sessions
            .iter()
            .map(|s| if s.closed { s.scheduled } else { s.len })
            .sum();
        total - self.delivered
    }

    /// Statistics for one session: its delivered share of the schedule
    /// so far. `None` for unknown handles.
    pub fn session_stats(&self, handle: SessionHandle) -> Option<SessionStats> {
        self.sessions
            .get(handle.0)
            .map(|slot| self.slot_stats(slot))
    }

    /// Whether a session's stream is fully settled on this server: every
    /// frame it will ever get here has been delivered (its path ran out,
    /// or a close took effect) and none of its frames is still in
    /// flight. Checked between deliveries this is a pure function of the
    /// delivered schedule — the fleet's migration hand-off polls it, so
    /// the hand-off slot is bit-identical at any thread count. `false`
    /// for unknown handles.
    pub fn session_drained(&self, handle: SessionHandle) -> bool {
        self.sessions
            .get(handle.0)
            .is_some_and(|slot| (slot.closed || slot.scheduled >= slot.len) && !slot.in_flight)
    }

    /// Whether every admitted session is drained and nothing is pending
    /// delivery — this server will never deliver another frame. Unlike
    /// [`RenderServer::remaining`], which over-counts while a staged
    /// close or frame skip is outstanding, this is exact — it is the
    /// scene cache's eviction-safety check.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
            && self
                .sessions
                .iter()
                .all(|slot| (slot.closed || slot.scheduled >= slot.len) && !slot.in_flight)
    }

    /// Returns a delivered frame's buffer to its session's pool, and
    /// reports whether the pool took it. Recycle every frame before
    /// asking for the next one and each session's pool stays at a single
    /// allocation for its whole stream.
    ///
    /// The pool *refuses* buffers that could never be reused — unknown
    /// session ids, sessions whose every frame is already scheduled, and
    /// closed sessions — returning `false` instead of silently crediting
    /// a finished stream's pool (the buffer is dropped). Recycling the
    /// final frame of a drained session therefore returns `false`; that
    /// is harmless and expected.
    pub fn recycle(&mut self, session: usize, image: Image) -> bool {
        let Some(slot) = self.sessions.get_mut(session) else {
            return false;
        };
        if slot.closed || slot.scheduled >= slot.len {
            return false;
        }
        slot.state
            .lock()
            .expect("session state")
            .pool
            .release(image);
        true
    }

    /// Delivers the next frame of the schedule, or `None` once every
    /// session's path is exhausted (staged admissions are activated
    /// rather than abandoned, so `None` really means *nothing left*).
    ///
    /// Each scheduled frame is rendered, traced, and replayed as one job
    /// on one worker lane, and frames on different lanes run in
    /// parallel. Delivery and accounting strictly follow the schedule
    /// order, so outputs and summaries are deterministic.
    pub fn next_frame(&mut self) -> Option<ServedFrame> {
        self.fill_lanes();
        let pending = self.pending.pop_front()?;
        let rendered = pending.ticket.wait();
        let session = pending.session;
        self.sessions[session].in_flight = false;
        self.delivered += 1;

        let mut boundary = false;
        let mut deadline_slack = None;
        if let Some(accel) = &self.accel {
            let (first, last) = match &rendered.trace {
                Some(trace) => (trace.first_op(), trace.last_op()),
                None => (None, None),
            };
            let slot = &mut self.sessions[session];
            // A staged mid-serve session anchors its deadline clock the
            // moment its first frame starts service: the delivered
            // sim-time *before* this frame is charged. Delivery order is
            // deterministic, so the epoch is too — unlike the dispatch
            // moment of the activation slot, which depends on how far
            // lanes ran ahead.
            if !slot.epoch_anchored {
                slot.deadline_epoch = self.total_seconds;
                slot.epoch_anchored = true;
            }
            let avoided_before = self.boundary.avoided();
            let cfg = accel.config();
            let reconfig_seconds = cfg.cycles_to_seconds(cfg.reconfig_cycles);
            // Sim-seconds this frame adds to the schedule: boundary
            // reconfiguration (if paid) plus simulated execution — the
            // frame's sim latency.
            let mut frame_seconds = 0.0;
            // Pipeline-aware boundary metering: crossing renderers always
            // reconfigures (the device swaps pipeline configuration);
            // same-renderer boundaries pay only when the micro-operator
            // families differ. Coalescing policies amortize the former.
            if self.boundary.observe_for(slot.pipeline, first, last) {
                // The schedule pays the switch into this frame; charge it
                // to the aggregate and attribute it to the entering
                // session.
                boundary = true;
                let cycles = cfg.reconfig_cycles;
                self.total_cycles += cycles;
                self.total_seconds += reconfig_seconds;
                frame_seconds += reconfig_seconds;
                slot.stats.boundary_reconfigurations += 1;
                slot.stats.cycles += cycles;
                slot.stats.seconds += reconfig_seconds;
            } else if self.boundary.avoided() > avoided_before {
                slot.stats.boundary_switches_avoided += 1;
            }
            // Every crossed boundary — paid or amortized — teaches the
            // switch-cost model what its ordered pipeline pair costs.
            if let (Some(event), Some(model)) =
                (self.boundary.last_boundary(), self.switch_costs.as_mut())
            {
                let cost = if event.switched {
                    reconfig_seconds
                } else {
                    0.0
                };
                model.observe(event.from, event.to, cost);
            }
            if let Some(sim) = &rendered.sim {
                self.in_frame_reconfigs += sim.reconfigurations;
                self.total_cycles += sim.cycles;
                self.total_seconds += sim.seconds;
                frame_seconds += sim.seconds;
                slot.stats.in_frame_reconfigurations += sim.reconfigurations;
                slot.stats.cycles += sim.cycles;
                slot.stats.seconds += sim.seconds;
            }
            slot.latencies.push(frame_seconds);
            // Deadline accounting in schedule order: the frame completes
            // at the schedule's cumulative sim-time, and its slack is
            // measured against the session's periodic due time. Both are
            // delivery-order facts — lane timing never enters.
            if let Some(due) = slot.next_deadline(pending.index, slot.deadline_epoch) {
                let slack = due - self.total_seconds;
                deadline_slack = Some(slack);
                if slack < 0.0 {
                    slot.stats.deadline_misses += 1;
                    self.deadline_misses += 1;
                }
                slot.stats.worst_slack = Some(match slot.stats.worst_slack {
                    Some(worst) => worst.min(slack),
                    None => slack,
                });
            }
        }
        {
            let slot = &mut self.sessions[session];
            slot.stats.frames += 1;
            if pending.res_shift > 0 {
                slot.stats.degraded_frames += 1;
                self.degraded_frames += 1;
            }
        }
        if let Some(slack) = deadline_slack {
            self.degrade_on_delivery(session, slack);
        }

        Some(ServedFrame {
            session,
            handle: SessionHandle(session),
            report: FrameReport {
                index: pending.index,
                camera: rendered.camera,
                image: rendered.image,
                trace: rendered.trace,
                sim: rendered.sim,
                boundary_reconfiguration: boundary,
            },
            deadline_slack,
            resolution_shift: pending.res_shift,
        })
    }

    /// The mid-serve degradation controller, run once per delivered
    /// deadline-bound frame (a schedule-order moment). Reads only the
    /// delivered slack and the session's streak counters; every reaction
    /// is *staged* under the churn slot rule (`delivered + dispatch
    /// window`), so degraded schedules remain bit-identical at any
    /// thread or lane count. No-op without
    /// [`RenderServer::with_degradation`].
    fn degrade_on_delivery(&mut self, session: usize, slack: f64) {
        let Some(policy) = self.degrade else {
            return;
        };
        let activates_at = self.delivered + self.window_limit();
        let mut shed_now = false;
        {
            let slot = &mut self.sessions[session];
            if slack < 0.0 {
                slot.miss_streak += 1;
                slot.meet_streak = 0;
            } else {
                slot.meet_streak += 1;
                slot.miss_streak = 0;
            }
            // The shift decisions compare against — the staged value
            // when a change is already in flight, so streaks never
            // double-stage.
            let effective_shift = slot.staged_shift.map_or(slot.res_shift, |(_, s)| s);
            if slack < 0.0 {
                // One more halving after a sustained miss streak.
                if slot.miss_streak >= policy.degrade_after_misses
                    && effective_shift < policy.max_resolution_shift
                    && slot.staged_shift.is_none()
                {
                    slot.staged_shift = Some((activates_at, effective_shift + 1));
                    slot.miss_streak = 0;
                }
                // A delivery multiple periods late stages one explicit
                // skip: dropping the next frame advances the deadline
                // ladder a full period for zero rendering cost.
                if let Some(period) = slot.period {
                    if policy.skip_when_late_periods.is_finite()
                        && slack < -(policy.skip_when_late_periods * period)
                        && slot.staged_skip.is_none()
                        && slot.skips_pending == 0
                    {
                        slot.staged_skip = Some((activates_at, 1));
                    }
                }
                // Still drowning at maximum degradation: shed a victim.
                if policy.shed_after_misses > 0
                    && effective_shift >= policy.max_resolution_shift
                    && slot.miss_streak >= policy.shed_after_misses
                {
                    slot.miss_streak = 0;
                    shed_now = true;
                }
            } else if slot.meet_streak >= policy.recover_after_meets
                && effective_shift > 0
                && slot.staged_shift.is_none()
            {
                // Sustained recovery: restore one halving.
                slot.staged_shift = Some((activates_at, effective_shift - 1));
                slot.meet_streak = 0;
            }
        }
        if shed_now {
            // The cheapest victim: lowest priority, then lowest weight,
            // then the youngest session (highest id). Marked shed and
            // staged exactly like a caller close, but not counted in
            // `closes` — the server, not the caller, hung up. Never
            // fires with fewer than two live sessions: the last stream
            // degrades but keeps serving rather than self-destructing.
            let live: Vec<usize> = self
                .sessions
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.active && !s.closed && s.closed_from.is_none() && s.scheduled < s.len
                })
                .map(|(id, _)| id)
                .collect();
            if live.len() >= 2 {
                let victim = live
                    .into_iter()
                    .min_by_key(|&id| {
                        let s = &self.sessions[id];
                        (s.stats.priority, s.stats.weight, std::cmp::Reverse(id))
                    })
                    .expect("nonempty");
                let slot = &mut self.sessions[victim];
                slot.closed_from = Some(activates_at);
                slot.stats.shed = true;
                self.shed_sessions += 1;
            }
        }
    }

    /// Serves every remaining frame, recycling each buffer internally,
    /// and returns the final summary. The droppable-output path for
    /// benchmarks and accounting runs.
    pub fn run(&mut self) -> ServerSummary {
        while let Some(frame) = self.next_frame() {
            self.recycle(frame.session, frame.report.image);
        }
        self.summary()
    }

    /// Statistics over everything delivered so far: per-session stats in
    /// session-id order plus schedule-level aggregates (always
    /// [consistent](ServerSummary::is_consistent)), the policy name, and
    /// the mid-serve admission / close event counts.
    pub fn summary(&self) -> ServerSummary {
        let per_session: Vec<SessionStats> = self
            .sessions
            .iter()
            .map(|slot| self.slot_stats(slot))
            .collect();
        ServerSummary {
            per_session,
            policy: self.policy.name().to_string(),
            admissions: self.admissions,
            closes: self.closes,
            refusals: self.refusals,
            queued_admissions: self.queued_admissions,
            frames_skipped: self.frames_skipped,
            degraded_frames: self.degraded_frames,
            shed_sessions: self.shed_sessions,
            deadline_misses: self.deadline_misses,
            scheduled_frames: self.delivered,
            total_cycles: self.total_cycles,
            total_seconds: self.total_seconds,
            in_frame_reconfigurations: self.in_frame_reconfigs,
            boundary_reconfigurations: self.boundary.switches(),
            boundary_switches_avoided: self.boundary.avoided(),
        }
    }

    /// One slot's stats, completed with the pool's allocation counter
    /// and the latency percentiles over its delivered frames.
    fn slot_stats(&self, slot: &SessionSlot) -> SessionStats {
        let mut stats = slot.stats.clone();
        stats.framebuffer_allocations =
            slot.state.lock().expect("session state").pool.allocations();
        stats.resolution_shift = slot.staged_shift.map_or(slot.res_shift, |(_, s)| s);
        if !slot.latencies.is_empty() {
            let mut sorted = slot.latencies.clone();
            sorted.sort_by(f64::total_cmp);
            stats.latency_p50 = percentile(&sorted, 50.0);
            stats.latency_p99 = percentile(&sorted, 99.0);
        }
        stats
    }

    /// The lane-invariant dispatch bound: how many frames may be
    /// scheduled beyond the delivered prefix, and how many delivered
    /// frames pass before staged churn activates. Never derived from the
    /// lane count — that is the whole point.
    fn window_limit(&self) -> usize {
        self.lookahead.min(self.policy.max_in_flight()).max(1)
    }

    /// Activates staged admissions and applies staged closes whose slot
    /// has been reached; returns whether anything changed. The drain
    /// fast-forward passes `usize::MAX` to apply everything staged
    /// immediately (the drain point is itself schedule-determined, so
    /// that stays deterministic).
    fn apply_staged(&mut self, slot_index: usize) -> bool {
        let mut changed = false;
        for slot in &mut self.sessions {
            if !slot.active && slot.active_from <= slot_index {
                slot.active = true;
                changed = true;
            }
            if let Some(at) = slot.closed_from {
                if !slot.closed && at <= slot_index {
                    slot.closed = true;
                    if slot.scheduled < slot.len {
                        slot.stats.closed_early = true;
                    }
                    changed = true;
                }
            }
            // Staged degradation follows the same slot rule as churn:
            // the shift a given schedule entry renders at — and the
            // point a skip drops frames at — is a function of delivered
            // counts and ticks, never of lane progress.
            if let Some((at, shift)) = slot.staged_shift {
                if at <= slot_index {
                    slot.res_shift = shift;
                    slot.staged_shift = None;
                    changed = true;
                }
            }
            if let Some((at, skips)) = slot.staged_skip {
                if at <= slot_index {
                    slot.skips_pending += skips;
                    slot.staged_skip = None;
                    changed = true;
                }
            }
        }
        changed
    }

    /// Snapshot of every schedulable session, in id order — what the
    /// policy decides over.
    fn views(&self) -> Vec<SessionView> {
        let now = self.total_seconds;
        self.sessions
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.schedulable())
            .map(|(id, slot)| {
                let deadline = slot.next_deadline(slot.scheduled, now);
                SessionView {
                    session: id,
                    pipeline: slot.pipeline,
                    remaining: slot.len - slot.scheduled,
                    weight: slot.stats.weight,
                    priority: slot.stats.priority,
                    delivered: slot.stats.frames,
                    sim_seconds: slot.stats.seconds,
                    deadline,
                    slack: deadline.map(|d| d - now),
                    last_scheduled: slot.last_scheduled,
                }
            })
            .collect()
    }

    /// Dispatches upcoming schedule entries to worker lanes until the
    /// dispatch window is full, the schedule is exhausted, or the policy
    /// picks a session whose previous frame is still undelivered (the
    /// schedule never skips ahead — determinism over throughput).
    fn fill_lanes(&mut self) {
        if self.lane_pool.is_none() {
            self.lane_pool = Some(LanePool::new(self.lanes_requested));
        }
        let window = {
            let pool = self.lane_pool.as_ref().expect("lane pool created above");
            pool.lanes().min(self.window_limit())
        };
        while self.pending.len() < window {
            let slot_index = self.ticks as usize;
            self.apply_staged(slot_index);
            self.consume_skips();
            let views = self.views();
            let pick = if views.is_empty() {
                None
            } else {
                let ctx = PolicyContext {
                    tick: self.ticks,
                    last_session: self.last_session,
                    last_pipeline: self.last_pipeline,
                    now_seconds: self.total_seconds,
                    switch_costs: self.switch_costs.as_ref(),
                    load: self.load_view(),
                };
                self.policy.pick(&ctx, &views)
            };
            let Some(sid) = pick else {
                // Nothing runnable. If the schedule has drained while
                // churn is still staged, bring it in now instead of
                // ending the stream with sessions stranded.
                if self.pending.is_empty() && self.apply_staged(usize::MAX) {
                    continue;
                }
                break;
            };
            let valid = views.iter().any(|v| v.session == sid);
            debug_assert!(valid, "policy picked an unschedulable session {sid}");
            if !valid {
                break;
            }
            if self.sessions[sid].in_flight {
                // The policy insists on a session mid-delivery: wait for
                // it rather than reordering the schedule.
                break;
            }

            let tick = self.ticks;
            self.ticks += 1;
            let slot = &mut self.sessions[sid];
            let index = slot.scheduled;
            slot.scheduled += 1;
            slot.in_flight = true;
            slot.last_scheduled = Some(tick);
            self.last_session = Some(sid);
            self.last_pipeline = Some(slot.pipeline);

            // The shift this schedule entry renders at is the slot's
            // current (staged-rule-applied) value — captured here so the
            // lane closure is a pure function of the dispatch decision.
            let res_shift = slot.res_shift;
            let state = Arc::clone(&slot.state);
            let scene = Arc::clone(&self.scene);
            let accel = self.accel.clone();
            let pool = self.lane_pool.as_ref().expect("lane pool created above");
            let ticket = pool.submit_at(tick, move || {
                let mut guard = state.lock().expect("session state");
                let state = &mut *guard;
                let camera = degraded_camera(state.path.camera(index), res_shift);
                let mut image = state.pool.acquire_for(camera.width, camera.height);
                let (trace, sim) = match &accel {
                    Some(accel) => {
                        let trace = state.renderer.render_traced(&scene, &camera, &mut image);
                        let sim = accel.simulate_with_scratch(&trace, &mut state.replay);
                        (Some(trace), Some(sim))
                    }
                    None => {
                        state.renderer.render_into(&scene, &camera, &mut image);
                        (None, None)
                    }
                };
                Rendered {
                    camera,
                    image,
                    trace,
                    sim,
                }
            });
            self.pending.push_back(Pending {
                session: sid,
                index,
                res_shift,
                ticket,
            });
        }
    }

    /// Drops every activated-but-unconsumed frame skip: the session's
    /// next undispatched frames advance past without rendering, in
    /// session-id order. Runs inside the dispatch loop right after
    /// [`RenderServer::apply_staged`], so skips land at the same tick at
    /// any lane count. Skipped frames are counted, never delivered —
    /// they leave index gaps in the served stream and advance the
    /// session's deadline ladder.
    fn consume_skips(&mut self) {
        for slot in &mut self.sessions {
            if slot.skips_pending == 0 {
                continue;
            }
            if !slot.active || slot.closed {
                slot.skips_pending = 0;
                continue;
            }
            let skipped = slot.skips_pending.min(slot.len - slot.scheduled);
            slot.skips_pending = 0;
            slot.scheduled += skipped;
            slot.stats.frames_skipped += skipped as u64;
            self.frames_skipped += skipped as u64;
        }
    }

    /// Aggregate load view over the currently schedulable sessions —
    /// what policies observe as [`PolicyContext::load`], computed from
    /// settled accounting and the switch-cost model only.
    fn load_view(&self) -> LoadView {
        let prior = self.admission.map_or(0.0, |c| c.frame_cost_prior);
        let mut view = LoadView::default();
        let mut pipelines: Vec<Pipeline> = Vec::new();
        for slot in &self.sessions {
            if !slot.schedulable() {
                continue;
            }
            view.live_sessions += 1;
            view.predicted_round_seconds += if slot.stats.frames > 0 {
                slot.stats.seconds / slot.stats.frames as f64
            } else {
                prior
            };
            pipelines.push(slot.pipeline);
            if let Some(p) = slot.period {
                view.deadline_bound += 1;
                view.min_period = Some(match view.min_period {
                    Some(m) => m.min(p),
                    None => p,
                });
            }
        }
        if let Some(model) = &self.switch_costs {
            view.predicted_round_seconds += model.round_cost(&pipelines);
        }
        view
    }
}

/// `camera` with each image dimension halved `shift` times (floor of 1
/// pixel). View and projection are untouched: the frustum is identical,
/// only the sampling density drops — which is what makes the degraded
/// frame a cheaper rendering of the *same* view.
fn degraded_camera(mut camera: Camera, shift: u32) -> Camera {
    if shift > 0 {
        camera.width = (camera.width >> shift).max(1);
        camera.height = (camera.height >> shift).max(1);
    }
    camera
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Priority, WeightedFair};
    use uni_core::AcceleratorConfig;
    use uni_renderers::{MeshPipeline, MlpPipeline};
    use uni_scene::SceneSpec;

    fn scene_and_spec() -> (Arc<BakedScene>, SceneSpec) {
        static SCENE: std::sync::OnceLock<Arc<BakedScene>> = std::sync::OnceLock::new();
        let spec = SceneSpec::demo("server-test", 11).with_detail(0.03);
        let scene = SCENE.get_or_init(|| Arc::new(spec.bake()));
        (Arc::clone(scene), spec)
    }

    #[test]
    fn delivery_follows_round_robin_until_sessions_drain() {
        let (scene, spec) = scene_and_spec();
        let mut server = RenderServer::new(Arc::clone(&scene)).with_lanes(2);
        // Session 0: 3 frames; session 1: 1 frame — it drops out of the
        // cycle after its only frame.
        server.admit(SessionRequest::new(
            Box::new(MeshPipeline::default()),
            CameraPath::orbit(spec.orbit(24, 16), 3),
        ));
        server.admit(SessionRequest::new(
            Box::new(MlpPipeline::default()),
            CameraPath::orbit(spec.orbit(16, 12), 1),
        ));
        let mut order = Vec::new();
        while let Some(frame) = server.next_frame() {
            order.push((frame.session, frame.report.index));
            server.recycle(frame.session, frame.report.image);
        }
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (0, 2)]);
        assert_eq!(server.remaining(), 0);
        assert!(server.next_frame().is_none());
    }

    #[test]
    fn recycled_sessions_keep_one_framebuffer_each() {
        let (scene, spec) = scene_and_spec();
        let mut server = RenderServer::new(scene)
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
            .with_lanes(2);
        for _ in 0..3 {
            server.admit(SessionRequest::new(
                Box::new(MeshPipeline::default()),
                CameraPath::orbit(spec.orbit(20, 14), 3),
            ));
        }
        let summary = server.run();
        assert_eq!(summary.scheduled_frames, 9);
        assert!(summary.is_consistent());
        assert_eq!(summary.policy, "round_robin");
        for stats in &summary.per_session {
            assert_eq!(stats.frames, 3);
            assert_eq!(
                stats.framebuffer_allocations, 1,
                "session {} allocated once for its whole stream",
                stats.session
            );
        }
        assert!(summary.total_cycles > 0);
        assert!(summary.mean_fps() > 0.0);
    }

    #[test]
    fn lane_count_does_not_change_the_summary() {
        let (scene, spec) = scene_and_spec();
        let serve = |lanes: usize| {
            let mut server = RenderServer::new(Arc::clone(&scene))
                .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
                .with_lanes(lanes);
            server.admit(SessionRequest::new(
                Box::new(MeshPipeline::default()),
                CameraPath::orbit(spec.orbit(20, 14), 2),
            ));
            server.admit(SessionRequest::new(
                Box::new(MlpPipeline::default()),
                CameraPath::orbit(spec.orbit(16, 12), 2),
            ));
            server.run()
        };
        assert_eq!(serve(1), serve(4));
    }

    #[test]
    fn zero_lane_request_serves_inline() {
        // Regression: `with_lanes(0)` must clamp to one inline lane, not
        // build an empty pool that panics on first dispatch.
        let (scene, spec) = scene_and_spec();
        let mut server = RenderServer::new(scene).with_lanes(0);
        server.admit(SessionRequest::new(
            Box::new(MeshPipeline::default()),
            CameraPath::orbit(spec.orbit(16, 12), 2),
        ));
        let summary = server.run();
        assert_eq!(summary.scheduled_frames, 2);
    }

    #[test]
    fn recycle_reports_whether_the_pool_took_the_buffer() {
        let (scene, spec) = scene_and_spec();
        let mut server = RenderServer::new(scene).with_lanes(1);
        server.admit(SessionRequest::new(
            Box::new(MeshPipeline::default()),
            CameraPath::orbit(spec.orbit(16, 12), 2),
        ));
        let first = server.next_frame().expect("frame 0");
        assert!(
            server.recycle(first.session, first.report.image),
            "mid-stream recycle is accepted"
        );
        let last = server.next_frame().expect("frame 1");
        assert!(
            !server.recycle(last.session, last.report.image),
            "a finished session's pool refuses the buffer"
        );
        // Out-of-range ids are refused, not a panic.
        assert!(!server.recycle(99, Image::empty()));
    }

    #[test]
    fn mid_serve_admission_joins_at_a_deterministic_slot() {
        let (scene, spec) = scene_and_spec();
        let serve = |lanes: usize| {
            let mut server = RenderServer::new(Arc::clone(&scene))
                .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
                .with_lanes(lanes)
                .with_lookahead(3);
            server.admit(SessionRequest::new(
                Box::new(MeshPipeline::default()),
                CameraPath::orbit(spec.orbit(20, 14), 4),
            ));
            server.admit(SessionRequest::new(
                Box::new(MlpPipeline::default()),
                CameraPath::orbit(spec.orbit(16, 12), 4),
            ));
            let mut order = Vec::new();
            let mut late = None;
            while let Some(frame) = server.next_frame() {
                order.push((frame.session, frame.report.index));
                server.recycle(frame.session, frame.report.image);
                if order.len() == 2 {
                    late = Some(
                        server.admit(
                            SessionRequest::new(
                                Box::new(MeshPipeline::default()),
                                CameraPath::orbit(spec.orbit(16, 12), 2),
                            )
                            .label("late"),
                        ),
                    );
                }
            }
            let late = late.expect("admitted");
            let stats = server.session_stats(late).expect("late session stats");
            assert_eq!(stats.frames, 2, "staged admission is served, not lost");
            assert_eq!(stats.label.as_deref(), Some("late"));
            let summary = server.summary();
            assert_eq!(summary.admissions, 1);
            assert!(summary.is_consistent());
            (order, summary)
        };
        assert_eq!(serve(1), serve(4), "churn timing is lane-invariant");
    }

    #[test]
    fn close_cancels_unscheduled_frames_only() {
        let (scene, spec) = scene_and_spec();
        let mut server = RenderServer::new(Arc::clone(&scene))
            .with_lanes(1)
            .with_lookahead(2);
        let victim = server.admit(SessionRequest::new(
            Box::new(MeshPipeline::default()),
            CameraPath::orbit(spec.orbit(16, 12), 12),
        ));
        let other = server.admit(SessionRequest::new(
            Box::new(MlpPipeline::default()),
            CameraPath::orbit(spec.orbit(16, 12), 3),
        ));
        let first = server.next_frame().expect("frame");
        server.recycle(first.session, first.report.image);
        assert!(server.close(victim), "open session accepts a close");
        assert!(!server.close(victim), "double close is refused");
        assert!(!server.close(SessionHandle(42)), "unknown handle refused");
        let mut delivered = [0usize; 2];
        while let Some(frame) = server.next_frame() {
            delivered[frame.session] += 1;
            server.recycle(frame.session, frame.report.image);
        }
        let victim_stats = server.session_stats(victim).expect("victim stats");
        assert!(victim_stats.closed_early);
        assert!(
            victim_stats.frames < 12,
            "close cancelled the tail of the path"
        );
        assert_eq!(server.session_stats(other).expect("other").frames, 3);
        assert_eq!(server.summary().closes, 1);
        assert_eq!(server.remaining(), 0);
    }

    #[test]
    fn try_admit_without_control_always_admits() {
        let (scene, spec) = scene_and_spec();
        let mut server = RenderServer::new(scene).with_lanes(1);
        let decision = server.try_admit(SessionRequest::new(
            Box::new(MeshPipeline::default()),
            CameraPath::orbit(spec.orbit(16, 12), 2),
        ));
        assert!(matches!(decision, AdmitDecision::Admitted(_)));
        assert_eq!(server.summary().refusals, 0);
    }

    #[test]
    fn try_admit_predicts_feasibility_from_priors_and_periods() {
        let (scene, spec) = scene_and_spec();
        let mut server = RenderServer::new(scene)
            .with_lanes(1)
            .with_admission_control(AdmissionControl::new().frame_cost_prior(0.1));
        // One best-effort session in the mix: a round over it plus any
        // candidate is predicted at 2 × 0.1 s.
        server.admit(SessionRequest::new(
            Box::new(MeshPipeline::default()),
            CameraPath::orbit(spec.orbit(16, 12), 3),
        ));
        // Plenty of slack: period 0.25 s ≥ 0.2 s round.
        let roomy = server.try_admit(
            SessionRequest::new(
                Box::new(MlpPipeline::default()),
                CameraPath::orbit(spec.orbit(16, 12), 2),
            )
            .deadline_hz(4.0),
        );
        let AdmitDecision::Admitted(roomy) = roomy else {
            panic!("feasible request admitted, got {roomy:?}");
        };
        // Infeasible now (0.15 < 0.3 round over three sessions) but
        // feasible once the two live sessions drain: queued.
        let tight = server.try_admit(
            SessionRequest::new(
                Box::new(MeshPipeline::default()),
                CameraPath::orbit(spec.orbit(16, 12), 2),
            )
            .deadline_hz(1.0 / 0.15),
        );
        let AdmitDecision::Queued { handle, .. } = tight else {
            panic!("drainable overload queues, got {tight:?}");
        };
        // Hopeless even alone (0.05 < 0.1 prior): refused, queue or not.
        let hopeless = server.try_admit(
            SessionRequest::new(
                Box::new(MeshPipeline::default()),
                CameraPath::orbit(spec.orbit(16, 12), 2),
            )
            .deadline_hz(20.0),
        );
        let AdmitDecision::Refused { predicted_slack } = hopeless else {
            panic!("infeasible request refused, got {hopeless:?}");
        };
        assert!(predicted_slack < 0.0, "refusal reports the deficit");
        assert!(hopeless.handle().is_none());

        // Every admitted-or-queued stream is served to completion.
        let summary = server.run();
        assert!(summary.is_consistent());
        assert_eq!(summary.refusals, 1);
        assert_eq!(summary.queued_admissions, 1);
        assert_eq!(summary.scheduled_frames, 7, "3 + 2 + 2 frames served");
        assert_eq!(server.session_stats(roomy).expect("roomy").frames, 2);
        assert_eq!(server.session_stats(handle).expect("queued").frames, 2);
    }

    #[test]
    fn degradation_scales_resolution_and_skips_under_hopeless_deadlines() {
        let (scene, spec) = scene_and_spec();
        let mut server = RenderServer::new(scene)
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
            .with_lanes(1)
            .with_lookahead(1)
            .with_degradation(
                DegradePolicy::new()
                    .degrade_after_misses(1)
                    .skip_when_late_periods(0.5)
                    .shed_after_misses(0),
            );
        // A deadline no schedule can hold: every delivery misses, so the
        // controller must walk the session down to max degradation and
        // start skipping.
        let handle = server.admit(
            SessionRequest::new(
                Box::new(MeshPipeline::default()),
                CameraPath::orbit(spec.orbit(32, 24), 10),
            )
            .deadline_hz(1.0e7),
        );
        let mut shifts = Vec::new();
        let mut indices = Vec::new();
        while let Some(frame) = server.next_frame() {
            shifts.push(frame.resolution_shift);
            indices.push(frame.report.index);
            server.recycle(frame.session, frame.report.image);
        }
        let stats = server.session_stats(handle).expect("stats");
        assert!(stats.degraded_frames > 0, "resolution degradation engaged");
        assert!(stats.frames_skipped > 0, "skipping engaged");
        assert_eq!(
            stats.resolution_shift, 2,
            "walked down to the default max shift"
        );
        assert_eq!(shifts[0], 0, "first frame rendered at native resolution");
        assert_eq!(*shifts.last().expect("frames"), 2);
        assert!(
            indices.windows(2).any(|w| w[1] > w[0] + 1),
            "skips leave index gaps in the served stream: {indices:?}"
        );
        assert_eq!(
            stats.frames as u64 + stats.frames_skipped,
            10,
            "every path frame is either delivered or explicitly skipped"
        );
        let summary = server.summary();
        assert!(summary.is_consistent());
        assert_eq!(summary.degraded_frames, stats.degraded_frames);
        assert_eq!(summary.frames_skipped, stats.frames_skipped);
    }

    #[test]
    fn shedding_closes_the_lowest_priority_session_without_counting_a_close() {
        let (scene, spec) = scene_and_spec();
        let mut server = RenderServer::new(scene)
            .with_accelerator(Accelerator::new(AcceleratorConfig::paper()))
            .with_lanes(1)
            .with_lookahead(1)
            .with_degradation(
                DegradePolicy::new()
                    .max_resolution_shift(0)
                    .skip_when_late_periods(f64::INFINITY)
                    .shed_after_misses(2),
            );
        let bound = server.admit(
            SessionRequest::new(
                Box::new(MeshPipeline::default()),
                CameraPath::orbit(spec.orbit(24, 16), 8),
            )
            .priority(5)
            .deadline_hz(1.0e7),
        );
        let victim = server.admit(
            SessionRequest::new(
                Box::new(MlpPipeline::default()),
                CameraPath::orbit(spec.orbit(16, 12), 8),
            )
            .priority(0),
        );
        let summary = server.run();
        assert!(summary.is_consistent());
        assert_eq!(summary.shed_sessions, 1);
        assert_eq!(summary.closes, 0, "shedding is not a caller close");
        let victim_stats = server.session_stats(victim).expect("victim");
        assert!(victim_stats.shed, "lowest-priority session was shed");
        assert!(victim_stats.closed_early);
        assert!(victim_stats.frames < 8, "its tail was cancelled");
        let bound_stats = server.session_stats(bound).expect("bound");
        assert!(!bound_stats.shed);
        assert_eq!(bound_stats.frames, 8, "the deadline session kept serving");
    }

    #[test]
    fn weighted_fair_and_priority_policies_report_their_names() {
        let (scene, spec) = scene_and_spec();
        let serve = |policy_server: RenderServer| {
            let mut server = policy_server;
            server.admit(
                SessionRequest::new(
                    Box::new(MeshPipeline::default()),
                    CameraPath::orbit(spec.orbit(16, 12), 2),
                )
                .weight(2)
                .priority(3),
            );
            server.run()
        };
        let wf = serve(
            RenderServer::new(Arc::clone(&scene))
                .with_policy(WeightedFair::new())
                .with_lanes(1),
        );
        assert_eq!(wf.policy, "weighted_fair");
        assert_eq!(wf.per_session[0].weight, 2);
        assert_eq!(wf.per_session[0].priority, 3);
        let pr = serve(
            RenderServer::new(Arc::clone(&scene))
                .with_policy(Priority::new())
                .with_lanes(1),
        );
        assert_eq!(pr.policy, "priority");
        assert_eq!(pr.scheduled_frames, 2);
    }
}
