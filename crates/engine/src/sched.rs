//! Policy-driven frame scheduling for [`crate::RenderServer`].
//!
//! Uni-Render time-multiplexes *diverse* renderers on one reconfigurable
//! accelerator, paying an explicit PE-array reconfiguration whenever two
//! consecutively scheduled frames straddle different micro-operator
//! families. *Which order* the schedule visits sessions in is therefore a
//! first-class knob: it decides both latency distribution across users
//! and how many boundary reconfigurations the device pays. This module
//! makes that knob pluggable while keeping the serving contract the
//! server has always had — the schedule is **deterministic**: a pure
//! function of the session mix and the policy, never of lane timing or
//! `UNI_RENDER_THREADS`.
//!
//! A [`SchedulePolicy`] deterministically picks the next session to
//! schedule from a snapshot of runnable-session state
//! ([`SessionView`]s: remaining frames, weight, priority, sim-time
//! consumed, deadline slack, last-scheduled tick) plus a
//! [`PolicyContext`] (current tick, previously scheduled
//! session/pipeline, delivered sim-time, and the server's learned
//! [`SwitchCostModel`]). Five built-ins ship:
//!
//! - [`RoundRobin`] — strict cyclic session order, bit-compatible with
//!   the server's original hard-coded schedule;
//! - [`WeightedFair`] — deficit-style fair sharing: always schedules the
//!   backlogged session with the least accumulated sim-time per unit
//!   weight, so sim-time shares track weights within one frame's cost;
//! - [`Priority`] — strict priority levels (higher [`priority`] wins),
//!   round-robin within a level;
//! - [`EarliestDeadline`] — strict EDF over sim-time deadlines
//!   ([`crate::SessionRequest::deadline_hz`]): the runnable session
//!   whose next frame is due soonest always goes first;
//! - [`CostAware`] — reconfiguration-aware coalescing with a latency
//!   conscience: extends a same-pipeline batch only while the estimated
//!   switch saving ([`SwitchCostModel`]) exceeds the worst slack loss
//!   the extra delay would induce on deadline-bound sessions.
//!
//! The first three built-ins accept a `coalesce_switches` knob: when the
//! previously scheduled frame's pipeline still has a runnable session,
//! the policy keeps scheduling that pipeline (within whatever its base
//! order allows) to batch same-pipeline frames and amortize boundary
//! reconfigurations — the reconfiguration-aware scheduling the paper's
//! hybrid figures probe. [`CostAware`] is the *quantitative* version of
//! that knob.
//!
//! [`priority`]: SessionView::priority

use uni_microops::{Pipeline, SwitchCostModel};

/// A typed handle to one serving session of a [`crate::RenderServer`].
///
/// Returned by [`crate::RenderServer::admit`]; pass it back to
/// [`close`](crate::RenderServer::close),
/// [`session_stats`](crate::RenderServer::session_stats), and
/// [`recycle`](crate::RenderServer::recycle). Handles are dense indices
/// in admission order, so [`SessionHandle::id`] doubles as the session's
/// position in [`uni_microops::ServerSummary::per_session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionHandle(pub(crate) usize);

impl SessionHandle {
    /// The session's dense id (admission order).
    pub fn id(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

impl From<SessionHandle> for usize {
    fn from(handle: SessionHandle) -> usize {
        handle.0
    }
}

/// Snapshot of one schedulable session, as a policy sees it.
///
/// The server builds one view per *live* session — admitted (active),
/// not closed, with at least one frame left to schedule — in session-id
/// order. Everything in the view is deterministic serving state:
/// identical inputs produce identical views at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionView {
    /// Dense session id ([`SessionHandle::id`]).
    pub session: usize,
    /// The pipeline family this session renders with (what a boundary
    /// reconfiguration is paid to switch between).
    pub pipeline: Pipeline,
    /// Frames of the session's path not yet scheduled.
    pub remaining: usize,
    /// Fair-share weight (≥ 1; see [`crate::SessionRequest::weight`]).
    pub weight: u32,
    /// Priority level (higher wins; see
    /// [`crate::SessionRequest::priority`]).
    pub priority: u8,
    /// Frames of this session delivered so far.
    pub delivered: usize,
    /// Simulated seconds charged to this session's *delivered* frames,
    /// including boundary reconfigurations paid entering them. Stays
    /// `0.0` when the server has no accelerator attached (nothing is
    /// simulated).
    pub sim_seconds: f64,
    /// Absolute sim-time (seconds on the server's delivered-frame axis)
    /// the session's next unscheduled frame is due, per its
    /// [`crate::SessionRequest::deadline_hz`] rate; `None` for
    /// best-effort sessions.
    pub deadline: Option<f64>,
    /// Sim-time slack of the next unscheduled frame: its deadline minus
    /// the delivered sim-time ([`PolicyContext::now_seconds`]). Negative
    /// means the frame is already late before it is even scheduled.
    /// `None` for best-effort sessions.
    pub slack: Option<f64>,
    /// Tick at which the session was most recently scheduled (`None`
    /// until its first frame is scheduled).
    pub last_scheduled: Option<u64>,
}

/// Schedule-wide state a policy may condition on.
///
/// Everything here is settled *serving* state — a pure function of the
/// schedule delivered so far, identical at any thread count. Policies
/// that read the feedback fields ([`now_seconds`], [`switch_costs`], or
/// [`SessionView::sim_seconds`] / [`SessionView::slack`]) must bound
/// [`SchedulePolicy::max_in_flight`] to 1 so decisions see fully
/// delivered accounting.
///
/// [`now_seconds`]: PolicyContext::now_seconds
/// [`switch_costs`]: PolicyContext::switch_costs
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolicyContext<'a> {
    /// The slot being scheduled: ticks count scheduled frames from 0.
    pub tick: u64,
    /// Session scheduled at the previous tick, if any.
    pub last_session: Option<usize>,
    /// Pipeline scheduled at the previous tick, if any — the PE-array
    /// mode the accelerator is (logically) left in, which
    /// switch-coalescing policies try to keep serving.
    pub last_pipeline: Option<Pipeline>,
    /// Cumulative simulated seconds of every *delivered* frame — the
    /// sim-time "now" that deadlines and slack are measured against.
    /// Stays `0.0` on accelerator-less servers.
    pub now_seconds: f64,
    /// The server's renderer-switch cost estimator, learned from the
    /// boundary history of the schedule as served (`None` on
    /// accelerator-less servers — nothing charges boundaries there).
    pub switch_costs: Option<&'a SwitchCostModel>,
    /// Aggregate feasibility view of the admitted load — the same
    /// numbers admission control conditions on, recomputed at each
    /// delivered frame so policies can react to developing overload.
    /// All fields are schedule-order facts.
    pub load: LoadView,
}

/// Aggregate load/feasibility facts exposed to policies and admission
/// control: how much work one scheduling round over the live sessions is
/// predicted to take, against the tightest deadline period it must fit.
/// Derived exclusively from settled (delivered) accounting plus the
/// switch-cost model — never from lane timing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadView {
    /// Sessions currently schedulable (admitted, active, not drained).
    pub live_sessions: usize,
    /// How many of those carry a `deadline_hz`.
    pub deadline_bound: usize,
    /// Predicted sim seconds of one round-robin visit over the live
    /// sessions: the sum of per-session mean frame costs (priors where
    /// unobserved) plus the round's switch overhead.
    pub predicted_round_seconds: f64,
    /// The tightest deadline period (seconds per frame) of any live
    /// deadline-bound session; `None` when every session is best-effort.
    pub min_period: Option<f64>,
}

impl LoadView {
    /// Predicted slack of the tightest deadline against one round:
    /// `min_period - predicted_round_seconds`. `None` when no session is
    /// deadline-bound; negative means a round is predicted not to fit.
    pub fn predicted_slack(&self) -> Option<f64> {
        self.min_period.map(|p| p - self.predicted_round_seconds)
    }
}

/// A deterministic scheduling policy for [`crate::RenderServer`].
///
/// # Contract
///
/// - **Determinism.** `pick` must be a pure function of `(ctx, sessions)`
///   and the policy's own configuration. The server may call it several
///   times with identical inputs (e.g. while the picked session is still
///   in flight) and relies on getting the same answer. Never consult
///   wall-clock time, thread ids, or other ambient state.
/// - **Validity.** Return the [`SessionView::session`] id of one of the
///   presented views, or `None` to schedule nothing. Picking a session
///   whose previous frame is still undelivered is legal and means "wait
///   for that session" — the server stalls dispatch rather than
///   reordering. (Whether a pick stalls is *execution* state; it is
///   deliberately absent from the views so policies cannot condition on
///   lane timing.)
/// - **Feedback.** [`SessionView::sim_seconds`] only advances when frames
///   are *delivered*. A policy whose decisions depend on it must bound
///   [`max_in_flight`](SchedulePolicy::max_in_flight) so decisions are
///   made on settled state; feedback-free policies (round-robin,
///   priority) can leave it unbounded and enjoy full lane overlap.
pub trait SchedulePolicy: Send {
    /// Short machine-readable policy name (reported in
    /// [`uni_microops::ServerSummary::policy`]).
    fn name(&self) -> &'static str;

    /// Picks the session whose next frame should occupy slot
    /// `ctx.tick`, or `None` if nothing should be scheduled.
    fn pick(&mut self, ctx: &PolicyContext<'_>, sessions: &[SessionView]) -> Option<usize>;

    /// Upper bound on scheduled-but-undelivered frames. The server
    /// dispatches at most `min(max_in_flight, lookahead, lanes)` frames
    /// beyond the delivered prefix. Policies that read
    /// [`SessionView::sim_seconds`] must return `1` so every decision
    /// sees fully settled accounting; the default is unbounded.
    fn max_in_flight(&self) -> usize {
        usize::MAX
    }
}

impl SchedulePolicy for Box<dyn SchedulePolicy> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn pick(&mut self, ctx: &PolicyContext<'_>, sessions: &[SessionView]) -> Option<usize> {
        (**self).pick(ctx, sessions)
    }

    fn max_in_flight(&self) -> usize {
        (**self).max_in_flight()
    }
}

/// Restricts `sessions` to the previously scheduled pipeline when
/// switch-coalescing applies, otherwise returns them unchanged.
///
/// Coalescing keeps the PE array in its current mode while *any*
/// presented session still runs that pipeline; the base policy then
/// orders within the restricted set. When the current mode has no
/// runnable session left (or nothing was scheduled yet), the base policy
/// sees the full set and the schedule pays the one unavoidable switch.
fn coalesce<'a>(
    enabled: bool,
    ctx: &PolicyContext<'_>,
    sessions: &'a [SessionView],
    scratch: &'a mut Vec<SessionView>,
) -> &'a [SessionView] {
    let Some(last) = ctx.last_pipeline else {
        return sessions;
    };
    if !enabled {
        return sessions;
    }
    scratch.clear();
    scratch.extend(sessions.iter().filter(|v| v.pipeline == last).copied());
    if scratch.is_empty() {
        sessions
    } else {
        scratch
    }
}

/// Cyclic-order pick: the first session id strictly after
/// `ctx.last_session`, wrapping to the lowest id. With views presented in
/// id order this reproduces the server's original round-robin cursor bit
/// for bit.
fn round_robin_pick(ctx: &PolicyContext<'_>, sessions: &[SessionView]) -> Option<usize> {
    let after = ctx.last_session.map_or(0, |s| s + 1);
    sessions
        .iter()
        .find(|v| v.session >= after)
        .or_else(|| sessions.first())
        .map(|v| v.session)
}

/// Round-robin among `sessions` by recency: least-recently-scheduled
/// first, never-scheduled sessions first of all, ties by session id.
fn least_recent_pick(sessions: &[SessionView]) -> Option<usize> {
    sessions
        .iter()
        .min_by_key(|v| (v.last_scheduled.map_or(0, |t| t + 1), v.session))
        .map(|v| v.session)
}

/// Strict cyclic session order — the server's original contract.
///
/// Sessions are visited in ascending id order, wrapping; a session with
/// no frames left drops out of the cycle. With `coalesce_switches` off
/// (the default) the schedule is bit-compatible with the pre-policy
/// `RenderServer`, which the golden/determinism suites pin.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    coalesce_switches: bool,
    scratch: Vec<SessionView>,
}

impl RoundRobin {
    /// Plain round-robin (no switch coalescing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables (or disables) batching same-pipeline frames to amortize
    /// boundary reconfigurations: the cycle restricts itself to sessions
    /// of the previously scheduled pipeline while any remain runnable.
    pub fn coalesce_switches(mut self, coalesce: bool) -> Self {
        self.coalesce_switches = coalesce;
        self
    }
}

impl SchedulePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        if self.coalesce_switches {
            "round_robin_coalesced"
        } else {
            "round_robin"
        }
    }

    fn pick(&mut self, ctx: &PolicyContext<'_>, sessions: &[SessionView]) -> Option<usize> {
        let pool = coalesce(self.coalesce_switches, ctx, sessions, &mut self.scratch);
        round_robin_pick(ctx, pool)
    }
}

/// Deficit-style weighted fair sharing by accumulated sim-time credit.
///
/// Every pick goes to the backlogged session with the smallest
/// `sim_seconds / weight` — the one furthest behind its fair share of
/// accelerator time. Shares therefore track weights within one frame's
/// sim cost while every session stays backlogged (pinned by
/// `tests/server_policies.rs`). Ties break to the least recently
/// scheduled session, then the lowest id, so equal-credit sessions
/// round-robin.
///
/// On a server *without* an accelerator nothing is simulated and
/// `sim_seconds` never advances; the policy then falls back to
/// delivered-frame counts as the credit (weighted fairness by frames
/// instead of sim-time). The fallback engages only while every
/// presented session's sim-time is zero, so simulated servers are
/// unaffected.
///
/// The policy reads delivered sim-time, so it caps
/// [`max_in_flight`](SchedulePolicy::max_in_flight) at 1: every decision
/// sees settled accounting, trading lane overlap for exact fairness.
/// Admissions and closes consequently take effect on the very next tick.
#[derive(Debug, Clone, Default)]
pub struct WeightedFair {
    coalesce_switches: bool,
    scratch: Vec<SessionView>,
}

impl WeightedFair {
    /// Fair sharing by `sim_seconds / weight` credit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables batching same-pipeline frames; fairness then holds only up
    /// to the length of each coalesced run.
    pub fn coalesce_switches(mut self, coalesce: bool) -> Self {
        self.coalesce_switches = coalesce;
        self
    }
}

impl SchedulePolicy for WeightedFair {
    fn name(&self) -> &'static str {
        if self.coalesce_switches {
            "weighted_fair_coalesced"
        } else {
            "weighted_fair"
        }
    }

    fn pick(&mut self, ctx: &PolicyContext<'_>, sessions: &[SessionView]) -> Option<usize> {
        let pool = coalesce(self.coalesce_switches, ctx, sessions, &mut self.scratch);
        // No sim-time anywhere (accelerator-less server, or nothing
        // delivered yet): fair-share by delivered frames instead.
        let simulated = pool.iter().any(|v| v.sim_seconds > 0.0);
        let consumed = |v: &SessionView| {
            if simulated {
                v.sim_seconds
            } else {
                v.delivered as f64
            }
        };
        pool.iter()
            .min_by(|a, b| {
                let credit_a = consumed(a) / f64::from(a.weight.max(1));
                let credit_b = consumed(b) / f64::from(b.weight.max(1));
                credit_a
                    .total_cmp(&credit_b)
                    .then_with(|| {
                        let recency = |v: &SessionView| v.last_scheduled.map_or(0, |t| t + 1);
                        recency(a).cmp(&recency(b))
                    })
                    .then_with(|| a.session.cmp(&b.session))
            })
            .map(|v| v.session)
    }

    fn max_in_flight(&self) -> usize {
        1
    }
}

/// Strict priority levels with round-robin inside each level.
///
/// The runnable session with the highest [`SessionView::priority`] always
/// wins; among equal-priority sessions the least recently scheduled goes
/// first (ties by id), i.e. plain round-robin. Strictness includes
/// waiting: if the top-priority session's previous frame is still in
/// flight the schedule stalls rather than letting a lower level jump in.
///
/// With `coalesce_switches`, same-pipeline batching applies *within* the
/// top priority level only — coalescing never lets a lower level preempt
/// a higher one.
#[derive(Debug, Clone, Default)]
pub struct Priority {
    coalesce_switches: bool,
    level: Vec<SessionView>,
    scratch: Vec<SessionView>,
}

impl Priority {
    /// Strict levels, round-robin within a level.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables batching same-pipeline frames within the top level.
    pub fn coalesce_switches(mut self, coalesce: bool) -> Self {
        self.coalesce_switches = coalesce;
        self
    }
}

impl SchedulePolicy for Priority {
    fn name(&self) -> &'static str {
        if self.coalesce_switches {
            "priority_coalesced"
        } else {
            "priority"
        }
    }

    fn pick(&mut self, ctx: &PolicyContext<'_>, sessions: &[SessionView]) -> Option<usize> {
        let top = sessions.iter().map(|v| v.priority).max()?;
        self.level.clear();
        self.level
            .extend(sessions.iter().filter(|v| v.priority == top).copied());
        least_recent_pick(coalesce(
            self.coalesce_switches,
            ctx,
            &self.level,
            &mut self.scratch,
        ))
    }
}

/// Urgency order shared by [`EarliestDeadline`] and [`CostAware`]: the
/// session whose next frame is due soonest goes first; best-effort
/// sessions (no deadline) rank behind every deadline-bound one, ordered
/// among themselves by recency (round-robin). All ties break on the
/// session id — the deterministic tie-break the EDF contract pins.
fn earliest_deadline_pick(sessions: &[SessionView]) -> Option<usize> {
    sessions
        .iter()
        .min_by(|a, b| {
            let due = |v: &SessionView| v.deadline.unwrap_or(f64::INFINITY);
            due(a)
                .total_cmp(&due(b))
                .then_with(|| {
                    let recency = |v: &SessionView| v.last_scheduled.map_or(0, |t| t + 1);
                    recency(a).cmp(&recency(b))
                })
                .then_with(|| a.session.cmp(&b.session))
        })
        .map(|v| v.session)
}

/// Strict earliest-deadline-first over sim-time deadlines.
///
/// Sessions declare a per-frame deadline rate with
/// [`crate::SessionRequest::deadline_hz`]; the policy always schedules
/// the runnable session whose next frame is due soonest on the sim-time
/// axis, deterministic ties broken by recency then session id
/// ([`SessionHandle::id`]). Best-effort sessions (no deadline) run only
/// while no deadline-bound session is runnable, round-robin among
/// themselves.
///
/// The policy reads delivered sim-time (deadlines and slack settle only
/// at delivery), so it caps
/// [`max_in_flight`](SchedulePolicy::max_in_flight) at 1: every decision
/// sees completed accounting — the trade the deadline contract requires,
/// since a decision made on stale slack could invert the EDF order.
#[derive(Debug, Clone, Copy, Default)]
pub struct EarliestDeadline;

impl EarliestDeadline {
    /// Strict EDF, deterministic tie-break on session id.
    pub fn new() -> Self {
        Self
    }
}

impl SchedulePolicy for EarliestDeadline {
    fn name(&self) -> &'static str {
        "earliest_deadline"
    }

    fn pick(&mut self, _ctx: &PolicyContext<'_>, sessions: &[SessionView]) -> Option<usize> {
        earliest_deadline_pick(sessions)
    }

    fn max_in_flight(&self) -> usize {
        1
    }
}

/// Cost-aware switch coalescing: batch same-pipeline frames *only while
/// the switching cost saved exceeds the deadline slack destroyed*.
///
/// The fixed `coalesce_switches` knob batches unconditionally — great
/// for reconfiguration-dominated mixes, blind to latency. This policy
/// prices both sides of the trade each tick, using the server's learned
/// [`SwitchCostModel`] ([`PolicyContext::switch_costs`]):
///
/// - **base order is urgency**: like [`EarliestDeadline`], the most
///   urgent runnable session is the default pick (best-effort sessions
///   round-robin behind deadline-bound ones), so batches start with —
///   and whole batches are ordered by — who is due soonest;
/// - **extending a batch**: when the urgent pick would leave the current
///   pipeline while some session of that pipeline is still runnable, the
///   policy estimates the *switch saving* of staying (cost of the
///   urgent pick's boundary minus cost of the same-pipeline boundary)
///   and the *worst induced slack loss* — for every deadline-bound
///   session outside the batch, how much of the extra delay (one more
///   batched frame, estimated from the batch session's mean delivered
///   frame time) lands below zero slack. The batch extends only while
///   saving exceeds loss.
///
/// With no deadline-bound sessions the loss is always zero and the
/// policy coalesces exactly as hard as the fixed knob — it never pays
/// *more* reconfigurations than `RoundRobin::coalesce_switches(true)` on
/// a deadline-free workload. With deadlines, it spends its switch budget
/// where the cost model says it is cheap and breaks batches where slack
/// says it must.
///
/// Reads sim-time feedback (slack, mean frame cost, learned switch
/// costs), so [`max_in_flight`](SchedulePolicy::max_in_flight) is 1.
#[derive(Debug, Clone, Default)]
pub struct CostAware {
    batch: Vec<SessionView>,
}

impl CostAware {
    /// Cost-aware coalescing over the server's learned switch costs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Expected sim seconds one more frame of `candidate` would occupy
    /// the accelerator for: the session's mean delivered frame time,
    /// falling back to the mean over all delivered frames in the views
    /// (a cold session borrows the workload's typical frame), then 0.
    fn expected_frame_seconds(candidate: &SessionView, sessions: &[SessionView]) -> f64 {
        if candidate.delivered > 0 {
            return candidate.sim_seconds / candidate.delivered as f64;
        }
        let (sum, frames) = sessions.iter().fold((0.0, 0usize), |(s, n), v| {
            (s + v.sim_seconds, n + v.delivered)
        });
        if frames > 0 {
            sum / frames as f64
        } else {
            0.0
        }
    }
}

impl SchedulePolicy for CostAware {
    fn name(&self) -> &'static str {
        "cost_aware"
    }

    fn pick(&mut self, ctx: &PolicyContext<'_>, sessions: &[SessionView]) -> Option<usize> {
        let urgent = earliest_deadline_pick(sessions)?;
        let Some(last) = ctx.last_pipeline else {
            return Some(urgent);
        };
        let urgent_view = sessions
            .iter()
            .find(|v| v.session == urgent)
            .expect("picked from sessions");
        if urgent_view.pipeline == last {
            // Continuing the batch is also the urgent choice: free win.
            return Some(urgent);
        }
        self.batch.clear();
        self.batch
            .extend(sessions.iter().filter(|v| v.pipeline == last).copied());
        let Some(stay) = earliest_deadline_pick(&self.batch) else {
            // Current mode has drained: the switch is unavoidable.
            return Some(urgent);
        };
        let stay_view = self
            .batch
            .iter()
            .find(|v| v.session == stay)
            .expect("picked from batch");
        // Switch saving of extending the batch one more frame instead of
        // following the urgent pick out of the current mode.
        let saving = ctx
            .switch_costs
            .map_or(0.0, |m| m.saving(last, last, urgent_view.pipeline));
        if saving <= 0.0 {
            return Some(urgent);
        }
        // Extending delays every session outside the batch by one more
        // frame of the batch session; the slack a deadline-bound session
        // loses is the part of that delay below zero slack.
        let delay = Self::expected_frame_seconds(stay_view, sessions);
        let worst_loss = sessions
            .iter()
            .filter(|v| v.pipeline != last)
            .filter_map(|v| v.slack)
            .map(|slack| (delay - slack).clamp(0.0, delay))
            .fold(0.0, f64::max);
        if saving > worst_loss {
            Some(stay)
        } else {
            Some(urgent)
        }
    }

    fn max_in_flight(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(session: usize, pipeline: Pipeline) -> SessionView {
        SessionView {
            session,
            pipeline,
            remaining: 2,
            weight: 1,
            priority: 0,
            delivered: 0,
            sim_seconds: 0.0,
            deadline: None,
            slack: None,
            last_scheduled: None,
        }
    }

    fn ctx(
        tick: u64,
        last_session: Option<usize>,
        last_pipeline: Option<Pipeline>,
    ) -> PolicyContext<'static> {
        PolicyContext {
            tick,
            last_session,
            last_pipeline,
            ..PolicyContext::default()
        }
    }

    #[test]
    fn round_robin_cycles_in_id_order_and_wraps() {
        let mut rr = RoundRobin::new();
        let views = [
            view(0, Pipeline::Mesh),
            view(2, Pipeline::Mlp),
            view(5, Pipeline::Mesh),
        ];
        assert_eq!(rr.pick(&ctx(0, None, None), &views), Some(0));
        assert_eq!(rr.pick(&ctx(1, Some(0), None), &views), Some(2));
        assert_eq!(rr.pick(&ctx(2, Some(2), None), &views), Some(5));
        // Wraps past the highest id back to the lowest.
        assert_eq!(rr.pick(&ctx(3, Some(5), None), &views), Some(0));
        // A drained session simply disappears from the views: the cursor
        // lands on the next live id.
        let views = [view(0, Pipeline::Mesh), view(5, Pipeline::Mesh)];
        assert_eq!(rr.pick(&ctx(4, Some(2), None), &views), Some(5));
        assert_eq!(rr.pick(&ctx(5, None, None), &[]), None);
    }

    #[test]
    fn coalesced_round_robin_sticks_to_the_current_pipeline() {
        let mut rr = RoundRobin::new().coalesce_switches(true);
        let views = [
            view(0, Pipeline::Gaussian3d),
            view(1, Pipeline::Mesh),
            view(2, Pipeline::Gaussian3d),
        ];
        // Mode is Gaussian: the cycle restricts to gaussian sessions.
        let c = ctx(3, Some(0), Some(Pipeline::Gaussian3d));
        assert_eq!(rr.pick(&c, &views), Some(2));
        let c = ctx(4, Some(2), Some(Pipeline::Gaussian3d));
        assert_eq!(rr.pick(&c, &views), Some(0), "wraps within the pipeline");
        // Once no gaussian session remains, the switch is paid and the
        // full cycle returns.
        let views = [view(1, Pipeline::Mesh)];
        let c = ctx(5, Some(0), Some(Pipeline::Gaussian3d));
        assert_eq!(rr.pick(&c, &views), Some(1));
    }

    #[test]
    fn weighted_fair_schedules_the_most_behind_session() {
        let mut wf = WeightedFair::new();
        let mut a = view(0, Pipeline::Mesh);
        let mut b = view(1, Pipeline::Mesh);
        b.weight = 3;
        // Equal credit (0/1 vs 0/3): ties round-robin by recency then id.
        assert_eq!(wf.pick(&ctx(0, None, None), &[a, b]), Some(0));
        a.sim_seconds = 0.9;
        a.last_scheduled = Some(0);
        // a: 0.9 credit, b: 0.0 — b is behind.
        assert_eq!(wf.pick(&ctx(1, Some(0), None), &[a, b]), Some(1));
        b.sim_seconds = 0.9;
        b.last_scheduled = Some(1);
        // a: 0.9/1, b: 0.9/3 = 0.3 — weight keeps b ahead of its share.
        assert_eq!(wf.pick(&ctx(2, Some(1), None), &[a, b]), Some(1));
        b.sim_seconds = 3.0;
        // a: 0.9, b: 1.0 — now a is behind.
        assert_eq!(wf.pick(&ctx(3, Some(1), None), &[a, b]), Some(0));
        assert_eq!(wf.max_in_flight(), 1, "feedback policy settles each tick");
    }

    #[test]
    fn priority_is_strict_with_round_robin_inside_levels() {
        let mut p = Priority::new();
        let mut low = view(0, Pipeline::Mesh);
        low.priority = 0;
        let mut hi_a = view(1, Pipeline::Mlp);
        hi_a.priority = 7;
        let mut hi_b = view(2, Pipeline::Mlp);
        hi_b.priority = 7;
        assert_eq!(p.pick(&ctx(0, None, None), &[low, hi_a, hi_b]), Some(1));
        hi_a.last_scheduled = Some(0);
        assert_eq!(
            p.pick(&ctx(1, Some(1), None), &[low, hi_a, hi_b]),
            Some(2),
            "round-robin within the level"
        );
        hi_b.last_scheduled = Some(1);
        assert_eq!(p.pick(&ctx(2, Some(2), None), &[low, hi_a, hi_b]), Some(1));
        // Only when the level drains does the lower level run.
        assert_eq!(p.pick(&ctx(3, Some(1), None), &[low]), Some(0));
    }

    fn deadline_view(session: usize, pipeline: Pipeline, deadline: f64, now: f64) -> SessionView {
        SessionView {
            deadline: Some(deadline),
            slack: Some(deadline - now),
            ..view(session, pipeline)
        }
    }

    #[test]
    fn earliest_deadline_is_strict_with_id_tie_break() {
        let mut edf = EarliestDeadline::new();
        let views = [
            deadline_view(0, Pipeline::Mesh, 0.5, 0.0),
            deadline_view(1, Pipeline::Mlp, 0.2, 0.0),
            view(2, Pipeline::Mesh), // best-effort: behind every deadline
        ];
        assert_eq!(edf.pick(&ctx(0, None, None), &views), Some(1));
        // Equal deadlines and recency: the lower id wins.
        let tied = [
            deadline_view(3, Pipeline::Mesh, 0.2, 0.0),
            deadline_view(1, Pipeline::Mlp, 0.2, 0.0),
        ];
        assert_eq!(edf.pick(&ctx(1, None, None), &tied), Some(1));
        // Only best-effort sessions left: round-robin by recency.
        let mut a = view(4, Pipeline::Mesh);
        a.last_scheduled = Some(7);
        let b = view(5, Pipeline::Mlp);
        assert_eq!(edf.pick(&ctx(2, Some(4), None), &[a, b]), Some(5));
        assert_eq!(edf.max_in_flight(), 1, "EDF decides on settled slack");
    }

    #[test]
    fn cost_aware_extends_batches_only_while_the_saving_covers_the_slack_loss() {
        fn in_mesh_mode(model: Option<&SwitchCostModel>) -> PolicyContext<'_> {
            PolicyContext {
                tick: 4,
                last_session: Some(0),
                last_pipeline: Some(Pipeline::Mesh),
                now_seconds: 0.0,
                switch_costs: model,
                load: LoadView::default(),
            }
        }
        let mut ca = CostAware::new();
        // Batch session (mesh, mode we're in) has delivered frames at 0.4s
        // each; the urgent pick is an mlp session due soonest.
        let mut batch = deadline_view(0, Pipeline::Mesh, 10.0, 0.0);
        batch.delivered = 2;
        batch.sim_seconds = 0.8;
        let urgent = deadline_view(1, Pipeline::Mlp, 1.0, 0.0);
        let mut model = SwitchCostModel::seeded(1.0);
        // Saving 1.0 (seeded cross cost) vs zero slack loss (urgent has
        // 1.0s slack, delay is 0.4s): extend the batch.
        assert_eq!(
            ca.pick(&in_mesh_mode(Some(&model)), &[batch, urgent]),
            Some(0)
        );
        // Tight slack (0.1s < 0.4s delay -> 0.3s loss) beats a saving
        // shrunk to 0.2s: the batch breaks in favour of the urgent
        // session.
        let tight = deadline_view(1, Pipeline::Mlp, 0.1, 0.0);
        model.seed_pair(Pipeline::Mesh, Pipeline::Mlp, 0.2);
        assert_eq!(
            ca.pick(&in_mesh_mode(Some(&model)), &[batch, tight]),
            Some(1)
        );
        // No cost model (accelerator-less server): nothing to save, so
        // the urgent order rules.
        assert_eq!(ca.pick(&in_mesh_mode(None), &[batch, urgent]), Some(1));
        // When the urgent pick is already in the batch, it just runs.
        let urgent_mesh = deadline_view(2, Pipeline::Mesh, 0.5, 0.0);
        assert_eq!(
            ca.pick(&in_mesh_mode(Some(&model)), &[batch, urgent_mesh]),
            Some(2)
        );
        assert_eq!(ca.max_in_flight(), 1);
    }

    #[test]
    fn handles_are_ids() {
        let h = SessionHandle(3);
        assert_eq!(h.id(), 3);
        assert_eq!(usize::from(h), 3);
        assert_eq!(h.to_string(), "session#3");
    }
}
