//! Multi-scene serving: a fleet of per-scene [`RenderServer`] shards
//! behind deterministic routing, a capacity-bounded scene cache, and
//! live session migration.
//!
//! Every server so far serves exactly one `Arc<BakedScene>`; production
//! traffic spans many scenes. A [`ServerFleet`] routes each
//! [`FleetSessionRequest`] to the shard owning its scene — by
//! [`SceneKey`] (a stable content-derived identity, hashed with FNV-1a),
//! never by pointer identity — bakes scenes on demand behind a
//! [`SceneCache`](crate::SceneCache) with a `max_resident` /
//! byte-budget capacity bound, and accounts everything (per-shard
//! [`uni_microops::ServerSummary`] roll-ups, bake/rebake/eviction cost,
//! migration outcomes) in a [`FleetSummary`].
//!
//! Three fleet-level properties extend the server's determinism
//! contract:
//!
//! 1. **Sharding is invisible.** Each session's delivered frames are
//!    bit-identical to the shard's renderer drawing the same path on the
//!    same scene through `Renderer::render_into`, at any
//!    `UNI_RENDER_THREADS` — the
//!    fleet only interleaves shard delivery (by a deterministic cyclic
//!    cursor), it never alters what a shard delivers.
//! 2. **Eviction is a schedule fact.** The cache evicts the resident
//!    scene with the least-recently-*delivered* fleet slot (ties by key
//!    order) — the fleet's delivered-frame counter, never a wall clock
//!    (uni-lint R4/R9 hold here) — so the eviction sequence, and hence
//!    every bake/rebake, is a pure function of the delivered schedule.
//!    A rebaked scene is bit-identical to its first bake (baking is
//!    seeded purely from the spec), so evict-then-rebake round-trips
//!    the served stream exactly.
//! 3. **Migration is a permutation.** [`ServerFleet::migrate`] drains
//!    the session on its source shard at the deterministic churn slot
//!    (delivered count + dispatch window, via the server's staged-close
//!    machinery), then re-admits the remaining path suffix on the
//!    target shard through [`RenderServer::try_admit`] — admission
//!    control spans shards. When source and target scenes bake
//!    identically, the migrated session's delivered frames are a
//!    bit-identical permutation of the unmigrated stream. A session
//!    closed while its migration is staged cancels cleanly: the suffix
//!    is never admitted, so the target summary carries no ghost slot.

use std::collections::{BTreeMap, BTreeSet};

use uni_core::{Accelerator, AcceleratorConfig};
use uni_geometry::Image;
use uni_microops::{FleetCacheStats, FleetSummary, SessionStats, ShardSummary};
use uni_renderers::Renderer;
use uni_scene::SceneSpec;

use crate::path::CameraPath;
use crate::scene_cache::{SceneCache, SceneCacheConfig, SceneKey};
use crate::sched::{SchedulePolicy, SessionHandle};
use crate::server::{
    AdmissionControl, AdmitDecision, DegradePolicy, RenderServer, ServedFrame, SessionRequest,
};

/// Builds a fresh renderer for a session segment. Migration needs to
/// *re*-construct the session's pipeline on the target shard, so fleet
/// requests carry a factory instead of a one-shot boxed renderer.
pub type RendererFactory = Box<dyn Fn() -> Box<dyn Renderer + Send> + Send>;

/// Builds a fresh [`SchedulePolicy`] per shard server (every shard runs
/// its own scheduler instance; feedback policies carry state and cannot
/// be shared).
pub type PolicyFactory = Box<dyn Fn() -> Box<dyn SchedulePolicy>>;

/// One camera stream a [`ServerFleet`] should serve: a renderer
/// factory, a camera path, and the same scheduling attributes as a
/// [`SessionRequest`]. The fleet keeps the request as the session's
/// blueprint so a migration can rebuild the remaining suffix on another
/// shard.
pub struct FleetSessionRequest {
    factory: RendererFactory,
    path: CameraPath,
    weight: u32,
    priority: u8,
    deadline_hz: Option<f64>,
    label: Option<String>,
}

impl FleetSessionRequest {
    /// Bundles a renderer factory and a path with default scheduling
    /// attributes (weight 1, priority 0, best-effort, unlabelled).
    pub fn new(
        factory: impl Fn() -> Box<dyn Renderer + Send> + Send + 'static,
        path: CameraPath,
    ) -> Self {
        Self {
            factory: Box::new(factory),
            path,
            weight: 1,
            priority: 0,
            deadline_hz: None,
            label: None,
        }
    }

    /// Sets the fair-share weight (clamped to ≥ 1), as
    /// [`SessionRequest::weight`].
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the priority level (higher wins), as
    /// [`SessionRequest::priority`].
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Declares a per-frame sim-time deadline rate, as
    /// [`SessionRequest::deadline_hz`] (non-finite or non-positive
    /// rates keep the session best-effort).
    pub fn deadline_hz(mut self, hz: f64) -> Self {
        self.deadline_hz = (hz.is_finite() && hz > 0.0).then_some(hz);
        self
    }

    /// Attaches a human-readable label.
    pub fn label(mut self, label: &str) -> Self {
        self.label = Some(label.to_string());
        self
    }

    /// Frames on the session's full path.
    fn path_len(&self) -> usize {
        self.path.len()
    }

    /// A server request for the path segment starting at `start`:
    /// frame `i` of the segment is bit-identical to frame `start + i`
    /// of the full path.
    fn request_from(&self, start: usize) -> SessionRequest {
        let path = if start == 0 {
            self.path.clone()
        } else {
            self.path.suffix(start)
        };
        let mut request = SessionRequest::new((self.factory)(), path)
            .weight(self.weight)
            .priority(self.priority);
        if let Some(hz) = self.deadline_hz {
            request = request.deadline_hz(hz);
        }
        if let Some(label) = &self.label {
            request = request.label(label);
        }
        request
    }
}

/// Typed handle of a fleet session. Stable across migrations: the
/// handle a session was admitted with keeps identifying it after it
/// moves to another shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FleetHandle(usize);

impl FleetHandle {
    /// The dense fleet-wide session id.
    pub fn id(&self) -> usize {
        self.0
    }
}

/// [`AdmitDecision`] with fleet handles: what admission control decided
/// for a [`ServerFleet::try_admit`] request on the scene's shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetAdmitDecision {
    /// Admitted on the scene's shard.
    Admitted(FleetHandle),
    /// Queued on the scene's shard, activating at that *shard's*
    /// delivered-frame slot `activates_at`.
    Queued {
        /// Handle of the queued session.
        handle: FleetHandle,
        /// Shard-local delivered-frame slot the session activates at.
        activates_at: usize,
    },
    /// Refused by the shard's admission control — no session exists.
    Refused {
        /// Predicted per-round slack had the request been admitted.
        predicted_slack: f64,
    },
}

impl FleetAdmitDecision {
    /// The fleet handle, unless the request was refused.
    pub fn handle(&self) -> Option<FleetHandle> {
        match self {
            Self::Admitted(handle) => Some(*handle),
            Self::Queued { handle, .. } => Some(*handle),
            Self::Refused { .. } => None,
        }
    }
}

/// One delivered frame of a fleet schedule.
#[derive(Debug)]
pub struct FleetFrame {
    /// The owning fleet session.
    pub handle: FleetHandle,
    /// Key of the scene the frame was rendered from.
    pub scene: SceneKey,
    /// Index of the delivering shard (registration order).
    pub shard: usize,
    /// The frame's position on the session's *original* path. For a
    /// never-migrated session this equals `frame.report.index`; after a
    /// migration the segment offset is added back, so consumers see one
    /// uninterrupted index space.
    pub path_index: usize,
    /// The shard's delivered frame. `frame.report.index` is
    /// segment-relative; `frame.session` is the shard-local session id.
    pub frame: ServedFrame,
}

/// Fleet-level lifecycle of a session.
enum Phase {
    /// Serving (or drained) on its current shard.
    Live,
    /// Close staged on the source shard; the remaining suffix re-admits
    /// on `target` once the source segment drains.
    Migrating { target: usize },
    /// Nothing left to do for this session at the fleet level (its
    /// migration completed with an empty remainder, was cancelled, or
    /// was refused by the target shard).
    Settled,
}

/// One fleet session: where it currently lives and how to rebuild it.
struct FleetSession {
    shard: usize,
    /// Residency generation of `shard` the session belongs to (index
    /// into the shard's retired summaries once evicted).
    generation: usize,
    inner: SessionHandle,
    /// Index on the original path where the current segment starts.
    offset: usize,
    blueprint: FleetSessionRequest,
    phase: Phase,
}

/// One per-scene shard: the scene's identity, its live server (present
/// exactly while the scene is resident), and the summaries of evicted
/// residency generations.
struct Shard {
    key: SceneKey,
    spec: SceneSpec,
    server: Option<RenderServer>,
    /// Summaries of evicted server generations, oldest first.
    retired: Vec<uni_microops::ServerSummary>,
    /// Shard-local session id → fleet session id, current generation.
    inner_to_fleet: Vec<usize>,
}

/// A fleet of per-scene [`RenderServer`] shards with deterministic
/// routing, capacity-bounded scene residency, and live migration. See
/// the [module docs](self) for the contract.
pub struct ServerFleet {
    cache: SceneCache,
    shards: Vec<Shard>,
    /// Routing table: FNV-1a scene hash → shard indices (a bucket list
    /// keeps hash collisions harmless — full keys disambiguate).
    routes: BTreeMap<u64, Vec<usize>>,
    sessions: Vec<FleetSession>,
    /// Cyclic delivery cursor over shards.
    cursor: usize,
    /// The fleet's delivered-slot clock: total frames delivered. Drives
    /// cache recency — never a wall clock.
    slot: u64,
    migrations: u64,
    migrations_completed: u64,
    migrations_cancelled: u64,
    migrations_refused: u64,
    // Per-shard server construction knobs.
    accelerator: Option<AcceleratorConfig>,
    policy_factory: Option<PolicyFactory>,
    lanes: Option<usize>,
    lookahead: Option<usize>,
    admission: Option<AdmissionControl>,
    degradation: Option<DegradePolicy>,
}

impl ServerFleet {
    /// An empty fleet with the given scene-cache capacity.
    pub fn new(cache: SceneCacheConfig) -> Self {
        Self {
            cache: SceneCache::new(cache),
            shards: Vec::new(),
            routes: BTreeMap::new(),
            sessions: Vec::new(),
            cursor: 0,
            slot: 0,
            migrations: 0,
            migrations_completed: 0,
            migrations_cancelled: 0,
            migrations_refused: 0,
            accelerator: None,
            policy_factory: None,
            lanes: None,
            lookahead: None,
            admission: None,
            degradation: None,
        }
    }

    /// Gives every shard server a simulated accelerator built from
    /// `config` (each shard gets its own instance).
    pub fn with_accelerator_config(mut self, config: AcceleratorConfig) -> Self {
        self.accelerator = Some(config);
        self
    }

    /// Sets the scheduling policy of every shard server via a factory
    /// (each shard runs its own policy instance).
    pub fn with_policy_factory(
        mut self,
        factory: impl Fn() -> Box<dyn SchedulePolicy> + 'static,
    ) -> Self {
        self.policy_factory = Some(Box::new(factory));
        self
    }

    /// Sets the worker-lane count of every shard server.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes);
        self
    }

    /// Sets the dispatch lookahead of every shard server.
    pub fn with_lookahead(mut self, lookahead: usize) -> Self {
        self.lookahead = Some(lookahead);
        self
    }

    /// Arms admission control on every shard server —
    /// [`ServerFleet::try_admit`] and migration re-admission both pass
    /// through it, so feasibility prediction spans shards.
    pub fn with_admission_control(mut self, control: AdmissionControl) -> Self {
        self.admission = Some(control);
        self
    }

    /// Arms graceful degradation on every shard server.
    pub fn with_degradation(mut self, policy: DegradePolicy) -> Self {
        self.degradation = Some(policy);
        self
    }

    /// Registers a scene (idempotent) and returns its routing key. A
    /// registered scene has a shard but costs nothing until a session
    /// needs it baked.
    pub fn register(&mut self, spec: &SceneSpec) -> SceneKey {
        let idx = self.register_spec(spec);
        self.shards[idx].key.clone()
    }

    /// The shard index a scene key routes to, if registered.
    pub fn shard_of(&self, key: &SceneKey) -> Option<usize> {
        self.routes
            .get(&key.route_hash())
            .and_then(|bucket| bucket.iter().copied().find(|&i| self.shards[i].key == *key))
    }

    /// Admits a session on its scene's shard unconditionally (the
    /// [`RenderServer::admit`] path: no feasibility check). Bakes the
    /// scene if it is not resident, evicting per the cache policy.
    pub fn admit(&mut self, spec: &SceneSpec, request: FleetSessionRequest) -> FleetHandle {
        let shard_idx = self.register_spec(spec);
        self.ensure_server(shard_idx);
        let inner = self.shards[shard_idx]
            .server
            .as_mut()
            .expect("ensure_server built the shard server")
            .admit(request.request_from(0));
        self.bind(shard_idx, inner, request)
    }

    /// Admits a session through its shard's admission control (the
    /// [`RenderServer::try_admit`] path). Refused requests leave no
    /// session behind — and no scene residency is spent on them beyond
    /// the bake the feasibility check itself required.
    pub fn try_admit(
        &mut self,
        spec: &SceneSpec,
        request: FleetSessionRequest,
    ) -> FleetAdmitDecision {
        let shard_idx = self.register_spec(spec);
        self.ensure_server(shard_idx);
        let decision = self.shards[shard_idx]
            .server
            .as_mut()
            .expect("ensure_server built the shard server")
            .try_admit(request.request_from(0));
        match decision {
            AdmitDecision::Admitted(inner) => {
                FleetAdmitDecision::Admitted(self.bind(shard_idx, inner, request))
            }
            AdmitDecision::Queued {
                handle: inner,
                activates_at,
            } => FleetAdmitDecision::Queued {
                handle: self.bind(shard_idx, inner, request),
                activates_at,
            },
            AdmitDecision::Refused { predicted_slack } => {
                FleetAdmitDecision::Refused { predicted_slack }
            }
        }
    }

    /// Closes a fleet session early, at its shard's deterministic churn
    /// slot. Closing a session whose migration is still staged cancels
    /// the migration: the source close (already staged by
    /// [`ServerFleet::migrate`]) stands, and the suffix is never
    /// re-admitted — the target shard keeps no ghost slot.
    pub fn close(&mut self, handle: FleetHandle) -> bool {
        let Some(session) = self.sessions.get(handle.0) else {
            return false;
        };
        match session.phase {
            Phase::Settled => false,
            Phase::Migrating { .. } => {
                self.sessions[handle.0].phase = Phase::Settled;
                self.migrations_cancelled += 1;
                true
            }
            Phase::Live => {
                let shard = session.shard;
                let inner = session.inner;
                if session.generation != self.shards[shard].retired.len() {
                    return false;
                }
                self.shards[shard]
                    .server
                    .as_mut()
                    .is_some_and(|server| server.close(inner))
            }
        }
    }

    /// Stages a live migration: the session drains on its source shard
    /// at the deterministic churn slot (delivered count + dispatch
    /// window, via [`RenderServer::close`]), then its remaining path
    /// suffix re-admits on `target`'s shard through
    /// [`RenderServer::try_admit`]. The hand-off happens inside
    /// [`ServerFleet::next_frame`] at the drain point — a pure function
    /// of the delivered schedule.
    ///
    /// Returns `false` — staging nothing — when the handle is unknown
    /// or already settled/migrating, the target is the session's own
    /// scene, or the source has every frame scheduled already (nothing
    /// left to move).
    pub fn migrate(&mut self, handle: FleetHandle, target: &SceneSpec) -> bool {
        let target_idx = self.register_spec(target);
        let Some(session) = self.sessions.get(handle.0) else {
            return false;
        };
        if !matches!(session.phase, Phase::Live) {
            return false;
        }
        let source = session.shard;
        let inner = session.inner;
        if source == target_idx || session.generation != self.shards[source].retired.len() {
            return false;
        }
        let staged = self.shards[source]
            .server
            .as_mut()
            .is_some_and(|server| server.close(inner));
        if !staged {
            return false;
        }
        self.sessions[handle.0].phase = Phase::Migrating { target: target_idx };
        self.migrations += 1;
        true
    }

    /// Delivers the next frame of the fleet schedule, sweeping shards
    /// from a cyclic cursor (each delivery advances the cursor past its
    /// shard, so shards with work interleave fairly and
    /// deterministically). Migration hand-offs are finalized between
    /// deliveries — at drain points, never mid-flight. `None` when every
    /// shard is drained and no hand-off remains.
    pub fn next_frame(&mut self) -> Option<FleetFrame> {
        if self.shards.is_empty() {
            return None;
        }
        loop {
            let progressed = self.finalize_migrations();
            let shard_count = self.shards.len();
            let mut delivered = None;
            for probe in 0..shard_count {
                let idx = (self.cursor + probe) % shard_count;
                let Some(server) = self.shards[idx].server.as_mut() else {
                    continue;
                };
                if server.is_drained() {
                    continue;
                }
                if let Some(frame) = server.next_frame() {
                    self.cursor = (idx + 1) % shard_count;
                    delivered = Some((idx, frame));
                    break;
                }
            }
            let Some((idx, frame)) = delivered else {
                // Nothing delivered: the sweep may still have applied
                // staged drains, unblocking a hand-off. Retry while the
                // finalizer makes progress; otherwise the fleet is done.
                if progressed || self.finalize_migrations() {
                    continue;
                }
                return None;
            };
            self.slot += 1;
            let key = self.shards[idx].key.clone();
            self.cache.touch(&key, self.slot);
            let fleet_id = self.shards[idx].inner_to_fleet[frame.session];
            let path_index = self.sessions[fleet_id].offset + frame.report.index;
            return Some(FleetFrame {
                handle: FleetHandle(fleet_id),
                scene: key,
                shard: idx,
                path_index,
                frame,
            });
        }
    }

    /// Returns a delivered frame's buffer to its session's pool on its
    /// current shard, as [`RenderServer::recycle`]. `false` once the
    /// session's generation was retired (the pool is gone with it).
    pub fn recycle(&mut self, handle: FleetHandle, image: Image) -> bool {
        let Some(session) = self.sessions.get(handle.0) else {
            return false;
        };
        let shard = session.shard;
        if session.generation != self.shards[shard].retired.len() {
            return false;
        }
        let inner = session.inner.id();
        self.shards[shard]
            .server
            .as_mut()
            .is_some_and(|server| server.recycle(inner, image))
    }

    /// Serves every remaining frame (recycling buffers) and returns the
    /// fleet summary.
    pub fn run(&mut self) -> FleetSummary {
        while let Some(frame) = self.next_frame() {
            let handle = frame.handle;
            self.recycle(handle, frame.frame.report.image);
        }
        self.summary()
    }

    /// The fleet-wide account: per-shard summaries (one
    /// [`uni_microops::ServerSummary`] per residency generation), the
    /// delivered-slot clock, cache counters, and migration outcomes.
    pub fn summary(&self) -> FleetSummary {
        let shards: Vec<ShardSummary> = self
            .shards
            .iter()
            .map(|shard| ShardSummary {
                scene: shard.key.as_str().to_string(),
                route_hash: shard.key.route_hash(),
                servers: shard
                    .retired
                    .iter()
                    .cloned()
                    .chain(shard.server.as_ref().map(|s| s.summary()))
                    .collect(),
            })
            .collect();
        let deadline_misses = shards.iter().map(|s| s.deadline_misses()).sum();
        FleetSummary {
            delivered_frames: self.slot as usize,
            deadline_misses,
            cache: self.cache.stats(),
            migrations: self.migrations,
            migrations_completed: self.migrations_completed,
            migrations_cancelled: self.migrations_cancelled,
            migrations_refused: self.migrations_refused,
            shards,
        }
    }

    /// Stats of the session's *current* segment (after a migration,
    /// earlier segments live in the source shard's summary). `None` for
    /// unknown handles or retired generations whose record is gone.
    pub fn session_stats(&self, handle: FleetHandle) -> Option<SessionStats> {
        let session = self.sessions.get(handle.0)?;
        self.segment_stats(session.shard, session.generation, session.inner)
    }

    /// Scene-cache counters.
    pub fn cache_stats(&self) -> FleetCacheStats {
        self.cache.stats()
    }

    /// Registered shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Fleet sessions ever admitted (refused requests never count).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Frames delivered so far — the fleet's schedule clock.
    pub fn delivered(&self) -> u64 {
        self.slot
    }

    /// Looks up or creates the shard owning `spec`'s scene.
    fn register_spec(&mut self, spec: &SceneSpec) -> usize {
        let key = SceneKey::of(spec);
        let hash = key.route_hash();
        if let Some(bucket) = self.routes.get(&hash) {
            for &idx in bucket {
                if self.shards[idx].key == key {
                    return idx;
                }
            }
        }
        let idx = self.shards.len();
        self.shards.push(Shard {
            key,
            spec: spec.clone(),
            server: None,
            retired: Vec::new(),
            inner_to_fleet: Vec::new(),
        });
        self.routes.entry(hash).or_default().push(idx);
        idx
    }

    /// Makes the shard's scene resident and its server live, evicting
    /// per the cache policy afterwards (the just-ensured scene and every
    /// scene with undrained sessions are pinned).
    fn ensure_server(&mut self, shard_idx: usize) {
        let key = self.shards[shard_idx].key.clone();
        let spec = self.shards[shard_idx].spec.clone();
        if self.shards[shard_idx].server.is_some() {
            // Already resident: count the hit and refresh recency — an
            // admit is a use of the scene just like a delivery.
            self.cache.acquire(&key, &spec, self.slot);
            return;
        }
        let scene = self.cache.acquire(&key, &spec, self.slot);
        let mut server = RenderServer::new(scene);
        if let Some(config) = self.accelerator {
            server = server.with_accelerator(Accelerator::new(config));
        }
        if let Some(factory) = &self.policy_factory {
            server = server.with_policy(factory());
        }
        if let Some(lanes) = self.lanes {
            server = server.with_lanes(lanes);
        }
        if let Some(lookahead) = self.lookahead {
            server = server.with_lookahead(lookahead);
        }
        if let Some(control) = self.admission {
            server = server.with_admission_control(control);
        }
        if let Some(policy) = self.degradation {
            server = server.with_degradation(policy);
        }
        self.shards[shard_idx].server = Some(server);
        self.shards[shard_idx].inner_to_fleet.clear();
        self.enforce_capacity(shard_idx);
    }

    /// Evicts least-recently-delivered residents until the cache fits
    /// its budget, retiring each victim shard's server into its summary
    /// history. Pinned (undrained or just-ensured) scenes are never
    /// evicted — residency may transiently exceed the budget when every
    /// resident is pinned by live sessions.
    fn enforce_capacity(&mut self, protect: usize) {
        while self.cache.over_capacity() {
            let mut pinned: BTreeSet<SceneKey> = BTreeSet::new();
            pinned.insert(self.shards[protect].key.clone());
            for shard in &self.shards {
                if shard.server.as_ref().is_some_and(|s| !s.is_drained()) {
                    pinned.insert(shard.key.clone());
                }
            }
            let Some(victim) = self.cache.evict_candidate(&pinned) else {
                break;
            };
            self.cache.evict(&victim);
            if let Some(idx) = self.shard_of(&victim) {
                if let Some(server) = self.shards[idx].server.take() {
                    self.shards[idx].retired.push(server.summary());
                    self.shards[idx].inner_to_fleet.clear();
                }
            }
        }
    }

    /// Finalizes every staged migration whose source segment has
    /// drained: computes the consumed prefix (delivered + skipped — a
    /// schedule fact), then re-admits the remaining suffix on the target
    /// shard through its admission control. Returns whether any
    /// migration advanced.
    fn finalize_migrations(&mut self) -> bool {
        let mut progress = false;
        for sid in 0..self.sessions.len() {
            let Phase::Migrating { target } = self.sessions[sid].phase else {
                continue;
            };
            let source = self.sessions[sid].shard;
            let generation = self.sessions[sid].generation;
            let inner = self.sessions[sid].inner;
            let drained = if generation == self.shards[source].retired.len() {
                self.shards[source]
                    .server
                    .as_ref()
                    .is_none_or(|server| server.session_drained(inner))
            } else {
                // The generation was retired — everything in it settled.
                true
            };
            if !drained {
                continue;
            }
            progress = true;
            let consumed = self
                .segment_stats(source, generation, inner)
                .map_or(0, |s| s.frames + s.frames_skipped as usize);
            let next_index = self.sessions[sid].offset + consumed;
            if next_index >= self.sessions[sid].blueprint.path_len() {
                // The source segment drained the whole path: the
                // migration completes with nothing left to move.
                self.sessions[sid].phase = Phase::Settled;
                self.migrations_completed += 1;
                continue;
            }
            self.ensure_server(target);
            let request = self.sessions[sid].blueprint.request_from(next_index);
            let decision = self.shards[target]
                .server
                .as_mut()
                .expect("ensure_server built the shard server")
                .try_admit(request);
            match decision {
                AdmitDecision::Admitted(handle) | AdmitDecision::Queued { handle, .. } => {
                    let map = &mut self.shards[target].inner_to_fleet;
                    if map.len() <= handle.id() {
                        map.resize(handle.id() + 1, usize::MAX);
                    }
                    map[handle.id()] = sid;
                    let generation = self.shards[target].retired.len();
                    let session = &mut self.sessions[sid];
                    session.shard = target;
                    session.generation = generation;
                    session.inner = handle;
                    session.offset = next_index;
                    session.phase = Phase::Live;
                    self.migrations_completed += 1;
                }
                AdmitDecision::Refused { .. } => {
                    self.sessions[sid].phase = Phase::Settled;
                    self.migrations_refused += 1;
                }
            }
        }
        progress
    }

    /// Binds a freshly admitted shard session to a new fleet session.
    fn bind(
        &mut self,
        shard_idx: usize,
        inner: SessionHandle,
        blueprint: FleetSessionRequest,
    ) -> FleetHandle {
        let fleet_id = self.sessions.len();
        let shard = &mut self.shards[shard_idx];
        if shard.inner_to_fleet.len() <= inner.id() {
            shard.inner_to_fleet.resize(inner.id() + 1, usize::MAX);
        }
        shard.inner_to_fleet[inner.id()] = fleet_id;
        self.sessions.push(FleetSession {
            shard: shard_idx,
            generation: shard.retired.len(),
            inner,
            offset: 0,
            blueprint,
            phase: Phase::Live,
        });
        FleetHandle(fleet_id)
    }

    /// A segment's stats, whether its generation is live or retired.
    fn segment_stats(
        &self,
        shard: usize,
        generation: usize,
        inner: SessionHandle,
    ) -> Option<SessionStats> {
        let shard = &self.shards[shard];
        if generation == shard.retired.len() {
            shard
                .server
                .as_ref()
                .and_then(|server| server.session_stats(inner))
        } else {
            shard
                .retired
                .get(generation)
                .and_then(|summary| summary.session(inner.id()).cloned())
        }
    }
}
