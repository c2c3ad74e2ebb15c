//! Band parallelism for the render hot paths.
//!
//! The functional pipelines process images in horizontal *bands* (whole
//! scanlines, or rows of 16×16 tiles). Bands touch disjoint slices of the
//! row-major pixel buffer, so they parallelize without locks: each worker
//! takes ownership of distinct `&mut` chunks via `chunks_mut` and the
//! results are bitwise independent of the thread count.
//!
//! Fan-outs run on a process-wide pool of parked helper threads that
//! starts on first use and persists across frames, so a frame pays
//! neither thread spawn nor join; the calling thread claims bands
//! alongside the helpers. The hermetic build environment has no rayon,
//! and band-granularity work needs nothing fancier. With one worker (one
//! available core, `UNI_RENDER_THREADS=1` or `set_worker_count(Some(1))`)
//! everything runs serially on the calling thread; callers keep a single
//! code path either way.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// A type-erased job a [`LanePool`] worker executes.
type LaneJob = Box<dyn FnOnce() + Send + 'static>;

/// A handle to one submitted [`LanePool`] job's result.
///
/// [`Ticket::wait`] blocks until the job has run on its lane (or returns
/// immediately when the pool executes inline).
#[derive(Debug)]
pub struct Ticket<R> {
    inner: TicketInner<R>,
}

#[derive(Debug)]
enum TicketInner<R> {
    /// The job already ran on the submitting thread (inline pool).
    Ready(R),
    /// The job runs on a lane; the result (or the job's panic payload)
    /// arrives on this channel, tagged with where the job was placed so
    /// a failure names its lane and — for [`LanePool::submit_at`] — the
    /// schedule tick that put it there.
    Pending {
        rx: mpsc::Receiver<Result<R, String>>,
        lane: usize,
        tick: Option<u64>,
    },
}

/// Renders a caught panic payload for re-raising with provenance.
fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<R> Ticket<R> {
    /// Blocks until the job's result is available.
    ///
    /// # Panics
    ///
    /// Panics if the job itself panicked on its lane (the lane survives;
    /// the ticket carries the failure). The message names the lane the
    /// job ran on, the schedule tick that placed it there (for
    /// [`LanePool::submit_at`] submissions), and the original panic
    /// payload, so a failing frame in a many-lane server is attributable
    /// from the panic alone. Inline pools run jobs at submit time on the
    /// calling thread, where the original panic propagates directly.
    pub fn wait(self) -> R {
        match self.inner {
            TicketInner::Ready(r) => r,
            TicketInner::Pending { rx, lane, tick } => match rx.recv() {
                Ok(Ok(r)) => r,
                Ok(Err(payload)) => match tick {
                    Some(t) => {
                        panic!("job on lane {lane} (scheduled tick {t}) panicked: {payload}")
                    }
                    None => panic!("job on lane {lane} panicked: {payload}"),
                },
                Err(_) => match tick {
                    Some(t) => panic!(
                        "job on lane {lane} (scheduled tick {t}) was lost: \
                         the lane dropped the result channel without reporting"
                    ),
                    None => panic!(
                        "job on lane {lane} was lost: \
                         the lane dropped the result channel without reporting"
                    ),
                },
            },
        }
    }
}

/// A pool of *persistent* worker lanes.
///
/// Where [`par_bands`] / [`par_indices`] split one call's indices over
/// a shared pool of helpers, a `LanePool` owns its workers, one per
/// lane, alive across submissions — the primitive long-lived frame
/// servers schedule onto. Jobs are submitted to
/// an explicit lane index; each lane executes its jobs in FIFO order, and
/// distinct lanes run concurrently. Results come back through [`Ticket`]s,
/// so a caller that submits in a deterministic order and waits in that
/// same order observes results independent of execution timing.
///
/// With one worker (see [`worker_count`]) or with `lanes <= 1`, the pool
/// is *inline*: `submit` runs the job on the calling thread and the
/// ticket is immediately ready. Callers keep a single code path either
/// way.
#[derive(Debug)]
pub struct LanePool {
    lanes: Vec<Lane>,
}

#[derive(Debug)]
struct Lane {
    tx: Option<mpsc::Sender<LaneJob>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl LanePool {
    /// Creates a pool of `lanes` persistent workers.
    ///
    /// Requests are clamped to at least one lane. The pool degenerates to
    /// inline execution on one worker (see type docs).
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        if !is_parallel() || lanes == 1 {
            return Self { lanes: Vec::new() };
        }
        Self::start_workers(lanes)
    }

    fn start_workers(lanes: usize) -> Self {
        let lanes = (0..lanes)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<LaneJob>();
                let handle = std::thread::Builder::new()
                    .name(format!("uni-lane-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            // A panicking job must not take the lane down
                            // with it: the submit wrapper catches the
                            // unwind and ships the payload through the
                            // ticket channel, so later jobs on this lane
                            // still run and the failure surfaces — with
                            // lane/tick provenance — at the job's own
                            // `Ticket::wait`. This outer catch is a
                            // backstop for panics outside that wrapper.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn lane worker");
                Lane {
                    tx: Some(tx),
                    handle: Some(handle),
                }
            })
            .collect();
        Self { lanes }
    }

    /// Number of lanes jobs can be submitted to (1 when inline).
    pub fn lanes(&self) -> usize {
        self.lanes.len().max(1)
    }

    /// Submits `job` to lane `lane % self.lanes()` and returns a ticket
    /// for its result. Jobs on the same lane run in submission order.
    pub fn submit<R, F>(&self, lane: usize, job: F) -> Ticket<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.submit_inner(lane, None, job)
    }

    fn submit_inner<R, F>(&self, lane: usize, tick: Option<u64>, job: F) -> Ticket<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        if self.lanes.is_empty() {
            return Ticket {
                inner: TicketInner::Ready(job()),
            };
        }
        let lane = lane % self.lanes.len();
        let (tx, rx) = mpsc::channel();
        self.lanes[lane]
            .tx
            .as_ref()
            .expect("lane open while pool is alive")
            .send(Box::new(move || {
                // Catch the job's unwind so its panic payload travels
                // through the ticket (re-raised with lane/tick provenance
                // at `wait`) instead of dying with the channel. Receiver
                // may be dropped (caller abandoned the ticket) —
                // discarding the result is fine then.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
                    .map_err(|p| panic_payload_text(p.as_ref()));
                let _ = tx.send(result);
            }))
            .expect("lane worker alive while pool is alive");
        Ticket {
            inner: TicketInner::Pending { rx, lane, tick },
        }
    }

    /// Submits `job` at schedule slot `tick`: the lane is
    /// `tick % self.lanes()`, so lane assignment is a pure function of
    /// the *schedule order*, never of submission timing or arrival
    /// interleaving. Frame servers use this so the lane a frame runs on —
    /// and therefore per-lane FIFO ordering — is reproducible from the
    /// schedule alone at any thread count.
    pub fn submit_at<R, F>(&self, tick: u64, job: F) -> Ticket<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.submit_inner((tick % self.lanes() as u64) as usize, Some(tick), job)
    }
}

impl Drop for LanePool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop; joining
        // guarantees no lane outlives the pool.
        for lane in &mut self.lanes {
            lane.tx.take();
        }
        for lane in &mut self.lanes {
            if let Some(handle) = lane.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// One band's work slot: the chunk a worker claims (exactly once).
type BandCell<'a, T> = std::sync::Mutex<Option<&'a mut [T]>>;

/// Process-wide worker-count pin; `0` means "no pin, consult the
/// environment". See [`set_worker_count`].
static WORKER_PIN: AtomicUsize = AtomicUsize::new(0);

/// Pins [`worker_count`] process-wide, bypassing `UNI_RENDER_THREADS`.
///
/// `None` restores environment-driven detection. Returns the previous
/// pin so scoped callers can restore it. Two reasons to pin instead of
/// setting the variable: mutating the environment is unsound in a
/// threaded process, and reading it back allocates — a pinned count
/// keeps [`worker_count`] off the allocator entirely, which the
/// zero-steady-state-allocation harness measures per frame.
pub fn set_worker_count(workers: Option<usize>) -> Option<usize> {
    let raw = workers.map_or(0, |n| n.max(1));
    let prev = WORKER_PIN.swap(raw, Ordering::SeqCst);
    (prev != 0).then_some(prev)
}

/// Hardware parallelism, detected on first use: the lookup re-reads the
/// cgroup files on every call (21–26 µs on a 2-core Linux host), far too
/// slow for once per fan-out.
static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();

/// Worker count the band helpers will use.
///
/// A [`set_worker_count`] pin wins; otherwise `UNI_RENDER_THREADS`
/// overrides detection. The variable is read on every call, so a
/// process may change it between fan-outs; the hardware count is
/// detected once per process.
pub fn worker_count() -> usize {
    let pinned = WORKER_PIN.load(Ordering::SeqCst);
    if pinned != 0 {
        return pinned;
    }
    if let Ok(v) = std::env::var("UNI_RENDER_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    *HARDWARE_THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Whether fan-outs will actually run on more than one thread.
pub fn is_parallel() -> bool {
    worker_count() > 1
}

/// Splits `data` into consecutive chunks of `band_len` elements (the last
/// may be shorter) and runs `f(band_index, chunk)` for every band,
/// returning the per-band results in band order.
///
/// Bands are claimed from a shared counter, so heterogeneous band costs
/// load-balance across workers. With one worker this degenerates to a
/// plain serial loop on the calling thread.
///
/// # Panics
///
/// Panics if `band_len == 0` while `data` is nonempty, or if a worker
/// panics (the panic is propagated).
pub fn par_bands<T, R, F>(data: &mut [T], band_len: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    if data.is_empty() {
        return Vec::new();
    }
    assert!(band_len > 0, "band_len must be positive");
    let n_bands = data.len().div_ceil(band_len);
    let workers = worker_count().min(n_bands);

    if workers <= 1 {
        return data
            .chunks_mut(band_len)
            .enumerate()
            .map(|(i, chunk)| f(i, chunk))
            .collect();
    }

    // Hand each band's `&mut` chunk to exactly one worker through a slot
    // vector; a claimed index takes its chunk out of the cell exactly
    // once, so band execution never holds a lock.
    let slot_cells: Vec<BandCell<'_, T>> = data
        .chunks_mut(band_len)
        .map(|chunk| std::sync::Mutex::new(Some(chunk)))
        .collect();
    run_pool(n_bands, workers, |i| {
        let chunk = slot_cells[i]
            .lock()
            .expect("band slot poisoned")
            .take()
            .expect("band claimed once");
        f(i, chunk)
    })
}

/// [`par_bands`] folded in band order: `merge(acc, band_result)` over
/// every band, starting from `init`.
///
/// Callers that only need an aggregate (stats merged across bands) use
/// this instead of collecting per-band results. With one worker the
/// whole call runs on the calling thread without touching the allocator
/// — the backbone of the zero-steady-state-allocation contract. With
/// more workers the per-band results are still merged in band order, so
/// any merge (associative or not) yields results bit-identical to the
/// serial path.
///
/// # Panics
///
/// Panics if `band_len == 0` while `data` is nonempty, or if a worker
/// panics (the panic is propagated).
pub fn par_bands_fold<T, R, A, F, M>(
    data: &mut [T],
    band_len: usize,
    init: A,
    f: F,
    mut merge: M,
) -> A
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
    M: FnMut(A, R) -> A,
{
    if data.is_empty() {
        return init;
    }
    assert!(band_len > 0, "band_len must be positive");
    let n_bands = data.len().div_ceil(band_len);
    if worker_count().min(n_bands) <= 1 {
        let mut acc = init;
        for (i, chunk) in data.chunks_mut(band_len).enumerate() {
            acc = merge(acc, f(i, chunk));
        }
        return acc;
    }
    par_bands(data, band_len, f).into_iter().fold(init, merge)
}

/// Runs `f(index)` for every index in `0..n`, returning results in order.
/// The read-only sibling of [`par_bands`] for fan-out over shared state.
pub fn par_indices<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = worker_count().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    run_pool(n, workers, f)
}

/// The fan-out behind [`par_bands`] and [`par_indices`]: runs `f(i)` for
/// every index in `0..n` on the calling thread plus `workers - 1` pool
/// helpers, indices claimed from an atomic cursor (so heterogeneous costs
/// load-balance), results returned in index order. The first panicking
/// index stops the claiming and is re-raised here with its own payload.
fn run_pool<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let cells: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let claim = || {
        let claimed = catch_unwind(AssertUnwindSafe(|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = f(i);
            *cells[i].lock().expect("result cell poisoned") = Some(r);
        }));
        if let Err(payload) = claimed {
            // Exhaust the cursor so every copy stops after its current
            // index; the first payload wins.
            cursor.store(n, Ordering::Relaxed);
            failure
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    };
    fan_out(&claim, workers - 1);
    if let Some(payload) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    cells
        .into_iter()
        .map(|c| {
            c.into_inner()
                .expect("result cell poisoned")
                .expect("every index ran")
        })
        .collect()
}

/// One fan-out's claiming loop, shared with the helpers that run copies
/// of it.
struct Job<'a> {
    /// Claims and runs indices until none are left. Never unwinds: it
    /// catches its own panics for the caller to re-raise.
    claim: &'a (dyn Fn() + Sync),
    /// Copies helpers have taken off the queue and not yet finished.
    /// Raised under the pool lock as a helper takes a copy; lowered with
    /// `Release` as the copy returns, paired with the `Acquire` load in
    /// `Finished::drop`, so the caller sees every result a copy wrote.
    running: AtomicUsize,
    /// The fanning-out thread, unparked when the last running copy
    /// returns.
    caller: Thread,
}

/// The process-wide band-helper pool behind [`run_pool`]. Blocked
/// threads park with no lock held: idle helpers until a fan-out queues
/// copies, callers until their running copies return.
struct PoolState {
    /// Copies of in-flight jobs that no helper has taken yet.
    queue: VecDeque<&'static Job<'static>>,
    /// Helpers parked on an empty queue.
    idle: Vec<Thread>,
    /// Helpers started so far. They live for the rest of the process.
    helpers: usize,
}

static POOL: Mutex<PoolState> = Mutex::new(PoolState {
    queue: VecDeque::new(),
    idle: Vec::new(),
    helpers: 0,
});

fn lock_pool() -> MutexGuard<'static, PoolState> {
    // Nothing panics while holding this lock and every update leaves the
    // queue and counts valid, so a poisoned guard is still sound;
    // recovering it keeps `Finished::drop` from panicking.
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `claim` on the calling thread and offers `copies` copies of it to
/// the pool helpers, growing the pool to at least `copies` threads.
/// Returns once every copy has returned or been withdrawn.
fn fan_out(claim: &(dyn Fn() + Sync), copies: usize) {
    let job = Job {
        claim,
        running: AtomicUsize::new(0),
        caller: std::thread::current(),
    };
    // SAFETY: only the lifetime changes. The queue and the helpers use
    // `shared` between a push below and `Finished::drop`, which runs
    // before `job` (and the borrows inside it) goes out of scope, on
    // return and on unwind alike. Under the pool lock it withdraws every
    // copy still queued; it then waits until `running` is zero, and a
    // helper touches a job only between taking its copy (under the lock,
    // raising `running`) and lowering `running`.
    let shared: &'static Job<'static> =
        unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(&job) };
    let _finished = Finished(shared);
    let started = {
        let mut pool = lock_pool();
        for _ in 0..copies {
            pool.queue.push_back(shared);
            if let Some(helper) = pool.idle.pop() {
                helper.unpark();
            }
        }
        let started = pool.helpers;
        pool.helpers = started.max(copies);
        started
    };
    for id in started..copies {
        // A helper that fails to start is not retried: the caller claims
        // whatever no helper takes, so the fan-out completes.
        let _ = std::thread::Builder::new()
            .name(format!("uni-band-{id}"))
            .spawn(help_forever);
    }
    (job.claim)();
}

/// A helper's life: take a queued copy and run it, or park until a
/// fan-out queues one.
fn help_forever() {
    let me = std::thread::current();
    loop {
        let taken = {
            let mut pool = lock_pool();
            let taken = pool.queue.pop_front();
            match taken {
                Some(job) => {
                    job.running.fetch_add(1, Ordering::Relaxed);
                }
                // A spurious wakeup finds this helper still listed.
                None if !pool.idle.iter().any(|t| t.id() == me.id()) => {
                    pool.idle.push(me.clone());
                }
                None => {}
            }
            taken
        };
        match taken {
            Some(job) => {
                (job.claim)();
                // The caller may return, and drop `job`, as soon as
                // `running` reaches zero: take its handle first.
                let caller = job.caller.clone();
                if job.running.fetch_sub(1, Ordering::Release) == 1 {
                    caller.unpark();
                }
            }
            None => std::thread::park(),
        }
    }
}

/// Ends a [`fan_out`]: withdraws the job's unclaimed copies, then
/// waits for its running ones. Only running copies are waited for, so a
/// band that fans out again, or two threads fanning out at once, cannot
/// deadlock.
struct Finished(&'static Job<'static>);

impl Drop for Finished {
    fn drop(&mut self) {
        lock_pool()
            .queue
            .retain(|queued| !std::ptr::eq(*queued, self.0));
        while self.0.running.load(Ordering::Acquire) > 0 {
            std::thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_matches_collected_bands() {
        let mut a: Vec<u32> = (0..103).collect();
        let mut b = a.clone();
        let collected: u64 = par_bands(&mut a, 10, |i, chunk| {
            i as u64 + chunk.iter().map(|&v| u64::from(v)).sum::<u64>()
        })
        .iter()
        .sum();
        let folded = par_bands_fold(
            &mut b,
            10,
            0u64,
            |i, chunk| i as u64 + chunk.iter().map(|&v| u64::from(v)).sum::<u64>(),
            |acc, r| acc + r,
        );
        assert_eq!(folded, collected);
        assert_eq!(
            par_bands_fold(&mut [0u8; 0], 4, 7usize, |_, _| 1, |a, r| a + r),
            7
        );
    }

    /// Serializes the tests that pin the process-wide worker count.
    static PIN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `body` with [`worker_count`] pinned to `workers`.
    fn with_workers<T>(workers: usize, body: impl FnOnce() -> T) -> T {
        let _serial = PIN.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = set_worker_count(Some(workers));
        let out = catch_unwind(AssertUnwindSafe(body));
        set_worker_count(prev);
        out.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// Whether a fan-out over `workers` indices ran them all at once,
    /// one per thread: each index waits (up to a timeout) until all have
    /// arrived, so no thread can claim two of them in time.
    fn fan_out_runs_on_every_worker(workers: usize) -> bool {
        let arrived = std::sync::Mutex::new(0);
        let all_arrived = std::sync::Condvar::new();
        par_indices(workers, |_| {
            let mut count = arrived.lock().unwrap();
            *count += 1;
            all_arrived.notify_all();
            let (count, _) = all_arrived
                .wait_timeout_while(count, std::time::Duration::from_secs(10), |c| *c < workers)
                .unwrap();
            *count == workers
        })
        .into_iter()
        .all(|met| met)
    }

    #[test]
    fn worker_pin_overrides_environment() {
        let _serial = PIN.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = set_worker_count(Some(3));
        assert_eq!(worker_count(), 3);
        let restored = set_worker_count(prev);
        assert_eq!(restored, Some(3));
    }

    #[test]
    fn bands_cover_every_element_once() {
        let mut data: Vec<u32> = vec![0; 103];
        let counts = par_bands(&mut data, 10, |band, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + band as u32;
            }
            chunk.len()
        });
        assert_eq!(counts.len(), 11);
        assert_eq!(counts.iter().sum::<usize>(), 103);
        assert_eq!(counts[10], 3, "last band is the remainder");
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 10) as u32, "element {i} written by its band");
        }
    }

    #[test]
    fn results_arrive_in_band_order() {
        let mut data: Vec<u8> = vec![0; 64];
        let ids = par_bands(&mut data, 8, |band, _| band);
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_no_bands() {
        let mut data: Vec<u8> = Vec::new();
        let r: Vec<usize> = par_bands(&mut data, 16, |_, chunk| chunk.len());
        assert!(r.is_empty());
    }

    #[test]
    fn par_indices_orders_results() {
        let squares = par_indices(20, |i| i * i);
        assert_eq!(squares, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_band_reraises_its_payload_and_the_pool_survives() {
        #[derive(Debug, PartialEq)]
        struct Payload(usize);
        with_workers(4, || {
            let mut data = vec![0u8; 64];
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_bands(&mut data, 8, |band, _| {
                    if band == 5 {
                        std::panic::panic_any(Payload(band));
                    }
                    band
                })
            }))
            .expect_err("the band panic must reach the caller");
            assert_eq!(caught.downcast_ref::<Payload>(), Some(&Payload(5)));
            assert!(
                fan_out_runs_on_every_worker(4),
                "the next fan-out still runs on all four workers"
            );
        });
    }

    #[test]
    fn nested_fan_out_completes() {
        with_workers(4, || {
            let mut data: Vec<u32> = (0..256).collect();
            let sums = par_bands(&mut data, 32, |_, outer| {
                par_bands(outer, 4, |_, inner| inner.iter().sum::<u32>())
                    .into_iter()
                    .sum::<u32>()
            });
            let expected: Vec<u32> = (0..8u32).map(|b| (b * 32..(b + 1) * 32).sum()).collect();
            assert_eq!(sums, expected);
        });
    }

    #[test]
    fn concurrent_fan_outs_keep_their_own_results_in_order() {
        with_workers(4, || {
            // Index 0 of each fan-out waits for index 0 of the other, so
            // both are in flight on the pool at once.
            let both_in_flight = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                let lanes: Vec<_> = [3usize, 7]
                    .into_iter()
                    .map(|k| {
                        let both_in_flight = &both_in_flight;
                        scope.spawn(move || {
                            par_indices(40, |i| {
                                if i == 0 {
                                    both_in_flight.wait();
                                }
                                i * k
                            })
                        })
                    })
                    .collect();
                for (lane, k) in lanes.into_iter().zip([3usize, 7]) {
                    let got = lane.join().expect("fan-out lane");
                    assert_eq!(got, (0..40).map(|i| i * k).collect::<Vec<_>>());
                }
            });
        });
    }

    #[test]
    fn raising_the_worker_count_grows_the_pool() {
        assert!(with_workers(2, || fan_out_runs_on_every_worker(2)));
        assert!(
            with_workers(8, || fan_out_runs_on_every_worker(8)),
            "a larger pin after the pool exists runs on every worker"
        );
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn lane_pool_returns_results_per_submission() {
        let pool = LanePool::new(3);
        let tickets: Vec<Ticket<usize>> = (0..12).map(|i| pool.submit(i, move || i * i)).collect();
        let results: Vec<usize> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(results, (0..12).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn lane_pool_jobs_on_one_lane_run_in_submission_order() {
        let pool = LanePool::new(2);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let tickets: Vec<Ticket<()>> = (0..8)
            .map(|i| {
                let log = log.clone();
                pool.submit(0, move || log.lock().unwrap().push(i))
            })
            .collect();
        for t in tickets {
            t.wait();
        }
        assert_eq!(*log.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn lane_pool_clamps_to_one_lane() {
        let pool = LanePool::new(0);
        assert_eq!(pool.lanes(), 1);
        assert_eq!(pool.submit(7, || 42).wait(), 42);
    }

    #[test]
    fn zero_lane_pool_serves_a_whole_submission_stream() {
        // Regression: a zero-lane request must behave as a one-lane pool
        // for arbitrarily many submissions (a server built
        // `with_lanes(0)` schedules through it for its whole run), not
        // panic on first submit against an empty lane vector.
        let pool = LanePool::new(0);
        let tickets: Vec<Ticket<usize>> = (0..32)
            .map(|i| pool.submit_at(i as u64, move || i + 1))
            .collect();
        let results: Vec<usize> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(results, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn submit_at_assigns_lanes_by_schedule_tick() {
        let pool = LanePool::new(2);
        // Same tick stream, regardless of how calls interleave in time,
        // lands on the same lanes: per-lane FIFO makes results ordered by
        // submission within a lane, and `wait` order recovers tick order.
        let tickets: Vec<Ticket<u64>> = (0..10u64)
            .map(|t| pool.submit_at(t, move || t * 3))
            .collect();
        let results: Vec<u64> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(results, (0..10).map(|t| t * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panic_message_carries_lane_and_tick_provenance() {
        // start_workers directly: bypasses the inline fallback so the
        // off-thread provenance path is exercised even when the test
        // environment itself is single-threaded.
        let pool = LanePool::start_workers(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.submit_at(7, || panic!("splat buffer overflow")).wait()
        }))
        .expect_err("the job panic must surface at wait");
        let msg = panic_payload_text(caught.as_ref());
        assert!(msg.contains("lane 1"), "names the lane (7 % 2): {msg}");
        assert!(msg.contains("tick 7"), "names the schedule slot: {msg}");
        assert!(
            msg.contains("splat buffer overflow"),
            "carries the original payload: {msg}"
        );
    }

    #[test]
    fn lane_pool_survives_a_panicking_job() {
        let pool = LanePool::new(2);
        // Inline pools panic at submit, threaded ones at wait — either
        // way the failure reaches the submitting thread.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.submit(1, || panic!("job failure")).wait()
        }));
        assert!(caught.is_err(), "panicking job surfaces to the submitter");
        // The lane is still serviceable afterwards.
        assert_eq!(pool.submit(1, || 7).wait(), 7);
    }
}
