//! Parallel scenario execution on one ordered, bounded worker pool.
//!
//! Every batch surface — the stored [`BatchRunner::run`], the streamed
//! [`BatchRunner::run_streamed`] and the multi-start fitting batches of
//! [`crate::fit`] (through [`parallel_map`]) — runs on the same private
//! pool of scoped worker threads (standard library only, no external
//! dependencies).  The pool:
//!
//! * claims jobs one at a time from a shared atomic cursor;
//! * keeps one worker-local scratch alive per worker across the jobs it
//!   runs;
//! * hands each job's owned result to a sink on the calling thread **in job
//!   order**, through a reorder window of 8 jobs per worker: a worker
//!   blocks before starting a job beyond the window, so a slow job holds
//!   back at most that many finished results.
//!
//! Because each scenario's computation is sequential and self-contained and
//! results arrive in job order, batches are **deterministic**: the entries
//! come back in input order with bit-identical floating-point content
//! regardless of the worker count (the executor only changes *where* a
//! scenario runs).  The one exception is fail-fast cancellation, which
//! depends on timing — see [`ErrorPolicy::FailFast`].
//!
//! The [`RunScratch`] a worker keeps lets consecutive scenarios sharing a
//! (backend, material, configuration) triple reuse the constructed backend
//! through [`HysteresisBackend::reset`] instead of rebuilding it, and caches
//! the flattened sample vector of the current excitation, so the parallel
//! win is not eaten by per-scenario construction and allocator traffic.
//!
//! Direct-timeless scenarios that share a (configuration, excitation,
//! operating point) triple are additionally routed — per [`SoaRouting`],
//! default on — through the structure-of-arrays lockstep batch
//! ([`SoaBatch`]): the whole group runs as one job, one lane per scenario,
//! and the per-lane results fan back into ordinary per-entry slots.  Lane
//! parameters are the scenarios' **resolved** (thermally derived)
//! parameters, the same values the scalar path runs, so the lanes stay
//! bit-identical to the scalar model and routing never changes report
//! content, only throughput.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use ja_hysteresis::backend::HysteresisBackend;
use ja_hysteresis::config::JaConfig;
use ja_hysteresis::error::JaError;
use ja_hysteresis::soa::SoaBatch;
use magnetics::bh::BhCurve;
use magnetics::loop_analysis;
use magnetics::material::JaParameters;

use crate::scenario::{
    BackendKind, BatchEntry, BatchReport, Excitation, Scenario, ScenarioOutcome,
};

/// How a batch reacts to a failing scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Run every scenario and record failures alongside successes (the
    /// historical `run_batch` behaviour).  Reports are fully deterministic.
    #[default]
    CollectAll,
    /// Stop scheduling new work once any scenario fails; scenarios that
    /// were not yet executed are recorded as [`JaError::Cancelled`].  Which
    /// scenarios get cancelled depends on worker timing, so fail-fast
    /// reports are only deterministic for a single worker.
    FailFast,
}

/// How the runner maps [`BackendKind::DirectTimeless`] scenarios onto the
/// structure-of-arrays lockstep batch ([`SoaBatch`]).
///
/// Scenarios are **groupable** when they share a (configuration,
/// excitation, operating point) triple, use the direct-timeless backend
/// and have a prescribed (non-circuit) stimulus; a group runs as one SoA
/// sweep with one lane per scenario.  Every lane is bit-identical to the
/// scalar run of the same scenario, so the routing decision never changes
/// report content — only the timing fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SoaRouting {
    /// Route every groupable set of two or more scenarios through the
    /// lockstep batch; everything else runs scalar.  The default.
    #[default]
    Auto,
    /// Route every groupable scenario through the lockstep batch, even
    /// alone in its group (useful for exercising the SoA path).
    ForceSoa,
    /// Run every scenario through the scalar path.
    ForceScalar,
}

/// Builder-style executor for scenario batches.
///
/// ```
/// use hdl_models::exec::BatchRunner;
/// use hdl_models::scenario::{BackendKind, Excitation, ScenarioGrid};
///
/// let grid = ScenarioGrid::new()
///     .backends(BackendKind::TIMELESS)
///     .excitation("major", Excitation::major_loop(10_000.0, 100.0, 1).unwrap());
/// let report = BatchRunner::new()
///     .workers(2)
///     .run(grid.scenarios().unwrap());
/// assert_eq!(report.entries.len(), 3);
/// assert_eq!(report.workers, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchRunner {
    workers: Option<NonZeroUsize>,
    policy: ErrorPolicy,
    routing: SoaRouting,
}

impl BatchRunner {
    /// An executor with the default knobs: one worker per available core,
    /// collect-all error policy, automatic SoA routing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count; `0` restores the default
    /// (`std::thread::available_parallelism`).  The effective count never
    /// exceeds the number of scenarios.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = NonZeroUsize::new(workers);
        self
    }

    /// Sets the error policy.
    #[must_use]
    pub fn error_policy(mut self, policy: ErrorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for [`ErrorPolicy::FailFast`].
    #[must_use]
    pub fn fail_fast(self) -> Self {
        self.error_policy(ErrorPolicy::FailFast)
    }

    /// Sets how direct-timeless scenario groups are executed (see
    /// [`SoaRouting`]; the default is [`SoaRouting::Auto`]).
    #[must_use]
    pub fn soa_routing(mut self, routing: SoaRouting) -> Self {
        self.routing = routing;
        self
    }

    /// The worker count the runner would use for `jobs` scenarios.
    pub fn resolved_workers(&self, jobs: usize) -> usize {
        resolved_workers(self.workers.map_or(0, NonZeroUsize::get), jobs)
    }

    /// Runs every scenario and collects a [`BatchReport`] with one entry
    /// per scenario, in input order: the pool's owned outcomes and their
    /// wall clocks move straight into the entries.
    ///
    /// Under the default [`SoaRouting::Auto`], scenarios sharing a
    /// (configuration, excitation) pair on the direct-timeless backend run
    /// as one structure-of-arrays lockstep sweep instead of one scalar
    /// sweep each — with bit-identical per-entry results, since the SoA
    /// lanes reproduce the scalar operation sequence exactly.
    pub fn run(&self, scenarios: impl IntoIterator<Item = Scenario>) -> BatchReport {
        let scenarios: Vec<Scenario> = scenarios.into_iter().collect();
        let started = Instant::now();
        let mut slots: Vec<Option<(Result<ScenarioOutcome, JaError>, Duration)>> =
            (0..scenarios.len()).map(|_| None).collect();
        let workers = self.execute(&scenarios, |index, outcome, wall_clock| {
            slots[index] = Some((outcome, wall_clock));
        });
        let entries = scenarios
            .into_iter()
            .zip(slots)
            .map(|(scenario, slot)| {
                let (outcome, wall_clock) =
                    slot.expect("every scenario produced exactly one result");
                BatchEntry {
                    scenario,
                    outcome,
                    wall_clock,
                }
            })
            .collect();
        BatchReport {
            entries,
            workers,
            elapsed: started.elapsed(),
        }
    }

    /// Runs `scenarios[skip..]` and hands each outcome to `emit` **in input
    /// index order**, as soon as it and all its predecessors have finished —
    /// the executor half of the streaming report path.
    ///
    /// Unlike [`run`](Self::run), no [`BatchReport`] is accumulated: an
    /// outcome (and the `BhCurve` inside it) is dropped right after `emit`
    /// returns.  The pool holds at most 8 finished jobs per worker while an
    /// earlier one is still running; on top of that, members of a lockstep
    /// group that lie beyond the next index to emit wait here until their
    /// predecessors have been emitted (groups are strided when the
    /// operating point is the innermost grid axis).  Peak memory therefore
    /// follows the window and the lockstep group spread, not the grid size
    /// (for a scalar-routed grid, the window alone).  Because each
    /// scenario's computation is sequential and self-contained, the emitted
    /// sequence is **bit-identical for any worker count** — the property
    /// the NDJSON writer's byte-determinism rests on.
    ///
    /// `skip` supports checkpoint/resume: entries `0..skip` are neither run
    /// nor emitted.  Skipping cannot change the remaining outcomes — every
    /// scenario is independent, and SoA lockstep regrouping is
    /// result-neutral by the lane/scalar bit-equality invariant.
    ///
    /// # Errors
    ///
    /// Returns the first error produced by `emit`; remaining outcomes are
    /// still computed (workers drain) but no longer emitted.
    pub fn run_streamed<E>(
        &self,
        scenarios: &[Scenario],
        skip: usize,
        mut emit: impl FnMut(usize, &Result<ScenarioOutcome, JaError>) -> Result<(), E>,
    ) -> Result<StreamSummary, E> {
        let skip = skip.min(scenarios.len());
        let pending = &scenarios[skip..];
        let mut in_order = Reorder::default();
        let mut succeeded = 0_usize;
        let mut failed = 0_usize;
        let mut emit_error: Option<E> = None;
        let workers = self.execute(pending, |index, outcome, _| {
            in_order.insert(index, outcome);
            while let Some((index, outcome)) = in_order.pop() {
                if outcome.is_ok() {
                    succeeded += 1;
                } else {
                    failed += 1;
                }
                if emit_error.is_none() {
                    emit_error = emit(skip + index, &outcome).err();
                }
            }
        });
        if let Some(error) = emit_error {
            return Err(error);
        }
        debug_assert_eq!(in_order.next, pending.len());
        Ok(StreamSummary {
            scenarios: scenarios.len(),
            emitted: pending.len(),
            succeeded,
            failed,
            workers,
        })
    }

    /// Routes `scenarios` into jobs, runs them on the ordered pool and
    /// hands every scenario's outcome and wall clock to `sink` — in job
    /// order, lockstep members in member order.  Returns the resolved
    /// worker count.  The one place the scalar/lockstep dispatch, fail-fast
    /// and cancellation live.
    fn execute(
        &self,
        scenarios: &[Scenario],
        mut sink: impl FnMut(usize, Result<ScenarioOutcome, JaError>, Duration),
    ) -> usize {
        let workers = self.resolved_workers(scenarios.len());
        let jobs = route_jobs(scenarios, self.routing);
        let abort = AtomicBool::new(false);
        let run_job = |job: &Job, scratch: &mut RunScratch| {
            let cancelled = self.policy == ErrorPolicy::FailFast && abort.load(Ordering::Relaxed);
            let results: Vec<(Result<ScenarioOutcome, JaError>, Duration)> = match job {
                _ if cancelled => job
                    .members()
                    .iter()
                    .map(|_| (Err(JaError::Cancelled), Duration::ZERO))
                    .collect(),
                Job::Scalar(index) => vec![run_timed(&scenarios[*index], scratch)],
                Job::Lockstep(members) => run_lockstep_group(scenarios, members, scratch),
            };
            if !cancelled && results.iter().any(|(outcome, _)| outcome.is_err()) {
                abort.store(true, Ordering::Relaxed);
            }
            results
        };
        ordered_pool(&jobs, workers, RunScratch::new, run_job, |job, results| {
            for (&index, (outcome, wall_clock)) in jobs[job].members().iter().zip(results) {
                sink(index, outcome, wall_clock);
            }
        });
        workers
    }
}

/// What a [`BatchRunner::run_streamed`] call did, counted over the entries
/// it emitted (a resumed run reports only its own tail; the caller folds in
/// the checkpointed counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total grid size, including entries skipped by resume.
    pub scenarios: usize,
    /// Entries emitted by this run (`scenarios - skip`).
    pub emitted: usize,
    /// Emitted entries whose outcome was `Ok`.
    pub succeeded: usize,
    /// Emitted entries whose outcome was an error or cancellation.
    pub failed: usize,
    /// Resolved worker count.
    pub workers: usize,
}

/// One unit of pool work: a single scenario on the scalar path, or a group
/// of scenario indices sharing one SoA lockstep sweep.
#[derive(Debug)]
enum Job {
    Scalar(usize),
    Lockstep(Vec<usize>),
}

impl Job {
    /// The scenario indices the job produces outcomes for, in result order.
    fn members(&self) -> &[usize] {
        match self {
            Job::Scalar(index) => std::slice::from_ref(index),
            Job::Lockstep(members) => members,
        }
    }
}

/// Partitions the scenario list into jobs according to the routing policy.
/// Jobs are ordered by their first scenario index, so a single-worker
/// fail-fast run still cancels in input order.
fn route_jobs(scenarios: &[Scenario], routing: SoaRouting) -> Vec<Job> {
    if routing == SoaRouting::ForceScalar {
        return (0..scenarios.len()).map(Job::Scalar).collect();
    }
    let mut scalar: Vec<usize> = Vec::new();
    // (representative index, members): few distinct (config, excitation)
    // pairs per grid, so a linear scan beats hashing the float-laden keys.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (index, scenario) in scenarios.iter().enumerate() {
        let groupable = scenario.backend == BackendKind::DirectTimeless
            && !matches!(scenario.excitation, Excitation::Circuit(_));
        if !groupable {
            scalar.push(index);
            continue;
        }
        match groups.iter_mut().find(|(representative, _)| {
            let other = &scenarios[*representative];
            other.config == scenario.config
                && other.excitation == scenario.excitation
                && other.operating_point == scenario.operating_point
        }) {
            Some((_, members)) => members.push(index),
            None => groups.push((index, vec![index])),
        }
    }
    let mut jobs: Vec<Job> = scalar.into_iter().map(Job::Scalar).collect();
    for (_, members) in groups {
        if members.len() >= 2 || routing == SoaRouting::ForceSoa {
            jobs.push(Job::Lockstep(members));
        } else {
            jobs.extend(members.into_iter().map(Job::Scalar));
        }
    }
    jobs.sort_by_key(|job| job.members()[0]);
    jobs
}

/// Runs one scenario on the scalar path, timing it.
fn run_timed(
    scenario: &Scenario,
    scratch: &mut RunScratch,
) -> (Result<ScenarioOutcome, JaError>, Duration) {
    let t0 = Instant::now();
    let outcome = scenario.run_with_scratch(scratch);
    (outcome, t0.elapsed())
}

/// Runs one groupable scenario set as a single SoA lockstep sweep, one lane
/// per scenario, and fans the per-lane results back out in member order.
///
/// Lane outcomes are bit-identical to the scalar path; only the timing
/// fields differ — each member is attributed an equal share of the group's
/// wall clock, since the lanes genuinely ran together.  A group whose
/// shared configuration fails validation, or with a member whose operating
/// point is out of range, falls back to the scalar path, which reports the
/// exact per-scenario error the group would have masked (and still
/// succeeds the valid members).
fn run_lockstep_group(
    scenarios: &[Scenario],
    members: &[usize],
    scratch: &mut RunScratch,
) -> Vec<(Result<ScenarioOutcome, JaError>, Duration)> {
    let first = &scenarios[members[0]];
    if assign_lanes(scenarios, members, scratch).is_err() {
        return members
            .iter()
            .map(|&index| run_timed(&scenarios[index], scratch))
            .collect();
    }

    let t0 = Instant::now();
    let RunScratch {
        samples,
        soa,
        lane_curves,
        ..
    } = scratch;
    let samples = cached_samples(samples, &first.excitation);
    let batch = soa.as_mut().expect("assigned above");
    lane_curves.resize_with(members.len(), BhCurve::new);
    lane_curves.truncate(members.len());
    batch.run_samples_into_curves(samples, lane_curves);
    let share = t0.elapsed() / members.len() as u32;

    members
        .iter()
        .enumerate()
        .map(|(lane, &index)| match batch.lane_error(lane) {
            Some(err) => (Err(err.clone()), share),
            None => {
                let curve = std::mem::take(&mut lane_curves[lane]);
                let metrics = loop_analysis::loop_metrics(&curve).ok();
                let loss = scenarios[index].loss_breakdown(&curve);
                let outcome = ScenarioOutcome {
                    name: scenarios[index].name.clone(),
                    backend: scenarios[index].backend,
                    curve,
                    metrics,
                    loss,
                    operating_point: scenarios[index].operating_point,
                    stats: batch.lane_statistics(lane),
                    // Lockstep groups run on the direct backend only, which
                    // has no simulation kernel.
                    kernel: None,
                    transient: None,
                    runtime: share,
                    lockstep_lanes: Some(members.len()),
                };
                (Ok(outcome), share)
            }
        })
        .collect()
}

/// Readies the worker's SoA batch for a lockstep group: (re)builds it for
/// the group's shared configuration and assigns one lane per member.
///
/// Thermal derivation happens here through the same `resolved_params` the
/// scalar path runs — the lanes and the scalar model must consume
/// bit-identical parameters.
fn assign_lanes(
    scenarios: &[Scenario],
    members: &[usize],
    scratch: &mut RunScratch,
) -> Result<(), JaError> {
    let config = scenarios[members[0]].config;
    if !scratch
        .soa
        .as_ref()
        .is_some_and(|batch| *batch.config() == config)
    {
        scratch.soa = Some(SoaBatch::new(config)?);
    }
    scratch.lane_params.clear();
    for &index in members {
        scratch
            .lane_params
            .push(scenarios[index].resolved_params()?);
    }
    scratch
        .soa
        .as_mut()
        .expect("built above")
        .assign(&scratch.lane_params);
    Ok(())
}

/// Resolves a configured worker count for `jobs` units of work: `0` means
/// one worker per available core, and the result is clamped to the job
/// count with a floor of 1.  The single worker-resolution policy shared by
/// [`BatchRunner`] and the fitting batches of [`crate::fit`].
pub fn resolved_workers(configured: usize, jobs: usize) -> usize {
    let configured = if configured == 0 {
        thread::available_parallelism().map_or(1, NonZeroUsize::get)
    } else {
        configured
    };
    configured.min(jobs).max(1)
}

/// Runs `run` over every job on the ordered pool with `workers` threads
/// and returns the results **in job order** — the pool collected into a
/// `Vec`, used by the multi-start fitting batches of [`crate::fit`].
///
/// Each worker keeps one instance of worker-local state (built by
/// `make_state`) alive across all the jobs it executes — the scratch-reuse
/// pattern that keeps per-job construction and allocator traffic off the
/// hot path.  As long as `run` is a pure function of the job (plus state
/// that `run` fully resets or overwrites per job), the output is
/// **deterministic**: identical for any worker count, including the inline
/// `workers <= 1` path that spawns no threads at all.
///
/// Cross-job coordination (e.g. fail-fast abort) lives in the closure:
/// capture an [`AtomicBool`] and consult it per job, as [`BatchRunner`]
/// does.
pub fn parallel_map<T, S, R, FS, F>(jobs: &[T], workers: usize, make_state: FS, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> R + Sync,
{
    let mut results = Vec::with_capacity(jobs.len());
    ordered_pool(jobs, workers, make_state, run, |_, result| {
        results.push(result);
    });
    results
}

/// How many jobs, per worker, the pool may run ahead of the oldest job not
/// yet handed to the sink.  The reorder window is this times the worker
/// count: it bounds the finished results parked behind a slow job, while
/// leaving the other workers enough room that uneven job costs do not
/// serialise the batch.
const WINDOW_PER_WORKER: usize = 8;

/// The one worker pool behind [`BatchRunner`] and [`parallel_map`].
///
/// `workers` scoped threads claim jobs one at a time from an atomic cursor,
/// each keeping the state built by `make_state` across its jobs.  Every
/// result goes, owned, to `sink` on the calling thread in job order
/// (`sink(job_index, result)`).  A worker blocks before starting a job
/// more than [`WINDOW_PER_WORKER`] × workers positions past the oldest
/// undelivered one, so at most that many finished results ever wait for
/// delivery.  With `workers <= 1` the jobs run inline and no thread is
/// spawned.
///
/// A panic in `run` or `sink` closes the window — blocked workers and the
/// collector stop waiting — and then propagates out of this call.
fn ordered_pool<T, S, R>(
    jobs: &[T],
    workers: usize,
    make_state: impl Fn() -> S + Sync,
    run: impl Fn(&T, &mut S) -> R + Sync,
    mut sink: impl FnMut(usize, R),
) where
    T: Sync,
    R: Send,
{
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        let mut state = make_state();
        for (index, job) in jobs.iter().enumerate() {
            sink(index, run(job, &mut state));
        }
        return;
    }

    let window = WINDOW_PER_WORKER * workers;
    let cursor = AtomicUsize::new(0);
    let pool = Pool {
        state: Mutex::new(PoolState {
            finished: Reorder::default(),
            closed: false,
        }),
        ready: Condvar::new(),
        space: Condvar::new(),
    };
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _close = CloseOnPanic(&pool);
                let mut state = make_state();
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= jobs.len() {
                        return;
                    }
                    let mut shared = pool.lock();
                    while !shared.closed && index >= shared.finished.next + window {
                        shared = pool
                            .space
                            .wait(shared)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    if shared.closed {
                        return;
                    }
                    drop(shared);
                    let result = run(&jobs[index], &mut state);
                    pool.lock().finished.insert(index, result);
                    pool.ready.notify_one();
                }
            });
        }

        let _close = CloseOnPanic(&pool);
        for _ in 0..jobs.len() {
            let mut shared = pool.lock();
            let (index, result) = loop {
                if let Some(next) = shared.finished.pop() {
                    break next;
                }
                if shared.closed {
                    // A worker panicked; the scope re-raises it.
                    return;
                }
                shared = pool
                    .ready
                    .wait(shared)
                    .unwrap_or_else(PoisonError::into_inner);
            };
            drop(shared);
            pool.space.notify_all();
            sink(index, result);
        }
    });
}

/// The pool's shared state and its two wake-up signals: `ready` (a result
/// arrived, for the collector) and `space` (the window moved, for blocked
/// workers).
struct Pool<R> {
    state: Mutex<PoolState<R>>,
    ready: Condvar,
    space: Condvar,
}

struct PoolState<R> {
    finished: Reorder<R>,
    closed: bool,
}

impl<R> Pool<R> {
    /// Locks the shared state.  Nothing panics while holding the lock and
    /// every update under it is a single push, pop or flag write, so a
    /// poisoned guard still holds valid state — and [`CloseOnPanic`] must
    /// not panic in `drop`.
    fn lock(&self) -> MutexGuard<'_, PoolState<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Closes the pool when its thread unwinds, so nobody waits for a result
/// that will never come.
struct CloseOnPanic<'a, R>(&'a Pool<R>);

impl<R> Drop for CloseOnPanic<'_, R> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.lock().closed = true;
            self.0.ready.notify_all();
            self.0.space.notify_all();
        }
    }
}

/// Values keyed by a dense index, released in index order: the pool's
/// reorder window, and the streamed path's flush of lockstep members.
struct Reorder<R> {
    /// The next index to release.
    next: usize,
    /// Slots for indices `next..`, filled as values arrive.
    parked: VecDeque<Option<R>>,
}

impl<R> Default for Reorder<R> {
    fn default() -> Self {
        Self {
            next: 0,
            parked: VecDeque::new(),
        }
    }
}

impl<R> Reorder<R> {
    /// Parks the value for `index` (which must not be released yet).
    fn insert(&mut self, index: usize, value: R) {
        let offset = index - self.next;
        if self.parked.len() <= offset {
            self.parked.resize_with(offset + 1, || None);
        }
        self.parked[offset] = Some(value);
    }

    /// Releases the value for `next`, if it has arrived.
    fn pop(&mut self) -> Option<(usize, R)> {
        let value = self.parked.front_mut()?.take()?;
        self.parked.pop_front();
        self.next += 1;
        Some((self.next - 1, value))
    }
}

/// Worker-local reusable state for running scenarios.
///
/// Holds the most recently constructed backend; when the next scenario uses
/// the same (backend kind, material, configuration) triple, the backend is
/// [`reset`](HysteresisBackend::reset) and reused instead of rebuilt.
/// Reset returns a backend to the demagnetised state with cleared
/// statistics, so a reused run is bit-identical to a fresh one (asserted by
/// the executor's tests).
///
/// The scratch also caches the flattened sample vector of the most recent
/// prescribed excitation (grids repeat one excitation across many
/// scenarios, so re-flattening per run was pure waste), the worker's SoA
/// lockstep batch and its lane parameter/curve buffers.
#[derive(Default)]
pub struct RunScratch {
    cached: Option<CachedBackend>,
    samples: Option<(Excitation, Vec<f64>)>,
    soa: Option<SoaBatch>,
    lane_params: Vec<JaParameters>,
    lane_curves: Vec<BhCurve>,
}

struct CachedBackend {
    kind: BackendKind,
    params: JaParameters,
    config: JaConfig,
    backend: Box<dyn HysteresisBackend>,
}

/// The backend-cache lookup of [`RunScratch::backend_for`], free-standing so
/// callers can keep borrowing the scratch's other fields alongside the
/// returned backend.
fn cached_backend_for<'s>(
    cached: &'s mut Option<CachedBackend>,
    scenario: &Scenario,
) -> Result<&'s mut dyn HysteresisBackend, JaError> {
    // The cache is keyed on the *resolved* (thermally derived) parameters:
    // two scenarios at different operating temperatures run different
    // materials even when their reference parameter sets match.
    let params = scenario.resolved_params()?;
    let reusable = cached.as_ref().is_some_and(|cached| {
        cached.kind == scenario.backend
            && cached.params == params
            && cached.config == scenario.config
    });
    let cached = if reusable {
        let cached = cached.as_mut().expect("checked above");
        cached.backend.reset()?;
        cached
    } else {
        let backend = scenario.backend.build(params, scenario.config)?;
        cached.insert(CachedBackend {
            kind: scenario.backend,
            params,
            config: scenario.config,
            backend,
        })
    };
    Ok(cached.backend.as_mut())
}

impl RunScratch {
    /// An empty scratch (no cached backend).
    pub fn new() -> Self {
        Self::default()
    }

    /// A demagnetised backend for the scenario: the cached one when the
    /// scenario matches it, a freshly built one otherwise.
    ///
    /// # Errors
    ///
    /// Propagates backend construction or reset failures.
    pub fn backend_for(
        &mut self,
        scenario: &Scenario,
    ) -> Result<&mut dyn HysteresisBackend, JaError> {
        cached_backend_for(&mut self.cached, scenario)
    }

    /// Like [`RunScratch::backend_for`], plus the scenario's flattened
    /// sample vector from the excitation cache (recomputed only when the
    /// excitation changed; empty for circuit-driven excitations, whose
    /// field sequence is material-dependent and solver-determined).
    ///
    /// # Errors
    ///
    /// Propagates backend construction or reset failures.
    pub fn backend_and_samples(
        &mut self,
        scenario: &Scenario,
    ) -> Result<(&mut dyn HysteresisBackend, &[f64]), JaError> {
        if matches!(scenario.excitation, Excitation::Circuit(_)) {
            let backend = cached_backend_for(&mut self.cached, scenario)?;
            return Ok((backend, &[]));
        }
        let samples = cached_samples(&mut self.samples, &scenario.excitation);
        let backend = cached_backend_for(&mut self.cached, scenario)?;
        Ok((backend, samples))
    }
}

/// The excitation-cache lookup of [`RunScratch::backend_and_samples`] and
/// the lockstep groups: the excitation's flattened samples, recomputed only
/// when the excitation changed.
fn cached_samples<'s>(
    cache: &'s mut Option<(Excitation, Vec<f64>)>,
    excitation: &Excitation,
) -> &'s [f64] {
    if !cache.as_ref().is_some_and(|(key, _)| key == excitation) {
        *cache = Some((excitation.clone(), excitation.to_samples()));
    }
    &cache.as_ref().expect("cached above").1
}

impl std::fmt::Debug for RunScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunScratch")
            .field("cached", &self.cached.as_ref().map(|c| c.kind))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Excitation, ScenarioGrid};

    fn small_grid() -> ScenarioGrid {
        ScenarioGrid::new()
            .backends(BackendKind::ALL)
            .config("dh10", JaConfig::default())
            .config("dh25", JaConfig::default().with_dh_max(25.0))
            .excitation(
                "major",
                Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
            )
    }

    fn assert_outcomes_bitwise_equal(a: &BatchReport, b: &BatchReport) {
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.scenario.name, y.scenario.name);
            match (&x.outcome, &y.outcome) {
                (Ok(ox), Ok(oy)) => {
                    assert_eq!(ox.stats, oy.stats, "{}", x.scenario.name);
                    assert_eq!(ox.curve.len(), oy.curve.len(), "{}", x.scenario.name);
                    for (p, q) in ox.curve.points().iter().zip(oy.curve.points()) {
                        assert_eq!(p.h.value().to_bits(), q.h.value().to_bits());
                        assert_eq!(p.b.as_tesla().to_bits(), q.b.as_tesla().to_bits());
                        assert_eq!(p.m.value().to_bits(), q.m.value().to_bits());
                    }
                }
                (Err(ex), Err(ey)) => assert_eq!(ex, ey, "{}", x.scenario.name),
                (ox, oy) => panic!(
                    "{}: outcome kinds differ: {ox:?} vs {oy:?}",
                    x.scenario.name
                ),
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let scenarios = small_grid().scenarios().expect("grid");
        let serial = BatchRunner::new().workers(1).run(scenarios.clone());
        let parallel = BatchRunner::new().workers(4).run(scenarios);
        assert_eq!(serial.workers, 1);
        assert_eq!(parallel.workers, 4);
        assert_outcomes_bitwise_equal(&serial, &parallel);
    }

    #[test]
    fn chunked_distribution_covers_every_scenario() {
        let scenarios = small_grid().scenarios().expect("grid");
        let expected = scenarios.len();
        let report = BatchRunner::new().workers(3).run(scenarios);
        assert_eq!(report.entries.len(), expected);
        assert_eq!(report.successes().count(), expected);
        assert!(report.elapsed > Duration::ZERO);
        assert!(report.serial_runtime() >= report.total_runtime());
        assert!(report.speedup() > 0.0);
    }

    #[test]
    fn resolved_workers_clamps_to_jobs_and_floor() {
        let runner = BatchRunner::new().workers(8);
        assert_eq!(runner.resolved_workers(3), 3);
        assert_eq!(runner.resolved_workers(100), 8);
        assert_eq!(runner.resolved_workers(0), 1);
        // workers(0) restores the auto default, which is at least 1.
        assert!(BatchRunner::new().workers(0).resolved_workers(100) >= 1);
    }

    #[test]
    fn fail_fast_cancels_scenarios_after_a_failure() {
        let bad = Scenario::new(
            "bad",
            JaParameters::date2006(),
            JaConfig::default().with_dh_max(-1.0),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        );
        let good = Scenario::fig1(BackendKind::DirectTimeless, 500.0).expect("scenario");
        let report = BatchRunner::new()
            .workers(1)
            .fail_fast()
            .run([bad, good.clone(), good]);
        assert_eq!(report.entries.len(), 3);
        assert!(report.entries[0].outcome.is_err());
        for entry in &report.entries[1..] {
            assert_eq!(entry.outcome.as_ref().err(), Some(&JaError::Cancelled));
        }
        // Collect-all keeps running after the failure.
        let report = BatchRunner::new().workers(1).run([
            Scenario::new(
                "bad",
                JaParameters::date2006(),
                JaConfig::default().with_dh_max(-1.0),
                BackendKind::DirectTimeless,
                Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
            ),
            Scenario::fig1(BackendKind::DirectTimeless, 500.0).expect("scenario"),
        ]);
        assert_eq!(report.failures().count(), 1);
        assert_eq!(report.successes().count(), 1);
    }

    #[test]
    fn fail_fast_multi_worker_still_reports_every_entry() {
        let bad = Scenario::new(
            "bad",
            JaParameters::date2006(),
            JaConfig::default().with_dh_max(-1.0),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        );
        let mut scenarios = small_grid().scenarios().expect("grid");
        scenarios.insert(0, bad);
        let expected = scenarios.len();
        let report = BatchRunner::new().workers(4).fail_fast().run(scenarios);
        assert_eq!(report.entries.len(), expected);
        assert!(report.failures().count() >= 1);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let scenario = Scenario::fig1(BackendKind::DirectTimeless, 250.0).expect("scenario");
        let mut scratch = RunScratch::new();
        let first = scenario.run_with_scratch(&mut scratch).expect("run");
        // Second run hits the cached backend (reset path).
        let second = scenario.run_with_scratch(&mut scratch).expect("run");
        assert_eq!(first.stats, second.stats);
        assert_eq!(first.curve, second.curve);
        let fresh = scenario.run().expect("run");
        assert_eq!(first.curve, fresh.curve);
        assert!(format!("{scratch:?}").contains("DirectTimeless"));
    }

    #[test]
    fn scratch_rebuilds_when_the_scenario_changes() {
        let mut scratch = RunScratch::new();
        for kind in BackendKind::ALL {
            let scenario = Scenario::fig1(kind, 500.0).expect("scenario");
            let outcome = scenario.run_with_scratch(&mut scratch).expect("run");
            assert_eq!(outcome.backend, kind);
            assert!(outcome.stats.samples > 0);
        }
    }

    #[test]
    fn parallel_map_orders_results_and_keeps_worker_state() {
        let jobs: Vec<usize> = (0..100).collect();
        let double = |job: &usize, seen: &mut usize| {
            *seen += 1;
            (*job * 2, *seen)
        };
        let serial = parallel_map(&jobs, 1, || 0usize, double);
        let parallel = parallel_map(&jobs, 4, || 0usize, double);
        // Job-order results regardless of worker count...
        let values = |r: &[(usize, usize)]| r.iter().map(|(v, _)| *v).collect::<Vec<_>>();
        assert_eq!(values(&serial), values(&parallel));
        assert_eq!(serial[7].0, 14);
        // ...with worker-local state alive across a worker's jobs: the lone
        // serial worker saw all 100, every parallel worker at most 100.
        assert_eq!(serial.last().unwrap().1, 100);
        assert!(parallel.iter().all(|(_, seen)| (1..=100).contains(seen)));
        // Degenerate inputs.
        assert!(parallel_map(&[] as &[usize], 4, || (), |_, ()| ()).is_empty());
        assert_eq!(parallel_map(&jobs, 8, || (), |job, ()| *job).len(), 100);
    }

    #[test]
    fn a_slow_first_job_bounds_how_many_later_jobs_start() {
        let workers = 2;
        let window = WINDOW_PER_WORKER * workers;
        let jobs: Vec<usize> = (0..4 * window).collect();
        let started = Mutex::new(0_usize);
        let changed = Condvar::new();
        let ahead = Mutex::new(None);
        let mut delivered = Vec::new();
        ordered_pool(
            &jobs,
            workers,
            || (),
            |&job, ()| {
                if job != 0 {
                    *started.lock().expect("test lock") += 1;
                    changed.notify_all();
                    return job;
                }
                // Job 0 runs until the other worker has started every job
                // the window admits behind it, then gives it ample time to
                // start one more — which a bounded pool never allows.
                let count = started.lock().expect("test lock");
                let (count, _) = changed
                    .wait_timeout_while(count, Duration::from_secs(10), |n| *n < window - 1)
                    .expect("test lock");
                let (count, _) = changed
                    .wait_timeout_while(count, Duration::from_millis(300), |n| *n < window)
                    .expect("test lock");
                *ahead.lock().expect("test lock") = Some(*count);
                job
            },
            |index, job| delivered.push((index, job)),
        );
        let ahead = ahead.into_inner().expect("test lock");
        assert_eq!(
            ahead,
            Some(window - 1),
            "later jobs started while job 0 ran; the window is {window}"
        );
        assert_eq!(
            delivered,
            jobs.iter().map(|&job| (job, job)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_panicking_job_panics_out_of_the_pool_without_hanging() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Job 0 panics while the other worker fills the window behind it
        // and blocks; job 7 panics mid-stream.
        let jobs: Vec<usize> = (0..64).collect();
        for failing in [0, 7] {
            for workers in [1, 2] {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    ordered_pool(
                        &jobs,
                        workers,
                        || (),
                        |&job, ()| {
                            assert_ne!(job, failing, "job {failing} fails on purpose");
                            job
                        },
                        |_, _| {},
                    );
                }));
                assert!(result.is_err(), "job {failing} at {workers} workers");
            }
        }
    }

    fn multi_material_grid() -> ScenarioGrid {
        ScenarioGrid::new()
            .material("date2006", JaParameters::date2006())
            .material("ja1984", JaParameters::jiles_atherton_1984())
            .material("hard-steel", JaParameters::hard_steel())
            .backend(BackendKind::DirectTimeless)
            .config("dh10", JaConfig::default())
            .excitation(
                "major",
                Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
            )
    }

    #[test]
    fn soa_routing_is_bit_identical_to_scalar() {
        let scenarios = multi_material_grid().scenarios().expect("grid");
        let scalar = BatchRunner::new()
            .workers(1)
            .soa_routing(SoaRouting::ForceScalar)
            .run(scenarios.clone());
        let auto = BatchRunner::new().workers(1).run(scenarios.clone());
        let forced = BatchRunner::new()
            .workers(2)
            .soa_routing(SoaRouting::ForceSoa)
            .run(scenarios);
        assert_outcomes_bitwise_equal(&scalar, &auto);
        assert_outcomes_bitwise_equal(&scalar, &forced);
        // Auto groups the three same-shaped scenarios into one lockstep
        // sweep; the forced-scalar run never does.
        for entry in &auto.entries {
            assert_eq!(entry.outcome.as_ref().expect("ok").lockstep_lanes, Some(3));
        }
        for entry in &scalar.entries {
            assert_eq!(entry.outcome.as_ref().expect("ok").lockstep_lanes, None);
        }
    }

    #[test]
    fn thermal_operating_points_route_soa_and_stay_bit_identical() {
        use crate::scenario::OperatingPoint;
        // Two temperatures over three materials: each operating point is
        // its own lockstep group (the routing key includes the operating
        // point), each lane runs the thermally derived parameters, and
        // the results stay bit-identical to the scalar path.
        let grid = multi_material_grid()
            .operating_point("t-40", OperatingPoint::at_temperature(-40.0))
            .operating_point("t125", OperatingPoint::at_temperature(125.0));
        let scenarios = grid.scenarios().expect("grid");
        assert_eq!(scenarios.len(), 6);
        let scalar = BatchRunner::new()
            .workers(1)
            .soa_routing(SoaRouting::ForceScalar)
            .run(scenarios.clone());
        let auto = BatchRunner::new().workers(2).run(scenarios);
        assert_outcomes_bitwise_equal(&scalar, &auto);
        for entry in &auto.entries {
            let outcome = entry.outcome.as_ref().expect("ok");
            assert_eq!(
                outcome.lockstep_lanes,
                Some(3),
                "one group per operating point: {}",
                entry.scenario.name
            );
        }
        // The derived parameters genuinely differ across the temperature
        // axis: cold and hot runs of the same material disagree.
        let cold = &auto.entries[0].outcome.as_ref().expect("ok").curve;
        let hot = &auto.entries[1].outcome.as_ref().expect("ok").curve;
        assert_ne!(cold, hot, "temperature must change the trace");
    }

    #[test]
    fn auto_routing_keeps_singleton_groups_scalar() {
        // Each (config, excitation) cell of the small grid has exactly one
        // DirectTimeless member — nothing to batch under Auto, but
        // ForceSoa runs even singleton groups in lockstep.
        let scenarios = small_grid().scenarios().expect("grid");
        let auto = BatchRunner::new().workers(1).run(scenarios.clone());
        for entry in &auto.entries {
            assert_eq!(entry.outcome.as_ref().expect("ok").lockstep_lanes, None);
        }
        let forced = BatchRunner::new()
            .workers(1)
            .soa_routing(SoaRouting::ForceSoa)
            .run(scenarios);
        assert_outcomes_bitwise_equal(&auto, &forced);
        for entry in &forced.entries {
            let outcome = entry.outcome.as_ref().expect("ok");
            let expected = match outcome.backend {
                BackendKind::DirectTimeless => Some(1),
                _ => None,
            };
            assert_eq!(outcome.lockstep_lanes, expected, "{}", entry.scenario.name);
        }
    }

    #[test]
    fn lockstep_fan_back_preserves_input_order() {
        // Mixed grid: every backend over three materials.  Only the
        // DirectTimeless scenarios group into lockstep sweeps; the report
        // must still come back in exact input order.
        let scenarios = multi_material_grid()
            .backends(BackendKind::ALL)
            .scenarios()
            .expect("grid");
        let names: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
        let report = BatchRunner::new().workers(3).run(scenarios);
        let reported: Vec<String> = report
            .entries
            .iter()
            .map(|e| e.scenario.name.clone())
            .collect();
        assert_eq!(names, reported);
        assert_eq!(report.successes().count(), names.len());
    }

    #[test]
    fn empty_batch_produces_an_empty_report() {
        let report = BatchRunner::new().run(std::iter::empty::<Scenario>());
        assert!(report.entries.is_empty());
        assert_eq!(report.workers, 1);
        assert_eq!(report.serial_runtime(), Duration::ZERO);
        assert_eq!(report.speedup(), 0.0);
    }

    /// A streamed run's emissions: `(index, outcome)` pairs in emit order.
    type Emitted = Vec<(usize, Result<ScenarioOutcome, JaError>)>;

    /// Collects a streamed run into `(index, outcome)` pairs.
    fn streamed(
        runner: &BatchRunner,
        scenarios: &[Scenario],
        skip: usize,
    ) -> (Emitted, StreamSummary) {
        let mut collected = Vec::new();
        let summary = runner
            .run_streamed(scenarios, skip, |index, outcome| {
                collected.push((index, outcome.clone()));
                Ok::<(), std::convert::Infallible>(())
            })
            .expect("infallible emit");
        (collected, summary)
    }

    #[test]
    fn streamed_run_emits_in_index_order_and_matches_run() {
        let scenarios = multi_material_grid()
            .backends(BackendKind::ALL)
            .scenarios()
            .expect("grid");
        let stored = BatchRunner::new().workers(1).run(scenarios.clone());
        for workers in [1, 2, 8] {
            let (collected, summary) =
                streamed(&BatchRunner::new().workers(workers), &scenarios, 0);
            assert_eq!(summary.scenarios, scenarios.len());
            assert_eq!(summary.emitted, scenarios.len());
            assert_eq!(summary.succeeded, scenarios.len());
            assert_eq!(summary.failed, 0);
            let indices: Vec<usize> = collected.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, (0..scenarios.len()).collect::<Vec<_>>());
            for ((_, outcome), entry) in collected.iter().zip(&stored.entries) {
                let streamed = outcome.as_ref().expect("ok");
                let stored = entry.outcome.as_ref().expect("ok");
                assert_eq!(streamed.name, stored.name);
                assert_eq!(streamed.stats, stored.stats);
                assert_eq!(streamed.curve, stored.curve);
            }
        }
    }

    #[test]
    fn streamed_run_skip_resumes_mid_grid_with_identical_outcomes() {
        let scenarios = multi_material_grid().scenarios().expect("grid");
        let (full, _) = streamed(&BatchRunner::new().workers(2), &scenarios, 0);
        let skip = 1;
        let (tail, summary) = streamed(&BatchRunner::new().workers(2), &scenarios, skip);
        assert_eq!(summary.emitted, scenarios.len() - skip);
        assert_eq!(tail.len(), full.len() - skip);
        for ((index, outcome), (full_index, full_outcome)) in tail.iter().zip(&full[skip..]) {
            assert_eq!(index, full_index);
            let a = outcome.as_ref().expect("ok");
            let b = full_outcome.as_ref().expect("ok");
            assert_eq!(a.curve, b.curve);
            assert_eq!(a.stats, b.stats);
        }
        // Skipping everything emits nothing.
        let (none, summary) = streamed(&BatchRunner::new().workers(2), &scenarios, scenarios.len());
        assert!(none.is_empty());
        assert_eq!(summary.emitted, 0);
    }

    #[test]
    fn streamed_run_propagates_the_first_emit_error() {
        // More scenarios than the 4-worker window, so the error lands while
        // workers are still queued behind it.
        let scenarios: Vec<Scenario> = (0..6)
            .flat_map(|_| small_grid().scenarios().expect("grid"))
            .collect();
        assert!(scenarios.len() > 4 * WINDOW_PER_WORKER);
        for workers in [1, 4] {
            let mut emitted = 0_usize;
            let result =
                BatchRunner::new()
                    .workers(workers)
                    .run_streamed(&scenarios, 0, |index, _| {
                        if index >= 2 {
                            return Err("sink full");
                        }
                        emitted += 1;
                        Ok(())
                    });
            assert_eq!(result.unwrap_err(), "sink full");
            assert_eq!(emitted, 2, "{workers} workers");
        }
    }

    #[test]
    fn streamed_run_records_failures_like_run() {
        let bad = Scenario::new(
            "bad",
            JaParameters::date2006(),
            JaConfig::default().with_dh_max(-1.0),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        );
        let good = Scenario::fig1(BackendKind::DirectTimeless, 500.0).expect("scenario");
        let (collected, summary) = streamed(
            &BatchRunner::new().workers(2),
            &[bad, good.clone(), good],
            0,
        );
        assert_eq!(summary.succeeded, 2);
        assert_eq!(summary.failed, 1);
        assert!(collected[0].1.is_err());
        assert!(collected[1].1.is_ok());
    }
}
