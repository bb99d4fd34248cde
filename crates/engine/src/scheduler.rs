//! The multi-job scheduler: N concurrent analytics jobs over one shared worker pool.
//!
//! §2.1 describes a job manager that accepts *jobs* — plural — yet Algorithm 1 drives one
//! HIT batch at a time. This module generalizes the two-phase engine to a fleet: a
//! [`JobScheduler`] accepts any number of [`ScheduledJob`]s (TSA and IT mixed), splits each
//! into HIT batches, and dispatches them onto a single shared pool in *ticks*. Every tick
//! interleaves the two phases across jobs:
//!
//! 1. **Dispatch (phase 1)** — jobs are visited in [`DispatchPolicy`] order; each
//!    unfinished job tries to check its required workers out of the shared
//!    [`PoolLedger`]. Leases are disjoint, so two in-flight HITs never share a worker and
//!    no worker is ever assigned twice to one question. A job that cannot get a lease
//!    waits for the next tick (recorded as contention in its [`crate::metrics::JobReport`]).
//! 2. **Ingest (phase 2)** — every in-flight batch is collected: answers polled, gold
//!    estimates absorbed into one fleet-wide
//!    [`SharedAccuracyRegistry`] behind an
//!    [`AccuracyCache`], questions verified with the *shared* estimates (a worker's
//!    accuracy learned in job A immediately reweights their votes in job B), and the lease
//!    released.
//!
//! The run ends when every job has ingested its last batch, returning a
//! [`crate::metrics::FleetReport`] with per-job and fleet-wide accuracy/cost/throughput.
//!
//! [`JobScheduler::run`] polls every batch at the end of time — batches live exactly one
//! tick, and ticks are not time. [`JobScheduler::run_clocked`] is the discrete-event
//! variant: ticks advance a [`SimClock`] to the next answer arrival under the pool's
//! [`cdas_crowd::arrival::LatencyModel`], batches stay in flight while their workers are
//! genuinely working, early-terminated HITs are cancelled *mid-flight* with their leases
//! returned to the pool for other jobs to pick up, and the report additionally carries
//! makespan, time-to-first-verdict and worker-minutes reclaimed.
//! [`JobScheduler::run_parallel`] is the scale-out variant: it stripes the jobs across
//! the shards of a [`ShardedPlatform`] and runs one clocked event loop **per OS thread**,
//! sharing only the lock-striped [`SharedAccuracyRegistry`] — `run_clocked` is the
//! one-shard special case of the same code path, and the report gains per-shard rollups
//! ([`crate::metrics::ShardReport`]) and a
//! [`parallel-speedup stat`](crate::metrics::FleetReport::parallel_speedup).
//!
//! Worker leases are RAII guards ([`cdas_crowd::lease::WorkerLease`]): every exit from
//! every loop — happy path, `?` propagation, thread panic — returns the leased workers to
//! the shared [`PoolLedger`], so no failure mode can strand part of the roster.
//!
//! ```
//! use cdas_core::economics::CostModel;
//! use cdas_crowd::lease::PoolLedger;
//! use cdas_crowd::pool::{PoolConfig, WorkerPool};
//! use cdas_crowd::SimulatedPlatform;
//! use cdas_engine::scheduler::{JobScheduler, ScheduledJob, SchedulerConfig};
//! use cdas_engine::job_manager::JobKind;
//!
//! let pool = WorkerPool::generate(&PoolConfig::clean(20, 0.8, 7));
//! let mut platform = SimulatedPlatform::new(pool.clone(), CostModel::default(), 7);
//! let mut scheduler = JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool));
//!
//! let questions = cdas_engine::fixtures::demo_questions(10, 2);
//! scheduler.submit(ScheduledJob::named(JobKind::SentimentAnalytics, "demo", questions));
//! let report = scheduler.run(&mut platform).unwrap();
//! assert_eq!(report.jobs.len(), 1);
//! assert!(report.fleet.accuracy > 0.5);
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use cdas_core::accuracy::AccuracyRegistry;
use cdas_core::sharing::{AccuracyCache, SharedAccuracyRegistry};
use cdas_core::types::{AnswerDomain, HitId, WorkerId};
use cdas_core::{CdasError, Result};
use cdas_crowd::arrival_queue::ArrivalQueue;
use cdas_crowd::lease::{PoolLedger, WorkerLease};
use cdas_crowd::platform::CrowdPlatform;
use cdas_crowd::question::CrowdQuestion;
use cdas_crowd::sharded::ShardedPlatform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cdas_crowd::clock::SimClock;

use crate::clocked::ClockedCollector;
use crate::engine::{BatchTicket, CrowdsourcingEngine, EngineConfig, HitOutcome};
use crate::job_manager::{AnalyticsJob, JobKind};
use crate::metrics::{score_hits, FleetReport, JobReport, ShardReport};
use crate::query::Query;

/// Identifier of a submitted job (the submission index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub usize);

/// How the dispatch phase orders jobs when they compete for the same free workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Rotate which job gets first pick each tick — fair interleaving, the LogBase-style
    /// multi-tenant default.
    #[default]
    RoundRobin,
    /// Visit jobs by descending [`ScheduledJob::priority`]; equal priorities rotate
    /// round-robin. A starved low-priority job still runs once the pool frees up.
    Priority,
}

/// How the clocked loop discovers the next arrival event across the in-flight HITs.
///
/// Both modes produce **bit-identical** reports; they differ only in how much work each
/// tick costs. `Heap` is the production path. `Scan` is the differential-test oracle:
/// `tests/event_heap_equivalence.rs` runs every mode under both and requires identical
/// reports and event streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ArrivalDiscovery {
    /// A global arrival priority queue ([`cdas_crowd::ArrivalQueue`]): a binary
    /// min-heap keyed by [`CrowdPlatform::next_arrival`], with lazy deletion of
    /// entries for cancelled or terminated HITs so a mid-flight cancel never fires a
    /// ghost arrival — O(log n) per event.
    #[default]
    Heap,
    /// The pre-heap discovery: every tick folds [`CrowdPlatform::next_arrival`] over
    /// all in-flight HITs and polls each one — O(inflight) per event.
    Scan,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Dispatch ordering policy.
    pub policy: DispatchPolicy,
    /// Seed for the lease-selection RNG (worker checkout is randomized like §3.1's
    /// "n random workers", but only over the *free* part of the roster).
    pub seed: u64,
    /// Safety valve: abort with [`CdasError::SchedulerStalled`] after this many ticks.
    pub max_ticks: usize,
    /// How the clocked loop finds the next arrival event: the production heap, or the
    /// scan that differential tests compare it against.
    pub discovery: ArrivalDiscovery,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            policy: DispatchPolicy::RoundRobin,
            seed: 42,
            max_ticks: 10_000,
            discovery: ArrivalDiscovery::Heap,
        }
    }
}

/// One analytics job as the scheduler sees it: the registered [`AnalyticsJob`], its
/// rendered crowd questions, and the engine configuration its batches run with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledJob {
    /// The registered job (kind, query, name).
    pub job: AnalyticsJob,
    /// The human-part work items, already rendered to crowd questions (gold flagged).
    pub questions: Vec<CrowdQuestion>,
    /// Engine configuration for this job's batches.
    pub engine: EngineConfig,
    /// Questions per HIT batch (`B`).
    pub batch_size: usize,
    /// Dispatch priority (higher runs first under [`DispatchPolicy::Priority`]).
    pub priority: u8,
}

impl ScheduledJob {
    /// Schedule a registered job over its rendered questions.
    ///
    /// The engine defaults are derived from the job's query (required accuracy and domain
    /// size); override with [`with_engine`](Self::with_engine).
    pub fn new(job: AnalyticsJob, questions: Vec<CrowdQuestion>) -> Self {
        let engine = EngineConfig::for_job(job.query.required_accuracy, job.query.domain.size());
        ScheduledJob {
            job,
            questions,
            engine,
            batch_size: 20,
            priority: 0,
        }
    }

    /// Convenience for tests and examples: synthesize the [`AnalyticsJob`] from a kind, a
    /// name, and the questions themselves (the query domain is taken from the first
    /// question; required accuracy defaults to 0.9).
    pub fn named(kind: JobKind, name: impl Into<String>, questions: Vec<CrowdQuestion>) -> Self {
        let name = name.into();
        let domain = questions
            .first()
            .map(|q| q.domain.clone())
            .unwrap_or_else(|| AnswerDomain::from_strs(&["yes", "no"]));
        let query = Query::new(vec![name.clone()], 0.9, domain, 0.0, questions.len() as f64);
        Self::new(AnalyticsJob::new(kind, query, name), questions)
    }

    /// Replace the engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Set the batch size `B`.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Set the dispatch priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// One phase-1 dispatch, kept for the fleet timeline: which job published which HIT with
/// which leased workers at which tick. The integration tests use this to prove leases of
/// concurrently in-flight HITs are disjoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchRecord {
    /// The tick the batch was published in (1-based).
    pub tick: usize,
    /// The publishing job.
    pub job: JobId,
    /// The platform HIT id.
    pub hit: HitId,
    /// The leased workers the HIT was restricted to.
    pub workers: Vec<WorkerId>,
    /// Simulated time of the dispatch (0.0 in unclocked runs, where ticks are not time).
    pub at: f64,
}

/// One committed batch: the durable unit of scheduler progress. Emitted through
/// [`RunObserver::on_commit`] at the exact point an outcome is pushed onto its job's run
/// list — after this, the batch's verdicts, cost, and registry contributions are part of
/// the run's state and must never be paid for again.
///
/// `seq` is the batch's index within its **job** (not a global counter): per-job order
/// is deterministic even in parallel runs, where the global interleaving across shards
/// is not. The journal's recovery matches commits per `(job, seq)` for exactly this
/// reason.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCommit {
    /// The committing job.
    pub job: JobId,
    /// The batch's 0-based sequence number within the job.
    pub seq: usize,
    /// The platform HIT the batch ran as.
    pub hit: HitId,
    /// The batch's range within the job's question list.
    pub range: std::ops::Range<usize>,
    /// The engine outcome being committed (verdicts, cost, registry contributions).
    pub outcome: HitOutcome,
    /// What the batch charged the requester (`outcome.cost`).
    pub charge: f64,
    /// Simulated completion time (0.0 in unclocked runs).
    pub completed_at: f64,
    /// Simulated time of the batch's first verdict, if any arrived.
    pub first_verdict_at: Option<f64>,
    /// Worker-minutes reclaimed by cancelling the batch mid-flight.
    pub reclaimed_minutes: f64,
    /// Answers cut off by the cancellation.
    pub answers_cancelled: usize,
    /// Whether the batch was cancelled early (terminated before all answers arrived).
    pub cancelled: bool,
}

/// Observer of the scheduler's durable state changes, called synchronously at the three
/// points recovery needs to replay a run: dispatch (money committed to the platform),
/// per-poll charge (incremental spend in clocked runs), and batch commit (outcome made
/// part of run state). The write-ahead journal is the canonical implementation.
///
/// In parallel runs each shard's sub-scheduler reports through a relabeling shim, so
/// observers always see **global** job ids; calls from different shard threads may
/// interleave, but per-job call order is deterministic.
pub trait RunObserver: Send + Sync {
    /// A batch was published: workers leased, HIT live on the platform.
    fn on_dispatch(&self, dispatch: &DispatchRecord) {
        let _ = dispatch;
    }

    /// A clocked poll charged the requester `amount` for answers of `hit` at simulated
    /// time `at`. Never called with `amount == 0.0`.
    fn on_charge(&self, job: JobId, hit: HitId, amount: f64, at: f64) {
        let _ = (job, hit, amount, at);
    }

    /// A batch outcome was committed to its job's run list.
    fn on_commit(&self, commit: &BatchCommit) {
        let _ = commit;
    }
}

/// Relabels a shard-local sub-scheduler's observer calls with global job ids before
/// forwarding to the fleet-level observer.
struct ShardRelabel {
    inner: Arc<dyn RunObserver>,
    /// `global[local_job_index]` = the job's index in the parent scheduler.
    global: Vec<usize>,
}

impl ShardRelabel {
    /// Shard-local job id → fleet-global job id. The table is built from the same
    /// striping that numbered the locals, so an unmapped id passes through unchanged
    /// rather than panicking the observer callback inside a shard thread.
    fn relabel(&self, job: JobId) -> JobId {
        self.global.get(job.0).copied().map_or(job, JobId)
    }
}

impl RunObserver for ShardRelabel {
    fn on_dispatch(&self, dispatch: &DispatchRecord) {
        let mut relabeled = dispatch.clone();
        relabeled.job = self.relabel(relabeled.job);
        self.inner.on_dispatch(&relabeled);
    }

    fn on_charge(&self, job: JobId, hit: HitId, amount: f64, at: f64) {
        self.inner.on_charge(self.relabel(job), hit, amount, at);
    }

    fn on_commit(&self, commit: &BatchCommit) {
        let mut relabeled = commit.clone();
        relabeled.job = self.relabel(relabeled.job);
        self.inner.on_commit(&relabeled);
    }
}

/// A batch published in the current tick's dispatch phase, awaiting this tick's ingest
/// phase. Batches live exactly one tick: dispatch leases and publishes, ingest collects,
/// and the [`WorkerLease`] guard releases on drop — at the end of the tick on the happy
/// path, or during unwinding/early return on every other path, so leases are held only
/// while HITs genuinely coexist and can never leak.
struct Inflight {
    job: usize,
    /// The batch's range within its job's question list (avoids storing the questions
    /// twice — the ticket owns the published copy, the job owns the original).
    range: std::ops::Range<usize>,
    ticket: BatchTicket,
    /// RAII guard: dropping the `Inflight` returns the workers to the ledger.
    _lease: WorkerLease,
}

/// A batch in flight in a **clocked** run. Unlike [`Inflight`], it lives across ticks:
/// the lease guard is held for exactly as long as the HIT is genuinely running and drops
/// the moment the batch completes — naturally, by mid-flight cancellation, or because an
/// error (or panic) tore the run down — so other jobs can lease the freed workers while
/// slower HITs are still out, and no failure mode strands workers.
struct ClockedInflight {
    job: usize,
    range: std::ops::Range<usize>,
    collector: ClockedCollector,
    /// RAII guard: dropping the `ClockedInflight` returns the workers to the ledger.
    _lease: WorkerLease,
}

/// What a run loop records about one shard before scoring: identity, event count,
/// simulated end time and host wall-clock. [`JobScheduler::report`] turns seeds into full
/// [`ShardReport`]s by summing the per-job reports of each seed's jobs.
struct ShardSeed {
    shard: usize,
    jobs: Vec<JobId>,
    ticks: usize,
    makespan: f64,
    wall_seconds: f64,
}

struct JobState {
    spec: ScheduledJob,
    engine: CrowdsourcingEngine,
    cursor: usize,
    runs: Vec<(std::ops::Range<usize>, HitOutcome)>,
    ticks_waited: usize,
    workers_seen: BTreeSet<WorkerId>,
    /// Whether the job has a batch in flight in the current clocked run: set at
    /// dispatch, cleared when the batch commits.
    in_flight: bool,
    // Clocked-run rollups; stay at their defaults in unclocked runs.
    completed_at: f64,
    first_verdict_at: Option<f64>,
    reclaimed_minutes: f64,
    answers_cancelled: usize,
}

impl JobState {
    fn finished(&self) -> bool {
        self.cursor >= self.spec.questions.len()
    }
}

/// The multi-job scheduler: submit N jobs, then [`run`](Self::run) them to completion
/// against one platform and one shared worker roster.
///
/// ```
/// use cdas_crowd::lease::PoolLedger;
/// use cdas_core::types::WorkerId;
/// use cdas_engine::scheduler::{JobScheduler, SchedulerConfig};
///
/// let ledger = PoolLedger::new((0..8).map(WorkerId));
/// let scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
/// assert_eq!(scheduler.job_count(), 0);
/// assert!(scheduler.shared_registry().is_empty());
/// ```
pub struct JobScheduler {
    config: SchedulerConfig,
    ledger: PoolLedger,
    cache: AccuracyCache,
    jobs: Vec<JobState>,
    rng: StdRng,
    /// Observer of durable state changes (dispatches, charges, commits); `None` keeps
    /// every run loop allocation-free on the hot path.
    observer: Option<Arc<dyn RunObserver>>,
}

impl JobScheduler {
    /// A scheduler over the given worker roster, with a fresh (empty) shared registry.
    pub fn new(config: SchedulerConfig, ledger: PoolLedger) -> Self {
        Self::with_shared_registry(config, ledger, SharedAccuracyRegistry::new())
    }

    /// A scheduler whose jobs share (and extend) an existing registry — e.g. estimates
    /// carried over from a previous fleet run against the same crowd.
    pub fn with_shared_registry(
        config: SchedulerConfig,
        ledger: PoolLedger,
        shared: SharedAccuracyRegistry,
    ) -> Self {
        JobScheduler {
            config,
            ledger,
            cache: AccuracyCache::new(shared),
            jobs: Vec::new(),
            rng: StdRng::seed_from_u64(config.seed),
            observer: None,
        }
    }

    /// Attach an observer that is called synchronously at every dispatch, charge, and
    /// batch commit of the following runs. The write-ahead journal attaches itself here;
    /// replacing a previous observer is allowed (last one wins).
    pub fn attach_observer(&mut self, observer: Arc<dyn RunObserver>) {
        self.observer = Some(observer);
    }

    /// Submit a job; returns its [`JobId`].
    ///
    /// ```
    /// use cdas_crowd::lease::PoolLedger;
    /// use cdas_core::types::WorkerId;
    /// use cdas_engine::job_manager::JobKind;
    /// use cdas_engine::fixtures::demo_questions;
    /// use cdas_engine::scheduler::{JobScheduler, ScheduledJob, SchedulerConfig};
    ///
    /// let ledger = PoolLedger::new((0..10).map(WorkerId));
    /// let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
    /// let a = scheduler.submit(ScheduledJob::named(
    ///     JobKind::SentimentAnalytics, "job-a", demo_questions(6, 2)));
    /// let b = scheduler.submit(ScheduledJob::named(
    ///     JobKind::ImageTagging, "job-b", demo_questions(6, 0)));
    /// assert_ne!(a, b);
    /// assert_eq!(scheduler.job_count(), 2);
    /// ```
    pub fn submit(&mut self, spec: ScheduledJob) -> JobId {
        let engine = CrowdsourcingEngine::new(spec.engine.clone());
        self.jobs.push(JobState {
            spec,
            engine,
            cursor: 0,
            runs: Vec::new(),
            ticks_waited: 0,
            workers_seen: BTreeSet::new(),
            in_flight: false,
            completed_at: 0.0,
            first_verdict_at: None,
            reclaimed_minutes: 0.0,
            answers_cancelled: 0,
        });
        JobId(self.jobs.len() - 1)
    }

    /// Number of submitted jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The fleet-wide shared accuracy registry (alive across runs; pass it to
    /// [`with_shared_registry`](Self::with_shared_registry) to seed a later fleet).
    pub fn shared_registry(&self) -> &SharedAccuracyRegistry {
        self.cache.shared()
    }

    /// A completed job's `(batch questions, outcome)` runs, in ingestion order. Empty for
    /// an unknown id or a job that has not run yet.
    pub fn outcomes(&self, job: JobId) -> Vec<(&[CrowdQuestion], &HitOutcome)> {
        self.jobs
            .get(job.0)
            .map(|j| {
                j.runs
                    .iter()
                    .map(|(range, outcome)| {
                        (j.spec.questions.get(range.clone()).unwrap_or(&[]), outcome)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Dispatch order for tick `tick` (1-based): the job indices rotated left by
    /// `tick - 1`, stable-sorted by descending priority under [`DispatchPolicy::Priority`]
    /// so rotation still breaks ties fairly. Round-robin positions are index arithmetic;
    /// only the priority policy materializes the order, into `sorted` — a buffer the
    /// caller reuses across ticks, left empty under round-robin. The iterator borrows
    /// `sorted`, not the scheduler, so the caller can dispatch while walking it.
    fn dispatch_order<'a>(
        &self,
        tick: usize,
        sorted: &'a mut Vec<usize>,
    ) -> impl Iterator<Item = usize> + 'a {
        let n = self.jobs.len();
        let rotated = move |k: usize| (tick - 1 + k) % n;
        sorted.clear();
        if self.config.policy == DispatchPolicy::Priority {
            sorted.extend((0..n).map(rotated));
            let priority = |i: usize| self.jobs.get(i).map(|j| j.spec.priority).unwrap_or(0);
            sorted.sort_by_key(|&i| std::cmp::Reverse(priority(i)));
        }
        let sorted = &*sorted;
        (0..n).map(move |k| sorted.get(k).copied().unwrap_or_else(|| rotated(k)))
    }

    /// Run every submitted job to completion, interleaving phase-1 publishes and phase-2
    /// ingestion across jobs each tick.
    ///
    /// Errors with [`CdasError::PoolExhausted`] when a job's worker demand exceeds the
    /// roster outright, and [`CdasError::SchedulerStalled`] if a tick ever makes no
    /// progress (a configuration the ledger can never satisfy).
    ///
    /// ```
    /// use cdas_core::economics::CostModel;
    /// use cdas_crowd::lease::PoolLedger;
    /// use cdas_crowd::pool::{PoolConfig, WorkerPool};
    /// use cdas_crowd::SimulatedPlatform;
    /// use cdas_engine::job_manager::JobKind;
    /// use cdas_engine::fixtures::demo_questions;
    /// use cdas_engine::scheduler::{JobScheduler, ScheduledJob, SchedulerConfig};
    ///
    /// let pool = WorkerPool::generate(&PoolConfig::clean(12, 0.8, 3));
    /// let mut platform = SimulatedPlatform::new(pool.clone(), CostModel::default(), 3);
    /// let mut scheduler =
    ///     JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool));
    /// // Two 5-worker jobs over a 12-worker pool: both fit in flight at once.
    /// for name in ["alpha", "beta"] {
    ///     scheduler.submit(ScheduledJob::named(
    ///         JobKind::SentimentAnalytics, name, demo_questions(8, 2)));
    /// }
    /// let report = scheduler.run(&mut platform).unwrap();
    /// assert_eq!(report.jobs.len(), 2);
    /// assert_eq!(report.fleet.questions, 16, "8 real questions per job");
    /// assert!(report.registry_size > 0, "gold estimates were shared");
    /// ```
    pub fn run<P: CrowdPlatform>(&mut self, platform: &mut P) -> Result<FleetReport> {
        // cdas-allow(determinism): wall-clock telemetry only feeds `wall_seconds`, which report equality ignores
        let started = Instant::now();
        self.check_feasibility(self.ledger.roster_len())?;
        let mut dispatches: Vec<DispatchRecord> = Vec::new();
        let mut order = Vec::new();
        let mut ticks = 0usize;
        while self.jobs.iter().any(|j| !j.finished()) {
            ticks += 1;
            if ticks > self.config.max_ticks {
                return Err(CdasError::SchedulerStalled { ticks });
            }
            // Phase 1: dispatch — one batch per unfinished job, policy order, for as long
            // as the ledger can satisfy the lease. The lease guards of this tick's batches
            // are all held simultaneously, which is what keeps concurrent HITs disjoint.
            let mut inflight: Vec<Inflight> = Vec::new();
            for idx in self.dispatch_order(ticks, &mut order) {
                if self.jobs.get(idx).map_or(true, |j| j.finished()) {
                    continue;
                }
                if let Some((range, ticket, lease)) =
                    self.try_dispatch(idx, ticks, 0.0, platform, &mut dispatches)?
                {
                    inflight.push(Inflight {
                        job: idx,
                        range,
                        ticket,
                        _lease: lease,
                    });
                }
            }

            if inflight.is_empty() {
                // Unfinished jobs exist (loop condition) but none could lease: with all
                // leases released at tick end this can only be a progress bug.
                return Err(CdasError::SchedulerStalled { ticks });
            }

            // Phase 2: ingest every in-flight batch, sharing estimates as we go. Each
            // batch's lease guard drops at the end of its iteration — and the whole
            // vector unwinds on an early `?` return — so no path, happy or failing, can
            // leak workers out of the roster.
            for batch in inflight {
                let observer = self.observer.clone();
                // A batch's job index came from this scheduler's own dispatch loop; an
                // unknown id would mean the in-flight set was corrupted, and dropping
                // the batch (lease and all) is the panic-free way out.
                let Some(state) = self.jobs.get_mut(batch.job) else {
                    continue;
                };
                let outcome =
                    state
                        .engine
                        .collect_batch_cached(platform, batch.ticket, &self.cache)?;
                if let Some(observer) = &observer {
                    observer.on_commit(&BatchCommit {
                        job: JobId(batch.job),
                        seq: state.runs.len(),
                        hit: outcome.hit,
                        range: batch.range.clone(),
                        charge: outcome.cost,
                        completed_at: 0.0,
                        first_verdict_at: None,
                        reclaimed_minutes: 0.0,
                        answers_cancelled: 0,
                        cancelled: false,
                        outcome: outcome.clone(),
                    });
                }
                state.runs.push((batch.range, outcome));
            }
        }

        let seed = self.seed_shard(ticks, 0.0, started.elapsed().as_secs_f64());
        Ok(self.report(ticks, dispatches, 0.0, vec![seed]))
    }

    /// Run every submitted job to completion under **simulated time**: a discrete-event
    /// loop in which every tick advances a [`SimClock`] to the next answer arrival across
    /// all in-flight HITs, polls incrementally, and — when a job's batch terminates early —
    /// cancels the HIT *mid-flight* and releases its [`cdas_crowd::lease::WorkerLease`]
    /// back to the shared [`PoolLedger`], so a waiting job picks those workers up in the
    /// same run. This is what makes early termination (§4.2.2) save wall-clock time and
    /// money rather than merely replaying history; the returned
    /// [`crate::metrics::FleetReport`] carries `makespan`, per-job time-to-first-verdict
    /// and the reclaimed worker-minutes.
    ///
    /// Each job keeps at most one batch in flight, so leases are held exactly while their
    /// HIT is genuinely running.
    ///
    /// ```
    /// use cdas_core::economics::CostModel;
    /// use cdas_crowd::arrival::LatencyModel;
    /// use cdas_crowd::lease::PoolLedger;
    /// use cdas_crowd::pool::{PoolConfig, WorkerPool};
    /// use cdas_crowd::SimulatedPlatform;
    /// use cdas_engine::job_manager::JobKind;
    /// use cdas_engine::fixtures::demo_questions;
    /// use cdas_engine::scheduler::{JobScheduler, ScheduledJob, SchedulerConfig};
    ///
    /// let pool = WorkerPool::generate(&PoolConfig {
    ///     latency: LatencyModel::Exponential { mean: 5.0 },
    ///     ..PoolConfig::clean(12, 0.8, 3)
    /// });
    /// let mut platform = SimulatedPlatform::new(pool.clone(), CostModel::default(), 3);
    /// let mut scheduler =
    ///     JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool));
    /// scheduler.submit(ScheduledJob::named(
    ///     JobKind::SentimentAnalytics, "clocked", demo_questions(8, 2)));
    /// let report = scheduler.run_clocked(&mut platform).unwrap();
    /// assert!(report.makespan > 0.0, "simulated time passed");
    /// assert_eq!(report.fleet.questions, 8);
    /// ```
    pub fn run_clocked<P: CrowdPlatform>(&mut self, platform: &mut P) -> Result<FleetReport> {
        // cdas-allow(determinism): wall-clock telemetry only feeds `wall_seconds`, which report equality ignores
        let started = Instant::now();
        self.check_feasibility(self.ledger.roster_len())?;
        let mut clock = SimClock::new();
        let mut dispatches: Vec<DispatchRecord> = Vec::new();
        let mut inflight: Vec<ClockedInflight> = Vec::new();
        let result = self.clocked_loop(platform, &mut clock, &mut dispatches, &mut inflight);
        if result.is_err() {
            // Error teardown: the platform must stop charging for HITs nobody will ever
            // collect. The cancel is idempotent by the trait contract, so a batch whose
            // collector already cancelled (the error came *after* its cancel) is a no-op
            // here rather than a double refund. The lease guards release on drop.
            for batch in inflight.drain(..) {
                // The run is already failing; the teardown receipts have no
                // report to land in and are deliberately discarded.
                let _ = platform.cancel(batch.collector.hit(), clock.now());
            }
        }
        let ticks = result?;
        let seed = self.seed_shard(ticks, clock.now(), started.elapsed().as_secs_f64());
        Ok(self.report(ticks, dispatches, clock.now(), vec![seed]))
    }

    /// Run the fleet **in parallel across OS threads**, one thread per shard of a
    /// [`ShardedPlatform`].
    ///
    /// Jobs are striped over shards round-robin by submission index (job `j` runs on
    /// shard `j % shards`), mirroring the round-robin worker partition of
    /// [`ShardedPlatform::split`]. Each thread owns its platform shard, a sub-scheduler
    /// over the shard's slice of this scheduler's roster, and runs **the same clocked
    /// event loop as [`run_clocked`](Self::run_clocked)** — the sequential path is
    /// literally the one-shard special case of this one, and a 1-shard `run_parallel`
    /// produces a byte-identical report (up to host wall-clock timings; see
    /// [`FleetReport::ignoring_wall_clock`]).
    ///
    /// What is shared and what is not:
    ///
    /// * **shared** — the [`SharedAccuracyRegistry`]: its lock-striped buckets let every
    ///   shard absorb gold estimates and read fleet-wide accuracies concurrently, so a
    ///   worker's accuracy learned on shard A still reweights nothing on shard B *for
    ///   that worker* (workers are partitioned), but population means and carried-over
    ///   registries are fleet-wide, exactly as in a sequential run;
    /// * **per shard** — the platform, the worker partition, the lease table, the
    ///   [`SimClock`] (shards are independent simulated timelines; the fleet `makespan`
    ///   is their maximum), and the dispatch RNG (seeded `config.seed + shard`).
    ///
    /// The shard lease tables are derived from this scheduler's ledger **when the call
    /// starts**: workers already checked out through another handle of that ledger are
    /// excluded from every shard (they cannot be double-assigned), but external leases
    /// taken mid-run are not observed — hand the parallel scheduler a quiescent ledger.
    ///
    /// Leases are RAII guards, so a shard thread that errors — or panics — releases its
    /// workers while unwinding; a panic is resurfaced after every other shard joined
    /// *and every job state was reassembled* (partial progress included), so a caller
    /// that catches it still holds a scheduler whose [`outcomes`](Self::outcomes) are
    /// inspectable. An error aborts the fleet with the first failing shard's error after
    /// all shards finished and every in-flight HIT of the failing shard was cancelled.
    ///
    /// The returned [`FleetReport`] carries one [`ShardReport`] per thread
    /// (`report.shards`) and [`FleetReport::parallel_speedup`] summarizes what the
    /// sharding bought.
    ///
    /// Errors with [`CdasError::PoolExhausted`] when a job needs more workers than its
    /// *shard* (not the whole pool) can ever offer — shard rosters are roughly
    /// `roster / shards`, so a fleet that was feasible sequentially may need a smaller
    /// worker count per HIT, or fewer shards, to run in parallel.
    ///
    /// ```
    /// use cdas_core::economics::CostModel;
    /// use cdas_crowd::pool::{PoolConfig, WorkerPool};
    /// use cdas_crowd::sharded::ShardedPlatform;
    /// use cdas_crowd::lease::PoolLedger;
    /// use cdas_engine::job_manager::JobKind;
    /// use cdas_engine::fixtures::demo_questions;
    /// use cdas_engine::scheduler::{JobScheduler, ScheduledJob, SchedulerConfig};
    ///
    /// let pool = WorkerPool::generate(&PoolConfig::clean(16, 0.8, 3));
    /// let mut platform = ShardedPlatform::split(&pool, CostModel::default(), 3, 2);
    /// let mut scheduler =
    ///     JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool));
    /// // Four 5-worker jobs over two 8-worker shards: two jobs per thread.
    /// for name in ["a", "b", "c", "d"] {
    ///     scheduler.submit(ScheduledJob::named(
    ///         JobKind::SentimentAnalytics, name, demo_questions(6, 2)));
    /// }
    /// let report = scheduler.run_parallel(&mut platform).unwrap();
    /// assert_eq!(report.jobs.len(), 4);
    /// assert_eq!(report.shards.len(), 2);
    /// assert_eq!(report.fleet.questions, 24);
    /// assert!(report.parallel_speedup() >= 1.0);
    /// ```
    pub fn run_parallel<P: CrowdPlatform>(
        &mut self,
        platform: &mut ShardedPlatform<P>,
    ) -> Result<FleetReport> {
        let shard_count = platform.shard_count();
        if shard_count == 0 {
            // No shards can serve no jobs; anything else is exhaustion by definition.
            self.check_feasibility(0)?;
            return Ok(self.report(0, Vec::new(), 0.0, Vec::new()));
        }

        // Each shard's slice of this scheduler's roster, in the parent ledger's
        // checkout-priority order (so a 1-way shard leases exactly like the parent).
        // Workers already checked out through another handle of the parent ledger at
        // this moment are excluded outright — the shard ledgers are independent tables,
        // so this is the only point where an outstanding external lease can be honoured
        // (a lease taken through the parent *during* the parallel run is not observed,
        // unlike in `run`/`run_clocked`, which lease from the parent tick by tick).
        let parent_roster = self.ledger.roster();
        let rosters: Vec<Vec<WorkerId>> = platform
            .shards()
            .iter()
            .map(|shard| {
                let members: BTreeSet<WorkerId> = shard.roster().iter().copied().collect();
                parent_roster
                    .iter()
                    .copied()
                    .filter(|w| members.contains(w) && !self.ledger.is_leased(*w))
                    .collect()
            })
            .collect();

        // Feasibility against the shard each job will actually run on.
        for (j, state) in self.jobs.iter().enumerate() {
            let needed = state.engine.decide_workers()?;
            let available = rosters.get(j % shard_count).map_or(0, Vec::len);
            if needed > available {
                return Err(CdasError::PoolExhausted { needed, available });
            }
        }

        // Build one sub-scheduler per shard and stripe the job states across them
        // (shard `s` owns jobs `s, s+n, s+2n, …`). The states are *moved*, not copied —
        // the threads do the real work on the real jobs, and the parent reassembles them
        // afterwards so `outcomes()` keeps working.
        //
        // Each shard runs over its OWN registry, seeded from one pre-spawn snapshot of
        // the fleet registry, instead of writing into the live shared one. A live
        // registry would make the *simulation* host-timing dependent: a late-starting
        // job's population mean (`ClockedCollector::running_mean`) reads fleet-wide
        // estimates, so whether another shard's gold scores have landed yet would move
        // termination bounds. Isolation makes a multi-shard run a pure function of its
        // inputs; the shards' learnings are merged back deterministically after the
        // join below.
        let shared = self.cache.shared().clone();
        let seed_registry = shared.snapshot();
        let mut global: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
        let mut subs: Vec<JobScheduler> = rosters
            .iter()
            .enumerate()
            .map(|(s, roster)| {
                JobScheduler::with_shared_registry(
                    SchedulerConfig {
                        seed: self.config.seed + s as u64,
                        ..self.config
                    },
                    PoolLedger::new(roster.iter().copied()),
                    SharedAccuracyRegistry::with_registry(seed_registry.clone()),
                )
            })
            .collect();
        let total_jobs = self.jobs.len();
        for (j, state) in std::mem::take(&mut self.jobs).into_iter().enumerate() {
            // `j % shard_count` is in range by construction; the striping tables and
            // the sub-schedulers were both built with `shard_count` entries above.
            if let Some(ids) = global.get_mut(j % shard_count) {
                ids.push(j);
            }
            if let Some(sub) = subs.get_mut(j % shard_count) {
                sub.jobs.push(state);
            }
        }
        if let Some(observer) = &self.observer {
            // Each shard reports through a relabeling shim so the fleet-level observer
            // (the journal) always sees global job ids. Calls from different shard
            // threads interleave, but per-job order stays deterministic — which is all
            // recovery matches on.
            for (s, sub) in subs.iter_mut().enumerate() {
                sub.observer = Some(Arc::new(ShardRelabel {
                    inner: Arc::clone(observer),
                    global: global.get(s).cloned().unwrap_or_default(),
                }));
            }
        }

        // One OS thread per shard, each running the same clocked event loop the
        // sequential path runs. A panic inside a shard's run is caught *in the thread*
        // so the sub-scheduler — and with it the job states — survives the unwind (the
        // RAII lease guards release during it); the payload is re-raised from the parent
        // only after every shard joined and every job state was reassembled, so a caller
        // that catches the panic still holds a scheduler with all its jobs.
        type ShardJoin = (std::thread::Result<Result<FleetReport>>, JobScheduler);
        let outcomes: Vec<ShardJoin> = std::thread::scope(|scope| {
            let handles: Vec<_> = platform
                .shards_mut()
                .iter_mut()
                .zip(subs.drain(..))
                .map(|(shard, mut sub)| {
                    scope.spawn(move || {
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            sub.run_clocked(shard.platform_mut())
                        }));
                        (run, sub)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });

        // Merge: reassemble job states in submission order (also on error, so partial
        // outcomes stay inspectable), remap shard-local job ids to global ones, and fold
        // the shard timelines together.
        let mut slots: Vec<Option<JobState>> = (0..total_jobs).map(|_| None).collect();
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut first_error: Option<CdasError> = None;
        let mut merged_dispatches: Vec<DispatchRecord> = Vec::new();
        let mut shard_seeds: Vec<ShardSeed> = Vec::new();
        let mut ticks = 0usize;
        let mut makespan = 0.0f64;
        let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
        for (s, (result, sub)) in outcomes.into_iter().enumerate() {
            cache_hits += sub.cache.hits();
            cache_misses += sub.cache.misses();
            // Merge the shard's learnings back into the fleet registry, in shard order:
            // adopt (overwrite, not pool — the shard's entry already contains the seed's
            // history) every entry that differs from the pre-spawn snapshot. Shard
            // rosters are disjoint, so no two shards contend for a sampled entry; the
            // only possible overlap is identical injected oracle estimates, where
            // adopting in shard order is deterministic. This also covers a panicked
            // shard — whatever it learned before unwinding is preserved, like the live
            // registry used to.
            let mut delta = AccuracyRegistry::new();
            for (&worker, entry) in sub.cache.shared().snapshot().iter() {
                let unchanged = seed_registry.get(worker).is_some_and(|seed| {
                    seed.accuracy.to_bits() == entry.accuracy.to_bits()
                        && seed.samples == entry.samples
                });
                if !unchanged {
                    delta.set(worker, entry.accuracy, entry.samples);
                }
            }
            shared.adopt(&delta);
            for (local, state) in sub.jobs.into_iter().enumerate() {
                // A failed lookup leaves the slot empty; the hole check below turns
                // that into `SchedulerStalled` instead of a panic mid-merge.
                let target = global.get(s).and_then(|ids| ids.get(local)).copied();
                if let Some(slot) = target.and_then(|g| slots.get_mut(g)) {
                    *slot = Some(state);
                }
            }
            let result = match result {
                Ok(result) => result,
                Err(payload) => {
                    first_panic = first_panic.or(Some(payload));
                    continue;
                }
            };
            match result {
                Ok(shard_report) => {
                    let (sub_ticks, sub_makespan) = (shard_report.ticks, shard_report.makespan);
                    ticks += sub_ticks;
                    makespan = makespan.max(sub_makespan);
                    merged_dispatches.extend(shard_report.dispatches.into_iter().map(
                        |mut dispatch| {
                            let mapped = global.get(s).and_then(|ids| ids.get(dispatch.job.0));
                            if let Some(&g) = mapped {
                                dispatch.job = JobId(g);
                            }
                            dispatch
                        },
                    ));
                    // A sequential sub-run reports exactly one shard rollup;
                    // if that invariant ever breaks, fall back to the sub-run
                    // totals instead of panicking the merge (only the
                    // wall-clock split is unknowable then).
                    let rollup = shard_report.shards.into_iter().next();
                    shard_seeds.push(ShardSeed {
                        shard: s,
                        jobs: global
                            .get(s)
                            .into_iter()
                            .flatten()
                            .copied()
                            .map(JobId)
                            .collect(),
                        ticks: rollup.as_ref().map_or(sub_ticks, |r| r.ticks),
                        makespan: rollup.as_ref().map_or(sub_makespan, |r| r.makespan),
                        wall_seconds: rollup.as_ref().map_or(0.0, |r| r.wall_seconds),
                    });
                }
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        // Reassemble job states in submission order. Every slot is filled even
        // when a shard panicked (the sub-scheduler survives the unwind and
        // hands its jobs back above); a hole would mean the striping logic
        // itself broke, which surfaces as an error rather than a panic so the
        // caller still gets a scheduler with the states that did return.
        let mut jobs = Vec::with_capacity(total_jobs);
        let mut missing = 0usize;
        for state in slots {
            match state {
                Some(state) => jobs.push(state),
                None => missing += 1,
            }
        }
        self.jobs = jobs;
        if missing > 0 {
            first_error = first_error.or(Some(CdasError::SchedulerStalled { ticks }));
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        // Shard timelines are independent; a stable sort by simulated time gives one
        // fleet-wide timeline (and leaves a 1-shard run's order untouched).
        merged_dispatches.sort_by(|a, b| a.at.total_cmp(&b.at));
        let mut report = self.report(ticks, merged_dispatches, makespan, shard_seeds);
        report.cache_hits = cache_hits;
        report.cache_misses = cache_misses;
        Ok(report)
    }

    /// The discrete-event loop of [`run_clocked`](Self::run_clocked). On error, in-flight
    /// batches stay in `inflight` for the caller to cancel (their leases release on
    /// drop).
    ///
    /// # The event-heap core
    ///
    /// Under [`ArrivalDiscovery::Heap`] (the default) the loop keeps a global
    /// [`ArrivalQueue`] — a lazy-deletion binary min-heap over every in-flight HIT's
    /// [`CrowdPlatform::next_arrival`] look-ahead. Each tick pops the earliest arrival
    /// (plus its bit-equal ties) and polls **only the due HITs**, instead of scanning
    /// and polling the whole in-flight set the way [`ArrivalDiscovery::Scan`] does.
    /// Three details keep the two modes bit-identical:
    ///
    /// * **Lazy deletion** — when a batch leaves the in-flight set (terminated and
    ///   cancelled mid-flight, or exhausted), its queue entry is cancelled in O(log n);
    ///   a stale heap entry can never fire a ghost arrival for it.
    /// * **Untracked HITs poll every tick** — a platform without a finite look-ahead
    ///   for a HIT gets the scan loop's behavior (polled at every `poll_at`), so
    ///   foreign platforms that only resolve arrivals at poll time stay correct.
    /// * **Freshly dispatched HITs poll once on their dispatch tick** — the scan loop
    ///   polls a new batch immediately (an empty poll, since the tick's `poll_at`
    ///   can't exceed the batch's first arrival), and that first contact is when a
    ///   collector seeds the shared accuracy registry. The heap loop reproduces it so
    ///   registry-driven runs stay identical.
    fn clocked_loop<P: CrowdPlatform>(
        &mut self,
        platform: &mut P,
        clock: &mut SimClock,
        dispatches: &mut Vec<DispatchRecord>,
        inflight: &mut Vec<ClockedInflight>,
    ) -> Result<usize> {
        // Clocked ticks are arrival *events*, not dispatch rounds: a fleet ingests one
        // worker submission per tick at minimum, so the stall valve must scale with the
        // fleet's expected submission count or a large-but-progressing run would be
        // aborted mid-flight. `max_ticks` stays the floor for tiny fleets.
        let expected_events: usize = self
            .jobs
            .iter()
            .map(|s| {
                let batches = s.spec.questions.len().div_ceil(s.spec.batch_size).max(1);
                batches * s.engine.decide_workers().unwrap_or(1)
            })
            .sum();
        let max_ticks = self.config.max_ticks.max(expected_events.saturating_mul(2));
        let heap_mode = self.config.discovery == ArrivalDiscovery::Heap;

        // The event heap (Heap mode only): one scheduled arrival per in-flight HIT.
        let mut arrivals = ArrivalQueue::new();

        // Dispatch bookkeeping that lives across ticks, so phase 1 costs O(jobs) plus
        // its grants: the count of jobs with questions left to dispatch, each job's
        // in-flight flag (cleared here in case an earlier run was torn down
        // mid-flight), and the priority order's buffer.
        let mut unfinished = self.jobs.iter().filter(|j| !j.finished()).count();
        for state in &mut self.jobs {
            state.in_flight = false;
        }
        let mut order = Vec::new();

        let mut ticks = 0usize;
        while unfinished > 0 || !inflight.is_empty() {
            ticks += 1;
            if ticks > max_ticks {
                return Err(CdasError::SchedulerStalled { ticks });
            }
            // HITs dispatched this tick, owed their scan-equivalent first poll.
            let mut fresh: Vec<HitId> = Vec::new();

            // Phase 1: dispatch at the current simulated time. A job keeps one batch in
            // flight; everyone else competes for the workers that are free *now* — which
            // includes workers a mid-flight cancellation released earlier this run.
            platform.advance_time(clock.now());
            for idx in self.dispatch_order(ticks, &mut order) {
                if self
                    .jobs
                    .get(idx)
                    .map_or(true, |j| j.finished() || j.in_flight)
                {
                    continue;
                }
                if let Some((range, ticket, lease)) =
                    self.try_dispatch(idx, ticks, clock.now(), platform, dispatches)?
                {
                    // `try_dispatch` just touched this job, so the lookup cannot miss;
                    // dropping the lease on the impossible path releases the workers.
                    let Some(state) = self.jobs.get_mut(idx) else {
                        continue;
                    };
                    state.in_flight = true;
                    if state.finished() {
                        unfinished -= 1;
                    }
                    let collector = state.engine.begin_clocked(ticket, clock.now());
                    let hit = collector.hit();
                    inflight.push(ClockedInflight {
                        job: idx,
                        range,
                        collector,
                        _lease: lease,
                    });
                    if heap_mode {
                        // Schedule the batch's first arrival; HITs with no finite
                        // look-ahead stay untracked and are polled every tick instead.
                        if let Some(t) = platform.next_arrival(hit).filter(|t| t.is_finite()) {
                            arrivals.arm(hit, t);
                        }
                        fresh.push(hit);
                    }
                }
            }

            if inflight.is_empty() {
                // Unfinished jobs but nothing in flight and nothing leasable: with every
                // lease already released this can only be a progress bug.
                return Err(CdasError::SchedulerStalled { ticks });
            }

            // Phase 2: advance the clock to the next arrival across all in-flight HITs
            // and ingest it. Completed batches are finalized immediately and their leases
            // released, so the next tick's dispatch phase sees the freed workers.
            //
            // Heap mode reads the next arrival off the queue's top in O(log n); Scan mode
            // folds `next_arrival` over the whole in-flight set. The two minima are equal
            // because every tracked HIT's armed time *is* its `next_arrival` (armed at
            // dispatch, re-armed after each poll), and untracked HITs have no finite
            // look-ahead in either mode.
            let next = if heap_mode {
                arrivals.next_time().unwrap_or(f64::INFINITY)
            } else {
                inflight
                    .iter()
                    .filter_map(|b| platform.next_arrival(b.collector.hit()))
                    .filter(|t| t.is_finite())
                    .fold(f64::INFINITY, f64::min)
            };
            let poll_at = if next.is_finite() {
                clock.advance_to(next)
            } else {
                // No future arrivals anywhere: drain whatever is left end-of-time.
                f64::INFINITY
            };

            // Heap mode: pop the due arrivals — the top entry plus its bit-equal ties, in
            // HIT-id order. Everything else stays armed and is *not* polled this tick.
            let mut due: BTreeSet<HitId> = BTreeSet::new();
            if heap_mode && poll_at.is_finite() {
                while let Some((t, hit)) = arrivals.peek() {
                    if t > poll_at {
                        break;
                    }
                    arrivals.pop();
                    due.insert(hit);
                }
            }

            let mut i = 0;
            while i < inflight.len() {
                let Some(entry) = inflight.get_mut(i) else {
                    break;
                };
                let hit = entry.collector.hit();
                if heap_mode {
                    // Poll only HITs with a due arrival, plus the scan-equivalence
                    // cases: freshly dispatched batches (their first, possibly empty,
                    // poll is when a collector seeds the shared registry) and untracked
                    // HITs (no finite look-ahead — the platform resolves their arrivals
                    // at poll time, so they get the scan loop's every-tick poll).
                    let untracked = !arrivals.tracks(hit);
                    if !(due.contains(&hit) || fresh.contains(&hit) || untracked) {
                        i += 1;
                        continue;
                    }
                }
                let cost_before = platform.total_cost();
                let answers = platform.poll(hit, poll_at);
                let charged = platform.total_cost() - cost_before;
                entry.collector.record_charge(charged);
                if charged != 0.0 {
                    if let Some(observer) = &self.observer {
                        observer.on_charge(JobId(entry.job), hit, charged, poll_at);
                    }
                }
                if poll_at.is_infinite() {
                    // End-of-time drain (a platform without arrival look-ahead): the
                    // answers carry their own arrival times, so move the clock to the
                    // latest one before stamping verdicts and completions with it.
                    if let Some(last) = answers.last() {
                        clock.advance_to(last.arrived_at);
                    }
                }
                let terminated =
                    entry
                        .collector
                        .ingest(&answers, clock.now(), Some(&self.cache))?;
                let exhausted = platform.next_arrival(hit).is_none();
                if !(terminated || exhausted) {
                    if heap_mode {
                        // Reschedule the HIT's next look-ahead. A non-finite look-ahead
                        // demotes it to untracked (polled every tick, like Scan); the
                        // re-arm of an unchanged time is a no-op.
                        match platform.next_arrival(hit).filter(|t| t.is_finite()) {
                            Some(t) => arrivals.arm(hit, t),
                            None => {
                                arrivals.cancel(hit);
                            }
                        }
                    }
                    i += 1;
                    continue;
                }
                let batch = inflight.remove(i);
                // Lazy deletion: the finished HIT leaves the arrival queue the moment it
                // leaves the in-flight set, so a stale heap entry can never fire a ghost
                // arrival for a cancelled or exhausted batch.
                arrivals.cancel(hit);
                let receipt = terminated.then(|| platform.cancel(hit, clock.now()));
                // `batch` (and with it the lease guard) drops at the end of this
                // iteration — after finalize, before the next tick's dispatch phase sees
                // the ledger — on the success and the `?` path alike.
                let clocked = batch
                    .collector
                    .finalize(clock.now(), receipt, Some(&self.cache))?;
                // Same provenance as the unclocked loop: the index is ours, so a miss
                // can only mean a corrupted in-flight set — skip, don't panic.
                let Some(state) = self.jobs.get_mut(batch.job) else {
                    continue;
                };
                state.in_flight = false;
                state.completed_at = state.completed_at.max(clocked.completed_at);
                state.first_verdict_at = match (state.first_verdict_at, clocked.first_verdict_at) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                state.reclaimed_minutes += clocked.reclaimed_minutes;
                state.answers_cancelled += clocked.answers_cancelled;
                if let Some(observer) = &self.observer {
                    observer.on_commit(&BatchCommit {
                        job: JobId(batch.job),
                        seq: state.runs.len(),
                        hit,
                        range: batch.range.clone(),
                        charge: clocked.outcome.cost,
                        completed_at: clocked.completed_at,
                        first_verdict_at: clocked.first_verdict_at,
                        reclaimed_minutes: clocked.reclaimed_minutes,
                        answers_cancelled: clocked.answers_cancelled,
                        cancelled: clocked.cancelled,
                        outcome: clocked.outcome.clone(),
                    });
                }
                state.runs.push((batch.range, clocked.outcome));
            }
        }
        Ok(ticks)
    }

    /// Phase-1 dispatch for one job, shared by the unclocked and clocked loops: lease the
    /// job's workers, slice its next batch, publish to the leased workers, and record the
    /// dispatch at tick `tick` / simulated time `at`. Returns `None` — after recording
    /// the wait — when the ledger cannot satisfy the lease right now. On success the
    /// [`WorkerLease`] guard is handed to the caller, whose drop is the release.
    fn try_dispatch<P: CrowdPlatform>(
        &mut self,
        idx: usize,
        tick: usize,
        at: f64,
        platform: &mut P,
        dispatches: &mut Vec<DispatchRecord>,
    ) -> Result<Option<(std::ops::Range<usize>, BatchTicket, WorkerLease)>> {
        // Callers iterate `dispatch_order`, which only yields valid indices; an
        // unknown one simply dispatches nothing.
        let Some(state) = self.jobs.get_mut(idx) else {
            return Ok(None);
        };
        let needed = state.engine.decide_workers()?;
        match self.ledger.try_lease(needed, &mut self.rng) {
            None => {
                state.ticks_waited += 1;
                Ok(None)
            }
            Some(lease) => {
                let end = (state.cursor + state.spec.batch_size).min(state.spec.questions.len());
                let batch = state
                    .spec
                    .questions
                    .get(state.cursor..end)
                    .unwrap_or(&[])
                    .to_vec();
                let ticket = state
                    .engine
                    .publish_batch_to(platform, batch, lease.workers())?;
                let record = DispatchRecord {
                    tick,
                    job: JobId(idx),
                    hit: ticket.hit,
                    workers: lease.workers().to_vec(),
                    at,
                };
                if let Some(observer) = &self.observer {
                    observer.on_dispatch(&record);
                }
                dispatches.push(record);
                state.workers_seen.extend(lease.workers().iter().copied());
                let range = state.cursor..end;
                state.cursor = end;
                Ok(Some((range, ticket, lease)))
            }
        }
    }

    /// Up-front feasibility: a demand larger than `roster_len` would wait forever
    /// (`roster_len` is the whole ledger for sequential runs, one shard's partition for
    /// parallel ones).
    fn check_feasibility(&self, roster_len: usize) -> Result<()> {
        for state in &self.jobs {
            let needed = state.engine.decide_workers()?;
            if needed > roster_len {
                return Err(CdasError::PoolExhausted {
                    needed,
                    available: roster_len,
                });
            }
        }
        Ok(())
    }

    /// The facts a run loop knows about one shard; [`JobScheduler::report`] fills in the
    /// scored totals ([`ShardReport::questions`], cost, reclaimed minutes) from the
    /// per-job reports it builds anyway, so nothing is scored twice.
    fn seed_shard(&self, ticks: usize, makespan: f64, wall_seconds: f64) -> ShardSeed {
        ShardSeed {
            shard: 0,
            jobs: (0..self.jobs.len()).map(JobId).collect(),
            ticks,
            makespan,
            wall_seconds,
        }
    }

    /// Assemble the fleet report from completed job states.
    fn report(
        &self,
        ticks: usize,
        dispatches: Vec<DispatchRecord>,
        makespan: f64,
        shards: Vec<ShardSeed>,
    ) -> FleetReport {
        let jobs: Vec<JobReport> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(idx, state)| JobReport {
                job: JobId(idx),
                name: state.spec.job.name.clone(),
                kind: state.spec.job.kind,
                priority: state.spec.priority,
                report: score_hits(
                    state
                        .runs
                        .iter()
                        .map(|(r, o)| (state.spec.questions.get(r.clone()).unwrap_or(&[]), o)),
                ),
                hits: state.runs.len(),
                ticks_waited: state.ticks_waited,
                distinct_workers: state.workers_seen.len(),
                time_to_first_verdict: state.first_verdict_at,
                completed_at: state.completed_at,
                reclaimed_minutes: state.reclaimed_minutes,
                answers_cancelled: state.answers_cancelled,
            })
            .collect();
        let fleet = score_hits(self.jobs.iter().flat_map(|s| {
            s.runs
                .iter()
                .map(|(r, o)| (s.spec.questions.get(r.clone()).unwrap_or(&[]), o))
        }));
        let shards = shards
            .into_iter()
            .map(|seed| {
                let mut questions = 0usize;
                let mut cost = 0.0f64;
                let mut reclaimed_minutes = 0.0f64;
                let mut answers_cancelled = 0usize;
                for id in &seed.jobs {
                    // Shard seeds only carry ids of jobs in this scheduler.
                    let Some(job) = jobs.get(id.0) else {
                        continue;
                    };
                    questions += job.report.questions;
                    cost += job.report.cost;
                    reclaimed_minutes += job.reclaimed_minutes;
                    answers_cancelled += job.answers_cancelled;
                }
                ShardReport {
                    shard: seed.shard,
                    jobs: seed.jobs,
                    ticks: seed.ticks,
                    makespan: seed.makespan,
                    questions,
                    cost,
                    reclaimed_minutes,
                    answers_cancelled,
                    wall_seconds: seed.wall_seconds,
                }
            })
            .collect();
        FleetReport {
            jobs,
            fleet,
            shards,
            ticks,
            makespan,
            reclaimed_minutes: self.jobs.iter().map(|s| s.reclaimed_minutes).sum(),
            answers_cancelled: self.jobs.iter().map(|s| s.answers_cancelled).sum(),
            dispatches,
            registry_size: self.cache.shared().len(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkerCountPolicy;
    use crate::fixtures::demo_questions;
    use cdas_core::economics::CostModel;
    use cdas_crowd::pool::{PoolConfig, WorkerPool};
    use cdas_crowd::SimulatedPlatform;

    fn fixed_engine(n: usize) -> EngineConfig {
        EngineConfig {
            workers: WorkerCountPolicy::Fixed(n),
            domain_size: Some(3),
            ..EngineConfig::default()
        }
    }

    fn setup(pool_size: usize, seed: u64) -> (SimulatedPlatform, PoolLedger) {
        let pool = WorkerPool::generate(&PoolConfig::clean(pool_size, 0.8, seed));
        let ledger = PoolLedger::from_pool(&pool);
        (
            SimulatedPlatform::new(pool, CostModel::default(), seed),
            ledger,
        )
    }

    fn staggered_setup(
        pool_size: usize,
        accuracy: f64,
        seed: u64,
    ) -> (SimulatedPlatform, PoolLedger) {
        let pool = WorkerPool::generate(&cdas_crowd::pool::PoolConfig {
            latency: cdas_crowd::arrival::LatencyModel::Exponential { mean: 5.0 },
            ..cdas_crowd::pool::PoolConfig::clean(pool_size, accuracy, seed)
        });
        let ledger = PoolLedger::from_pool(&pool);
        (
            SimulatedPlatform::new(pool, CostModel::default(), seed),
            ledger,
        )
    }

    #[test]
    fn clocked_run_advances_simulated_time_and_keeps_quality() {
        let (mut platform, ledger) = staggered_setup(20, 0.8, 9);
        let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
        for name in ["a", "b"] {
            scheduler.submit(
                ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(10, 3))
                    .with_engine(fixed_engine(7))
                    .with_batch_size(5),
            );
        }
        let report = scheduler.run_clocked(&mut platform).unwrap();
        assert_eq!(report.fleet.questions, 20);
        assert!(report.fleet.accuracy > 0.7);
        assert!(report.makespan > 0.0, "simulated time passed");
        assert!(report.questions_per_minute() > 0.0);
        for job in &report.jobs {
            assert!(job.completed_at > 0.0);
            assert!(job.completed_at <= report.makespan + 1e-9);
            let first = job.time_to_first_verdict.expect("verdicts were produced");
            assert!(first <= job.completed_at);
        }
        // Dispatches carry their simulated time, monotonically within each job.
        for d in &report.dispatches {
            assert!(d.at >= 0.0);
        }
        let max_at = report.dispatches.iter().map(|d| d.at).fold(0.0, f64::max);
        assert!(max_at > 0.0, "later batches dispatch later than time zero");
    }

    #[test]
    fn clocked_termination_shortens_makespan_and_reclaims_minutes() {
        // A 9-worker pool and two 7-worker jobs: only one HIT fits in flight, so job B
        // can only start when job A's batch releases its lease. With early termination
        // that happens mid-flight — strictly earlier than the batch's natural makespan.
        let run = |termination: Option<TerminationStrategy>| {
            let (mut platform, ledger) = staggered_setup(9, 0.9, 33);
            let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
            for name in ["a", "b"] {
                scheduler.submit(
                    ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(6, 3))
                        .with_engine(EngineConfig {
                            termination,
                            ..fixed_engine(7)
                        })
                        .with_batch_size(9),
                );
            }
            let report = scheduler.run_clocked(&mut platform).unwrap();
            let platform_cost = platform.total_cost();
            (report, platform_cost)
        };
        use cdas_core::online::TerminationStrategy;
        let (baseline, baseline_cost) = run(None);
        let (early, early_cost) = run(Some(TerminationStrategy::ExpMax));
        assert_eq!(baseline.reclaimed_minutes, 0.0);
        assert!(early.reclaimed_minutes > 0.0, "leases came back mid-flight");
        assert!(early.answers_cancelled > 0);
        assert!(
            early.makespan < baseline.makespan,
            "termination makespan {} must beat the end-of-time {}",
            early.makespan,
            baseline.makespan
        );
        assert!(early.fleet.cost < baseline.fleet.cost, "real savings");
        // Engine-side accounting agrees with the platform ledger in both modes.
        assert!((early.fleet.cost - early_cost).abs() < 1e-9);
        assert!((baseline.fleet.cost - baseline_cost).abs() < 1e-9);
    }

    #[test]
    fn clocked_runs_are_deterministic_for_a_seed() {
        let run = || {
            let (mut platform, ledger) = staggered_setup(25, 0.8, 11);
            let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
            for name in ["x", "y"] {
                scheduler.submit(
                    ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(8, 2))
                        .with_engine(fixed_engine(7))
                        .with_batch_size(5),
                );
            }
            scheduler.run_clocked(&mut platform).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.dispatches, b.dispatches);
        assert_eq!(a.fleet, b.fleet);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn three_jobs_complete_over_one_pool() {
        let (mut platform, ledger) = setup(20, 9);
        let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
        for name in ["a", "b", "c"] {
            scheduler.submit(
                ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(12, 3))
                    .with_engine(fixed_engine(7))
                    .with_batch_size(5),
            );
        }
        let report = scheduler.run(&mut platform).unwrap();
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.fleet.questions, 36, "3 jobs × 12 real questions");
        for job in &report.jobs {
            assert!(job.hits >= 3, "{} ran in batches", job.name);
            assert!(job.report.accuracy > 0.8, "{} accuracy", job.name);
            assert!(job.distinct_workers >= 7);
        }
        // A 20-worker pool fits only two 7-worker HITs at once: contention happened.
        assert!(
            report.jobs.iter().any(|j| j.ticks_waited > 0),
            "expected at least one job to wait for the pool"
        );
        assert!(report.ticks > 1);
        assert!(report.registry_size > 0);
    }

    #[test]
    fn concurrent_leases_never_share_a_worker() {
        let (mut platform, ledger) = setup(30, 5);
        let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
        for name in ["a", "b", "c"] {
            scheduler.submit(
                ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(10, 2))
                    .with_engine(fixed_engine(9))
                    .with_batch_size(4),
            );
        }
        let report = scheduler.run(&mut platform).unwrap();
        // Group dispatches by tick; concurrently in-flight worker sets must be disjoint.
        for a in &report.dispatches {
            for b in &report.dispatches {
                if a.tick == b.tick && (a.job, a.hit) != (b.job, b.hit) {
                    assert!(
                        a.workers.iter().all(|w| !b.workers.contains(w)),
                        "tick {}: jobs {:?} and {:?} share a worker",
                        a.tick,
                        a.job,
                        b.job
                    );
                }
            }
            // And within one HIT every worker appears once.
            let mut ids: Vec<u64> = a.workers.iter().map(|w| w.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), a.workers.len());
        }
    }

    #[test]
    fn priority_jobs_drain_first_when_the_pool_fits_one_hit() {
        let (mut platform, ledger) = setup(10, 3);
        let mut scheduler = JobScheduler::new(
            SchedulerConfig {
                policy: DispatchPolicy::Priority,
                ..SchedulerConfig::default()
            },
            ledger,
        );
        let low = scheduler.submit(
            ScheduledJob::named(JobKind::SentimentAnalytics, "low", demo_questions(9, 3))
                .with_engine(fixed_engine(7))
                .with_batch_size(4)
                .with_priority(1),
        );
        let high = scheduler.submit(
            ScheduledJob::named(JobKind::ImageTagging, "high", demo_questions(9, 3))
                .with_engine(fixed_engine(7))
                .with_batch_size(4)
                .with_priority(9),
        );
        let report = scheduler.run(&mut platform).unwrap();
        let last_high = report
            .dispatches
            .iter()
            .filter(|d| d.job == high)
            .map(|d| d.tick)
            .max()
            .unwrap();
        let first_low = report
            .dispatches
            .iter()
            .filter(|d| d.job == low)
            .map(|d| d.tick)
            .min()
            .unwrap();
        assert!(
            last_high < first_low,
            "high-priority job must fully drain first (high last tick {last_high}, low first tick {first_low})"
        );
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let run = || {
            let (mut platform, ledger) = setup(25, 11);
            let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
            for name in ["x", "y"] {
                scheduler.submit(
                    ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(8, 2))
                        .with_engine(fixed_engine(7))
                        .with_batch_size(5),
                );
            }
            scheduler.run(&mut platform).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.dispatches, b.dispatches);
        assert_eq!(a.fleet, b.fleet);
        assert_eq!(a.ticks, b.ticks);
    }

    #[test]
    fn oversized_job_is_rejected_up_front() {
        let (mut platform, ledger) = setup(5, 1);
        let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
        scheduler.submit(
            ScheduledJob::named(JobKind::SentimentAnalytics, "huge", demo_questions(4, 1))
                .with_engine(fixed_engine(9)),
        );
        match scheduler.run(&mut platform) {
            Err(CdasError::PoolExhausted { needed, available }) => {
                assert_eq!(needed, 9);
                assert_eq!(available, 5);
            }
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
    }

    #[test]
    fn empty_scheduler_reports_an_empty_fleet() {
        let (mut platform, ledger) = setup(5, 1);
        let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
        let report = scheduler.run(&mut platform).unwrap();
        assert!(report.jobs.is_empty());
        assert_eq!(report.ticks, 0);
        assert_eq!(report.fleet.questions, 0);
    }

    #[test]
    fn one_shard_parallel_run_matches_run_clocked_byte_for_byte() {
        // The tentpole regression: `run_clocked` is the one-shard special case of the
        // parallel code path. Identical pools, seeds and jobs must produce identical
        // reports — dispatch timeline, verdict metrics, shard rollup, everything except
        // host wall-clock timing.
        let submit_jobs = |scheduler: &mut JobScheduler| {
            for name in ["a", "b", "c"] {
                scheduler.submit(
                    ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(10, 3))
                        .with_engine(fixed_engine(7))
                        .with_batch_size(5),
                );
            }
        };
        let pool = || {
            WorkerPool::generate(&cdas_crowd::pool::PoolConfig {
                latency: cdas_crowd::arrival::LatencyModel::Exponential { mean: 5.0 },
                ..cdas_crowd::pool::PoolConfig::clean(20, 0.8, 9)
            })
        };

        let mut sequential_platform = SimulatedPlatform::new(pool(), CostModel::default(), 9);
        let mut sequential =
            JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool()));
        submit_jobs(&mut sequential);
        let clocked = sequential.run_clocked(&mut sequential_platform).unwrap();

        let mut sharded =
            cdas_crowd::sharded::ShardedPlatform::split(&pool(), CostModel::default(), 9, 1);
        let mut parallel =
            JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool()));
        submit_jobs(&mut parallel);
        let par = parallel.run_parallel(&mut sharded).unwrap();

        assert_eq!(
            clocked.ignoring_wall_clock(),
            par.ignoring_wall_clock(),
            "1-shard run_parallel must be run_clocked"
        );
        assert_eq!(par.shards.len(), 1);
        assert_eq!(par.parallel_speedup(), 1.0);
        // The platform-side simulations agree too.
        assert!(
            (sequential_platform.total_cost() - sharded.total_cost()).abs() < 1e-12,
            "identical simulations must charge identically"
        );
    }

    #[test]
    fn parallel_fleet_spreads_jobs_over_shards() {
        let pool = WorkerPool::generate(&cdas_crowd::pool::PoolConfig {
            latency: cdas_crowd::arrival::LatencyModel::Exponential { mean: 5.0 },
            ..cdas_crowd::pool::PoolConfig::clean(32, 0.8, 21)
        });
        let mut platform =
            cdas_crowd::sharded::ShardedPlatform::split(&pool, CostModel::default(), 21, 4);
        let mut scheduler =
            JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool));
        for i in 0..8 {
            scheduler.submit(
                ScheduledJob::named(JobKind::SentimentAnalytics, format!("job-{i}"), {
                    demo_questions(8, 2)
                })
                .with_engine(fixed_engine(7))
                .with_batch_size(5),
            );
        }
        let report = scheduler.run_parallel(&mut platform).unwrap();
        assert_eq!(report.jobs.len(), 8);
        assert_eq!(report.shards.len(), 4);
        // Round-robin striping: shard s owns jobs s and s + 4.
        for (s, shard) in report.shards.iter().enumerate() {
            assert_eq!(shard.shard, s);
            assert_eq!(shard.jobs, vec![JobId(s), JobId(s + 4)]);
            assert_eq!(
                shard.questions, 16,
                "each shard resolved its jobs' questions"
            );
            assert!(shard.ticks > 0);
            assert!(shard.makespan > 0.0);
        }
        assert_eq!(report.fleet.questions, 64);
        assert!(report.fleet.accuracy > 0.7, "{}", report.fleet.accuracy);
        assert_eq!(
            report.ticks,
            report.shards.iter().map(|s| s.ticks).sum::<usize>()
        );
        let max_shard_makespan = report.shards.iter().map(|s| s.makespan).fold(0.0, f64::max);
        assert_eq!(report.makespan, max_shard_makespan);
        // Every job completed and is reassembled in submission order.
        for (i, job) in report.jobs.iter().enumerate() {
            assert_eq!(job.job, JobId(i));
            assert_eq!(job.report.questions, 8);
        }
        // Dispatch timeline: HIT ids are globally unique (disjoint shard namespaces) and
        // sorted by simulated time.
        let mut hits: Vec<u64> = report.dispatches.iter().map(|d| d.hit.0).collect();
        let total = hits.len();
        hits.sort_unstable();
        hits.dedup();
        assert_eq!(hits.len(), total, "two shards minted the same HIT id");
        assert!(report.dispatches.windows(2).all(|w| w[0].at <= w[1].at));
        // Workers served at most one shard: each job's distinct workers lie inside its
        // shard's roster.
        for (j, job) in report.jobs.iter().enumerate() {
            let shard = &platform.shards()[j % 4];
            for d in report.dispatches.iter().filter(|d| d.job == job.job) {
                assert!(d.workers.iter().all(|w| shard.roster().contains(w)));
            }
        }
    }

    #[test]
    fn parallel_runs_are_deterministic_per_shard() {
        // Shards are independent deterministic simulations; two identical parallel runs
        // must agree on every job report and the final registry, whatever the thread
        // interleaving did to the cross-shard read timing of *means* (the jobs here all
        // carry gold questions, so verification never consults a cross-shard mean).
        let run = || {
            let pool = WorkerPool::generate(&cdas_crowd::pool::PoolConfig {
                latency: cdas_crowd::arrival::LatencyModel::Exponential { mean: 5.0 },
                ..cdas_crowd::pool::PoolConfig::clean(24, 0.8, 5)
            });
            let mut platform =
                cdas_crowd::sharded::ShardedPlatform::split(&pool, CostModel::default(), 5, 3);
            let mut scheduler =
                JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool));
            for i in 0..6 {
                scheduler.submit(
                    ScheduledJob::named(
                        JobKind::SentimentAnalytics,
                        format!("j{i}"),
                        demo_questions(6, 2),
                    )
                    .with_engine(fixed_engine(7))
                    .with_batch_size(4),
                );
            }
            let report = scheduler.run_parallel(&mut platform).unwrap();
            (report, scheduler.shared_registry().snapshot())
        };
        let (a, registry_a) = run();
        let (b, registry_b) = run();
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.dispatches, b.dispatches);
        assert_eq!(a.fleet, b.fleet);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(registry_a, registry_b);
    }

    #[test]
    fn oversized_job_for_its_shard_is_rejected_up_front() {
        // 8 workers per shard after a 2-way split of 16: a 9-worker job fit the pool but
        // not its shard.
        let pool = WorkerPool::generate(&cdas_crowd::pool::PoolConfig::clean(16, 0.8, 2));
        let mut platform =
            cdas_crowd::sharded::ShardedPlatform::split(&pool, CostModel::default(), 2, 2);
        let mut scheduler =
            JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool));
        scheduler.submit(
            ScheduledJob::named(JobKind::SentimentAnalytics, "wide", demo_questions(4, 1))
                .with_engine(fixed_engine(9)),
        );
        match scheduler.run_parallel(&mut platform) {
            Err(CdasError::PoolExhausted { needed, available }) => {
                assert_eq!(needed, 9);
                assert_eq!(available, 8);
            }
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
    }

    #[test]
    fn externally_leased_workers_are_excluded_from_parallel_shards() {
        // The parent ledger is a concurrent table: workers checked out through another
        // handle when run_parallel starts must not be leased again by any shard thread.
        let pool = WorkerPool::generate(&cdas_crowd::pool::PoolConfig::clean(24, 0.8, 6));
        let ledger = PoolLedger::from_pool(&pool);
        let external = ledger.clone();
        let mut rng = StdRng::seed_from_u64(99);
        let held = external.try_lease(4, &mut rng).expect("external lease");

        let mut platform =
            cdas_crowd::sharded::ShardedPlatform::split(&pool, CostModel::default(), 6, 2);
        let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
        for name in ["a", "b"] {
            scheduler.submit(
                ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(6, 2))
                    .with_engine(fixed_engine(5)),
            );
        }
        let report = scheduler.run_parallel(&mut platform).unwrap();
        assert_eq!(report.fleet.questions, 12, "the fleet still completed");
        for dispatch in &report.dispatches {
            for w in held.workers() {
                assert!(
                    !dispatch.workers.contains(w),
                    "externally leased worker {w:?} was double-assigned by a shard"
                );
            }
        }
    }

    #[test]
    fn more_shards_than_jobs_leaves_trailing_shards_idle() {
        let pool = WorkerPool::generate(&cdas_crowd::pool::PoolConfig::clean(32, 0.8, 4));
        let mut platform =
            cdas_crowd::sharded::ShardedPlatform::split(&pool, CostModel::default(), 4, 4);
        let mut scheduler =
            JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool));
        scheduler.submit(
            ScheduledJob::named(JobKind::SentimentAnalytics, "only", demo_questions(6, 2))
                .with_engine(fixed_engine(5)),
        );
        let report = scheduler.run_parallel(&mut platform).unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.shards[0].questions, 6);
        for idle in &report.shards[1..] {
            assert_eq!(idle.questions, 0);
            assert_eq!(idle.ticks, 0);
            assert!(idle.jobs.is_empty());
        }
    }

    /// A platform whose event stream never dries up: `next_arrival` always promises a
    /// future event, so an untermenable batch stays in flight until the scheduler's
    /// stall valve fires — the regression scenario for lease leaks on the error path.
    struct NeverDraining {
        inner: SimulatedPlatform,
        fake_next: std::cell::Cell<f64>,
        cancels: std::cell::Cell<usize>,
    }

    impl CrowdPlatform for NeverDraining {
        fn publish(&mut self, request: cdas_crowd::hit::HitRequest) -> HitId {
            self.inner.publish(request)
        }
        fn publish_to(
            &mut self,
            request: cdas_crowd::hit::HitRequest,
            workers: &[WorkerId],
        ) -> HitId {
            self.inner.publish_to(request, workers)
        }
        fn advance_time(&mut self, now: f64) {
            self.inner.advance_time(now);
        }
        fn poll(&mut self, hit: HitId, now: f64) -> Vec<cdas_crowd::platform::WorkerAnswer> {
            self.inner.poll(hit, now)
        }
        fn next_arrival(&self, hit: HitId) -> Option<f64> {
            let real = self.inner.next_arrival(hit);
            let fake = self.fake_next.get() + 1.0;
            self.fake_next.set(fake);
            Some(real.unwrap_or(fake))
        }
        fn cancel(&mut self, hit: HitId, now: f64) -> cdas_crowd::platform::CancelReceipt {
            self.cancels.set(self.cancels.get() + 1);
            self.inner.cancel(hit, now)
        }
        fn total_cost(&self) -> f64 {
            self.inner.total_cost()
        }
    }

    #[test]
    fn stalled_clocked_fleet_leaves_the_ledger_empty_and_cancels_its_hits() {
        // Regression for the lease leak: `run_clocked` used to release leases only on
        // the happy path, so an early `?` return (here: SchedulerStalled from the stall
        // valve) stranded the in-flight batch's workers. With RAII guards the ledger
        // must come back whole, and the error teardown must cancel the orphaned HIT so
        // the platform stops charging for it.
        let pool = WorkerPool::generate(&PoolConfig::clean(10, 0.8, 13));
        let mut platform = NeverDraining {
            inner: SimulatedPlatform::new(pool.clone(), CostModel::default(), 13),
            fake_next: std::cell::Cell::new(0.0),
            cancels: std::cell::Cell::new(0),
        };
        let ledger = PoolLedger::from_pool(&pool);
        let observer = ledger.clone();
        let mut scheduler = JobScheduler::new(
            SchedulerConfig {
                max_ticks: 40,
                ..SchedulerConfig::default()
            },
            ledger,
        );
        scheduler.submit(
            ScheduledJob::named(JobKind::SentimentAnalytics, "stuck", demo_questions(4, 1))
                .with_engine(fixed_engine(7)),
        );
        match scheduler.run_clocked(&mut platform) {
            Err(CdasError::SchedulerStalled { .. }) => {}
            other => panic!("expected SchedulerStalled, got {other:?}"),
        }
        assert_eq!(
            observer.leased(),
            0,
            "the stalled batch's lease must have been released"
        );
        assert_eq!(observer.outstanding_leases(), 0);
        assert_eq!(observer.available(), 10, "the whole roster is back");
        assert!(
            platform.cancels.get() >= 1,
            "the orphaned in-flight HIT was cancelled during teardown"
        );
    }

    #[test]
    fn shared_registry_survives_for_a_second_fleet() {
        let (mut platform, ledger) = setup(15, 21);
        let mut first = JobScheduler::new(SchedulerConfig::default(), ledger.clone());
        first.submit(
            ScheduledJob::named(JobKind::SentimentAnalytics, "wave-1", demo_questions(6, 4))
                .with_engine(fixed_engine(7)),
        );
        first.run(&mut platform).unwrap();
        let carried = first.shared_registry().clone();
        assert!(!carried.is_empty());

        let mut second =
            JobScheduler::with_shared_registry(SchedulerConfig::default(), ledger, carried.clone());
        // Wave 2 has no gold questions at all: every estimate it verifies with was
        // learned by wave 1.
        let id = second.submit(
            ScheduledJob::named(JobKind::ImageTagging, "wave-2", demo_questions(6, 0))
                .with_engine(fixed_engine(7)),
        );
        let report = second.run(&mut platform).unwrap();
        assert!(report.fleet.accuracy > 0.5);
        let outcome = second.outcomes(id)[0].1;
        assert!(!outcome.registry.is_empty());
        assert!(outcome.registry.iter().all(|(_, e)| e.samples > 0));
    }
}
