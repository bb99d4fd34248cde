//! The front door of CDAS: a [`Fleet`] facade over the crowd, the engine and the
//! scheduler.
//!
//! CDAS is pitched as a *system* users hand a job to, yet the layers beneath this module
//! — [`WorkerPool`](cdas_crowd::pool::WorkerPool) →
//! [`SimulatedPlatform`](cdas_crowd::SimulatedPlatform) /
//! [`ShardedPlatform`] →
//! [`PoolLedger`](cdas_crowd::lease::PoolLedger) → [`JobScheduler`] →
//! [`ScheduledJob`] — ask every caller to hand-wire five structs and pick one of three
//! divergent entry points (`run` / `run_clocked` / `run_parallel`). The facade collapses
//! that into three moves:
//!
//! 1. **describe the crowd once** with a [`CrowdSpec`] and build the fleet with the
//!    typestate [`FleetBuilder`] (a fleet without a crowd does not compile, and
//!    misconfigurations — empty crowd, zero workers, more shards than workers — are typed
//!    [`CdasError`]s, not panics),
//! 2. **submit [`JobSpec`]s** whose settings layer over the fleet's defaults
//!    (fleet [`engine defaults`](FleetBuilder::engine_defaults) → per-job overrides), and
//! 3. **call [`Fleet::run`] with one [`ExecutionMode`]** — `EndOfTime`, `Clocked` or
//!    `Parallel { shards }` — which dispatches to the existing scheduler paths. Those
//!    paths remain public as the advanced layer; the facade adds no second engine room.
//!
//! [`Fleet::run`] returns a [`FleetRun`]: the familiar [`FleetReport`] plus a **streaming
//! side** — an ordered list of [`FleetEvent`]s (job started, HIT dispatched, first
//! verdict, question terminated, lease reclaimed, job completed) fed from the
//! [`DispatchRecord`](crate::scheduler::DispatchRecord) timeline and per-batch outcome data the scheduler already produces,
//! so monitoring no longer requires post-hoc report spelunking.
//!
//! A fleet is **re-runnable**: every `run` derives a fresh platform, ledger and registry
//! from the spec, so the same fleet can be executed under several modes over bit-identical
//! crowds and the reports compared (the integration tests pin `run(Clocked)` equal to a
//! hand-wired [`JobScheduler::run_clocked`] via
//! [`FleetReport::ignoring_wall_clock`]).
//!
//! ```
//! use cdas_crowd::spec::CrowdSpec;
//! use cdas_engine::fixtures::demo_questions;
//! use cdas_engine::fleet::{ExecutionMode, Fleet, JobSpec};
//! use cdas_engine::scheduler::DispatchPolicy;
//!
//! let mut fleet = Fleet::builder()
//!     .crowd(CrowdSpec::clean(16, 0.85).seed(7))
//!     .policy(DispatchPolicy::Priority)
//!     .build()
//!     .unwrap();
//! fleet.submit(JobSpec::sentiment("demo", demo_questions(10, 2)).workers(5)).unwrap();
//! let run = fleet.run(ExecutionMode::EndOfTime).unwrap();
//! assert_eq!(run.report().fleet.questions, 10);
//! assert!(run.verdicts().count() == 10, "one streamed verdict per real question");
//! ```

#![deny(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cdas_core::online::TerminationStrategy;
use cdas_core::types::{HitId, QuestionId};
use cdas_core::verification::Verdict;
use cdas_core::{CdasError, Result};
use cdas_crowd::failpoint::{Failpoint, FailpointPlatform};
use cdas_crowd::platform::CrowdPlatform;
use cdas_crowd::question::CrowdQuestion;
use cdas_crowd::sharded::ShardedPlatform;
use cdas_crowd::spec::CrowdSpec;
use serde::{Deserialize, Serialize};

use crate::engine::{CrowdsourcingEngine, EngineConfig, VerificationStrategy, WorkerCountPolicy};
use crate::job_manager::{AnalyticsJob, JobKind, ProcessingPlan};
use crate::journal::recovery::{JournalReplay, JournalSink, RecoveryObserver};
use crate::journal::{Journal, JournalConfig, JournalRecord, RecoveryReport, RunConfig};
use crate::metrics::FleetReport;
use crate::scheduler::{
    ArrivalDiscovery, DispatchPolicy, JobId, JobScheduler, RunObserver, ScheduledJob,
    SchedulerConfig,
};

/// How [`Fleet::run`] executes the submitted jobs. All three modes drive the same
/// scheduler over the same crowd — they differ only in how time and threads are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Poll every batch at the end of time ([`JobScheduler::run`]): ticks are dispatch
    /// rounds, not time. The fastest mode; no latency or makespan is simulated.
    EndOfTime,
    /// Discrete-event simulated time ([`JobScheduler::run_clocked`]): answers arrive
    /// under the crowd's latency model, early-terminated HITs are cancelled mid-flight,
    /// and the report carries makespan / time-to-first-verdict / reclaimed minutes.
    Clocked,
    /// The clocked loop across OS threads ([`JobScheduler::run_parallel`]), one thread
    /// per platform shard. `Parallel { shards: 1 }` reproduces [`Clocked`](Self::Clocked)
    /// byte for byte (host wall-clock aside).
    Parallel {
        /// How many shards (= OS threads) to split the crowd into. Must satisfy
        /// `1 <= shards <= worker count` or the run fails with
        /// [`CdasError::InvalidShardCount`].
        shards: usize,
    },
}

/// One analytics job as the facade accepts it: what to ask the crowd, plus *optional*
/// overrides that layer over the fleet's defaults. Anything left unset falls through to
/// the fleet ([`FleetBuilder::engine_defaults`] / [`FleetBuilder::batch_size`]) and from
/// there to the engine defaults derived from the job's own query — the same derivation
/// [`ScheduledJob::named`] has always used, so a facade job and a hand-wired job resolve
/// to identical [`ScheduledJob`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    kind: JobKind,
    name: String,
    questions: Vec<CrowdQuestion>,
    analytics: Option<AnalyticsJob>,
    priority: u8,
    batch_size: Option<usize>,
    engine: Option<EngineConfig>,
    workers: Option<WorkerCountPolicy>,
    verification: Option<VerificationStrategy>,
    termination: Option<Option<TerminationStrategy>>,
    required_accuracy: Option<f64>,
    domain_size: Option<Option<usize>>,
    deadline_minutes: Option<f64>,
}

impl JobSpec {
    /// A job of the given kind over pre-rendered crowd questions (gold flagged).
    pub fn new(kind: JobKind, name: impl Into<String>, questions: Vec<CrowdQuestion>) -> Self {
        JobSpec {
            kind,
            name: name.into(),
            questions,
            analytics: None,
            priority: 0,
            batch_size: None,
            engine: None,
            workers: None,
            verification: None,
            termination: None,
            required_accuracy: None,
            domain_size: None,
            deadline_minutes: None,
        }
    }

    /// A Twitter-sentiment job ([`JobKind::SentimentAnalytics`]).
    pub fn sentiment(name: impl Into<String>, questions: Vec<CrowdQuestion>) -> Self {
        Self::new(JobKind::SentimentAnalytics, name, questions)
    }

    /// An image-tagging job ([`JobKind::ImageTagging`]).
    pub fn tagging(name: impl Into<String>, questions: Vec<CrowdQuestion>) -> Self {
        Self::new(JobKind::ImageTagging, name, questions)
    }

    /// A job derived from a registered [`AnalyticsJob`] and its §2.1 [`ProcessingPlan`]:
    /// the engine configuration and batch size come from the plan, exactly as
    /// [`crate::job_manager::JobManager::schedule`] derives them.
    pub fn from_plan(
        job: AnalyticsJob,
        plan: &ProcessingPlan,
        questions: Vec<CrowdQuestion>,
    ) -> Self {
        let mut spec = Self::new(job.kind, job.name.clone(), questions);
        spec.engine = Some(plan.engine_config());
        spec.batch_size = Some(plan.human.sampling.batch_size());
        spec.analytics = Some(job);
        spec
    }

    /// Request a fixed worker count per HIT ([`WorkerCountPolicy::Fixed`]).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(WorkerCountPolicy::Fixed(n));
        self
    }

    /// Request an explicit worker-count policy (e.g. the prediction model's `g(C)`).
    pub fn worker_policy(mut self, policy: WorkerCountPolicy) -> Self {
        self.workers = Some(policy);
        self
    }

    /// Override the verification strategy.
    pub fn verification(mut self, verification: VerificationStrategy) -> Self {
        self.verification = Some(verification);
        self
    }

    /// Enable online early termination with the given strategy.
    pub fn termination(mut self, termination: TerminationStrategy) -> Self {
        self.termination = Some(Some(termination));
        self
    }

    /// Disable early termination (wait for all answers), even if the fleet's engine
    /// defaults enable it.
    pub fn no_termination(mut self) -> Self {
        self.termination = Some(None);
        self
    }

    /// Override the user-required accuracy `C`.
    pub fn required_accuracy(mut self, required: f64) -> Self {
        self.required_accuracy = Some(required);
        self
    }

    /// Fix the answer-domain size `m` (e.g. 3 for sentiment).
    pub fn domain_size(mut self, m: usize) -> Self {
        self.domain_size = Some(Some(m));
        self
    }

    /// Estimate the answer-domain size per observation instead of fixing it.
    pub fn estimated_domain_size(mut self) -> Self {
        self.domain_size = Some(None);
        self
    }

    /// Override the questions-per-HIT batch size `B`.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size);
        self
    }

    /// Set the dispatch priority (higher drains first under
    /// [`DispatchPolicy::Priority`]).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Replace the *whole* engine configuration. Field-level overrides
    /// ([`workers`](Self::workers), [`termination`](Self::termination), …) still apply on
    /// top of it.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Ask the service layer ([`crate::service::FleetService`]) to finish this job
    /// within the given simulated-minutes deadline. Admission control rejects the job
    /// outright when even an idle crowd could not meet it, and queues (rather than
    /// accepts) it while the live mix would push its predicted makespan past it. A
    /// plain [`Fleet`] run ignores the deadline.
    pub fn deadline_minutes(mut self, minutes: f64) -> Self {
        self.deadline_minutes = Some(minutes);
        self
    }

    /// The service-level deadline, if one was requested.
    pub fn deadline(&self) -> Option<f64> {
        self.deadline_minutes
    }

    /// The job's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many crowd questions (gold included) the job carries.
    pub fn question_count(&self) -> usize {
        self.questions.len()
    }

    /// Resolve the layered configuration into the [`ScheduledJob`] the scheduler runs:
    /// job override → fleet default → the query-derived default.
    fn resolve(&self, defaults: &FleetDefaults) -> Result<ScheduledJob> {
        if self.questions.is_empty() {
            return Err(CdasError::EmptyJob {
                name: self.name.clone(),
            });
        }
        let batch_size = self.batch_size.or(defaults.batch_size);
        if batch_size == Some(0) {
            return Err(CdasError::NonPositive { what: "batch size" });
        }
        let mut scheduled = match &self.analytics {
            Some(job) => ScheduledJob::new(job.clone(), self.questions.clone()),
            None => ScheduledJob::named(self.kind, self.name.clone(), self.questions.clone()),
        };
        let mut engine = self
            .engine
            .clone()
            .or_else(|| defaults.engine.clone())
            .unwrap_or_else(|| scheduled.engine.clone());
        if let Some(workers) = self.workers {
            engine.workers = workers;
        }
        if let Some(verification) = self.verification {
            engine.verification = verification;
        }
        if let Some(termination) = self.termination {
            engine.termination = termination;
        }
        if let Some(required) = self.required_accuracy {
            engine.required_accuracy = required;
        }
        if let Some(domain_size) = self.domain_size {
            engine.domain_size = domain_size;
        }
        scheduled = scheduled.with_engine(engine).with_priority(self.priority);
        if let Some(batch_size) = batch_size {
            scheduled = scheduled.with_batch_size(batch_size);
        }
        Ok(scheduled)
    }

    /// Resolve against *empty* fleet defaults — the resolution a fleet without
    /// [`FleetBuilder::engine_defaults`] / [`FleetBuilder::batch_size`] performs. The
    /// service layer admits jobs before any fleet exists, so it predicts from exactly
    /// the [`ScheduledJob`] a default-configured epoch fleet will run.
    pub(crate) fn resolve_default(&self) -> Result<ScheduledJob> {
        self.resolve(&FleetDefaults::default())
    }
}

impl From<ScheduledJob> for JobSpec {
    /// Lift a hand-wired [`ScheduledJob`] into the facade unchanged: resolving the
    /// returned spec reproduces the original job exactly, whatever the fleet defaults.
    fn from(scheduled: ScheduledJob) -> Self {
        let mut spec = Self::new(
            scheduled.job.kind,
            scheduled.job.name.clone(),
            scheduled.questions,
        );
        spec.analytics = Some(scheduled.job);
        spec.engine = Some(scheduled.engine);
        spec.batch_size = Some(scheduled.batch_size);
        spec.priority = scheduled.priority;
        spec
    }
}

/// Fleet-wide defaults a [`JobSpec`] falls back to when it does not override a setting.
#[derive(Debug, Clone, PartialEq, Default)]
struct FleetDefaults {
    engine: Option<EngineConfig>,
    batch_size: Option<usize>,
}

/// Typestate marker: the builder has no crowd yet, so [`FleetBuilder::build`] does not
/// exist — a fleet without workers is unrepresentable at compile time.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeedsCrowd;

/// The typestate builder behind [`Fleet::builder`].
///
/// Starts as `FleetBuilder<NeedsCrowd>`; [`crowd`](Self::crowd) moves it to
/// `FleetBuilder<CrowdSpec>`, on which [`build`](Self::build) becomes available. Every
/// other knob is callable in either state, so the call order is free.
#[derive(Debug, Clone)]
pub struct FleetBuilder<Crowd = NeedsCrowd> {
    crowd: Crowd,
    scheduler: SchedulerConfig,
    shards: usize,
    defaults: FleetDefaults,
    jobs: Vec<JobSpec>,
    journal: Option<PathBuf>,
    journal_config: JournalConfig,
}

impl Default for FleetBuilder<NeedsCrowd> {
    fn default() -> Self {
        FleetBuilder {
            crowd: NeedsCrowd,
            scheduler: SchedulerConfig::default(),
            shards: 1,
            defaults: FleetDefaults::default(),
            jobs: Vec::new(),
            journal: None,
            journal_config: JournalConfig::default(),
        }
    }
}

impl FleetBuilder<NeedsCrowd> {
    /// Describe the crowd this fleet runs against. This is the one mandatory builder
    /// step: it moves the builder into the buildable state.
    pub fn crowd(self, spec: CrowdSpec) -> FleetBuilder<CrowdSpec> {
        FleetBuilder {
            crowd: spec,
            scheduler: self.scheduler,
            shards: self.shards,
            defaults: self.defaults,
            jobs: self.jobs,
            journal: self.journal,
            journal_config: self.journal_config,
        }
    }
}

impl<Crowd> FleetBuilder<Crowd> {
    /// Set the dispatch policy (default [`DispatchPolicy::RoundRobin`]).
    pub fn policy(mut self, policy: DispatchPolicy) -> Self {
        self.scheduler.policy = policy;
        self
    }

    /// Set the *scheduler's* lease-selection RNG seed (default 42, matching
    /// [`SchedulerConfig::default`]). This is deliberately not called `seed`: the crowd's
    /// seed lives on the [`CrowdSpec`] (`CrowdSpec::seed`), and the two drive different
    /// RNGs — one shuffles lease checkout, the other generates the worker population.
    pub fn scheduler_seed(mut self, seed: u64) -> Self {
        self.scheduler.seed = seed;
        self
    }

    /// Set the scheduler's stall valve (default [`SchedulerConfig::default`]'s).
    pub fn max_ticks(mut self, max_ticks: usize) -> Self {
        self.scheduler.max_ticks = max_ticks;
        self
    }

    /// Set how the clocked loops discover the next arrival event (default
    /// [`ArrivalDiscovery::Heap`]). [`ArrivalDiscovery::Scan`] is the pre-heap
    /// per-tick scan, retained as the differential-test oracle the heap is checked
    /// against; both produce bit-identical reports.
    pub fn arrival_discovery(mut self, discovery: ArrivalDiscovery) -> Self {
        self.scheduler.discovery = discovery;
        self
    }

    /// Set the default shard count [`Fleet::run_parallel`] uses (default 1; validated
    /// against the crowd at [`build`](FleetBuilder::build), and above 1 it tightens
    /// [`Fleet::submit`]'s feasibility check to each job's shard roster).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the fleet-wide default [`EngineConfig`] jobs layer their overrides onto.
    /// Without one, each job derives its engine defaults from its own query, exactly as
    /// [`ScheduledJob::named`] does.
    pub fn engine_defaults(mut self, engine: EngineConfig) -> Self {
        self.defaults.engine = Some(engine);
        self
    }

    /// Set the fleet-wide default batch size `B` (without one, jobs default to
    /// [`ScheduledJob`]'s 20).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.defaults.batch_size = Some(batch_size);
        self
    }

    /// Journal every run of this fleet into the given directory: a write-ahead,
    /// CRC-checked [`Journal`] of the run's configuration, dispatches, charges, batch
    /// commits and events, from which [`Fleet::recover`] can resume a half-finished run.
    /// [`Fleet::run`] wipes any previous run's segments from the directory first — one
    /// directory holds one run.
    pub fn journal(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal = Some(dir.into());
        self
    }

    /// Tune the journal ([`JournalConfig`]: segment size, fsync policy, and the
    /// byte-level write-kill failpoint the durability tests use). Only meaningful
    /// together with [`journal`](Self::journal).
    pub fn journal_config(mut self, config: JournalConfig) -> Self {
        self.journal_config = config;
        self
    }

    /// Queue a job for submission at [`build`](FleetBuilder::build) time. Jobs can also
    /// be submitted after building via [`Fleet::submit`].
    pub fn job(mut self, job: JobSpec) -> Self {
        self.jobs.push(job);
        self
    }

    /// Queue several jobs at once.
    pub fn jobs(mut self, jobs: impl IntoIterator<Item = JobSpec>) -> Self {
        self.jobs.extend(jobs);
        self
    }
}

impl FleetBuilder<CrowdSpec> {
    /// Validate the configuration and assemble the [`Fleet`].
    ///
    /// Misconfigurations come back as typed errors instead of panics or silent
    /// misbehaviour later: a crowd with no workers is [`CdasError::EmptyFleet`], an
    /// unservable shard count is [`CdasError::InvalidShardCount`], a job without
    /// questions is [`CdasError::EmptyJob`], a zero batch size or zero worker count is
    /// [`CdasError::NonPositive`], and a job demanding more workers than the crowd holds
    /// is [`CdasError::PoolExhausted`].
    pub fn build(self) -> Result<Fleet> {
        let workers = self.crowd.worker_count();
        if workers == 0 {
            return Err(CdasError::EmptyFleet);
        }
        validate_shards(self.shards, workers)?;
        let fleet = Fleet {
            crowd: self.crowd,
            scheduler: self.scheduler,
            shards: self.shards,
            defaults: self.defaults,
            jobs: Vec::new(),
            journal: self.journal,
            journal_config: self.journal_config,
        };
        let mut fleet = fleet;
        for job in self.jobs {
            fleet.submit(job)?;
        }
        Ok(fleet)
    }
}

fn validate_shards(shards: usize, workers: usize) -> Result<()> {
    if shards == 0 || shards > workers {
        return Err(CdasError::InvalidShardCount { shards, workers });
    }
    Ok(())
}

/// The assembled fleet: one crowd, one scheduler configuration, N jobs, and a single
/// [`run`](Self::run) entry point. See the [module docs](self) for the full tour.
#[derive(Debug, Clone)]
pub struct Fleet {
    crowd: CrowdSpec,
    scheduler: SchedulerConfig,
    shards: usize,
    defaults: FleetDefaults,
    jobs: Vec<JobSpec>,
    journal: Option<PathBuf>,
    journal_config: JournalConfig,
}

/// Where (if anywhere) a [`Fleet::run_with_failpoints`] run injects a platform crash.
/// The platform of every run is wrapped in a [`FailpointPlatform`]; an unarmed
/// failpoint is a transparent pass-through, so `run` and `run_with_failpoints(…,
/// FleetFailpoints::none())` are the same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetFailpoints {
    platform: Failpoint,
    shard: usize,
}

impl FleetFailpoints {
    /// No injected faults (the default).
    pub fn none() -> Self {
        FleetFailpoints::default()
    }

    /// Arm a failpoint on the run's platform (shard 0 under
    /// [`ExecutionMode::Parallel`]).
    pub fn platform(failpoint: Failpoint) -> Self {
        FleetFailpoints {
            platform: failpoint,
            shard: 0,
        }
    }

    /// Arm a failpoint on one specific shard of a [`ExecutionMode::Parallel`] run —
    /// that shard's thread dies mid-run (the kill -9 drill) while the others finish
    /// their polls. Under the single-platform modes only shard 0 exists, so a failpoint
    /// armed on any other shard never fires.
    pub fn on_shard(shard: usize, failpoint: Failpoint) -> Self {
        FleetFailpoints {
            platform: failpoint,
            shard,
        }
    }

    fn for_shard(&self, shard: usize) -> Failpoint {
        if shard == self.shard {
            self.platform
        } else {
            Failpoint::never()
        }
    }
}

impl Fleet {
    /// Start building a fleet. [`FleetBuilder::crowd`] is the one mandatory step.
    pub fn builder() -> FleetBuilder<NeedsCrowd> {
        FleetBuilder::default()
    }

    /// Submit a job, validating it eagerly: its layered configuration is resolved now,
    /// so an empty question list, a zero batch size, a zero worker count or a demand the
    /// crowd can never satisfy is rejected here as a typed [`CdasError`] rather than
    /// surfacing mid-run. With a default shard count above 1 ([`FleetBuilder::shards`]),
    /// the demand is checked against the *shard* this job would be striped onto — a
    /// fleet that would only fail inside [`run_parallel`](Self::run_parallel) is
    /// rejected up front. (A run-time [`ExecutionMode::Parallel`] override with a
    /// different shard count is re-checked by the scheduler before anything dispatches.)
    pub fn submit(&mut self, job: JobSpec) -> Result<JobId> {
        let scheduled = job.resolve(&self.defaults)?;
        let needed = CrowdsourcingEngine::new(scheduled.engine).decide_workers()?;
        let workers = self.crowd.worker_count();
        // The shard this job lands on under `run_parallel` striping (job j → shard
        // j % n) and its round-robin partition size (worker i → shard i % n).
        let shard = self.jobs.len() % self.shards;
        let shard_roster = workers / self.shards + usize::from(shard < workers % self.shards);
        let available = if self.shards > 1 {
            shard_roster
        } else {
            workers
        };
        if needed > available {
            return Err(CdasError::PoolExhausted { needed, available });
        }
        self.jobs.push(job);
        Ok(JobId(self.jobs.len() - 1))
    }

    /// The crowd this fleet runs against.
    pub fn crowd(&self) -> &CrowdSpec {
        &self.crowd
    }

    /// Number of submitted jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The submitted job specs, in [`JobId`] order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// The default shard count [`run_parallel`](Self::run_parallel) uses.
    pub fn default_shards(&self) -> usize {
        self.shards
    }

    /// Run every submitted job to completion under the given [`ExecutionMode`].
    ///
    /// Each run derives a **fresh** platform, ledger and shared registry from the
    /// [`CrowdSpec`], so runs are independent and deterministic: running the same fleet
    /// twice — or under `Clocked` and `Parallel { shards: 1 }` — produces equal reports
    /// (host wall-clock aside; compare via [`FleetReport::ignoring_wall_clock`]).
    ///
    /// With [`FleetBuilder::journal`] set, the run is write-ahead journaled: the
    /// resolved [`RunConfig`] is persisted before anything dispatches, every dispatch /
    /// charge / batch commit is appended as it happens, and the event stream plus a
    /// `RunCompleted` trailer land after the run. [`Fleet::recover`] turns that journal
    /// back into a finished run after a crash.
    pub fn run(&self, mode: ExecutionMode) -> Result<FleetRun> {
        self.run_with_failpoints(mode, FleetFailpoints::none())
    }

    /// [`run`](Self::run) with fault injection: the run's platform(s) are wrapped in
    /// [`FailpointPlatform`]s armed per [`FleetFailpoints`]. An armed failpoint
    /// **panics** mid-run — callers catch it with `std::panic::catch_unwind`, then hand
    /// the journal directory to [`Fleet::recover`], exactly as a supervisor would after
    /// a real crash. Journal appends hit the OS unbuffered, so everything appended
    /// before the panic survives it.
    pub fn run_with_failpoints(
        &self,
        mode: ExecutionMode,
        failpoints: FleetFailpoints,
    ) -> Result<FleetRun> {
        let sink = match &self.journal {
            None => None,
            Some(dir) => {
                let mut journal = Journal::create(dir, self.journal_config.clone())?;
                journal.append(&JournalRecord::RunStarted(self.run_config(mode)?))?;
                Some(Arc::new(JournalSink::new(journal)))
            }
        };
        let observer = sink.clone().map(|sink| sink as Arc<dyn RunObserver>);
        let (report, platform_cost, events) = self.execute(mode, &failpoints, observer)?;
        if let Some(sink) = sink {
            for event in &events {
                sink.append(&JournalRecord::Event(event.clone()));
            }
            sink.append(&JournalRecord::RunCompleted {
                cost: report.fleet.cost,
                questions: report.fleet.questions,
                makespan: report.makespan,
            });
            sink.sync();
            if let Some(failure) = sink.take_failure() {
                return Err(failure);
            }
        }
        Ok(FleetRun {
            report,
            events,
            platform_cost,
        })
    }

    /// The fully-resolved configuration a run under `mode` executes — the pure-function
    /// input that, journaled as the `RunStarted` record, lets [`Fleet::recover`] rebuild
    /// this fleet from disk alone.
    pub fn run_config(&self, mode: ExecutionMode) -> Result<RunConfig> {
        Ok(RunConfig {
            crowd: self.crowd.clone(),
            scheduler: self.scheduler,
            mode,
            jobs: self.resolved_jobs()?,
        })
    }

    /// Rebuild a fleet from a journaled [`RunConfig`] (the inverse of
    /// [`run_config`](Self::run_config)): resolved jobs lift back into the facade via
    /// [`JobSpec::from`], so re-resolving them reproduces the original run's jobs
    /// exactly.
    pub fn from_run_config(config: RunConfig) -> Result<Fleet> {
        let workers = config.crowd.worker_count();
        if workers == 0 {
            return Err(CdasError::EmptyFleet);
        }
        let shards = match config.mode {
            ExecutionMode::Parallel { shards } => shards,
            _ => 1,
        };
        validate_shards(shards, workers)?;
        let mut fleet = Fleet {
            crowd: config.crowd,
            scheduler: config.scheduler,
            shards,
            defaults: FleetDefaults::default(),
            jobs: Vec::new(),
            journal: None,
            journal_config: JournalConfig::default(),
        };
        for job in config.jobs {
            fleet.submit(JobSpec::from(job))?;
        }
        Ok(fleet)
    }

    /// Recover the run journaled in `dir` and resume it to completion.
    ///
    /// A run is a pure function of its journaled [`RunConfig`], so recovery re-executes
    /// it deterministically while a [`RecoveryObserver`] cross-checks every dispatch,
    /// charge and commit against the journaled prefix: journaled work is *recovered*
    /// (matched, **not** re-appended and not re-paid — see
    /// [`RecoveryReport::recovered_cost`]), post-crash work is *resumed* (appended
    /// exactly as a live run would have). A torn final frame — the signature of dying
    /// mid-write — is dropped and the journal repaired in place; any substantive
    /// mismatch aborts with [`CdasError::JournalDiverged`], and corruption anywhere
    /// except the tail with [`CdasError::JournalCorrupt`]. The returned [`FleetRun`] is
    /// bit-identical (wall clock aside) to the run the crash interrupted, and the
    /// journal is left complete — recovering again is a no-op resume
    /// ([`RecoveryReport::was_complete`]).
    pub fn recover(dir: impl AsRef<Path>) -> Result<(FleetRun, RecoveryReport)> {
        Self::recover_with_config(dir, JournalConfig::default())
    }

    /// [`recover`](Self::recover) with an explicit [`JournalConfig`] for the re-opened
    /// journal — the hook the durability tests use to crash the journal *again* during
    /// a resume ([`JournalConfig::fail_writes_after`]) or to tune rotation/fsync of the
    /// resumed tail.
    pub fn recover_with_config(
        dir: impl AsRef<Path>,
        config: JournalConfig,
    ) -> Result<(FleetRun, RecoveryReport)> {
        let (journal, contents) = Journal::open_append(&dir, config)?;
        let replay = JournalReplay::assemble(&contents)?;
        let run_config = replay.config.clone();
        let mode = run_config.mode;
        let fleet = Fleet::from_run_config(run_config)?;
        let observer = Arc::new(RecoveryObserver::new(journal, replay));
        let (report, platform_cost, events) = fleet.execute(
            mode,
            &FleetFailpoints::none(),
            Some(Arc::clone(&observer) as Arc<dyn RunObserver>),
        )?;
        let recovery = observer.finish(
            &events,
            report.fleet.cost,
            report.fleet.questions,
            report.makespan,
        )?;
        Ok((
            FleetRun {
                report,
                events,
                platform_cost,
            },
            recovery,
        ))
    }

    fn resolved_jobs(&self) -> Result<Vec<ScheduledJob>> {
        self.jobs
            .iter()
            .map(|job| job.resolve(&self.defaults))
            .collect()
    }

    /// The engine room shared by [`run_with_failpoints`](Self::run_with_failpoints) and
    /// [`recover`](Self::recover): build a scheduler, attach the observer, run under
    /// `mode` on failpoint-wrapped platforms, and assemble the event stream.
    fn execute(
        &self,
        mode: ExecutionMode,
        failpoints: &FleetFailpoints,
        observer: Option<Arc<dyn RunObserver>>,
    ) -> Result<(FleetReport, f64, Vec<FleetEvent>)> {
        let mut scheduler = JobScheduler::new(self.scheduler, self.crowd.build_ledger());
        for job in self.resolved_jobs()? {
            scheduler.submit(job);
        }
        if let Some(observer) = observer {
            scheduler.attach_observer(observer);
        }
        let (report, platform_cost) = match mode {
            ExecutionMode::EndOfTime => {
                let mut platform =
                    FailpointPlatform::new(self.crowd.build_platform(), failpoints.for_shard(0));
                let report = scheduler.run(&mut platform)?;
                let cost = platform.total_cost();
                (report, cost)
            }
            ExecutionMode::Clocked => {
                let mut platform =
                    FailpointPlatform::new(self.crowd.build_platform(), failpoints.for_shard(0));
                let report = scheduler.run_clocked(&mut platform)?;
                let cost = platform.total_cost();
                (report, cost)
            }
            ExecutionMode::Parallel { shards } => {
                validate_shards(shards, self.crowd.worker_count())?;
                let mut platform = ShardedPlatform::from_parts(
                    self.crowd
                        .build_sharded(shards)
                        .into_shards()
                        .into_iter()
                        .enumerate()
                        .map(|(s, shard)| {
                            let (inner, roster) = shard.into_parts();
                            (
                                FailpointPlatform::new(inner, failpoints.for_shard(s)),
                                roster,
                            )
                        }),
                );
                let report = scheduler.run_parallel(&mut platform)?;
                let cost = platform.total_cost();
                (report, cost)
            }
        };
        let events = stream_events(&report, &scheduler);
        Ok((report, platform_cost, events))
    }

    /// [`run`](Self::run) under [`ExecutionMode::Parallel`] with the builder's default
    /// shard count ([`FleetBuilder::shards`]).
    pub fn run_parallel(&self) -> Result<FleetRun> {
        self.run(ExecutionMode::Parallel {
            shards: self.shards,
        })
    }
}

/// One entry of a [`FleetRun`]'s event stream, in simulated-time order. Events are fed
/// from the data the scheduler already records — the [`DispatchRecord`](crate::scheduler::DispatchRecord) timeline, the
/// per-batch outcomes, and the per-job clocked rollups — so they cost nothing extra to
/// produce. In `EndOfTime` runs every `at` is `0.0` (ticks are not time there) and the
/// stream falls back to dispatch order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// A job's first batch was dispatched.
    JobStarted {
        /// The job.
        job: JobId,
        /// The job's name.
        name: String,
        /// Simulated minute of the first dispatch.
        at: f64,
    },
    /// A HIT batch was published to leased workers.
    HitDispatched {
        /// The publishing job.
        job: JobId,
        /// The platform HIT id.
        hit: HitId,
        /// How many workers the HIT was restricted to.
        workers: usize,
        /// Simulated minute of the dispatch.
        at: f64,
    },
    /// A real (non-gold) question reached its final verdict.
    QuestionTerminated {
        /// The owning job.
        job: JobId,
        /// The question.
        question: QuestionId,
        /// The accepted answer (or `NoAnswer`).
        verdict: Verdict,
        /// Reason keywords collected from the workers that voted for the accepted
        /// answer — enough to feed a Figure-4-style presentation straight off the
        /// stream.
        reasons: Vec<String>,
        /// Answers consumed before the decision.
        answers_used: usize,
        /// Whether termination fired before every assigned worker answered.
        early: bool,
        /// Simulated minute the question's *batch* was dispatched. The scheduler records
        /// termination instants at job granularity, not per question, so this anchors
        /// the event into the timeline at the earliest point it could have happened.
        at: f64,
    },
    /// A job produced its first final verdict on a real question (clocked runs only).
    FirstVerdict {
        /// The job.
        job: JobId,
        /// Simulated minute of the verdict.
        at: f64,
    },
    /// A mid-flight cancellation handed worker-minutes back to the pool (clocked runs
    /// only).
    LeaseReclaimed {
        /// The cancelling job.
        job: JobId,
        /// Simulated worker-minutes reclaimed across the job's cancellations.
        minutes: f64,
        /// Simulated minute of the job's completion (the rollup is per job).
        at: f64,
    },
    /// A job ingested its last batch.
    JobCompleted {
        /// The job.
        job: JobId,
        /// Real questions the job resolved.
        questions: usize,
        /// The job's real accuracy against ground truth.
        accuracy: f64,
        /// Simulated minute of completion (`0.0` in `EndOfTime` runs).
        at: f64,
    },
}

impl FleetEvent {
    /// The simulated minute this event is anchored to (`0.0` throughout `EndOfTime`
    /// runs).
    pub fn at(&self) -> f64 {
        match self {
            FleetEvent::JobStarted { at, .. }
            | FleetEvent::HitDispatched { at, .. }
            | FleetEvent::QuestionTerminated { at, .. }
            | FleetEvent::FirstVerdict { at, .. }
            | FleetEvent::LeaseReclaimed { at, .. }
            | FleetEvent::JobCompleted { at, .. } => *at,
        }
    }

    /// The job this event belongs to.
    pub fn job(&self) -> JobId {
        match self {
            FleetEvent::JobStarted { job, .. }
            | FleetEvent::HitDispatched { job, .. }
            | FleetEvent::QuestionTerminated { job, .. }
            | FleetEvent::FirstVerdict { job, .. }
            | FleetEvent::LeaseReclaimed { job, .. }
            | FleetEvent::JobCompleted { job, .. } => *job,
        }
    }
}

/// The result of one [`Fleet::run`]: the aggregate [`FleetReport`] plus the streaming
/// side — the ordered [`FleetEvent`]s and a per-question verdict iterator.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    report: FleetReport,
    events: Vec<FleetEvent>,
    platform_cost: f64,
}

impl FleetRun {
    /// The aggregate report (jobs, fleet rollup, shards, dispatch timeline).
    pub fn report(&self) -> &FleetReport {
        &self.report
    }

    /// Consume the run, yielding the report.
    pub fn into_report(self) -> FleetReport {
        self.report
    }

    /// The event stream, ordered by simulated time (dispatch order in `EndOfTime` runs).
    pub fn events(&self) -> &[FleetEvent] {
        &self.events
    }

    /// Replay the event stream through a callback — the monitoring hook for callers that
    /// want to observe the run without walking the report.
    pub fn replay<F: FnMut(&FleetEvent)>(&self, mut observer: F) {
        for event in &self.events {
            observer(event);
        }
    }

    /// The streaming verdict view: every real question's final verdict, in event-stream
    /// order, as `(job, question, verdict)`.
    pub fn verdicts(&self) -> impl Iterator<Item = (JobId, QuestionId, &Verdict)> + '_ {
        self.events.iter().filter_map(|event| match event {
            FleetEvent::QuestionTerminated {
                job,
                question,
                verdict,
                ..
            } => Some((*job, *question, verdict)),
            _ => None,
        })
    }

    /// Dollars the platform(s) charged during this run. Equal to
    /// `report().fleet.cost` — the engine-side and platform-side ledgers agree by the
    /// PR 3 accounting contract — but measured independently on the platform.
    pub fn platform_cost(&self) -> f64 {
        self.platform_cost
    }
}

/// Assemble the event stream from what the scheduler already recorded.
fn stream_events(report: &FleetReport, scheduler: &JobScheduler) -> Vec<FleetEvent> {
    let mut events: Vec<FleetEvent> = Vec::new();
    let mut started: BTreeSet<usize> = BTreeSet::new();
    for dispatch in &report.dispatches {
        if started.insert(dispatch.job.0) {
            // Dispatches only ever name jobs the report carries.
            if let Some(job) = report.jobs.get(dispatch.job.0) {
                events.push(FleetEvent::JobStarted {
                    job: dispatch.job,
                    name: job.name.clone(),
                    at: dispatch.at,
                });
            }
        }
        events.push(FleetEvent::HitDispatched {
            job: dispatch.job,
            hit: dispatch.hit,
            workers: dispatch.workers.len(),
            at: dispatch.at,
        });
    }
    let dispatched_at: BTreeMap<HitId, f64> =
        report.dispatches.iter().map(|d| (d.hit, d.at)).collect();
    for job in &report.jobs {
        for (_questions, outcome) in scheduler.outcomes(job.job) {
            let at = dispatched_at.get(&outcome.hit).copied().unwrap_or(0.0);
            for verdict in outcome.real_verdicts() {
                events.push(FleetEvent::QuestionTerminated {
                    job: job.job,
                    question: verdict.question,
                    verdict: verdict.verdict.clone(),
                    reasons: verdict.reasons.clone(),
                    answers_used: verdict.answers_used,
                    early: verdict.answers_used < outcome.workers_assigned,
                    at,
                });
            }
        }
        if let Some(at) = job.time_to_first_verdict {
            events.push(FleetEvent::FirstVerdict { job: job.job, at });
        }
        if job.reclaimed_minutes > 0.0 {
            events.push(FleetEvent::LeaseReclaimed {
                job: job.job,
                minutes: job.reclaimed_minutes,
                at: job.completed_at,
            });
        }
        events.push(FleetEvent::JobCompleted {
            job: job.job,
            questions: job.report.questions,
            accuracy: job.report.accuracy,
            at: job.completed_at,
        });
    }
    // Stable: equal-time events keep their insertion order, which is dispatch order for
    // the timeline and per-job order for the rollup events — exactly what an observer of
    // an unclocked run (all `at == 0.0`) should see.
    events.sort_by(|a, b| a.at().total_cmp(&b.at()));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::demo_questions;
    use cdas_core::economics::CostModel;
    use cdas_crowd::arrival::LatencyModel;
    use cdas_crowd::lease::PoolLedger;
    use cdas_crowd::pool::{PoolConfig, WorkerPool};
    use cdas_crowd::SimulatedPlatform;

    fn spec() -> CrowdSpec {
        CrowdSpec::clean(16, 0.85)
            .seed(7)
            .latency(LatencyModel::Exponential { mean: 5.0 })
    }

    fn demo_fleet() -> Fleet {
        let mut fleet = Fleet::builder().crowd(spec()).shards(2).build().unwrap();
        for name in ["a", "b"] {
            fleet
                .submit(
                    JobSpec::sentiment(name, demo_questions(8, 2))
                        .workers(5)
                        .domain_size(3)
                        .batch_size(5),
                )
                .unwrap();
        }
        fleet
    }

    #[test]
    fn builder_without_jobs_runs_an_empty_fleet() {
        let fleet = Fleet::builder().crowd(spec()).build().unwrap();
        let run = fleet.run(ExecutionMode::EndOfTime).unwrap();
        assert!(run.report().jobs.is_empty());
        assert!(run.events().is_empty());
        assert_eq!(run.verdicts().count(), 0);
    }

    // The build()/submit()-time misuse matrix (empty crowd, bad shard counts, empty
    // job, batch 0, workers 0) is pinned once, at the prelude surface, in
    // `tests/fleet_facade.rs`. The cases below are the ones only unit scope can reach.

    #[test]
    fn run_time_shard_override_is_validated() {
        let fleet = Fleet::builder().crowd(spec()).build().unwrap();
        match fleet.run(ExecutionMode::Parallel { shards: 99 }) {
            Err(CdasError::InvalidShardCount { shards: 99, .. }) => {}
            other => panic!("expected InvalidShardCount, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_demand_is_rejected_at_submit() {
        // Against the whole crowd…
        let mut fleet = Fleet::builder().crowd(spec()).build().unwrap();
        match fleet.submit(JobSpec::sentiment("wide", demo_questions(4, 1)).workers(40)) {
            Err(CdasError::PoolExhausted {
                needed: 40,
                available: 16,
            }) => {}
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
        assert_eq!(fleet.job_count(), 0, "no failed submission was kept");
        // …and against the job's shard when the fleet defaults to parallel striping: a
        // 7-worker job fits the 16-worker crowd but not its 4-worker shard, so it must
        // be rejected here, not mid-`run_parallel`.
        let mut sharded = Fleet::builder().crowd(spec()).shards(4).build().unwrap();
        match sharded.submit(JobSpec::sentiment("wide", demo_questions(4, 1)).workers(7)) {
            Err(CdasError::PoolExhausted {
                needed: 7,
                available: 4,
            }) => {}
            other => panic!("expected per-shard PoolExhausted, got {other:?}"),
        }
        sharded
            .submit(JobSpec::sentiment("fits", demo_questions(4, 1)).workers(4))
            .unwrap();
    }

    #[test]
    fn facade_clocked_run_matches_a_hand_wired_scheduler() {
        let fleet = demo_fleet();
        let facade = fleet.run(ExecutionMode::Clocked).unwrap();

        // The hand-wired equivalent, built exactly as PR 2–4 callers always did.
        let pool = WorkerPool::generate(&PoolConfig {
            latency: LatencyModel::Exponential { mean: 5.0 },
            ..PoolConfig::clean(16, 0.85, 7)
        });
        let mut platform = SimulatedPlatform::new(pool.clone(), CostModel::default(), 7);
        let mut scheduler =
            JobScheduler::new(SchedulerConfig::default(), PoolLedger::from_pool(&pool));
        for name in ["a", "b"] {
            let mut engine =
                ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(8, 2)).engine;
            engine.workers = WorkerCountPolicy::Fixed(5);
            engine.domain_size = Some(3);
            scheduler.submit(
                ScheduledJob::named(JobKind::SentimentAnalytics, name, demo_questions(8, 2))
                    .with_engine(engine)
                    .with_batch_size(5),
            );
        }
        let direct = scheduler.run_clocked(&mut platform).unwrap();
        assert_eq!(
            facade.report().ignoring_wall_clock(),
            direct.ignoring_wall_clock(),
            "facade Clocked must be the hand-wired run_clocked"
        );
        assert!((facade.platform_cost() - platform.total_cost()).abs() < 1e-12);
    }

    #[test]
    fn all_three_modes_resolve_every_question() {
        let fleet = demo_fleet();
        for mode in [
            ExecutionMode::EndOfTime,
            ExecutionMode::Clocked,
            ExecutionMode::Parallel { shards: 2 },
        ] {
            let run = fleet.run(mode).unwrap();
            assert_eq!(run.report().fleet.questions, 16, "{mode:?}");
            assert_eq!(run.verdicts().count(), 16, "{mode:?}");
        }
    }

    #[test]
    fn parallel_one_shard_matches_clocked() {
        let fleet = demo_fleet();
        let clocked = fleet.run(ExecutionMode::Clocked).unwrap();
        let parallel = fleet.run(ExecutionMode::Parallel { shards: 1 }).unwrap();
        assert_eq!(
            clocked.report().ignoring_wall_clock(),
            parallel.report().ignoring_wall_clock()
        );
        // The event streams agree too, because they derive from the same records.
        assert_eq!(clocked.events(), parallel.events());
    }

    #[test]
    fn event_stream_is_ordered_and_complete() {
        let fleet = demo_fleet();
        let run = fleet.run(ExecutionMode::Clocked).unwrap();
        let events = run.events();
        assert!(events.windows(2).all(|w| w[0].at() <= w[1].at()));
        let starts = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::JobStarted { .. }))
            .count();
        let completions = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::JobCompleted { .. }))
            .count();
        assert_eq!(starts, 2);
        assert_eq!(completions, 2);
        let dispatches = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::HitDispatched { .. }))
            .count();
        assert_eq!(dispatches, run.report().dispatches.len());
        let verdicts = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::QuestionTerminated { .. }))
            .count();
        assert_eq!(verdicts, 16, "one per real question, gold excluded");
        // A clocked run knows when each job first answered something.
        assert!(events
            .iter()
            .any(|e| matches!(e, FleetEvent::FirstVerdict { .. })));
        // Replay visits every event in order.
        let mut seen = 0usize;
        run.replay(|_| seen += 1);
        assert_eq!(seen, events.len());
    }

    #[test]
    fn termination_emits_reclaimed_lease_events() {
        let mut fleet = Fleet::builder()
            .crowd(
                CrowdSpec::clean(9, 0.9)
                    .seed(33)
                    .latency(LatencyModel::Exponential { mean: 5.0 }),
            )
            .build()
            .unwrap();
        for name in ["a", "b"] {
            fleet
                .submit(
                    JobSpec::sentiment(name, demo_questions(6, 3))
                        .workers(7)
                        .domain_size(3)
                        .termination(TerminationStrategy::ExpMax)
                        .batch_size(9),
                )
                .unwrap();
        }
        let run = fleet.run(ExecutionMode::Clocked).unwrap();
        assert!(run
            .events()
            .iter()
            .any(|e| matches!(e, FleetEvent::LeaseReclaimed { minutes, .. } if *minutes > 0.0)));
        assert!(run
            .events()
            .iter()
            .any(|e| matches!(e, FleetEvent::QuestionTerminated { early: true, .. })));
    }

    #[test]
    fn layered_defaults_fleet_then_job() {
        // Fleet default: 5 workers, ExpMax termination. Job b overrides the worker count.
        let mut fleet = Fleet::builder()
            .crowd(spec())
            .engine_defaults(EngineConfig {
                workers: WorkerCountPolicy::Fixed(5),
                termination: Some(TerminationStrategy::ExpMax),
                domain_size: Some(3),
                ..EngineConfig::default()
            })
            .batch_size(4)
            .build()
            .unwrap();
        fleet
            .submit(JobSpec::sentiment("default", demo_questions(4, 1)))
            .unwrap();
        fleet
            .submit(
                JobSpec::sentiment("override", demo_questions(4, 1))
                    .workers(7)
                    .no_termination(),
            )
            .unwrap();
        let a = fleet.jobs()[0].resolve(&fleet.defaults).unwrap();
        let b = fleet.jobs()[1].resolve(&fleet.defaults).unwrap();
        assert_eq!(a.engine.workers, WorkerCountPolicy::Fixed(5));
        assert_eq!(a.engine.termination, Some(TerminationStrategy::ExpMax));
        assert_eq!(a.batch_size, 4, "fleet default batch size");
        assert_eq!(b.engine.workers, WorkerCountPolicy::Fixed(7));
        assert_eq!(b.engine.termination, None, "job override wins");
    }

    #[test]
    fn scheduled_job_round_trips_through_the_facade() {
        let scheduled =
            ScheduledJob::named(JobKind::ImageTagging, "round-trip", demo_questions(6, 2))
                .with_batch_size(3)
                .with_priority(4);
        let spec = JobSpec::from(scheduled.clone());
        // Whatever the fleet defaults say, a lifted ScheduledJob resolves to itself.
        let defaults = FleetDefaults {
            engine: Some(EngineConfig {
                workers: WorkerCountPolicy::Fixed(13),
                ..EngineConfig::default()
            }),
            batch_size: Some(11),
        };
        assert_eq!(spec.resolve(&defaults).unwrap(), scheduled);
    }

    #[test]
    fn runs_are_independent_and_repeatable() {
        let fleet = demo_fleet();
        let a = fleet.run(ExecutionMode::Clocked).unwrap();
        let b = fleet.run(ExecutionMode::Clocked).unwrap();
        assert_eq!(
            a.report().ignoring_wall_clock(),
            b.report().ignoring_wall_clock()
        );
        assert_eq!(a.events(), b.events());
    }
}
