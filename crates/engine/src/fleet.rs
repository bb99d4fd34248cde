//! The front door of CDAS: a [`Fleet`] facade over the crowd, the engine and the
//! scheduler.
//!
//! CDAS is pitched as a *system* users hand a job to, yet the layers beneath this module
//! — [`WorkerPool`](cdas_crowd::pool::WorkerPool) →
//! [`SimulatedPlatform`](cdas_crowd::SimulatedPlatform) /
//! [`ShardedPlatform`] →
//! [`PoolLedger`](cdas_crowd::lease::PoolLedger) → [`JobScheduler`] →
//! [`ScheduledJob`] — ask every caller to hand-wire five structs and pick one of two
//! entry points (`run_clocked` / `run_parallel`). The facade collapses that into three
//! moves:
//!
//! 1. **describe the crowd once** with a [`CrowdSpec`] and build the fleet with the
//!    typestate [`FleetBuilder`] (a fleet without a crowd does not compile, and
//!    misconfigurations — empty crowd, zero workers, more shards than workers — are typed
//!    [`CdasError`]s, not panics),
//! 2. **submit [`JobSpec`]s**, each of which holds every setting of its job (the engine
//!    defaults derive from the job's own query; its setters override them), and
//! 3. **call [`Fleet::run`] with one [`ExecutionMode`]** — `Clocked` or
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
//! let run = fleet.run(ExecutionMode::Clocked).unwrap();
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

use crate::engine::{CrowdsourcingEngine, WorkerCountPolicy};
use crate::job_manager::JobKind;
use crate::journal::recovery::{JournalReplay, JournalSink, RecoveryObserver};
use crate::journal::{Journal, JournalConfig, JournalRecord, RecoveryReport, RunConfig};
use crate::metrics::FleetReport;
use crate::scheduler::{
    ArrivalDiscovery, DispatchPolicy, JobId, JobScheduler, RunObserver, ScheduledJob,
    SchedulerConfig,
};

/// How [`Fleet::run`] executes the submitted jobs. Both modes drive the same clocked
/// scheduler loop over the same crowd — they differ only in how many threads run it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionMode {
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

/// One analytics job as the facade accepts it: the [`ScheduledJob`] the scheduler will
/// run, plus the service-level deadline. Constructors start from
/// [`ScheduledJob::named`], which derives the engine configuration from the job's own
/// query, and every setter writes straight into that job. [`From<ScheduledJob>`] lifts a
/// hand-wired job in unchanged — the route to full
/// [`EngineConfig`](crate::engine::EngineConfig) control (a voting
/// verification strategy, a [`JobManager`](crate::job_manager::JobManager) plan).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    job: ScheduledJob,
    deadline_minutes: Option<f64>,
}

impl JobSpec {
    /// A job of the given kind over pre-rendered crowd questions (gold flagged).
    pub fn new(kind: JobKind, name: impl Into<String>, questions: Vec<CrowdQuestion>) -> Self {
        ScheduledJob::named(kind, name, questions).into()
    }

    /// A Twitter-sentiment job ([`JobKind::SentimentAnalytics`]).
    pub fn sentiment(name: impl Into<String>, questions: Vec<CrowdQuestion>) -> Self {
        Self::new(JobKind::SentimentAnalytics, name, questions)
    }

    /// An image-tagging job ([`JobKind::ImageTagging`]).
    pub fn tagging(name: impl Into<String>, questions: Vec<CrowdQuestion>) -> Self {
        Self::new(JobKind::ImageTagging, name, questions)
    }

    /// Request a fixed worker count per HIT ([`WorkerCountPolicy::Fixed`]).
    pub fn workers(self, n: usize) -> Self {
        self.worker_policy(WorkerCountPolicy::Fixed(n))
    }

    /// Request an explicit worker-count policy (e.g. the prediction model's `g(C)`).
    pub fn worker_policy(mut self, policy: WorkerCountPolicy) -> Self {
        self.job.engine.workers = policy;
        self
    }

    /// Enable online early termination with the given strategy.
    pub fn termination(mut self, termination: TerminationStrategy) -> Self {
        self.job.engine.termination = Some(termination);
        self
    }

    /// Disable early termination (wait for all answers).
    pub fn no_termination(mut self) -> Self {
        self.job.engine.termination = None;
        self
    }

    /// Set the user-required accuracy `C`.
    pub fn required_accuracy(mut self, required: f64) -> Self {
        self.job.engine.required_accuracy = required;
        self
    }

    /// Fix the answer-domain size `m` (e.g. 3 for sentiment).
    pub fn domain_size(mut self, m: usize) -> Self {
        self.job.engine.domain_size = Some(m);
        self
    }

    /// Estimate the answer-domain size per observation instead of fixing it.
    pub fn estimated_domain_size(mut self) -> Self {
        self.job.engine.domain_size = None;
        self
    }

    /// Set the questions-per-HIT batch size `B` (default 20).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.job.batch_size = batch_size;
        self
    }

    /// Set the dispatch priority (higher drains first under
    /// [`DispatchPolicy::Priority`]).
    pub fn priority(mut self, priority: u8) -> Self {
        self.job.priority = priority;
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
        &self.job.job.name
    }

    /// How many crowd questions (gold included) the job carries.
    pub fn question_count(&self) -> usize {
        self.job.questions.len()
    }

    /// The job the scheduler runs, once checked: a job without questions is
    /// [`CdasError::EmptyJob`] and a zero batch size is [`CdasError::NonPositive`].
    pub(crate) fn validated(&self) -> Result<&ScheduledJob> {
        if self.job.questions.is_empty() {
            return Err(CdasError::EmptyJob {
                name: self.job.job.name.clone(),
            });
        }
        if self.job.batch_size == 0 {
            return Err(CdasError::NonPositive { what: "batch size" });
        }
        Ok(&self.job)
    }
}

impl From<ScheduledJob> for JobSpec {
    /// Lift a hand-wired [`ScheduledJob`] into the facade unchanged.
    fn from(job: ScheduledJob) -> Self {
        JobSpec {
            job,
            deadline_minutes: None,
        }
    }
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
    jobs: Vec<JobSpec>,
    journal: Option<PathBuf>,
    journal_config: JournalConfig,
}

impl Default for FleetBuilder<NeedsCrowd> {
    fn default() -> Self {
        FleetBuilder {
            crowd: NeedsCrowd,
            scheduler: SchedulerConfig::default(),
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

    /// Set how the clocked loop discovers the next arrival event (default
    /// [`ArrivalDiscovery::Heap`]). [`ArrivalDiscovery::Scan`] is the pre-heap
    /// per-tick scan, retained as the differential-test oracle the heap is checked
    /// against; both produce bit-identical reports.
    pub fn arrival_discovery(mut self, discovery: ArrivalDiscovery) -> Self {
        self.scheduler.discovery = discovery;
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
    /// misbehaviour later: a crowd with no workers is [`CdasError::EmptyFleet`], a job
    /// without questions is [`CdasError::EmptyJob`], a zero batch size or zero worker
    /// count is [`CdasError::NonPositive`], and a job demanding more workers than the
    /// crowd holds is [`CdasError::PoolExhausted`].
    pub fn build(self) -> Result<Fleet> {
        if self.crowd.worker_count() == 0 {
            return Err(CdasError::EmptyFleet);
        }
        let mut fleet = Fleet {
            crowd: self.crowd,
            scheduler: self.scheduler,
            jobs: Vec::new(),
            journal: self.journal,
            journal_config: self.journal_config,
        };
        for job in self.jobs {
            fleet.submit(job)?;
        }
        Ok(fleet)
    }
}

/// The assembled fleet: one crowd, one scheduler configuration, N jobs, and a single
/// [`run`](Self::run) entry point. See the [module docs](self) for the full tour.
#[derive(Debug, Clone)]
pub struct Fleet {
    crowd: CrowdSpec,
    scheduler: SchedulerConfig,
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
    /// their polls. Under [`ExecutionMode::Clocked`] only shard 0 exists, so a failpoint
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

    /// Submit a job, validating it eagerly: an empty question list, a zero batch size, a
    /// zero worker count or a demand the whole crowd can never satisfy is rejected here
    /// as a typed [`CdasError`] rather than surfacing mid-run. Under
    /// [`ExecutionMode::Parallel`] the demand is checked again, against the shard each
    /// job is striped onto, by the scheduler before anything dispatches.
    pub fn submit(&mut self, job: JobSpec) -> Result<JobId> {
        let scheduled = job.validated()?;
        let needed = CrowdsourcingEngine::new(scheduled.engine.clone()).decide_workers()?;
        let available = self.crowd.worker_count();
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
    /// a real crash. Journal appends are buffered: they reach the OS at each sync point,
    /// and the rest when the dropped journal flushes during unwinding, so everything
    /// appended before the panic survives it.
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
            jobs: self.scheduled_jobs(),
        })
    }

    /// Rebuild a fleet from a journaled [`RunConfig`] (the inverse of
    /// [`run_config`](Self::run_config)): the journaled jobs lift back into the facade
    /// unchanged via [`JobSpec::from`].
    pub fn from_run_config(config: RunConfig) -> Result<Fleet> {
        if config.crowd.worker_count() == 0 {
            return Err(CdasError::EmptyFleet);
        }
        let mut fleet = Fleet {
            crowd: config.crowd,
            scheduler: config.scheduler,
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

    fn scheduled_jobs(&self) -> Vec<ScheduledJob> {
        self.jobs.iter().map(|spec| spec.job.clone()).collect()
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
        for job in self.scheduled_jobs() {
            scheduler.submit(job);
        }
        if let Some(observer) = observer {
            scheduler.attach_observer(observer);
        }
        let (report, platform_cost) = match mode {
            ExecutionMode::Clocked => {
                let mut platform =
                    FailpointPlatform::new(self.crowd.build_platform(), failpoints.for_shard(0));
                let report = scheduler.run_clocked(&mut platform)?;
                let cost = platform.total_cost();
                (report, cost)
            }
            ExecutionMode::Parallel { shards } => {
                let workers = self.crowd.worker_count();
                if shards == 0 || shards > workers {
                    return Err(CdasError::InvalidShardCount { shards, workers });
                }
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
}

/// One entry of a [`FleetRun`]'s event stream, in simulated-time order. Events are fed
/// from the data the scheduler already records — the [`DispatchRecord`](crate::scheduler::DispatchRecord) timeline, the
/// per-batch outcomes, and the per-job clocked rollups — so they cost nothing extra to
/// produce.
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
    /// A job produced its first final verdict on a real question.
    FirstVerdict {
        /// The job.
        job: JobId,
        /// Simulated minute of the verdict.
        at: f64,
    },
    /// A mid-flight cancellation handed worker-minutes back to the pool.
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
        /// Simulated minute of completion.
        at: f64,
    },
}

impl FleetEvent {
    /// The simulated minute this event is anchored to.
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

    /// The event stream, ordered by simulated time.
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
    // the timeline and per-job order for the rollup events.
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
        let mut fleet = Fleet::builder().crowd(spec()).build().unwrap();
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
        let run = fleet.run(ExecutionMode::Clocked).unwrap();
        assert!(run.report().jobs.is_empty());
        assert!(run.events().is_empty());
        assert_eq!(run.verdicts().count(), 0);
    }

    // The misuse matrix (empty crowd, empty job, batch 0 and workers 0 at build() or
    // submit(), bad shard counts at run()) is pinned once, at the prelude surface, in
    // `tests/fleet_facade.rs`.

    #[test]
    fn run_time_shard_override_is_validated() {
        let fleet = Fleet::builder().crowd(spec()).build().unwrap();
        match fleet.run(ExecutionMode::Parallel { shards: 99 }) {
            Err(CdasError::InvalidShardCount { shards: 99, .. }) => {}
            other => panic!("expected InvalidShardCount, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_demand_is_rejected_before_dispatch() {
        // Against the whole crowd, at submit…
        let mut fleet = Fleet::builder().crowd(spec()).build().unwrap();
        match fleet.submit(JobSpec::sentiment("wide", demo_questions(4, 1)).workers(40)) {
            Err(CdasError::PoolExhausted {
                needed: 40,
                available: 16,
            }) => {}
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
        assert_eq!(fleet.job_count(), 0, "no failed submission was kept");
        // …and against the job's shard at run time: a 7-worker job fits the 16-worker
        // crowd but not its 4-worker shard, so a 4-shard run refuses it before anything
        // dispatches.
        fleet
            .submit(JobSpec::sentiment("wide", demo_questions(4, 1)).workers(7))
            .unwrap();
        match fleet.run(ExecutionMode::Parallel { shards: 4 }) {
            Err(CdasError::PoolExhausted {
                needed: 7,
                available: 4,
            }) => {}
            other => panic!("expected per-shard PoolExhausted, got {other:?}"),
        }
        fleet.run(ExecutionMode::Parallel { shards: 2 }).unwrap();
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
            ExecutionMode::Clocked,
            ExecutionMode::Parallel { shards: 1 },
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
    fn scheduled_job_round_trips_through_the_facade() {
        let scheduled =
            ScheduledJob::named(JobKind::ImageTagging, "round-trip", demo_questions(6, 2))
                .with_batch_size(3)
                .with_priority(4);
        let spec = JobSpec::from(scheduled.clone());
        assert_eq!(spec.validated().unwrap(), &scheduled);
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
