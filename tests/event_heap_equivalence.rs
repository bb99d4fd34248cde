//! Differential suite for the event-heap scheduler core.
//!
//! The clocked loop ships two arrival-discovery modes: [`ArrivalDiscovery::Heap`] (the
//! production path — a lazy-deletion binary min-heap over
//! `CrowdPlatform::next_arrival` look-aheads) and [`ArrivalDiscovery::Scan`] (the
//! pre-heap per-tick scan, retained as the oracle). This suite pins the PR's central
//! claim: **the two modes are bit-identical in everything but wall-clock time**, across
//! randomized crowds, seeds, job mixes, and both [`ExecutionMode`]s — so the heap
//! is purely a complexity win, never a behavior change.
//!
//! It also covers the two paths a plain `SimulatedPlatform` run never exercises:
//!
//! * **untracked HITs** — a platform whose `next_arrival` hides some (or all) HITs
//!   demotes them to the scan loop's every-tick poll, and the two modes must still
//!   agree;
//! * **lazy deletion end to end** — once a HIT is cancelled mid-flight, the scheduler
//!   must never poll it again (a stale heap entry must not fire a ghost arrival), and
//!   the reclaimed minutes the fleet reports must equal what the platform's
//!   [`CancelReceipt`]s actually handed back.

use std::collections::BTreeMap;

use cdas::core::economics::CostModel;
use cdas::core::online::TerminationStrategy;
use cdas::core::types::HitId;
use cdas::crowd::hit::HitRequest;
use cdas::crowd::platform::WorkerAnswer;
use cdas::engine::job_manager::JobKind;
use cdas::engine::scheduler::ArrivalDiscovery;
use cdas::fixtures::demo_questions;
use cdas::prelude::*;
use proptest::prelude::*;

/// The per-job termination mix: index 0 runs without a termination strategy (natural
/// makespan), 1..=3 map onto [`TerminationStrategy::ALL`] (mid-flight cancellation).
fn termination_for(index: usize) -> Option<TerminationStrategy> {
    match index % (TerminationStrategy::ALL.len() + 1) {
        0 => None,
        i => Some(TerminationStrategy::ALL[i - 1]),
    }
}

/// One fleet description, buildable twice — once per discovery mode — over bit-identical
/// crowds (every [`Fleet::run`] derives a fresh platform from the spec).
#[derive(Clone)]
struct FleetCase {
    pool: usize,
    accuracy: f64,
    crowd_seed: u64,
    scheduler_seed: u64,
    latency_mean: f64,
    /// `(real, gold, workers, batch, termination index)` per job.
    jobs: Vec<(u64, u64, usize, usize, usize)>,
}

impl FleetCase {
    fn build(&self, discovery: ArrivalDiscovery) -> Fleet {
        let crowd = CrowdSpec::clean(self.pool, self.accuracy)
            .seed(self.crowd_seed)
            .latency(LatencyModel::Exponential {
                mean: self.latency_mean,
            });
        let mut builder = Fleet::builder()
            .crowd(crowd)
            .scheduler_seed(self.scheduler_seed)
            .arrival_discovery(discovery);
        for (i, &(real, gold, workers, batch, term)) in self.jobs.iter().enumerate() {
            let mut job = JobSpec::sentiment(format!("job-{i}"), demo_questions(real, gold))
                .workers(workers)
                .batch_size(batch)
                .domain_size(3);
            job = match termination_for(term) {
                Some(strategy) => job.termination(strategy),
                None => job.no_termination(),
            };
            builder = builder.job(job);
        }
        builder.build().expect("case is feasible by construction")
    }

    /// Run both discovery modes under `mode` and assert the heap run equals the scan
    /// oracle: same report (wall clock aside), same event stream, same platform bill.
    fn assert_equivalent(&self, mode: ExecutionMode) {
        let heap = self.build(ArrivalDiscovery::Heap).run(mode).unwrap();
        let scan = self.build(ArrivalDiscovery::Scan).run(mode).unwrap();
        assert_eq!(
            heap.report().ignoring_wall_clock(),
            scan.report().ignoring_wall_clock(),
            "heap and scan reports diverged under {mode:?}"
        );
        assert_eq!(
            heap.events(),
            scan.events(),
            "heap and scan event streams diverged under {mode:?}"
        );
        assert_eq!(heap.platform_cost(), scan.platform_cost());
    }
}

/// A hard deterministic case: several jobs contending for one pool, a mixed
/// termination roster (so some batches cancel mid-flight and hand leases over while
/// others run to natural makespan), small batches to maximize dispatch interleaving.
fn contended_case() -> FleetCase {
    FleetCase {
        pool: 14,
        accuracy: 0.88,
        crowd_seed: 11,
        scheduler_seed: 7,
        latency_mean: 5.0,
        jobs: vec![
            (9, 3, 5, 4, 1),
            (8, 2, 4, 3, 0),
            (7, 2, 3, 5, 3),
            (6, 2, 5, 3, 2),
        ],
    }
}

#[test]
fn heap_equals_scan_clocked() {
    contended_case().assert_equivalent(ExecutionMode::Clocked);
}

#[test]
fn heap_equals_scan_parallel() {
    contended_case().assert_equivalent(ExecutionMode::Parallel { shards: 2 });
}

proptest! {
    /// The differential property: over randomized crowds, seeds and job mixes, and both
    /// execution modes, the heap-driven scheduler's report is bit-identical to the
    /// pre-heap scan oracle under `ignoring_wall_clock()` — and so is the event stream.
    #[test]
    fn heap_equals_scan_oracle_across_modes(
        pool_extra in 0usize..8,
        accuracy_pct in 70u64..94,
        crowd_seed in 0u64..1_000_000,
        scheduler_seed in 0u64..1_000_000,
        latency_mean in 2.0f64..9.0,
        job_seeds in prop::collection::vec(
            ((3u64..9, 1u64..3), (3usize..6, 2usize..6, 0usize..4)),
            1..4,
        ),
        mode_index in 0usize..2,
    ) {
        let job_seeds: Vec<(u64, u64, usize, usize, usize)> = job_seeds
            .into_iter()
            .map(|((real, gold), (workers, batch, term))| (real, gold, workers, batch, term))
            .collect();
        // Feasible for Parallel { shards: 2 }: every job's demand fits half the pool.
        let max_workers = job_seeds.iter().map(|j| j.2).max().unwrap_or(3);
        let case = FleetCase {
            pool: 2 * max_workers + 2 + pool_extra,
            accuracy: accuracy_pct as f64 / 100.0,
            crowd_seed,
            scheduler_seed,
            latency_mean,
            jobs: job_seeds,
        };
        let mode = match mode_index {
            0 => ExecutionMode::Clocked,
            _ => ExecutionMode::Parallel { shards: 2 },
        };
        case.assert_equivalent(mode);
    }
}

/// A configured-registry accuracy source makes the *timing* of a collector's first
/// platform contact observable: the scan loop's first (empty) poll of a freshly
/// dispatched batch is when the collector seeds the shared registry, and every other
/// job's vote weights read that registry. The heap loop owes fresh batches the same
/// first-tick poll — skipping it would delay the seeding to the batch's first arrival
/// and silently shift every concurrent job's weighting.
#[test]
fn heap_equals_scan_when_registry_seeding_depends_on_first_contact() {
    use cdas::core::accuracy::AccuracyRegistry;
    use cdas::engine::engine::AccuracySource;

    let run = |discovery| {
        let pool = WorkerPool::generate(&PoolConfig {
            latency: LatencyModel::Exponential { mean: 5.0 },
            ..PoolConfig::clean(14, 0.85, 41)
        });
        let mut scheduler = JobScheduler::new(
            SchedulerConfig {
                discovery,
                ..SchedulerConfig::default()
            },
            PoolLedger::from_pool(&pool),
        );
        // Job 0 carries an injected registry (high confidence for its own workers);
        // job 1 is gold-free, so its verdict weights come entirely from whatever the
        // shared registry holds when its votes stream in.
        let mut oracle = AccuracyRegistry::new();
        for worker in pool.workers() {
            oracle.set(worker.id, 0.9, 20);
        }
        for (i, (gold, source)) in [
            (2u64, AccuracySource::Registry(oracle)),
            (0u64, AccuracySource::GoldSampling),
        ]
        .into_iter()
        .enumerate()
        {
            scheduler.submit(
                ScheduledJob::named(
                    JobKind::SentimentAnalytics,
                    format!("job-{i}"),
                    demo_questions(8, gold),
                )
                .with_engine(EngineConfig {
                    workers: WorkerCountPolicy::Fixed(5),
                    verification: VerificationStrategy::Probabilistic,
                    termination: Some(TerminationStrategy::ExpMax),
                    domain_size: Some(3),
                    accuracy_source: source,
                    ..EngineConfig::default()
                })
                .with_batch_size(4),
            );
        }
        let mut platform = SimulatedPlatform::new(pool, CostModel::default(), 41);
        scheduler.run_clocked(&mut platform).unwrap()
    };
    assert_eq!(
        run(ArrivalDiscovery::Heap).ignoring_wall_clock(),
        run(ArrivalDiscovery::Scan).ignoring_wall_clock()
    );
}

/// Delegating platform that hides the arrival look-ahead for a configurable subset of
/// HITs: `None` from `next_arrival` demotes those HITs to untracked — the heap loop must
/// fall back to the scan loop's every-tick poll for them, and only them.
struct PartialLookahead {
    inner: SimulatedPlatform,
    /// Hide the look-ahead for HITs whose id satisfies `id % modulus == remainder`.
    modulus: u64,
    remainder: u64,
}

impl CrowdPlatform for PartialLookahead {
    fn publish(&mut self, request: HitRequest) -> HitId {
        self.inner.publish(request)
    }
    fn publish_to(
        &mut self,
        request: HitRequest,
        workers: &[cdas::core::types::WorkerId],
    ) -> HitId {
        self.inner.publish_to(request, workers)
    }
    fn advance_time(&mut self, now: f64) {
        self.inner.advance_time(now);
    }
    fn poll(&mut self, hit: HitId, now: f64) -> Vec<WorkerAnswer> {
        self.inner.poll(hit, now)
    }
    fn next_arrival(&self, hit: HitId) -> Option<f64> {
        if hit.0 % self.modulus == self.remainder {
            None
        } else {
            self.inner.next_arrival(hit)
        }
    }
    fn cancel(&mut self, hit: HitId, now: f64) -> CancelReceipt {
        self.inner.cancel(hit, now)
    }
    fn total_cost(&self) -> f64 {
        self.inner.total_cost()
    }
}

fn hand_wired(discovery: ArrivalDiscovery, seed: u64) -> (JobScheduler, WorkerPool) {
    let pool = WorkerPool::generate(&PoolConfig {
        latency: LatencyModel::Exponential { mean: 5.0 },
        ..PoolConfig::clean(14, 0.88, seed)
    });
    let mut scheduler = JobScheduler::new(
        SchedulerConfig {
            discovery,
            ..SchedulerConfig::default()
        },
        PoolLedger::from_pool(&pool),
    );
    for (i, termination) in [
        Some(TerminationStrategy::ExpMax),
        None,
        Some(TerminationStrategy::MinMax),
    ]
    .into_iter()
    .enumerate()
    {
        scheduler.submit(
            ScheduledJob::named(
                JobKind::SentimentAnalytics,
                format!("job-{i}"),
                demo_questions(8, 2),
            )
            .with_engine(EngineConfig {
                workers: WorkerCountPolicy::Fixed(4),
                verification: VerificationStrategy::Probabilistic,
                termination,
                domain_size: Some(3),
                ..EngineConfig::default()
            })
            .with_batch_size(4),
        );
    }
    (scheduler, pool)
}

/// Untracked HITs (no finite look-ahead) take the every-tick poll path in both modes:
/// with a platform that hides the look-ahead for half the HIT-id space — and one that
/// hides it entirely, degrading to the end-of-time drain — heap must still equal scan.
#[test]
fn heap_equals_scan_with_partially_and_fully_hidden_lookahead() {
    for (modulus, remainder) in [(2, 1), (1, 0)] {
        let run = |discovery| {
            let (mut scheduler, pool) = hand_wired(discovery, 23);
            let mut platform = PartialLookahead {
                inner: SimulatedPlatform::new(pool, CostModel::default(), 23),
                modulus,
                remainder,
            };
            scheduler.run_clocked(&mut platform).unwrap()
        };
        let heap = run(ArrivalDiscovery::Heap);
        let scan = run(ArrivalDiscovery::Scan);
        assert_eq!(
            heap.ignoring_wall_clock(),
            scan.ignoring_wall_clock(),
            "diverged with look-ahead hidden for id % {modulus} == {remainder}"
        );
    }
}

/// Spy platform for the lazy-deletion regression: records every [`CancelReceipt`] and
/// every poll that targets an already-cancelled HIT (a "ghost arrival").
struct CancelSpy {
    inner: SimulatedPlatform,
    cancelled_at: BTreeMap<HitId, f64>,
    reclaimed: f64,
    receipts: usize,
    ghost_polls: Vec<(HitId, f64)>,
}

impl CrowdPlatform for CancelSpy {
    fn publish(&mut self, request: HitRequest) -> HitId {
        self.inner.publish(request)
    }
    fn publish_to(
        &mut self,
        request: HitRequest,
        workers: &[cdas::core::types::WorkerId],
    ) -> HitId {
        self.inner.publish_to(request, workers)
    }
    fn advance_time(&mut self, now: f64) {
        self.inner.advance_time(now);
    }
    fn poll(&mut self, hit: HitId, now: f64) -> Vec<WorkerAnswer> {
        if self.cancelled_at.contains_key(&hit) {
            self.ghost_polls.push((hit, now));
        }
        self.inner.poll(hit, now)
    }
    fn next_arrival(&self, hit: HitId) -> Option<f64> {
        self.inner.next_arrival(hit)
    }
    fn cancel(&mut self, hit: HitId, now: f64) -> CancelReceipt {
        let receipt = self.inner.cancel(hit, now);
        if receipt.cancelled_anything() {
            self.cancelled_at.insert(hit, now);
            self.reclaimed += receipt.reclaimed_minutes;
            self.receipts += 1;
        }
        receipt
    }
    fn total_cost(&self) -> f64 {
        self.inner.total_cost()
    }
}

/// The lazy-deletion regression at the scheduler level: after a mid-flight
/// `cancel(hit, now)`, the heap scheduler never polls that HIT again (its stale queue
/// entry dies silently instead of firing a ghost arrival), and the fleet's
/// `reclaimed_minutes` equals the sum the platform's receipts actually handed back.
#[test]
fn cancelled_hits_fire_no_ghost_arrivals_and_receipts_match() {
    let (mut scheduler, pool) = hand_wired(ArrivalDiscovery::Heap, 31);
    let mut spy = CancelSpy {
        inner: SimulatedPlatform::new(pool, CostModel::default(), 31),
        cancelled_at: BTreeMap::new(),
        reclaimed: 0.0,
        receipts: 0,
        ghost_polls: Vec::new(),
    };
    let report = scheduler.run_clocked(&mut spy).unwrap();

    assert!(
        spy.receipts > 0,
        "the workload must actually cancel mid-flight for this regression to bite"
    );
    assert!(
        spy.ghost_polls.is_empty(),
        "cancelled HITs were polled again: {:?}",
        spy.ghost_polls
    );
    assert!(
        (report.reclaimed_minutes - spy.reclaimed).abs() < 1e-9,
        "fleet reports {} reclaimed minutes but the receipts handed back {}",
        report.reclaimed_minutes,
        spy.reclaimed
    );
}

/// The same lazy-deletion contract end to end through the Fleet facade: the clocked run
/// cancels mid-flight (reclaimed minutes are positive), the report's reclaimed total
/// equals the `LeaseReclaimed` event stream's total, and the heap run's accounting is
/// bit-identical to the scan oracle's.
#[test]
fn facade_reclaimed_minutes_match_the_event_stream_and_the_scan_oracle() {
    let case = contended_case();
    let heap = case.build(ArrivalDiscovery::Heap);
    let run = heap.run(ExecutionMode::Clocked).unwrap();
    let report = run.report();
    assert!(
        report.reclaimed_minutes > 0.0,
        "the contended case must cancel mid-flight"
    );
    let streamed: f64 = run
        .events()
        .iter()
        .filter_map(|event| match event {
            FleetEvent::LeaseReclaimed { minutes, .. } => Some(*minutes),
            _ => None,
        })
        .sum();
    assert!(
        (report.reclaimed_minutes - streamed).abs() < 1e-9,
        "report says {} reclaimed but the event stream carries {streamed}",
        report.reclaimed_minutes
    );
    let scan = case
        .build(ArrivalDiscovery::Scan)
        .run(ExecutionMode::Clocked)
        .unwrap();
    assert_eq!(
        run.report().ignoring_wall_clock(),
        scan.report().ignoring_wall_clock()
    );
}
