//! Integration tests of the multi-job scheduler: mixed TSA + IT jobs multiplexed over one
//! shared worker pool, with disjoint per-HIT worker leases and a fleet-wide shared
//! accuracy registry (cross-job reuse of gold estimates).

use cdas::core::economics::CostModel;
use cdas::core::types::HitId;
use cdas::crowd::hit::HitRequest;
use cdas::crowd::platform::WorkerAnswer;
use cdas::crowd::question::CrowdQuestion;
use cdas::prelude::*;
use cdas::workloads::it::images::SyntheticImage;
use cdas::workloads::tsa::tweets::Tweet;

fn tweets(seed: u64, count: usize) -> Vec<Tweet> {
    let mut g = TweetGenerator::new(TweetGeneratorConfig {
        seed,
        ..TweetGeneratorConfig::default()
    });
    g.generate("Thor", count)
}

fn images(seed: u64, count: usize) -> Vec<SyntheticImage> {
    let mut g = ImageGenerator::new(ImageGeneratorConfig {
        seed,
        ..ImageGeneratorConfig::default()
    });
    g.generate("tiger", count)
}

fn fixed_engine(n: usize, domain: Option<usize>) -> EngineConfig {
    EngineConfig {
        workers: WorkerCountPolicy::Fixed(n),
        domain_size: domain,
        ..EngineConfig::default()
    }
}

/// TSA questions with gold flags, exactly as the TSA application renders them.
fn tsa_questions(seed: u64, count: usize) -> Vec<CrowdQuestion> {
    let ts = tweets(seed, count);
    let refs: Vec<&Tweet> = ts.iter().collect();
    TsaApp::new(TsaConfig::default()).build_questions(&refs)
}

/// IT questions with gold flags, exactly as the IT application renders them.
fn it_questions(seed: u64, count: usize) -> Vec<CrowdQuestion> {
    let imgs = images(seed, count);
    let refs: Vec<&SyntheticImage> = imgs.iter().collect();
    ImageTaggingApp::new(ItConfig::default()).build_questions(&refs)
}

/// IT questions with NO gold questions at all: a job that can never estimate worker
/// accuracy on its own and must rely on what other jobs learned.
fn it_questions_no_gold(seed: u64, count: usize) -> Vec<CrowdQuestion> {
    images(seed, count)
        .iter()
        .map(|img| {
            CrowdQuestion::new(img.id, img.domain(), img.truth_label())
                .with_difficulty(img.difficulty)
        })
        .collect()
}

fn setup(pool_size: usize, accuracy: f64, seed: u64) -> (SimulatedPlatform, PoolLedger) {
    let pool = WorkerPool::generate(&PoolConfig::clean(pool_size, accuracy, seed));
    let ledger = PoolLedger::from_pool(&pool);
    (
        SimulatedPlatform::new(pool, CostModel::default(), seed),
        ledger,
    )
}

#[test]
fn mixed_fleet_completes_all_jobs_against_one_pool() {
    let (mut platform, ledger) = setup(16, 0.8, 77);
    let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);

    let thor = scheduler.submit(
        ScheduledJob::named(
            JobKind::SentimentAnalytics,
            "thor-tsa",
            tsa_questions(1, 30),
        )
        .with_engine(fixed_engine(7, Some(3)))
        .with_batch_size(10),
    );
    let hulk = scheduler.submit(
        ScheduledJob::named(
            JobKind::SentimentAnalytics,
            "hulk-tsa",
            tsa_questions(2, 30),
        )
        .with_engine(fixed_engine(7, Some(3)))
        .with_batch_size(10),
    );
    let tiger = scheduler.submit(
        ScheduledJob::named(JobKind::ImageTagging, "tiger-it", it_questions(3, 20))
            .with_engine(fixed_engine(5, None))
            .with_batch_size(10),
    );

    let report = scheduler.run_clocked(&mut platform).unwrap();
    assert_eq!(report.jobs.len(), 3);

    // Every job resolved every one of its real (non-gold) questions.
    for (id, questions) in [
        (thor, tsa_questions(1, 30)),
        (hulk, tsa_questions(2, 30)),
        (tiger, it_questions(3, 20)),
    ] {
        let real = questions.iter().filter(|q| !q.is_gold).count();
        let job = &report.jobs[id.0];
        assert_eq!(
            job.report.questions, real,
            "{} scored every question",
            job.name
        );
        assert!(job.hits >= 2, "{} was split into batches", job.name);
    }

    // Quality holds fleet-wide even under contention.
    assert!(
        report.fleet.accuracy > 0.8,
        "fleet accuracy {}",
        report.fleet.accuracy
    );
    assert!(report.total_cost() > 0.0);
    assert!(report.questions_per_tick() > 0.0);

    // A 16-worker pool cannot fit 7+7+5 workers at once, so at least one job waited.
    assert!(
        report.jobs.iter().any(|j| j.ticks_waited > 0),
        "expected pool contention across 3 jobs on 16 workers"
    );
    // But at least two HITs were in flight together: jobs really ran concurrently.
    assert!(
        report.max_concurrent_hits() >= 2,
        "expected concurrent HITs, got {}",
        report.max_concurrent_hits()
    );
}

#[test]
fn concurrent_hits_never_share_a_worker_and_never_repeat_one() {
    let (mut platform, ledger) = setup(25, 0.8, 13);
    let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);
    for (name, seed) in [("a", 4u64), ("b", 5), ("c", 6)] {
        scheduler.submit(
            ScheduledJob::named(JobKind::SentimentAnalytics, name, tsa_questions(seed, 20))
                .with_engine(fixed_engine(7, Some(3)))
                .with_batch_size(5),
        );
    }
    let report = scheduler.run_clocked(&mut platform).unwrap();

    for a in &report.dispatches {
        // Within one HIT, a worker appears exactly once — so no worker ever answers
        // the same question twice.
        let mut ids: Vec<u64> = a.workers.iter().map(|w| w.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.workers.len(), "duplicate worker inside a HIT");

        // Across HITs in flight during the same tick, worker sets are disjoint.
        for b in &report.dispatches {
            if a.tick == b.tick && (a.job, a.hit) != (b.job, b.hit) {
                assert!(
                    a.workers.iter().all(|w| !b.workers.contains(w)),
                    "tick {}: HITs {:?} and {:?} share a worker",
                    a.tick,
                    a.hit,
                    b.hit
                );
            }
        }
    }
}

#[test]
fn accuracy_learned_in_one_job_reweights_votes_in_another() {
    let (mut platform, ledger) = setup(15, 0.8, 99);
    let mut scheduler = JobScheduler::new(SchedulerConfig::default(), ledger);

    // Job A (TSA) carries gold questions: it is the only source of accuracy estimates.
    scheduler.submit(
        ScheduledJob::named(JobKind::SentimentAnalytics, "teacher", tsa_questions(8, 40))
            .with_engine(fixed_engine(7, Some(3)))
            .with_batch_size(10),
    );
    // Job B (IT) has ZERO gold questions: alone, it could never estimate anyone.
    let student = scheduler.submit(
        ScheduledJob::named(
            JobKind::ImageTagging,
            "student",
            it_questions_no_gold(9, 20),
        )
        .with_engine(fixed_engine(7, None))
        .with_batch_size(10),
    );

    let report = scheduler.run_clocked(&mut platform).unwrap();

    // The student's verification registries are populated purely by estimates sampled in
    // the teacher's gold questions (samples > 0 proves gold sampling, which the student
    // cannot have done).
    let student_runs = scheduler.outcomes(student);
    assert!(!student_runs.is_empty());
    let mut saw_estimates = false;
    for (questions, outcome) in student_runs {
        assert!(questions.iter().all(|q| !q.is_gold), "student has no gold");
        if !outcome.registry.is_empty() {
            saw_estimates = true;
            assert!(
                outcome.registry.iter().all(|(_, e)| e.samples > 0),
                "student estimates must come from gold sampling in the teacher job"
            );
        }
    }
    assert!(
        saw_estimates,
        "cross-job reuse: the teacher's estimates never reached the student"
    );

    // The shared registry outlives the fleet and the cache did its job.
    assert!(report.registry_size > 0);
    assert!(scheduler.shared_registry().len() == report.registry_size);
    assert!(report.cache_misses > 0);
    assert!(
        report.cache_hit_rate() >= 0.0 && report.cache_hit_rate() <= 1.0,
        "hit rate is a fraction"
    );
}

#[test]
fn priority_policy_orders_mixed_kinds() {
    let (mut platform, ledger) = setup(9, 0.8, 55);
    let mut scheduler = JobScheduler::new(
        SchedulerConfig {
            policy: DispatchPolicy::Priority,
            ..SchedulerConfig::default()
        },
        ledger,
    );
    // The 9-worker pool fits exactly one 7-worker HIT at a time: strict serialization.
    let background = scheduler.submit(
        ScheduledJob::named(JobKind::ImageTagging, "background", it_questions(21, 12))
            .with_engine(fixed_engine(7, None))
            .with_batch_size(6),
    );
    let urgent = scheduler.submit(
        ScheduledJob::named(JobKind::SentimentAnalytics, "urgent", tsa_questions(22, 12))
            .with_engine(fixed_engine(7, Some(3)))
            .with_batch_size(6)
            .with_priority(10),
    );
    let report = scheduler.run_clocked(&mut platform).unwrap();
    let last_urgent = report
        .dispatches
        .iter()
        .filter(|d| d.job == urgent)
        .map(|d| d.tick)
        .max()
        .unwrap();
    let first_background = report
        .dispatches
        .iter()
        .filter(|d| d.job == background)
        .map(|d| d.tick)
        .min()
        .unwrap();
    assert!(
        last_urgent < first_background,
        "urgent drained first: urgent last {last_urgent}, background first {first_background}"
    );
    // The background job still completed — priority is not starvation.
    assert!(report.jobs[background.0].report.questions > 0);
}

/// FNV-1a over a run's dispatch decisions: the `DispatchRecord` timeline (tick, job, HIT,
/// leased workers in assignment order) followed by every job's `ticks_waited`.
fn dispatch_digest(report: &FleetReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for d in &report.dispatches {
        mix(d.tick as u64);
        mix(d.job.0 as u64);
        mix(d.hit.0);
        mix(d.workers.len() as u64);
        for w in &d.workers {
            mix(w.0);
        }
    }
    for job in &report.jobs {
        mix(job.ticks_waited as u64);
    }
    hash
}

/// [`dispatch_digest`] extended, FNV-1a style, with what the run concluded batch by
/// batch: each job's per-batch cost bits and every verdict (question, accepted label or
/// none, answers used).
fn outcome_digest(report: &FleetReport, scheduler: &JobScheduler) -> u64 {
    let mut hash = dispatch_digest(report);
    let mut mix = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for job in 0..scheduler.job_count() {
        for (_, outcome) in scheduler.outcomes(JobId(job)) {
            mix(&outcome.cost.to_bits().to_le_bytes());
            for v in &outcome.verdicts {
                mix(&v.question.0.to_le_bytes());
                mix(v
                    .verdict
                    .label()
                    .map_or(&[0xff][..], |l| l.as_str().as_bytes()));
                mix(&(v.answers_used as u64).to_le_bytes());
            }
        }
    }
    hash
}

/// A platform adapter that cannot look ahead: `next_arrival` keeps the trait default
/// (`None`), so `run_clocked` drains each HIT in one poll and every batch lives exactly
/// one tick.
struct NoLookahead(SimulatedPlatform);

impl CrowdPlatform for NoLookahead {
    fn publish(&mut self, request: HitRequest) -> HitId {
        self.0.publish(request)
    }
    fn publish_to(&mut self, request: HitRequest, workers: &[WorkerId]) -> HitId {
        self.0.publish_to(request, workers)
    }
    fn advance_time(&mut self, now: f64) {
        self.0.advance_time(now);
    }
    fn poll(&mut self, hit: HitId, now: f64) -> Vec<WorkerAnswer> {
        self.0.poll(hit, now)
    }
    fn cancel(&mut self, hit: HitId, now: f64) -> CancelReceipt {
        self.0.cancel(hit, now)
    }
    fn total_cost(&self) -> f64 {
        self.0.total_cost()
    }
}

/// A contended fleet: 12 mixed jobs needing 3, 5 or 7 workers over a 20-worker pool with
/// exponential latencies, so most jobs wait for leases most ticks and big leases are
/// refused while small ones are granted. With `termination` set, it also frees workers
/// mid-flight. `lookahead: false` runs it over [`NoLookahead`]. Returns the report and
/// its [`outcome_digest`].
fn contended_fleet(
    policy: DispatchPolicy,
    termination: Option<TerminationStrategy>,
    lookahead: bool,
) -> (FleetReport, u64) {
    let pool = WorkerPool::generate(&PoolConfig {
        latency: LatencyModel::Exponential { mean: 5.0 },
        ..PoolConfig::clean(20, 0.8, 31)
    });
    let ledger = PoolLedger::from_pool(&pool);
    let mut platform = SimulatedPlatform::new(pool, CostModel::default(), 31);
    let mut scheduler = JobScheduler::new(
        SchedulerConfig {
            policy,
            seed: 5,
            ..SchedulerConfig::default()
        },
        ledger,
    );
    for j in 0..12u64 {
        let workers = [3, 5, 7][(j % 3) as usize];
        let (kind, questions, domain) = if j % 2 == 0 {
            (
                JobKind::SentimentAnalytics,
                tsa_questions(100 + j, 16),
                Some(3),
            )
        } else {
            (JobKind::ImageTagging, it_questions(100 + j, 16), None)
        };
        scheduler.submit(
            ScheduledJob::named(kind, format!("job-{j}"), questions)
                .with_engine(EngineConfig {
                    termination,
                    ..fixed_engine(workers, domain)
                })
                .with_batch_size(4)
                .with_priority((j % 4) as u8),
        );
    }
    let report = if lookahead {
        scheduler.run_clocked(&mut platform).unwrap()
    } else {
        scheduler.run_clocked(&mut NoLookahead(platform)).unwrap()
    };
    let digest = outcome_digest(&report, &scheduler);
    (report, digest)
}

#[test]
fn contended_dispatch_timeline_is_pinned_across_ledger_implementations() {
    // Digests recorded with the tree-based lease ledger that the roster-indexed table
    // replaced: the table must make exactly the same grants, in the same order, and
    // refuse exactly the same attempts.
    let pinned = [
        (
            DispatchPolicy::RoundRobin,
            true,
            15_768_416_056_519_699_923u64,
        ),
        (DispatchPolicy::Priority, true, 2_475_084_079_887_376_850),
        (
            DispatchPolicy::RoundRobin,
            false,
            10_364_239_235_209_052_430,
        ),
    ];
    for (policy, lookahead, expected) in pinned {
        let (report, _) = contended_fleet(policy, Some(TerminationStrategy::ExpMax), lookahead);
        assert!(
            report.jobs.iter().any(|j| j.ticks_waited > 0),
            "{policy:?} lookahead={lookahead}: the fleet must contend for leases"
        );
        assert_eq!(
            dispatch_digest(&report),
            expected,
            "{policy:?} lookahead={lookahead}: dispatch timeline drifted"
        );
    }
}

#[test]
fn termination_free_fleet_without_lookahead_is_pinned() {
    // Recorded with the end-of-time tick loop that `run_clocked` over a platform without
    // look-ahead replaced: for jobs without online termination, the two make the same
    // dispatches, verdicts and per-batch charges.
    let (report, digest) = contended_fleet(DispatchPolicy::RoundRobin, None, false);
    assert!(report.jobs.iter().any(|j| j.ticks_waited > 0));
    assert_eq!(dispatch_digest(&report), 10_364_239_235_209_052_430);
    assert_eq!(digest, 14_578_003_984_171_343_678);
}
