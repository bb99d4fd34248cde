//! The fleet workloads: fleet-steady, fleet-contended and fleet-durable.
//!
//! Timed runs call `Fleet::run(ExecutionMode::Clocked)`. The traced run drives the
//! same resolved configuration through the seams `Fleet::run` is built from:
//! `Fleet::run_config` → `JobScheduler::new`/`submit`, `attach_observer` with a
//! [`TimedObserver`] around the journal's `JournalSink`, and `run_clocked` on a
//! [`TimedPlatform`] around the crowd's simulated platform.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cdas_core::online::{OnlineProcessor, TerminationStrategy};
use cdas_core::types::HitId;
use cdas_core::types::{Observation, Vote};
use cdas_core::verification::probabilistic::ProbabilisticVerifier;
use cdas_engine::fleet::{ExecutionMode, Fleet, FleetEvent, FleetRun};
use cdas_engine::journal::recovery::JournalSink;
use cdas_engine::journal::{Journal, JournalConfig, JournalRecord};
use cdas_engine::metrics::FleetReport;
use cdas_engine::scheduler::JobScheduler;
use cdas_engine::service::ServiceConfig;

use crate::inputs::{self, Inputs, Workload};
use crate::stats::{describe, dir_bytes, median, peak_rss_mib, quantile, ratio};
use crate::trace::{
    self, CapturedAnswer, ObserverLog, PlatformCounts, Span, SpanLog, TimedObserver, TimedPlatform,
    TraceClock,
};
use crate::{
    check_accuracy, score_verdicts, Checks, EndToEnd, Options, PerLayer, SetupSamples,
    MIN_TIMED_RUNS, SETUP_REPEATS,
};

/// Replays of the captured answer streams; the replay timings are their median.
const REPLAY_REPEATS: usize = 5;
/// Bare/traced seam-run pairs; `trace.overhead_frac` compares their median walls.
const OVERHEAD_PAIRS: usize = 3;
/// The accuracy every replayed vote carries: the engine's default worker accuracy.
const REPLAY_ACCURACY: f64 = 0.7;

/// The group commit the resident service gives its run journals by default.
fn journal_config(inputs: &Inputs) -> JournalConfig {
    ServiceConfig::new(inputs.crowd.clone()).run_journal
}

/// Generate the inputs and build the fleet, timing the whole set-up and each
/// `Fleet::submit`.
fn build(
    opts: &Options,
    journal: Option<&Path>,
    setups: &mut SetupSamples,
) -> Result<(Inputs, Fleet), String> {
    let start = Instant::now();
    let inputs = inputs::generate(opts.workload, opts.size, opts.seed);
    let mut builder = Fleet::builder()
        .crowd(inputs.crowd.clone())
        .scheduler_seed(inputs.scheduler_seed);
    if let Some(dir) = journal {
        builder = builder.journal(dir).journal_config(journal_config(&inputs));
    }
    let mut fleet = builder.build().map_err(|e| format!("fleet build: {e}"))?;
    for job in inputs.jobs.iter().cloned() {
        let submit = Instant::now();
        let submitted = fleet.submit(job);
        setups.submit_us.push(submit.elapsed().as_secs_f64() * 1e6);
        submitted.map_err(|e| format!("fleet submit: {e}"))?;
    }
    setups.seconds.push(start.elapsed().as_secs_f64());
    Ok((inputs, fleet))
}

/// Every job completed and every real question resolved, scored against the truth.
fn check_report(inputs: &Inputs, report: &FleetReport) -> Result<(), String> {
    if report.jobs.len() != inputs.jobs.len() {
        return Err(format!(
            "{} job reports for {} jobs",
            report.jobs.len(),
            inputs.jobs.len()
        ));
    }
    for (job, truth) in report.jobs.iter().zip(&inputs.truth) {
        if job.report.questions != truth.len() {
            return Err(format!(
                "job {} resolved {} of {} real questions",
                job.name,
                job.report.questions,
                truth.len()
            ));
        }
    }
    if report.fleet.questions != inputs.real_questions() {
        return Err(format!(
            "fleet resolved {} of {} real questions",
            report.fleet.questions,
            inputs.real_questions()
        ));
    }
    Ok(())
}

/// The checks on one `Fleet::run`: completion, accuracy against the generated truth,
/// platform and engine charging the same, the simulated report equal to the
/// reference, and (journaled runs) the journal reading back complete.
fn check_run(
    inputs: &Inputs,
    run: &FleetRun,
    reference: Option<&FleetReport>,
    journal: Option<&Path>,
) -> Result<(), String> {
    let report = run.report();
    check_report(inputs, report)?;
    let accuracy = score_verdicts(
        &inputs.truth,
        run.verdicts().map(|(job, q, verdict)| (job.0, q, verdict)),
    )?;
    check_accuracy(accuracy, report.fleet.accuracy)?;
    if (run.platform_cost() - report.fleet.cost).abs() > 1e-9 * report.fleet.cost.max(1.0) {
        return Err(format!(
            "platform charged {} but the engine accounted {}",
            run.platform_cost(),
            report.fleet.cost
        ));
    }
    if let Some(reference) = reference {
        if report.ignoring_wall_clock() != *reference {
            return Err("a repeat's simulated report differs from the first run's".into());
        }
    }
    if let Some(dir) = journal {
        check_journal(dir)?;
    }
    Ok(())
}

/// The journal in `dir` reads back through `Journal::read` and ends in `RunCompleted`.
fn check_journal(dir: &Path) -> Result<usize, String> {
    let contents = Journal::read(dir).map_err(|e| format!("journal read-back: {e}"))?;
    if contents.torn_tail {
        return Err("journal has a torn tail after a clean run".into());
    }
    match contents.records.last() {
        Some(JournalRecord::RunCompleted { .. }) => Ok(contents.records.len()),
        _ => Err("journal does not end in RunCompleted".into()),
    }
}

/// What one run through the seams produced; the trace fields are empty for a bare run.
struct SeamRun {
    report: FleetReport,
    wall_s: f64,
    spans: Vec<Span>,
    counts: PlatformCounts,
    captured: Vec<CapturedAnswer>,
    seen: ObserverLog,
}

/// Index of the traced run's `engine.scheduler.run_clocked` span; span 0 is the root.
const RUN_SPAN: usize = 1;

/// Whether a seam run wraps the platform and the observer in timing wrappers.
#[derive(Debug, Clone, Copy)]
enum Seams {
    /// The seams as they are: the baseline of `trace.overhead_frac`.
    Bare,
    /// Timing wrappers; the platform wrapper withholds answer `drop_answer` if set.
    Traced { drop_answer: Option<usize> },
}

/// One run through the seams `Fleet::run` is built from. A journaled run writes what
/// `Fleet::run` writes: the `RunStarted` head, every dispatch, charge and commit, then
/// the event stream (`trailer`, taken from an untraced run of the same fleet) and
/// `RunCompleted`.
fn seam_run(
    fleet: &Fleet,
    journal: Option<(&Path, JournalConfig)>,
    trailer: &[FleetEvent],
    seams: Seams,
) -> Result<SeamRun, String> {
    let clock = TraceClock::start();
    let mut top = SpanLog::new(clock, 0, Some(0));
    let config = top
        .time("fleet.run_config", || {
            fleet.run_config(ExecutionMode::Clocked)
        })
        .map_err(|e| format!("run_config: {e}"))?;
    let sink = match journal {
        None => None,
        Some((dir, journal_config)) => {
            let journal = top.time("journal.open", || -> Result<Journal, String> {
                let mut journal =
                    Journal::create(dir, journal_config).map_err(|e| format!("journal: {e}"))?;
                journal
                    .append(&JournalRecord::RunStarted(config.clone()))
                    .map_err(|e| format!("journal head: {e}"))?;
                Ok(journal)
            })?;
            Some(JournalSink::new(journal))
        }
    };
    let mut scheduler = top.time("engine.scheduler.submit", || {
        let mut scheduler = JobScheduler::new(config.scheduler, config.crowd.build_ledger());
        for job in config.jobs.iter().cloned() {
            scheduler.submit(job);
        }
        scheduler
    });
    let run_start;
    let result;
    let run_end;
    let (sink, observer, platform) = match seams {
        Seams::Traced { drop_answer } => {
            let observer = Arc::new(TimedObserver::new(
                sink,
                SpanLog::new(clock, 0, Some(RUN_SPAN)),
            ));
            scheduler.attach_observer(observer.clone());
            let mut platform = TimedPlatform::new(
                config.crowd.build_platform(),
                SpanLog::new(clock, 0, Some(RUN_SPAN)),
                drop_answer,
            );
            run_start = clock.now_ns();
            result = scheduler.run_clocked(&mut platform);
            run_end = clock.now_ns();
            drop(scheduler);
            let observer = Arc::try_unwrap(observer)
                .map_err(|_| "the scheduler kept the observer after the run".to_string())?;
            (None, Some(observer), Some(platform))
        }
        Seams::Bare => {
            let sink = sink.map(Arc::new);
            if let Some(sink) = &sink {
                scheduler.attach_observer(sink.clone());
            }
            let mut platform = config.crowd.build_platform();
            run_start = clock.now_ns();
            result = scheduler.run_clocked(&mut platform);
            run_end = clock.now_ns();
            (sink, None, None)
        }
    };
    let report = result.map_err(|e| format!("seam run: {e}"))?;
    if let Some(sink) = sink
        .as_deref()
        .or(observer.as_ref().and_then(TimedObserver::sink))
    {
        top.time("journal.trailer", || {
            for event in trailer {
                sink.append(&JournalRecord::Event(event.clone()));
            }
            sink.append(&JournalRecord::RunCompleted {
                cost: report.fleet.cost,
                questions: report.fleet.questions,
                makespan: report.makespan,
            });
            sink.sync();
        });
        if let Some(failure) = sink.take_failure() {
            return Err(format!("seam run journal: {failure}"));
        }
    }
    let end = clock.now_ns();
    let mut spans = vec![
        Span {
            name: "fleet.traced_run",
            start_ns: 0,
            end_ns: end,
            parent: None,
            run: 0,
        },
        Span {
            name: "engine.scheduler.run_clocked",
            start_ns: run_start,
            end_ns: run_end,
            parent: Some(0),
            run: 0,
        },
    ];
    spans.extend(top.into_spans());
    let (observer_spans, seen) = observer.map(TimedObserver::finish).unwrap_or_default();
    let (platform_spans, counts, captured) =
        platform.map(TimedPlatform::finish).unwrap_or_default();
    spans.extend(observer_spans);
    spans.extend(platform_spans);
    Ok(SeamRun {
        report,
        wall_s: end as f64 / 1e9,
        spans,
        counts,
        captured,
        seen,
    })
}

/// True per-HIT latency: simulated minutes from each dispatch to its batch commit.
fn hit_latencies(seen: &ObserverLog) -> Result<Vec<f64>, String> {
    let dispatched: BTreeMap<HitId, f64> = seen.dispatched.iter().copied().collect();
    seen.committed
        .iter()
        .map(|(hit, completed_at)| {
            dispatched
                .get(hit)
                .map(|at| completed_at - at)
                .ok_or_else(|| format!("commit of undispatched HIT {hit:?}"))
        })
        .collect()
}

/// Replay the traced run's captured answer streams, one stream per (HIT, question),
/// through `OnlineProcessor::consume` and `ProbabilisticVerifier::verify`. Returns the
/// median over [`REPLAY_REPEATS`] of ns per consumed answer and ns per verification.
fn replay_quality_model(
    captured: &[CapturedAnswer],
    workers_per_hit: usize,
) -> Result<(f64, f64), String> {
    let mut streams: BTreeMap<(HitId, _), Vec<Vote>> = BTreeMap::new();
    for a in captured {
        streams
            .entry((a.hit, a.question))
            .or_default()
            .push(Vote::new(a.worker, a.label.clone(), REPLAY_ACCURACY));
    }
    let streams: Vec<Vec<Vote>> = streams.into_values().collect();
    let answers: usize = streams.iter().map(Vec::len).sum();
    let observations: Vec<Observation> = streams
        .iter()
        .map(|votes| Observation::from_votes(votes.clone()))
        .collect();
    let verifier = ProbabilisticVerifier::new();
    let mut consume_ns = Vec::with_capacity(REPLAY_REPEATS);
    let mut verify_ns = Vec::with_capacity(REPLAY_REPEATS);
    for _ in 0..REPLAY_REPEATS {
        let mut processors = streams
            .iter()
            .map(|_| {
                OnlineProcessor::new(
                    workers_per_hit,
                    REPLAY_ACCURACY,
                    TerminationStrategy::ExpMax,
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("online processor: {e}"))?;
        let votes = streams.clone();
        let start = Instant::now();
        for (processor, stream) in processors.iter_mut().zip(votes) {
            for vote in stream {
                std::hint::black_box(processor.consume(vote).map_err(|e| e.to_string())?);
            }
        }
        consume_ns.push(start.elapsed().as_nanos() as f64 / answers.max(1) as f64);

        let start = Instant::now();
        for observation in &observations {
            std::hint::black_box(verifier.verify(observation).map_err(|e| e.to_string())?);
        }
        verify_ns.push(start.elapsed().as_nanos() as f64 / observations.len().max(1) as f64);
    }
    Ok((median(&consume_ns), median(&verify_ns)))
}

/// Set up, time, trace and check one fleet workload.
pub fn run(opts: &Options) -> Result<(Checks, EndToEnd, PerLayer, Vec<Span>), String> {
    let durable = opts.workload == Workload::FleetDurable;
    let journal_dir = opts
        .work_dir
        .join(format!("{}-journal", opts.workload.name()));
    let traced_dir = opts
        .work_dir
        .join(format!("{}-traced", opts.workload.name()));
    let journal = durable.then_some(journal_dir.as_path());
    let mut checks = Checks::default();

    let mut setups = SetupSamples::default();
    let (inputs, fleet) = build(opts, journal, &mut setups)?;

    // A first, untimed run warms caches and gives the reference report and the event
    // stream the traced run's journal trailer repeats.
    let clear = |dir: &Path| {
        let _ = std::fs::remove_dir_all(dir);
    };
    if let Some(dir) = journal {
        clear(dir);
    }
    let first = fleet
        .run(ExecutionMode::Clocked)
        .map_err(|e| format!("first run: {e}"))?;
    checks.op(check_run(&inputs, &first, None, journal));
    let reference = first.report().ignoring_wall_clock();

    // Timed runs, tracing off, for `seconds`.
    let mut walls = Vec::new();
    let timing = Instant::now();
    while walls.len() < MIN_TIMED_RUNS || timing.elapsed().as_secs_f64() < opts.seconds {
        if let Some(dir) = journal {
            clear(dir);
        }
        let start = Instant::now();
        let result = fleet.run(ExecutionMode::Clocked);
        let wall = start.elapsed().as_secs_f64();
        match result {
            Ok(run) => {
                checks.op(check_run(&inputs, &run, Some(&reference), journal));
                walls.push(wall);
                build(opts, journal, &mut setups)?;
            }
            Err(e) => {
                checks.op(Err(format!("timed run: {e}")));
                break;
            }
        }
    }
    while setups.seconds.len() < SETUP_REPEATS {
        build(opts, journal, &mut setups)?;
    }
    eprintln!("timed runs, wall s: {}", describe(&walls));
    let peak_rss_mib = peak_rss_mib()?;

    // Traced and bare runs through the seams, alternating: the traced run's report
    // must equal the untraced one, and their median walls give the tracing overhead.
    // Without `trace` one traced run serves the checks and the HIT latencies.
    let traced_journal = || durable.then(|| (traced_dir.as_path(), journal_config(&inputs)));
    let mut bare_walls = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut traced_walls = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut traced = None;
    for _ in 0..if opts.trace { OVERHEAD_PAIRS } else { 1 } {
        if opts.trace {
            clear(&traced_dir);
            let bare = seam_run(&fleet, traced_journal(), first.events(), Seams::Bare)?;
            checks.op(if bare.report.ignoring_wall_clock() == reference {
                Ok(())
            } else {
                Err("the bare seam run's report differs from Fleet::run's".into())
            });
            bare_walls.push(bare.wall_s);
        }
        clear(&traced_dir);
        let run = seam_run(
            &fleet,
            traced_journal(),
            first.events(),
            Seams::Traced {
                drop_answer: opts.drop_answer,
            },
        )?;
        checks.op(if run.report.ignoring_wall_clock() == reference {
            check_report(&inputs, &run.report)
        } else {
            Err("the traced run's report differs from the untraced run's".into())
        });
        traced_walls.push(run.wall_s);
        traced = Some(run);
    }
    let traced = traced.ok_or("no traced run")?;
    let journal_records = if durable {
        let records = check_journal(&traced_dir);
        let count = records.as_ref().map_or(0, |n| *n);
        checks.op(records.map(|_| ()));
        count
    } else {
        0
    };
    let journal_bytes = dir_bytes(&traced_dir);
    if let Some(dir) = journal {
        clear(dir);
    }
    clear(&traced_dir);

    let latencies = hit_latencies(&traced.seen);
    checks.op(latencies.as_ref().map(|_| ()).map_err(Clone::clone));
    let latencies = latencies.unwrap_or_default();

    let report = first.report();
    let questions = report.fleet.questions as f64;
    let end_to_end = EndToEnd {
        questions_per_s: median(&walls.iter().map(|w| questions / w).collect::<Vec<_>>()),
        setup_s: median(&setups.seconds),
        peak_rss_mib,
        submit_p50_us: median(&setups.submit_us),
        accuracy: report.fleet.accuracy,
        cost_per_question_usd: ratio(report.fleet.cost, questions),
        makespan_min: report.makespan,
        hit_latency_p50_min: quantile(&latencies, 0.5),
        hit_latency_p99_min: quantile(&latencies, 0.99),
    };

    let spans = &traced.spans;
    let run_ns = spans[RUN_SPAN].ns() as f64;
    let in_run = |prefix: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.parent == Some(RUN_SPAN) && s.name.starts_with(prefix))
            .map(Span::ns)
            .sum::<u64>() as f64
    };
    let platform_ns = in_run("platform.");
    let journal_ns = in_run("journal.");
    let self_ns = run_ns - platform_ns - journal_ns;
    let mean_us = |name: &str| {
        ratio(
            trace::total_ns(spans, name) as f64,
            trace::count(spans, name) as f64,
        ) / 1e3
    };
    let hits = report.dispatches.len() as f64;
    let waits: usize = report.jobs.iter().map(|j| j.ticks_waited).sum();
    let assigned =
        (inputs.real_questions() + gold_questions(&inputs)) * inputs.shape.workers_per_hit;
    let (consume_ns, verify_ns) = if opts.trace {
        replay_quality_model(&traced.captured, inputs.shape.workers_per_hit)?
    } else {
        (0.0, 0.0)
    };
    let counts = traced.counts;
    let per_layer = PerLayer {
        platform_busy_frac: ratio(platform_ns, run_ns),
        platform_publish_us: mean_us("platform.publish"),
        platform_poll_us: mean_us("platform.poll"),
        platform_polls: counts.polls as f64,
        platform_answers: counts.answers as f64,
        platform_empty_poll_frac: ratio(counts.empty_polls as f64, counts.polls as f64),
        scheduler_self_frac: ratio(self_ns, run_ns),
        scheduler_ticks: report.ticks as f64,
        scheduler_self_us_per_tick: ratio(self_ns, report.ticks as f64) / 1e3,
        lease_attempts: hits + waits as f64,
        lease_failures: waits as f64,
        lease_yield: ratio(hits, hits + waits as f64),
        online_answers_per_question: report.fleet.mean_answers_used,
        online_cancelled_frac: ratio(report.answers_cancelled as f64, assigned as f64),
        online_consume_ns: consume_ns,
        verification_verify_ns: verify_ns,
        sharing_cache_hit_rate: report.cache_hit_rate(),
        sharing_registry_size: report.registry_size as f64,
        journal_busy_frac: ratio(journal_ns, run_ns),
        journal_dispatch_us: mean_us("journal.dispatch"),
        journal_charge_us: mean_us("journal.charge"),
        journal_commit_us: mean_us("journal.commit"),
        journal_records: journal_records as f64,
        journal_bytes_per_question: ratio(journal_bytes as f64, questions),
        shard_imbalance: shard_imbalance(&traced.report),
        fleet_parallel_speedup: traced.report.parallel_speedup(),
        trace_overhead_frac: if opts.trace {
            median(&traced_walls) / median(&bare_walls) - 1.0
        } else {
            0.0
        },
        submit_samples: setups.submit_us.len() as f64,
        hit_latency_samples: latencies.len() as f64,
        ..PerLayer::default()
    };
    Ok((checks, end_to_end, per_layer, traced.spans))
}

/// Gold questions across all jobs.
pub fn gold_questions(inputs: &Inputs) -> usize {
    inputs
        .jobs
        .iter()
        .map(|j| j.question_count())
        .sum::<usize>()
        - inputs.real_questions()
}

/// The slowest shard's loop time over the mean shard's (1 for one shard).
pub fn shard_imbalance(report: &FleetReport) -> f64 {
    let walls: Vec<f64> = report.shards.iter().map(|s| s.wall_seconds).collect();
    let mean = ratio(walls.iter().sum(), walls.len() as f64);
    ratio(walls.iter().copied().fold(0.0, f64::max), mean)
}
