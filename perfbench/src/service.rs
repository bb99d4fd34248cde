//! The service-waves workload: one caller drives a resident `FleetService` through
//! `open`, waves of `submit` each followed by `run_epoch`, and `shutdown`.
//!
//! The service runs its epochs internally, so its platform, scheduler and journal are
//! out of the benchmark's reach; the traced lifetime times the four public calls, and
//! the simulated per-layer numbers come from the epoch reports and the journals the
//! service leaves on disk.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use cdas_core::types::HitId;
use cdas_engine::fleet::{FleetEvent, JobSpec};
use cdas_engine::journal::{Journal, JournalRecord};
use cdas_engine::scheduler::SchedulerConfig;
use cdas_engine::service::manifest::{epoch_dir, manifest_dir};
use cdas_engine::service::{
    AdmissionDecision, AdmissionModel, FleetService, ServiceConfig, ServiceEvent, ServiceReport,
};

use crate::fleet::{gold_questions, shard_imbalance};
use crate::inputs::{self, Inputs};
use crate::stats::{describe, dir_bytes, median, peak_rss_mib, quantile, ratio};
use crate::trace::{Span, SpanLog, TraceClock};
use crate::{
    check_accuracy, score_verdicts, Checks, EndToEnd, Options, PerLayer, SetupSamples,
    MIN_TIMED_RUNS, SETUP_REPEATS,
};

/// Forecasts timed per job; `admission.forecast_us` is the median of the repeats.
const FORECAST_REPEATS: usize = 5;

fn config(inputs: &Inputs) -> ServiceConfig {
    ServiceConfig::new(inputs.crowd.clone())
        .max_shards(2)
        .scheduler(SchedulerConfig {
            seed: inputs.scheduler_seed,
            ..SchedulerConfig::default()
        })
}

/// Generate the inputs and open a service in a fresh `dir`, timing both; the service
/// is dropped unused.
fn set_up(opts: &Options, dir: &Path, setups: &mut SetupSamples) -> Result<Inputs, String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let inputs = inputs::generate(opts.workload, opts.size, opts.seed);
    let service =
        FleetService::open(dir, config(&inputs)).map_err(|e| format!("service open: {e}"))?;
    setups.seconds.push(start.elapsed().as_secs_f64());
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
    Ok(inputs)
}

/// One service lifetime in a fresh `dir`. Every call is a span of `log`; each submit
/// and epoch is an operation of `checks`.
fn lifetime(
    dir: &Path,
    inputs: &Inputs,
    jobs: Vec<JobSpec>,
    log: &mut SpanLog,
    checks: &mut Checks,
) -> Result<ServiceReport, String> {
    let per_wave = jobs.len().div_ceil(inputs.shape.waves.max(1)).max(1);
    let mut service = log
        .time("service.open", || FleetService::open(dir, config(inputs)))
        .map_err(|e| format!("service open: {e}"))?;
    let mut jobs = jobs.into_iter().peekable();
    while jobs.peek().is_some() {
        for job in jobs.by_ref().take(per_wave) {
            let ticket = log.time("service.submit", || service.submit(job));
            checks.op(ticket.map(|_| ()).map_err(|e| e.to_string()));
        }
        let epoch = log.time("service.run_epoch", || service.run_epoch());
        checks.op(epoch.map(|_| ()).map_err(|e| format!("epoch: {e}")));
    }
    log.time("service.shutdown", || service.shutdown())
        .map_err(|e| format!("service shutdown: {e}"))
}

/// Real questions resolved across every epoch.
fn questions(report: &ServiceReport) -> usize {
    report.epochs.iter().map(|e| e.fleet.questions).sum()
}

/// The checks on one lifetime's report: nothing rejected or left unserved, every
/// submit counted, every real question resolved and scored against the truth, and the
/// simulated report equal to the reference.
fn check_lifetime(
    inputs: &Inputs,
    report: &ServiceReport,
    reference: Option<&ServiceReport>,
) -> Result<(), String> {
    if report.rejected != 0 || !report.unserved.is_empty() {
        return Err(format!(
            "{} rejected and {} unserved tickets",
            report.rejected,
            report.unserved.len()
        ));
    }
    if report.submitted != inputs.jobs.len() {
        return Err(format!(
            "service counted {} submits of {}",
            report.submitted,
            inputs.jobs.len()
        ));
    }
    if questions(report) != inputs.real_questions() {
        return Err(format!(
            "service resolved {} of {} real questions",
            questions(report),
            inputs.real_questions()
        ));
    }
    let verdicts = report.events.iter().filter_map(|e| match e {
        ServiceEvent::Job {
            ticket,
            event:
                FleetEvent::QuestionTerminated {
                    question, verdict, ..
                },
            ..
        } => Some((ticket.0 as usize, *question, verdict)),
        _ => None,
    });
    let accuracy = score_verdicts(&inputs.truth, verdicts)?;
    let correct: f64 = report
        .epochs
        .iter()
        .map(|e| e.fleet.accuracy * e.fleet.questions as f64)
        .sum();
    check_accuracy(accuracy, ratio(correct, questions(report) as f64))?;
    if let Some(reference) = reference {
        if report.ignoring_wall_clock() != *reference {
            return Err("a repeat's simulated service report differs from the first".into());
        }
    }
    Ok(())
}

/// Per-HIT latency from the epoch run journals: dispatch `at` to commit
/// `completed_at`, keyed by (epoch, HIT). Also returns the journals' record count and
/// bytes.
fn epoch_journals(dir: &Path, epochs: usize) -> Result<(Vec<f64>, usize, u64), String> {
    let mut latencies = Vec::new();
    let mut records = 0;
    let mut bytes = 0;
    for epoch in 0..epochs as u64 {
        let path = epoch_dir(dir, epoch);
        let contents = Journal::read(&path).map_err(|e| format!("epoch {epoch} journal: {e}"))?;
        if !matches!(
            contents.records.last(),
            Some(JournalRecord::RunCompleted { .. })
        ) {
            return Err(format!(
                "epoch {epoch} journal does not end in RunCompleted"
            ));
        }
        records += contents.records.len();
        bytes += dir_bytes(&path);
        let mut dispatched: BTreeMap<HitId, f64> = BTreeMap::new();
        for record in &contents.records {
            match record {
                JournalRecord::Dispatch(d) => {
                    dispatched.insert(d.hit, d.at);
                }
                JournalRecord::Commit(c) => {
                    let at = dispatched
                        .get(&c.hit)
                        .ok_or_else(|| format!("epoch {epoch}: commit of undispatched HIT"))?;
                    latencies.push(c.completed_at - at);
                }
                _ => {}
            }
        }
    }
    Ok((latencies, records, bytes))
}

/// Each ticket's forecast against its job's actual cost and completion time in its
/// epoch: the median relative error of cost and of makespan. Forecasts taken against a
/// full mix predict an unbounded makespan and are left out of the makespan error.
fn forecast_errors(report: &ServiceReport) -> (f64, f64) {
    let forecasts: BTreeMap<u64, _> = report
        .events
        .iter()
        .filter_map(|e| match e {
            ServiceEvent::Submitted {
                ticket, forecast, ..
            } => Some((ticket.0, *forecast)),
            _ => None,
        })
        .collect();
    let mut cost_err = Vec::new();
    let mut makespan_err = Vec::new();
    for event in &report.events {
        let ServiceEvent::EpochStarted { epoch, tickets, .. } = event else {
            continue;
        };
        let Some(epoch_report) = report.epochs.get(*epoch as usize) else {
            continue;
        };
        for (job, ticket) in epoch_report.jobs.iter().zip(tickets) {
            let Some(forecast) = forecasts.get(&ticket.0) else {
                continue;
            };
            cost_err.push(ratio(
                (forecast.cost - job.report.cost).abs(),
                job.report.cost,
            ));
            if forecast.makespan_minutes.is_finite() {
                makespan_err.push(ratio(
                    (forecast.makespan_minutes - job.completed_at).abs(),
                    job.completed_at,
                ));
            }
        }
    }
    (median(&cost_err), median(&makespan_err))
}

/// Time `AdmissionModel::forecast` on the jobs the manifest journaled, as resolved by
/// the service, against an idle crowd.
fn time_forecasts(dir: &Path, inputs: &Inputs) -> Result<f64, String> {
    let contents =
        Journal::read(manifest_dir(dir)).map_err(|e| format!("manifest read-back: {e}"))?;
    let jobs: Vec<_> = contents
        .records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::ServiceSubmitted(s) => Some(s.job.clone()),
            _ => None,
        })
        .collect();
    if jobs.len() != inputs.jobs.len() {
        return Err(format!(
            "manifest holds {} submissions of {}",
            jobs.len(),
            inputs.jobs.len()
        ));
    }
    let model = AdmissionModel::new(&inputs.crowd);
    let mut per_forecast_us = Vec::with_capacity(FORECAST_REPEATS);
    for _ in 0..FORECAST_REPEATS {
        let start = Instant::now();
        for job in &jobs {
            std::hint::black_box(model.forecast(job, 0).map_err(|e| e.to_string())?);
        }
        per_forecast_us.push(start.elapsed().as_secs_f64() * 1e6 / jobs.len() as f64);
    }
    Ok(median(&per_forecast_us))
}

/// Set up, time, trace and check the service-waves workload.
pub fn run(opts: &Options) -> Result<(Checks, EndToEnd, PerLayer, Vec<Span>), String> {
    let dir = opts.work_dir.join("service-waves");
    let clear = || {
        let _ = std::fs::remove_dir_all(&dir);
    };
    let mut checks = Checks::default();

    let setup_dir = opts.work_dir.join("service-waves-setup");
    let mut setups = SetupSamples::default();
    let inputs = set_up(opts, &setup_dir, &mut setups)?;

    // A first, untimed lifetime gives the reference report.
    let clock = TraceClock::start();
    clear();
    let first = lifetime(
        &dir,
        &inputs,
        inputs.jobs.clone(),
        &mut SpanLog::new(clock, 0, None),
        &mut checks,
    )?;
    checks.op(check_lifetime(&inputs, &first, None));
    let reference = first.ignoring_wall_clock();

    // Timed lifetimes, from `open` to `shutdown`.
    let mut walls = Vec::new();
    let mut submit_us = Vec::new();
    let timing = Instant::now();
    while walls.len() < MIN_TIMED_RUNS || timing.elapsed().as_secs_f64() < opts.seconds {
        clear();
        let jobs = inputs.jobs.clone();
        let mut log = SpanLog::new(clock, 0, None);
        let start = Instant::now();
        let result = lifetime(&dir, &inputs, jobs, &mut log, &mut checks);
        let wall = start.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                checks.op(check_lifetime(&inputs, &report, Some(&reference)));
                walls.push(wall);
                set_up(opts, &setup_dir, &mut setups)?;
                submit_us.extend(
                    log.into_spans()
                        .iter()
                        .filter(|s| s.name == "service.submit")
                        .map(|s| s.ns() as f64 / 1e3),
                );
            }
            Err(e) => {
                checks.op(Err(e));
                break;
            }
        }
    }
    while setups.seconds.len() < SETUP_REPEATS {
        set_up(opts, &setup_dir, &mut setups)?;
    }
    eprintln!("timed lifetimes, wall s: {}", describe(&walls));
    let peak_rss_mib = peak_rss_mib()?;

    // The traced lifetime: one root span, the four public calls under it.
    clear();
    let clock = TraceClock::start();
    let mut log = SpanLog::new(clock, 1, Some(0));
    let traced = lifetime(&dir, &inputs, inputs.jobs.clone(), &mut log, &mut checks)?;
    let traced_wall_s = clock.now_ns() as f64 / 1e9;
    checks.op(if traced.ignoring_wall_clock() == reference {
        Ok(())
    } else {
        Err("the traced lifetime's report differs from the untraced one's".into())
    });
    let mut spans = vec![Span {
        name: "service.lifetime",
        start_ns: 0,
        end_ns: clock.now_ns(),
        parent: None,
        run: 1,
    }];
    spans.extend(log.into_spans());

    let journals = epoch_journals(&dir, traced.epochs.len());
    checks.op(journals.as_ref().map(|_| ()).map_err(Clone::clone));
    let (latencies, journal_records, journal_bytes) = journals.unwrap_or_default();
    let forecast_us = if opts.trace {
        let timed = time_forecasts(&dir, &inputs);
        checks.op(timed.as_ref().map(|_| ()).map_err(Clone::clone));
        timed.unwrap_or_default()
    } else {
        0.0
    };
    let manifest_bytes = dir_bytes(&manifest_dir(&dir));
    clear();

    let resolved = questions(&traced) as f64;
    let wall_median = median(&walls);
    let end_to_end = EndToEnd {
        questions_per_s: median(&walls.iter().map(|w| resolved / w).collect::<Vec<_>>()),
        setup_s: median(&setups.seconds),
        peak_rss_mib,
        submit_p50_us: median(&submit_us),
        accuracy: ratio(
            traced
                .epochs
                .iter()
                .map(|e| e.fleet.accuracy * e.fleet.questions as f64)
                .sum(),
            resolved,
        ),
        cost_per_question_usd: ratio(traced.total_cost, resolved),
        makespan_min: traced.epochs.iter().map(|e| e.makespan).sum(),
        hit_latency_p50_min: quantile(&latencies, 0.5),
        hit_latency_p99_min: quantile(&latencies, 0.99),
    };

    let submits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "service.submit")
        .map(|s| s.ns() as f64 / 1e3)
        .collect();
    let epoch_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "service.run_epoch")
        .map(|s| s.ns() as f64 / 1e6)
        .collect();
    let shutdown_s = spans
        .iter()
        .filter(|s| s.name == "service.shutdown")
        .map(|s| s.ns() as f64 / 1e9)
        .sum();
    let queued = traced
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                ServiceEvent::Submitted {
                    decision: AdmissionDecision::Queue,
                    ..
                }
            )
        })
        .count();
    let (cost_rel_err, makespan_rel_err) = forecast_errors(&traced);
    let sum = |f: &dyn Fn(&cdas_engine::metrics::FleetReport) -> f64| -> f64 {
        traced.epochs.iter().map(f).sum()
    };
    let hits = sum(&|e| e.dispatches.len() as f64);
    let waits = sum(&|e| e.jobs.iter().map(|j| j.ticks_waited).sum::<usize>() as f64);
    let reads = sum(&|e| (e.cache_hits + e.cache_misses) as f64);
    let assigned =
        (inputs.real_questions() + gold_questions(&inputs)) * inputs.shape.workers_per_hit;
    let sharded: Vec<_> = traced
        .epochs
        .iter()
        .filter(|e| e.shards.len() > 1)
        .collect();
    let per_layer = PerLayer {
        scheduler_ticks: sum(&|e| e.ticks as f64),
        lease_attempts: hits + waits,
        lease_failures: waits,
        lease_yield: ratio(hits, hits + waits),
        online_answers_per_question: ratio(
            sum(&|e| e.fleet.mean_answers_used * e.fleet.questions as f64),
            resolved,
        ),
        online_cancelled_frac: ratio(sum(&|e| e.answers_cancelled as f64), assigned as f64),
        sharing_cache_hit_rate: ratio(sum(&|e| e.cache_hits as f64), reads),
        sharing_registry_size: traced
            .epochs
            .iter()
            .map(|e| e.registry_size as f64)
            .fold(0.0, f64::max),
        journal_records: journal_records as f64,
        journal_bytes_per_question: ratio(journal_bytes as f64, resolved),
        service_submit_p99_us: quantile(&submits, 0.99),
        service_submit_samples: submits.len() as f64,
        service_epoch_ms: median(&epoch_ms),
        service_shutdown_s: shutdown_s,
        service_queued_frac: ratio(queued as f64, traced.submitted as f64),
        admission_forecast_us: forecast_us,
        admission_cost_rel_err: cost_rel_err,
        admission_makespan_rel_err: makespan_rel_err,
        manifest_bytes_per_submit: ratio(manifest_bytes as f64, traced.submitted as f64),
        shard_imbalance: median(
            &sharded
                .iter()
                .map(|e| shard_imbalance(e))
                .collect::<Vec<_>>(),
        ),
        fleet_parallel_speedup: median(
            &sharded
                .iter()
                .map(|e| e.parallel_speedup())
                .collect::<Vec<_>>(),
        ),
        trace_overhead_frac: ratio(traced_wall_s - wall_median, wall_median),
        submit_samples: submit_us.len() as f64,
        hit_latency_samples: latencies.len() as f64,
        ..PerLayer::default()
    };
    Ok((checks, end_to_end, per_layer, spans))
}
